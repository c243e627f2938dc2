"""Exact uniform sampling of set partitions with Monte Carlo estimators.

The sampler draws partitions of [2n] exactly uniformly and estimates the
same probabilistic quantities the oracle counts exhaustively, bridging the
exact small-n regime and the asymptotic formulas.

Uniformity rests on exact integer weights: the block containing the
smallest remaining element has size k with probability
C(M-1, k-1) B_{M-k} / B_M among M remaining elements, and the size is
selected by inverting a uniform big-integer draw in [0, B_M), so no
floating-point rounding can bias the distribution.  The inversion bisects
cached prefix sums of those exact weights; it returns the k a linear scan
of the weights would, so the random stream and every draw are unchanged.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

from .combinatorics import bell
from .oracle import SetPartition, image_collision_count, merged_twin_count

_MASK64 = (1 << 64) - 1


def _mix_seed(seed: int, index: int) -> int:
    """Derive stream ``index`` of a base seed: one splitmix64 output.

    Estimators draw from stream 0; the mixing gives nearby base seeds
    well-separated generator states.
    """
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class SamplerConfig:
    """Trial count and base seed for one estimation run."""

    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo estimate with its standard error and provenance."""

    n: int
    statistic: str
    trials: int
    seed: int
    estimate: float
    std_error: float


# Prefix sums of the block-size weights C(m-1, k-1) B_{m-k}, k = 1, 2, ...,
# for m remaining elements.  Each list grows only as far as a draw has needed,
# which keeps the cache small: the full lists up to m = 200 would hold about
# 20k big integers.
_cumulative: dict[int, list[int]] = {}


def _block_size(m: int, draw: int) -> int:
    """Return the size of the block holding the smallest of m elements.

    ``draw`` lies in [0, B_m); the size is the least k whose cumulative
    weight exceeds it, which is what a linear scan of the weights returns.
    """
    cum = _cumulative.get(m)
    if cum is None:
        cum = _cumulative[m] = [bell(m - 1)]
    while draw >= cum[-1]:
        k = len(cum) + 1
        cum.append(cum[-1] + math.comb(m - 1, k - 1) * bell(m - k))
    return bisect_right(cum, draw) + 1


def sample_partition(size: int, rng: random.Random) -> SetPartition:
    """Draw one exactly-uniform set partition of [size]."""
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    bell(size)  # rejects a size above the Bell cap before any allocation
    labels = [0] * size
    remaining = list(range(1, size + 1))
    next_label = 0
    while remaining:
        m = len(remaining)
        k = _block_size(m, rng.randrange(bell(m)))
        labels[remaining.pop(0) - 1] = next_label
        if k > 1:
            for element in rng.sample(remaining, k - 1):
                labels[element - 1] = next_label
                del remaining[bisect_left(remaining, element)]
        next_label += 1
    return SetPartition(size, tuple(labels))


def _run_trials(
    n: int, config: SamplerConfig, value: Callable[[Sequence[int]], int]
) -> tuple[int, int]:
    """Sum the statistic and its square over all trials, exactly."""
    size = 2 * n
    rng = random.Random(_mix_seed(config.seed, 0))
    total = 0
    total_squares = 0
    for _ in range(config.trials):
        x = value(sample_partition(size, rng).rgs)
        total += x
        total_squares += x * x
    return total, total_squares


def _indicator_estimate(
    n: int,
    config: SamplerConfig,
    statistic: str,
    event: Callable[[Sequence[int]], bool],
) -> Estimate:
    hits, _ = _run_trials(n, config, lambda rgs: 1 if event(rgs) else 0)
    p = hits / config.trials
    return Estimate(
        n=n,
        statistic=statistic,
        trials=config.trials,
        seed=config.seed,
        estimate=p,
        std_error=math.sqrt(p * (1.0 - p) / config.trials),
    )


def estimate_separation_probability(n: int, config: SamplerConfig) -> Estimate:
    """Estimate the probability that no twin pair of [2n] shares a block."""
    if n < 1:
        raise ValueError(f"estimate_separation_probability() needs n >= 1, got {n}")
    return _indicator_estimate(
        n, config, "p-x0", lambda rgs: merged_twin_count(rgs, n) == 0
    )


def estimate_collision_probability(n: int, config: SamplerConfig) -> Estimate:
    """Estimate the probability of at least one folded-block collision."""
    if n < 1:
        raise ValueError(f"estimate_collision_probability() needs n >= 1, got {n}")
    return _indicator_estimate(
        n, config, "p-collision", lambda rgs: image_collision_count(rgs, n) > 0
    )


def estimate_twin_moment(n: int, r: int, config: SamplerConfig) -> Estimate:
    """Estimate the r-th falling-factorial moment of the merged-twin count."""
    if n < 1:
        raise ValueError(f"estimate_twin_moment() needs n >= 1, got {n}")
    if not 0 <= r <= n:
        raise ValueError(f"estimate_twin_moment() needs 0 <= r <= n, got r={r}")
    total, total_squares = _run_trials(
        n, config, lambda rgs: math.perm(merged_twin_count(rgs, n), r)
    )
    trials = config.trials
    mean = total / trials
    if trials > 1:
        variance = (total_squares - total * total / trials) / (trials - 1)
        std_error = math.sqrt(max(variance, 0.0) / trials)
    else:
        std_error = 0.0
    return Estimate(
        n=n,
        statistic="moment",
        trials=trials,
        seed=config.seed,
        estimate=mean,
        std_error=std_error,
    )
