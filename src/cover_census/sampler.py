"""Exact uniform sampling of set partitions with Monte Carlo estimators.

The sampler draws partitions of [2n] exactly uniformly and estimates the
same probabilistic quantities the oracle counts exhaustively, bridging the
exact small-n regime and the asymptotic formulas.

Each draw takes one uniform integer rank in [0, B_size) and decodes it
block by block, so uniformity is exact and integer-only, with no rejection
step.  Among m remaining elements the block holding the smallest one has
size k for C(m-1, k-1) B_{m-k} ranks; within that range the rank splits
into the colex rank of the block's other k-1 members among the m-1 other
elements and the rank of the partition of the m-k elements left over.  The
colex rank is sum_j C(c_j, j) over the members' positions c_{k-1} > ... > c_1;
each c_j for j >= 2 is bisected from a cached binomial row, and c_1 is what
is left, since C(c_1, 1) = c_1.  The decode is a bijection from [0, B_size)
onto the partitions of [size].

Once at most _TAIL = 7 elements remain, the rest is read from a table:
``_tails[m][rank]`` is the growth string of the partition of m elements at
``rank``, for every m <= 7, 1,156 tuples in all.  The first draw builds it
with the same decode, ``_tails[m]`` from ``_tails[m - k]``.

``p-x0`` asks only whether some twin pair {j, j + n} of [2n] shares a
block, so with ``stop_at_twin`` the decode returns None at the first
element it places in the block of its twin, the last 7 elements included:
None exactly when a twin pair shares a block.  The rank is drawn whole
before the decode starts, so the random stream is the same either way.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import namedtuple
from typing import Callable, NamedTuple, Sequence

from .combinatorics import _bell_values, bell
from .errors import clip
from .oracle import image_collision_count, merged_twin_count

_MASK64 = (1 << 64) - 1


def _mix_seed(seed: int) -> int:
    """Derive the generator seed from a base seed: one splitmix64 output.

    The mixing gives nearby base seeds well-separated generator states.
    """
    z = (seed + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SamplerConfig(namedtuple("SamplerConfig", "trials seed")):
    """Trial count and base seed for one estimation run."""

    __slots__ = ()

    def __new__(cls, trials: int, seed: int) -> "SamplerConfig":
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must fit in 64 bits, got {clip(seed)}")
        return super().__new__(cls, trials, seed)

    @classmethod
    def _make(cls, iterable):
        """Build through ``__new__``, so ``_replace`` validates too."""
        return cls(*iterable)


class Estimate(NamedTuple):
    """A Monte Carlo estimate with its standard error."""

    estimate: float
    std_error: float


# Prefix sums of the block-size weights C(m-1, k-1) B_{m-k}, k = 1, 2, ...,
# for m remaining elements.  Each list grows only as far as a draw has needed,
# which keeps the cache small: the full lists up to m = 200 would hold about
# 20k big integers.  _unrank is the one place that grows and bisects them.
_cumulative: dict[int, list[int]] = {}


# Binomial rows for the subset decode: _binomials[j][c] = C(c, j) for j >= 2.
# Rows 0 and 1 stay empty, since C(c, 1) = c needs no table.  Like
# _cumulative the rows grow only as a draw needs them, up to the largest block
# drawn and to length m - 1; from row 2 on, a row is never shorter than the
# row above it.
_binomials: list[list[int]] = [[]]


def _binomial_rows(top: int, length: int) -> None:
    """Extend rows 2..top to at least ``length`` entries."""
    while len(_binomials) <= top:
        _binomials.append([])
    for j in range(2, top + 1):
        row = _binomials[j]
        row.extend(math.comb(c, j) for c in range(len(row), length))


_TAIL = 7
_tails: list[list[tuple[int, ...]]] = []


def _unrank(
    size: int, rank: int, stop_at_twin: bool = False
) -> tuple[int, ...] | None:
    """Decode a rank in [0, B_size): split off blocks, at least one, until
    at most _TAIL elements remain, then read their labels from _tails.

    With ``stop_at_twin``, return None at the first element placed in the
    block of its twin: None exactly when a twin pair shares a block, the
    last 7 elements included.  The twin is ``labels[element - half]`` with
    ``half = size // 2``, a negative index counting back from ``size``.
    Labels start at -1, so an unplaced twin never matches; without the flag
    half is 0, and the check reads the element's own label, still -1.
    """
    if not size:
        return ()
    half = size // 2 if stop_at_twin else 0
    bells = _bell_values  # filled to size: the rank came from bell(size)
    binomials = _binomials
    labels = [-1] * size
    remaining = list(range(size))
    label = 0
    m = size
    while True:
        # The block holding the smallest element has the least size k whose
        # cumulative weight exceeds the rank.
        cum = _cumulative.get(m)
        if cum is None:
            cum = _cumulative[m] = [bells[m - 1]]
        while rank >= cum[-1]:
            k = len(cum) + 1
            cum.append(cum[-1] + math.comb(m - 1, k - 1) * bells[m - k])
        k = bisect_right(cum, rank) + 1
        labels[remaining.pop(0)] = label
        if k > 1:
            rank -= cum[k - 2]
            subset, rank = divmod(rank, bells[m - k])
            # Colex unranking of the other k - 1 members, c_1 read directly.
            if k > 2 and (len(binomials) < k or len(binomials[k - 1]) < m - 1):
                _binomial_rows(k - 1, m - 1)
            for row in binomials[k - 1 : 1 : -1]:
                c = bisect_right(row, subset) - 1
                subset -= row[c]
                element = remaining.pop(c)
                if labels[element - half] == label:
                    return None
                labels[element] = label
            element = remaining.pop(subset)
            if labels[element - half] == label:
                return None
            labels[element] = label
        label += 1
        m -= k
        if m <= _TAIL:
            break
    for element, offset in zip(remaining, _tails[m][rank]):
        if labels[element - half] == label + offset:
            return None
        labels[element] = label + offset
    return tuple(labels)


def sample_partition(
    size: int, rng: random.Random, stop_at_twin: bool = False
) -> tuple[int, ...] | None:
    """Draw one exactly-uniform set partition of [size] as its growth string.

    A single ``rng.randrange(bell(size))`` picks the partition; the rank is
    decoded block by block as the module docstring describes.  Entry i is
    the block label of element i + 1, labels in order of first use, as in
    ``partitions.SetPartition.rgs``.

    With ``stop_at_twin`` and ``size = 2n``, return None exactly when a
    twin pair {j, j + n} shares a block, the last 7 elements included, so
    every draw returned is separated.  The rank is drawn first either way,
    so the stream of ranks is the same.
    """
    rank = rng.randrange(bell(size))  # bell refuses size < 0 or above its cap
    if not _tails:
        for m in range(_TAIL + 1):
            _tails.append([_unrank(m, r) for r in range(bell(m))])
    return _unrank(size, rank, stop_at_twin)


def _run_trials(
    n: int,
    config: SamplerConfig,
    value: Callable[[Sequence[int] | None], int],
    stop_at_twin: bool = False,
) -> tuple[int, int]:
    """Sum the statistic and its square over all trials, exactly.

    Each trial is one call to the module attribute ``sample_partition``,
    with ``stop_at_twin`` passed on, so a wrapper around that name sees
    every draw.
    """
    if n < 1:
        raise ValueError(f"sampling needs n >= 1, got {n}")
    size = 2 * n
    rng = random.Random(_mix_seed(config.seed))
    total = 0
    total_squares = 0
    for _ in range(config.trials):
        x = value(sample_partition(size, rng, stop_at_twin))
        total += x
        total_squares += x * x
    return total, total_squares


def _indicator_estimate(
    n: int,
    config: SamplerConfig,
    event: Callable[[Sequence[int] | None], bool],
    stop_at_twin: bool = False,
) -> Estimate:
    hits, _ = _run_trials(n, config, event, stop_at_twin)  # a bool sums as 0 or 1
    p = hits / config.trials
    return Estimate(p, math.sqrt(p * (1.0 - p) / config.trials))


def estimate_separation_probability(n: int, config: SamplerConfig) -> Estimate:
    """Estimate the probability that no twin pair of [2n] shares a block."""
    # None exactly when a twin pair shares a block, the last 7 elements included.
    return _indicator_estimate(
        n,
        config,
        lambda rgs: rgs is not None,
        stop_at_twin=True,
    )


def estimate_collision_probability(n: int, config: SamplerConfig) -> Estimate:
    """Estimate the probability of at least one folded-block collision."""
    return _indicator_estimate(n, config, lambda rgs: image_collision_count(rgs, n) > 0)


def estimate_twin_moment(n: int, r: int, config: SamplerConfig) -> Estimate:
    """Estimate the r-th falling-factorial moment of the merged-twin count."""
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
    return Estimate(mean, std_error)
