"""Tests for the exact-weight partition sampler and its estimators."""

import hashlib
import math
import random
import subprocess
import sys
from itertools import accumulate
from pathlib import Path

import pytest
import scipy.stats

from cover_census import sampler
from cover_census.cli import main
from cover_census.combinatorics import (
    DEFAULT_BELL_CAP,
    bell,
    merged_twin_moment,
    separation_probability,
)
from cover_census.oracle import merged_twin_count, oracle_counts
from cover_census.partitions import SetPartition, enumerate_partitions
from cover_census.sampler import (
    Estimate,
    SamplerConfig,
    _mix_seed,
    _unrank,
    estimate_collision_probability,
    estimate_separation_probability,
    estimate_twin_moment,
    sample_partition,
)

SEED = 987654321


class TestSamplePartition:
    def test_returns_valid_partitions(self):
        rng = random.Random(SEED)
        for size in (0, 1, 2, 5, 9):
            draw = sample_partition(size, rng)
            # SetPartition rejects a string that is not a growth string.
            assert SetPartition(size, draw).rgs == draw

    def test_size_zero(self):
        assert sample_partition(0, random.Random(0)) == ()

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="negative n, got -1"):
            sample_partition(-1, random.Random(0))

    def test_bell_cap_respected(self):
        with pytest.raises(ValueError, match="cap"):
            sample_partition(DEFAULT_BELL_CAP + 1, random.Random(0))

    def test_deterministic_given_seed(self):
        draws_a = [sample_partition(6, random.Random(SEED)) for _ in range(1)]
        draws_b = [sample_partition(6, random.Random(SEED)) for _ in range(1)]
        assert draws_a == draws_b
        rng_a, rng_b = random.Random(SEED), random.Random(SEED)
        stream_a = [sample_partition(5, rng_a) for _ in range(40)]
        stream_b = [sample_partition(5, rng_b) for _ in range(40)]
        assert stream_a == stream_b

    def test_uniform_over_partitions_of_three(self):
        rng = random.Random(SEED)
        trials = 25_000
        counts = {}
        for _ in range(trials):
            rgs = sample_partition(3, rng)
            counts[rgs] = counts.get(rgs, 0) + 1
        assert len(counts) == bell(3) == 5
        observed = list(counts.values())
        _, p_value = scipy.stats.chisquare(observed)
        assert p_value > 1e-3

    def test_singleton_probability(self):
        # P(element 1 alone) = B_{m-1} / B_m; check m = 5 empirically.
        rng = random.Random(SEED)
        trials = 20_000
        hits = sum(
            1
            for _ in range(trials)
            if (lambda rgs: 0 not in rgs[1:])(sample_partition(5, rng))
        )
        expected = bell(4) / bell(5)
        error = math.sqrt(expected * (1 - expected) / trials)
        assert abs(hits / trials - expected) < 4 * error


class _FixedRank:
    """An rng stub with only ``randrange``: it returns a set rank, once per draw."""

    def __init__(self, size):
        self.size = size
        self.rank = None

    def randrange(self, stop):
        assert stop == bell(self.size)
        assert self.rank is not None, "more than one randrange call in a draw"
        rank, self.rank = self.rank, None
        return rank


class TestRankDecode:
    @pytest.mark.parametrize("size", range(10))
    def test_every_rank_gives_each_partition_once(self, size):
        rng = _FixedRank(size)
        decoded = []
        for rank in range(bell(size)):
            rng.rank = rank
            decoded.append(sample_partition(size, rng))
            assert rng.rank is None
        expected = [partition.rgs for partition in enumerate_partitions(size)]
        assert sorted(decoded) == sorted(expected)

    @pytest.mark.parametrize("size", range(10))
    def test_every_rank_matches_reference(self, size):
        # Sizes up to _TAIL are read from the table whole; above it, the
        # decode splits blocks off before it reads the table.
        rng = _FixedRank(size)
        for rank in range(bell(size)):
            rng.rank = rank
            assert sample_partition(size, rng) == _reference_decode(size, rank)

    @pytest.mark.parametrize("size", [12, 200])
    def test_extreme_and_seeded_ranks_match_reference(self, size):
        seeded = random.Random(SEED + size)
        ranks = [0, bell(size) - 1]
        ranks += [seeded.randrange(bell(size)) for _ in range(200)]
        rng = _FixedRank(size)
        for rank in ranks:
            rng.rank = rank
            assert sample_partition(size, rng) == _reference_decode(size, rank)

    @pytest.mark.parametrize("size", [12, 200])
    def test_first_split_boundaries_from_cold_caches(self, monkeypatch, size):
        # Both sides of every boundary of the first block size, decoded from
        # empty caches in shuffled and in sorted order, so that the decode
        # meets each cached list both short and long enough.
        cumulative = list(
            accumulate(math.comb(size - 1, k) * bell(size - 1 - k) for k in range(size))
        )
        ranks = {0, cumulative[-1] - 1}
        for boundary in cumulative[:-1]:
            ranks |= {boundary - 1, boundary}
        expected = {rank: _reference_decode(size, rank) for rank in ranks}
        shuffled = sorted(ranks)
        random.Random(SEED).shuffle(shuffled)
        rng = _FixedRank(size)
        for order in (shuffled, sorted(ranks)):
            monkeypatch.setattr(sampler, "_cumulative", {})
            monkeypatch.setattr(sampler, "_binomials", [])
            monkeypatch.setattr(sampler, "_tails", [])
            for rank in order:
                rng.rank = rank
                draw = sample_partition(size, rng)
                assert draw == expected[rank]
                # The prefix sums cover the first block drawn: only
                # _unrank grows them, and it never reads past their end.
                assert len(sampler._cumulative[size]) >= draw.count(0)
            assert sampler._cumulative[size] == cumulative


def _reference_decode(size, rank):
    """Reference: split the first block by a linear weight scan, then take
    its other members by colex unranking with math.comb, and repeat."""
    labels = [None] * size
    label = 0
    while None in labels:
        remaining = [i for i, x in enumerate(labels) if x is None]
        m = len(remaining)
        k = _scan_first_block(m, rank)
        rank -= sum(math.comb(m - 1, i - 1) * bell(m - i) for i in range(1, k))
        subset, rank = divmod(rank, bell(m - k))
        labels[remaining[0]] = label
        for j in range(k - 1, 0, -1):
            # The largest c with C(c, j) <= subset.
            c = j - 1
            while math.comb(c + 1, j) <= subset:
                c += 1
            subset -= math.comb(c, j)
            labels[remaining[1 + c]] = label
        label += 1
    return tuple(labels)


class TestTwinExit:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_rank_gives_the_full_verdict(self, n):
        size = 2 * n
        sample_partition(0, random.Random(0))  # builds the tail table
        separated = 0
        for rank in range(bell(size)):
            full = _unrank(size, rank)
            early = _unrank(size, rank, stop_at_twin=True)
            merged = merged_twin_count(full, n) > 0
            assert (early is None) == merged
            assert early is None or early == full
            separated += not merged
        assert separated == separation_probability(n) * bell(size)

    @pytest.mark.parametrize("size", [12, 16, 40, 200])
    def test_seeded_draws_from_cold_caches(self, monkeypatch, size):
        n = size // 2
        seeded = random.Random(SEED + size)
        ranks = [0, bell(size) - 1]
        ranks += [seeded.randrange(bell(size)) for _ in range(300)]
        monkeypatch.setattr(sampler, "_cumulative", {})
        monkeypatch.setattr(sampler, "_binomials", [])
        monkeypatch.setattr(sampler, "_tails", [])
        rng = _FixedRank(size)
        early = []
        for rank in ranks:
            rng.rank = rank
            early.append(sample_partition(size, rng, stop_at_twin=True))
        for rank, draw in zip(ranks, early):
            full = _reference_decode(size, rank)
            assert draw == (None if merged_twin_count(full, n) else full)
        # Both outcomes occur at every size tested.
        assert None in early
        assert any(draw is not None for draw in early)

    @pytest.mark.parametrize("n, trials", [(6, 2000), (100, 200)])
    def test_estimator_draws_once_per_trial(self, monkeypatch, n, trials):
        # The benchmark's replay times each draw through a wrapper around
        # the module attribute and counts one call per trial.
        calls = []
        draw = sampler.sample_partition

        def counted_draw(*args, **kwargs):
            calls.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr(sampler, "sample_partition", counted_draw)
        config = SamplerConfig(trials=trials, seed=SEED)
        result = estimate_separation_probability(n, config)
        assert len(calls) == trials
        # The same stream of full draws gives the same count.
        rng = random.Random(_mix_seed(SEED))
        hits = sum(
            merged_twin_count(draw(2 * n, rng), n) == 0 for _ in range(trials)
        )
        assert result.estimate == hits / trials


class TestTailTable:
    def test_table_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(sampler, "_tails", [])
        rng = random.Random(SEED)
        for size in (12, 200, 1024):
            sample_partition(size, rng)
            assert len(sampler._tails) == sampler._TAIL + 1
            assert sum(map(len, sampler._tails)) == sum(
                bell(m) for m in range(sampler._TAIL + 1)
            )

    def test_import_builds_nothing(self):
        package_parent = str(Path(sampler.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {package_parent!r}); "
            "import cover_census.cli; from cover_census import sampler; "
            "print(sampler._tails, sampler._cumulative, sampler._binomials)"
        )
        result = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout == "[] {} [[]]\n"


def _scan_first_block(m, draw):
    """Reference: scan the exact weights C(m-1, k-1) B_{m-k} in order."""
    k = 1
    while True:
        weight = math.comb(m - 1, k - 1) * bell(m - k)
        if draw < weight:
            return k
        draw -= weight
        k += 1


class TestBlockSize:
    """The first block's size, read as ``draw.count(0)`` from ``_unrank``."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self, monkeypatch):
        sample_partition(0, random.Random(0))  # builds the tail table
        monkeypatch.setattr(sampler, "_cumulative", {})

    def test_full_prefix_sums_end_at_bell(self):
        for m in range(1, 31):
            assert _unrank(m, bell(m) - 1).count(0) == m
            cumulative = sampler._cumulative[m]
            assert len(cumulative) == m
            assert cumulative[-1] == bell(m)

    def test_matches_linear_search_for_every_draw(self):
        for m in range(1, 9):
            for draw in range(bell(m)):
                assert _unrank(m, draw).count(0) == _scan_first_block(m, draw)

    @pytest.mark.parametrize("m", [50, 100, 200])
    def test_boundary_draws_in_and_out_of_order(self, m):
        weights = [math.comb(m - 1, k - 1) * bell(m - k) for k in range(1, m + 1)]
        cumulative = list(accumulate(weights))
        cases = [(0, 1), (cumulative[-1] - 1, m)]
        for i in range(m - 1):
            cases += [(cumulative[i] - 1, i + 1), (cumulative[i], i + 2)]
        shuffled = cases[:]
        random.Random(SEED).shuffle(shuffled)
        for order in (shuffled, sorted(cases)):
            sampler._cumulative.clear()
            for draw, k in order:
                assert _unrank(m, draw).count(0) == k
            assert sampler._cumulative[m] == cumulative


class TestStream:
    """Pin the one-rank stream: each draw decodes one ``randrange(bell(size))``.

    Any later change to the partitions drawn at a seed is a declared change.
    """

    def test_draws_are_pinned(self):
        rng = random.Random(SEED)
        small = [sample_partition(12, rng) for _ in range(2000)]
        big = [sample_partition(200, rng) for _ in range(20)]
        digest = hashlib.sha256(repr((small, big)).encode()).hexdigest()
        assert digest == (
            "b55c4f099eb6b3c599fdd6fe430b1b6bfda6a614b0e78383ee8e9c3f6d82104e"
        )

    @pytest.mark.parametrize(
        "n, trials, expected",
        [
            (
                6,
                25_000,
                "5b89fc5edc941ce53deb9a8ac30d310a413ec77b77a1de50a6b8003bdb9b70a3",
            ),
            (
                100,
                1_000,
                "1d517dfd6cf582ebfa55cf72fd553ee62895704eb432521299f868c2f8cb6f6e",
            ),
        ],
        ids=["n6", "n100"],
    )
    def test_cli_stdout_is_pinned(self, capsys, n, trials, expected):
        argv = ["sample", "--n", str(n), "--stat", "p-x0"]
        assert main(argv + ["--trials", str(trials), "--seed", "1"]) == 0
        stdout = capsys.readouterr().out
        assert hashlib.sha256(stdout.encode()).hexdigest() == expected


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(trials=0, seed=1)
        with pytest.raises(ValueError):
            SamplerConfig(trials=10, seed=-1)
        with pytest.raises(ValueError):
            SamplerConfig(trials=10, seed=1 << 64)

    def test_replace_and_make_validate(self):
        with pytest.raises(ValueError):
            SamplerConfig(10, 1)._replace(trials=0)
        with pytest.raises(ValueError):
            SamplerConfig._make((10, -1))
        assert SamplerConfig(10, 1)._replace(seed=5) == SamplerConfig(10, 5)

    def test_defaults(self):
        config = SamplerConfig(trials=10, seed=(1 << 64) - 1)
        assert config.seed == (1 << 64) - 1

    def test_mixed_seeds_distinct(self):
        mixed = {_mix_seed(seed) for seed in range(2000)}
        assert len(mixed) == 2000
        assert all(0 <= value < 1 << 64 for value in mixed)


class TestEstimators:
    def test_separation_estimate_close(self):
        config = SamplerConfig(trials=20_000, seed=SEED)
        result = estimate_separation_probability(2, config)
        exact = float(separation_probability(2))
        assert abs(result.estimate - exact) < 4 * result.std_error
        assert result.std_error == pytest.approx(
            math.sqrt(result.estimate * (1 - result.estimate) / 20_000)
        )

    def test_collision_estimate_close(self):
        config = SamplerConfig(trials=20_000, seed=SEED)
        result = estimate_collision_probability(3, config)
        census = oracle_counts(3)
        exact = (census.bell_2n - census.image_distinct) / census.bell_2n
        assert abs(result.estimate - exact) < 4 * result.std_error

    def test_moment_estimate_close(self):
        config = SamplerConfig(trials=20_000, seed=SEED)
        result = estimate_twin_moment(3, 1, config)
        exact = float(merged_twin_moment(3, 1))
        assert abs(result.estimate - exact) < 4 * result.std_error
        assert result.std_error > 0

    def test_moment_r_zero_degenerate(self):
        config = SamplerConfig(trials=500, seed=SEED)
        result = estimate_twin_moment(4, 0, config)
        assert result.estimate == 1.0
        assert result.std_error == 0.0

    def test_single_trial_std_error(self):
        config = SamplerConfig(trials=1, seed=SEED)
        result = estimate_twin_moment(2, 1, config)
        assert result.std_error == 0.0

    def test_reproducible(self):
        config = SamplerConfig(trials=2_000, seed=SEED)
        first = estimate_separation_probability(2, config)
        second = estimate_separation_probability(2, config)
        assert first == second

    def test_domain_checks(self):
        config = SamplerConfig(trials=10, seed=SEED)
        with pytest.raises(ValueError, match="sampling needs n >= 1, got 0"):
            estimate_separation_probability(0, config)
        with pytest.raises(ValueError, match="sampling needs n >= 1, got 0"):
            estimate_collision_probability(0, config)
        with pytest.raises(ValueError, match="sampling needs n >= 1, got 0"):
            estimate_twin_moment(0, 0, config)
        with pytest.raises(ValueError):
            estimate_twin_moment(3, 4, config)
        with pytest.raises(ValueError):
            estimate_twin_moment(3, -1, config)

    def test_estimate_is_frozen_record(self):
        config = SamplerConfig(trials=10, seed=SEED)
        result = estimate_separation_probability(1, config)
        assert isinstance(result, Estimate)
        with pytest.raises(AttributeError):
            result.estimate = 0.0

    def test_estimate_holds_only_what_the_draws_found(self):
        # The request (n, statistic, trials, seed) is echoed by the CLI.
        assert Estimate._fields == ("estimate", "std_error")
