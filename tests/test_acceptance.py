"""Acceptance suite: the eight verification gates for this package.

Each test prints exactly one ``ACCEPTANCE <name>: PASS`` or ``FAIL`` line
(visible under ``pytest -s`` or in the captured output of a failing run)
and enforces the stated tolerances.  The n = 6 extensions repeat the
exhaustive checks at the next size.
"""

import math
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import scipy.stats

import cover_census
from cover_census.asymptotics import asymptotic_report, lambert_w
from cover_census.combinatorics import bell, merged_twin_moment, separation_probability
from cover_census.oracle import (
    fiber_check,
    oracle_counts,
    oracle_line_class_count,
)
from cover_census.sampler import (
    SamplerConfig,
    estimate_collision_probability,
    estimate_separation_probability,
    estimate_twin_moment,
    sample_partition,
)
from cover_census.sequences import full_table
from cover_census.series import PowerSeries

SAMPLER_SEED = 20260823

# Exhaustive-scan results at n = 6, frozen from recorded oracle runs; the
# n = 6 tests below recompute them from scratch.
N6_SEPARATED = 1_515_903
N6_IMAGE_DISTINCT = 3_461_983


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def test_oracle_formula_agreement():
    with criterion("oracle-formula-agreement"):
        start = time.monotonic()
        table = full_table(5)
        for n in range(6):
            census = oracle_counts(n)
            row = table.row(n)
            assert (census.s, census.t, census.u, census.v) == (
                row.s,
                row.t,
                row.u,
                row.v,
            )
            assert oracle_line_class_count(n) == row.l
        spot2, spot3 = table.row(2), table.row(3)
        assert (spot2.s, spot2.t, spot2.u, spot2.v, spot2.l) == (3, 1, 2, 1, 2)
        assert (spot3.s, spot3.t, spot3.u, spot3.v, spot3.l) == (16, 8, 9, 5, 8)
        assert time.monotonic() - start < 30.0


def test_oracle_formula_agreement_n6():
    with criterion("oracle-formula-agreement[n=6]"):
        start = time.monotonic()
        census = oracle_counts(6)
        row = full_table(6).row(6)
        assert (census.s, census.t, census.u, census.v) == (
            row.s,
            row.t,
            row.u,
            row.v,
        )
        assert oracle_line_class_count(6) == row.l
        assert time.monotonic() - start < 300.0


def test_fiber_structure():
    with criterion("fiber-structure"):
        for n in range(5):
            check = fiber_check(n)
            assert check.ok, f"fiber mismatch at n={n}: {check.mismatches[:3]}"
            census = oracle_counts(n)
            # t 2^n counts the separated partitions with distinct images.
            assert census.t << n == census.separated_image_distinct
            # s 2^n recovers all separated partitions weighted by 2^rho.
            assert census.s << n == sum(
                count << rho
                for rho, count in enumerate(census.collision_histogram)
            )


def test_moment_and_bonferroni_identities():
    with criterion("moment-bonferroni-identities"):
        for n in range(6):
            histogram = oracle_counts(n).merged_twin_histogram
            for r in range(n + 1):
                total = sum(
                    count * math.perm(x, r)
                    for x, count in enumerate(histogram)
                )
                assert total == math.perm(n, r) * bell(2 * n - r)
            assert separation_probability(n) * bell(2 * n) == histogram[0]
        assert separation_probability(2) * bell(4) == 7
        assert separation_probability(6) * bell(12) == N6_SEPARATED


def test_moment_and_bonferroni_identities_n6():
    with criterion("moment-bonferroni-identities[n=6]"):
        census = oracle_counts(6)
        assert census.separated == N6_SEPARATED
        assert census.image_distinct == N6_IMAGE_DISTINCT
        for r in range(7):
            total = sum(
                count * math.perm(x, r)
                for x, count in enumerate(census.merged_twin_histogram)
            )
            assert total == math.perm(6, r) * bell(12 - r)


def test_generating_function_identities():
    with criterion("generating-function-identities"):
        degree = 16
        table = full_table(degree)
        series = {
            name: PowerSeries.from_sequence(
                [getattr(row, name) for row in table.rows], degree
            )
            for name in ("s", "t", "u", "v", "l")
        }
        exp_x = PowerSeries.x(degree).exp()
        shifted = exp_x - PowerSeries.one(degree)
        bell_egf = shifted.exp()
        cube = PowerSeries.from_sequence([0, 0, 0, -1], degree)
        direct_l = (PowerSeries.x(degree) + cube).exp() * series["v"]
        assert series["u"].terms == (series["v"] * exp_x).terms
        assert series["s"].terms == (series["t"] * bell_egf).terms
        assert series["s"].terms == series["u"].compose(shifted).terms
        assert series["t"].terms == series["v"].compose(shifted).terms
        assert series["l"].terms == direct_l.terms
        assert series["l"].terms == (cube.exp() * series["u"]).terms


def test_lambert_w():
    with criterion("lambert-w"):
        for t in (1.0, 2.0, math.e, 10.0, 1e6, 1e12):
            w = lambert_w(t)
            assert abs(w * math.exp(w) - t) <= 1e-12 * t
        assert abs(lambert_w(math.e) - 1.0) <= 1e-12
        assert abs(lambert_w(2.0 * math.e**2) - 2.0) <= 1e-12


def test_sampler_consistency():
    with criterion("sampler-consistency"):
        config = SamplerConfig(trials=100_000, seed=SAMPLER_SEED)
        census2 = oracle_counts(2)
        exact = {
            (2, "p-x0"): separation_probability(2),
            (2, "moment"): merged_twin_moment(2, 1),
            (2, "p-collision"): Fraction(
                census2.bell_2n - census2.image_distinct, census2.bell_2n
            ),
            (6, "p-x0"): separation_probability(6),
            (6, "moment"): merged_twin_moment(6, 1),
            (6, "p-collision"): Fraction(
                bell(12) - N6_IMAGE_DISTINCT, bell(12)
            ),
        }
        for n in (2, 6):
            results = {
                "p-x0": estimate_separation_probability(n, config),
                "moment": estimate_twin_moment(n, 1, config),
                "p-collision": estimate_collision_probability(n, config),
            }
            for stat, result in results.items():
                gap = abs(result.estimate - float(exact[(n, stat)]))
                assert result.std_error > 0
                assert gap < 4 * result.std_error, (
                    f"n={n} {stat}: gap {gap} vs 4 se {4 * result.std_error}"
                )

        rng = random.Random(SAMPLER_SEED)
        trials = 150_000
        counts = {}
        for _ in range(trials):
            rgs = sample_partition(4, rng)
            counts[rgs] = counts.get(rgs, 0) + 1
        assert len(counts) == bell(4) == 15
        expected = trials / 15
        statistic = sum((c - expected) ** 2 / expected for c in counts.values())
        threshold = scipy.stats.chi2.ppf(0.999, 14)
        assert statistic < threshold, f"chi-square {statistic} vs {threshold}"


def test_convergence_trend():
    with criterion("convergence-trend"):
        start = time.monotonic()
        report = asymptotic_report(256)
        rows = {row.n: row for row in report}
        assert set(rows) == {4, 8, 16, 32, 64, 128, 256}
        assert abs(rows[256].ratio_t - 1.0) < abs(rows[16].ratio_t - 1.0)
        assert abs(rows[256].ratio_v - 1.0) < abs(rows[16].ratio_v - 1.0)
        for row in report:
            for name in ("s", "t", "u", "v", "l"):
                assert 0.2 < getattr(row, f"ratio_{name}") < 2.0
        assert time.monotonic() - start < 600.0


def test_determinism():
    with criterion("determinism"):
        commands = [
            ["table", "--max-n", "8", "--format", "json"],
            ["table", "--max-n", "8"],
            ["asymptotics", "--max-n", "8", "--format", "csv"],
            ["sample", "--n", "2", "--stat", "moment", "--r", "1",
             "--trials", "5000", "--seed", "99"],
            ["sample", "--n", "3", "--stat", "p-x0",
             "--trials", "3000", "--seed", "11"],
        ]
        # Point the children at the package this suite imported.
        package_parent = str(Path(cover_census.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": package_parent}
        for argv in commands:
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "cover_census", *argv],
                    capture_output=True,
                    env=env,
                )
                for _ in range(2)
            ]
            assert runs[0].returncode == runs[1].returncode == 0
            assert runs[0].stdout == runs[1].stdout, f"stdout differs: {argv}"
            assert runs[0].stderr == runs[1].stderr, f"stderr differs: {argv}"
