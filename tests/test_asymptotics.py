"""Tests for Lambert W, the estimators, exact probability formulas, and
the convergence report."""

import math
from fractions import Fraction

import mpmath
import pytest
import scipy.special

from cover_census.asymptotics import (
    asymptotic_report,
    lambert_w,
    log_cover_estimate,
    log_restricted_estimate,
    log_restricted_w,
    ratio_trends,
    report_grid,
)
from cover_census.combinatorics import (
    DEFAULT_BELL_CAP,
    bell,
    image_collision_bound,
    merged_twin_moment,
    merged_twin_moment_variance,
    separation_probability,
)
from cover_census.oracle import oracle_counts
from cover_census.sequences import full_table


class TestLambertW:
    @pytest.mark.parametrize(
        "t", [1.0, 2.0, math.e, 10.0, 1e6, 1e12, 0.01, 0.5, 1e3, 1e9, 1e15]
    )
    def test_defining_identity(self, t):
        w = lambert_w(t)
        assert abs(w * math.exp(w) - t) <= 1e-12 * t

    def test_closed_form_points(self):
        assert lambert_w(math.e) == pytest.approx(1.0, abs=1e-12)
        assert lambert_w(2.0 * math.e**2) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("exponent", range(-2, 15))
    def test_matches_scipy(self, exponent):
        t = 10.0**exponent
        reference = float(scipy.special.lambertw(t).real)
        assert lambert_w(t) == pytest.approx(reference, rel=1e-10)

    def test_requires_positive_argument(self):
        with pytest.raises(ValueError):
            lambert_w(0.0)
        with pytest.raises(ValueError):
            lambert_w(-1.0)

    def test_monotone(self):
        values = [lambert_w(t) for t in (0.1, 1.0, 10.0, 100.0, 1e6)]
        assert values == sorted(values)
        assert values[0] > 0


class TestLogInteger:
    # asymptotic_report takes math.log of exact integers far beyond the
    # float range, so it relies on math.log staying accurate there.
    def test_huge_matches_mpmath(self):
        big = 3**4000 + 12345
        reference = float(mpmath.log(mpmath.mpf(big)))
        assert math.log(big) == pytest.approx(reference, rel=1e-12)

    def test_huge_bell_number(self):
        value = bell(1000)
        reference = float(mpmath.log(mpmath.mpf(value)))
        assert math.log(value) == pytest.approx(reference, rel=1e-12)


class TestEstimators:
    def test_cover_estimate_formula(self):
        for n in (2, 5, 16, 100):
            log_b = math.log(bell(2 * n))
            expected = (
                log_b - n * math.log(2.0) + 0.5 * math.log(math.log(n) / (2 * n))
            )
            assert log_cover_estimate(n, log_b) == pytest.approx(expected, rel=1e-14)

    def test_restricted_estimate_formula(self):
        for n in (2, 5, 16, 100):
            log_b = math.log(bell(2 * n))
            half = 0.5 * math.log(2 * n / math.log(n))
            expected = log_b - n * math.log(2.0) - 0.5 * math.log(n) - half * half
            assert log_restricted_estimate(n, log_b) == pytest.approx(
                expected, rel=1e-14
            )

    def test_restricted_w_against_scipy(self):
        # The shape is affine in log B_2n, so the n = 10^6 point, far beyond
        # the Bell table, takes a fixed value for it.
        points = [(n, math.log(bell(2 * n))) for n in (1, 2, 16, 100)]
        for n, log_b in points + [(10**6, 2.2e7)]:
            w = float(scipy.special.lambertw(2.0 * n).real)
            expected = (
                log_b - n * math.log(2.0) + 0.5 * math.log(w / (2 * n)) - (w / 2) ** 2
            )
            assert log_restricted_w(n, log_b) == pytest.approx(expected, rel=1e-12)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            log_cover_estimate(1, 0.0)
        with pytest.raises(ValueError):
            log_restricted_estimate(1, 0.0)
        with pytest.raises(ValueError):
            log_restricted_w(0, 0.0)


class TestExactProbabilities:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_moments_match_oracle_histogram(self, n):
        histogram = oracle_counts(n).merged_twin_histogram
        for r in range(n + 1):
            weighted = sum(
                count * math.perm(x, r)
                for x, count in enumerate(histogram)
            )
            assert merged_twin_moment(n, r) == Fraction(weighted, bell(2 * n))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_moment_variance_matches_oracle_histogram(self, n):
        histogram = oracle_counts(n).merged_twin_histogram
        for r in range(n + 1):
            values = [math.perm(x, r) for x in range(n + 1)]
            mean = Fraction(
                sum(c * y for c, y in zip(histogram, values)), bell(2 * n)
            )
            second = Fraction(
                sum(c * y * y for c, y in zip(histogram, values)), bell(2 * n)
            )
            assert merged_twin_moment_variance(n, r) == second - mean * mean

    def test_moment_variance_vanishes_only_at_r0(self):
        assert merged_twin_moment_variance(6, 0) == 0
        assert all(merged_twin_moment_variance(6, r) > 0 for r in range(1, 7))

    def test_moment_closed_form(self):
        assert merged_twin_moment(2, 1) == Fraction(2, 3)
        assert merged_twin_moment(6, 1) == Fraction(6 * bell(11), bell(12))

    def test_moment_vanishes_beyond_n(self):
        assert merged_twin_moment(3, 4) == 0

    def test_moment_domain(self):
        with pytest.raises(ValueError):
            merged_twin_moment(-1, 0)
        with pytest.raises(ValueError):
            merged_twin_moment(2, -1)

    def test_separation_probability_frozen(self):
        assert separation_probability(0) == 1
        assert separation_probability(1) == Fraction(1, 2)
        assert separation_probability(2) == Fraction(7, 15)
        assert separation_probability(6) == Fraction(1515903, 4213597)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_separation_probability_matches_oracle(self, n):
        census = oracle_counts(n)
        assert separation_probability(n) == Fraction(
            census.separated, census.bell_2n
        )

    def test_separation_ratio(self):
        # The ratio of p_n to the paper's limit shape sqrt(log n / 2n),
        # which vanishes at n = 1.
        shape = math.sqrt(math.log(2) / 4.0)
        expected = float(Fraction(7, 15)) / shape
        assert float(separation_probability(2)) / shape == pytest.approx(
            expected, rel=1e-14
        )
        with pytest.raises(ZeroDivisionError):
            float(separation_probability(1)) / math.sqrt(math.log(1) / 2.0)

    def test_separation_ratio_approaches_one(self):
        # Convergence is logarithmic and not monotone step to step, so
        # only the endpoints are compared.
        shapes = {n: math.sqrt(math.log(n) / (2.0 * n)) for n in (16, 256)}
        deviations = [
            abs(float(separation_probability(n)) / shape - 1.0)
            for n, shape in shapes.items()
        ]
        assert deviations[1] < deviations[0]
        assert deviations[1] < 0.1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_collision_bound_dominates_truth(self, n):
        census = oracle_counts(n)
        actual = Fraction(
            census.bell_2n - census.image_distinct, census.bell_2n
        )
        assert image_collision_bound(n) >= actual

    def test_collision_bound_degenerate(self):
        assert image_collision_bound(0) == 0

    def test_bell_cap_respected(self):
        n = DEFAULT_BELL_CAP // 2 + 1
        with pytest.raises(ValueError, match="cap"):
            separation_probability(n)
        with pytest.raises(ValueError, match="cap"):
            merged_twin_moment(n, 1)
        with pytest.raises(ValueError, match="cap"):
            image_collision_bound(n)


class TestReport:
    def test_grid_shapes(self):
        assert report_grid(2) == [2]
        assert report_grid(3) == [3]
        assert report_grid(4) == [4]
        assert report_grid(16) == [4, 8, 16]
        assert report_grid(20) == [4, 8, 16, 20]
        with pytest.raises(ValueError):
            report_grid(1)

    def test_report_exact_rows(self):
        rows = asymptotic_report(16)
        table = full_table(16)
        assert [row.n for row in rows] == [4, 8, 16]
        for row in rows:
            assert row.log_bell_2n == pytest.approx(
                math.log(bell(2 * row.n)), rel=1e-14
            )
            for name in ("s", "t", "u", "v", "l"):
                assert getattr(row, f"log_{name}") == pytest.approx(
                    math.log(getattr(table.row(row.n), name)), rel=1e-14
                )
            assert (row.est_st, row.est_uvl, row.est_uvl_w) == (
                log_cover_estimate(row.n, row.log_bell_2n),
                log_restricted_estimate(row.n, row.log_bell_2n),
                log_restricted_w(row.n, row.log_bell_2n),
            )
            # The paper's pairing, written out apart from the module's.
            for ratio, log_count, estimate in [
                ("ratio_s", "log_s", "est_st"),
                ("ratio_t", "log_t", "est_st"),
                ("ratio_u", "log_u", "est_uvl"),
                ("ratio_v", "log_v", "est_uvl"),
                ("ratio_l", "log_l", "est_uvl"),
                ("ratio_u_w", "log_u", "est_uvl_w"),
                ("ratio_v_w", "log_v", "est_uvl_w"),
                ("ratio_l_w", "log_l", "est_uvl_w"),
            ]:
                assert getattr(row, ratio) == pytest.approx(
                    math.exp(getattr(row, log_count) - getattr(row, estimate)),
                    rel=1e-12,
                )

    def test_w_shape_sandwiches_v_and_u_to_128(self):
        # v approaches its Lambert-W shape from below and u from above, each
        # monotonically; l is pinned only by its formula above.
        rows = asymptotic_report(128)
        assert [row.n for row in rows] == [4, 8, 16, 32, 64, 128]
        for row in rows:
            assert row.ratio_v_w < 1 < row.ratio_u_w
        for previous, row in zip(rows, rows[1:]):
            assert previous.ratio_v_w < row.ratio_v_w
            assert previous.ratio_u_w > row.ratio_u_w

    def test_max_n_below_two_rejected(self):
        assert [row.n for row in asymptotic_report(2)] == [2]
        with pytest.raises(ValueError):
            asymptotic_report(1)

    def test_trends_improve_to_64(self):
        checks = {c.column: c for c in ratio_trends(asymptotic_report(64))}
        assert set(checks) == {"ratio_t", "ratio_v"}
        for check in checks.values():
            assert check.first_n == 4
            assert check.last_n == 64
            assert check.improved

    def test_trends_need_two_rows(self):
        rows = asymptotic_report(3)
        assert [row.n for row in rows] == [3]
        assert ratio_trends(rows) == []
