"""Tests for the exact sequence pipeline and its cross-checks."""

import tracemalloc
from collections import Counter
from itertools import combinations
from math import comb, factorial

import pytest

from cover_census import sequences
from cover_census.combinatorics import DEFAULT_BELL_CAP, bell, stirling2
from cover_census.errors import ConsistencyError
from cover_census.oracle import oracle_counts
from cover_census.partitions import classify_partition, enumerate_partitions
from cover_census.sequences import (
    SequenceTable,
    TableRow,
    binomial_transform,
    block_count_series,
    collision_histogram_route,
    full_table,
    line_transform,
    restricted_proper_sequence,
    sequence_from_block_series,
    stirling_transform,
)
from cover_census.series import PowerSeries

# Verified against the exhaustive oracle for n <= 6 (see test_oracle.py
# and the acceptance suite).
TABLE_KNOWN = [
    # (n, s, t, u, v, l, bell_2n)
    (0, 1, 1, 1, 1, 1, 1),
    (1, 1, 0, 1, 0, 1, 2),
    (2, 3, 1, 2, 1, 2, 15),
    (3, 16, 8, 9, 5, 8, 203),
    (4, 139, 80, 70, 43, 66, 4140),
    (5, 1750, 1088, 794, 518, 774, 115975),
    (6, 29388, 19232, 12055, 8186, 11885, 4213597),
]


@pytest.fixture(scope="module")
def table6() -> SequenceTable:
    return full_table(6)


class TestTransforms:
    def test_binomial_transform_of_ones(self):
        assert binomial_transform([1] * 7) == [2**n for n in range(7)]

    def test_binomial_transform_definition(self):
        values = [3, 1, 4, 1, 5]
        out = binomial_transform(values)
        for n in range(5):
            assert out[n] == sum(
                comb(n, k) * values[k] for k in range(n + 1)
            )

    def test_stirling_transform_of_ones_is_bell(self):
        assert stirling_transform([1] * 9) == [bell(n) for n in range(9)]

    def test_stirling_transform_definition(self):
        values = [2, 7, 1, 8, 2, 8]
        out = stirling_transform(values)
        for n in range(6):
            assert out[n] == sum(
                stirling2(n, k) * values[k] for k in range(n + 1)
            )

    def test_empty_input(self):
        assert binomial_transform([]) == []
        assert stirling_transform([]) == []


class TestRestrictedProperSequence:
    def test_known_values(self):
        assert restricted_proper_sequence(6) == [1, 0, 1, 5, 43, 518, 8186]

    def test_matches_literal_bivariate_route(self):
        # The collapsed summation must agree with extracting coefficients
        # from the plain two-variable block-count series.
        literal = sequence_from_block_series(block_count_series(8))
        assert restricted_proper_sequence(8) == literal

    def test_matches_diagonal_sum(self):
        # A second route for every v_n and u_n to n = 64 that shares no code
        # with the collapsed extraction.  With the derangement numbers D,
        # H_j = sum_m C(2j, m) D(2j - m) C(C(m, 2), j) / (2j - 1)!!, and
        # v_n = 2^-n sum_b (-1)^b C(n, b) H_(n-b); u_n drops the sign.
        top = 64
        derangement = [1]
        for i in range(1, 2 * top + 1):
            derangement.append(i * derangement[-1] + (-1) ** i)
        h = []
        double_factorial = 1  # (2j - 1)!!
        for j in range(top + 1):
            total = sum(
                comb(2 * j, m) * derangement[2 * j - m] * comb(comb(m, 2), j)
                for m in range(2 * j + 1)
            )
            quotient, remainder = divmod(total, double_factorial)
            assert remainder == 0, j
            h.append(quotient)
            double_factorial *= 2 * j + 1
        v, u = [], []
        for n in range(top + 1):
            terms = [comb(n, b) * h[n - b] for b in range(n + 1)]
            signed = sum(term if b % 2 == 0 else -term for b, term in enumerate(terms))
            for values, total in ((v, signed), (u, sum(terms))):
                value, remainder = divmod(total, 1 << n)
                assert remainder == 0, n
                values.append(value)
        expected = restricted_proper_sequence(top)
        assert v == expected
        assert u == binomial_transform(expected)

    def test_extraction_holds_one_row_at_a_time(self):
        # One row C(C(m, 2), j) at a time, added straight into the
        # numerators, peaks near 0.03 MB at n = 64; a table of every row,
        # or of every (b, j) sum, peaks near 0.9 MB.
        tracemalloc.start()
        try:
            restricted_proper_sequence(64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200_000

    def test_block_count_grid_counts_covers_by_block_count(self):
        # grid[n][j] is the number of restricted proper 2-covers of [n]
        # with j blocks; count those covers exhaustively for n <= 4.
        grid = block_count_series(4)
        for n, row in enumerate(grid):
            covers = set()
            for partition in enumerate_partitions(2 * n):
                cover = classify_partition(partition, n).cover
                if cover is not None and _restricted_proper(cover):
                    covers.add(cover)
            by_blocks = Counter(len(cover.blocks) for cover in covers)
            assert row == [by_blocks[j] for j in range(len(row))]

    def test_block_count_grid_row_6(self):
        # The covers of [6] have 4 to 9 blocks; the row sums to v_6 = 8186.
        row = block_count_series(6)[6]
        assert row == [0] * 4 + [30, 1230, 3670, 2706, 535, 15] + [0] * 3
        assert all(isinstance(count, int) for count in row)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            restricted_proper_sequence(-1)


def _restricted_proper(cover):
    """No repeated block, and any two blocks share at most one element."""
    blocks = cover.blocks
    return len(set(blocks)) == len(blocks) and all(
        len(set(a) & set(b)) <= 1 for a, b in combinations(blocks, 2)
    )


class TestLineTransform:
    def test_known_values(self):
        v = PowerSeries.from_sequence(restricted_proper_sequence(6), 6)
        assert line_transform(v) == [1, 1, 2, 8, 66, 774, 11885]

    def test_dominated_by_restricted_counts(self):
        v_values = restricted_proper_sequence(10)
        v = PowerSeries.from_sequence(v_values, 10)
        u = binomial_transform(v_values)
        line = line_transform(v)
        assert all(line[n] <= u[n] for n in range(11))
        # The line column counts the restricted covers with no triangle
        # component, one per triangle/star exchange class; from n = 3 on a
        # triangle exists, so it falls strictly below the restricted count.
        assert all(line[n] < u[n] for n in range(3, 11))

    def test_removes_labelled_triangles_from_u(self):
        # exp(-x^3/6) * U(x) as a plain integer sum: k triangles on 3k of
        # the n labels can be chosen n! / ((n - 3k)! 6^k k!) ways.
        table = full_table(64)
        u = _column(table, "u")
        expected = [
            sum(
                (-1) ** k
                * factorial(n)
                // (factorial(n - 3 * k) * 6**k * factorial(k))
                * u[n - 3 * k]
                for k in range(n // 3 + 1)
            )
            for n in range(65)
        ]
        assert _column(table, "l") == expected


def _column(table, name):
    return [getattr(row, name) for row in table.rows]


class TestFullTable:
    def test_known_rows(self, table6):
        assert [
            (r.n, r.s, r.t, r.u, r.v, r.l, r.bell_2n) for r in table6.rows
        ] == TABLE_KNOWN

    def test_row_accessor(self, table6):
        assert table6.row(4) == TableRow(4, 139, 80, 70, 43, 66, 4140)
        with pytest.raises(ValueError):
            table6.row(7)
        with pytest.raises(ValueError):
            table6.row(-1)

    def test_column_accessor(self, table6):
        assert _column(table6, "v") == [1, 0, 1, 5, 43, 518, 8186]
        assert _column(table6, "bell_2n") == [bell(2 * n) for n in range(7)]

    def test_internal_relations(self, table6):
        v = _column(table6, "v")
        assert _column(table6, "u") == binomial_transform(v)
        assert _column(table6, "t") == stirling_transform(v)
        assert _column(table6, "s") == stirling_transform(_column(table6, "u"))

    def test_rows_do_not_depend_on_max_n(self):
        # restricted_proper_sequence and block_count_series truncate their
        # series in y at degree 2N, so a row must not change with N.
        small, large = full_table(12), full_table(40)
        assert [small.row(n) for n in range(13)] == [large.row(n) for n in range(13)]

    def test_negative_rejected(self):
        # restricted_proper_sequence, full_table's first call, refuses it.
        with pytest.raises(ValueError, match=r"^max_n must be >= 0, got -1$"):
            full_table(-1)

    def test_bell_cap_respected(self):
        with pytest.raises(ValueError, match="above the cap"):
            full_table(DEFAULT_BELL_CAP // 2 + 1)


class TestCollisionHistogramRoute:
    @pytest.mark.parametrize("n", range(7))
    def test_matches_oracle(self, table6, n):
        t = _column(table6, "t")[: n + 1]
        histogram = list(oracle_counts(n).collision_histogram)
        assert collision_histogram_route(t) == histogram

    def test_sums_to_separated_route(self):
        t = _column(full_table(24), "t")
        separated = sequences._separated_route(t)
        for n in range(25):
            assert sum(collision_histogram_route(t[: n + 1])) == separated[n]


class TestSequenceConsistencyMachinery:
    def test_block_count_grid_rejects_fractional_cell(self, monkeypatch):
        # Every cell is one exact division by k!; with 3! off by one, the
        # one cover of [2] with 3 blocks ({1}, {2}, {1, 2}) comes out as
        # 2! * 3 / 7.
        original = sequences.factorial
        monkeypatch.setattr(
            sequences, "factorial", lambda n: original(n) + (n == 3)
        )
        with pytest.raises(ConsistencyError, match="block-count cell n=2, k=3"):
            block_count_series(4)

    @pytest.mark.parametrize("k", range(9))
    def test_spot_check_catches_perturbed_v(self, monkeypatch, k):
        collapsed = sequences.restricted_proper_sequence

        def perturbed(max_n):
            values = collapsed(max_n)
            values[k] += 1
            return values

        monkeypatch.setattr(sequences, "restricted_proper_sequence", perturbed)
        with pytest.raises(ConsistencyError, match="literal block-count"):
            full_table(8)

    @pytest.mark.parametrize("k", [9, 20, 32])
    def test_separated_route_catches_perturbed_v(self, monkeypatch, k):
        # Beyond the spot-check degree only the separated-partition route
        # sees v: every other check compares transforms of the same v.
        collapsed = sequences.restricted_proper_sequence

        def perturbed(max_n):
            values = collapsed(max_n)
            values[k] += 1
            return values

        monkeypatch.setattr(sequences, "restricted_proper_sequence", perturbed)
        with pytest.raises(
            ConsistencyError, match=f"separated-partition route.*at n={k}:"
        ):
            full_table(32)

    @pytest.mark.parametrize("k", [0, 8])
    @pytest.mark.parametrize(
        "owner, name, call, match",
        [
            (sequences, "binomial_transform", 1, "plain-cover route"),
            (sequences, "stirling_transform", 1, "separated-partition route"),  # v -> t
            (sequences, "stirling_transform", 2, "plain-cover route"),  # u -> s
            (PowerSeries, "__mul__", 1, "line-graph series routes"),
        ],
        ids=[
            "binomial",
            "stirling-v-to-t",
            "stirling-u-to-s",
            "line-graph-product",
        ],
    )
    def test_series_checks_catch_perturbed_operand(
        self, monkeypatch, owner, name, call, match, k
    ):
        # Each check compares a transform with a series product or a
        # Bell-number sum; adding 1 to one index of one side must trip it.
        # The k = 0 cases show that a wrong row 0 fails without a row-0
        # check of its own: u_0, t_0, s_0 and l_0 are each checked here,
        # and v_0 by the spot check.
        original = getattr(owner, name)
        calls = []

        def perturbed(*args):
            out = original(*args)
            calls.append(args)
            if len(calls) != call:
                return out
            if isinstance(out, PowerSeries):
                return out + PowerSeries.from_sequence([0] * k + [1], out.degree)
            out[k] += 1
            return out

        monkeypatch.setattr(owner, name, perturbed)
        with pytest.raises(ConsistencyError, match=match):
            full_table(8)

    @pytest.mark.parametrize("a, b", [(1, 1), (3, 2), (5, 2), (6, 3), (8, 1), (8, 8)])
    def test_separated_route_catches_perturbed_stirling_table(
        self, monkeypatch, a, b
    ):
        # The Stirling table feeds t, s and the fold of t into [2n]; only
        # the Bell-number side of the separated-partition route avoids it.
        # One wrong S(a, b) trips that route, so the table needs no check
        # of its own.
        original = sequences.stirling2

        def perturbed(n, k):
            return original(n, k) + ((n, k) == (a, b))

        monkeypatch.setattr(sequences, "stirling2", perturbed)
        with pytest.raises(ConsistencyError, match="separated-partition route"):
            full_table(8)

    @pytest.mark.parametrize(
        "faulty_exp",
        [
            lambda exp, f: PowerSeries(
                f.degree, tuple((-1) ** n * e for n, e in enumerate(exp(f).terms))
            ),
            lambda exp, f: exp(f + f),
        ],
        ids=["at-minus-x", "doubled-input"],
    )
    def test_line_check_catches_faulty_exp(self, monkeypatch, faulty_exp):
        # exp evaluated at -x, or at twice its input: the product form of l
        # changes, and the integer sum over u, which runs no PowerSeries
        # code, must disagree with it.  Two product forms that both run
        # exp agree under the first fault.
        original = PowerSeries.exp
        monkeypatch.setattr(PowerSeries, "exp", lambda f: faulty_exp(original, f))
        with pytest.raises(ConsistencyError, match="line-graph series routes.*at n=1:"):
            full_table(8)

    def test_ordering_check_catches_l_above_u(self, monkeypatch):
        # l <= u is the only check that reads l once the line transform
        # has returned; an l one above u in every term must trip it.
        u = [row.u for row in full_table(8).rows]
        monkeypatch.setattr(sequences, "line_transform", lambda v: [x + 1 for x in u])
        with pytest.raises(ConsistencyError, match="count ordering violated at n=0:"):
            full_table(8)
