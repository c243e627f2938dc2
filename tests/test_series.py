"""Tests for exact truncated power-series arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cover_census.combinatorics import bell
from cover_census.series import PowerSeries

# Small rational terms keep hypothesis cases fast while still
# exercising non-integer arithmetic.
fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def series_of(terms, degree):
    return PowerSeries.from_sequence(list(terms), degree)


class TestConstruction:
    def test_from_sequence_pads(self):
        s = PowerSeries.from_sequence([1, 2], 4)
        assert s.terms == (1, 2, 0, 0, 0)
        assert s.degree == 4

    def test_from_sequence_truncates(self):
        s = PowerSeries.from_sequence([1, 2, 3, 4], 2)
        assert s.terms == (1, 2, 3)

    def test_from_sequence_keeps_integer_terms(self):
        s = PowerSeries.from_sequence([1, 2, 6], 4)
        assert s.terms == (1, 2, 6, 0, 0)
        assert all(type(term) is int for term in s.terms)

    def test_sequence_term_round_trip(self):
        values = [3, 1, 4, 1, 5, 9]
        s = PowerSeries.from_sequence(values, 5)
        assert [s.sequence_term(n) for n in range(6)] == values

    def test_constants(self):
        assert PowerSeries.one(2).terms == (1, 0, 0)
        assert PowerSeries.x(2).terms == (0, 1, 0)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PowerSeries(2, (Fraction(1),))

    def test_sequence_term_range_checked(self):
        s = PowerSeries.one(3)
        with pytest.raises(ValueError):
            s.sequence_term(4)
        with pytest.raises(ValueError):
            s.sequence_term(-1)


class TestArithmetic:
    def test_add_sub_neg(self):
        a = series_of([1, 2, 3], 2)
        b = series_of([5, 7, 11], 2)
        assert (a + b).terms == (6, 9, 14)
        assert (b - a).terms == (4, 5, 8)
        assert (series_of([0], 2) - a).terms == (-1, -2, -3)

    def test_mul_matches_convolution(self):
        # c_n = sum_k C(n, k) a_k b_(n-k), the EGF product.
        a = series_of([1, 2, 6], 4)
        b = series_of([4, 5], 4)
        assert (a * b).terms == (4, 13, 44, 90, 0)

    def test_mul_truncates(self):
        a = series_of([0, 1, 1], 2)
        assert (a * a).terms == (0, 0, 2)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            series_of([1], 2) + series_of([1], 3)

    @pytest.mark.parametrize(
        "operation",
        [
            lambda ps: ps * 2,
            lambda ps: 2 * ps,
            lambda ps: ps + (0,),
            lambda ps: (0,) + ps,
        ],
        ids=["ps*2", "2*ps", "ps+tuple", "tuple+ps"],
    )
    def test_non_series_operand_rejected(self, operation):
        # A tuple-based series would repeat or concatenate its fields here.
        with pytest.raises(TypeError):
            operation(PowerSeries.one(2))

    def test_geometric_series_inverse(self):
        # 1 / (1 - x) has x^k coefficient 1, so its EGF terms are k!.
        geometric = series_of([math.factorial(k) for k in range(9)], 8)
        one_minus_x = series_of([1, -1], 8)
        assert (geometric * one_minus_x).terms == PowerSeries.one(8).terms

    def test_truncate(self):
        a = series_of([1, 2, 3, 4], 3)
        assert a.truncate(1).terms == (1, 2)
        with pytest.raises(ValueError):
            a.truncate(5)

    @given(st.lists(fractions, min_size=1, max_size=7))
    def test_mul_commutes(self, terms):
        degree = len(terms)
        a = series_of(terms, degree)
        b = series_of(list(reversed(terms)), degree)
        assert (a * b).terms == (b * a).terms


class TestExp:
    def test_exp_x(self):
        e = PowerSeries.x(8).exp()
        for k in range(9):
            assert e.sequence_term(k) == 1

    def test_requires_zero_constant(self):
        with pytest.raises(ValueError):
            PowerSeries.one(3).exp()

    def test_exp_of_zero(self):
        assert series_of([0], 4).exp().terms == PowerSeries.one(4).terms

    @given(st.lists(fractions, min_size=0, max_size=6))
    def test_exp_inverse_pair(self, tail):
        degree = len(tail) + 1
        a = series_of([0] + tail, degree)
        minus_a = series_of([0] + [-c for c in tail], degree)
        assert (a.exp() * minus_a.exp()).terms == PowerSeries.one(degree).terms

    @given(
        st.lists(fractions, min_size=0, max_size=5),
        st.lists(fractions, min_size=0, max_size=5),
    )
    def test_exp_additive(self, tail_a, tail_b):
        degree = max(len(tail_a), len(tail_b)) + 1
        a = series_of([0] + tail_a, degree)
        b = series_of([0] + tail_b, degree)
        assert (a + b).exp().terms == (a.exp() * b.exp()).terms


class TestCompose:
    def test_bell_generating_function(self):
        # exp(e^x - 1) is the Bell-number EGF, a classical identity that
        # exercises exp and compose together.
        degree = 12
        shifted_exp = PowerSeries.x(degree).exp() - PowerSeries.one(degree)
        composed = shifted_exp.exp()
        for n in range(degree + 1):
            assert composed.sequence_term(n) == bell(n)

    def test_compose_matches_exp_route(self):
        degree = 10
        outer = PowerSeries.x(degree).exp()
        inner = PowerSeries.x(degree).exp() - PowerSeries.one(degree)
        assert outer.compose(inner).terms == inner.exp().terms

    def test_inner_constant_must_vanish(self):
        with pytest.raises(ValueError):
            PowerSeries.x(3).compose(PowerSeries.one(3))

    def test_identity_composition(self):
        a = series_of([2, 3, 5, 7], 3)
        assert a.compose(PowerSeries.x(3)).terms == a.terms

    @given(
        st.lists(fractions, min_size=0, max_size=4),
        st.lists(fractions, min_size=0, max_size=4),
        st.lists(fractions, min_size=0, max_size=4),
    )
    def test_compose_associative(self, outer, mid_tail, inner_tail):
        degree = 8
        a = series_of(outer, degree)
        b = series_of([0] + mid_tail, degree)
        c = series_of([0] + inner_tail, degree)
        assert a.compose(b).compose(c).terms == a.compose(b.compose(c)).terms


def test_integer_terms_stay_integers():
    # The binomial convolutions never divide, so integer inputs give int
    # terms, never Fractions.
    degree = 10
    a = series_of([3, 1, 4, 1, 5, 9, 2, 6], degree)
    b = series_of([0, 2, -7, 1, 8, 2, 8], degree)
    for result in (a * b, b.exp(), a.compose(b)):
        assert all(type(term) is int for term in result.terms)
