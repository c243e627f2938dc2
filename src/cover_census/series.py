"""Exact truncated exponential-generating-function arithmetic.

A series of degree N stores its terms t_0 .. t_N, where t_n is n! times
the coefficient of x^n: the n-th value of the sequence the EGF counts.
All arithmetic truncates at degree N.  In this form products, exponentials
and compositions are binomial convolutions with no division (Flajolet and
Sedgewick, Analytic Combinatorics, ch. II), so integer terms stay integers;
rational terms work too.  Products and exponentials are the formula route's
own ``sequences.egf_product`` and ``sequences.egf_exp``; no command loads
this module.
"""

from __future__ import annotations

from math import comb
from numbers import Rational
from typing import Sequence

from .sequences import egf_exp, egf_product


class PowerSeries:
    """Truncated EGF holding the exact sequence terms n! [x^n]."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: tuple[Rational, ...]) -> None:
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        if len(terms) != degree + 1:
            raise ValueError(f"expected {degree + 1} terms, got {len(terms)}")
        self.degree = degree
        self.terms = terms

    @staticmethod
    def from_sequence(values: Sequence[Rational], degree: int) -> "PowerSeries":
        """Build the EGF of a sequence, padding with zeros or truncating."""
        terms = list(values[: degree + 1])
        terms.extend([0] * (degree + 1 - len(terms)))
        return PowerSeries(degree, tuple(terms))

    @staticmethod
    def one(degree: int) -> "PowerSeries":
        return PowerSeries.from_sequence([1], degree)

    @staticmethod
    def x(degree: int) -> "PowerSeries":
        return PowerSeries.from_sequence([0, 1], degree)

    def sequence_term(self, n: int) -> Rational:
        """Return n! times the coefficient of x^n, the EGF sequence value."""
        if not 0 <= n <= self.degree:
            raise ValueError(f"term index {n} outside 0..{self.degree}")
        return self.terms[n]

    def truncate(self, degree: int) -> "PowerSeries":
        if degree > self.degree:
            raise ValueError(f"cannot extend degree {self.degree} to {degree}")
        return PowerSeries(degree, self.terms[: degree + 1])

    def _require_same_degree(self, other: "PowerSeries") -> None:
        if self.degree != other.degree:
            raise ValueError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._require_same_degree(other)
        return PowerSeries(
            self.degree, tuple(a + b for a, b in zip(self.terms, other.terms))
        )

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._require_same_degree(other)
        return PowerSeries(
            self.degree, tuple(a - b for a, b in zip(self.terms, other.terms))
        )

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        """Binomial convolution c_n = sum_k C(n, k) a_k b_(n-k) (egf_product)."""
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._require_same_degree(other)
        return PowerSeries(self.degree, tuple(egf_product(self.terms, other.terms)))

    def exp(self) -> "PowerSeries":
        """Exponential of a series with zero constant term (egf_exp)."""
        return PowerSeries(self.degree, tuple(egf_exp(self.terms)))

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """Substitute ``inner`` (zero constant term) into this series.

        The result's terms are sum_k a_k P_k, where P_k = inner^k / k! has
        the partial-Bell terms P_k[n] = sum_j C(n-1, j-1) b_j P_(k-1)[n-j].
        """
        self._require_same_degree(inner)
        b = inner.terms
        if b[0] != 0:
            raise ValueError("compose() requires the inner constant term to be zero")
        degree = self.degree
        power = [1] + [0] * degree
        out = [self.terms[0]] + [0] * degree
        for k in range(1, degree + 1):
            power = [0] * k + [
                sum(
                    comb(n - 1, j - 1) * b[j] * power[n - j]
                    for j in range(1, n - k + 2)
                    if b[j]
                )
                for n in range(k, degree + 1)
            ]
            a_k = self.terms[k]
            if a_k:
                out = [o + a_k * p for o, p in zip(out, power)]
        return PowerSeries(degree, tuple(out))
