"""Exact truncated power-series arithmetic over the rationals.

A univariate series of degree N stores the coefficients of x^0 .. x^N and
all arithmetic truncates at that degree.  Sequences are recovered through
the exponential-generating-function convention: the n-th sequence value is
n! times the coefficient of x^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Sequence, Union

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(value: Scalar) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def _poly_mul_trunc(
    left: Sequence[Fraction], right: Sequence[Fraction], degree: int
) -> list[Fraction]:
    """Multiply two coefficient lists, truncating at ``degree``."""
    out = [_ZERO] * (degree + 1)
    for i, a in enumerate(left):
        if i > degree or a == 0:
            continue
        for j, b in enumerate(right):
            if i + j > degree:
                break
            if b:
                out[i + j] += a * b
    return out


@dataclass(frozen=True)
class PowerSeries:
    """Truncated univariate power series with exact rational coefficients."""

    degree: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
        if len(self.coeffs) != self.degree + 1:
            raise ValueError(
                f"expected {self.degree + 1} coefficients, got {len(self.coeffs)}"
            )

    @staticmethod
    def from_coeffs(values: Sequence[Scalar], degree: int) -> "PowerSeries":
        """Build a series from coefficients, padding with zeros or truncating."""
        coeffs = [_as_fraction(v) for v in values[: degree + 1]]
        coeffs.extend([_ZERO] * (degree + 1 - len(coeffs)))
        return PowerSeries(degree, tuple(coeffs))

    @staticmethod
    def from_sequence(values: Sequence[Scalar], degree: int) -> "PowerSeries":
        """Build the EGF of a sequence: coefficient of x^k is values[k] / k!."""
        coeffs = [
            _as_fraction(values[k]) / factorial(k) if k < len(values) else _ZERO
            for k in range(degree + 1)
        ]
        return PowerSeries(degree, tuple(coeffs))

    @staticmethod
    def one(degree: int) -> "PowerSeries":
        return PowerSeries.from_coeffs([1], degree)

    @staticmethod
    def x(degree: int) -> "PowerSeries":
        return PowerSeries.from_coeffs([0, 1], degree)

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.degree:
            raise ValueError(f"coefficient index {k} outside 0..{self.degree}")
        return self.coeffs[k]

    def sequence_term(self, n: int) -> Fraction:
        """Return n! times the coefficient of x^n, the EGF sequence value."""
        return self.coefficient(n) * factorial(n)

    def truncate(self, degree: int) -> "PowerSeries":
        if degree > self.degree:
            raise ValueError(f"cannot extend degree {self.degree} to {degree}")
        return PowerSeries(degree, self.coeffs[: degree + 1])

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
            self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._require_same_degree(other)
        return PowerSeries(
            self.degree, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._require_same_degree(other)
        return PowerSeries(
            self.degree,
            tuple(_poly_mul_trunc(self.coeffs, other.coeffs, self.degree)),
        )

    def exp(self) -> "PowerSeries":
        """Exponential of a series with zero constant term.

        Uses the derivative recurrence n e_n = sum_k k a_k e_{n-k}, which
        keeps every intermediate value exact.
        """
        if self.coeffs[0] != 0:
            raise ValueError("exp() requires a zero constant term")
        n = self.degree
        out = [_ONE] + [_ZERO] * n
        for m in range(1, n + 1):
            acc = _ZERO
            for k in range(1, m + 1):
                a = self.coeffs[k]
                if a:
                    acc += k * a * out[m - k]
            out[m] = acc / m
        return PowerSeries(n, tuple(out))

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """Substitute ``inner`` (zero constant term) into this series."""
        self._require_same_degree(inner)
        if inner.coeffs[0] != 0:
            raise ValueError("compose() requires the inner constant term to be zero")
        result = PowerSeries.from_coeffs([self.coeffs[self.degree]], self.degree)
        for k in range(self.degree - 1, -1, -1):
            result = result * inner + PowerSeries.from_coeffs(
                [self.coeffs[k]], self.degree
            )
        return result
