"""Arbitrary-precision combinatorial primitives.

Bell and Stirling numbers, the partition counts of [2n] built from them,
and the exact probabilities of a uniform partition of [2n]: those counts
over B_{2n}, as Fractions.  Bell and Stirling numbers are memoized in
module-level triangle tables.  The tables are grown on demand and only
ever appended to, so values may be shared freely once computed; growth
itself is not thread-safe and is meant to happen from a single thread.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from .errors import ConsistencyError

DEFAULT_BELL_CAP = 1024

_bell_values: list[int] = [1]
_bell_row: list[int] = [1]
_stirling_rows: list[list[int]] = [[1]]


def bell(n: int) -> int:
    """Return the n-th Bell number, the count of set partitions of [n].

    Computed by the Bell triangle.  Arguments above ``DEFAULT_BELL_CAP``
    are rejected so the table size stays predictable.
    """
    if n < 0:
        raise ValueError(f"bell() is undefined for negative n, got {n}")
    if n > DEFAULT_BELL_CAP:
        raise ValueError(f"bell({n}) exceeds the configured cap {DEFAULT_BELL_CAP}")
    global _bell_row
    while len(_bell_values) <= n:
        row = [_bell_row[-1]]
        for value in _bell_row:
            row.append(row[-1] + value)
        _bell_row = row
        _bell_values.append(row[0])
    return _bell_values[n]


def stirling2(n: int, k: int) -> int:
    """Return the Stirling number of the second kind S(n, k).

    S(n, k) counts partitions of [n] into exactly k nonempty blocks; it is 0
    for k > n and for k = 0 < n.  Rows of the recurrence triangle are
    memoized up to ``DEFAULT_BELL_CAP``.
    """
    if n < 0 or k < 0:
        raise ValueError(f"stirling2() needs n, k >= 0, got n={n}, k={k}")
    if n > DEFAULT_BELL_CAP:
        raise ValueError(f"stirling2({n}, {k}) exceeds the cap {DEFAULT_BELL_CAP}")
    if k > n:
        return 0
    while len(_stirling_rows) <= n:
        prev = _stirling_rows[-1]
        m = len(_stirling_rows)
        row = [0]
        for j in range(1, m):
            row.append(j * prev[j] + prev[j - 1])
        row.append(1)
        _stirling_rows.append(row)
    return _stirling_rows[n][k]


def separated_partitions(n: int) -> int:
    """Count partitions of [2n] in which no twin pair {j, j + n} shares a block.

    Inclusion-exclusion over merged pairs gives sum_r (-1)^r C(n, r) B_{2n-r}.
    """
    if n < 0:
        raise ValueError(f"separated_partitions() needs n >= 0, got {n}")
    return sum(
        (-1) ** r * math.comb(n, r) * bell(2 * n - r) for r in range(n + 1)
    )


def _pair_collision_terms(n: int) -> list[int]:
    """Return c_0..c_n, the EGF coefficients of exp(-(e^(2x) - 1)/2).

    c_k = sum_j (-1)^j S(k, j) 2^(k-j), and c_{k+1} = -sum_i C(k, i)
    2^(k-i) c_i.  The second form runs as a Bell triangle: with row k
    scaled by 2^k, each entry is its left neighbour plus twice the entry
    above that neighbour, and row k + 1 opens with c_{k+1}, minus the last
    entry of row k.  Only one row is held, so no Stirling table is built.
    """
    terms, row = [1], [1]
    for _ in range(n):
        row = list(accumulate((2 * value for value in row), initial=-row[-1]))
        terms.append(row[0])
    return terms


def image_distinct_partitions(n: int) -> int:
    """Count partitions of [2n] whose blocks fold onto pairwise distinct sets.

    Folding maps j + n to j.  Two blocks with the same image A hold exactly
    the 2|A| elements of A's twin pairs, and three equal images are
    impossible, so collisions come in disjoint pairs of blocks.
    Inclusion-exclusion over the sets of colliding pairs gives
    sum_k C(n, k) c_k B_{2n-2k}: c_k sums (-1)^j over the ways to split k
    twin pairs into j colliding block pairs, 2^(|A|-1) ways for an image
    A, which is the exponential formula for exp(-(e^(2x) - 1)/2).
    """
    if n < 0:
        raise ValueError(f"image_distinct_partitions() needs n >= 0, got {n}")
    return sum(
        math.comb(n, k) * c * bell(2 * n - 2 * k)
        for k, c in enumerate(_pair_collision_terms(n))
    )


def merged_twin_moment(n: int, r: int) -> Fraction:
    """r-th falling-factorial moment of the merged-twin count.

    For a uniform partition of [2n], the count X of twin pairs sharing a
    block satisfies E[(X)_r] = (n)_r B_{2n-r} / B_{2n}, exactly.
    """
    if n < 0 or r < 0:
        raise ValueError(f"merged_twin_moment() needs n, r >= 0, got {n}, {r}")
    if r > n:
        return Fraction(0)
    return Fraction(
        math.perm(n, r) * bell(2 * n - r),
        bell(2 * n),
    )


def merged_twin_moment_variance(n: int, r: int) -> Fraction:
    """Exact variance of (X)_r for the merged-twin count X of [2n], by the
    product rule (x)_r^2 = sum_j C(r, j)^2 j! (x)_{2r-j}."""
    mean = merged_twin_moment(n, r)
    second = sum(
        math.comb(r, j) ** 2 * math.factorial(j) * merged_twin_moment(n, 2 * r - j)
        for j in range(r + 1)
    )
    return second - mean * mean


def separation_probability(n: int) -> Fraction:
    """Exact probability that a uniform partition of [2n] is separated.

    By inclusion-exclusion over merged twin pairs this is the alternating
    sum of the factorial moments, sum_r (-1)^r E[(X)_r] / r!, that is the
    separated count sum_r (-1)^r C(n, r) B_{2n-r} over B_{2n}.
    """
    if n < 0:
        raise ValueError(f"separation_probability() needs n >= 0, got {n}")
    total = Fraction(separated_partitions(n), bell(2 * n))
    if not 0 <= total <= 1:
        raise ConsistencyError(
            f"separation probability at n={n} is not a count fraction: {total}"
        )
    return total


def collision_probability(n: int) -> Fraction:
    """Exact probability that two folded blocks of a uniform partition of
    [2n] coincide: one minus the image-distinct count over B_{2n}."""
    total = bell(2 * n)
    return Fraction(total - image_distinct_partitions(n), total)


def image_collision_bound(n: int) -> Fraction:
    """Union-style upper bound on the probability of a folded-block collision.

    Two blocks of a partition of [2n] can fold to the same image only if a
    set of k twin pairs pairs up across them; bounding over k gives
    sum_{k>=1} C(n, k) 2^k B_{2n-2k} / B_{2n}.
    """
    if n < 0:
        raise ValueError(f"image_collision_bound() needs n >= 0, got {n}")
    numerator = sum(
        math.comb(n, k) * (1 << k) * bell(2 * n - 2 * k) for k in range(1, n + 1)
    )
    return Fraction(numerator, bell(2 * n))
