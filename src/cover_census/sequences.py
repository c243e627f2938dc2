"""Exact enumeration of 2-covers through generating-function identities.

A 2-cover of [n] is a multiset of nonempty subsets of [n] (blocks) in which
every element lies in exactly two blocks, counted with multiplicity.  The
five sequences computed here are

* ``v``: restricted proper 2-covers (all blocks distinct, any two blocks
  sharing at most one element),
* ``u``: restricted 2-covers (repeated blocks allowed; a repeated block of
  size two or more breaks restrictedness, so only singleton blocks repeat),
* ``t``: proper 2-covers, ``s``: all 2-covers,
* ``l``: restricted 2-covers with no triangle component, one per class
  modulo the triangle/star exchange (see line_transform).

Everything flows from ``v``.  Adjoining repeated singleton blocks gives the
binomial transform to ``u``; substituting e^x - 1 (equivalently, applying
the Stirling transform) lifts restricted counts to unrestricted ones; and
the factor exp(-x^3/6) removes the triangle components from ``u``, giving ``l``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple, Sequence

from .combinatorics import DEFAULT_BELL_CAP, bell, separated_partitions, stirling2
from .errors import ConsistencyError
from .series import PowerSeries

# Degree cap of the U(e^x - 1) and V(e^x - 1) compositions, which cost
# O(N^3) exact operations.  full_table() does not compose; only
# perfbench/replay.py reads this.
COMPOSE_CHECK_DEGREE = 24

# Always-on spot check of the collapsed extraction against the literal
# block-count grid, kept small because the grid's closed-form sums are
# quartic in the degree.
_BIVARIATE_SPOT_DEGREE = 8


def block_count_series(max_n: int) -> list[list[Fraction]]:
    """Coefficient grid counting restricted proper 2-covers by block count.

    ``grid[i][j]`` is the coefficient of x^i y^j, where x marks ground-set
    elements (EGF convention) and y marks blocks, in the literal product
    exp(-y - x y^2 / 2) times sum_m y^m / m! (1 + x)^C(m, 2).  By the
    exponential formula the prefactor's x^b y^(a + 2b) coefficient is
    (-1)^(a+b) / (a! 2^b b!), so every coefficient has the closed form

        [x^i y^j] = sum_b sum_m (-1)^(a+b) C(C(m, 2), i - b) / (a! 2^b b! m!)

    over b <= i and block counts m with a = j - m - 2b >= 0.  Over j! each
    weight is the integer j! / (a! 2^b b! m!) = C(j, m) C(j - m, a) (2b - 1)!!,
    so a cell is summed in integers and divided once.  No step shares the
    derangement collapse of restricted_proper_sequence, so the two routes
    check each other.

    The y-truncation at 2 * max_n is exact rather than an approximation:
    blocks are nonempty and each of the n elements lies in exactly two of
    them, so a 2-cover of [n] has at most 2n blocks and every discarded
    y-coefficient is genuinely zero in the x-range kept.
    """
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    double_factorials = [1]  # (2b - 1)!! for b = 0..max_n
    for b in range(1, max_n + 1):
        double_factorials.append(double_factorials[-1] * (2 * b - 1))
    grid = []
    for i in range(max_n + 1):
        row = []
        for j in range(2 * max_n + 1):
            total = 0
            for b in range(min(i, j // 2) + 1):
                for m in range(j - 2 * b + 1):
                    a = j - m - 2 * b
                    total += (
                        (-1) ** (a + b)
                        * comb(m * (m - 1) // 2, i - b)
                        * comb(j, m)
                        * comb(j - m, a)
                        * double_factorials[b]
                    )
            row.append(Fraction(total, factorial(j)))
        grid.append(row)
    return grid


def sequence_from_block_series(grid: Sequence[Sequence[Fraction]]) -> list[int]:
    """Extract the restricted-proper counts: n! times the x^n row sum."""
    values = []
    for n, row in enumerate(grid):
        total = sum(row, Fraction(0)) * factorial(n)
        if total.denominator != 1:
            raise ConsistencyError(
                f"block-count series row {n} sums to non-integer {total}"
            )
        values.append(int(total))
    return values


def restricted_proper_sequence(max_n: int) -> list[int]:
    """Count restricted proper 2-covers of [n] for n = 0 .. max_n.

    This collapses the bivariate block-count series analytically instead of
    materializing its quadratic grid.  Writing the prefactor as
    exp(-y) exp(-x y^2 / 2) and summing each x^n coefficient over all block
    counts (the y-truncation at 2 * max_n is exact, see
    block_count_series), the inner alternating sum over the exp(-y) index
    telescopes into derangement numbers via
    sum_{a <= A} (-1)^a / a! = derangement(A) / A!.  What remains is, for
    each pairing count b, an integer sum over the block count m:

        acc(b, j) = sum_m C(K, m) * derangement(K - m) * C(C(m, 2), j)

    with K = 2 * max_n - 2b, and

        v_n = n! * sum_b (-1)^b * acc(b, n - b) / (2^b * b! * K!).

    Since (2N)! / (2^b * b! * K!) = C(2N, 2b) * (2b - 1)!!, multiplying
    through by (2N)! leaves an integer sum, and v_n is one exact division
    of n! times that sum by (2N)!; a nonzero remainder raises
    ConsistencyError.  The loop runs over m outside b and j, so each row
    C(C(m, 2), j) is built once and added, with its (b, m) weight, straight
    into the numerator of every v_{b + j} it feeds.
    """
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    big_m = 2 * max_n
    derangement = [1]
    for i in range(1, big_m + 1):
        derangement.append(i * derangement[-1] + (-1) ** i)
    weights = []
    double_factorial = 1
    for b in range(max_n + 1):
        weights.append((-1) ** b * comb(big_m, 2 * b) * double_factorial)
        double_factorial *= 2 * b + 1
    numerators = [0] * (max_n + 1)
    for m in range(big_m + 1):
        pairs = m * (m - 1) // 2
        row = [1]  # C(C(m, 2), j) for j up to min(max_n, C(m, 2))
        for j in range(1, min(max_n, pairs) + 1):
            row.append(row[-1] * (pairs - j + 1) // j)
        for b in range((big_m - m) // 2 + 1):
            remaining = big_m - 2 * b
            weight = weights[b] * comb(remaining, m) * derangement[remaining - m]
            for n, pair_count in enumerate(row[: max_n - b + 1], b):
                numerators[n] += weight * pair_count
    big_m_factorial = factorial(big_m)
    values = []
    for n, numerator in enumerate(numerators):
        total = factorial(n) * numerator
        value, remainder = divmod(total, big_m_factorial)
        if remainder:
            raise ConsistencyError(
                f"restricted-proper count at n={n} is non-integer"
                f" {total}/{big_m_factorial}"
            )
        values.append(value)
    return values


def binomial_transform(values: Sequence[int]) -> list[int]:
    """Apply b_n = sum_k C(n, k) a_k.

    Adjoining any set of repeated singleton blocks to a restricted proper
    2-cover is exactly what relaxes properness while preserving
    restrictedness, so this carries the ``v`` sequence to ``u``.
    """
    return [
        sum(comb(n, k) * values[k] for k in range(n + 1))
        for n in range(len(values))
    ]


def stirling_transform(values: Sequence[int]) -> list[int]:
    """Apply b_n = sum_k S(n, k) a_k, the EGF substitution x -> e^x - 1.

    Collapsing the blocks of a set partition of [n] to single points turns
    an arbitrary 2-cover into a restricted one, so this carries ``v`` to
    ``t`` and ``u`` to ``s``.
    """
    return [
        sum(stirling2(n, k) * values[k] for k in range(n + 1))
        for n in range(len(values))
    ]


def _require_equal(route: str, expected: Sequence[int], actual: Sequence[int]) -> None:
    """Raise ConsistencyError at the first n where two routes' counts differ."""
    for n, (a, b) in enumerate(zip(expected, actual, strict=True)):
        if a != b:
            raise ConsistencyError(f"{route}: first mismatch at n={n}: {a} vs {b}")


def line_transform(v_series: PowerSeries) -> list[int]:
    """Line-graph counts from the restricted-proper EGF.

    A graph with n labelled edges and no isolated vertices is the same
    thing as a restricted 2-cover of the edge set (each vertex contributes
    its set of incident edges), and the triangle and the three-edge star
    are the classical pair of such graphs with equal line graphs.  A
    triangle component is x^3/3! in the exponential formula, so the factor
    exp(-x^3/6) removes the triangle components from U(x) = V(x) e^x.  Its
    two product forms, exp(x - x^3/6) * V(x) and exp(-x^3/6) * V(x) e^x,
    are integer binomial convolutions of EGF terms, in which -x^3/6 is the
    sequence 0, 0, 0, -1, and must agree termwise.

    The result counts restricted covers with no triangle component, one
    per triangle/star exchange class (swap each triangle for its star).
    For n <= 3 this equals the number of labelled line graphs, but from n = 4
    on it overcounts them (66 versus 60 at n = 4): line graphs with small
    components admit further labelled root collisions, such as a pendant
    edge on a triangle folding into the same diamond two ways.  The
    brute-force engine counts both quantities separately.
    """
    degree = v_series.degree
    x = PowerSeries.x(degree)
    cubic = PowerSeries.from_sequence([0, 0, 0, -1], degree)
    direct = (x + cubic).exp() * v_series
    via_u = cubic.exp() * (v_series * x.exp())
    _require_equal(
        "line-graph series routes (exp(x - x^3/6) * V vs exp(-x^3/6) * V * e^x)",
        direct.terms,
        via_u.terms,
    )
    return list(direct.terms)


class TableRow(NamedTuple):
    """One row of the exact table: all five counts at a single n."""

    n: int
    s: int
    t: int
    u: int
    v: int
    l: int
    bell_2n: int


class SequenceTable(NamedTuple):
    """Exact counts for n = 0 .. max_n with cross-checked provenance."""

    max_n: int
    rows: tuple[TableRow, ...]

    def row(self, n: int) -> TableRow:
        if not 0 <= n <= self.max_n:
            raise ValueError(f"row {n} outside 0..{self.max_n}")
        return self.rows[n]


def _separated_route(t: Sequence[int]) -> list[int]:
    """Fold every t_n into the separated partitions of [2n].

    A repeated block of a 2-cover is a whole component, so a cover is a
    proper cover of k elements beside a doubled set partition of the other
    n - k into j blocks, with 2^(n - j) separated preimages.  Hence
    sum_r (-1)^r C(n, r) B_{2n-r} = sum_k C(n, k) 2^k t_k w_{n-k}, with
    w_m = sum_j S(m, j) 2^(m-j); the left side uses Bell numbers only.
    """
    w = [sum(stirling2(m, j) << (m - j) for j in range(m + 1)) for m in range(len(t))]
    return [
        sum(comb(n, k) * (t[k] << k) * w[n - k] for k in range(n + 1))
        for n in range(len(t))
    ]


def collision_histogram_route(t: Sequence[int]) -> list[int]:
    """Bin the separated partitions of [2n], n = len(t) - 1, by repeated blocks.

    With the split of _separated_route, a cover with d repeated blocks is a
    proper cover of k elements beside a doubled set partition of the other
    n - k into d blocks, so

        hist_d = 2^(n - d) * sum_k C(n, k) * t_k * S(n - k, d).

    Summed over d this is _separated_route(t)[n].  It is evaluated at one
    n only: at every n up to full_table's size it would cost O(N^3).
    """
    n = len(t) - 1
    return [
        sum(comb(n, k) * t[k] * stirling2(n - k, d) for k in range(n + 1)) << (n - d)
        for d in range(n + 1)
    ]


def full_table(max_n: int) -> SequenceTable:
    """Compute the five sequences to ``max_n`` with redundant verification.

    Four comparisons, each of two routes, raise ConsistencyError at the
    first disagreement.  Each of v, t, u and s has a route that shares no
    code with the computation it checks:

    * v: the derangement collapse against the literal block-count grid
      (n <= 8), and at every n through t, since the Stirling transform is
      invertible;
    * t: Bell-number inclusion-exclusion over merged twins against t
      folded into the separated partitions of [2n];
    * u and s: s as the Stirling transform of u against T * Bell EGF,
      whose terms come from the Bell triangle;
    * l: exp(x - x^3/6) * V against exp(-x^3/6) * V * e^x, and l <= u.
      Both forms run PowerSeries.exp and __mul__; the route for l that
      shares no code with them is the exhaustive oracle, up to n = 7.

    Row 0 needs no check of its own: the spot check pins v_0 = 1, and
    every transform and product copies its n = 0 term.
    """
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    if 2 * max_n > DEFAULT_BELL_CAP:
        raise ValueError(
            f"full_table({max_n}) needs Bell numbers to {2 * max_n}, above the"
            f" cap {DEFAULT_BELL_CAP}"
        )
    v = restricted_proper_sequence(max_n)

    spot = min(max_n, _BIVARIATE_SPOT_DEGREE)
    _require_equal(
        "collapsed and literal block-count extractions"
        " (derangement collapse vs block-count grid)",
        v[: spot + 1],
        sequence_from_block_series(block_count_series(spot)),
    )

    u = binomial_transform(v)
    t = stirling_transform(v)
    _require_equal(
        "separated-partition route"
        " (inclusion-exclusion over merged twins vs T folded into [2n])",
        [separated_partitions(n) for n in range(max_n + 1)],
        _separated_route(t),
    )
    s = stirling_transform(u)
    l = line_transform(PowerSeries.from_sequence(v, max_n))

    # The Bell triangle behind bell() shares no code with the Stirling table.
    bell_egf = PowerSeries.from_sequence([bell(n) for n in range(max_n + 1)], max_n)
    _require_equal(
        "plain-cover route (Stirling transform of u vs T * Bell EGF)",
        s,
        (PowerSeries.from_sequence(t, max_n) * bell_egf).terms,
    )

    rows = []
    for n in range(max_n + 1):
        if not (v[n] <= u[n] and t[n] <= s[n] and l[n] <= u[n]):
            raise ConsistencyError(
                f"count ordering violated at n={n}: "
                f"s={s[n]} t={t[n]} u={u[n]} v={v[n]} l={l[n]}"
            )
        rows.append(
            TableRow(n, s[n], t[n], u[n], v[n], l[n], bell(2 * n))
        )
    return SequenceTable(max_n, tuple(rows))
