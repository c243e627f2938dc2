"""Asymptotic estimators for 2-covers and the report that judges them.

The estimators live in log space throughout: Bell numbers at the sizes of
interest overflow any float, so exact integers are compared through
math.log, which takes integers of any size.  Beside the paper's two
estimates, u, v and l are compared with the Lambert-W shape
B_{2n} 2^{-n} sqrt(W/2n) exp(-(W/2)^2), W = W(2n), whose leading-term
expansion is the paper's restricted estimate.  The exact probabilities
(factorial moments, separation probability, collision bound) are Bell-number
fractions in ``combinatorics``; ``__all__`` keeps two of them importable here.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .combinatorics import image_collision_bound, separation_probability
from .sequences import full_table

__all__ = [
    "REPORT_NOTE", "ReportRow", "TrendCheck", "asymptotic_report",
    "image_collision_bound", "lambert_w", "log_cover_estimate",
    "log_restricted_estimate", "log_restricted_w", "ratio_trends",
    "report_grid", "separation_probability",
]

_W_TOLERANCE = 1e-12
_W_MAX_ITERATIONS = 50

_LOG2 = math.log(2.0)

REPORT_NOTE = (
    "estimator ratios converge like log log n / log n: judge them by their"
    " trend toward 1, never by tight agreement; trend regressions are"
    " warnings, exact-identity violations are failures"
)


def lambert_w(t: float) -> float:
    """Solve w * e^w = t on the principal branch by Halley iteration.

    The initial guess is log t - log log t for t >= e and t itself below,
    after which convergence to the 1e-12 relative residual takes a handful
    of steps.
    """
    if t <= 0:
        raise ValueError(f"lambert_w() needs t > 0, got {t}")
    if t >= math.e:
        log_t = math.log(t)
        w = log_t - math.log(log_t)
    else:
        w = t
    for _ in range(_W_MAX_ITERATIONS):
        ew = math.exp(w)
        residual = w * ew - t
        if abs(residual) <= _W_TOLERANCE * t:
            return w
        derivative = ew * (w + 1.0)
        w -= residual / (derivative - (w + 2.0) * residual / (2.0 * w + 2.0))
    raise ArithmeticError(
        f"lambert_w({t}) did not reach residual {_W_TOLERANCE} in"
        f" {_W_MAX_ITERATIONS} iterations"
    )


def log_cover_estimate(n: int, log_bell_2n: float) -> float:
    """Log of the common growth estimate for plain and proper 2-covers.

    The estimate is B_{2n} 2^{-n} sqrt(log n / (2n)), passed around in log
    space as log B_{2n} - n log 2 + (1/2) log(log n / (2n)).
    """
    if n < 2:
        raise ValueError(f"log_cover_estimate() needs n >= 2, got {n}")
    return log_bell_2n - n * _LOG2 + 0.5 * math.log(math.log(n) / (2.0 * n))


def log_restricted_estimate(n: int, log_bell_2n: float) -> float:
    """Log of the shared estimate for restricted covers and line graphs.

    The linear-space form is B_{2n} 2^{-n} n^{-1/2}
    exp(-[ (1/2) log(2n / log n) ]^2).
    """
    if n < 2:
        raise ValueError(f"log_restricted_estimate() needs n >= 2, got {n}")
    half_log = 0.5 * math.log(2.0 * n / math.log(n))
    return log_bell_2n - n * _LOG2 - 0.5 * math.log(n) - half_log * half_log


def log_restricted_w(n: int, log_bell_2n: float) -> float:
    """Log of the Lambert-W shape for restricted covers and line graphs.

    The linear-space form is B_{2n} 2^{-n} sqrt(W / 2n) exp(-(W / 2)^2)
    with W = W(2n); the paper's restricted estimate is its leading-term
    expansion, with log(2n / log n) in place of W.
    """
    if n < 1:
        raise ValueError(f"log_restricted_w() needs n >= 1, got {n}")
    w = lambert_w(2.0 * n)
    return log_bell_2n - n * _LOG2 + 0.5 * math.log(w / (2.0 * n)) - 0.25 * w * w


class ReportRow(NamedTuple):
    """One report line: estimators at n, and exact comparisons against them.

    ``log_*`` are the logs of the exact counts, and each ``ratio_*`` is a
    linear-space quotient exact/estimate: ``s`` and ``t`` against the cover
    estimate ``est_st``; ``u``, ``v`` and ``l`` against the restricted
    estimate ``est_uvl``, and in ``ratio_*_w`` against its Lambert-W shape
    ``est_uvl_w``.  ``_JUDGED_BY`` holds this pairing.
    """

    n: int
    log_bell_2n: float
    est_st: float
    est_uvl: float
    est_uvl_w: float
    log_s: float
    log_t: float
    log_u: float
    log_v: float
    log_l: float
    ratio_s: float
    ratio_t: float
    ratio_u: float
    ratio_v: float
    ratio_l: float
    ratio_u_w: float
    ratio_v_w: float
    ratio_l_w: float


# Each estimate column, its function, its ratios' suffix and the counts it judges.
_JUDGED_BY = (
    ("est_st", log_cover_estimate, "", "st"),
    ("est_uvl", log_restricted_estimate, "", "uvl"),
    ("est_uvl_w", log_restricted_w, "_w", "uvl"),
)


def report_grid(max_n: int) -> list[int]:
    """Geometric grid 4, 8, ..., with max_n appended when missing."""
    if max_n < 2:
        raise ValueError(f"asymptotic reports need max_n >= 2, got {max_n}")
    grid = []
    value = 4
    while value <= max_n:
        grid.append(value)
        value *= 2
    if not grid:
        return [max_n]
    if grid[-1] != max_n:
        grid.append(max_n)
    return grid


def asymptotic_report(max_n: int) -> tuple[ReportRow, ...]:
    """The exact-versus-estimate convergence report, one row per point of
    report_grid.

    Every row is exact: the counts come from full_table(max_n), whose size
    rule refuses a max_n beyond the Bell cap before any work is done.
    """
    grid = report_grid(max_n)
    table = full_table(max_n)
    rows = []
    for n in grid:
        counts = table.row(n)
        log_b = math.log(counts.bell_2n)
        logs = {name: math.log(getattr(counts, name)) for name in "stuvl"}
        columns = {"n": n, "log_bell_2n": log_b}
        columns.update((f"log_{name}", log) for name, log in logs.items())
        for estimate, log_estimate, suffix, names in _JUDGED_BY:
            columns[estimate] = est = log_estimate(n, log_b)
            for name in names:
                columns[f"ratio_{name}{suffix}"] = math.exp(logs[name] - est)
        rows.append(ReportRow(**columns))
    return tuple(rows)


class TrendCheck(NamedTuple):
    """Deviation-from-1 comparison of a ratio column at its grid endpoints."""

    column: str
    first_n: int
    last_n: int
    first_deviation: float
    last_deviation: float

    @property
    def improved(self) -> bool:
        return self.last_deviation < self.first_deviation


def ratio_trends(rows: Sequence[ReportRow]) -> list[TrendCheck]:
    """Compare |ratio_t - 1| and |ratio_v - 1| at the first and last grid
    points; a one-row report has no trend."""
    if len(rows) < 2:
        return []
    first, last = rows[0], rows[-1]
    return [
        TrendCheck(
            column=column,
            first_n=first.n,
            last_n=last.n,
            first_deviation=abs(getattr(first, column) - 1.0),
            last_deviation=abs(getattr(last, column) - 1.0),
        )
        for column in ("ratio_t", "ratio_v")
    ]
