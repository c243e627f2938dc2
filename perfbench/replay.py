"""Replay one CLI handler's calls into the cover-census modules, with spans.

Usage:
    python3 replay.py SRC_DIR table MAX_N
    python3 replay.py SRC_DIR oracle N
    python3 replay.py SRC_DIR sample N TRIALS SEED

Each replay calls the same public functions as the CLI handler, in the
handler's order and at the same sizes, but from outside the package, so
every layer gets its own span.  ``full_table`` is replayed step by step
because its routes and identity checks are the layers of the ``table``
workload.  Parsing and formatting are not replayed; the benchmark reports
them as ``cli.unaccounted_s``.

Run it in a fresh interpreter: the Bell and Stirling tables and the oracle
scan are cached per process, and the replay must pay for them cold, as a
CLI run does.  Prints one JSON object: the spans (name, start, end, parent
index), exact counters, measured values, and the calibration time taken
before and after the replay (see ``child.calibrate``).  Exits 1 if a
replayed result disagrees with what the handler would check.
"""

import json
import math
import resource
import sys
import time
from contextlib import contextmanager

from child import calibrate

# full_table spot-checks the collapsed extraction against the literal
# bivariate series at this degree.
BIVARIATE_SPOT_DEGREE = 8


class ReplayMismatch(Exception):
    """A replayed result differs from the value the handler checks."""


class Tracer:
    """Spans kept in memory as name, start, end and parent index."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.values = {}
        self._open = []

    @contextmanager
    def span(self, name):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def _require(ok, what):
    if not ok:
        raise ReplayMismatch(what)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _require_sequence(name, expected, series):
    _require(
        all(series.sequence_term(n) == value for n, value in enumerate(expected)),
        name,
    )


def replay_full_table(tr, max_n):
    """Replay ``sequences.full_table(max_n)`` one route and check at a time."""
    from cover_census import sequences
    from cover_census.combinatorics import bell, stirling2
    from cover_census.series import PowerSeries

    with tr.span("sequences.full_table"):
        with tr.span("sequences.restricted_proper"):
            v = sequences.restricted_proper_sequence(max_n)
        spot = min(max_n, BIVARIATE_SPOT_DEGREE)
        with tr.span("series.bivariate_spot"):
            literal = sequences.sequence_from_block_series(
                sequences.block_count_series(spot)
            )
        _require(literal == v[: spot + 1], "bivariate spot check")
        with tr.span("sequences.transforms"):
            with tr.span("combinatorics.stirling_table"):
                stirling2(max_n, 0)
            u = sequences.binomial_transform(v)
            t = sequences.stirling_transform(v)
            s = sequences.stirling_transform(u)
        with tr.span("sequences.line_transform"):
            v_series = PowerSeries.from_sequence(v, max_n)
            l = sequences.line_transform(v_series)
        with tr.span("series.exp"):
            exp_x = PowerSeries.x(max_n).exp()
        with tr.span("series.mul"):
            u_series = v_series * exp_x
        _require_sequence("V * e^x check", u, u_series)
        t_series = PowerSeries.from_sequence(t, max_n)
        with tr.span("series.exp"):
            bell_series = (exp_x - PowerSeries.one(max_n)).exp()
        with tr.span("series.mul"):
            product = t_series * bell_series
        _require_sequence("T * Bell check", s, product)
        d = min(max_n, sequences.COMPOSE_CHECK_DEGREE)
        with tr.span("series.compose"):
            shifted = PowerSeries.x(d).exp() - PowerSeries.one(d)
            s_composed = u_series.truncate(d).compose(shifted)
            t_composed = v_series.truncate(d).compose(shifted)
        _require_sequence("composition check for s", s[: d + 1], s_composed)
        _require_sequence("composition check for t", t[: d + 1], t_composed)
        rows = [(n, s[n], t[n], u[n], v[n], l[n], bell(2 * n)) for n in range(max_n + 1)]
        _require(
            all(v[n] <= u[n] and t[n] <= s[n] and l[n] <= u[n] for n in range(max_n + 1)),
            "count ordering",
        )
    tr.counters["sequences.max_int_bits"] = max(
        x.bit_length() for row in rows for x in row[1:6]
    )
    return rows


def replay_table(tr, max_n):
    """Replay ``cover-census table --max-n MAX_N``."""
    from cover_census.combinatorics import bell

    with tr.span("combinatorics.bell_table"):
        bell(2 * max_n)
    replay_full_table(tr, max_n)


def replay_oracle(tr, n):
    """Replay ``cover-census oracle --n N`` with the default oracle limit."""
    from cover_census import asymptotics, oracle
    from cover_census.combinatorics import bell

    limit = oracle.DEFAULT_ORACLE_LIMIT
    with tr.span("combinatorics.bell_table"):
        bell(2 * n)
    rss_before = _peak_rss_mb()
    with tr.span("oracle.scan"):
        census = oracle.oracle_counts(n, limit=limit)
    tr.values["oracle.scan_rss_mb"] = _peak_rss_mb() - rss_before
    tr.counters["oracle.partitions"] = sum(census.merged_twin_histogram)
    with tr.span("oracle.fiber_check"):
        fibers = oracle.fiber_check(n, limit=limit)
    tr.counters["oracle.fiber_keys"] = fibers.covers
    with tr.span("oracle.line_classes"):
        line_classes = oracle.oracle_line_class_count(n, limit=limit)
    with tr.span("oracle.line_images"):
        oracle.oracle_line_count(n, limit=limit)
    row = replay_full_table(tr, n)[n]
    with tr.span("asymptotics.exact"):
        separation = asymptotics.separation_probability(n)
        asymptotics.image_collision_bound(n)
    _require(fibers.ok, "fiber sizes")
    _require(separation * census.bell_2n == census.separated, "separation count")
    _require(
        (census.s, census.t, census.u, census.v, line_classes) == row[1:6],
        "oracle and table agree",
    )


def replay_sample(tr, n, trials, seed):
    """Replay ``cover-census sample --n N --stat p-x0 --trials T --seed S``.

    Each ``sample_partition`` call made by the estimator is timed through a
    wrapper installed in the sampler module, so the draws are the
    estimator's own, from the workload seed.
    """
    from cover_census import asymptotics, sampler
    from cover_census.combinatorics import bell

    with tr.span("combinatorics.bell_table"):
        bell(2 * n)
    config = sampler.SamplerConfig(trials=trials, seed=seed)
    draw = sampler.sample_partition
    draw_cost = {"seconds": 0.0, "calls": 0}

    def timed_draw(*args, **kwargs):
        start = time.perf_counter()
        partition = draw(*args, **kwargs)
        draw_cost["seconds"] += time.perf_counter() - start
        draw_cost["calls"] += 1
        return partition

    sampler.sample_partition = timed_draw
    try:
        with tr.span("sampler.estimate"):
            result = sampler.estimate_separation_probability(n, config)
    finally:
        sampler.sample_partition = draw
    tr.counters["sampler.draws"] = draw_cost["calls"]
    tr.counters["sampler.weight_bits"] = bell(2 * n).bit_length()
    tr.values["sampler.draw_s"] = draw_cost["seconds"]
    with tr.span("asymptotics.exact"):
        exact = float(asymptotics.separation_probability(n))
    spread = math.sqrt(exact * (1.0 - exact) / trials)
    _require(abs(result.estimate - exact) <= 4 * spread, "|z_score| <= 4")


def main():
    sys.path.insert(0, sys.argv[1])
    command, *params = sys.argv[2:]
    replays = {"table": replay_table, "oracle": replay_oracle, "sample": replay_sample}
    tr = Tracer()
    calibration_before = calibrate()
    try:
        replays[command](tr, *map(int, params))
    except ReplayMismatch as exc:
        print(f"replay mismatch: {exc}", file=sys.stderr)
        return 1
    calibration_s = (calibration_before + calibrate()) / 2
    print(
        json.dumps(
            {
                "spans": tr.spans,
                "counters": tr.counters,
                "values": tr.values,
                "calibration_s": calibration_s,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
