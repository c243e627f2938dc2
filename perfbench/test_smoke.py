"""Smoke test of the benchmark's own code at toy sizes.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py

It drives every output check, both run modes and every replayed span on
``table --max-n 8``, ``oracle --n 3`` and ``sample --n 2`` with 50 trials,
and feeds the checks corrupted outputs to see them fail.
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402

TOYS = {
    w.name: w
    for w in (
        bench.Workload("table-8", "table", 8),
        bench.Workload("oracle-3", "oracle", 3),
        bench.Workload("sample-2", "sample", 2, trials=50),
    )
}
SEED = 7


def run_cli(workload, first_stdout=None):
    return bench.run_cli(workload, SEED, first_stdout, time.monotonic() + 60)

SPANS = {
    "table": [
        "combinatorics.bell_table_s",
        "sequences.full_table_s",
        "sequences.restricted_proper_s",
        "series.bivariate_spot_s",
        "sequences.transforms_s",
        "combinatorics.stirling_table_s",
        "sequences.line_transform_s",
        "series.exp_s",
        "series.mul_s",
        "series.compose_s",
        "sequences.checks_s",
    ],
    "oracle": [
        "oracle.scan_s",
        "oracle.scan_rss_mb",
        "oracle.fiber_check_s",
        "oracle.line_classes_s",
        "oracle.line_images_s",
        "sequences.full_table_s",
        "sequences.checks_s",
        "asymptotics.exact_s",
    ],
    "sample": [
        "combinatorics.bell_table_s",
        "sampler.estimate_s",
        "sampler.draw_us",
        "sampler.statistic_us",
        "asymptotics.exact_s",
    ],
}


@pytest.fixture(autouse=True)
def program_variables_set(monkeypatch):
    # The benchmark must strip these; an oracle limit of 0 would refuse n = 3.
    monkeypatch.setenv("COVER_CENSUS_ORACLE_LIMIT", "0")
    monkeypatch.setenv("COVER_CENSUS_TRACE", "1")


@pytest.mark.parametrize("name", sorted(TOYS))
def test_untraced_run_checks_and_reports_end_to_end(name):
    lines, result = bench.run(TOYS[name], SEED, 0.1, traced=False)
    assert result["correct"], lines
    assert result["failed"] == 0
    assert result["attempted"] >= bench.MIN_SAMPLES
    assert set(result["metrics"]) == set(bench.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    report = "\n".join(lines)
    for fact in ("commit:", "python:", "nproc:", "loadavg before:", "loadavg after:"):
        assert fact in report


@pytest.mark.parametrize("name", sorted(TOYS))
def test_traced_run_reports_every_span(name):
    workload = TOYS[name]
    lines, result = bench.run(workload, SEED, 0.1, traced=True)
    assert result["correct"], lines
    assert set(result["metrics"]) == set(bench.PER_LAYER)
    for counter, value in workload.expected["counters"].items():
        assert result["metrics"][counter]["value"] == value
    report = "\n".join(lines)
    for span in SPANS[workload.command] + ["cli.replayed_s", "cli.unaccounted_s"]:
        assert span in report
    assert (bench.OUT_DIR / f"trace-{name}-seed{SEED}.json").is_file()


def test_wrong_counter_fails_the_traced_run(monkeypatch):
    expected = dict(bench.EXPECTED["oracle-3"])
    expected["counters"] = dict(expected["counters"], **{"oracle.partitions": 204})
    monkeypatch.setitem(bench.EXPECTED, "oracle-3", expected)
    _, result = bench.run(TOYS["oracle-3"], SEED, 0.1, traced=True)
    assert not result["correct"]
    assert result["failed"] >= bench.MIN_SAMPLES


def test_failed_check_counts_against_attempted(monkeypatch):
    monkeypatch.setattr(bench, "check_output", lambda *args: ["forced"])
    _, result = bench.run(TOYS["sample-2"], SEED, 0.1, traced=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_checks_reject_corrupted_output():
    table = TOYS["table-8"]
    good = run_cli(table)
    assert good.problems == []
    assert run_cli(table, good.stdout + "x").problems == [
        "stdout differs between runs of the same command"
    ]
    bad_row = good.stdout.replace("4,139,80,70,43,66,4140", "4,139,80,70,43,67,4140")
    assert "rows 0..6 differ from the published table" in bench.check_table(table, bad_row)
    bad_order = good.stdout.replace("4,139,80,70,43,66,4140", "4,139,80,70,71,66,4140")
    assert "count ordering v<=u, t<=s, l<=u" in bench.check_table(table, bad_order)
    assert bench.check_table(table, good.stdout + "9,0,0,0,0,0,0\n") == [
        "table header or row count"
    ]

    oracle = TOYS["oracle-3"]
    passed = run_cli(oracle).stdout
    assert bench.check_oracle(oracle, passed) == []
    assert bench.check_oracle(oracle, passed.replace("result: PASS", "result: FAIL")) == [
        "no 'result: PASS' line",
        "stdout digest",
    ]

    sample = TOYS["sample-2"]
    drawn = run_cli(sample).stdout
    assert bench.check_sample(sample, drawn, SEED) == []
    assert bench.check_sample(sample, drawn, SEED + 1) == ["trials or seed echoed wrongly"]
    assert bench.check_sample(sample, drawn.replace('"7/15"', '"8/15"'), SEED) == [
        "exact_fraction"
    ]
    assert bench.check_sample(sample, "{}", SEED) == ["sample output is not the expected JSON"]


def test_z_score_limit():
    sample = TOYS["sample-2"]
    row = '{"rows": [{"trials": 50, "seed": 7, "z_score": %s, "exact_fraction": "7/15"}]}'
    assert bench.check_sample(sample, row % "3.9", SEED) == []
    assert bench.check_sample(sample, row % "-4.1", SEED) == ["|z_score| > 4.0: -4.1"]


def test_run_stops_at_the_deadline():
    now = time.monotonic()
    assert bench.keep_going(0, now, 10, deadline=now + 1)
    assert not bench.keep_going(0, now, 10, deadline=now - 1)
    assert not bench.keep_going(bench.MIN_SAMPLES, now - 11, 10, deadline=now + 1)


def test_refuses_without_the_program(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench, "SRC", tmp_path)
    code = bench.main(["--workload", "oracle-5", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
