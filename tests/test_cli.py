"""Tests for the command-line interface.

Most cases drive main() in process for speed; module execution and the
cover-census console script get real subprocess coverage. The console
script test runs the installed script when one is on PATH, and otherwise
the wrapper an installer would generate from the cover-census entry in
[project.scripts] of pyproject.toml.
"""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cover_census
from cover_census import asymptotics, cli, oracle
from cover_census.asymptotics import asymptotic_report, merged_twin_moment_variance
from cover_census.cli import main
from cover_census.sampler import Estimate
from cover_census.sequences import full_table

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# The directory holding the cover_census package this suite imported.
PACKAGE_PARENT = str(Path(cover_census.__file__).resolve().parents[1])

REPORT_HEADER = (
    "n,bell_source,log_bell_2n,est_st,est_uvl,est_uvl_w,"
    "log_s,log_t,log_u,log_v,log_l,"
    "ratio_s,ratio_t,ratio_u,ratio_v,ratio_l,ratio_u_w,ratio_v_w,ratio_l_w"
)

GOLDEN_TABLE_3 = (
    "n,s,t,u,v,l,bell2n\n"
    "0,1,1,1,1,1,1\n"
    "1,1,0,1,0,1,2\n"
    "2,3,1,2,1,2,15\n"
    "3,16,8,9,5,8,203\n"
)

GOLDEN_TABLE_8 = GOLDEN_TABLE_3 + (
    "4,139,80,70,43,66,4140\n"
    "5,1750,1088,794,518,774,115975\n"
    "6,29388,19232,12055,8186,11885,4213597\n"
    "7,624889,424400,233238,163356,230858,190899322\n"
    "8,16255738,11361786,5556725,3988342,5512821,10480142147\n"
)

GOLDEN_ORACLE_4 = """\
oracle census at n=4 (limit 6)
counts: s=139 t=80 u=70 v=43 l=66 (distinct line graphs: 60)
events: separated=1657 image-distinct=3255 both=1280
collision histogram (separated partitions by duplicate images): 1280 312 52 12 1
bell(2n)=4140
check preimage decomposition (s * 2^n over duplicates): PASS
check clean preimage count (t * 2^n): PASS
check fiber sizes 2^(n - duplicates): PASS
check merged-twin factorial moments: PASS
check alternating-series separation count: PASS
check collision probability within bound: PASS
check sequence table agreement: PASS
result: PASS
"""

# SHA-256 of the whole `oracle --n N` stdout at the two largest default sizes.
ORACLE_STDOUT_SHA256 = {
    5: "1f3195e1b5f7677324245242343d0d085ea1959dc350669abcef71f1c045ac8b",
    6: "bd78ad3d54644501ac4973a524e6c273779613b129916520f5ebbb5fa9bc67af",
}

REPORT_NOTE = (
    "# estimator ratios converge like log log n / log n: judge them by their"
    " trend toward 1, never by tight agreement; trend regressions are"
    " warnings, exact-identity violations are failures"
)

# The sample envelope at --n 3 --trials 200 --seed 11. Every float in it
# comes from correctly rounded IEEE operations (quotients, products, square
# roots; no libm call), so the bytes hold on any platform.
SAMPLE_JSON = """{
  "command": "sample",
  "params": {
    "n": 3,
    "stat": "%(stat)s",
    "r": %(r)s,
    "trials": 200,
    "seed": 11
  },
  "rows": [
    {
      "n": 3,
      "stat": "%(stat)s",
      "r": %(r)s,
      "trials": 200,
      "seed": 11,
      "estimate": %(estimate)s,
      "std_error": %(std_error)s,
      "exact": %(exact)s,
      "exact_fraction": "%(fraction)s",
      "z_score": %(z)s
    }
  ]
}
"""


def table_json(csv_text, max_n):
    """The table command's JSON bytes, laid out by hand from its CSV."""
    header, *lines = csv_text.splitlines()
    fields = header.split(",")
    rows = []
    for line in lines:
        n, *counts = line.split(",")
        items = [f'      "n": {n}']
        items += [f'      "{f}": "{c}"' for f, c in zip(fields[1:], counts)]
        rows.append("    {\n" + ",\n".join(items) + "\n    }")
    return (
        '{\n  "command": "table",\n  "params": {\n'
        f'    "max_n": {max_n},\n    "format": "json"\n  }},\n  "rows": [\n'
        + ",\n".join(rows)
        + "\n  ]\n}\n"
    )


def child_env():
    """This environment with PYTHONPATH pointing at PACKAGE_PARENT, so a
    child interpreter runs the code under test without an install."""
    return {**os.environ, "PYTHONPATH": PACKAGE_PARENT}


def console_script_from_pyproject(tmp_path):
    """Write the wrapper pip generates for the declared cover-census entry.

    Returns the wrapper's path and an environment whose PYTHONPATH holds the
    cover_census package this suite imported.
    """
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"]["cover-census"]
    module, func = spec.split(":")
    script = tmp_path / "cover-census"
    script.write_text(
        f"#!{sys.executable}\n"
        "import re\n"
        "import sys\n"
        f"from {module} import {func}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
        f"    sys.exit({func}())\n",
        encoding="utf-8",
    )
    script.chmod(0o755)
    return str(script), child_env()


# One small run of each command, for the output-stream failure tests.
EVERY_COMMAND = [
    ("table", "--max-n", "3"),
    ("oracle", "--n", "3"),
    ("asymptotics", "--max-n", "8"),
    ("sample", "--n", "2", "--stat", "p-x0", "--trials", "10", "--seed", "1"),
]


# Every refusal a handler makes, with its whole stderr line: each raises
# ValueError, and main() alone prints it and exits 2.
REFUSALS = {
    "table-above-bell-cap": (
        "table --max-n 600",
        "full_table(600) needs Bell numbers to 1200, above the cap 1024",
    ),
    "asymptotics-below-2": (
        "asymptotics --max-n 1",
        "--max-n must be >= 2 for asymptotics, got 1",
    ),
    "asymptotics-float-overflow": (
        f"asymptotics --max-n {10**400}",
        "max_n is too large for asymptotic reports:"
        " the estimate of log B_2n overflows a float",
    ),
    "oracle-above-limit": (
        "oracle --n 7",
        "--n 7 exceeds the oracle limit 6 (pass --slow for one size more)",
    ),
    "oracle-above-slow-limit": (
        "oracle --n 8 --slow",
        "--n 8 exceeds the oracle limit 7",
    ),
    "sample-moment-without-r": (
        "sample --n 4 --stat moment --trials 10 --seed 1",
        "--stat moment requires --r",
    ),
    "sample-r-above-n": (
        "sample --n 4 --stat moment --r 5 --trials 10 --seed 1",
        "--r must be <= --n, got r=5, n=4",
    ),
    "sample-r-without-moment": (
        "sample --n 4 --stat p-x0 --r 1 --trials 10 --seed 1",
        "--r applies only to --stat moment, not p-x0",
    ),
    "sample-above-bell-cap": (
        "sample --n 513 --stat p-x0 --trials 10 --seed 1",
        "--n 513 needs partitions of [1026], above the Bell cap 1024",
    ),
    "sample-seed-above-64-bits": (
        f"sample --n 4 --stat p-x0 --trials 10 --seed {2**64}",
        "seed must fit in 64 bits, got 18446744073709551616",
    ),
}

# The library call each handler makes, and one run of that handler.
HANDLER_CALLS = {
    "full_table": "table --max-n 3",
    "asymptotic_report": "asymptotics --max-n 8",
    "oracle_counts": "oracle --n 3",
    "_statistic": "sample --n 2 --stat p-x0 --trials 10 --seed 1",
}

# SHA-256 of stdout, and the whole stderr, of runs whose bytes must not
# move when the CLI is refactored.  The asymptotics floats come from libm
# (log, exp), so that digest pins one platform's math library; the others
# hold exact integers or correctly rounded floats.
OUTPUT_DIGESTS = {
    "table --max-n 40": (
        "0682540e5d6083195d600fbed1169c4c371f520908840d33ecde9b483f3516fe",
        "",
    ),
    "table --max-n 30 --format json": (
        "c08c74d5bf5a447b4f416632bcec7b19d191455de1a14ddc25e40ed87f9a5d66",
        "",
    ),
    "asymptotics --max-n 64": (
        "cb6e97a857e4026eecc8fa27a68769a17247dc095e78e27912c8d4c68788b293",
        "trend ratio_t: |ratio-1| 0.2573 at n=4 -> 0.1402 at n=64: PASS\n"
        "trend ratio_v: |ratio-1| 0.2835 at n=4 -> 0.0398 at n=64: PASS\n",
    ),
    "sample --n 6 --stat p-collision --trials 2000 --seed 1": (
        "03af44570cce5b51ebbfe824df9171e1b60866a18a8b9cdc10962c868f925300",
        "",
    ),
    "sample --n 8 --stat moment --r 2 --trials 2000 --seed 1": (
        "a097802f1b29779d558e2bc36b4ff4875fc60c74ab7d251715dd105533880760",
        "",
    ),
}

# The benchmark's record of the table-128 workload, read and never written.
BENCH_EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "cover_census", *argv],
        capture_output=True,
        text=True,
        env=child_env(),
    )


class TestTableCommand:
    def test_csv_golden(self, capsys):
        assert main(["table", "--max-n", "3"]) == 0
        assert capsys.readouterr().out == GOLDEN_TABLE_3

    def test_csv_zero(self, capsys):
        assert main(["table", "--max-n", "0"]) == 0
        assert capsys.readouterr().out == "n,s,t,u,v,l,bell2n\n0,1,1,1,1,1,1\n"

    def test_json_structure(self, capsys):
        assert main(["table", "--max-n", "4", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "table"
        assert payload["params"] == {"max_n": 4, "format": "json"}
        assert len(payload["rows"]) == 5
        row = payload["rows"][4]
        assert row == {
            "n": 4,
            "s": "139",
            "t": "80",
            "u": "70",
            "v": "43",
            "l": "66",
            "bell2n": "4140",
        }
        # Big integers must arrive as decimal strings, never numbers.
        assert all(isinstance(r["bell2n"], str) for r in payload["rows"])

    def test_json_bytes(self, capsys):
        assert main(["table", "--max-n", "8", "--format", "json"]) == 0
        assert capsys.readouterr().out == table_json(GOLDEN_TABLE_8, 8)

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        assert main(["table", "--max-n", "3", "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text(encoding="utf-8") == GOLDEN_TABLE_3

    def test_out_unwritable_path_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        assert main(["table", "--max-n", "3", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"cover-census: error: cannot write {target}: No such file or directory\n"
        )
        assert not target.exists()

    def test_max_n_above_bell_cap(self, capsys):
        assert main(["table", "--max-n", "513"]) == 2
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("max_n", [256, 257, 512])
    def test_large_table_is_announced(self, capsys, monkeypatch, max_n):
        monkeypatch.setattr(cli, "full_table", lambda n: full_table(3))
        assert main(["table", "--max-n", str(max_n)]) == 0
        captured = capsys.readouterr()
        assert captured.out == GOLDEN_TABLE_3
        if max_n == 256:
            assert captured.err == ""
        else:
            assert captured.err == (
                f"cover-census: building the exact table to n={max_n};"
                " above n=256 this takes minutes\n"
            )

    def test_refused_table_is_not_announced(self, capsys):
        assert main(["table", "--max-n", "600"]) == 2
        assert capsys.readouterr().err == (
            "cover-census: error: full_table(600) needs Bell numbers to 1200,"
            " above the cap 1024\n"
        )

    def test_negative_max_n_is_usage_error(self):
        result = run_cli("table", "--max-n", "-1")
        assert result.returncode == 2


def perturb_scan(monkeypatch, change):
    """Let ``change`` edit the oracle scan's histogram list and fiber map."""
    scan = oracle._full_scan

    def perturbed(n):
        histogram, image_distinct, fibers = scan(n)
        histogram = list(histogram)
        change(histogram, fibers)
        return tuple(histogram), image_distinct, fibers

    monkeypatch.setattr(oracle, "_full_scan", perturbed)


def fiber_off_by_one(histogram, fibers):
    fibers[next(iter(fibers))] += 1


def twin_moved_up_a_bin(histogram, fibers):
    # The Bell sum still holds; the first factorial moment does not.
    histogram[1] -= 1
    histogram[2] += 1


def census_bin_moved(monkeypatch):
    """Move one census partition from collision-histogram bin 0 to bin 1."""
    counts = cli.oracle_counts

    def perturbed(n, **kwargs):
        census = counts(n, **kwargs)
        first, second, *rest = census.collision_histogram
        return census._replace(collision_histogram=(first - 1, second + 1, *rest))

    monkeypatch.setattr(cli, "oracle_counts", perturbed)


def perturb_table(monkeypatch, k, **steps):
    """Add ``steps`` to the fields of row k of every table the CLI builds."""

    def perturbed(max_n):
        table = full_table(max_n)
        rows = list(table.rows)
        row = rows[k]
        rows[k] = row._replace(**{f: getattr(row, f) + d for f, d in steps.items()})
        return table._replace(rows=tuple(rows))

    monkeypatch.setattr(cli, "full_table", perturbed)


class TestOracleCommand:
    def test_passes_at_small_n(self, capsys):
        assert main(["oracle", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "counts: s=3 t=1 u=2 v=1 l=2 (distinct line graphs: 2)" in out
        assert "events: separated=7 image-distinct=10 both=4" in out
        assert out.count("check ") == 7
        assert out.count(": PASS") == 8
        assert "FAIL" not in out
        assert out.rstrip().endswith("result: PASS")

    def test_bytes_at_n4(self, capsys):
        assert main(["oracle", "--n", "4"]) == 0
        captured = capsys.readouterr()
        assert captured.out == GOLDEN_ORACLE_4
        assert captured.err == ""

    @pytest.mark.parametrize("n", sorted(ORACLE_STDOUT_SHA256))
    def test_stdout_digest(self, capsys, n):
        assert main(["oracle", "--n", str(n)]) == 0
        captured = capsys.readouterr()
        digest = hashlib.sha256(captured.out.encode()).hexdigest()
        assert digest == ORACLE_STDOUT_SHA256[n]
        assert captured.err == ""

    @pytest.fixture
    def fresh_census(self):
        oracle._census.cache_clear()
        yield
        oracle._census.cache_clear()

    @pytest.mark.parametrize(
        "perturb, message",
        [
            pytest.param(
                lambda mp: perturb_scan(mp, fiber_off_by_one),
                "fiber size failed at n=3: cover ",
                id="fiber-count",
            ),
            pytest.param(
                lambda mp: perturb_scan(mp, twin_moved_up_a_bin),
                "merged-twin factorial moment failed at n=3: the scan gives 157"
                " at r=1 but (n)_r * Bell(5) = 156",
                id="twin-histogram",
            ),
            pytest.param(
                census_bin_moved,
                "collision histogram failed at n=3: 63 separated partitions"
                " have d=0 repeated images but the formula from t gives 64",
                id="census-histogram",
            ),
            pytest.param(
                lambda mp: perturb_table(mp, 3, l=1),
                "sequence table agreement failed at n=3: ",
                id="table-row-l",
            ),
            pytest.param(
                lambda mp: mp.setattr(cli, "image_collision_bound", lambda n: 0),
                "collision probability bound failed at n=3: ",
                id="collision-bound",
            ),
        ],
    )
    def test_failure_is_one_stderr_line(
        self, capsys, monkeypatch, fresh_census, perturb, message
    ):
        perturb(monkeypatch)
        assert main(["oracle", "--n", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"FAIL: {message}")

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_perturbed_t_fails_on_the_histogram(self, capsys, monkeypatch, k):
        # Row 3 is untouched, so the table agreement holds; t_k enters every
        # bin d >= 1 of the histogram formula at n = 3.
        perturb_table(monkeypatch, k, t=1)
        assert main(["oracle", "--n", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "FAIL: collision histogram failed at n=3: 16 separated partitions"
            " have d=1 repeated images"
        )
        assert captured.err.count("\n") == 1

    def test_limit_enforced(self, capsys):
        assert main(["oracle", "--n", "7"]) == 2
        err = capsys.readouterr().err
        assert "--slow" in err

    def test_slow_flag_allows_one_more(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "DEFAULT_ORACLE_LIMIT", 2)
        assert main(["oracle", "--n", "3"]) == 2
        capsys.readouterr()
        assert main(["oracle", "--n", "3", "--slow"]) == 0
        out = capsys.readouterr().out
        assert "result: PASS" in out

    def test_environment_does_not_move_the_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("COVER_CENSUS_ORACLE_LIMIT", "2")
        assert main(["oracle", "--n", "3"]) == 0
        assert capsys.readouterr().out.rstrip().endswith("result: PASS")
        assert main(["oracle", "--n", "7"]) == 2
        assert capsys.readouterr().err == (
            "cover-census: error: --n 7 exceeds the oracle limit 6"
            " (pass --slow for one size more)\n"
        )


class TestAsymptoticsCommand:
    def test_csv_layout(self, capsys):
        assert main(["asymptotics", "--max-n", "8"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == REPORT_NOTE
        assert lines[1] == REPORT_HEADER
        assert len(lines) == 4
        assert lines[2].startswith("4,exact,")
        assert lines[3].startswith("8,exact,")
        trend_lines = [
            line for line in captured.err.splitlines() if line.startswith("trend ")
        ]
        assert len(trend_lines) == 2
        assert all(line.endswith(": PASS") for line in trend_lines)

    def test_json_structure(self, capsys):
        assert main(["asymptotics", "--max-n", "8", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["command", "params", "note", "rows"]
        assert payload["command"] == "asymptotics"
        assert list(payload["params"].items()) == [("max_n", 8), ("format", "json")]
        assert payload["note"] == REPORT_NOTE[2:]
        assert [row["n"] for row in payload["rows"]] == [4, 8]
        assert all(list(row) == REPORT_HEADER.split(",") for row in payload["rows"])
        row = payload["rows"][0]
        assert isinstance(row["ratio_v"], float)
        assert row["bell_source"] == "exact"

    def test_small_max_n_is_usage_error(self, capsys):
        assert main(["asymptotics", "--max-n", "1"]) == 2
        assert "max-n" in capsys.readouterr().err

    @pytest.mark.parametrize("max_n, exact_n", [(256, None), (300, 300), (600, 512)])
    def test_large_exact_table_is_announced(self, capsys, monkeypatch, max_n, exact_n):
        monkeypatch.setattr(cli, "asymptotic_report", lambda n: asymptotic_report(8))
        assert main(["asymptotics", "--max-n", str(max_n)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if not line.startswith("trend ")] == (
            []
            if exact_n is None
            else [
                f"cover-census: building the exact table to n={exact_n};"
                " above n=256 this takes minutes"
            ]
        )

    @pytest.mark.parametrize("max_n", [10**306, 10**400])
    def test_float_overflow_is_refused_up_front(self, capsys, monkeypatch, max_n):
        # From n of about 1.29e305 the estimate of log B_2n is inf, and above
        # 2n of about 4.49e307 it raises; both are refused before any table
        # work is done or announced.
        monkeypatch.setattr(cli, "asymptotic_report", lambda n: pytest.fail("built"))
        assert main(["asymptotics", "--max-n", str(max_n)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("cover-census: error: ")

    def test_largest_float_range_is_reported(self, capsys, monkeypatch):
        monkeypatch.setattr(asymptotics, "DEFAULT_BELL_CAP", 16)
        monkeypatch.setattr(cli, "DEFAULT_BELL_CAP", 16)
        max_n = 10**305
        assert main(["asymptotics", "--max-n", str(max_n), "--format", "json"]) == 0

        def reject(constant):
            raise AssertionError(f"non-JSON constant {constant}")

        rows = json.loads(capsys.readouterr().out, parse_constant=reject)["rows"]
        assert rows[-1]["n"] == max_n
        assert rows[-1]["bell_source"] == "asymptotic"
        assert all(math.isfinite(row["log_bell_2n"]) for row in rows)


class TestSampleCommand:
    def test_separation_with_exact(self, capsys):
        code = main(
            ["sample", "--n", "2", "--stat", "p-x0", "--trials", "4000", "--seed", "7"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "sample"
        record = payload["rows"][0]
        assert record["stat"] == "p-x0"
        assert record["r"] is None
        assert record["exact_fraction"] == "7/15"
        assert abs(record["z_score"]) <= 4
        assert 0 <= record["estimate"] <= 1

    @pytest.mark.parametrize(
        "argv, fields",
        [
            (
                ["--stat", "p-x0"],
                ("p-x0", "null", "0.385", "0.034407484650872115",
                 "0.42857142857142855", "3/7", "-1.2451572859147813"),
            ),
            (
                ["--stat", "moment", "--r", "2"],
                ("moment", "2", "0.57", "0.0975864518152466",
                 "0.4433497536945813", "90/203", "1.5823411165393215"),
            ),
            (
                ["--stat", "p-collision"],
                ("p-collision", "null", "0.245", "0.030411757594719844",
                 "0.24630541871921183", "50/203", "-0.042847960423085786"),
            ),
        ],
    )
    def test_json_bytes(self, capsys, argv, fields):
        keys = ("stat", "r", "estimate", "std_error", "exact", "fraction", "z")
        argv = ["sample", "--n", "3", *argv, "--trials", "200", "--seed", "11"]
        assert main(argv) == 0
        assert capsys.readouterr().out == SAMPLE_JSON % dict(zip(keys, fields))

    def test_moment_requires_r(self, capsys):
        code = main(
            ["sample", "--n", "2", "--stat", "moment", "--trials", "10", "--seed", "1"]
        )
        assert code == 2
        assert "--r" in capsys.readouterr().err

    @pytest.mark.parametrize("stat", ["p-x0", "p-collision"])
    def test_r_only_with_moment(self, capsys, stat):
        argv = ["sample", "--n", "2", "--stat", stat, "--r", "9"]
        assert main(argv + ["--trials", "10", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"cover-census: error: --r applies only to --stat moment, not {stat}\n"
        )

    def test_moment_r_bounded_by_n(self, capsys):
        code = main(
            [
                "sample",
                "--n",
                "2",
                "--stat",
                "moment",
                "--r",
                "3",
                "--trials",
                "10",
                "--seed",
                "1",
            ]
        )
        assert code == 2

    def test_moment_exact_fraction(self, capsys):
        code = main(
            [
                "sample",
                "--n",
                "2",
                "--stat",
                "moment",
                "--r",
                "1",
                "--trials",
                "4000",
                "--seed",
                "7",
            ]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)["rows"][0]
        assert record["exact_fraction"] == "2/3"
        assert record["r"] == 1

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_moment_with_all_draws_zero_passes(self, capsys, seed):
        # (X)_6 of a partition of [12] is nonzero only when all six twin
        # pairs merge, so 50 draws are all zero and their own spread is 0;
        # the score test divides by the exact spread instead.
        argv = ["sample", "--n", "6", "--stat", "moment", "--r", "6"]
        assert main(argv + ["--trials", "50", "--seed", str(seed)]) == 0
        record = json.loads(capsys.readouterr().out)["rows"][0]
        assert record["estimate"] == 0.0
        assert record["std_error"] == 0.0
        spread = math.sqrt(float(merged_twin_moment_variance(6, 6)) / 50)
        assert record["z_score"] == -record["exact"] / spread
        assert abs(record["z_score"]) < 0.1

    def test_zeroth_moment_has_zero_z(self, capsys):
        argv = ["sample", "--n", "3", "--stat", "moment", "--r", "0"]
        assert main(argv + ["--trials", "20", "--seed", "1"]) == 0
        record = json.loads(capsys.readouterr().out)["rows"][0]
        assert record["estimate"] == record["exact"] == 1.0
        assert record["z_score"] == 0.0

    def test_collision_beyond_oracle_limit_has_exact(self, capsys):
        code = main(
            [
                "sample",
                "--n",
                "7",
                "--stat",
                "p-collision",
                "--trials",
                "200",
                "--seed",
                "5",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        record = json.loads(captured.out)["rows"][0]
        # 1 - 159183825/Bell(14), the n = 7 image-distinct count.
        assert record["exact_fraction"] == "31715497/190899322"
        assert record["exact"] == 31715497 / 190899322
        assert isinstance(record["z_score"], float)
        assert captured.err == ""

    def test_collision_within_oracle_limit(self, capsys):
        code = main(
            [
                "sample",
                "--n",
                "3",
                "--stat",
                "p-collision",
                "--trials",
                "2000",
                "--seed",
                "5",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        record = json.loads(captured.out)["rows"][0]
        assert record["exact_fraction"] == "50/203"
        assert abs(record["z_score"]) <= 4
        assert captured.err == ""

    def test_collision_at_large_n_has_exact(self, capsys):
        argv = ["sample", "--n", "100", "--stat", "p-collision"]
        assert main(argv + ["--trials", "2000", "--seed", "1"]) == 0
        record = json.loads(capsys.readouterr().out)["rows"][0]
        assert 0 < record["exact"] < 1
        assert abs(record["z_score"]) <= 4

    def test_collision_never_scans(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sample must not scan the oracle")

        monkeypatch.setattr(cli, "oracle_counts", refuse)
        argv = ["sample", "--n", "6", "--stat", "p-collision"]
        assert main(argv + ["--trials", "200", "--seed", "3"]) == 0
        record = json.loads(capsys.readouterr().out)["rows"][0]
        assert record["exact_fraction"] == "751614/4213597"

    @pytest.mark.parametrize("n, r", [(200, 154), (300, 146), (512, 141), (512, 512)])
    def test_moment_variance_beyond_float(self, capsys, n, r):
        # Var[(X)_r] exceeds the largest double here, so the score is taken
        # from its exact square; every draw is 0, and the score is -E/spread.
        argv = ["sample", "--n", str(n), "--stat", "moment", "--r", str(r)]
        assert main(argv + ["--trials", "2", "--seed", "0"]) == 0
        record = json.loads(capsys.readouterr().out)["rows"][0]
        assert record["estimate"] == 0.0
        variance = merged_twin_moment_variance(n, r)
        log_spread = (
            math.log(variance.numerator)
            - math.log(variance.denominator)
            - math.log(2)
        ) / 2
        expected = -math.exp(math.log(record["exact"]) - log_spread)
        assert math.isclose(record["z_score"], expected, rel_tol=1e-9, abs_tol=1e-300)

    @pytest.mark.parametrize("trials", [97656, 97657])
    def test_long_run_is_announced(self, capsys, monkeypatch, trials):
        # 97656 draws from [1024] are 99999744 elements, one more is above 10^8.
        # The zeroth moment is exactly 1, so a stub estimate of 1 passes.
        def estimate(n, r, config):
            return Estimate(n, "moment", config.trials, config.seed, 1.0, 0.0)

        monkeypatch.setattr(cli, "estimate_twin_moment", estimate)
        argv = ["sample", "--n", "512", "--stat", "moment", "--r", "0"]
        assert main(argv + ["--trials", str(trials), "--seed", "1"]) == 0
        elements = trials * 1024
        assert capsys.readouterr().err == (
            ""
            if elements <= 10**8
            else f"cover-census: drawing {trials} partitions of [1024]"
            f" ({elements} elements); above 100000000 elements this takes minutes\n"
        )

    def test_ground_set_beyond_bell_cap(self, capsys):
        code = main(
            ["sample", "--n", "600", "--stat", "p-x0", "--trials", "1", "--seed", "1"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--n 600" in err
        assert "cap" in err

    def test_zero_n_rejected_by_parser(self):
        result = run_cli(
            "sample", "--n", "0", "--stat", "p-x0", "--trials", "10", "--seed", "1"
        )
        assert result.returncode == 2


class TestErrorBoundary:
    @pytest.mark.parametrize("argv, message", REFUSALS.values(), ids=REFUSALS)
    def test_refusal_bytes(self, capsys, argv, message):
        assert main(argv.split()) == 2
        assert capsys.readouterr() == ("", f"cover-census: error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "--max-n"),
            ("sample", "--n", "6", "--stat", "p-x0", "--trials", "10", "--seed"),
        ],
        ids=["table-max-n", "sample-seed"],
    )
    def test_overlong_integer_is_named_by_its_length(self, argv):
        # int() refuses more than 4300 digits; the refusal names the length
        # and does not echo the 5000-byte argument.
        result = run_cli(*argv, "1" * 5000)
        assert (result.returncode, result.stdout) == (2, "")
        assert len(result.stderr.encode()) < 500
        lines = result.stderr.splitlines()
        assert lines[0].startswith("usage: cover-census ")
        assert lines[-1].endswith(f"argument {argv[-1]}: too large: 5000 digits")

    @pytest.mark.parametrize("name, argv", HANDLER_CALLS.items(), ids=HANDLER_CALLS)
    def test_library_value_error_is_usage_error(self, capsys, monkeypatch, name, argv):
        # A ValueError from anywhere inside a handler takes the one path.
        def refuse(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(cli, name, refuse)
        assert main(argv.split()) == 2
        assert capsys.readouterr() == ("", "cover-census: error: boom\n")


class TestOutputDigests:
    @pytest.mark.parametrize("argv", OUTPUT_DIGESTS)
    def test_output_bytes(self, capsys, argv):
        assert main(argv.split()) == 0
        out, err = capsys.readouterr()
        assert (hashlib.sha256(out.encode()).hexdigest(), err) == OUTPUT_DIGESTS[argv]

    def test_table_128_matches_benchmark(self, capsys):
        expected = json.loads(BENCH_EXPECTED.read_text())["table-128"]
        assert main(["table", "--max-n", "128"]) == 0
        out, err = capsys.readouterr()
        assert hashlib.sha256(out.encode()).hexdigest() == expected["stdout_sha256"]
        assert err == ""

    @pytest.mark.slow
    def test_table_256_digest(self, capsys):
        # Rows 129..256 are pinned nowhere else; this takes 25-40 s.
        assert main(["table", "--max-n", "256"]) == 0
        out, err = capsys.readouterr()
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c3f959009dc83dd654a4acc8766a75e2370f8e259be2c13c042597dd76e74321"
        )
        assert err == ""


class TestProcessLevel:
    def test_module_entry_point(self):
        result = run_cli("table", "--max-n", "0")
        assert result.returncode == 0
        assert result.stdout == "n,s,t,u,v,l,bell2n\n0,1,1,1,1,1,1\n"

    def test_unknown_command_usage_error(self):
        result = run_cli("no-such-command")
        assert result.returncode == 2

    def test_missing_required_flag_usage_error(self):
        result = run_cli("table")
        assert result.returncode == 2

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", EVERY_COMMAND)
    def test_unwritable_stdout_is_usage_error(self, argv):
        # Buffered stdout fails at the final flush, unbuffered at the write.
        buffered = {k: v for k, v in child_env().items() if k != "PYTHONUNBUFFERED"}
        for env in (buffered, {**buffered, "PYTHONUNBUFFERED": "1"}):
            with open("/dev/full", "w") as full:
                result = subprocess.run(
                    [sys.executable, "-m", "cover_census", *argv],
                    stdout=full,
                    stderr=subprocess.PIPE,
                    text=True,
                    env=env,
                )
            assert result.returncode == 2
            assert result.stderr.splitlines()[-1] == (
                "cover-census: error: cannot write output: No space left on device"
            )
            assert "Traceback" not in result.stderr
            assert "Exception ignored" not in result.stderr

    @pytest.mark.skipif(os.name != "posix", reason="closes a descriptor before exec")
    @pytest.mark.parametrize("argv", EVERY_COMMAND)
    def test_closed_stdout_is_usage_error(self, argv):
        # With descriptor 1 closed at startup, Python sets sys.stdout to None.
        result = subprocess.run(
            [sys.executable, "-m", "cover_census", *argv],
            stderr=subprocess.PIPE,
            text=True,
            env=child_env(),
            preexec_fn=lambda: os.close(1),
        )
        assert result.returncode == 2
        assert result.stderr == (
            "cover-census: error: cannot write output: Bad file descriptor\n"
        )

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_unwritable_stderr_is_usage_error(self):
        # A closed stderr is None, and print() would send the trend lines to
        # stdout; a buffered one keeps the bytes it could not write, and the
        # interpreter's final flush would fail on them with exit code 120.
        argv = [sys.executable, "-m", "cover_census", "asymptotics", "--max-n", "16"]
        buffered = {k: v for k, v in child_env().items() if k != "PYTHONUNBUFFERED"}
        for env in (buffered, {**buffered, "PYTHONUNBUFFERED": "1"}):
            closed = subprocess.run(
                argv,
                stdout=subprocess.PIPE,
                text=True,
                env=env,
                preexec_fn=lambda: os.close(2),
            )
            with open("/dev/full", "w") as full:
                filled = subprocess.run(
                    argv, stdout=subprocess.PIPE, stderr=full, text=True, env=env
                )
            for result in (closed, filled):
                assert result.returncode == 2
                assert "trend ratio_" not in result.stdout

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_unwritable_stderr_keeps_stdout(self):
        # The trend lines fail on stderr while the CSV still sits in
        # stdout's buffer; the CSV must still arrive in full.
        argv = ("asymptotics", "--max-n", "16")
        expected = run_cli(*argv).stdout
        buffered = {k: v for k, v in child_env().items() if k != "PYTHONUNBUFFERED"}
        for env in (buffered, {**buffered, "PYTHONUNBUFFERED": "1"}):
            with open("/dev/full", "w") as full:
                result = subprocess.run(
                    [sys.executable, "-m", "cover_census", *argv],
                    stdout=subprocess.PIPE,
                    stderr=full,
                    text=True,
                    env=env,
                )
            assert result.returncode == 2
            assert result.stdout == expected

    def test_console_script_installed(self, tmp_path):
        path, env = shutil.which("cover-census"), None
        if path is None:
            path, env = console_script_from_pyproject(tmp_path)
        assert path is not None
        result = subprocess.run(
            [path, "table", "--max-n", "2"], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.endswith("2,3,1,2,1,2,15\n")
