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
from hypothesis import given, settings
from hypothesis import strategies as st

import cover_census
from cover_census import asymptotics, cli, errors, oracle, sampler, sequences, usage
from cover_census.asymptotics import asymptotic_report
from cover_census.cli import main
from cover_census.combinatorics import merged_twin_moment_variance
from cover_census.sampler import Estimate
from cover_census.sequences import full_table

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# The directory holding the cover_census package this suite imported.
PACKAGE_PARENT = str(Path(cover_census.__file__).resolve().parents[1])

REPORT_HEADER = (
    "n,log_bell_2n,est_st,est_uvl,est_uvl_w,"
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


def buffering_envs():
    """child_env() without PYTHONUNBUFFERED, where a failed write sits in
    the buffer until a flush, and with it, where the write itself fails."""
    buffered = {k: v for k, v in child_env().items() if k != "PYTHONUNBUFFERED"}
    return buffered, {**buffered, "PYTHONUNBUFFERED": "1"}


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


# 10**400 as a refusal shows it.
LONG_400 = f"1{'0' * 39}... (401 characters)"

# Every refusal a handler makes, with its whole stderr line: each raises
# ValueError, and main() alone prints it and exits 2.
REFUSALS = {
    "table-above-bell-cap": (
        "table --max-n 600",
        "full_table(600) needs Bell numbers to 1200, above the cap 1024",
    ),
    "asymptotics-below-2": (
        "asymptotics --max-n 1",
        "asymptotic reports need max_n >= 2, got 1",
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
    # A value past 40 characters shows its first 40 and its length.
    "oracle-long-n": (
        f"oracle --n {10**400}",
        f"--n {LONG_400} exceeds the oracle limit 6 (pass --slow for one size more)",
    ),
    "sample-long-n": (
        f"sample --n {10**400} --stat p-x0 --trials 10 --seed 1",
        f"--n {LONG_400} needs partitions of [2{'0' * 39}... (401 characters)],"
        " above the Bell cap 1024",
    ),
    "sample-long-r": (
        f"sample --n 4 --stat moment --r {10**400} --trials 10 --seed 1",
        f"--r must be <= --n, got r={LONG_400}, n=4",
    ),
    "sample-long-seed": (
        f"sample --n 4 --stat p-x0 --trials 10 --seed {10**400}",
        f"seed must fit in 64 bits, got {LONG_400}",
    ),
    # Twice a 4300-digit max_n is past the interpreter's str() digit limit.
    "table-max-n-at-digit-limit": (
        f"table --max-n 5{'0' * 4299}",
        f"full_table(5{'0' * 39}... (4300 characters)) needs Bell numbers to"
        " an integer of 14285 bits, above the cap 1024",
    ),
}

# The library call each handler makes, the module it reads the name from,
# and one run of that handler.  _cmd_asymptotics imports its report names
# when it runs, so they are patched in asymptotics.
HANDLER_CALLS = {
    "full_table": (cli, "table --max-n 3"),
    "asymptotic_report": (asymptotics, "asymptotics --max-n 8"),
    "oracle_counts": (cli, "oracle --n 3"),
    "_statistic": (cli, "sample --n 2 --stat p-x0 --trials 10 --seed 1"),
}


def choice_arguments():
    """The subcommand, and every option with choices of every subcommand,
    read off build_parser() so that a new one is covered."""
    parser = usage.build_parser()
    (commands,) = [action for action in parser._actions if action.dest == "command"]
    arguments = {"command": ()}
    for command, subparser in commands.choices.items():
        for action in subparser._actions:
            if action.choices is not None:
                option = action.option_strings[0]
                arguments[f"{command}{option}"] = (command, option)
    return arguments


CHOICE_ARGUMENTS = choice_arguments()

# SHA-256 of stdout, and the whole stderr, of runs whose bytes must not
# move when the CLI is refactored.  The asymptotics floats come from libm
# (log, exp), so that digest pins one platform's math library; the others
# hold exact integers or correctly rounded floats.
TRENDS_64 = (
    "trend ratio_t: |ratio-1| 0.2573 at n=4 -> 0.1402 at n=64: PASS\n"
    "trend ratio_v: |ratio-1| 0.2835 at n=4 -> 0.0398 at n=64: PASS\n"
)
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
        "a91b04d588cb9a5da2f81b1154af908dcfe902d6740c92c9c93d9092be9b483f",
        TRENDS_64,
    ),
    "asymptotics --max-n 64 --format json": (
        "a0f41735eea4429bcd169528a5b324ed8ab23457688006d89dc37300422801e7",
        TRENDS_64,
    ),
    # The sample-6 workload of the benchmark, which checks only some fields.
    "sample --n 6 --stat p-x0 --trials 25000 --seed 1": (
        "5b89fc5edc941ce53deb9a8ac30d310a413ec77b77a1de50a6b8003bdb9b70a3",
        "",
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

# The whole --help stdout of the root and of each subcommand at 80 columns:
# argparse writes all of it, from the grammar cli.py declares.
HELP_TEXT = {
    "": """\
usage: cover-census [-h] {table,oracle,asymptotics,sample} ...

Exact and asymptotic enumeration of 2-covers and line graphs.

positional arguments:
  {table,oracle,asymptotics,sample}
    table               print the exact sequence table for n = 0..max_n
    oracle              verify the table against exhaustive enumeration at one
                        n
    asymptotics         emit the exact-versus-estimate convergence report
    sample              Monte Carlo estimate of a partition statistic

options:
  -h, --help            show this help message and exit
""",
    "table": """\
usage: cover-census table [-h] --max-n MAX_N [--format {csv,json}] [--out OUT]

options:
  -h, --help           show this help message and exit
  --max-n MAX_N
  --format {csv,json}
  --out OUT            write to a file instead of stdout
""",
    "oracle": """\
usage: cover-census oracle [-h] --n N [--slow]

options:
  -h, --help  show this help message and exit
  --n N
  --slow      permit one size above the oracle limit
""",
    "asymptotics": """\
usage: cover-census asymptotics [-h] --max-n MAX_N [--format {csv,json}]

options:
  -h, --help           show this help message and exit
  --max-n MAX_N
  --format {csv,json}
""",
    "sample": """\
usage: cover-census sample [-h] --n N --stat {p-x0,moment,p-collision} [--r R]
                           --trials TRIALS --seed SEED

options:
  -h, --help            show this help message and exit
  --n N
  --stat {p-x0,moment,p-collision}
  --r R
  --trials TRIALS
  --seed SEED
""",
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

    def test_out_unwritable_path_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # A relative path, short enough to be shown whole.
        monkeypatch.chdir(tmp_path)
        target = Path("missing", "x.csv")
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
    """Let ``change`` edit the oracle scan's histogram list and cover listing."""
    scan = oracle._full_scan

    def perturbed(n):
        histogram, image_distinct, covers = scan(n)
        histogram = list(histogram)
        covers = list(covers)
        change(histogram, covers)
        return tuple(histogram), image_distinct, iter(covers)

    monkeypatch.setattr(oracle, "_full_scan", perturbed)


def fiber_off_by_one(histogram, covers):
    state, x, y, preimages, duplicates, line_graph, triangle_free = covers[0]
    covers[0] = state, x, y, preimages + 1, duplicates, line_graph, triangle_free


def twin_moved_up_a_bin(histogram, covers):
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
        assert lines[2].startswith("4,")
        assert lines[3].startswith("8,")
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

    def test_small_max_n_is_usage_error(self, capsys):
        assert main(["asymptotics", "--max-n", "1"]) == 2
        assert capsys.readouterr() == (
            "",
            "cover-census: error: asymptotic reports need max_n >= 2, got 1\n",
        )

    @pytest.mark.parametrize(
        "max_n, code, err",
        [
            (256, 0, []),
            (
                300,
                0,
                [
                    "cover-census: building the exact table to n=300;"
                    " above n=256 this takes minutes"
                ],
            ),
            (
                600,
                2,
                [
                    "cover-census: error: full_table(600) needs Bell numbers to"
                    " 1200, above the cap 1024"
                ],
            ),
        ],
    )
    def test_large_exact_table_is_announced(self, capsys, monkeypatch, max_n, code, err):
        # Sizes up to 512 get a small report; a larger one reaches the real
        # report, which full_table refuses without an announcement.
        monkeypatch.setattr(
            asymptotics,
            "asymptotic_report",
            lambda n: asymptotic_report(8 if n <= 512 else n),
        )
        assert main(["asymptotics", "--max-n", str(max_n)]) == code
        lines = capsys.readouterr().err.splitlines()
        assert [line for line in lines if not line.startswith("trend ")] == err


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
            return Estimate(1.0, 0.0)

        monkeypatch.setattr(sampler, "estimate_twin_moment", estimate)
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

    @pytest.mark.parametrize(
        "argv, last_line",
        [
            (
                ["table", "--max-n", "1" * 4999 + "x"],
                f"argument --max-n: not an integer: '{'1' * 40}'... (5000 characters)",
            ),
            (
                ["table", "--max-n", "-" + "1" * 4300],
                f"argument --max-n: must be >= 0: -{'1' * 39}... (4301 characters)",
            ),
            (
                ["sample", "--n", "0" * 4000, "--stat", "p-x0", "--trials", "10"],
                f"argument --n: must be >= 1: {'0' * 40}... (4000 characters)",
            ),
            (
                ["table", "--max-n", "-1" + " " * 5000],
                "argument --max-n: must be >= 0: -1",
            ),
            # argparse quotes neither of these: the parser clips any run
            # of more than 40 characters without a space.
            (
                ["table", "--max-n", "1", "z" * 5000],
                f"unrecognized arguments: {'z' * 40}... (5000 characters)",
            ),
            (
                ["sample", "--s=" + "z" * 5000],
                f"ambiguous option: --s={'z' * 36}... (5004 characters)"
                " could match --stat, --seed",
            ),
            # The value is clipped, not repr()'s escapes of it: 90 characters,
            # of which the first 40 are shown quoted.
            (
                ["table", "--max-n", "1", "--format", "a\\b" * 30],
                "argument --format: invalid choice: '" + "a\\\\b" * 13 + "a'..."
                " (90 characters) (choose from 'csv', 'json')",
            ),
        ],
        ids=[
            "not-an-integer",
            "negative",
            "zero",
            "padded",
            "unrecognized",
            "ambiguous",
            "escaped",
        ],
    )
    def test_long_argument_is_clipped(self, capsys, argv, last_line):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        out, err = capsys.readouterr()
        assert (exit_info.value.code, out) == (2, "")
        assert len(err.encode()) < 500
        assert err.splitlines()[-1].endswith(last_line)

    @pytest.mark.parametrize(
        "value", ["x" * 5000, "it's" + "x" * 4996], ids=["plain", "apostrophe"]
    )
    @pytest.mark.parametrize("argv", CHOICE_ARGUMENTS.values(), ids=CHOICE_ARGUMENTS)
    def test_long_invalid_choice_is_clipped(self, capsys, argv, value):
        # argparse echoes an invalid choice whole; the parser clips it as
        # every refusal clips a value.
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, value])
        out, err = capsys.readouterr()
        assert (exit_info.value.code, out) == (2, "")
        assert len(err.encode()) < 500
        assert f"invalid choice: {errors.clip(value, quote=True)} (choose from " in err

    @pytest.mark.parametrize(
        "argv, last_line",
        [
            (
                ["table", "--max-n", "1", "--format", "xml"],
                "cover-census table: error: argument --format: invalid choice:"
                " 'xml' (choose from 'csv', 'json')",
            ),
            (
                ["asymptotics", "--format", "it's"],
                "cover-census asymptotics: error: argument --format: invalid"
                """ choice: "it's" (choose from 'csv', 'json')""",
            ),
            (
                ["sample", "--stat", "y" * 40],
                "cover-census sample: error: argument --stat: invalid choice:"
                f" '{'y' * 40}' (choose from 'p-x0', 'moment', 'p-collision')",
            ),
            (
                ["tabl"],
                "cover-census: error: argument command: invalid choice: 'tabl'"
                " (choose from 'table', 'oracle', 'asymptotics', 'sample')",
            ),
            (
                ["table", "--max-n", "1", "zz"],
                "cover-census: error: unrecognized arguments: zz",
            ),
            # 36 characters, which repr() writes in 48.
            (
                ["table", "--max-n", "1", "--format", "a\\b" * 12],
                "cover-census table: error: argument --format: invalid choice:"
                " '" + "a\\\\b" * 12 + "' (choose from 'csv', 'json')",
            ),
        ],
        ids=["xml", "apostrophe", "at-40", "command", "unrecognized", "escaped-36"],
    )
    def test_short_invalid_choice_is_shown_whole(self, capsys, argv, last_line):
        # Up to 40 characters, argparse's own message stands byte for byte.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        out, err = capsys.readouterr()
        assert (exit_info.value.code, out) == (2, "")
        assert err.endswith(f"\n{last_line}\n")

    def test_quotes_repr_would_not_write_are_shown_as_written(self):
        # Arguments quoted by the user, with escapes repr() never writes,
        # are not read back as values: no traceback, and no warning even
        # with every warning shown.
        result = subprocess.run(
            [sys.executable, "-W", "always", "-m", "cover_census"]
            + ["table", "--max-n", "1", "'\\q'", "'\\x'", "'" + "z" * 50 + "'"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert (result.returncode, result.stdout) == (2, "")
        usage_line, error = result.stderr.splitlines()
        assert usage_line.startswith("usage: cover-census ")
        assert error == (
            "cover-census: error: unrecognized arguments: '\\q' '\\x' '"
            + "z" * 40
            + "'... (50 characters)"
        )

    @pytest.mark.parametrize("command", ["table", "asymptotics"])
    @pytest.mark.parametrize(
        "max_n, message",
        [
            (513, "full_table(513) needs Bell numbers to 1026, above the cap 1024"),
            (
                10**400,
                f"full_table({LONG_400}) needs Bell numbers to"
                f" 2{'0' * 39}... (401 characters), above the cap 1024",
            ),
        ],
        ids=["513", "10**400"],
    )
    def test_one_size_rule(self, capsys, monkeypatch, command, max_n, message):
        # full_table's refusal is the only size rule of both commands: one
        # line, nothing on stdout, no announcement and no extraction.
        def extract(n):
            raise AssertionError(f"restricted_proper_sequence({n}) was called")

        monkeypatch.setattr(sequences, "restricted_proper_sequence", extract)
        assert main([command, "--max-n", str(max_n)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"cover-census: error: {message}\n")
        assert len(err.encode()) < 500

    def test_long_out_path_is_clipped(self, tmp_path, capsys):
        # A path that cannot be written is shown as every refusal shows a
        # value: its first 40 characters and its length.
        target = str(tmp_path / "missing" / ("x" * 5000))
        assert main(["table", "--max-n", "3", "--out", target]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.encode()) < 500
        assert err.startswith(
            f"cover-census: error: cannot write {target[:40]}..."
            f" ({len(target)} characters): "
        )

    @pytest.mark.parametrize("name, call", HANDLER_CALLS.items(), ids=HANDLER_CALLS)
    def test_library_value_error_is_usage_error(self, capsys, monkeypatch, name, call):
        # A ValueError from anywhere inside a handler takes the one path.
        def refuse(*args, **kwargs):
            raise ValueError("boom")

        module, argv = call
        monkeypatch.setattr(module, name, refuse)
        assert main(argv.split()) == 2
        assert capsys.readouterr() == ("", "cover-census: error: boom\n")


# Tokens for the hostile draws: help, an abbreviation, an attached value,
# a bare "--", a negative and a non-ASCII count, an empty value, a flag, a
# stray word and a count past int()'s digit limit.
HOSTILE_TOKENS = [
    "-h", "--max", "--n=5", "--", "-5", "", "\u0663", "--slow", "x", "1" * 5000
]


def plain_values(option):
    if isinstance(option.kind, tuple):
        return list(option.kind)
    return {"count": ["0", "3", "007"], "positive": ["0", "2", "12"]}.get(
        option.kind, ["out.csv", "table"]
    )


@st.composite
def command_lines(draw):
    """Mostly plain command lines of the declared grammar, with options
    dropped, repeated or given hostile or missing values, and hostile
    tokens mixed in."""
    hostile = st.sampled_from([*HOSTILE_TOKENS, None])  # None: no value
    odds = st.integers(0, 9)  # one in ten is hostile
    name = draw(st.sampled_from([*cli._COMMANDS, "tabl", "-h", ""]))
    argv = [name]
    if name in cli._COMMANDS:
        for option in draw(st.permutations(cli._COMMANDS[name].options)):
            for _ in range(draw(st.sampled_from([0, 1, 1, 1, 1, 1, 2]))):
                argv.append(option.flag)
                if option.kind != "flag":
                    plain = st.sampled_from(plain_values(option))
                    value = draw(hostile if draw(odds) == 0 else plain)
                    if value is not None:
                        argv.append(value)
    token = draw(hostile) if draw(odds) == 0 else None
    if token is not None:
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


# Every command line a test pins the output of, by a short name.
PLAIN_COMMAND_LINES = {
    **{argv: argv for argv in OUTPUT_DIGESTS},
    **{name: argv for name, (argv, _) in REFUSALS.items()},
    **{f"every-{argv[0]}": " ".join(argv) for argv in EVERY_COMMAND},
}


class TestDirectRead:
    # main() reads a plain command line without argparse; every namespace
    # the direct read returns must be the one argparse makes, items in order.
    PARSER = usage.build_parser()

    def assert_agrees(self, argv):
        read = cli._read_argv(argv)
        if read is not None:
            try:
                parsed = self.PARSER.parse_args(argv)
            except SystemExit:  # which hypothesis would not report as a failure
                raise AssertionError(f"argparse refuses {argv}") from None
            assert list(vars(read).items()) == list(vars(parsed).items())
        return read

    @settings(max_examples=400, deadline=None)
    @given(command_lines())
    def test_agrees_with_argparse(self, argv):
        self.assert_agrees(argv)

    @pytest.mark.parametrize(
        "argv", PLAIN_COMMAND_LINES.values(), ids=PLAIN_COMMAND_LINES
    )
    def test_reads_every_pinned_command_line(self, argv):
        assert self.assert_agrees(argv.split()) is not None

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["--help"],
            ["oracle", "--n", "3", "-h"],
            ["oracle", "--n", "3", "--n", "3"],
            ["oracle", "--n", "3", "--slow", "--slow"],
            ["oracle", "--n=3"],
            ["table", "--max", "3"],
            ["table", "--max-n", "3", "--format", "CSV"],
            ["table", "--max-n", "\u0663"],
            ["table", "--max-n", "-3"],
            ["table", "--max-n", "1" * 5000],
            ["table", "--max-n", "3", "--out", "-"],
            ["table", "--max-n", "3", "--out", ""],
            ["table", "--max-n", "3", "--out"],
            ["table", "--format", "json"],
            ["sample", "--n", "0", "--stat", "p-x0", "--trials", "10", "--seed", "1"],
        ],
        ids=[
            "empty",
            "help",
            "late-help",
            "repeated",
            "repeated-flag",
            "attached",
            "abbreviated",
            "choice-case",
            "non-ascii",
            "negative",
            "past-digit-limit",
            "dash-text",
            "empty-text",
            "missing-value",
            "missing-required",
            "zero-positive",
        ],
    )
    def test_leaves_the_rest_to_argparse(self, argv):
        assert cli._read_argv(argv) is None


class TestClip:
    # errors.clip is how every refusal above shows a value; these pin its
    # boundary at 40 characters and its two fallbacks directly.
    @pytest.mark.parametrize(
        "value, quote, shown",
        [
            ("7" * 40, False, "7" * 40),
            ("7" * 41, False, f"{'7' * 40}... (41 characters)"),
            ("x", True, "'x'"),
            ("x" * 41, True, f"'{'x' * 40}'... (41 characters)"),
            (-(10**40), False, f"-1{'0' * 38}... (42 characters)"),
            (10**5000, False, "an integer of 16610 bits"),
        ],
        ids=[
            "at-40-whole",
            "past-40-clipped",
            "quoted-short",
            "quoted-clipped",
            "negative-int",
            "beyond-str-digit-limit",
        ],
    )
    def test_clip(self, value, quote, shown):
        assert errors.clip(value, quote=quote) == shown


class TestOutputDigests:
    @pytest.mark.parametrize("argv", OUTPUT_DIGESTS)
    def test_output_bytes(self, capsys, argv):
        assert main(argv.split()) == 0
        out, err = capsys.readouterr()
        assert (hashlib.sha256(out.encode()).hexdigest(), err) == OUTPUT_DIGESTS[argv]

    @pytest.mark.parametrize("command", HELP_TEXT, ids=lambda c: c or "root")
    def test_help_bytes(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            main([*command.split(), "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr() == (HELP_TEXT[command], "")

    def test_table_128_matches_benchmark(self, capsys):
        expected = json.loads(BENCH_EXPECTED.read_text())["table-128"]
        assert main(["table", "--max-n", "128"]) == 0
        out, err = capsys.readouterr()
        assert hashlib.sha256(out.encode()).hexdigest() == expected["stdout_sha256"]
        assert err == ""

    @pytest.mark.slow
    def test_table_256_digest(self, capsys):
        # Rows 129..256 are pinned nowhere else; this takes about 25 s.
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
        for env in buffering_envs():
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

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.skipif(os.name != "posix", reason="closes a descriptor before exec")
    @pytest.mark.parametrize(
        "argv", [("--help",), ("sample", "-h")], ids=["root", "sample"]
    )
    def test_help_to_unwritable_stdout_is_usage_error(self, argv):
        # argparse drops a failed write of its help and exits 0, and a
        # buffered stdout then fails at the final flush with exit code 120.
        command = [sys.executable, "-m", "cover_census", *argv]
        for env in buffering_envs():
            with open("/dev/full", "w") as full:
                filled = subprocess.run(
                    command, stdout=full, stderr=subprocess.PIPE, text=True, env=env
                )
            closed = subprocess.run(
                command,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                preexec_fn=lambda: os.close(1),
            )
            for result, reason in (
                (filled, "No space left on device"),
                (closed, "Bad file descriptor"),
            ):
                assert (result.returncode, result.stderr) == (
                    2,
                    f"cover-census: error: cannot write output: {reason}\n",
                )

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.skipif(os.name != "posix", reason="closes a descriptor before exec")
    @pytest.mark.parametrize(
        "argv",
        [("tabl",), ("table",), ("table", "--max-n", "1", "--format", "xml")],
        ids=["command", "missing", "choice"],
    )
    def test_usage_error_to_unwritable_stderr_exits_2(self, argv):
        # argparse drops a failed write of its message, and a buffered
        # stderr then fails at the final flush with exit code 120.
        command = [sys.executable, "-m", "cover_census", *argv]
        for env in buffering_envs():
            with open("/dev/full", "w") as full:
                filled = subprocess.run(
                    command, stdout=subprocess.PIPE, stderr=full, text=True, env=env
                )
            closed = subprocess.run(
                command,
                stdout=subprocess.PIPE,
                text=True,
                env=env,
                preexec_fn=lambda: os.close(2),
            )
            for result in (filled, closed):
                assert (result.returncode, result.stdout) == (2, "")

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
        for env in buffering_envs():
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
        for env in buffering_envs():
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
