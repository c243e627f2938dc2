"""The cover-census benchmark: four CLI workloads, end-to-end and per-layer metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run repeats the workload's CLI command, each time in
a fresh interpreter, until ``--seconds`` have passed, checks every output and
reports medians of the end-to-end metrics.  With ``--trace 1`` it alternates
a traced replay of the handler's calls (``replay.py``) with the same CLI
command, and reports the per-layer metrics.  One client runs one process at
a time (a closed loop, no threads).

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
for why each workload exists and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
EXPECTED = json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))

# Variables that change what the program does; no run may inherit them.
STRIPPED_ENV = ("COVER_CENSUS_ORACLE_LIMIT", "COVER_CENSUS_TRACE")
# Every run ends within this, even if the program hangs or slows down badly.
RUN_LIMIT_S = 150
# Time of child.calibrate() on the 2-core host the benchmark was defined on,
# in its faster state; it converts calibrated ratios back into seconds.
CALIBRATION_REFERENCE_S = 0.006
MIN_SAMPLES = 3
Z_LIMIT = 4.0

TABLE_HEADER = ["n", "s", "t", "u", "v", "l", "bell2n"]
# Rows 0..6 of the published table (README.md, PAPER.md): n, s, t, u, v, l, Bell(2n).
PUBLISHED_ROWS = (
    (0, 1, 1, 1, 1, 1, 1),
    (1, 1, 0, 1, 0, 1, 2),
    (2, 3, 1, 2, 1, 2, 15),
    (3, 16, 8, 9, 5, 8, 203),
    (4, 139, 80, 70, 43, 66, 4140),
    (5, 1750, 1088, 794, 518, 774, 115975),
    (6, 29388, 19232, 12055, 8186, 11885, 4213597),
)

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# The per-layer metrics every workload reports.  Counters of a layer that a
# workload never calls read 0; the full per-workload split is printed above
# the JSON line and written to perfbench/out/.
PER_LAYER = {
    "combinatorics.bell_table_s": "s",
    "cli.replayed_s": "s",
    "cli.unaccounted_s": "s",
    "oracle.partitions": "count",
    "oracle.fiber_keys": "count",
    "sequences.max_int_bits": "bits",
    "sampler.draws": "count",
    "sampler.weight_bits": "bits",
}


@dataclass(frozen=True)
class Workload:
    """One CLI command; ``trials`` applies to ``sample`` only."""

    name: str
    command: str
    n: int
    trials: int = 0

    def cli_argv(self, seed: int) -> list[str]:
        if self.command == "table":
            return ["table", "--max-n", str(self.n)]
        if self.command == "oracle":
            return ["oracle", "--n", str(self.n)]
        return [
            "sample", "--n", str(self.n), "--stat", "p-x0",
            "--trials", str(self.trials), "--seed", str(seed),
        ]

    def replay_argv(self, seed: int) -> list[str]:
        params = [self.n, self.trials, seed] if self.command == "sample" else [self.n]
        return [self.command, *map(str, params)]

    @property
    def expected(self) -> dict:
        return EXPECTED[self.name]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("table-128", "table", 128),
        Workload("oracle-5", "oracle", 5),
        Workload("sample-6", "sample", 6, trials=25_000),
        Workload("sample-100", "sample", 100, trials=1_000),
    )
}


# ---------------------------------------------------------------- checks


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_table(workload: Workload, stdout: str) -> list[str]:
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != TABLE_HEADER or len(rows) != workload.n + 2:
        return ["table header or row count"]
    try:
        values = [tuple(int(x) for x in row) for row in rows[1:]]
    except ValueError:
        return ["table cell is not an integer"]
    problems = []
    published = list(PUBLISHED_ROWS[: workload.n + 1])
    if values[: len(published)] != published:
        problems.append("rows 0..6 differ from the published table")
    if not all(v <= u and t <= s and l <= u for _, s, t, u, v, l, _ in values):
        problems.append("count ordering v<=u, t<=s, l<=u")
    if _sha256(stdout) != workload.expected["stdout_sha256"]:
        problems.append("stdout digest")
    return problems


def check_oracle(workload: Workload, stdout: str) -> list[str]:
    problems = []
    if "result: PASS" not in stdout.splitlines():
        problems.append("no 'result: PASS' line")
    if _sha256(stdout) != workload.expected["stdout_sha256"]:
        problems.append("stdout digest")
    return problems


def check_sample(workload: Workload, stdout: str, seed: int) -> list[str]:
    try:
        row = json.loads(stdout)["rows"][0]
    except (ValueError, KeyError, IndexError, TypeError):
        return ["sample output is not the expected JSON"]
    problems = []
    if (row.get("trials"), row.get("seed")) != (workload.trials, seed):
        problems.append("trials or seed echoed wrongly")
    z_score = row.get("z_score")
    if not isinstance(z_score, float) or not abs(z_score) <= Z_LIMIT:
        problems.append(f"|z_score| > {Z_LIMIT}: {z_score!r}")
    if row.get("exact_fraction") != workload.expected["exact_fraction"]:
        problems.append("exact_fraction")
    return problems


def check_output(workload: Workload, seed: int, stdout: str) -> list[str]:
    if workload.command == "table":
        return check_table(workload, stdout)
    if workload.command == "oracle":
        return check_oracle(workload, stdout)
    return check_sample(workload, stdout, seed)


# ---------------------------------------------------------------- children


def run_child(args: list[str], deadline: float) -> subprocess.CompletedProcess | None:
    """Run a fresh interpreter on ``args``; None if it was killed at ``deadline``."""
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    try:
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        return None


@dataclass
class CliRun:
    problems: list[str]
    cost: dict | None
    stdout: str


def run_cli(
    workload: Workload, seed: int, first_stdout: str | None, deadline: float
) -> CliRun:
    """One CLI invocation, timed in the child and checked here."""
    proc = run_child(
        [str(BENCH_DIR / "child.py"), str(SRC), *workload.cli_argv(seed)], deadline
    )
    if proc is None:
        return CliRun(["timeout"], None, "")
    *stderr_lines, cost_line = proc.stderr.splitlines() or [""]
    try:
        cost = json.loads(cost_line)
    except ValueError:
        cost = None
    problems = [] if cost else ["no cost line from the child"]
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}")
    if stderr_lines:
        problems.append("unexpected stderr: " + " | ".join(stderr_lines[-3:]))
    problems += check_output(workload, seed, proc.stdout)
    if first_stdout is not None and proc.stdout != first_stdout:
        problems.append("stdout differs between runs of the same command")
    return CliRun(problems, cost, proc.stdout)


def run_replay(workload: Workload, seed: int, deadline: float) -> dict | None:
    """One traced replay in a fresh interpreter; None if it failed."""
    proc = run_child(
        [str(BENCH_DIR / "replay.py"), str(SRC), *workload.replay_argv(seed)], deadline
    )
    if proc is None or proc.returncode != 0:
        return None
    try:
        return json.loads(proc.stdout)
    except ValueError:
        return None


# ---------------------------------------------------------------- statistics


def summary(values: list[float]) -> dict:
    """Median, quartiles and the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    count = len(ordered)
    median = statistics.median(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if count > 1 else (median,) * 3
    out = {"median": median, "q1": q1, "q3": q3, "n": count}
    for percentile in (99, 95, 90, 75):
        if count * (100 - percentile) / 100 >= 10:
            out[f"p{percentile}"] = statistics.quantiles(ordered, n=100)[percentile - 1]
            break
    return out


def format_summary(name: str, unit: str, stats: dict) -> str:
    tail = "".join(
        f" {key} {value:.6g}" for key, value in stats.items() if key.startswith("p")
    )
    return (
        f"  {name:<30} median {stats['median']:.6g} {unit:<5}"
        f" q1 {stats['q1']:.6g} q3 {stats['q3']:.6g}{tail} n={stats['n']}"
    )


def reference_seconds(cost: dict, name: str) -> float:
    """A child's time ``name`` at the calibration loop's reference speed."""
    return cost[name] / cost["calibration_s"] * CALIBRATION_REFERENCE_S


def layer_values(replay: dict) -> dict[str, float]:
    """Per-layer values of one replay: span totals plus derived self times.

    Times are in reference seconds (microseconds for ``_us``), like the
    end-to-end metrics.
    """
    values: dict[str, float] = {}
    replayed = 0.0
    for span in replay["spans"]:
        duration = span["end"] - span["start"]
        key = span["name"] + "_s"
        values[key] = values.get(key, 0.0) + duration
        if span["parent"] is None:
            replayed += duration
    values["cli.replayed_s"] = replayed
    if "sequences.full_table_s" in values:
        values["sequences.checks_s"] = values["sequences.full_table_s"] - sum(
            values[key]
            for key in (
                "sequences.restricted_proper_s",
                "sequences.transforms_s",
                "sequences.line_transform_s",
            )
        )
    measured = dict(replay["values"])
    if "sampler.draw_s" in measured:
        draws = replay["counters"]["sampler.draws"]
        draw_s = measured.pop("sampler.draw_s")
        values["sampler.draw_us"] = draw_s / draws * 1e6
        values["sampler.statistic_us"] = (
            (values["sampler.estimate_s"] - draw_s) / draws * 1e6
        )
    scale = CALIBRATION_REFERENCE_S / replay["calibration_s"]
    values = {
        name: value * scale if unit_of(name) in ("s", "us") else value
        for name, value in values.items()
    }
    values.update(measured)
    return values


def unit_of(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_s", "s"), ("_mb", "MB"), ("_bits", "bits")):
        if name.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------- the run


def environment() -> list[str]:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return [
        f"commit: {git_commit()}",
        f"src_sha256: {digest.hexdigest()[:16]}",
        f"python: {platform.python_version()} ({sys.executable})",
        f"nproc: {os.cpu_count()} (usable {len(os.sched_getaffinity(0))})",
    ]


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "none (not a git checkout)"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def loadavg() -> str:
    return " ".join(f"{x:.2f}" for x in os.getloadavg())


def keep_going(done: int, start: float, seconds: float, deadline: float) -> bool:
    """Run until ``seconds`` pass and MIN_SAMPLES are done, never past ``deadline``."""
    now = time.monotonic()
    return now < deadline and (done < MIN_SAMPLES or now - start < seconds)


def measure(workload: Workload, seed: int, seconds: float) -> tuple[list[str], dict]:
    """Repeat the CLI command until ``seconds`` pass; end-to-end metrics."""
    runs: list[CliRun] = []
    first_stdout = None
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    while keep_going(len(runs), start, seconds, deadline):
        run = run_cli(workload, seed, first_stdout, deadline)
        if first_stdout is None and not run.problems:
            first_stdout = run.stdout
        runs.append(run)
    failed = [run for run in runs if run.problems]
    costs = [run.cost for run in runs if run.cost]
    if not costs:
        raise RuntimeError("no CLI run reported its cost: " + "; ".join(runs[0].problems))
    stats = {
        "wall_s": summary([reference_seconds(c, "wall_s") for c in costs]),
        "cpu_s": summary([reference_seconds(c, "cpu_s") for c in costs]),
        "setup_s": summary([reference_seconds(c, "import_s") for c in costs]),
        "peak_rss_mb": summary([c["peak_rss_mb"] for c in costs]),
    }
    lines = ["  times in reference seconds (see README.md); raw seconds after them"]
    lines += [format_summary(name, END_TO_END[name], stats[name]) for name in END_TO_END]
    if workload.command == "oracle":
        partitions = workload.expected["counters"]["oracle.partitions"]
        rate = summary([partitions / reference_seconds(c, "wall_s") for c in costs])
        lines.append(format_summary("partitions_per_s", "1/s", rate))
    if workload.command == "sample":
        rate = summary([workload.trials / reference_seconds(c, "wall_s") for c in costs])
        lines.append(format_summary("draws_per_s", "1/s", rate))
    for name in ("wall_s", "cpu_s", "import_s", "calibration_s"):
        lines.append(format_summary("raw " + name, "s", summary([c[name] for c in costs])))
    lines.append(f"  failed_frac                    {len(failed)}/{len(runs)}")
    lines += [f"  failed run: {'; '.join(run.problems)}" for run in failed[:5]]
    metrics = {name: stats[name]["median"] for name in END_TO_END}
    return lines, {"attempted": len(runs), "failed": len(failed), "metrics": metrics}


def trace(workload: Workload, seed: int, seconds: float) -> tuple[list[str], dict]:
    """Alternate traced replays with CLI runs until ``seconds`` pass."""
    replays: list[dict] = []
    walls: list[float] = []
    attempted = failed = 0
    first_stdout = None
    expected_counters = workload.expected["counters"]
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    while keep_going(attempted // 2, start, seconds, deadline):
        replay = run_replay(workload, seed, deadline)
        attempted += 1
        if replay is None or replay["counters"] != expected_counters:
            failed += 1
        if replay is not None:
            replays.append(replay)
        run = run_cli(workload, seed, first_stdout, deadline)
        attempted += 1
        if run.problems:
            failed += 1
        elif first_stdout is None:
            first_stdout = run.stdout
        if run.cost:
            walls.append(reference_seconds(run.cost, "wall_s"))
    if not replays or not walls:
        raise RuntimeError("no traced replay or CLI run succeeded")
    per_replay = [layer_values(replay) for replay in replays]
    stats = {
        name: summary([values[name] for values in per_replay])
        for name in per_replay[0]
    }
    stats["cli.wall_s"] = summary(walls)
    unaccounted = stats["cli.wall_s"]["median"] - stats["cli.replayed_s"]["median"]
    lines = [format_summary(name, unit_of(name), stats[name]) for name in sorted(stats)]
    lines.append(
        f"  {'cli.unaccounted_s':<30} {unaccounted:.6g} s"
        " (median cli.wall_s - median cli.replayed_s)"
    )
    counters = replays[0]["counters"]
    for name in sorted(counters):
        seen = {replay["counters"].get(name) for replay in replays}
        note = "exact in every replay" if len(seen) == 1 else f"varies: {sorted(seen, key=str)}"
        lines.append(
            f"  {name:<30} {counters[name]} ({note}; expected {expected_counters.get(name)})"
        )
    lines.append(f"  failed_frac                    {failed}/{attempted}")

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    out.write_text(json.dumps({"workload": workload.name, "seed": seed, "replays": replays}))
    lines.append(f"  spans written to {out.relative_to(ROOT)}")

    metrics = {
        "combinatorics.bell_table_s": stats["combinatorics.bell_table_s"]["median"],
        "cli.replayed_s": stats["cli.replayed_s"]["median"],
        "cli.unaccounted_s": unaccounted,
    }
    for name in PER_LAYER:
        if name not in metrics:
            metrics[name] = counters.get(name, 0)
    return lines, {"attempted": attempted, "failed": failed, "metrics": metrics}


def run(workload: Workload, seed: int, seconds: float, traced: bool) -> tuple[list[str], dict]:
    """One benchmark run: report lines and the result object."""
    argv = " ".join(workload.cli_argv(seed))
    lines = [
        f"perfbench workload={workload.name} seed={seed} seconds={seconds} trace={int(traced)}",
        f"command: python -m cover_census {argv} (fresh interpreter per run)",
        *environment(),
        f"loadavg before: {loadavg()}",
    ]
    body, result = (trace if traced else measure)(workload, seed, seconds)
    lines += body
    lines.append(f"loadavg after: {loadavg()}")
    units = PER_LAYER if traced else END_TO_END
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in result["metrics"].items()
    }
    return lines, {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be in [0, 2**64)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "cover_census" / "cli.py").is_file():
        print(f"run.py: no cover_census package under {SRC}", file=sys.stderr)
        return 2
    try:
        lines, result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
