"""The benchmark's replay still runs against this package.

``perfbench/replay.py`` calls the package's public functions by name, at
the benchmark's toy sizes here, and reports exact counters.  A renamed or
deleted name it needs, or a changed counter, fails this test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cover_census

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "workload, argv",
    [
        ("table-8", ["table", "8"]),
        ("oracle-3", ["oracle", "3"]),
        ("sample-2", ["sample", "2", "50", "7"]),
    ],
)
def test_replay_reports_expected_counters(workload, argv):
    src = Path(cover_census.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if not k.startswith("COVER_CENSUS_")}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    result = subprocess.run(
        [sys.executable, str(PERFBENCH / "replay.py"), str(src), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["counters"] == EXPECTED[workload]["counters"]
