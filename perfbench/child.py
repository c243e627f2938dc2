"""Run one cover-census CLI command in this fresh interpreter and report its cost.

Usage: python3 child.py SRC_DIR CLI_ARG...

The command runs through ``cli.main``, as ``python -m cover_census`` does,
with the package imported from SRC_DIR.  Its stdout and stderr are left
untouched.  After it returns, one JSON line goes to stderr as the last line:
the import time, the time spent in ``cli.main``, their CPU time, the peak
resident set size of this process, and the calibration time (see
``calibrate``).  The exit code is the command's.
"""

import json
import random
import resource
import sys
import time
from fractions import Fraction


def calibrate() -> float:
    """Seconds for a fixed piece of pure-Python work, the best of three.

    On a shared host the CPU speed can change by 2x for seconds at a time.  The
    benchmark divides the command's times by this loop's time, measured in
    the same process just before and just after the command, to cancel
    that.  The loop mixes the operations the program spends its time on:
    interpreter loops, dict and set work, big-integer arithmetic,
    Fractions and ``random`` draws.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        table = {}
        for i in range(30_000):
            total += i * i % 7
            table[i & 1023] = total
        big = 3**3000
        for k in range(300):
            total += (big * (k + 1)) >> 100
        harmonic = Fraction(0)
        for k in range(1, 200):
            harmonic += Fraction(1, k)
        rng = random.Random(1)
        pool = list(range(12))
        for _ in range(400):
            picked = set(rng.sample(pool[1:], 3))
            pool = [e for e in pool if e not in picked]
            if len(pool) < 4:
                pool = list(range(12))
            total += rng.randrange(big)
        best = min(best, time.perf_counter() - start)
    return best


def cpu_seconds() -> float:
    """User plus system CPU of this process and any processes it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    waited = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + waited.ru_utime + waited.ru_stime


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    cpu_start, start = cpu_seconds(), time.perf_counter()
    from cover_census import cli

    imported, cpu_imported = time.perf_counter(), cpu_seconds()
    calibration_before = calibrate()
    cpu_main, main_start = cpu_seconds(), time.perf_counter()
    code = cli.main(sys.argv[2:])
    sys.stdout.flush()
    done, cpu_done = time.perf_counter(), cpu_seconds()
    calibration_after = calibrate()
    cost = {
        "import_s": imported - start,
        "wall_s": done - main_start,
        "cpu_s": (cpu_imported - cpu_start) + (cpu_done - cpu_main),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calibration_s": (calibration_before + calibration_after) / 2,
    }
    print(json.dumps(cost), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
