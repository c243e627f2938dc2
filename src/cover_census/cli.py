"""Command-line front end.

Four subcommands: ``table`` prints the exact sequence table, ``oracle``
cross-checks it against exhaustive enumeration, ``asymptotics`` emits the
convergence report, and ``sample`` runs Monte Carlo estimates against
exact counterparts.

Exit codes are stable across commands: 0 on success, 1 when a
verification or consistency check fails, 2 on argument or usage errors
and when the output cannot be written.  Handlers raise and ``main()``
maps: a refusal is a ``ValueError``, a failed check a
``ConsistencyError`` and an unwritable stream an ``OSError``.  Only
``table --out`` catches its own error, to name the file.

The grammar is declared once, in ``_COMMANDS``.  ``main()`` reads a plain
command line of it directly; help and every other command line go to the
argparse parser that ``usage.build_parser()`` makes of the same
declaration, whose usage lines and messages stand.

Every run compiles what it loads, so at the top this module imports only
what every command uses, and what the package root loads for its exports
anyway: ``oracle`` and ``sequences``, with ``series`` and
``combinatorics``.  Every other module loads inside the code that calls
it: ``sampler`` in ``sample``, ``asymptotics`` in ``asymptotics``, ``csv``
in the CSV writer and ``usage`` for help and refusals.
"""

from __future__ import annotations

import errno
import io
import json
import math
import os
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    NamedTuple,
    Sequence,
)

from .combinatorics import (
    DEFAULT_BELL_CAP,
    collision_probability,
    image_collision_bound,
    merged_twin_moment,
    merged_twin_moment_variance,
    separation_probability,
)
from .errors import ConsistencyError, clip
from .oracle import DEFAULT_ORACLE_LIMIT, oracle_counts
from .sequences import collision_histogram_route, full_table

if TYPE_CHECKING:
    from .sampler import Estimate, SamplerConfig

TABLE_FIELDS = ("n", "s", "t", "u", "v", "l", "bell2n")

# full_table(256) takes 22-26 s in a fresh process on a 2-core Xeon host
# (six runs), 98% of it in the loop over block counts of
# restricted_proper_sequence, and the cost grows faster than N^4, so larger
# exact tables are announced on stderr before they start.
_ANNOUNCE_ABOVE_N = 256

# A full draw costs 0.38-0.48 us per element of [2n] at n = 100 and
# 0.64-1.09 us at n = 512 on a 2-core host (0.34-0.43 us at n = 6), so a
# sample run drawing more elements than this at large n takes a minute or
# more.  A p-x0 draw stops at its first merged twin pair and costs about
# half that at n >= 100, so the threshold is conservative for it.
_ANNOUNCE_ABOVE_ELEMENTS = 10**8


class _ClosedStream(io.TextIOBase):
    """Replaces a dead stream: None (print() reads it as stdout) or failed."""

    def write(self, text: str) -> int:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))


def _last_word(line: str, code: int) -> int:
    """Print to stderr and return the exit code.  A stderr that fails keeps
    the bytes, so it is swapped out, or the final flush would exit 120."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        sys.stderr = _ClosedStream()
    return code


def _usage_error(message: str) -> int:
    return _last_word(f"cover-census: error: {message}", 2)


def _csv(header: Sequence[str], rows: Iterable, comment: str | None = None) -> str:
    import csv  # only table and asymptotics write CSV, and it takes ~0.6 ms to load

    buffer = io.StringIO()
    if comment is not None:
        buffer.write(f"# {comment}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _json(args: SimpleNamespace, rows: list[dict], **extra) -> str:
    """The envelope every JSON output shares: the command, its options as
    parsed (in declaration order, without --out), any extra fields, rows."""
    params = {
        name: value
        for name, value in vars(args).items()
        if name not in ("command", "handler", "out")
    }
    payload = {"command": args.command, "params": params, **extra, "rows": rows}
    return json.dumps(payload, indent=2) + "\n"


def _announce_table(max_n: int) -> None:
    # Sizes above the Bell cap are not announced: full_table refuses them.
    if _ANNOUNCE_ABOVE_N < max_n <= DEFAULT_BELL_CAP // 2:
        print(
            f"cover-census: building the exact table to n={max_n}; above"
            f" n={_ANNOUNCE_ABOVE_N} this takes minutes",
            file=sys.stderr,
        )


def _cmd_table(args: SimpleNamespace) -> int:
    _announce_table(args.max_n)
    table = full_table(args.max_n)
    if args.format == "csv":
        text = _csv(TABLE_FIELDS, table.rows)
    else:
        # Counts go out as decimal strings; they soon outgrow a double.
        rows = [(n, *map(str, counts)) for n, *counts in table.rows]
        text = _json(args, [dict(zip(TABLE_FIELDS, row)) for row in rows])
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        return _usage_error(f"cannot write {clip(args.out)}: {exc.strerror or exc}")
    return 0


def _cmd_asymptotics(args: SimpleNamespace) -> int:
    # Only this command reads the report, so the others never compile it.
    from .asymptotics import REPORT_NOTE, ReportRow, asymptotic_report, ratio_trends

    _announce_table(args.max_n)
    rows = asymptotic_report(args.max_n)
    if args.format == "csv":
        text = _csv(ReportRow._fields, rows, REPORT_NOTE)
    else:
        text = _json(args, [row._asdict() for row in rows], note=REPORT_NOTE)
    sys.stdout.write(text)
    for check in ratio_trends(rows):
        status = "PASS" if check.improved else "WARN"
        print(
            f"trend {check.column}: |ratio-1| {check.first_deviation:.4f} at"
            f" n={check.first_n} -> {check.last_deviation:.4f} at"
            f" n={check.last_n}: {status}",
            file=sys.stderr,
        )
    return 0


# The first two labels are implied by the fiber-size check, which forces
# every fiber to 2^(n - d); they keep their wording while the oracle output
# is pinned byte for byte.
_ORACLE_CHECKS = (
    "preimage decomposition (s * 2^n over duplicates)",
    "clean preimage count (t * 2^n)",
    "fiber sizes 2^(n - duplicates)",
    "merged-twin factorial moments",
    "alternating-series separation count",
    "collision probability within bound",
    "sequence table agreement",
)


def _cmd_oracle(args: SimpleNamespace) -> int:
    """Print the census once every identity has held; a failure raises."""
    allowed = DEFAULT_ORACLE_LIMIT + 1 if args.slow else DEFAULT_ORACLE_LIMIT
    if args.n > allowed:
        flag_hint = "" if args.slow else " (pass --slow for one size more)"
        raise ValueError(
            f"--n {clip(args.n)} exceeds the oracle limit {allowed}{flag_hint}"
        )
    n = args.n
    census = oracle_counts(n, limit=allowed)
    table = full_table(n)
    row = table.row(n)
    counts = (census.s, census.t, census.u, census.v, census.line_classes)
    if counts != (row.s, row.t, row.u, row.v, row.l):
        raise ConsistencyError(
            f"sequence table agreement failed at n={n}: the oracle gives"
            f" s t u v l = {counts} but the table gives {row[1:6]}"
        )
    formula = collision_histogram_route([r.t for r in table.rows])
    for d, (scanned, expected) in enumerate(zip(census.collision_histogram, formula)):
        if scanned != expected:
            raise ConsistencyError(
                f"collision histogram failed at n={n}: {scanned} separated"
                f" partitions have d={d} repeated images but the formula from t"
                f" gives {expected}"
            )
    probability, bound = collision_probability(n), image_collision_bound(n)
    if probability > bound:
        raise ConsistencyError(
            f"collision probability bound failed at n={n}: {probability} > {bound}"
        )
    lines = [
        f"oracle census at n={n} (limit {allowed})",
        f"counts: s={census.s} t={census.t} u={census.u} v={census.v}"
        f" l={census.line_classes} (distinct line graphs: {census.line_graphs})",
        f"events: separated={census.separated}"
        f" image-distinct={census.image_distinct}"
        f" both={census.separated_image_distinct}",
        "collision histogram (separated partitions by duplicate images): "
        + " ".join(str(c) for c in census.collision_histogram),
        f"bell(2n)={census.bell_2n}",
        *(f"check {label}: PASS" for label in _ORACLE_CHECKS),
        "result: PASS",
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _statistic(
    args: SimpleNamespace, config: SamplerConfig
) -> tuple[Estimate, Fraction, Fraction | float]:
    """The sampled estimate, the exact value and the variance of one draw
    under it.  Every exact value is a Bell-number formula: the moment and
    its variance, the separation count, and for p-collision one minus the
    image-distinct count over B_{2n}."""
    from .sampler import (
        estimate_collision_probability,
        estimate_separation_probability,
        estimate_twin_moment,
    )

    n = args.n
    if args.stat == "moment":
        return (
            estimate_twin_moment(n, args.r, config),
            merged_twin_moment(n, args.r),
            merged_twin_moment_variance(n, args.r),
        )
    if args.stat == "p-x0":
        result = estimate_separation_probability(n, config)
        exact = separation_probability(n)
    else:
        result = estimate_collision_probability(n, config)
        exact = collision_probability(n)
    p0 = float(exact)
    return result, exact, p0 * (1.0 - p0)


def _cmd_sample(args: SimpleNamespace) -> int:
    if args.stat == "moment":
        if args.r is None:
            raise ValueError("--stat moment requires --r")
        if args.r > args.n:
            raise ValueError(
                f"--r must be <= --n, got r={clip(args.r)}, n={clip(args.n)}"
            )
    elif args.r is not None:
        raise ValueError(f"--r applies only to --stat moment, not {args.stat}")
    if 2 * args.n > DEFAULT_BELL_CAP:
        raise ValueError(
            f"--n {clip(args.n)} needs partitions of [{clip(2 * args.n)}], "
            f"above the Bell cap {DEFAULT_BELL_CAP}"
        )
    # Only this command draws, so the others never compile the sampler.
    from .sampler import SamplerConfig

    config = SamplerConfig(trials=args.trials, seed=args.seed)
    elements = args.trials * 2 * args.n
    if elements > _ANNOUNCE_ABOVE_ELEMENTS:
        print(
            f"cover-census: drawing {args.trials} partitions of [{2 * args.n}]"
            f" ({elements} elements); above {_ANNOUNCE_ABOVE_ELEMENTS}"
            " elements this takes minutes",
            file=sys.stderr,
        )
    result, exact, variance = _statistic(args, config)
    # Score test: the denominator is the exact spread under the null,
    # p0 (1 - p0) for a probability p0 and Var[(X)_r] for a moment, so
    # a sample whose own spread is zero cannot make it vanish.
    difference = result.estimate - float(exact)
    try:
        spread = math.sqrt(float(variance) / args.trials)
    except OverflowError:
        # A moment's variance can outgrow a float; the squared score cannot.
        squared = Fraction(difference) ** 2 * args.trials / variance
        z_score = math.copysign(math.sqrt(squared), difference)
    else:
        # The variance is zero only for r = 0, where every draw is exactly 1.
        z_score = difference / spread if spread else 0.0
    record = {
        "n": args.n,
        "stat": args.stat,
        "r": args.r,
        "trials": args.trials,
        "seed": args.seed,
        "estimate": result.estimate,
        "std_error": result.std_error,
        "exact": float(exact),
        "exact_fraction": str(exact),
        "z_score": z_score,
    }
    sys.stdout.write(_json(args, [record]))
    return 1 if abs(z_score) > 4 else 0


class _Option(NamedTuple):
    """One option of a command.  Its kind is "count" (an integer >= 0),
    "positive" (>= 1), "text", "flag" (present or not) or the choices."""

    flag: str
    kind: str | tuple[str, ...]
    required: bool = False
    default: object = None
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


class _Command(NamedTuple):
    help: str
    handler: Callable[[SimpleNamespace], int]
    options: tuple[_Option, ...]


_FORMATS = ("csv", "json")

# The grammar, declared once: usage.build_parser() gives it to argparse, and
# _read_argv() reads a plain command line of it directly.
_COMMANDS = {
    "table": _Command(
        "print the exact sequence table for n = 0..max_n",
        _cmd_table,
        (
            _Option("--max-n", "count", required=True),
            _Option("--format", _FORMATS, default="csv"),
            _Option("--out", "text", help="write to a file instead of stdout"),
        ),
    ),
    "oracle": _Command(
        "verify the table against exhaustive enumeration at one n",
        _cmd_oracle,
        (
            _Option("--n", "count", required=True),
            _Option(
                "--slow",
                "flag",
                default=False,
                help="permit one size above the oracle limit",
            ),
        ),
    ),
    "asymptotics": _Command(
        "emit the exact-versus-estimate convergence report",
        _cmd_asymptotics,
        (
            _Option("--max-n", "count", required=True),
            _Option("--format", _FORMATS, default="csv"),
        ),
    ),
    "sample": _Command(
        "Monte Carlo estimate of a partition statistic",
        _cmd_sample,
        (
            _Option("--n", "positive", required=True),
            _Option("--stat", ("p-x0", "moment", "p-collision"), required=True),
            _Option("--r", "count"),
            _Option("--trials", "positive", required=True),
            _Option("--seed", "count", required=True),
        ),
    ),
}


def _read_value(kind: str | tuple[str, ...], text: str) -> object:
    """An option's value as argparse reads it, or None where argparse
    might read it otherwise or refuse it."""
    if isinstance(kind, tuple):
        return text if text in kind else None
    if kind == "text":
        return text if text and text[0] != "-" else None
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        value = int(text)
    except ValueError:  # past int()'s digit limit: argparse names the length
        return None
    return value if value or kind == "count" else None


def _read_argv(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse makes of a plain command line, read directly:
    the command first, then each option at most once, spelled in full, with
    its value as the next token; every required option present.  Its items
    come in argparse's order: command, the options as declared, handler.
    Any other command line gives None, and argparse reads it."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    unread = {option.flag: option for option in command.options}
    values = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        option = unread.pop(flag, None)
        if option is None:
            return None
        if option.kind == "flag":
            values[option.dest] = True
            continue
        value = _read_value(option.kind, next(tokens, ""))
        if value is None:
            return None
        values[option.dest] = value
    if any(option.required for option in unread.values()):
        return None
    return SimpleNamespace(
        command=argv[0],
        **{o.dest: values.get(o.dest, o.default) for o in command.options},
        handler=command.handler,
    )


def main(argv: Sequence[str] | None = None) -> int:
    sys.stdout = sys.stdout or _ClosedStream()
    sys.stderr = sys.stderr or _ClosedStream()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read_argv(argv)
        if args is None:
            # Help, a refusal, or a line the direct read leaves to argparse.
            # argparse exits on the first two; a failed write raises OSError.
            from .usage import build_parser

            args = build_parser().parse_args(argv, SimpleNamespace())
        code = args.handler(args)
        sys.stdout.flush()
    except ValueError as exc:
        return _usage_error(str(exc))
    except ConsistencyError as exc:
        return _last_word(f"FAIL: {exc}", 1)
    except OSError as exc:
        # If only stderr failed, stdout still holds its output: flush it.  If
        # stdout failed, point it at the null device: a failed flush keeps
        # the bytes it could not write, and the interpreter's final flush
        # would fail on them again with an "Exception ignored" message.
        try:
            sys.stdout.flush()
        except OSError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        return _usage_error(f"cannot write output: {exc.strerror or exc}")
    return code


if __name__ == "__main__":
    sys.exit(main())
