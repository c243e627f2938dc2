"""The argparse parser of the CLI grammar, for help and refusals.

``cli.main()`` reads a plain command line of ``cli._COMMANDS`` itself and
imports this module only for help and for every other command line, so a
plain run never compiles it, nor loads argparse with the gettext and locale
of its first message (about 1.5 ms, and building the parser about 1 ms
more).  Usage lines and messages stand as argparse writes them, every value
shown through ``errors.clip``.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import NoReturn

from .cli import _COMMANDS
from .errors import clip


def _nonnegative(text: str) -> int:
    """Read a count for argparse.  A refusal shows the text stripped, as
    int() read it, so the parser's rule for runs without a space bounds it."""
    try:
        value = int(text)
    except ValueError as exc:
        # int() refuses a well-formed literal only above its digit limit.
        if re.fullmatch(r"\s*[+-]?\d+(_\d+)*\s*", text):
            digits = sum(c.isdecimal() for c in text)
            raise argparse.ArgumentTypeError(f"too large: {digits} digits") from exc
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {text.strip()}")
    return value


def _positive(text: str) -> int:
    value = _nonnegative(text)
    if value == 0:
        raise argparse.ArgumentTypeError(f"must be >= 1: {text.strip()}")
    return value


# A value quoted as repr() writes it, or any other run without a space;
# re.sub compiles it on first use.
_VALUE = r"""(['"])((?:\\.|(?!\1)[^\\])*)\1|\S+"""


def _clip_value(match: re.Match[str]) -> str:
    if match[2] is None:  # an unquoted run, such as an unrecognized argument
        return clip(match[0])
    import ast  # only a message with a quoted value reads it: ~1 ms to load
    import contextlib
    import warnings
    text = match[2]  # kept as written if the user, not repr(), quoted it
    with warnings.catch_warnings(), contextlib.suppress(SyntaxError):
        warnings.simplefilter("error")  # so an escape repr() never writes fails
        text = ast.literal_eval(match[0])
    # A value that clip() shows whole keeps its quotes as repr() wrote them.
    return match[0] if clip(text) == text else clip(text, quote=True)


class _Parser(argparse.ArgumentParser):
    """Shows each value of its messages through clip(): one quoted by
    repr(), or any other run without a space.  The subparsers that
    add_subparsers makes share the class."""

    def error(self, message: str) -> NoReturn:
        super().error(re.sub(_VALUE, _clip_value, message))

    def _print_message(self, message: str, file=None) -> None:
        # argparse drops an OSError here, and a buffered stream would
        # fail again at the interpreter's final flush: a failed write
        # raises instead, for main() to map as a handler's.
        if message:
            file = file or sys.stderr
            file.write(message)
            file.flush()


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of _COMMANDS, for help and for every command line
    cli._read_argv leaves to it: its usage lines and messages stand as written."""
    kinds = {
        "count": {"type": _nonnegative},
        "positive": {"type": _positive},
        "text": {},
        "flag": {"action": "store_true"},
    }
    parser = _Parser(
        prog="cover-census",
        description="Exact and asymptotic enumeration of 2-covers and line graphs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        subparser = commands.add_parser(name, help=command.help)
        for option in command.options:
            if isinstance(option.kind, tuple):
                spec = {"choices": option.kind}
            else:
                spec = kinds[option.kind]
            subparser.add_argument(
                option.flag,
                required=option.required,
                default=option.default,
                help=option.help,
                **spec,
            )
        subparser.set_defaults(handler=command.handler)
    return parser
