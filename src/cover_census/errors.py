"""Exceptions shared across the package, and the clipping of the values
that refusals echo."""

from __future__ import annotations

_CLIP_AT = 40


class ConsistencyError(RuntimeError):
    """An exact internal cross-check failed.

    Raised when two independent computations of the same quantity disagree,
    or when a value that must be an integer comes out fractional.  This
    always indicates a bug, never bad user input.
    """


def clip(value: object, quote: bool = False) -> str:
    """A value as a refusal shows it, quoted by repr() when asked.

    Up to 40 characters it is shown whole; a longer one shows its first 40
    characters and its length, so no argument is echoed whole.
    """
    try:
        text = str(value)
    except ValueError:  # an int beyond the interpreter's str() digit limit
        return f"an integer of {value.bit_length()} bits"
    head = text[:_CLIP_AT]
    shown = repr(head) if quote else head
    if len(text) <= _CLIP_AT:
        return shown
    return f"{shown}... ({len(text)} characters)"
