"""Exception hierarchy shared by all tourney modules.

Every error raised on a bad input or a violated mathematical claim derives
from TourneyError so callers can catch one base class.  The CLI prints
only the message and picks its exit code by base class:

- exit 1: VerificationFailedError (a checked claim does not hold) and
  InternalParityError (an exact division left a remainder);
- exit 2: InvalidInput, with its subclasses ParseError and ArcError, and
  TimeBudgetExceededError.

The message says what was wrong; the class says only which of these
outcomes it is.  InvalidInput also derives from ValueError.

The two helpers at the end build messages for every module: _echo
bounds a repeated outside value, and _int_in_range is the one type check
of an integer argument.  This module imports no other, so core and io
both import them with no cycle.
"""

from __future__ import annotations


class TourneyError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(TourneyError, ValueError):
    """A malformed argument: an order, vertex set, residue, name or file
    outside what the operation takes (CLI exit 2)."""


class ArcError(InvalidInput):
    """Rows that break the tournament axioms at one adjacency cell
    (i, j), row i and column j: a loop at (i, i), or a pair i < j with
    no arc or both arcs."""

    def __init__(self, message: str, cell: tuple[int, int]) -> None:
        super().__init__(message)
        self.cell = cell


class ParseError(InvalidInput):
    """Malformed .tour or .corpus text.

    Carries 1-based line and column of the first offending character when
    known.
    """

    def __init__(self, message: str, line: int | None = None,
                 col: int | None = None) -> None:
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + loc)
        self.reason = message
        self.line = line
        self.col = col


class InternalParityError(TourneyError):
    """A division that must be exact left a remainder: one helper,
    counting._exact_div, checks every scalar one, and the sweep's array
    check its closed 5-walk totals by 5.  This indicates a bug, never a
    property of the input (CLI exit 1)."""


class VerificationFailedError(TourneyError):
    """An exhaustively checked mathematical claim does not hold (CLI exit 1)."""


class TimeBudgetExceededError(TourneyError):
    """A budgeted run went past its wall-clock budget: the regular
    enumeration (enumerate --n) or the exhaustive 5-cycle sweep with its
    class engine and witness certificate (verify thm1) (CLI exit 2)."""


# The longest outside value that an error message repeats whole.
_ECHO = 40


def _echo(text: str) -> str:
    """text as an error message shows it: its repr up to _ECHO
    characters, past that the repr of its first _ECHO and its length."""
    if len(text) <= _ECHO:
        return repr(text)
    return f"{text[:_ECHO]!r}... ({len(text)} characters)"


def _int_in_range(value, name: str, low: int,
                  high: int | None = None) -> bool:
    """Whether low <= value, and value <= high when high is given, for
    an int value.  A bool or any other non-int raises InvalidInput that
    names the argument and echoes the value.  The package's one type
    check of an integer argument from a library caller; each caller
    keeps its own message for an int out of range."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInput(f"{name} must be an int, got {_echo(repr(value))}")
    return low <= value and (high is None or value <= high)
