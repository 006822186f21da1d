"""Exception hierarchy shared by all tourney modules.

Every error raised on a bad input or a violated mathematical claim derives
from TourneyError so callers can catch one base class.  Errors that signal
a malformed argument also derive from ValueError.
"""

from __future__ import annotations


class TourneyError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(TourneyError, ValueError):
    """Base class for malformed-argument errors (maps to CLI exit 2)."""


# -- structural validation ---------------------------------------------------

class _CellError(InvalidInput):
    """A structural error that names its adjacency cell (i, j), row i and
    column j, when known."""

    def __init__(self, message: str,
                 cell: tuple[int, int] | None = None) -> None:
        super().__init__(message)
        self.cell = cell


class LoopArcError(_CellError):
    """A diagonal adjacency bit is set (an arc from a vertex to itself);
    the cell is (i, i)."""


class MissingOrDoubleArcError(_CellError):
    """Some vertex pair has zero or two arcs instead of exactly one; the
    cell is (i, j) with i < j."""


class SizeMismatchError(InvalidInput):
    """Row count or row width disagrees with the declared order."""


class OutOfRangeError(InvalidInput):
    """A vertex index or vertex set does not fit inside the host tournament."""


class ArityMismatchError(InvalidInput):
    """A replacement list does not have one entry per host vertex."""


class OrderTooLargeError(InvalidInput):
    """The requested order exceeds a documented cap (64 overall, 16 for
    canonicalization)."""


# -- generators --------------------------------------------------------------

class EvenOrderError(InvalidInput):
    """An odd order is required (rotational and regular constructions)."""


class BadSymbolError(InvalidInput):
    """A rotational symbol is not a valid half-set of differences."""


class NotPrimeError(InvalidInput):
    """The quadratic-residue construction needs a prime (or prime power)."""


class UnknownNameError(InvalidInput):
    """gen_named was asked for a family name it does not know."""


# -- counting ----------------------------------------------------------------

class NotAnArcError(InvalidInput):
    """arc_intersections was called on an ordered pair that is not an arc."""


class BadMError(InvalidInput):
    """A subtournament order m outside the supported range for this op."""


class TooLargeError(InvalidInput):
    """A brute-force oracle or exhaustive sweep beyond its guarded order."""


class InternalParityError(TourneyError):
    """A division that must be exact left a remainder: the 5-cycle
    accumulator by 8, a trace by its cycle length, or a closed form by its
    denominator.  This indicates a bug, never a property of the input."""


# -- classification ----------------------------------------------------------

class NotSortedError(InvalidInput):
    """A score sequence is not non-negative and non-decreasing."""


# -- extremal / enumeration --------------------------------------------------

class BadOrderError(InvalidInput):
    """An order outside the domain of a closed-form value or sweep."""


class BadResidueError(InvalidInput):
    """A residue the construction cannot take: a prime p other than
    3 (mod 4) or an even extension degree k for the quadratic-residue
    tournaments, or an order n in the wrong class mod 4 for an extremal
    closed form."""


class NotRegularError(InvalidInput):
    """A regular tournament is required (identity checks, semi-degree)."""


class CorpusMissingError(InvalidInput):
    """A verification driver was handed a missing or mismatched corpus."""


class VerificationFailedError(TourneyError):
    """An exhaustively checked mathematical claim does not hold (CLI exit 1)."""


class TimeBudgetExceededError(TourneyError):
    """A budgeted run went past its wall-clock budget: the regular
    enumeration (enumerate --n) or the exhaustive 5-cycle sweep with its
    class engine and witness certificate (verify thm1)."""


# -- file formats ------------------------------------------------------------

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
