"""The .tour text format.

Line 1 is the order n in decimal; the next n lines are rows of exactly n
characters from {0, 1}, row i listing the out-arcs of vertex i (character
j is 1 iff the arc i -> j is present).  A single trailing newline is
allowed.  Every problem raises ParseError with its 1-based line and,
where one character is at fault, its column: textual ones as the text
is read, structural ones as validate finds them.  An order outside
1..64 is at line 1, checked before the rows are counted; a loop at
vertex i at line i + 2, col i + 1; and a pair (i, j), i < j, with no
arc or both arcs at line i + 2, col j + 1.
This format is the bit-exact ground truth for fixtures.

A row is read as one int, int(row[::-1], 2), only after it is checked
to hold nothing but 0 and 1: int also takes underscores, surrounding
spaces, a sign and non-ASCII digits (int("\u0661\u0660\u0661", 2) is
5), so the check keeps such rows an error at their first bad column.
"""

from __future__ import annotations

import os

from .core import Tournament, _check_order, validate
from .errors import ArcError, InvalidInput, ParseError


# str.translate table that deletes 0 and 1: a row is binary exactly
# when nothing is left of it
_DROP_BITS = str.maketrans("", "", "01")


def _decimal(text: str, what: str, line: int | None = None,
             col: int = 1) -> int:
    """The value of text, which must be ASCII decimal digits only: no
    sign, space or underscore.  The package reads every decimal number
    from outside by it: a .tour order line, a .corpus header, a CLI
    flag, the M of a count name wM or trM.  A bad character raises
    ParseError with the column of the first one, where text starts at
    column col; a value past the interpreter's int-string limit raises
    one with no column that leaves the value out.  The message names a
    position only when line is given."""
    bad = next((k for k, ch in enumerate(text) if not "0" <= ch <= "9"),
               None)
    if not text or bad is not None:
        raise ParseError(f"{what} must be a decimal integer", line=line,
                         col=col + (bad or 0))
    try:
        return int(text)
    except ValueError:  # longer than the interpreter's int-string limit
        raise ParseError(f"{what} has too many digits ({len(text)})",
                         line=line) from None


def parse_tour(text: str) -> Tournament:
    """Parse .tour text into a validated Tournament."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # single trailing newline
    if not lines:
        raise ParseError("empty input", line=1)
    n = _decimal(lines[0], "order line", line=1)
    try:
        _check_order(n)
    except InvalidInput as exc:
        raise ParseError(str(exc), line=1) from None
    if len(lines) - 1 != n:
        # point at the first missing or first extra line
        where = len(lines) + 1 if len(lines) - 1 < n else n + 2
        raise ParseError(f"expected {n} rows after the order line, "
                         f"got {len(lines) - 1}", line=where)
    rows = []
    for i, raw in enumerate(lines[1:]):
        if len(raw) != n:
            raise ParseError(f"row {i} must have exactly {n} characters",
                             line=i + 2, col=min(len(raw) + 1, n + 1))
        if raw.translate(_DROP_BITS):
            j = next(j for j, ch in enumerate(raw) if ch not in "01")
            raise ParseError("rows may contain only 0 and 1",
                             line=i + 2, col=j + 1)
        rows.append(int(raw[::-1], 2))
    try:
        return validate(n, rows)
    except ArcError as exc:
        # the order is in range and the rows match it in count and
        # width, so only a cell can be wrong
        i, j = exc.cell
        raise ParseError(str(exc), line=i + 2, col=j + 1) from None


def format_tour(t: Tournament) -> str:
    """Serialize to .tour text (with trailing newline)."""
    rows = [format(row, f"0{t.n}b")[::-1] for row in t.out_rows]
    return "\n".join([str(t.n), *rows]) + "\n"


def read_text(path: str | os.PathLike[str]) -> str:
    """The text of an ASCII file.  A non-ASCII byte raises ParseError
    with its line and column."""
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError:
        with open(path, encoding="ascii", errors="replace") as fh:
            text = fh.read()
        pos = text.index("\ufffd")
        raise ParseError("file is not ASCII",
                         line=text.count("\n", 0, pos) + 1,
                         col=pos - text.rfind("\n", 0, pos)) from None


def read_tour(path: str | os.PathLike[str]) -> Tournament:
    return parse_tour(read_text(path))


def write_tour(t: Tournament, path: str | os.PathLike[str]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_tour(t))
