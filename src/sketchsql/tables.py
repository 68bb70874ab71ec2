"""In-memory tables, and the one number grammar the tagger and the executor share.

Also the one line reader of every line-oriented input file, and the one message
every text-file reader gives for bytes that are not UTF-8.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass, field

import numpy as np

KIND_TEXT = "text"
KIND_REAL = "real"

_NUMBER = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


@dataclass(init=False)
class Table:
    """One table: column names, column value kinds, and its cells column by column.

    Built from rows, it keeps `columns`, one tuple per header column holding the rows'
    cells in row order (the same objects; an empty tuple each when there are no rows),
    and no row lists: the tagger and the executor read a column at a time. `rows`
    rebuilds the row lists on each read.

    Header and cells must not change once the table has been tagged in content mode:
    from its second content tagging on, the tagger keeps what it reads of them whatever
    the question (`tagger.ContentIndex`) in `_content_index`, which holds None before
    the first and False after it."""

    id: str
    header: list[str]
    types: list[str]
    columns: tuple[tuple, ...]
    _content_index: object = field(default=None, repr=False, compare=False)

    def __init__(self, id: str, header: list[str], types: list[str], rows=()):
        if len(header) != len(types):
            raise ValueError(f"table {id!r}: {len(header)} columns but {len(types)} types")
        if not header:
            raise ValueError(f"table {id!r} has no columns")
        bad = [t for t in types if t not in (KIND_TEXT, KIND_REAL)]
        if bad:
            raise ValueError(f"table {id!r}: unknown column kind {bad[0]!r}")
        if not {len(header)}.issuperset(map(len, rows)):  # stops at the first other length
            i, row = next((i, row) for i, row in enumerate(rows) if len(row) != len(header))
            raise ValueError(f"table {id!r} row {i}: {len(row)} cells for {len(header)} columns")
        self.id, self.header, self.types = id, header, types
        self.columns = tuple(zip(*rows)) if len(rows) else ((),) * len(header)
        self._content_index = None

    @property
    def rows(self) -> list[list]:
        return [list(row) for row in zip(*self.columns)]

    @property
    def n_columns(self) -> int:
        return len(self.header)


def not_utf8(path, exc: UnicodeDecodeError) -> str:
    """`<path>:<line>: ...` for a text file that failed to decode, naming its first line
    that is not UTF-8 (text readers decode in blocks, so exc alone has no line)."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as bad:
                return f"{path}:{lineno}: not UTF-8 text ({bad.reason})"
    return f"{path}: not UTF-8 text ({exc.reason})"


def text_lines(path, error, binary=None):
    """Yield (line number, line without its newline) for each non-blank line of a UTF-8
    text file, past a leading byte-order mark; bytes that are not UTF-8 raise
    error(not_utf8(...)). `binary`, a buffered binary reader of path's bytes, is read in
    place of opening path when given."""
    with (open(path, encoding="utf-8-sig") if binary is None
          else io.TextIOWrapper(binary, encoding="utf-8-sig")) as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    yield lineno, line.rstrip("\n")
        except UnicodeDecodeError as exc:
            raise error(not_utf8(path, exc)) from None


def normalize_text(s: str) -> str:
    """Trim, collapse internal whitespace, lowercase. Whitespace is what str.isspace()
    accepts, the characters regex `\\s` matches."""
    return " ".join(s.split()).lower()


def parse_number(value) -> float | None:
    """The one definition of a number: the float a cell or text stands for, or None.

    A number is trimmed text of an optional sign, ASCII digits with at most one '.'
    and an optional exponent, or a cell of type int or float (so not a bool), and
    its value is finite in float64. 'nan', 'inf', '1_000', '1,000', non-ASCII
    digits, '0x10' and 1e400 are text."""
    kind = type(value)
    if kind is float:
        num = value
    elif kind is int:
        try:
            num = float(value)
        except OverflowError:  # beyond float64
            return None
    elif isinstance(value, str):
        text = value.strip()  # float() alone would keep '\x1c'-'\x1f', which strip() drops
        if not _NUMBER.fullmatch(text):
            return None
        num = float(text)
    else:
        return None
    return num if math.isfinite(num) else None


def column_numbers(cells) -> np.ndarray | None:
    """The float64 array of parse_number(c) for c in cells when every cell is an int or
    float (so not a bool) with a finite value, or None: a C-level pass for the cell types,
    then one np.fromiter and one np.isfinite. The types are checked first: numpy also
    reads bools and number text."""
    if not {int, float}.issuperset(map(type, cells)):  # stops at the first other type
        return None
    try:
        values = np.fromiter(cells, dtype=np.float64, count=len(cells))
    except OverflowError:  # an int beyond float64
        return None
    return values if np.isfinite(values).all() else None


def distinct_text(cells) -> set[str] | None:
    """The set of a column's cells when every cell is a str, else None; the set's members
    are type-checked, not every cell. Only then may the set stand in for the cells: a set
    of other cells merges True with 1 and -0.0 with 0.0, whose texts differ. A table built
    in code may hold a cell that cannot be hashed, such as a list: not text either."""
    try:
        texts = set(cells)
    except TypeError:
        return None
    return texts if {str}.issuperset(map(type, texts)) else None


def cell_text(value) -> str:
    """Canonical comparison text for a cell: a number cell prints its float, integral
    ones without '.0'; any other cell is its normalized text."""
    num = None if isinstance(value, str) else parse_number(value)
    if num is None:
        return normalize_text(str(value))
    return str(int(num)) if num.is_integer() else repr(num)
