"""In-memory tables: the unit both the tagger and the executor work over.

Also the one message every text-file reader gives for bytes that are not UTF-8.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

KIND_TEXT = "text"
KIND_REAL = "real"

_WS = re.compile(r"\s+")


@dataclass
class Table:
    """One table: column names, column value kinds, and cell rows."""

    id: str
    header: list[str]
    types: list[str]
    rows: list[list] = field(default_factory=list)

    def __post_init__(self):
        if len(self.header) != len(self.types):
            raise ValueError(f"table {self.id!r}: {len(self.header)} columns but {len(self.types)} types")
        if not self.header:
            raise ValueError(f"table {self.id!r} has no columns")
        bad = [t for t in self.types if t not in (KIND_TEXT, KIND_REAL)]
        if bad:
            raise ValueError(f"table {self.id!r}: unknown column kind {bad[0]!r}")
        for i, row in enumerate(self.rows):
            if len(row) != len(self.header):
                raise ValueError(f"table {self.id!r} row {i}: {len(row)} cells for {len(self.header)} columns")

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


def normalize_text(s: str) -> str:
    """Trim, collapse internal whitespace, lowercase."""
    return _WS.sub(" ", s.strip()).lower()


def parse_number(value):
    """Return the float value of a cell or string, or None if non-numeric."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(str(value).strip())
    except ValueError:
        return None


def cell_text(value) -> str:
    """Canonical comparison text for a cell: integral reals print without '.0'."""
    if isinstance(value, bool):
        return normalize_text(str(value))
    if isinstance(value, (int, float)):
        f = float(value)
        if f.is_integer():
            return str(int(f))
        return repr(f)
    return normalize_text(str(value))
