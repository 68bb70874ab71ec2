"""The SQL sketch: structured queries, rendering, and canonical equality.

Queries are instances of the fixed template
SELECT <agg> <column> WHERE <column> <op> <value> (AND ...)*, with at most
four AND-joined conditions and no other connectives.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field

from .tables import normalize_text

AGGREGATORS = ("", "MAX", "MIN", "COUNT", "SUM", "AVG")  # index 0 is the bare column
OPERATORS = ("=", ">", "<")
MAX_CONDITIONS = 4

AGG_NULL, AGG_MAX, AGG_MIN, AGG_COUNT, AGG_SUM, AGG_AVG = range(6)
OP_EQ, OP_GT, OP_LT = range(3)

_PUNCT_SPACE = re.compile(r" (?=[^\w\s])")


@dataclass
class SqlQuery:
    """One filled sketch: aggregator, select column, AND-joined conditions."""

    agg: int
    sel: int
    conds: list[tuple[int, int, str]] = field(default_factory=list)

    def __post_init__(self):
        if not 0 <= self.agg < len(AGGREGATORS):
            raise ValueError(f"aggregator code {self.agg} out of range")
        if self.sel < 0:
            raise ValueError(f"select column {self.sel} out of range")
        if len(self.conds) > MAX_CONDITIONS:
            raise ValueError(f"{len(self.conds)} conditions exceed the sketch maximum {MAX_CONDITIONS}")
        fixed = []
        for cond in self.conds:
            col, op, val = cond
            if col < 0:
                raise ValueError(f"condition column {col} out of range")
            if not 0 <= op < len(OPERATORS):
                raise ValueError(f"operator code {op} out of range")
            fixed.append((int(col), int(op), str(val)))
        self.conds = fixed

    def validate_against(self, n_columns: int):
        if self.sel >= n_columns:
            raise ValueError(f"select column {self.sel} outside schema of {n_columns}")
        for col, _, _ in self.conds:
            if col >= n_columns:
                raise ValueError(f"condition column {col} outside schema of {n_columns}")

    def to_dict(self) -> dict:
        return {"sel": self.sel, "agg": self.agg,
                "conds": [[c, o, v] for c, o, v in self.conds]}

    @classmethod
    def from_dict(cls, d: dict) -> "SqlQuery":
        """Read a query from its JSON form; a field of the wrong JSON type is an error."""
        if not isinstance(d, dict):
            raise ValueError(f"query must be a JSON object, got {d!r}")
        conds = d.get("conds", [])
        if not isinstance(conds, list):
            raise ValueError(f"conds must be a list, got {conds!r}")
        for cond in conds:
            if not isinstance(cond, list) or len(cond) != 3:
                raise ValueError(f"condition must be [column, operator, value], got {cond!r}")
            _integer("condition column", cond[0])
            _integer("condition operator", cond[1])
            if isinstance(cond[2], bool) or not isinstance(cond[2], (str, int, float)):
                raise ValueError(f"condition value must be a string or a number, got {cond[2]!r}")
            if isinstance(cond[2], float) and not math.isfinite(cond[2]):
                raise ValueError(f"condition value must be a finite number, got {cond[2]!r}")
        return cls(agg=_integer("agg", d["agg"]), sel=_integer("sel", d["sel"]),
                   conds=[(c, o, str(v)) for c, o, v in conds])


def _integer(name: str, value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def detokenize(tokens: list[str]) -> str:
    """Space-join, then collapse the space before punctuation tokens."""
    return _PUNCT_SPACE.sub("", " ".join(tokens))


def assemble(pred, tokens: list[str]) -> SqlQuery:
    """Build a SqlQuery from slot predictions over the question tokens."""
    conds = [(col, op, detokenize([tokens[i] for i in span]))
             for col, op, span in zip(pred.cond_cols, pred.cond_ops, pred.cond_val_spans)]
    return SqlQuery(agg=pred.agg, sel=pred.select_col, conds=conds[:MAX_CONDITIONS])


def render(query: SqlQuery, header: list[str], table_id: str = "t") -> str:
    """Normative string form; values verbatim, no quoting."""
    query.validate_against(len(header))
    sel = header[query.sel]
    target = f"{AGGREGATORS[query.agg]}({sel})" if query.agg != AGG_NULL else sel
    sql = f"SELECT {target} FROM {table_id}"
    if query.conds:
        clauses = " AND ".join(f"{header[col]} {OPERATORS[op]} {val}" for col, op, val in query.conds)
        sql += f" WHERE {clauses}"
    return sql


def canonical_conds(conds) -> Counter:
    """Conditions as a multiset with whitespace/case-insensitive values."""
    return Counter((col, op, normalize_text(val)) for col, op, val in conds)


def canonical_equal(a: SqlQuery, b: SqlQuery) -> bool:
    """Order-insensitive query equality with normalized condition values."""
    return a.agg == b.agg and a.sel == b.sel and canonical_conds(a.conds) == canonical_conds(b.conds)
