"""Restricted SQL execution over in-memory tables, plus the metric stack.

Row filtering follows the dataset's observable comparison rules: '='
compares trimmed strings case-insensitively and switches to numeric
equality when both sides parse as numbers; '>' and '<' require both sides
numeric, otherwise the condition is simply false.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .sketch import (AGG_AVG, AGG_COUNT, AGG_MIN, AGG_NULL, AGG_SUM, OP_EQ, OP_GT,
                     SqlQuery, canonical_conds, canonical_equal, render)
from .tables import KIND_REAL, Table, normalize_text, parse_number


class ExecutionError(ValueError):
    pass


@dataclass
class ResultSet:
    """Execution outcome: a multiset of cells, a scalar, or the empty marker."""

    kind: str                      # "rows" | "scalar" | "empty"
    values: list = field(default_factory=list)   # cell values when kind == "rows"
    scalar: object = None                        # number (or text min/max) when kind == "scalar"

    @classmethod
    def empty(cls):
        return cls(kind="empty")

    @classmethod
    def of_rows(cls, values):
        return cls(kind="rows", values=list(values))

    @classmethod
    def of_scalar(cls, value):
        return cls(kind="scalar", scalar=float(value) if isinstance(value, (int, float)) else value)


def _condition_holds(cell, op: int, val_num, val_text: str) -> bool:
    cell_num = parse_number(cell)
    if op == OP_EQ:
        if cell_num is not None and val_num is not None:
            return cell_num == val_num
        return normalize_text(str(cell)) == val_text
    if cell_num is None or val_num is None:
        return False
    return cell_num > val_num if op == OP_GT else cell_num < val_num


def execute(query: SqlQuery, table: Table) -> ResultSet:
    """Run one sketch query; scalar aggregates over zero rows give EMPTY."""
    query.validate_against(table.n_columns)
    kept = table.rows
    for col, op, val in query.conds:  # AND: each condition filters the survivors of the last
        val_num, val_text = parse_number(val), normalize_text(val)
        kept = [row for row in kept if _condition_holds(row[col], op, val_num, val_text)]
    if query.agg == AGG_COUNT:
        return ResultSet.of_scalar(len(kept))
    cells = [row[query.sel] for row in kept]
    if query.agg == AGG_NULL:
        return ResultSet.of_rows(cells)
    if not cells:
        return ResultSet.empty()
    if query.agg in (AGG_SUM, AGG_AVG):
        if table.types[query.sel] != KIND_REAL:
            raise ExecutionError("non-numeric aggregate")
        nums = [parse_number(c) for c in cells]
        if any(n is None for n in nums):
            raise ExecutionError("non-numeric aggregate")
        total = sum(nums)
        return ResultSet.of_scalar(total if query.agg == AGG_SUM else total / len(nums))
    # MIN / MAX: numeric on real columns, lexicographic on text
    if table.types[query.sel] == KIND_REAL:
        nums = [parse_number(c) for c in cells]
        if any(n is None for n in nums):
            raise ExecutionError("non-numeric cell in real column")
        return ResultSet.of_scalar(min(nums) if query.agg == AGG_MIN else max(nums))
    texts = [normalize_text(str(c)) for c in cells]
    return ResultSet.of_scalar(min(texts) if query.agg == AGG_MIN else max(texts))


def _numbers_close(x: float, y: float) -> bool:
    return abs(x - y) <= 1e-6 * max(1.0, abs(x), abs(y))


def _sort_key(value):
    num = parse_number(value)
    if num is not None:
        return (0, num, "")
    return (1, 0.0, str(value))


def exec_equal(a: ResultSet, b: ResultSet) -> bool:
    """Result equality with relative tolerance 1e-6 on numbers."""
    if a.kind != b.kind:
        return False
    if a.kind == "empty":
        return True
    if a.kind == "scalar":
        na, nb = parse_number(a.scalar), parse_number(b.scalar)
        if na is not None and nb is not None:
            return _numbers_close(na, nb)
        return (na is None) == (nb is None) and str(a.scalar) == str(b.scalar)
    if len(a.values) != len(b.values):
        return False
    for va, vb in zip(sorted(a.values, key=_sort_key), sorted(b.values, key=_sort_key)):
        na, nb = parse_number(va), parse_number(vb)
        if na is not None and nb is not None:
            if not _numbers_close(na, nb):
                return False
        elif (na is None) != (nb is None) or str(va) != str(vb):
            return False
    return True


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass
class Metrics:
    """Exact-string, canonical, execution, and per-clause match rates."""

    n: int = 0
    lf: int = 0
    qm: int = 0
    ex: int = 0
    agg: int = 0
    sel: int = 0
    where: int = 0

    def _rate(self, count: int) -> float:
        return count / self.n if self.n else 0.0

    @property
    def acc_lf(self) -> float:
        return self._rate(self.lf)

    @property
    def acc_qm(self) -> float:
        return self._rate(self.qm)

    @property
    def acc_ex(self) -> float:
        return self._rate(self.ex)

    @property
    def acc_agg(self) -> float:
        return self._rate(self.agg)

    @property
    def acc_sel(self) -> float:
        return self._rate(self.sel)

    @property
    def acc_where(self) -> float:
        return self._rate(self.where)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "acc_lf": self.acc_lf,
            "acc_qm": self.acc_qm,
            "acc_ex": self.acc_ex,
            "acc_agg": self.acc_agg,
            "acc_sel": self.acc_sel,
            "acc_where": self.acc_where,
        }


def _safe_execute(query: SqlQuery, table: Table):
    try:
        return execute(query, table)
    except ExecutionError:
        return None


def evaluate_dataset(preds: list[SqlQuery], golds: list[SqlQuery],
                     table_ids: list[str], tables: dict[str, Table]) -> Metrics:
    """Score parallel prediction/gold lists; a failing execution never matches."""
    if not len(preds) == len(golds) == len(table_ids):
        raise ValueError("preds, golds and table_ids must be parallel")
    metrics = Metrics()
    for pred, gold, table_id in zip(preds, golds, table_ids):
        table = tables.get(table_id)
        if table is None:
            raise ValueError(f"missing table {table_id!r}")
        metrics.n += 1
        if render(pred, table.header, table.id) == render(gold, table.header, table.id):
            metrics.lf += 1
        if canonical_equal(pred, gold):
            metrics.qm += 1
        pred_result = _safe_execute(pred, table)
        gold_result = _safe_execute(gold, table)
        if pred_result is not None and gold_result is not None and exec_equal(pred_result, gold_result):
            metrics.ex += 1
        if pred.agg == gold.agg:
            metrics.agg += 1
        if pred.sel == gold.sel:
            metrics.sel += 1
        if canonical_conds(pred.conds) == canonical_conds(gold.conds):
            metrics.where += 1
    return metrics
