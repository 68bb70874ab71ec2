"""Restricted SQL execution over in-memory tables, plus the metric stack.

Row filtering follows the dataset's observable comparison rules, and
`tables.parse_number` is what decides whether a cell or value is a number:
'=' compares numbers when the value is one and trimmed, case-insensitive
text otherwise; '>' and '<' need a number on both sides, otherwise the
condition is simply false. A None (JSON null) cell satisfies no condition.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import compress

from .sketch import (AGG_AVG, AGG_COUNT, AGG_MIN, AGG_NULL, AGG_SUM, OP_EQ, OP_GT,
                     SqlQuery, canonical_conds, canonical_equal, render)
from .tables import (KIND_REAL, Table, column_numbers, distinct_text, normalize_text,
                     parse_number)


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


def _holds(cells: Sequence, op: int, val: str) -> Iterable[bool]:
    """Whether each cell satisfies `cell <op> val`, with the operator and the kind of
    value decided once. A number value never equals a cell that is not a number, nor
    a text value one that is, since the text of a str, int or float number parses; a
    None cell holds for no value.

    A column of int/float numbers is compared in one vectorised op over its float64
    array, and an all-str column tests each distinct cell once. Any other column goes
    cell by cell.
    """
    num = parse_number(val)
    nums = column_numbers(cells)
    if nums is not None:
        if num is None:
            return [False] * len(cells)
        mask = nums == num if op == OP_EQ else nums > num if op == OP_GT else nums < num
        return mask.tolist()
    if num is None:
        if op != OP_EQ:
            return [False] * len(cells)
        text = normalize_text(val)

        def test(cell):
            return cell is not None and normalize_text(str(cell)) == text
    else:  # num < n is n > num
        holds = num.__eq__ if op == OP_EQ else num.__lt__ if op == OP_GT else num.__gt__

        def test(cell):
            n = parse_number(cell)
            return n is not None and holds(n)
    texts = distinct_text(cells)
    if texts is not None:
        hits = set(filter(test, texts))
        return map(hits.__contains__, cells)
    return map(test, cells)


def _kept_cells(column: tuple, kept: list[int] | None):
    """The column's cells of the kept rows in row order: the column itself when no
    condition has filtered the rows (kept is None), else the cells at the kept indices."""
    return column if kept is None else list(map(column.__getitem__, kept))


def execute(query: SqlQuery, table: Table) -> ResultSet:
    """Run one sketch query column by column. A None (JSON null) cell is no value: it
    satisfies no condition, COUNT counts the select column's other cells, and MIN, MAX,
    SUM and AVG skip it, giving EMPTY when no cell is left; a bare SELECT returns it.

    The first condition reads its column whole; each later one and the select column
    read only the cells of the rows that every earlier condition kept, through their row
    indices."""
    query.validate_against(table.n_columns)
    columns = table.columns
    kept = None  # the indices of the rows every condition so far holds on; None: all
    for col, op, val in query.conds:  # AND: each condition filters the survivors of the last
        cells = _kept_cells(columns[col], kept)
        kept = list(compress(range(len(cells)) if kept is None else kept,
                             _holds(cells, op, val)))
    cells = _kept_cells(columns[query.sel], kept)
    if query.agg == AGG_NULL:
        return ResultSet.of_rows(cells)
    if None in cells:  # a NULL cell is no value: COUNT and the aggregates skip it
        cells = [cell for cell in cells if cell is not None]
    if query.agg == AGG_COUNT:
        return ResultSet.of_scalar(len(cells))
    if not cells:
        return ResultSet.empty()
    if table.types[query.sel] != KIND_REAL:  # MIN / MAX compare text; SUM / AVG fail
        if query.agg in (AGG_SUM, AGG_AVG):
            raise ExecutionError("non-numeric aggregate")
        texts = [normalize_text(str(c)) for c in cells]
        return ResultSet.of_scalar(min(texts) if query.agg == AGG_MIN else max(texts))
    nums = [parse_number(c) for c in cells]
    if None in nums:
        raise ExecutionError("non-numeric aggregate")
    if query.agg in (AGG_SUM, AGG_AVG):
        total = sum(nums)
        return ResultSet.of_scalar(total if query.agg == AGG_SUM else total / len(nums))
    return ResultSet.of_scalar(min(nums) if query.agg == AGG_MIN else max(nums))


def _numbers_close(x: float, y: float) -> bool:
    return abs(x - y) <= 1e-6 * max(1.0, abs(x), abs(y))


def _sort_key(value):
    num = parse_number(value)
    return (0, num, "") if num is not None else (1, 0.0, str(value))


def _same(x, y) -> bool:
    """Whether two sort keys hold the same value: close numbers or equal text."""
    return x[0] == y[0] and (_numbers_close(x[1], y[1]) if x[0] == 0 else x[2] == y[2])


def exec_equal(a: ResultSet, b: ResultSet) -> bool:
    """Result equality with relative tolerance 1e-6 on numbers."""
    if a.kind != b.kind:
        return False
    if a.kind == "empty":
        return True
    if a.kind == "scalar":
        return _same(_sort_key(a.scalar), _sort_key(b.scalar))
    return len(a.values) == len(b.values) and all(
        map(_same, sorted(map(_sort_key, a.values)), sorted(map(_sort_key, b.values))))


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
