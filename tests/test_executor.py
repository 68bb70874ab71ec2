import random

import pytest

from helpers import magazine_table, short_id
from reference_impls import reference_execute
from sketchsql.executor import (ExecutionError, ResultSet, evaluate_dataset,
                                exec_equal, execute)
from sketchsql.sketch import SqlQuery
from sketchsql.tables import Table


def rows_table(rows, types=None, header=None):
    n = len(rows[0]) if rows else 1
    return Table(id="t", header=header or [f"c{i}" for i in range(n)],
                 types=types or ["text"] * n, rows=rows)


class TestExecute:
    def test_count_without_conditions(self):
        table = rows_table([[str(i)] for i in range(7)])
        out = execute(SqlQuery(agg=3, sel=0), table)
        assert out.kind == "scalar" and out.scalar == 7

    def test_case_insensitive_equality_filter(self):
        table = rows_table([["mort drucker", "a"], ["x", "b"], ["mort drucker", "c"]],
                           header=["artist", "issue"])
        q = SqlQuery(agg=3, sel=1, conds=[(0, 0, "Mort Drucker")])
        assert execute(q, table).scalar == 2

    def test_min_over_zero_rows_is_empty(self):
        table = rows_table([[1.0]], types=["real"])
        q = SqlQuery(agg=2, sel=0, conds=[(0, 1, "99")])
        assert execute(q, table).kind == "empty"

    def test_count_over_zero_rows_is_zero(self):
        table = rows_table([["a"]])
        q = SqlQuery(agg=3, sel=0, conds=[(0, 0, "nope")])
        assert execute(q, table).scalar == 0

    def test_null_agg_returns_multiset(self):
        table = magazine_table()
        q = SqlQuery(agg=0, sel=0, conds=[(1, 0, "mort drucker")])
        out = execute(q, table)
        assert out.kind == "rows"
        assert sorted(out.values) == ["star blecch", "star roars"]

    def test_numeric_equality_coerces(self):
        table = rows_table([[88.5]], types=["real"])
        q = SqlQuery(agg=3, sel=0, conds=[(0, 0, "88.50")])
        assert execute(q, table).scalar == 1

    def test_ordering_on_text_is_false(self):
        table = rows_table([["abc"], ["zzz"]])
        q = SqlQuery(agg=3, sel=0, conds=[(0, 1, "5")])
        assert execute(q, table).scalar == 0

    def test_sum_over_text_column_errors(self):
        table = rows_table([["abc"]])
        with pytest.raises(ExecutionError, match="non-numeric aggregate"):
            execute(SqlQuery(agg=4, sel=0), table)

    def test_avg(self):
        table = rows_table([[2.0], [4.0]], types=["real"])
        assert execute(SqlQuery(agg=5, sel=0), table).scalar == pytest.approx(3.0)

    @pytest.mark.parametrize("cell,op,val,count", [
        ("nan", 0, "nan", 1), (float("nan"), 0, "NaN", 1), ("1_000", 0, "1000", 0),
        ("1,000", 0, "1000", 0), ("inf", 1, "5", 0), ("١٢", 1, "5", 0), ("0x10", 1, "5", 0),
        (10**400, 1, "5", 0), (10**400, 0, str(10**400), 1), (" +5 ", 0, "5.0", 1),
    ], ids=short_id)
    def test_number_grammar_decides_comparisons(self, cell, op, val, count):
        table = rows_table([[cell]], types=["real"])
        assert execute(SqlQuery(agg=3, sel=0, conds=[(0, op, val)]), table).scalar == count

    def test_aggregate_over_out_of_range_cell_errors(self):
        table = rows_table([[5], [10**400]], types=["real"])
        with pytest.raises(ExecutionError, match="non-numeric aggregate"):
            execute(SqlQuery(agg=1, sel=0), table)

    def test_adding_condition_never_increases_count(self):
        table = magazine_table()
        base = execute(SqlQuery(agg=3, sel=0), table).scalar
        narrowed = execute(SqlQuery(agg=3, sel=0, conds=[(1, 0, "mort drucker")]), table).scalar
        tighter = execute(SqlQuery(agg=3, sel=0,
                                   conds=[(1, 0, "mort drucker"), (2, 1, "100")]), table).scalar
        assert base >= narrowed >= tighter


class TestExecEqual:
    def test_within_tolerance(self):
        a = ResultSet.of_scalar(3.0)
        b = ResultSet.of_scalar(3.0 + 1e-9)
        assert exec_equal(a, b)

    def test_multiset_multiplicity(self):
        assert not exec_equal(ResultSet.of_rows(["a", "a", "b"]), ResultSet.of_rows(["a", "b"]))
        assert exec_equal(ResultSet.of_rows(["b", "a"]), ResultSet.of_rows(["a", "b"]))

    def test_empty_only_equals_empty(self):
        assert exec_equal(ResultSet.empty(), ResultSet.empty())
        assert not exec_equal(ResultSet.empty(), ResultSet.of_rows([]))
        assert not exec_equal(ResultSet.empty(), ResultSet.of_scalar(0.0))

    def test_numeric_rows_compare_with_tolerance(self):
        assert exec_equal(ResultSet.of_rows([1.0, 2.0]), ResultSet.of_rows([2.0, 1.0 + 1e-9]))


def random_table(rnd: random.Random) -> Table:
    n_cols = rnd.randint(1, 5)
    types = [rnd.choice(["text", "real"]) for _ in range(n_cols)]
    header = [f"col {i}" if rnd.random() < 0.3 else f"c{i}" for i in range(n_cols)]
    words = ["alpha", "beta", "Gamma", "delta x", "epsilon", "42", ""]
    rows = []
    for _ in range(rnd.randint(0, 20)):
        row = []
        for kind in types:
            if kind == "real":
                row.append(rnd.choice([rnd.randint(-50, 50),
                                       round(rnd.uniform(-100, 100), 2)]))
            else:
                row.append(rnd.choice(words))
        rows.append(row)
    return Table(id="fuzz", header=header, types=types, rows=rows)


def random_query(rnd: random.Random, table: Table) -> SqlQuery:
    n_cols = table.n_columns
    sel = rnd.randrange(n_cols)
    # keep SUM/AVG on real columns so execution is well-defined
    if table.types[sel] == "real":
        agg = rnd.choice([0, 1, 2, 3, 4, 5])
    else:
        agg = rnd.choice([0, 1, 2, 3])
    conds = []
    for col in rnd.sample(range(n_cols), k=min(n_cols, rnd.randint(0, 4))):
        op = rnd.choice([0, 1, 2])
        if rnd.random() < 0.5 and table.rows:
            val = str(rnd.choice(table.rows)[col])
        else:
            val = rnd.choice(["alpha", "42", "-3.5", "zzz", "0"])
        conds.append((col, op, val))
    return SqlQuery(agg=agg, sel=sel, conds=conds)


def to_comparable(result: ResultSet):
    if result.kind == "rows":
        return ("rows", sorted(map(str, result.values)))
    if result.kind == "scalar":
        return ("scalar", result.scalar)
    return ("empty", None)


class TestAgainstReferenceInterpreter:
    def test_thousand_fuzzed_pairs_match(self):
        rnd = random.Random(20260810)
        for _ in range(1000):
            table = random_table(rnd)
            query = random_query(rnd, table)
            kind, payload = reference_execute(query, table)
            assert kind != "error"
            got = execute(query, table)
            if kind == "rows":
                assert to_comparable(got) == ("rows", sorted(map(str, payload)))
            elif kind == "scalar":
                assert got.kind == "scalar"
                if isinstance(payload, str):
                    assert got.scalar == payload
                else:
                    assert got.scalar == pytest.approx(payload, abs=1e-12)
            else:
                assert got.kind == "empty"

    def test_fuzzed_messy_cells_match(self):
        # bools, None, padded text and numeric strings, in columns of either kind, and text
        # that only other number grammars read as numbers
        cells = [True, False, None, "", "  ", " 42 ", "42", "42.0", "  Alpha  ", "alpha",
                 "beta\tgamma", "beta  gamma", "7.0", "-3.5", "1e3", 7, 7.0, -3.5, 0, 1000.0,
                 "+5", ".5", "5.", "1e-05", "nan", "inf", "-Infinity", "1_000", "1,000", "١٢",
                 "0x10", "1e400", 10**400, float("nan"), float("inf")]
        vals = [" 42 ", "ALPHA", "beta gamma", "none", "true", "7", "1000", "x", "nan", "inf",
                "5", "+5", "0.5", "1_000", "١٢", "16", "1e400", str(10**400)]
        rnd = random.Random(20261018)
        for _ in range(1000):
            n_cols = rnd.randint(1, 4)
            types = [rnd.choice(["text", "real"]) for _ in range(n_cols)]
            rows = [[rnd.choice(cells) for _ in range(n_cols)] for _ in range(rnd.randint(0, 12))]
            table = Table(id="messy", header=[f"c{i}" for i in range(n_cols)], types=types,
                          rows=rows)
            conds = [(col, rnd.choice([0, 1, 2]),
                      str(rnd.choice(rows)[col]) if rows and rnd.random() < 0.5
                      else rnd.choice(vals))
                     for col in rnd.sample(range(n_cols), k=rnd.randint(0, n_cols))]
            query = SqlQuery(agg=rnd.randrange(6), sel=rnd.randrange(n_cols), conds=conds)
            kind, payload = reference_execute(query, table)
            if kind == "error":
                with pytest.raises(ExecutionError):
                    execute(query, table)
                continue
            got = execute(query, table)
            if kind == "rows":
                assert to_comparable(got) == ("rows", sorted(map(str, payload)))
            elif kind == "scalar":
                assert got.kind == "scalar"
                if isinstance(payload, str):
                    assert got.scalar == payload
                else:
                    assert got.scalar == pytest.approx(payload, abs=1e-12)
            else:
                assert got.kind == "empty"

    def test_reflexivity_on_fuzzed_queries(self):
        rnd = random.Random(7)
        for _ in range(200):
            table = random_table(rnd)
            query = random_query(rnd, table)
            assert exec_equal(execute(query, table), execute(query, table))


NUMBER_FILL = [-20, -3, 0, 2, 5, 7, 40, -7.25, 0.5, 2.5, 5.0, 88.5, 1e-05]

# Columns of 300 rows: each starts with the cells a shortcut could confuse, in the order
# where a set of them keeps the one that differs (0.0 before -0.0, 1 before True), then
# fill. The numeric ones with one other cell must go cell by cell.
WIDE_COLUMNS = {
    "str": ["0.0", "-0.0", " Alpha ", "alpha", "beta  gamma", "1", "true", "nan", "", " 42 ",
            "2.5"],
    "int": [0, 1, 2**53 + 1, -3],
    "float": [0.0, -0.0, 1.0, 2.0**53, 2.5],
    "number": [0.0, -0.0, 1, 1.0, 2**53 + 1, 2.0**53],
    "number+True": [0.0, -0.0, 1, 1.0, True, 2**53 + 1, 2.0**53],
    "number+None": [0.0, -0.0, 1, 1.0, None, 2**53 + 1, 2.0**53],
    "number+nan": [0.0, -0.0, 1, 1.0, float("nan"), 2**53 + 1, 2.0**53],
    "number+inf": [0.0, -0.0, 1, 1.0, float("inf"), 2**53 + 1, 2.0**53],
    "number+2**1024": [0.0, -0.0, 1, 1.0, 2**1024, 2**53 + 1, 2.0**53],
}
WIDE_VALUES = ["0", "-0.0", "1", "1.0", "true", "True", str(2**53 + 1), str(2**53), "nan",
               "none", "alpha", "beta gamma", "42", "2.5", "5", str(2**1024)]


def wide_table(name: str, kind: str) -> Table:
    """The named column, filled to 300 rows, beside a column of small ints."""
    rnd = random.Random(name)
    head = WIDE_COLUMNS[name]
    pool = (["Alpha", "gamma", "delta x", " 7 ", "zeta"] if name == "str" else
            NUMBER_FILL[:7] if name == "int" else NUMBER_FILL[7:] if name == "float" else
            NUMBER_FILL)
    cells = head + [rnd.choice(pool) for _ in range(300 - len(head))]
    return Table(id=name, header=["tested", "other"], types=[kind, "real"],
                 rows=[[cell, i % 7] for i, cell in enumerate(cells)])


def exact(kind, payload):
    """A result as comparable exact text: rows keep their order and cell types, and
    numbers compare by float.hex, so -0.0 and 0.0 differ."""
    if kind == "rows":
        return kind, list(map(repr, payload))
    if kind == "scalar" and not isinstance(payload, str):
        return kind, float(payload).hex()
    return kind, payload


class TestWideColumns:
    @pytest.mark.parametrize("kind", ["text", "real"])
    def test_every_operator_and_aggregate_matches_reference(self, kind):
        # '=', '>' and '<' against every value, compared by the rows kept, in order; each
        # aggregate over all rows and over two subsets
        queries = [SqlQuery(agg=0, sel=0, conds=[(0, op, val)])
                   for op in (0, 1, 2) for val in WIDE_VALUES]
        queries += [SqlQuery(agg=agg, sel=0, conds=where) for agg in range(1, 6)
                    for where in ([], [(1, 0, "3")], [(0, 1, "0"), (1, 2, "5")])]
        for name in WIDE_COLUMNS:
            table = wide_table(name, kind)
            for query in queries:
                want = reference_execute(query, table)
                if want[0] == "error":
                    with pytest.raises(ExecutionError):
                        execute(query, table)
                    continue
                got = execute(query, table)
                assert exact(got.kind, got.values if got.kind == "rows" else got.scalar) \
                    == exact(*want), (name, query)


class TestEvaluateDataset:
    def golds(self):
        table = magazine_table()
        golds = [
            SqlQuery(agg=0, sel=0, conds=[(1, 0, "mort drucker"), (2, 0, "88.5")]),
            SqlQuery(agg=3, sel=2, conds=[]),
        ]
        return golds, ["mag", "mag"], {"mag": table}

    def test_perfect_predictions(self):
        golds, ids, tables = self.golds()
        m = evaluate_dataset(golds, golds, ids, tables)
        assert m.to_dict() == {"n": 2, "acc_lf": 1.0, "acc_qm": 1.0, "acc_ex": 1.0,
                               "acc_agg": 1.0, "acc_sel": 1.0, "acc_where": 1.0}

    def test_reordered_conditions_break_lf_only(self):
        golds, ids, tables = self.golds()
        preds = [SqlQuery(agg=0, sel=0, conds=[(2, 0, "88.5"), (1, 0, "mort drucker")]),
                 golds[1]]
        m = evaluate_dataset(preds, golds, ids, tables)
        assert m.acc_qm == 1.0 and m.acc_where == 1.0 and m.acc_ex == 1.0
        assert m.acc_lf == 0.5

    def test_missing_table_reports_id(self):
        golds, ids, tables = self.golds()
        with pytest.raises(ValueError, match="nosuch"):
            evaluate_dataset(golds, golds, ["nosuch", "mag"], tables)

    def test_execution_error_counts_as_mismatch(self):
        table = magazine_table()
        gold = SqlQuery(agg=3, sel=0)
        pred = SqlQuery(agg=4, sel=0)  # SUM over text column fails
        m = evaluate_dataset([pred], [gold], ["mag"], {"mag": table})
        assert m.acc_ex == 0.0

    def test_metrics_empty_dataset(self):
        m = evaluate_dataset([], [], [], {})
        assert m.n == 0 and m.acc_qm == 0.0
