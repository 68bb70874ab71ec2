from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchsql.sketch import (MAX_CONDITIONS, SqlQuery, assemble,
                              canonical_equal, detokenize, render)
from sketchsql.slots import SlotPrediction


def make_pred(**kw):
    base = dict(select_col=0, agg=0, cond_count=0, cond_cols=[], cond_ops=[], cond_val_spans=[])
    base.update(kw)
    return SlotPrediction(**base)


class TestAssemble:
    def test_no_conditions(self):
        q = assemble(make_pred(agg=3), ["how", "many"])
        assert q.conds == []
        assert q.agg == 3

    def test_span_joins_tokens(self):
        pred = make_pred(cond_count=1, cond_cols=[1], cond_ops=[0], cond_val_spans=[[4, 5]])
        q = assemble(pred, ["the", "title", "with", "artist", "mort", "drucker"])
        assert q.conds == [(1, 0, "mort drucker")]

    def test_single_decimal_token_passes_through(self):
        pred = make_pred(cond_count=1, cond_cols=[2], cond_ops=[1], cond_val_spans=[[1]])
        q = assemble(pred, ["over", "88.5", "points"])
        assert q.conds == [(2, 1, "88.5")]

    def test_never_exceeds_sketch_maximum(self):
        pred = SimpleNamespace(select_col=0, agg=0,
                               cond_cols=[0, 1, 2, 3, 4, 5],
                               cond_ops=[0] * 6,
                               cond_val_spans=[[0]] * 6)
        q = assemble(pred, ["x"])
        assert len(q.conds) == MAX_CONDITIONS

    def test_detokenize_collapses_space_before_punctuation(self):
        assert detokenize(["88", ".", "5"]) == "88. 5"
        assert detokenize(["mort", "drucker"]) == "mort drucker"


class TestRender:
    HEADER = ["spoofed title", "artist", "issue"]

    def test_count_no_conditions(self):
        q = SqlQuery(agg=3, sel=2, conds=[])
        assert render(q, self.HEADER) == "SELECT COUNT(issue) FROM t"

    def test_bare_column_with_condition(self):
        q = SqlQuery(agg=0, sel=0, conds=[(1, 0, "mort drucker")])
        assert render(q, self.HEADER) == "SELECT spoofed title FROM t WHERE artist = mort drucker"

    def test_two_conditions_single_and(self):
        q = SqlQuery(agg=0, sel=0, conds=[(1, 0, "a"), (2, 1, "5")])
        out = render(q, self.HEADER)
        assert out.count(" AND ") == 1
        assert out.endswith("WHERE artist = a AND issue > 5")

    def test_table_id_rendered(self):
        q = SqlQuery(agg=5, sel=2)
        assert render(q, self.HEADER, table_id="2-1234") == "SELECT AVG(issue) FROM 2-1234"

    def test_out_of_schema_column_rejected(self):
        with pytest.raises(ValueError, match="outside schema"):
            render(SqlQuery(agg=0, sel=9), self.HEADER)


class TestCanonicalEqual:
    def test_identical(self):
        a = SqlQuery(agg=1, sel=0, conds=[(1, 0, "x")])
        assert canonical_equal(a, SqlQuery(agg=1, sel=0, conds=[(1, 0, "x")]))

    def test_reordered_conditions_equal(self):
        a = SqlQuery(agg=0, sel=0, conds=[(1, 0, "x"), (2, 1, "5")])
        b = SqlQuery(agg=0, sel=0, conds=[(2, 1, "5"), (1, 0, "x")])
        assert canonical_equal(a, b)

    def test_value_case_and_spacing_insensitive(self):
        a = SqlQuery(agg=0, sel=0, conds=[(1, 0, "Mort  Drucker ")])
        b = SqlQuery(agg=0, sel=0, conds=[(1, 0, "mort drucker")])
        assert canonical_equal(a, b)

    def test_flipped_operator_not_equal(self):
        a = SqlQuery(agg=0, sel=0, conds=[(1, 0, "x")])
        b = SqlQuery(agg=0, sel=0, conds=[(1, 1, "x")])
        assert not canonical_equal(a, b)

    def test_condition_multiplicity_matters(self):
        a = SqlQuery(agg=0, sel=0, conds=[(1, 0, "x"), (1, 0, "x")])
        b = SqlQuery(agg=0, sel=0, conds=[(1, 0, "x")])
        assert not canonical_equal(a, b)


conds_strategy = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 2),
              st.text(alphabet="ab X", min_size=1, max_size=6)),
    max_size=MAX_CONDITIONS)


@st.composite
def queries(draw):
    return SqlQuery(agg=draw(st.integers(0, 5)), sel=draw(st.integers(0, 3)),
                    conds=draw(conds_strategy))


class TestEquivalenceRelation:
    @given(queries())
    def test_reflexive(self, q):
        assert canonical_equal(q, q)

    @given(queries(), queries())
    def test_symmetric(self, a, b):
        assert canonical_equal(a, b) == canonical_equal(b, a)

    @given(queries(), st.randoms(use_true_random=False))
    @settings(max_examples=80)
    def test_transitive_via_permutation(self, a, rnd):
        shuffled = list(a.conds)
        rnd.shuffle(shuffled)
        b = SqlQuery(agg=a.agg, sel=a.sel, conds=shuffled)
        rnd.shuffle(shuffled)
        c = SqlQuery(agg=a.agg, sel=a.sel, conds=list(shuffled))
        assert canonical_equal(a, b) and canonical_equal(b, c) and canonical_equal(a, c)


class TestSqlQueryInvariants:
    def test_too_many_conditions_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            SqlQuery(agg=0, sel=0, conds=[(0, 0, "x")] * 5)

    def test_bad_codes_rejected(self):
        with pytest.raises(ValueError):
            SqlQuery(agg=6, sel=0)
        with pytest.raises(ValueError):
            SqlQuery(agg=0, sel=0, conds=[(0, 3, "x")])

    def test_dict_round_trip(self):
        q = SqlQuery(agg=2, sel=1, conds=[(0, 1, "7")])
        assert SqlQuery.from_dict(q.to_dict()) == q
