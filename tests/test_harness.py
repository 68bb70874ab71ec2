import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impls as ref
from helpers import (MAGAZINE_GOLD_SQL, MAGAZINE_QUESTION, demo_gazetteer, gradients,
                     magazine_table, with_inf_backward)
from sketchsql import harness as H
from sketchsql import kernel as K
from sketchsql import slots as S
from sketchsql.encoder import EmbeddingStore
from sketchsql.encoder import load_embeddings
from sketchsql.executor import ExecutionError, execute
from sketchsql.sketch import SqlQuery
from sketchsql.synth import SCHEMAS, generate_corpus
from sketchsql.tables import Table, cell_text
from sketchsql.tagger import Gazetteer, recognize


def tiny_embeddings(dim=6):
    rng = np.random.default_rng(123)
    vocab = ("the spoofed title with mort drucker as artist for issue 88.5 ? "
             "what is maximum how many when a b c d").split()
    return EmbeddingStore({t: rng.normal(size=dim) for t in vocab}, dim)


def magazine_example():
    return H.Example(question=MAGAZINE_QUESTION, table_id="mag",
                     gold=SqlQuery.from_dict(MAGAZINE_GOLD_SQL))


def write_magazine_files(tmp_path):
    tables_path = tmp_path / "tables.jsonl"
    examples_path = tmp_path / "examples.jsonl"
    H.write_tables({"mag": magazine_table()}, tables_path)
    H.write_examples([magazine_example()], examples_path)
    return examples_path, tables_path


class TestDatasetIO:
    def test_well_formed_files(self, tmp_path):
        examples_path, tables_path = write_magazine_files(tmp_path)
        examples, tables = H.load_dataset(examples_path, tables_path)
        assert len(examples) == 1
        assert examples[0].gold == SqlQuery.from_dict(MAGAZINE_GOLD_SQL)
        assert tables["mag"].n_columns == 3

    def test_round_trip(self, tmp_path):
        examples_path, tables_path = write_magazine_files(tmp_path)
        examples, _ = H.load_dataset(examples_path, tables_path)
        again = tmp_path / "again.jsonl"
        H.write_examples(examples, again)
        reloaded, _ = H.load_dataset(again, tables_path)
        assert reloaded == examples

    def test_bad_agg_code_reports_line(self, tmp_path):
        _, tables_path = write_magazine_files(tmp_path)
        bad = tmp_path / "bad.jsonl"
        rec = {"question": "x?", "table_id": "mag",
               "sql": {"sel": 0, "agg": 7, "conds": []}}
        bad.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        with pytest.raises(H.DatasetError, match=":1"):
            H.load_dataset(bad, tables_path)

    def test_dangling_table_id_names_it(self, tmp_path):
        _, tables_path = write_magazine_files(tmp_path)
        bad = tmp_path / "bad.jsonl"
        rec = {"question": "x?", "table_id": "ghost",
               "sql": {"sel": 0, "agg": 0, "conds": []}}
        bad.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        with pytest.raises(H.DatasetError, match="ghost"):
            H.load_dataset(bad, tables_path)

    def test_gold_checked_against_schema(self, tmp_path):
        _, tables_path = write_magazine_files(tmp_path)
        bad = tmp_path / "bad.jsonl"
        rec = {"question": "x?", "table_id": "mag",
               "sql": {"sel": 9, "agg": 0, "conds": []}}
        bad.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        with pytest.raises(H.DatasetError, match="outside schema"):
            H.load_dataset(bad, tables_path)

    def test_malformed_json_reports_file_and_line(self, tmp_path):
        _, tables_path = write_magazine_files(tmp_path)
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"question": oops\n', encoding="utf-8")
        with pytest.raises(H.DatasetError, match="bad.jsonl:1"):
            H.load_dataset(bad, tables_path)


    @pytest.mark.parametrize("field,table_rec,sql", [
        ("header", {"header": "ab", "types": ["text", "text"]}, None),
        ("types", {"types": "text"}, None),
        ("row 1", {"rows": [["a", "b", 1], "xyz"]}, None),
        ("rows", {"rows": "xy"}, None),
        ("sel", None, {"sel": True, "agg": 0, "conds": []}),
        ("agg", None, {"sel": 0, "agg": 0.9, "conds": []}),
        ("condition column", None, {"sel": 0, "agg": 0, "conds": [[0.7, 0, "x"]]}),
        ("condition operator", None, {"sel": 0, "agg": 0, "conds": [[1, "0", "x"]]}),
        ("condition value", None, {"sel": 0, "agg": 0, "conds": [[1, 0, {"v": 1}]]}),
        ("condition value", None, {"sel": 0, "agg": 0, "conds": [[1, 0, True]]}),
        ("condition must be", None, {"sel": 0, "agg": 0, "conds": ["1 0 x"]}),
        ("conds", None, {"sel": 0, "agg": 0, "conds": {"0": [1, 0, "x"]}}),
        ("query must be a JSON object", None, [0, 0, []]),
    ])
    def test_wrong_json_type_names_file_line_and_field(self, tmp_path, field, table_rec, sql):
        examples_path, tables_path = write_magazine_files(tmp_path)
        if table_rec is not None:
            rec = json.loads(tables_path.read_text(encoding="utf-8"))
            tables_path.write_text(json.dumps(dict(rec, **table_rec)) + "\n", encoding="utf-8")
            where = tables_path
        else:
            rec = {"question": "x?", "table_id": "mag", "sql": sql}
            examples_path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
            where = examples_path
        with pytest.raises(H.DatasetError, match=f"^{re.escape(str(where))}:1: .*{field}"):
            H.load_dataset(examples_path, tables_path)

    def test_numbers_stay_valid_condition_values(self, tmp_path):
        _, tables_path = write_magazine_files(tmp_path)
        path = tmp_path / "numbers.jsonl"
        rec = {"question": "x?", "table_id": "mag",
               "sql": {"sel": 0, "agg": 0, "conds": [[2, 0, 88.5], [2, 1, 7]]}}
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        [example], _ = H.load_dataset(path, tables_path)
        assert example.gold.conds == [(2, 0, "88.5"), (2, 1, "7")]


def fresh_text(cell):
    """An equal cell; a str one is a new object (the empty and one-letter strings are
    shared by Python itself)."""
    return cell.encode().decode() if type(cell) is str else cell


ODD_CELLS = [True, False, 1, 1.0, 0, -0.0, None, "", "1", "n/a", " Oslo "]


def spec_cells(spec):
    own = st.sampled_from(spec.pool) if spec.kind == "text" else st.integers(spec.low, spec.high)
    return own | st.sampled_from(ODD_CELLS)


@st.composite
def synth_like_files(draw):
    """Tables of one to three joined synth schemas whose text cells repeat, with odd
    cells now and then, plus queries and questions whose values come from their cells."""
    tables = []
    for i in range(draw(st.integers(1, 3))):
        joined = draw(st.lists(st.sampled_from(SCHEMAS), min_size=1, max_size=3,
                               unique_by=lambda schema: schema[0]))
        specs = [spec for _, cols in joined for spec in cols]
        rows = draw(st.lists(st.tuples(*map(spec_cells, specs)).map(list),
                             min_size=1, max_size=12))
        tables.append(Table(id=f"t{i}", header=[spec.name for spec in specs],
                            types=[spec.kind for spec in specs], rows=rows))
    asks = []
    for _ in range(draw(st.integers(1, 4))):
        table = draw(st.sampled_from(tables))
        row = draw(st.sampled_from(table.rows))
        cols = draw(st.lists(st.integers(0, table.n_columns - 1), min_size=1, max_size=3,
                             unique=True))
        conds = [(col, draw(st.integers(0, 2)), cell_text(row[col])) for col in cols]
        sel = draw(st.integers(0, table.n_columns - 1))
        query = SqlQuery(agg=draw(st.integers(0, 5)), sel=sel, conds=conds)
        question = f"what is the {table.header[sel]} when " + " and ".join(
            f"the {table.header[col]} is {val}" for col, _, val in conds) + "?"
        asks.append((table.id, query, question))
    return tables, asks


def outcome(query, table):
    try:
        return execute(query, table)
    except ExecutionError as exc:
        return str(exc)


class TestSharedTextCells:
    """load_tables keeps one object per distinct text cell of a file; nothing else changes."""

    def test_equal_text_cells_are_one_object_per_file(self, tmp_path):
        path = tmp_path / "tables.jsonl"
        H.write_tables([
            Table(id="a", header=["artist", "issue"], types=["text", "real"],
                  rows=[["mort drucker", 1], ["al jaffee", 2], ["mort drucker", 3]]),
            Table(id="b", header=["name", "artist"], types=["text", "text"],
                  rows=[["al jaffee", "mort drucker"], ["sergio", "al jaffee"]]),
        ], path)
        first = H.load_tables(path)
        cells = [(cell, id(cell)) for table in first.values() for row in table.rows
                 for cell in row if isinstance(cell, str)]
        assert len(set(cells)) == len({cell for cell, _ in cells}) == 3
        again = H.load_tables(path)
        assert again == first
        assert first["a"].rows[0][0] is first["b"].rows[0][1]
        assert again["a"].rows[0][0] is not first["a"].rows[0][0]

    def test_cell_types_and_values_are_kept(self, tmp_path):
        path = tmp_path / "tables.jsonl"
        line = ('{"id": "odd", "header": ["name", "score"], "types": ["text", "real"], '
                '"rows": [[true, "n/a"], [1, 1.0], [1.0, 1], [null, "n/a"], ["1", true], '
                '["1", null], [-0.0, 0.0], [0.0, -0.0], ["n/a", 2], ["n/a", 3]]}')
        path.write_text(line + "\n", encoding="utf-8")
        rows = H.load_tables(path)["odd"].rows
        want = json.loads(line)["rows"]
        assert [[(type(c), c, repr(c)) for c in row] for row in rows] == \
            [[(type(c), c, repr(c)) for c in row] for row in want]
        assert rows[8][0] is rows[9][0]

    @settings(max_examples=40, deadline=None)
    @given(synth_like_files())
    def test_tags_and_results_match_fresh_text_cells(self, data):
        tables, asks = data
        with tempfile.TemporaryDirectory() as folder:
            path = os.path.join(folder, "tables.jsonl")
            H.write_tables(tables, path)
            loaded = H.load_tables(path)
        fresh = {tid: Table(id=t.id, header=t.header, types=t.types,
                            rows=[[fresh_text(c) for c in row] for row in t.rows])
                 for tid, t in loaded.items()}
        for tid, table in loaded.items():
            assert table.rows == fresh[tid].rows
        for tid, query, question in asks:
            shared, own = loaded[tid], fresh[tid]
            assert outcome(query, shared) == outcome(query, own)
            a = recognize(question, shared.header, table=shared, mode="content")
            b = recognize(question, own.header, table=own, mode="content")
            assert (a.tokens, a.display_tags(shared.header)) == \
                (b.tokens, b.display_tags(own.header))


class TestFindTokenSpan:
    def test_multitoken_value(self):
        tokens = "the spoofed title with mort drucker".split()
        assert H.find_token_span(tokens, "mort drucker") == [4, 5]

    def test_absent_value(self):
        assert H.find_token_span(["a", "b"], "zz") is None

    def test_first_occurrence_wins(self):
        assert H.find_token_span(["7", "x", "7"], "7") == [0]


class TestTrainConfig:
    def test_defaults_match_stated_hyperparameters(self):
        cfg = H.TrainConfig()
        assert cfg.hidden_width == 120
        assert cfg.dropout == 0.3
        assert cfg.batch_size == 64
        assert cfg.learning_rate == 1e-3

    @pytest.mark.parametrize("kw", [{"batch_size": 0}, {"dropout": 1.0},
                                    {"hidden_width": 15}, {"mode": "telepathy"},
                                    {"eval_every": 0}, {"epochs": "2"}, {"epochs": True},
                                    {"batch_size": 2.0},
                                    {"learning_rate": 0.0}, {"learning_rate": "0.1"},
                                    {"hidden_width": "32"}, {"stop_at_train_qm": "0.9"},
                                    {"stop_at_train_qm": True}, {"stop_at_train_qm": 1.5},
                                    {"stop_at_train_qm": -0.1},
                                    {"embedding_paths": "emb.txt"},
                                    {"embedding_paths": ["emb.txt", 5]},
                                    {"gazetteer_path": ["gaz.tsv"]}, {"train_path": 5},
                                    {"dev_path": 5}, {"tables_path": 5},
                                    {"checkpoint_path": 5.0}])
    def test_validation(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            H.TrainConfig(**kw)

    @pytest.mark.parametrize("text,where", [
        ('{"hidden_width": 16,\n}\n', ":2: bad JSON"),
        ('{"hidden_width": ' + "9" * 5000 + "}\n", ": bad JSON \\(Exceeds the limit"),
    ], ids=["syntax", "digits"])
    def test_from_file_reports_json_syntax_error_with_file_and_line(self, text, where, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}{where}"):
            H.TrainConfig.from_file(path)

    @pytest.mark.parametrize("key", ["warp_factor", "decoder_max_len"])
    def test_from_file_rejects_unknown_keys(self, key, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"hidden_width": 16, key: 9}), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"unknown config keys ['{key}']")):
            H.TrainConfig.from_file(path)


class TestTotalLoss:
    def zero_model(self, n_types=4, width=8):
        emb = tiny_embeddings()
        store = K.ParamStore(seed=0)
        model = S.SketchModel(store, emb, width=width, mode="insensitive",
                              type_dim=4, dropout=0.0)
        for _, t in store.items():
            t.data[:] = 0.0
        return model, store

    def test_zero_parameters_analytic_value(self):
        # four columns, no conditions: ln4 + ln5 + ln6 + 4*ln2 (BCE at sigma(0))
        model, _ = self.zero_model()
        table = Table(id="q", header=["a", "b", "c", "d"], types=["text"] * 4, rows=[])
        example = H.Example(question="what is a?", table_id="q",
                            gold=SqlQuery(agg=0, sel=0, conds=[]))
        prep = H.prepare_example(model, example, table)
        loss, _ = H.total_loss(model, [prep])
        want = math.log(4) + math.log(5) + math.log(6) + 4 * math.log(2)
        assert loss.item() == pytest.approx(want, abs=1e-12)

    def test_finite_and_nonnegative_on_real_example(self):
        emb = tiny_embeddings()
        store = K.ParamStore(seed=3)
        model = S.SketchModel(store, emb, width=12, mode="content", dropout=0.0)
        prep = H.prepare_example(model, magazine_example(), magazine_table(),
                                 demo_gazetteer())
        loss, _ = H.total_loss(model, [prep])
        assert np.isfinite(loss.item())
        assert loss.item() >= 0.0

    def test_missing_value_span_skips_pointer_term(self):
        emb = tiny_embeddings()
        store = K.ParamStore(seed=4)
        model = S.SketchModel(store, emb, width=12, mode="insensitive",
                              type_dim=4, dropout=0.0)
        table = magazine_table()
        example = H.Example(question="what is the issue?", table_id="mag",
                            gold=SqlQuery(agg=0, sel=2, conds=[(1, 0, "unfindable name")]))
        prep = H.prepare_example(model, example, table)
        assert prep.gold_spans == [None]
        assert np.isfinite(H.total_loss(model, [prep])[0].item())

    def test_pointer_terms_match_step_oracle(self):
        model = S.SketchModel(K.ParamStore(seed=7), tiny_embeddings(), width=12, mode="content",
                              dropout=0.0)
        prep = H.prepare_example(model, magazine_example(), magazine_table(),
                                 demo_gazetteer())
        spans = prep.gold_spans
        assert spans and None not in spans
        full = H.total_loss(model, [prep])[0].item()
        prep.gold_spans = [None] * len(spans)
        without = H.total_loss(model, [prep])[0].item()

        # the teacher-forced decoder, one reference LSTM step at a time
        [(q_in, H_qt, H_col, _)] = model.read(("opval",), prep.q_parts, prep.col_matrix)
        vp = model.val_pointer
        H_ext = np.vstack([H_qt.data, vp.end.data])
        t_len = H_qt.shape[0]
        want = 0.0
        for (col, _, _), span in zip(prep.gold.conds, spans):
            h = c = np.zeros(vp.dec.hidden)
            x = vp.start.data[0]
            for target in span + [t_len]:
                h, c = ref.ref_lstm_step(x, h, c, vp.dec.Wx.data, vp.dec.Wh.data,
                                         vp.dec.b.data[0])
                scores = ref.ref_pointer_scores(H_ext, H_col.data[col], h, vp.Wqt.data,
                                                vp.Wc.data, vp.Wh.data, vp.V.data)
                want -= math.log(ref.ref_softmax_vec(scores)[target])
                if target < t_len:
                    x = q_in.data[target]
        assert full - without == pytest.approx(want, abs=1e-12)

    def test_dropout_applies_only_in_training(self):
        # dropout runs exactly when an rng is passed; at rate 0 it draws nothing
        emb = tiny_embeddings()
        held_out = {}
        for rate in (0.0, 0.5):
            model = S.SketchModel(K.ParamStore(seed=6), emb, width=12, mode="content",
                                  dropout=rate)
            prep = H.prepare_example(model, magazine_example(), magazine_table(),
                                     demo_gazetteer())
            held_out[rate] = H.total_loss(model, [prep])[0].item()
        assert H.total_loss(model, [prep])[0].item() == held_out[0.5] == held_out[0.0]
        trained, _ = H.total_loss(model, [prep], rng=np.random.default_rng(0))
        assert trained.item() != held_out[0.5]
        model.dropout = 0.0
        rng = np.random.default_rng(0)
        assert H.total_loss(model, [prep], rng=rng)[0].item() == held_out[0.0]
        assert rng.random() == np.random.default_rng(0).random()

    def test_overfitting_one_example_drives_loss_to_zero(self):
        emb = tiny_embeddings()
        store = K.ParamStore(seed=5)
        model = S.SketchModel(store, emb, width=16, mode="content", dropout=0.0)
        prep = H.prepare_example(model, magazine_example(), magazine_table(),
                                 demo_gazetteer())
        adam = K.AdamState(store, lr=5e-3)
        first = None
        for _ in range(250):
            store.zero_grad()
            loss, _ = H.total_loss(model, [prep])
            K.backward(loss)
            K.adam_step(store, adam)
            if first is None:
                first = loss.item()
        assert loss.item() < 0.05 < first


def synth_batch(tmp_path, size, seed=4):
    """A model and `size` prepared synth examples of unequal question and table sizes (the
    i-th table repeats its first i % 3 columns at the end); one condition value is made
    unlocatable, so only some conditions carry pointer terms."""
    paths = generate_corpus(tmp_path / "corpus", seed=2, n_train=size, n_dev=0)
    examples, tables = H.load_dataset(paths.train, paths.tables)
    store = K.ParamStore(seed=seed)
    model = S.SketchModel(store, load_embeddings([paths.embeddings]), width=8, mode="content",
                          dropout=0.0)
    gazetteer = Gazetteer.from_tsv(paths.gazetteer)
    preps = []
    for i, ex in enumerate(examples):
        table, extra = tables[ex.table_id], i % 3
        wider = Table(id=table.id, header=table.header + table.header[:extra],
                      types=table.types + table.types[:extra],
                      rows=[row + row[:extra] for row in table.rows])
        preps.append(H.prepare_example(model, ex, wider, gazetteer))
    with_conds = [p for p in preps if p.gold_spans]
    if len(with_conds) > 1:
        with_conds[1].gold_spans[0] = None
    return model, store, preps


class TestBatchedLoss:
    @pytest.mark.parametrize("size", [1, 3, 16])
    def test_matches_per_example_oracle(self, size, tmp_path):
        model, store, preps = synth_batch(tmp_path, size)
        if size > 1:  # ragged questions and tables
            assert len({len(p.tq.tokens) for p in preps}) > 1
            assert len({p.col_matrix.shape[0] for p in preps}) > 1
        loss, slots = H.total_loss(model, preps)
        K.backward(loss)
        grads = gradients(store)

        store.zero_grad()
        oracle = [ref.reference_total_loss(model, p) for p in preps]
        want = K.sum_all(K.concat_rows([one for one, _ in oracle]))
        K.backward(want)
        want_grads = gradients(store)
        assert loss.item() == pytest.approx(want.item() / size, rel=1e-12, abs=0)
        for slot in H.SLOTS:
            assert slots[slot] == pytest.approx(sum(terms[slot] for _, terms in oracle),
                                                rel=1e-12, abs=1e-300)
        for name, g in grads.items():
            np.testing.assert_allclose(g, want_grads[name] / size, rtol=0, atol=1e-10,
                                       err_msg=name)

    def test_loss_is_the_sum_of_the_slot_terms(self, tmp_path):
        model, _, preps = synth_batch(tmp_path, 5)
        loss, slots = H.total_loss(model, preps)
        assert set(slots) == set(H.SLOTS)
        assert all(slots[slot] > 0 for slot in H.SLOTS)
        assert loss.item() == pytest.approx(sum(slots.values()) / len(preps), rel=1e-12)


class TestParameterSharing:
    def test_six_disjoint_bilstm_sets(self):
        emb = tiny_embeddings()
        store = K.ParamStore(seed=8)
        S.SketchModel(store, emb, width=12, mode="insensitive", type_dim=4)
        prefixes = {name.rsplit(".", 2)[0] for name in store.names() if ".fw." in name or ".bw." in name}
        assert prefixes == {f"{m}.{enc}" for m in ("col", "agg", "opval")
                            for enc in ("qt", "col")}

    def test_select_loss_touches_only_column_model_encoders(self):
        # slots inside one model share its encoders; other models stay untouched
        emb = tiny_embeddings()
        store = K.ParamStore(seed=9)
        model = S.SketchModel(store, emb, width=12, mode="insensitive",
                              type_dim=4, dropout=0.0)
        table = magazine_table()
        prep = H.prepare_example(model, magazine_example(), table)
        [(_, _, H_col, H_qt_col)] = model.read(("col",), prep.q_parts, prep.col_matrix)
        loss = K.cross_entropy(S.select_scores(H_qt_col, H_col, model.select_head), 0)
        K.backward(loss)
        touched = {n for n, g in gradients(store).items() if np.abs(g).sum() > 0}
        assert any(n.startswith("col.qt.") for n in touched)
        assert any(n.startswith("col.col.") for n in touched)
        assert not any(n.startswith(("agg.", "opval.")) for n in touched)


class TestPredict:
    def test_single_column_forces_select_zero(self):
        emb = tiny_embeddings()
        store = K.ParamStore(seed=6)
        model = S.SketchModel(store, emb, width=12, mode="insensitive",
                              type_dim=4, dropout=0.0)
        table = Table(id="one", header=["only"], types=["text"], rows=[["x"]])
        query = H.predict(model, "what is the only?", table)
        assert query.sel == 0
        query.validate_against(1)

    def test_prediction_satisfies_invariants(self):
        emb = tiny_embeddings()
        store = K.ParamStore(seed=7)
        model = S.SketchModel(store, emb, width=12, mode="content", dropout=0.0)
        query = H.predict(model, MAGAZINE_QUESTION, magazine_table(), demo_gazetteer())
        query.validate_against(3)
        assert 0 <= query.agg <= 5
        assert len(query.conds) <= 4

    def test_schema_wider_than_anything_trained_on(self):
        # attention is size-agnostic; a 9-column table must just work
        emb = tiny_embeddings()
        store = K.ParamStore(seed=12)
        model = S.SketchModel(store, emb, width=12, mode="insensitive",
                              type_dim=4, dropout=0.0)
        wide = Table(id="wide", header=[f"c{i}" for i in range(9)],
                     types=["text"] * 9, rows=[[str(i) for i in range(9)]])
        query = H.predict(model, "what is the c7 when c2 is 2?", wide)
        query.validate_against(9)

    @pytest.mark.parametrize("blank", ["", "  "])
    def test_column_name_without_tokens(self, blank):
        model = S.SketchModel(K.ParamStore(seed=8), tiny_embeddings(), width=12,
                              mode="content", dropout=0.0)
        table = Table(id="blank", header=[blank, "b"], types=["text", "text"],
                      rows=[["x", "y"]])
        query = H.predict(model, "what is the b when the value is x?", table)
        query.validate_against(2)
        np.testing.assert_array_equal(model.column_matrix(table.header)[0], 0.0)

    def test_evaluating_no_examples_scores_none(self):
        model = S.SketchModel(K.ParamStore(seed=6), tiny_embeddings(), width=12,
                              mode="insensitive", type_dim=4)
        assert H.evaluate_model(model, [], {"mag": magazine_table()}).n == 0

    def test_training_evaluates_from_the_inputs_it_built(self, tmp_path):
        examples, tables = quick_corpus(tmp_path)
        cfg = H.TrainConfig(hidden_width=8, type_dim=4, dropout=0.0, batch_size=4, epochs=1,
                            seed=0, mode="insensitive", stop_at_train_qm=1.0)
        entries = []
        res = H.train(cfg, examples, tables, examples[:3], emb=tiny_embeddings(),
                      log=entries.append)
        [entry] = entries
        assert entry["train_qm"] == H.evaluate_model(res.model, examples, tables).acc_qm
        assert entry["dev_qm"] == H.evaluate_model(res.model, examples[:3], tables).acc_qm
        inputs = [H.question_inputs(res.model, ex.question, tables[ex.table_id])
                  for ex in examples]
        assert (H.evaluate_model(res.model, examples, tables, inputs=inputs)
                == H.evaluate_model(res.model, examples, tables))


def quick_corpus(tmp_path, n=8):
    """A few templated examples over the magazine table for fast train tests."""
    table = magazine_table()
    examples = []
    for artist in ("mort drucker", "al jaffee"):
        examples.append(H.Example(
            question=f"what is the spoofed title when the artist is {artist}?",
            table_id="mag",
            gold=SqlQuery(agg=0, sel=0, conds=[(1, 0, artist)])))
        examples.append(H.Example(
            question=f"how many issue when the artist is {artist}?",
            table_id="mag",
            gold=SqlQuery(agg=3, sel=2, conds=[(1, 0, artist)])))
    return examples[:n], {"mag": table}


class TestTrainLoop:
    def test_two_epochs_logs_finite_losses(self, tmp_path):
        examples, tables = quick_corpus(tmp_path)
        cfg = H.TrainConfig(hidden_width=8, type_dim=4, dropout=0.0, batch_size=4,
                            epochs=2, seed=0, mode="insensitive")
        res = H.train(cfg, examples, tables, emb=tiny_embeddings())
        assert len(res.epoch_losses) == 2
        assert all(np.isfinite(x) for x in res.epoch_losses)

    def test_log_carries_slot_losses_summing_to_loss(self, tmp_path):
        examples, tables = quick_corpus(tmp_path)
        cfg = H.TrainConfig(hidden_width=8, type_dim=4, dropout=0.3, batch_size=3,
                            epochs=2, seed=0, mode="insensitive")
        entries = []
        res = H.train(cfg, examples, tables, emb=tiny_embeddings(), log=entries.append)
        assert [e["loss"] for e in entries] == res.epoch_losses
        for entry in entries:
            assert set(entry["slot_losses"]) == set(H.SLOTS)
            assert sum(entry["slot_losses"].values()) == pytest.approx(entry["loss"], rel=1e-12)

    @pytest.mark.parametrize("train_path", [None, "train.jsonl"])
    def test_empty_training_set_raises(self, tmp_path, train_path):
        _, tables = quick_corpus(tmp_path)
        cfg = H.TrainConfig(hidden_width=8, type_dim=4, epochs=1, mode="insensitive",
                            train_path=train_path)
        where = "train.jsonl: " if train_path else ""
        with pytest.raises(ValueError, match=f"^{where}no training examples$"):
            H.train(cfg, [], tables, emb=tiny_embeddings())

    def test_identical_seeds_identical_loss_sequences(self, tmp_path):
        examples, tables = quick_corpus(tmp_path)
        cfg = H.TrainConfig(hidden_width=8, type_dim=4, dropout=0.3, batch_size=4,
                            epochs=3, seed=11, mode="insensitive")
        one = H.train(cfg, examples, tables, emb=tiny_embeddings())
        two = H.train(cfg, examples, tables, emb=tiny_embeddings())
        assert one.epoch_losses == two.epoch_losses

    def test_different_seed_changes_trajectory(self, tmp_path):
        examples, tables = quick_corpus(tmp_path)
        base = H.TrainConfig(hidden_width=8, type_dim=4, dropout=0.0, batch_size=4,
                             epochs=2, seed=1, mode="insensitive")
        other = H.TrainConfig(hidden_width=8, type_dim=4, dropout=0.0, batch_size=4,
                              epochs=2, seed=2, mode="insensitive")
        one = H.train(base, examples, tables, emb=tiny_embeddings())
        two = H.train(other, examples, tables, emb=tiny_embeddings())
        assert one.epoch_losses != two.epoch_losses

    @pytest.mark.parametrize("checkpoint", [False, True])
    def test_best_dev_is_tracked_whenever_there_is_a_dev_set(self, tmp_path, checkpoint):
        # the best dev score does not depend on a checkpoint; only the save does
        examples, tables = quick_corpus(tmp_path)
        ckpt = tmp_path / "model.tsq"
        cfg = H.TrainConfig(hidden_width=8, type_dim=4, dropout=0.0, batch_size=4,
                            epochs=3, seed=0, mode="insensitive",
                            checkpoint_path=str(ckpt) if checkpoint else None)
        entries = []
        res = H.train(cfg, examples, tables, examples[:3], emb=tiny_embeddings(),
                      log=entries.append)
        assert len(entries) == 3
        assert res.best_dev_qm == max(entry["dev_qm"] for entry in entries)
        assert isinstance(res.best_dev_qm, float)
        assert ckpt.exists() == checkpoint
        no_dev = H.train(cfg, examples, tables, emb=tiny_embeddings())
        assert no_dev.best_dev_qm is None

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_loss_stops_before_the_update(self, tmp_path, monkeypatch):
        examples, tables = quick_corpus(tmp_path)
        emb = tiny_embeddings()
        emb = EmbeddingStore(dict(emb.word_vectors, artist=np.full(emb.dim, np.nan)), emb.dim)
        updates = []
        monkeypatch.setattr(K, "adam_step", lambda store, adam: updates.append(store))
        ckpt = tmp_path / "model.tsq"
        cfg = H.TrainConfig(hidden_width=8, type_dim=4, dropout=0.0, batch_size=4,
                            epochs=1, seed=0, mode="insensitive", checkpoint_path=str(ckpt))
        with pytest.raises(ValueError, match="non-finite loss at epoch 1, batch 1"):
            H.train(cfg, examples, tables, emb=emb)
        assert updates == []
        assert not ckpt.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gradient_stops_before_the_update(self, tmp_path, monkeypatch):
        examples, tables = quick_corpus(tmp_path)
        monkeypatch.setattr(K, "sum_all", with_inf_backward(K.sum_all))  # the batch loss
        built, build_model = [], H.build_model

        def spy(config, emb):
            model, store = build_model(config, emb)
            built.append((store, {name: t.data.copy() for name, t in store.items()}))
            return model, store

        monkeypatch.setattr(H, "build_model", spy)
        ckpt = tmp_path / "model.tsq"
        cfg = H.TrainConfig(hidden_width=8, type_dim=4, dropout=0.0, batch_size=4,
                            epochs=1, seed=0, mode="insensitive", checkpoint_path=str(ckpt))
        with pytest.raises(ValueError) as info:
            H.train(cfg, examples, tables, emb=tiny_embeddings())
        [(store, before)] = built
        bad = re.fullmatch(r"non-finite gradient in (\S+) at epoch 1, batch 1",
                           str(info.value))[1]
        assert bad in store.names()
        for name, t in store.items():
            np.testing.assert_array_equal(t.data, before[name], strict=True)
        assert not ckpt.exists()

    def test_checkpoint_round_trip_reproduces_predictions(self, tmp_path):
        examples, tables = quick_corpus(tmp_path)
        ckpt = tmp_path / "model.tsq"
        cfg = H.TrainConfig(hidden_width=8, type_dim=4, dropout=0.0, batch_size=4,
                            epochs=1, seed=3, mode="insensitive",
                            checkpoint_path=str(ckpt))
        emb = tiny_embeddings()
        res = H.train(cfg, examples, tables, emb=emb)
        assert ckpt.exists()

        state = K.load_checkpoint(ckpt)
        assert list(state) == res.store.names()
        for name, arr in state.items():
            np.testing.assert_array_equal(arr, res.store[name].data, strict=True)
        before = [H.predict(res.model, ex.question, tables[ex.table_id]) for ex in examples]

        model2, store2 = H.build_model(cfg, emb)
        store2.load_state(K.load_checkpoint(ckpt))
        after = [H.predict(model2, ex.question, tables[ex.table_id]) for ex in examples]
        assert before == after

    def test_checkpoint_rejects_wrong_architecture(self, tmp_path):
        examples, tables = quick_corpus(tmp_path)
        ckpt = tmp_path / "model.tsq"
        cfg = H.TrainConfig(hidden_width=8, type_dim=4, dropout=0.0, batch_size=4,
                            epochs=1, seed=3, mode="insensitive", checkpoint_path=str(ckpt))
        emb = tiny_embeddings()
        H.train(cfg, examples, tables, emb=emb)
        wider = H.TrainConfig(hidden_width=12, type_dim=4, mode="insensitive")
        _, store = H.build_model(wider, emb)
        with pytest.raises(K.KernelError):
            store.load_state(K.load_checkpoint(ckpt))
