import json
import math
import re

import numpy as np
import pytest

import reference_impls as ref
from helpers import (MAGAZINE_GOLD_SQL, MAGAZINE_QUESTION, demo_gazetteer,
                     magazine_table)
from sketchsql import harness as H
from sketchsql import kernel as K
from sketchsql import slots as S
from sketchsql.encoder import EmbeddingStore
from sketchsql.encoder import load_embeddings
from sketchsql.sketch import SqlQuery
from sketchsql.synth import generate_corpus
from sketchsql.tables import Table
from sketchsql.tagger import Gazetteer


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
        loss, _ = H.total_loss(model, [prep], training=False)
        want = math.log(4) + math.log(5) + math.log(6) + 4 * math.log(2)
        assert loss.item() == pytest.approx(want, abs=1e-12)

    def test_finite_and_nonnegative_on_real_example(self):
        emb = tiny_embeddings()
        store = K.ParamStore(seed=3)
        model = S.SketchModel(store, emb, width=12, mode="content", dropout=0.0)
        prep = H.prepare_example(model, magazine_example(), magazine_table(),
                                 demo_gazetteer())
        loss, _ = H.total_loss(model, [prep], training=False)
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
        assert np.isfinite(H.total_loss(model, [prep], training=False)[0].item())

    def test_pointer_terms_match_step_oracle(self):
        model = S.SketchModel(K.ParamStore(seed=7), tiny_embeddings(), width=12, mode="content",
                              dropout=0.0)
        prep = H.prepare_example(model, magazine_example(), magazine_table(),
                                 demo_gazetteer())
        spans = prep.gold_spans
        assert spans and None not in spans
        full = H.total_loss(model, [prep], training=False)[0].item()
        prep.gold_spans = [None] * len(spans)
        without = H.total_loss(model, [prep], training=False)[0].item()

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
        emb = tiny_embeddings()
        model = S.SketchModel(K.ParamStore(seed=6), emb, width=12, mode="content", dropout=0.5)
        prep = H.prepare_example(model, magazine_example(), magazine_table(),
                                 demo_gazetteer())
        held_out = H.total_loss(model, [prep], training=False)[0].item()
        assert H.total_loss(model, [prep], training=False)[0].item() == held_out
        trained, _ = H.total_loss(model, [prep], training=True, rng=np.random.default_rng(0))
        assert trained.item() != held_out

    def test_overfitting_one_example_drives_loss_to_zero(self):
        emb = tiny_embeddings()
        store = K.ParamStore(seed=5)
        model = S.SketchModel(store, emb, width=16, mode="content", dropout=0.0)
        prep = H.prepare_example(model, magazine_example(), magazine_table(),
                                 demo_gazetteer())
        adam = K.AdamState(lr=5e-3)
        first = None
        for _ in range(250):
            store.zero_grad()
            loss, _ = H.total_loss(model, [prep], training=False)
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
        loss, slots = H.total_loss(model, preps, training=False)
        grads = K.backward(loss, store)

        store.zero_grad()
        oracle = [ref.reference_total_loss(model, p) for p in preps]
        want = K.sum_all(K.concat_rows([one for one, _ in oracle]))
        want_grads = K.backward(want, store)
        assert loss.item() == pytest.approx(want.item() / size, rel=1e-12, abs=0)
        for slot in H.SLOTS:
            assert slots[slot] == pytest.approx(sum(terms[slot] for _, terms in oracle),
                                                rel=1e-12, abs=1e-300)
        for name, g in grads.items():
            np.testing.assert_allclose(g, want_grads[name] / size, rtol=0, atol=1e-10,
                                       err_msg=name)

    def test_loss_is_the_sum_of_the_slot_terms(self, tmp_path):
        model, _, preps = synth_batch(tmp_path, 5)
        loss, slots = H.total_loss(model, preps, training=False)
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
        grads = K.backward(loss, store)
        touched = {n for n, g in grads.items() if np.abs(g).sum() > 0}
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

    def test_checkpoint_round_trip_reproduces_predictions(self, tmp_path):
        examples, tables = quick_corpus(tmp_path)
        ckpt = tmp_path / "model.tsq"
        cfg = H.TrainConfig(hidden_width=8, type_dim=4, dropout=0.0, batch_size=4,
                            epochs=1, seed=3, mode="insensitive",
                            checkpoint_path=str(ckpt))
        emb = tiny_embeddings()
        res = H.train(cfg, examples, tables, emb=emb)
        assert ckpt.exists()

        # cast the trained store through the float32 wire format once, then
        # a reload must reproduce identical predictions
        res.store.load_state(K.load_checkpoint(ckpt))
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
