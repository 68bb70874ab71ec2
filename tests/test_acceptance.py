"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The learnability criterion trains a real model and takes a few
minutes single-threaded; everything else is fast.
"""

import json
import random
import time
from types import SimpleNamespace

import numpy as np

import reference_impls as ref
from helpers import (MAGAZINE_CONTENT_TAGS, MAGAZINE_QUESTION, demo_gazetteer,
                     finite_diff_grad, gradients, magazine_table)
from test_executor import random_query, random_table, to_comparable
from sketchsql import harness as H
from sketchsql import kernel as K
from sketchsql import slots as S
from sketchsql.cli import main as cli_main
from sketchsql.encoder import EmbeddingStore, load_embeddings
from sketchsql.executor import evaluate_dataset, exec_equal, execute
from sketchsql.sketch import SqlQuery, assemble, canonical_equal
from sketchsql.synth import generate_corpus
from sketchsql.tagger import Gazetteer, recognize


def report(number, name):
    print(f"\nACCEPTANCE {number} {name}: PASS")


class TestCriterion1GradientCorrectness:
    def test_full_model_gradients_match_finite_differences(self):
        # bidirectional width 16, T == 6 question tokens, C == 3 columns, float64
        started = time.monotonic()
        rng = np.random.default_rng(0)
        vocab = "title with mort drucker 88.5 ? spoofed artist issue".split()
        emb = EmbeddingStore({t: rng.normal(size=4) for t in vocab}, 4)
        store = K.ParamStore(seed=1)
        model = S.SketchModel(store, emb, width=16, mode="content", dropout=0.0)

        table = magazine_table()
        example = H.Example(
            question="title with mort drucker 88.5?", table_id="mag",
            gold=SqlQuery(agg=1, sel=2, conds=[(1, 0, "mort drucker"), (2, 1, "88.5")]))
        prep = H.prepare_example(model, example, table, demo_gazetteer())
        assert len(prep.tq.tokens) == 6
        assert prep.gold_spans == [[2, 3], [4]]

        store.zero_grad()
        loss, _ = H.total_loss(model, [prep])
        K.backward(loss)
        reverse_mode = gradients(store)

        fd = finite_diff_grad(lambda s: H.total_loss(model, [prep])[0].item(),
                              store, eps=1e-5)

        worst = 0.0
        for name in store.names():
            a, b = reverse_mode[name], fd[name]
            denom = max(1.0, np.max(np.abs(a)), np.max(np.abs(b)))
            worst = max(worst, np.max(np.abs(a - b)) / denom)
        elapsed = time.monotonic() - started
        assert worst <= 1e-6, f"max relative gradient error {worst:.3e}"
        assert elapsed <= 60.0, f"gradient check took {elapsed:.1f}s"
        report(1, f"gradient-correctness (max rel err {worst:.2e}, {elapsed:.1f}s)")


class TestCriterion2EquationFidelity:
    N = 100
    TOL = 1e-12

    def test_all_slot_formulas_match_straight_line_oracles(self):
        rng = np.random.default_rng(42)
        width, d = 8, 8
        for _ in range(self.N):
            t_len = int(rng.integers(1, 7))
            n_cols = int(rng.integers(1, 5))
            H_qt = rng.normal(size=(t_len, width))
            H_col = rng.normal(size=(n_cols, width))
            W_ct = rng.normal(size=(width, width))

            att = S.column_attention(K.constant(H_qt), K.constant(H_col), K.constant(W_ct))
            alpha_ref, hqc_ref = ref.ref_column_attention(H_qt, H_col, W_ct)
            np.testing.assert_allclose(att.alpha.data, alpha_ref, atol=self.TOL)
            np.testing.assert_allclose(att.H_qt_col.data, hqc_ref, atol=self.TOL)
            hqc = att.H_qt_col.data

            sel_head = S.SelectHead(Wc=K.constant(rng.normal(size=(d, width))),
                                    Wqt=K.constant(rng.normal(size=(d, width))),
                                    V=K.constant(rng.normal(size=(1, d))))
            got = K.softmax_rows(S.select_scores(K.constant(hqc), K.constant(H_col), sel_head))
            want = ref.ref_select(hqc, H_col, sel_head.Wc.data, sel_head.Wqt.data,
                                  sel_head.V.data)
            np.testing.assert_allclose(got.data[0], want, atol=self.TOL)

            num_head = S.CondNumHead(Wqt=K.constant(rng.normal(size=(d, width))),
                                     V=K.constant(rng.normal(size=(5, d))))
            got = K.softmax_rows(S.cond_number_scores(K.constant(hqc), num_head))
            want = ref.ref_cond_number(hqc, num_head.Wqt.data, num_head.V.data)
            np.testing.assert_allclose(got.data[0], want, atol=self.TOL)

            scol = np.repeat(hqc[int(rng.integers(0, n_cols))][None, :], n_cols, axis=0)
            col_head = S.CondColHead(Wc=K.constant(rng.normal(size=(d, width))),
                                     Wqt=K.constant(rng.normal(size=(d, width))),
                                     Wscol=K.constant(rng.normal(size=(d, width))),
                                     V=K.constant(rng.normal(size=(1, d))))
            got = K.softmax_rows(S.cond_col_scores(K.constant(hqc), K.constant(H_col),
                                                   K.constant(scol), col_head))
            want = ref.ref_cond_cols(hqc, H_col, scol, col_head.Wc.data, col_head.Wqt.data,
                                     col_head.Wscol.data, col_head.V.data)
            np.testing.assert_allclose(got.data[0], want, atol=self.TOL)

            agg_head = S.AggHead(Wqt=K.constant(rng.normal(size=(d, width))),
                                 V=K.constant(rng.normal(size=(6, d))))
            row = hqc[0:1]
            got = K.softmax_rows(S.agg_scores(K.constant(row), agg_head))
            want = ref.ref_agg(row[0], agg_head.Wqt.data, agg_head.V.data)
            np.testing.assert_allclose(got.data[0], want, atol=self.TOL)

            op_head = S.OpHead(Wc=K.constant(rng.normal(size=(d, width))),
                               Wqt=K.constant(rng.normal(size=(d, width))),
                               Wt=K.constant(rng.normal(size=(3, d))))
            got = K.softmax_rows(S.op_scores(K.constant(hqc[0:1]), K.constant(H_col[0:1]),
                                             op_head))
            want = ref.ref_op(hqc[0], H_col[0], op_head.Wc.data, op_head.Wqt.data,
                              op_head.Wt.data)
            np.testing.assert_allclose(got.data[0], want, atol=self.TOL)

            vp = S.ValPointer(
                Wqt=K.constant(rng.normal(size=(d, width))),
                Wc=K.constant(rng.normal(size=(d, width))),
                Wh=K.constant(rng.normal(size=(d, width))),
                V=K.constant(rng.normal(size=(1, d))),
                dec=K.LstmWeights(Wx=K.constant(rng.normal(size=(4 * width, 5))),
                                  Wh=K.constant(rng.normal(size=(4 * width, width))),
                                  b=K.constant(rng.normal(size=(1, 4 * width)))),
                start=K.constant(rng.normal(size=(1, 5))),
                end=K.constant(rng.normal(size=(1, width))))
            context = S.pointer_context(vp, K.constant(H_qt), K.constant(H_col[0:1]))
            zeros = K.constant(np.zeros((1, width)))
            h, _ = K.lstm_step(vp.start, zeros, zeros, vp.dec)
            scores = S.pointer_step(vp, context, h)
            h_ref, _ = ref.ref_lstm_step(vp.start.data[0], np.zeros(width), np.zeros(width),
                                         vp.dec.Wx.data, vp.dec.Wh.data, vp.dec.b.data[0])
            H_ext = np.vstack([H_qt, vp.end.data])
            v_ref = ref.ref_pointer_scores(H_ext, H_col[0], h_ref, vp.Wqt.data, vp.Wc.data,
                                           vp.Wh.data, vp.V.data)
            np.testing.assert_allclose(K.softmax_rows(scores).data[0],
                                       ref.ref_softmax_vec(v_ref), atol=self.TOL)
        report(2, f"equation-fidelity ({self.N} random instances per predictor, 1e-12)")


class TestCriterion3TypeRecognition:
    def test_worked_example_both_modes(self, tmp_path, capsys):
        table = magazine_table()
        gaz = demo_gazetteer()

        content = recognize(MAGAZINE_QUESTION, table.header, table=table,
                            mode="content", gazetteer=gaz)
        assert content.display_tags(table.header) == MAGAZINE_CONTENT_TAGS

        plain = recognize(MAGAZINE_QUESTION, table.header, mode="insensitive", gazetteer=gaz)
        tags = plain.display_tags(table.header)
        tokens = plain.tokens
        assert tags[tokens.index("mort")] == tags[tokens.index("drucker")] == "person"
        assert tags[tokens.index("88.5")] == "float"
        assert tags[tokens.index("spoofed")] == tags[tokens.index("title")] == "column"
        assert tags[tokens.index("artist")] == "column"
        assert tags[tokens.index("issue")] == "column"

        # the same sequence through the CLI surface
        tables_path = tmp_path / "tables.jsonl"
        H.write_tables({"mag": table}, tables_path)
        code = cli_main(["tag", "--question", MAGAZINE_QUESTION, "--tables",
                         str(tables_path), "--table-id", "mag", "--mode", "content"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == MAGAZINE_CONTENT_TAGS
        report(3, "type-recognition fidelity (content sequence + insensitive tags)")


class TestCriterion4ExecutorOracle:
    def test_thousand_fuzzed_pairs_zero_mismatches(self):
        started = time.monotonic()
        rnd = random.Random(424242)
        mismatches = 0
        for _ in range(1000):
            table = random_table(rnd)
            query = random_query(rnd, table)
            kind, payload = ref.reference_execute(query, table)
            got = execute(query, table)
            if kind == "rows":
                ok = to_comparable(got) == ("rows", sorted(map(str, payload)))
            elif kind == "scalar":
                if isinstance(payload, str):
                    ok = got.kind == "scalar" and got.scalar == payload
                else:
                    ok = got.kind == "scalar" and abs(got.scalar - payload) < 1e-12
            else:
                ok = got.kind == kind
            mismatches += not ok
        elapsed = time.monotonic() - started
        assert mismatches == 0
        assert elapsed <= 30.0, f"executor fuzzing took {elapsed:.1f}s"
        report(4, f"executor-oracle equivalence (1000 pairs, {elapsed:.1f}s)")


class TestCriterion5MetricProperties:
    def test_condition_permutation_and_canonical_execution(self):
        rnd = random.Random(5)
        table = magazine_table()
        tables = {"mag": table}

        checked = 0
        while checked < 50:
            gold = SqlQuery(agg=rnd.choice([0, 3]), sel=rnd.randrange(3),
                            conds=[(1, 0, "mort drucker"), (2, rnd.choice([1, 2]), "100")])
            permuted = SqlQuery(agg=gold.agg, sel=gold.sel, conds=list(reversed(gold.conds)))
            m = evaluate_dataset([permuted], [gold], ["mag"], tables)
            assert m.acc_qm == 1.0 and m.acc_where == 1.0
            assert m.acc_lf == 0.0  # order-sensitive string form breaks
            checked += 1

        # canonical_equal implies exec_equal on fuzzed pairs
        for _ in range(300):
            ftable = random_table(rnd)
            query = random_query(rnd, ftable)
            jittered = []
            for col, op, val in query.conds:
                val = val.upper() if rnd.random() < 0.5 else val
                val = f"  {val}" if rnd.random() < 0.5 else f"{val} "
                jittered.append((col, op, val))
            rnd.shuffle(jittered)
            other = SqlQuery(agg=query.agg, sel=query.sel, conds=jittered)
            assert canonical_equal(query, other)
            assert exec_equal(execute(query, ftable), execute(other, ftable))

        # assemble never exceeds the sketch's four-condition cap
        for n in range(1, 9):
            pred = SimpleNamespace(select_col=0, agg=0, cond_cols=list(range(n)),
                                   cond_ops=[0] * n, cond_val_spans=[[0]] * n)
            assert len(assemble(pred, ["x"]).conds) <= 4
        report(5, "metric properties (permutation, canonical=>exec, cond cap)")


class TestCriterion6Learnability:
    def test_synthetic_corpus_training(self, tmp_path):
        started = time.monotonic()
        paths = generate_corpus(tmp_path / "corpus", seed=0, n_train=480, n_dev=60)
        train_examples, tables = H.load_dataset(paths.train, paths.tables)
        dev_examples, _ = H.load_dataset(paths.dev, paths.tables)
        assert len(train_examples) >= 200
        assert len(tables) >= 10
        emb = load_embeddings([paths.embeddings])
        assert emb.dim == 50
        gaz = Gazetteer.from_tsv(paths.gazetteer)

        config = H.TrainConfig(hidden_width=32, mode="content", dropout=0.0,
                               batch_size=16, learning_rate=2e-3, epochs=300,
                               seed=0, eval_every=10, stop_at_train_qm=0.97,
                               checkpoint_path=str(tmp_path / "model.tsq"))
        result = H.train(config, train_examples, tables, dev_examples=dev_examples,
                         emb=emb, gazetteer=gaz)
        elapsed = time.monotonic() - started

        train_qm = H.evaluate_model(result.model, train_examples, tables, gaz).acc_qm
        dev_qm = H.evaluate_model(result.model, dev_examples, tables, gaz).acc_qm
        assert len(result.epoch_losses) <= 300
        assert train_qm >= 0.95, f"train Acc_qm {train_qm:.3f}"
        assert dev_qm >= 0.70, f"held-out Acc_qm {dev_qm:.3f}"
        assert elapsed <= 600.0, f"training took {elapsed:.0f}s"
        report(6, f"learnability (train qm {train_qm:.3f}, dev qm {dev_qm:.3f}, "
                  f"{len(result.epoch_losses)} epochs, {elapsed:.0f}s)")


class TestCriterion7Determinism:
    def test_identical_seed_identical_epoch_losses(self, tmp_path):
        paths = generate_corpus(tmp_path / "corpus", seed=3, n_train=24, n_dev=4)
        examples, tables = H.load_dataset(paths.train, paths.tables)
        emb = load_embeddings([paths.embeddings])
        gaz = Gazetteer.from_tsv(paths.gazetteer)
        config = H.TrainConfig(hidden_width=12, mode="content", dropout=0.3,
                               batch_size=8, epochs=4, seed=9)
        one = H.train(config, examples, tables, emb=emb, gazetteer=gaz)
        two = H.train(config, examples, tables, emb=emb, gazetteer=gaz)
        assert one.epoch_losses == two.epoch_losses  # bitwise float64 equality
        report(7, "determinism (identical epoch-loss sequences)")


class TestCriterion8FullScalePath:
    def test_harness_runs_end_to_end_on_supplied_data(self, tmp_path, capsys):
        # Paper-scale accuracies need the full public dataset and large
        # embeddings; no threshold is asserted here. This drives the same
        # train/eval path on stand-in files of the same formats.
        paths = generate_corpus(tmp_path / "corpus", seed=1, n_train=16, n_dev=4)
        config = {
            "hidden_width": 8, "dropout": 0.3, "batch_size": 8, "epochs": 1,
            "seed": 0, "mode": "insensitive", "type_dim": 10,
            "embedding_paths": [str(paths.embeddings)],
            "gazetteer_path": str(paths.gazetteer),
            "train_path": str(paths.train), "dev_path": str(paths.dev),
            "tables_path": str(paths.tables),
            "checkpoint_path": str(tmp_path / "model.tsq"),
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert cli_main(["train", "--config", str(config_path)]) == 0
        capsys.readouterr()
        assert cli_main(["eval", "--examples", str(paths.dev),
                         "--tables", str(paths.tables),
                         "--checkpoint", str(tmp_path / "model.tsq"),
                         "--config", str(config_path)]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert set(metrics) == {"n", "acc_lf", "acc_qm", "acc_ex",
                                "acc_agg", "acc_sel", "acc_where"}
        report(8, "full-scale path (end-to-end run, six metrics reported, "
                  "paper-scale accuracies not asserted at desk scale)")
