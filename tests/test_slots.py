import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_impls as ref
from helpers import MAGAZINE_QUESTION, demo_gazetteer, magazine_table
from test_harness import tiny_embeddings
from sketchsql import harness as H
from sketchsql import kernel as K
from sketchsql import slots as S
from sketchsql.encoder import load_embeddings
from sketchsql.synth import generate_corpus
from sketchsql.tagger import Gazetteer, recognize


def rand_states(rng, t_len=4, n_cols=3, width=8):
    H_qt = rng.normal(size=(t_len, width))
    H_col = rng.normal(size=(n_cols, width))
    return H_qt, H_col


def const(arr):
    return K.constant(arr)


class TestColumnAttention:
    def test_single_token_all_ones(self):
        rng = np.random.default_rng(0)
        H_qt, H_col = rand_states(rng, t_len=1)
        att = S.column_attention(const(H_qt), const(H_col), const(rng.normal(size=(8, 8))))
        np.testing.assert_array_equal(att.alpha.data, 1.0)
        for row in att.H_qt_col.data:
            np.testing.assert_allclose(row, H_qt[0], atol=1e-12)

    def test_zero_weight_uniform(self):
        rng = np.random.default_rng(1)
        H_qt, H_col = rand_states(rng, t_len=5)
        att = S.column_attention(const(H_qt), const(H_col), const(np.zeros((8, 8))))
        np.testing.assert_allclose(att.alpha.data, 0.2, atol=1e-12)
        for row in att.H_qt_col.data:
            np.testing.assert_allclose(row, H_qt.mean(axis=0), atol=1e-12)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(2)
        H_qt, H_col = rand_states(rng, t_len=4, n_cols=3)
        W = rng.normal(size=(8, 8))
        att = S.column_attention(const(H_qt), const(H_col), const(W))
        alpha_ref, hq_ref = ref.ref_column_attention(H_qt, H_col, W)
        np.testing.assert_allclose(att.alpha.data, alpha_ref, atol=1e-12)
        np.testing.assert_allclose(att.H_qt_col.data, hq_ref, atol=1e-12)
        np.testing.assert_allclose(att.alpha.data.sum(axis=1), 1.0, atol=1e-9)

    def test_shape_mismatch_errors(self):
        rng = np.random.default_rng(3)
        with pytest.raises(K.KernelError):
            S.column_attention(const(rng.normal(size=(4, 8))),
                               const(rng.normal(size=(3, 8))),
                               const(rng.normal(size=(7, 8))))


def select_head(rng, d=8, width=8):
    return S.SelectHead(Wc=const(rng.normal(size=(d, width))),
                        Wqt=const(rng.normal(size=(d, width))),
                        V=const(rng.normal(size=(1, d))))


def zero_select_head(d=8, width=8):
    return S.SelectHead(Wc=const(np.zeros((d, width))), Wqt=const(np.zeros((d, width))),
                        V=const(np.zeros((1, d))))


class TestSelectCol:
    def test_single_column_probability_one(self):
        rng = np.random.default_rng(4)
        H_qt, _ = rand_states(rng)
        att = S.column_attention(const(H_qt), const(rng.normal(size=(1, 8))),
                                 const(rng.normal(size=(8, 8))))
        probs = K.softmax_rows(S.select_scores(att.H_qt_col, const(rng.normal(size=(1, 8))),
                                               select_head(rng)))
        np.testing.assert_allclose(probs.data, [[1.0]], atol=1e-12)

    def test_zero_parameters_uniform(self):
        rng = np.random.default_rng(5)
        H_qt, H_col = rand_states(rng)
        probs = K.softmax_rows(S.select_scores(const(rng.normal(size=(3, 8))), const(H_col),
                                               zero_select_head()))
        np.testing.assert_allclose(probs.data, 1 / 3, atol=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            H_qt_col = rng.normal(size=(3, 8))
            H_col = rng.normal(size=(3, 8))
            head = select_head(rng)
            probs = K.softmax_rows(S.select_scores(const(H_qt_col), const(H_col), head))
            want = ref.ref_select(H_qt_col, H_col, head.Wc.data, head.Wqt.data, head.V.data)
            np.testing.assert_allclose(probs.data[0], want, atol=1e-12)


class TestCondNumber:
    def test_zero_parameters_uniform_over_five(self):
        head = S.CondNumHead(Wqt=const(np.zeros((8, 8))), V=const(np.zeros((5, 8))))
        H = const(np.random.default_rng(0).normal(size=(3, 8)))
        probs = K.softmax_rows(S.cond_number_scores(H, head))
        np.testing.assert_allclose(probs.data, 0.2, atol=1e-12)

    def test_argmax_shift_invariant(self):
        rng = np.random.default_rng(7)
        H = rng.normal(size=(3, 8))
        head = S.CondNumHead(Wqt=const(rng.normal(size=(8, 8))),
                             V=const(rng.normal(size=(5, 8))))
        logits = S.cond_number_scores(const(H), head)
        shifted = K.add(logits, const(np.full((1, 5), 3.7)))
        assert np.argmax(logits.data) == np.argmax(shifted.data)

    def test_matches_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            H = rng.normal(size=(4, 8))
            head = S.CondNumHead(Wqt=const(rng.normal(size=(8, 8))),
                                 V=const(rng.normal(size=(5, 8))))
            probs = K.softmax_rows(S.cond_number_scores(const(H), head))
            want = ref.ref_cond_number(H, head.Wqt.data, head.V.data)
            np.testing.assert_allclose(probs.data[0], want, atol=1e-12)


def cond_col_head(rng, d=8, width=8):
    return S.CondColHead(Wc=const(rng.normal(size=(d, width))),
                         Wqt=const(rng.normal(size=(d, width))),
                         Wscol=const(rng.normal(size=(d, width))),
                         V=const(rng.normal(size=(1, d))))


class TestCondCols:
    def test_k_zero_empty(self):
        rng = np.random.default_rng(9)
        H_qt_col = const(rng.normal(size=(3, 8)))
        H_col = const(rng.normal(size=(3, 8)))
        scol = const(rng.normal(size=(3, 8)))
        assert S.predict_cond_cols(H_qt_col, H_col, scol, cond_col_head(rng), [0],
                                   [3]) == [[]]

    def test_k_equals_c_returns_all_sorted(self):
        rng = np.random.default_rng(10)
        H_qt_col = rng.normal(size=(4, 8))
        H_col = rng.normal(size=(4, 8))
        scol = rng.normal(size=(4, 8))
        head = cond_col_head(rng)
        [got] = S.predict_cond_cols(const(H_qt_col), const(H_col), const(scol), head, [4], [4])
        probs = ref.ref_cond_cols(H_qt_col, H_col, scol, head.Wc.data, head.Wqt.data,
                                  head.Wscol.data, head.V.data)
        assert got == sorted(range(4), key=lambda i: (-probs[i], i))
        assert sorted(got) == [0, 1, 2, 3]

    def test_top_k_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            H_qt_col = rng.normal(size=(4, 8))
            H_col = rng.normal(size=(4, 8))
            scol = rng.normal(size=(4, 8))
            head = cond_col_head(rng)
            k = int(rng.integers(0, 5)) if 4 >= 4 else 0
            k = min(k, 4)
            [got] = S.predict_cond_cols(const(H_qt_col), const(H_col), const(scol), head, [k],
                                        [4])
            probs = ref.ref_cond_cols(H_qt_col, H_col, scol, head.Wc.data, head.Wqt.data,
                                      head.Wscol.data, head.V.data)
            want = sorted(range(4), key=lambda i: (-probs[i], i))[:k]
            assert got == want
            assert len(got) == k and len(set(got)) == k

    def test_predicted_count_never_exceeds_columns(self, monkeypatch):
        # a count head that always says four conditions, over tables of one and two columns
        scores = S.cond_number_scores
        monkeypatch.setattr(S, "cond_number_scores", lambda *args: K.add(
            scores(*args), const(np.array([[0.0, 0.0, 0.0, 0.0, 100.0]]))))
        model = S.SketchModel(K.ParamStore(seed=1), tiny_embeddings(), width=12)
        question = "what is the title with mort drucker as artist ?"
        headers = (["title"], ["title", "artist"])
        preds = [model.predict_slots(recognize(question, header), header) for header in headers]
        inputs = []
        for header in headers:
            col_matrix = model.column_matrix(header)
            inputs.append((model.question_parts(recognize(question, header), col_matrix),
                           col_matrix))
        preds += model.predict_batch(inputs)
        assert [p.cond_count for p in preds] == [1, 2, 1, 2]
        assert [sorted(p.cond_cols) for p in preds] == [[0], [0, 1], [0], [0, 1]]


class TestAgg:
    def test_zero_parameters_uniform_over_six(self):
        head = S.AggHead(Wqt=const(np.zeros((8, 8))), V=const(np.zeros((6, 8))))
        h = const(np.random.default_rng(0).normal(size=(1, 8)))
        probs = K.softmax_rows(S.agg_scores(h, head))
        np.testing.assert_allclose(probs.data, 1 / 6, atol=1e-12)

    def test_distribution_sums_to_one(self):
        rng = np.random.default_rng(13)
        head = S.AggHead(Wqt=const(rng.normal(size=(8, 8))), V=const(rng.normal(size=(6, 8))))
        probs = K.softmax_rows(S.agg_scores(const(rng.normal(size=(1, 8))), head))
        assert probs.data.sum() == pytest.approx(1.0, abs=1e-9)
        assert (probs.data >= 0).all()

    def test_matches_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            h = rng.normal(size=(1, 8))
            head = S.AggHead(Wqt=const(rng.normal(size=(8, 8))), V=const(rng.normal(size=(6, 8))))
            probs = K.softmax_rows(S.agg_scores(const(h), head))
            want = ref.ref_agg(h[0], head.Wqt.data, head.V.data)
            np.testing.assert_allclose(probs.data[0], want, atol=1e-12)


class TestOp:
    def test_zero_parameters_uniform_over_three(self):
        head = S.OpHead(Wc=const(np.zeros((8, 8))), Wqt=const(np.zeros((8, 8))),
                        Wt=const(np.zeros((3, 8))))
        ones = const(np.ones((1, 8)))
        probs = K.softmax_rows(S.op_scores(ones, ones, head))
        np.testing.assert_allclose(probs.data, 1 / 3, atol=1e-12)

    def test_three_way_output(self):
        rng = np.random.default_rng(15)
        head = S.OpHead(Wc=const(rng.normal(size=(8, 8))), Wqt=const(rng.normal(size=(8, 8))),
                        Wt=const(rng.normal(size=(3, 8))))
        probs = K.softmax_rows(S.op_scores(const(rng.normal(size=(1, 8))),
                                           const(rng.normal(size=(1, 8))), head))
        assert probs.shape == (1, 3)

    def test_matches_oracle(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            hq = rng.normal(size=(1, 8))
            hc = rng.normal(size=(1, 8))
            head = S.OpHead(Wc=const(rng.normal(size=(8, 8))),
                            Wqt=const(rng.normal(size=(8, 8))),
                            Wt=const(rng.normal(size=(3, 8))))
            probs = K.softmax_rows(S.op_scores(const(hq), const(hc), head))
            want = ref.ref_op(hq[0], hc[0], head.Wc.data, head.Wqt.data, head.Wt.data)
            np.testing.assert_allclose(probs.data[0], want, atol=1e-12)


def pointer(rng, d=8, width=8, d_in=6, forced_end=None):
    end = np.full((1, width), forced_end) if forced_end is not None else rng.normal(size=(1, width))
    return S.ValPointer(
        Wqt=const(np.eye(d)) if forced_end is not None else const(rng.normal(size=(d, width))),
        Wc=const(np.zeros((d, width))) if forced_end is not None else const(rng.normal(size=(d, width))),
        Wh=const(np.zeros((d, width))) if forced_end is not None else const(rng.normal(size=(d, width))),
        V=const(np.ones((1, d))) if forced_end is not None else const(rng.normal(size=(1, d))),
        dec=K.LstmWeights(Wx=const(rng.normal(size=(4 * width, d_in)) * 0.1),
                          Wh=const(rng.normal(size=(4 * width, width)) * 0.1),
                          b=const(np.zeros((1, 4 * width)))),
        start=const(rng.normal(size=(1, d_in))),
        end=const(end))


class TestPointerDecoder:
    def test_forced_end_gives_empty_span(self):
        rng = np.random.default_rng(17)
        H_qt = const(rng.normal(size=(4, 8)))
        q_input = const(rng.normal(size=(4, 6)))
        vp = pointer(rng, forced_end=100.0)  # saturated end row dominates every token
        assert S.decode_cond_val(H_qt, q_input, const(rng.normal(size=(1, 8))), vp) == []

    def test_suppressed_end_emits_token_zero_up_to_max_len(self):
        rng = np.random.default_rng(18)
        H_qt = const(rng.normal(size=(1, 8)))
        q_input = const(rng.normal(size=(1, 6)))
        vp = pointer(rng, forced_end=-100.0)
        assert S.decode_cond_val(H_qt, q_input, const(rng.normal(size=(1, 8))), vp,
                                 max_len=3) == [0, 0, 0]

    def test_greedy_matches_step_by_step_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            t_len = int(rng.integers(2, 5))
            H_qt = rng.normal(size=(t_len, 8))
            q_input = rng.normal(size=(t_len, 6))
            h_col = rng.normal(size=(1, 8))
            vp = pointer(rng)
            got = S.decode_cond_val(const(H_qt), const(q_input), const(h_col), vp, max_len=6)

            # independent simulation of the same recurrence
            H_ext = np.vstack([H_qt, vp.end.data])
            h = np.zeros(8)
            c = np.zeros(8)
            x = vp.start.data[0]
            want = []
            for _step in range(6):
                h, c = ref.ref_lstm_step(x, h, c, vp.dec.Wx.data, vp.dec.Wh.data, vp.dec.b.data[0])
                scores = ref.ref_pointer_scores(H_ext, h_col[0], h, vp.Wqt.data, vp.Wc.data,
                                                vp.Wh.data, vp.V.data)
                choice = int(np.argmax(scores))
                if choice == t_len:
                    break
                want.append(choice)
                x = q_input[choice]
            assert got == want

    def test_never_emits_out_of_range_or_overruns(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            t_len = int(rng.integers(1, 6))
            H_qt = const(rng.normal(size=(t_len, 8)))
            q_input = const(rng.normal(size=(t_len, 6)))
            vp = pointer(rng)
            out = S.decode_cond_val(H_qt, q_input, const(rng.normal(size=(1, 8))), vp, max_len=5)
            assert len(out) <= 5
            assert all(0 <= i < t_len for i in out)

    def test_one_loop_over_ragged_questions_matches_each_condition_alone(self):
        rng = np.random.default_rng(21)
        q_lens = [3, 1, 5, 2]
        owners = [2, 0, 2, 3, 1, 2]
        H_qt = rng.normal(size=(sum(q_lens), 8))
        q_input = rng.normal(size=(sum(q_lens), 6))
        h_cols = rng.normal(size=(len(owners), 8))
        q_at = np.cumsum(q_lens) - q_lens
        lengths = set()
        for _ in range(5):
            vp = pointer(rng)
            got = S.decode_cond_vals(const(H_qt), const(q_input), const(h_cols), vp, 4, q_lens,
                                     owners)
            for j, i in enumerate(owners):
                rows = slice(q_at[i], q_at[i] + q_lens[i])
                assert got[j] == S.decode_cond_val(const(H_qt[rows]), const(q_input[rows]),
                                                   const(h_cols[j : j + 1]), vp, 4)
            lengths.update(map(len, got))
        assert {0, 4} < lengths  # conditions leave the loop at different steps, some at the cap


class TestSegmentArgmax:
    # small integers, so that ties within a segment are common
    @given(st.lists(st.lists(st.integers(-2, 2), min_size=1, max_size=6), min_size=1,
                    max_size=8))
    def test_first_maximum_of_each_segment(self, segments):
        z = np.array([v for seg in segments for v in seg], dtype=float)
        got = S._segment_argmax(z, [len(seg) for seg in segments])
        assert got == [int(np.argmax(seg)) for seg in segments]


class TestSlotPredictionInvariants:
    def test_parallel_lists_enforced(self):
        with pytest.raises(ValueError, match="parallel"):
            S.SlotPrediction(select_col=0, agg=0, cond_count=1, cond_cols=[1],
                             cond_ops=[], cond_val_spans=[[0]])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            S.SlotPrediction(select_col=0, agg=0, cond_count=2, cond_cols=[1, 1],
                             cond_ops=[0, 0], cond_val_spans=[[0], [0]])

    def test_count_bounds(self):
        with pytest.raises(ValueError, match="outside"):
            S.SlotPrediction(select_col=0, agg=0, cond_count=5, cond_cols=[0, 1, 2, 3, 4],
                             cond_ops=[0] * 5, cond_val_spans=[[0]] * 5)


LOGITS = ("select_scores", "cond_number_scores", "cond_col_scores", "agg_scores", "op_scores",
          "pointer_step")


def record_logits(monkeypatch):
    """Make every slot-logit function of S append (name, logits) to the returned list."""
    log = []
    for name in LOGITS:
        def logged(*args, fn=getattr(S, name), name=name):
            out = fn(*args)
            log.append((name, out.data.copy()))
            return out

        monkeypatch.setattr(S, name, logged)
    return log


def logged_predictions(model, questions, monkeypatch):
    """predict_slots on each (tagged question, header), with every slot logit recorded."""
    log = record_logits(monkeypatch)
    preds = [model.predict_slots(tq, header) for tq, header in questions]
    monkeypatch.undo()
    return preds, log


def magazine_questions():
    # seed 1 predicts three conditions, with empty and non-empty value spans
    model = S.SketchModel(K.ParamStore(seed=1), tiny_embeddings(), width=12, mode="content")
    table = magazine_table()
    tq = recognize(MAGAZINE_QUESTION, table.header, table=table, mode="content",
                   gazetteer=demo_gazetteer())
    return model, [(tq, table.header)]


def synth_questions(tmp_path):
    paths = generate_corpus(tmp_path / "corpus", seed=4, n_train=30, n_dev=0)
    examples, tables = H.load_dataset(paths.train, paths.tables)
    gazetteer = Gazetteer.from_tsv(paths.gazetteer)
    model = S.SketchModel(K.ParamStore(seed=5), load_embeddings([paths.embeddings]), width=16,
                          mode="content")
    questions = []
    for ex in examples:
        table = tables[ex.table_id]
        questions.append((recognize(ex.question, table.header, table=table, mode="content",
                                    gazetteer=gazetteer), table.header))
    return model, questions


class TestGroupedRead:
    @pytest.mark.parametrize("sample", ["magazine", "synth"])
    def test_three_model_read_matches_each_model_alone(self, sample, tmp_path, monkeypatch):
        if sample == "magazine":
            model, questions = magazine_questions()
        else:
            model, questions = synth_questions(tmp_path)
        grouped, grouped_log = logged_predictions(model, questions, monkeypatch)

        read = model.read

        def read_each_alone(which, *args):
            return [read((name,), *args)[0] for name in which]

        monkeypatch.setattr(model, "read", read_each_alone)
        alone, alone_log = logged_predictions(model, questions, monkeypatch)

        assert grouped == alone
        assert [name for name, _ in grouped_log] == [name for name, _ in alone_log]
        assert {name for name, _ in grouped_log} == set(LOGITS)
        for (name, got), (_, want) in zip(grouped_log, alone_log):
            np.testing.assert_array_equal(got, want, err_msg=name)


def split_logits(log, preds, q_lens, c_lens, cap):
    """Each question's logits per head, cut out of the rows one predict_batch call logged:
    select scores by its columns, condition counts and aggregators by its row, condition-
    column scores by its columns where it has conditions, operators by its conditions' rows,
    and pointer scores per condition and step (a condition stays in the decoding loop for
    its tokens plus the end step, or up to the cap)."""
    c_at = np.cumsum(c_lens) - c_lens
    out = {name: [[] for _ in preds] for name in LOGITS}
    conds = [(i, q_lens[i] + 1, min(len(span) + 1, cap)) for i, p in enumerate(preds)
             for span in p.cond_val_spans]
    n_steps = 0
    for name, z in log:
        if name in ("select_scores", "cond_col_scores"):
            for i, p in enumerate(preds):
                if name == "select_scores" or p.cond_count:
                    out[name][i].append(z[0, c_at[i] : c_at[i] + c_lens[i]])
        elif name in ("cond_number_scores", "agg_scores"):
            for i in range(len(preds)):
                out[name][i].append(z[i])
        elif name == "op_scores":
            for (i, _, _), row in zip(conds, z):
                out[name][i].append(row)
        else:
            at = 0
            for i, width, steps in conds:
                if steps > n_steps:
                    out[name][i].append(z[0, at : at + width])
                    at += width
            assert at == z.shape[1]
            n_steps += 1
    return out


def logged_batches(model, inputs, size, monkeypatch):
    """predict_batch over consecutive batches of `size` inputs, with each question's
    logits per head."""
    preds, logits = [], {name: [] for name in LOGITS}
    for at in range(0, len(inputs), size):
        batch = inputs[at : at + size]
        log = record_logits(monkeypatch)
        got = model.predict_batch(batch)
        monkeypatch.undo()
        per_question = split_logits(log, got, [len(p[1]) for p, _ in batch],
                                    [cols.shape[0] for _, cols in batch], model.decoder_max_len)
        for name in LOGITS:
            logits[name] += per_question[name]
        preds += got
    return preds, logits


class TestBatchedPrediction:
    @pytest.mark.parametrize("mode", ["content", "insensitive"])
    def test_batches_match_one_question_at_a_time(self, mode, tmp_path, monkeypatch):
        paths = generate_corpus(tmp_path / "corpus", seed=6, n_train=48, n_dev=0)
        examples, tables = H.load_dataset(paths.train, paths.tables)
        gazetteer = Gazetteer.from_tsv(paths.gazetteer)
        config = H.TrainConfig(hidden_width=16, type_dim=None if mode == "content" else 8,
                               dropout=0.0, batch_size=16, learning_rate=0.01, epochs=16,
                               seed=2, mode=mode)
        model = H.train(config, examples, tables, emb=load_embeddings([paths.embeddings]),
                        gazetteer=gazetteer).model
        # a low cap, and a lower end-state score, so that some values run to the cap
        model.decoder_max_len = 3
        vp = model.val_pointer
        vp.end.data = vp.end.data - 0.3 * np.sign(vp.V.data @ vp.Wqt.data)
        examples = examples[:16]
        inputs = [H.question_inputs(model, ex.question, tables[ex.table_id], gazetteer)[1:]
                  for ex in examples]
        alone, alone_logits = logged_batches(model, inputs, 1, monkeypatch)
        assert alone == [model.predict_slots(
            recognize(ex.question, tables[ex.table_id].header, table=tables[ex.table_id],
                      mode=mode, gazetteer=gazetteer), tables[ex.table_id].header)
            for ex in examples]
        counts = [p.cond_count for p in alone]
        assert 0 in counts and max(counts) > 1
        lengths = {len(span) for p in alone for span in p.cond_val_spans}
        assert model.decoder_max_len in lengths and min(lengths) < model.decoder_max_len
        for size in (3, 16):
            batched, batched_logits = logged_batches(model, inputs, size, monkeypatch)
            assert batched == alone
            for name in LOGITS:
                got, want = batched_logits[name], alone_logits[name]
                assert [len(rows) for rows in got] == [len(rows) for rows in want]
                for rows_got, rows_want in zip(got, want):
                    for g, w in zip(rows_got, rows_want):
                        np.testing.assert_allclose(g, w, rtol=1e-12, atol=0, err_msg=name)
