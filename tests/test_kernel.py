import io
import struct
import zipfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import finite_diff_grad, gradients
from sketchsql import kernel as K


def naive_softmax_rows(m):
    """Independent log-sum-exp-free reference: plain exp / normalize in float64."""
    m = np.asarray(m, dtype=np.float64)
    e = np.exp(m)
    return e / e.sum(axis=1, keepdims=True)


def scalar_lstm_step(x, h, c, wx, wh, b):
    """Straight-line scalar reference of the gate recurrence."""
    hid = len(h)
    pre = wx @ x + wh @ h + b

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    i = sig(pre[:hid])
    f = sig(pre[hid : 2 * hid])
    g = np.tanh(pre[2 * hid : 3 * hid])
    o = sig(pre[3 * hid :])
    c2 = f * c + i * g
    h2 = o * np.tanh(c2)
    return h2, c2


def make_lstm_weights(rng, d_in, hid):
    return K.LstmWeights(
        Wx=K.Tensor(rng.normal(size=(4 * hid, d_in)), requires_grad=True),
        Wh=K.Tensor(rng.normal(size=(4 * hid, hid)), requires_grad=True),
        b=K.Tensor(rng.normal(size=(1, 4 * hid)), requires_grad=True),
    )


def zero_lstm_weights(d_in, hid):
    return K.LstmWeights(
        Wx=K.constant(np.zeros((4 * hid, d_in))),
        Wh=K.constant(np.zeros((4 * hid, hid))),
        b=K.constant(np.zeros((1, 4 * hid))),
    )


class TestSoftmaxRows:
    def test_uniform_logits(self):
        out = K.softmax_rows(K.constant([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_log_two_ratio(self):
        out = K.softmax_rows(K.constant([[np.log(2.0), 0.0]]))
        np.testing.assert_allclose(out.data, [[2 / 3, 1 / 3]], atol=1e-15)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(4, 7))
        out = K.softmax_rows(K.constant(m))
        np.testing.assert_allclose(out.data, naive_softmax_rows(m), atol=1e-12)

    def test_masked_entries_exactly_zero(self):
        mask = np.array([[True, False, True]])
        out = K.softmax_rows(K.constant([[1.0, 100.0, 2.0]]), mask=mask)
        assert out.data[0, 1] == 0.0
        assert out.data[0].sum() == pytest.approx(1.0, abs=1e-9)

    def test_fully_masked_row_errors(self):
        with pytest.raises(K.KernelError, match="empty softmax row"):
            K.softmax_rows(K.constant([[1.0, 2.0]]), mask=np.array([[False, False]]))

    @given(st.lists(st.lists(st.floats(-50, 50), min_size=2, max_size=6), min_size=1, max_size=5).filter(
        lambda rows: len({len(r) for r in rows}) == 1))
    def test_rows_sum_to_one(self, rows):
        out = K.softmax_rows(K.constant(rows))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)


class TestLstm:
    def test_zero_weights_zero_state(self):
        w = zero_lstm_weights(3, 4)
        h, c = K.lstm_step(K.constant(np.zeros((1, 3))), K.constant(np.zeros((1, 4))),
                           K.constant(np.zeros((1, 4))), w)
        np.testing.assert_array_equal(h.data, 0.0)
        np.testing.assert_array_equal(c.data, 0.0)

    def test_saturated_forget_gate_preserves_cell(self):
        hid = 3
        w = zero_lstm_weights(2, hid)
        b = np.zeros((1, 4 * hid))
        b[0, hid : 2 * hid] = 50.0  # forget gate saturates at 1
        w = K.LstmWeights(Wx=w.Wx, Wh=w.Wh, b=K.constant(b))
        c0 = np.array([[0.3, -1.2, 2.0]])
        h, c = K.lstm_step(K.constant(np.zeros((1, 2))), K.constant(np.zeros((1, hid))),
                           K.constant(c0), w)
        np.testing.assert_allclose(c.data, c0, atol=1e-12)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(11)
        d_in, hid = 3, 4
        w = make_lstm_weights(rng, d_in, hid)
        x = rng.normal(size=d_in)
        h0 = rng.normal(size=hid)
        c0 = rng.normal(size=hid)
        with K.no_grad():
            h, c = K.lstm_step(K.constant(x), K.constant(h0), K.constant(c0), w)
        h_ref, c_ref = scalar_lstm_step(x, h0, c0, w.Wx.data, w.Wh.data, w.b.data[0])
        np.testing.assert_allclose(h.data[0], h_ref, atol=1e-12)
        np.testing.assert_allclose(c.data[0], c_ref, atol=1e-12)

    def test_step_refuses_to_drop_gradients(self):
        w = make_lstm_weights(np.random.default_rng(12), 3, 4)
        zeros = K.constant(np.zeros((1, 4)))
        with pytest.raises(K.KernelError, match="no gradient"):
            K.lstm_step(K.constant(np.zeros((1, 3))), zeros, zeros, w)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_sequence_matches_scalar_step_chain(self, reverse):
        rng = np.random.default_rng(13)
        d_in, hid, t_len = 3, 4, 5
        w = make_lstm_weights(rng, d_in, hid)
        xs = rng.normal(size=(t_len, d_in))
        out = K.lstm_sequence(K.constant(xs), w, reverse=reverse)
        h, c = np.zeros(hid), np.zeros(hid)
        for t in (range(t_len - 1, -1, -1) if reverse else range(t_len)):
            h, c = scalar_lstm_step(xs[t], h, c, w.Wx.data, w.Wh.data, w.b.data[0])
            np.testing.assert_allclose(out.data[t], h, atol=1e-12)

    def test_dimension_mismatch_errors(self):
        w = zero_lstm_weights(3, 4)
        with pytest.raises(K.KernelError):
            K.lstm_step(K.constant(np.zeros((1, 5))), K.constant(np.zeros((1, 4))),
                        K.constant(np.zeros((1, 4))), w)


def bilstm(xs, fw, bw):
    """A bi-LSTM as one grouped call: forward states ++ backward states."""
    return K.lstm_sequence(xs, [fw, bw], [False, True])


class TestBilstm:
    def test_zero_weights_zero_output(self):
        fw = zero_lstm_weights(3, 5)
        bw = zero_lstm_weights(3, 5)
        out = bilstm(K.constant(np.random.default_rng(0).normal(size=(1, 3))), fw, bw)
        assert out.shape == (1, 10)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_output_shape(self):
        rng = np.random.default_rng(3)
        fw = make_lstm_weights(rng, 4, 60)
        bw = make_lstm_weights(rng, 4, 60)
        out = bilstm(K.constant(rng.normal(size=(5, 4))), fw, bw)
        assert out.shape == (5, 120)

    def test_empty_sequence_errors(self):
        fw = zero_lstm_weights(3, 2)
        with pytest.raises(K.KernelError, match="empty sequence"):
            bilstm(K.Tensor(np.zeros((0, 3))), fw, fw)

    def test_direction_symmetry(self):
        # Running the forward weights over a reversed input must reproduce the
        # row-reversed backward half produced with those same weights.
        rng = np.random.default_rng(5)
        fw = make_lstm_weights(rng, 3, 4)
        bw = make_lstm_weights(rng, 3, 4)
        xs = rng.normal(size=(6, 3))
        enc = bilstm(K.constant(xs), fw, bw)
        flipped = bilstm(K.constant(xs[::-1].copy()), bw, fw)
        np.testing.assert_allclose(enc.data[:, 4:], flipped.data[::-1, :4], atol=1e-12)


class TestLstmGroup:
    @pytest.mark.parametrize("t_len", [1, 7])
    @pytest.mark.parametrize("reverse", [[False], [True], [False, True],
                                         [False, True, True, False, False, True]])
    def test_matches_one_call_per_direction_bitwise(self, reverse, t_len):
        k, d_in, hid = len(reverse), 5, 4
        rng = np.random.default_rng(100 + 10 * k + t_len)
        xs = rng.normal(size=(t_len, d_in))
        weights = [make_lstm_weights(rng, d_in, hid) for _ in range(k)]
        a = K.constant(rng.normal(size=(1, t_len)))
        m = rng.normal(size=(k * hid, 1))

        def probe(out, m):
            """A scalar whose gradient with respect to out is the outer product a.T @ m.T."""
            return K.sum_all(K.matmul(K.matmul(a, out), K.constant(m)))

        x_group = K.Tensor(xs.copy(), requires_grad=True)
        out = K.lstm_sequence(x_group, weights, reverse)
        K.backward(probe(out, m))
        group_grads = [(w.Wx.grad, w.Wh.grad, w.b.grad) for w in weights]

        outs, dxs = [], None
        for j, (w, rev) in enumerate(zip(weights, reverse)):
            for t in (w.Wx, w.Wh, w.b):
                t.zero_grad()
            x_one = K.Tensor(xs.copy(), requires_grad=True)
            one = K.lstm_sequence(x_one, w, rev)
            K.backward(probe(one, m[j * hid : (j + 1) * hid]))
            outs.append(one.data)
            dxs = x_one.grad.copy() if dxs is None else dxs + x_one.grad  # in group order
            for got, want in zip(group_grads[j], (w.Wx.grad, w.Wh.grad, w.b.grad)):
                np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(out.data, np.hstack(outs))
        np.testing.assert_array_equal(x_group.grad, dxs)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(21)
        d_in, hid, t_len = 3, 2, 4
        store = K.ParamStore(seed=21)
        xs = store.add("xs", t_len, d_in)
        weights = [K.LstmWeights(Wx=store.add(f"{j}.Wx", 4 * hid, d_in),
                                 Wh=store.add(f"{j}.Wh", 4 * hid, hid),
                                 b=store.add(f"{j}.b", 1, 4 * hid))
                   for j in range(3)]
        a = K.constant(rng.normal(size=(1, t_len)))
        m = K.constant(rng.normal(size=(2 * hid, 1)))

        def loss(s):
            out = K.lstm_sequence(xs, weights, [False, True, True])
            # overlapping column slices, so the slice backward accumulates
            both = K.add(K.block(out, 0, t_len, 0, 2 * hid), K.block(out, 0, t_len, hid, 3 * hid))
            return K.sum_all(K.matmul(K.matmul(a, K.tanh(both)), m))

        K.backward(loss(store))
        grads = gradients(store)
        fd = finite_diff_grad(lambda s: loss(s).item(), store, eps=1e-6)
        for name, g in grads.items():
            np.testing.assert_allclose(g, fd[name], atol=1e-6, err_msg=name)

    def test_bad_groups_error(self):
        rng = np.random.default_rng(22)
        x = K.constant(rng.normal(size=(2, 3)))
        w = make_lstm_weights(rng, 3, 4)
        with pytest.raises(K.KernelError, match="at least one direction"):
            K.lstm_sequence(x, [], [])
        with pytest.raises(K.KernelError, match="hidden widths differ"):
            K.lstm_sequence(x, [w, make_lstm_weights(rng, 3, 5)], [False, True])
        for reverse in ([False], [False, True, False], True):
            with pytest.raises(K.KernelError, match="one reverse flag per direction"):
                K.lstm_sequence(x, [w, w], reverse)
        with pytest.raises(K.KernelError, match="shape mismatch"):
            K.lstm_sequence(x, [w, make_lstm_weights(rng, 5, 4)], [False, True])


class TestRaggedLstm:
    LENGTHS = [3, 1, 5, 2]

    @pytest.mark.parametrize("reverse", [[False], [True], [False, True, True, False]])
    def test_matches_one_call_per_sequence(self, reverse):
        # stacked sequences of unequal length against one single-sequence call each:
        # outputs and every gradient, including the input's
        k, d_in, hid = len(reverse), 3, 4
        rng = np.random.default_rng(30 + k)
        xs = rng.normal(size=(sum(self.LENGTHS), d_in))
        weights = [make_lstm_weights(rng, d_in, hid) for _ in range(k)]
        probe = rng.normal(size=(sum(self.LENGTHS), k * hid))

        x_all = K.Tensor(xs.copy(), requires_grad=True)
        out = K.lstm_sequence(x_all, weights, reverse, self.LENGTHS)
        K.backward(K.sum_all(K.tanh(K.add(out, K.constant(probe)))))
        ragged = [(w.Wx.grad.copy(), w.Wh.grad.copy(), w.b.grad.copy()) for w in weights]

        for w in weights:
            for t in (w.Wx, w.Wh, w.b):
                t.zero_grad()
        outs, dxs, at = [], [], 0
        for n in self.LENGTHS:
            x_one = K.Tensor(xs[at : at + n].copy(), requires_grad=True)
            one = K.lstm_sequence(x_one, weights, reverse)
            K.backward(K.sum_all(K.tanh(K.add(one, K.constant(probe[at : at + n])))))
            outs.append(one.data)
            dxs.append(x_one.grad)
            at += n
        np.testing.assert_allclose(out.data, np.vstack(outs), rtol=0, atol=1e-14)
        np.testing.assert_allclose(x_all.grad, np.vstack(dxs), rtol=0, atol=1e-12)
        for w, grads in zip(weights, ragged):
            for got, want in zip(grads, (w.Wx.grad, w.Wh.grad, w.b.grad)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(31)
        d_in, hid = 2, 2
        store = K.ParamStore(seed=31)
        xs = store.add("xs", sum(self.LENGTHS), d_in)
        weights = [K.LstmWeights(Wx=store.add(f"{j}.Wx", 4 * hid, d_in),
                                 Wh=store.add(f"{j}.Wh", 4 * hid, hid),
                                 b=store.add(f"{j}.b", 1, 4 * hid))
                   for j in range(2)]
        m = K.constant(rng.normal(size=(1, 2 * hid)))

        def loss(s):
            out = K.lstm_sequence(xs, weights, [False, True], self.LENGTHS)
            per_sequence = K.segment_sum(K.tanh(out), self.LENGTHS)
            return K.cross_entropy(K.linear(m, per_sequence), 1)

        K.backward(loss(store))
        grads = gradients(store)
        fd = finite_diff_grad(lambda s: loss(s).item(), store, eps=1e-6)
        for name, g in grads.items():
            np.testing.assert_allclose(g, fd[name], atol=1e-6, err_msg=name)

    def test_bad_lengths_error(self):
        rng = np.random.default_rng(32)
        x = K.constant(rng.normal(size=(4, 3)))
        w = make_lstm_weights(rng, 3, 2)
        for lengths in ([3], [2, 3], [4, 0], [], [[2, 2]]):
            with pytest.raises(K.KernelError, match="do not split 4 rows"):
                K.lstm_sequence(x, w, False, lengths)


class TestFusedGroups:
    """Direction groups fused into one scan against one call per group."""

    REVERSE = ([False, True, True], [True, False, True])
    WIDTHS = (5, 3)

    @pytest.mark.parametrize("n_seq", [1, 16])
    @pytest.mark.parametrize("first_ends_first", [False, True])
    def test_matches_one_call_per_group_bitwise(self, n_seq, first_ends_first):
        # outputs and every gradient, both inputs' included, with each group's own input
        # width, ragged lengths and reverse flags; either group may leave the scan first
        rng = np.random.default_rng(40 + n_seq + first_ends_first)
        hid = 4
        longer, shorter = rng.integers(5, 9, size=n_seq), rng.integers(1, 4, size=n_seq)
        lengths = (shorter, longer) if first_ends_first else (longer, shorter)
        xs = [rng.normal(size=(int(n.sum()), d)) for n, d in zip(lengths, self.WIDTHS)]
        weights = [[make_lstm_weights(rng, d, hid) for _ in rev]
                   for d, rev in zip(self.WIDTHS, self.REVERSE)]
        probes = [rng.normal(size=(x.shape[0], 3 * hid)) for x in xs]
        lens = [None if n_seq == 1 else n.tolist() for n in lengths]

        fused_in = [K.Tensor(x.copy(), requires_grad=True) for x in xs]
        out = K.lstm_sequence(fused_in[0], weights[0], self.REVERSE[0], lens[0],
                              more=[(fused_in[1], weights[1], self.REVERSE[1], lens[1])])
        K.backward(K.sum_all(K.tanh(K.add(out, K.constant(np.vstack(probes))))))
        fused = [[(w.Wx.grad, w.Wh.grad, w.b.grad) for w in ws] for ws in weights]

        outs = []
        for g, (x, ws, rev, probe) in enumerate(zip(xs, weights, self.REVERSE, probes)):
            for w in ws:
                for t in (w.Wx, w.Wh, w.b):
                    t.zero_grad()
            x_one = K.Tensor(x.copy(), requires_grad=True)
            one = K.lstm_sequence(x_one, ws, rev, lens[g])
            K.backward(K.sum_all(K.tanh(K.add(one, K.constant(probe)))))
            outs.append(one.data)
            np.testing.assert_array_equal(fused_in[g].grad, x_one.grad)
            for w, grads in zip(ws, fused[g]):
                for got, want in zip(grads, (w.Wx.grad, w.Wh.grad, w.b.grad)):
                    np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(out.data, np.vstack(outs))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(41)
        hid, lengths = 2, ([3, 1, 2], [1, 4, 1])
        store = K.ParamStore(seed=41)
        xs = [store.add(f"x{g}", sum(n), d) for g, (n, d) in enumerate(zip(lengths, (3, 2)))]
        weights = [[K.LstmWeights(Wx=store.add(f"{g}.{j}.Wx", 4 * hid, x.shape[1]),
                                  Wh=store.add(f"{g}.{j}.Wh", 4 * hid, hid),
                                  b=store.add(f"{g}.{j}.b", 1, 4 * hid))
                    for j in range(2)] for g, x in enumerate(xs)]
        m = K.constant(rng.normal(size=(1, 2 * hid)))

        def loss(s):
            out = K.lstm_sequence(xs[0], weights[0], [False, True], lengths[0],
                                  more=[(xs[1], weights[1], [True, False], lengths[1])])
            per_sequence = K.segment_sum(K.tanh(out), lengths[0] + lengths[1])
            return K.cross_entropy(K.linear(m, per_sequence), 4)

        K.backward(loss(store))
        grads = gradients(store)
        fd = finite_diff_grad(lambda s: loss(s).item(), store, eps=1e-6)
        for name, g in grads.items():
            np.testing.assert_allclose(g, fd[name], atol=1e-6, err_msg=name)

    def test_groups_must_share_width_directions_and_sequences(self):
        rng = np.random.default_rng(42)
        x = K.constant(rng.normal(size=(4, 3)))
        w = make_lstm_weights(rng, 3, 2)
        x5 = K.constant(rng.normal(size=(2, 5)))
        other = (x5, [make_lstm_weights(rng, 5, 2)], [False], [1, 1])
        for bad in (other,
                    (x5, [make_lstm_weights(rng, 5, 3)] * 2, [False, True], [1, 1]),
                    (x5, [make_lstm_weights(rng, 5, 2)] * 2, [False, True], None)):
            with pytest.raises(K.KernelError, match="groups differ"):
                K.lstm_sequence(x, [w, w], [False, True], [2, 2], more=[bad])
        with pytest.raises(K.KernelError, match="shape mismatch"):
            K.lstm_sequence(x, w, False, more=[(x5, w, False, None)])


class TestSegments:
    def test_cross_entropy_sums_one_softmax_per_segment(self):
        rng = np.random.default_rng(33)
        z = rng.normal(size=(1, 9)) * 5
        lengths, targets = [4, 1, 3, 1], [2, 0, 0, 0]
        got = K.cross_entropy(K.constant(z), targets, lengths).item()
        want, at = 0.0, 0
        for n, target in zip(lengths, targets):
            want += K.cross_entropy(K.constant(z[:, at : at + n]), target).item()
            at += n
        assert got == pytest.approx(want, rel=1e-14)

    def test_cross_entropy_defaults_to_one_segment_per_row(self):
        z = np.random.default_rng(34).normal(size=(3, 4))
        got = K.cross_entropy(K.constant(z), [0, 3, 1]).item()
        assert got == pytest.approx(K.cross_entropy(K.constant(z.reshape(1, -1)), [0, 3, 1],
                                                    [4, 4, 4]).item(), rel=1e-15)

    def test_cross_entropy_gradient_matches_finite_differences(self):
        store = K.ParamStore(seed=35)
        z = store.add("z", 2, 5)

        def loss(s):
            return K.cross_entropy(z, [1, 0, 2], [3, 4, 3])

        K.backward(loss(store))
        grads = gradients(store)
        fd = finite_diff_grad(lambda s: loss(s).item(), store, eps=1e-6)
        np.testing.assert_allclose(grads["z"], fd["z"], atol=1e-8)

    def test_cross_entropy_bad_targets_error(self):
        z = K.constant(np.zeros((1, 5)))
        with pytest.raises(K.KernelError, match="2 cross-entropy targets for 1 segments"):
            K.cross_entropy(z, [0, 1])
        with pytest.raises(K.KernelError, match="out of range"):
            K.cross_entropy(z, [0, 2], [3, 2])

    def test_segment_sum_matches_row_sums(self):
        a = np.random.default_rng(36).normal(size=(6, 3))
        got = K.segment_sum(K.constant(a), [2, 1, 3]).data
        np.testing.assert_array_equal(got, [a[:2].sum(axis=0), a[2], a[3:].sum(axis=0)])
        np.testing.assert_array_equal(K.segment_sum(K.constant(a)).data,
                                      a.sum(axis=0, keepdims=True))


class TestGatherRows:
    def test_repeated_indices_copy_their_rows(self):
        table = np.arange(12.0).reshape(4, 3)
        out = K.gather_rows(K.constant(table), [2, 0, 2, 2])
        np.testing.assert_array_equal(out.data, table[[2, 0, 2, 2]])

    def test_minus_one_reads_zero_and_gets_no_gradient(self):
        store = K.ParamStore(seed=37)
        table = store.add("table", 3, 2)
        out = K.gather_rows(table, [1, -1, 1])
        np.testing.assert_array_equal(out.data, [table.data[1], [0.0, 0.0], table.data[1]])
        w = np.array([[0.5, -2.0]])
        K.backward(K.sum_all(K.linear(out, K.constant(w))))
        grads = gradients(store)
        # row 1 is read twice; the -1 row must not reach the last row
        np.testing.assert_array_equal(grads["table"], [[0.0, 0.0], 2 * w[0], [0.0, 0.0]])

    @pytest.mark.parametrize("indices", [[0, 3], [7], [-2], [[0, 1]]])
    def test_bad_indices_rejected(self, indices):
        with pytest.raises(K.KernelError, match="out of range|flat index list"):
            K.gather_rows(K.constant(np.zeros((3, 2))), indices)

    def test_gradient_with_repeats_matches_finite_differences(self):
        store = K.ParamStore(seed=38)
        store.add("table", 4, 3)
        shift = K.constant(np.random.default_rng(38).normal(size=(6, 3)))
        idx = [3, 1, 3, -1, 0, 3]

        def loss(s):
            return K.sum_all(K.tanh(K.add(K.gather_rows(s["table"], idx), shift)))

        K.backward(loss(store))
        grads = gradients(store)
        fd = finite_diff_grad(lambda s: loss(s).item(), store, eps=1e-6)
        np.testing.assert_allclose(grads["table"], fd["table"], atol=1e-9)
        np.testing.assert_array_equal(grads["table"][2], 0.0)

    def test_backward_equals_row_wise_add_at_bitwise(self):
        rng = np.random.default_rng(39)
        idx = np.array([4, 1, 4, -1, 0, 4, 1, -1, 4])
        g = rng.normal(size=(idx.size, 5)) * 10.0 ** rng.integers(-8, 8, size=(idx.size, 1))
        table = K.Tensor(rng.normal(size=(6, 5)), requires_grad=True)
        start = rng.normal(size=(6, 5))
        table.grad = np.asfortranarray(start)  # an earlier gradient, not C-ordered
        out = K.gather_rows(table, idx)
        out._bwd(g)
        want = start.copy()
        keep = idx >= 0
        np.add.at(want, idx[keep], g[keep])
        np.testing.assert_array_equal(table.grad, want)
        fresh = K.Tensor(np.asfortranarray(rng.normal(size=(6, 5))), requires_grad=True)
        K.gather_rows(fresh, idx)._bwd(g)
        want = np.zeros((6, 5))
        np.add.at(want, idx[keep], g[keep])
        np.testing.assert_array_equal(fresh.grad, want)


class TestBackward:
    def test_square_sum_gradient(self):
        x = K.Tensor(np.array([[3.0]]), requires_grad=True)
        loss = K.sum_all(K.matmul(x, x))
        K.backward(loss)
        np.testing.assert_allclose(x.grad, [[6.0]], atol=1e-12)

    def test_unreached_parameter_gets_zero(self):
        store = K.ParamStore(seed=0)
        used = store.add("used", 1, 2)
        store.add("unused", 1, 2)
        loss = K.sum_all(K.linear(used, used))  # used @ used.T, the sum of squares
        K.backward(loss)
        assert store["unused"].grad is None
        grads = gradients(store)
        np.testing.assert_array_equal(grads["unused"], 0.0)
        assert np.abs(grads["used"]).sum() > 0

    def test_double_backward_errors(self):
        x = K.Tensor(np.array([[2.0]]), requires_grad=True)
        loss = K.sum_all(K.matmul(x, x))
        K.backward(loss)
        with pytest.raises(K.KernelError, match="already ran"):
            K.backward(loss)

    def test_op_outputs_drop_their_gradient(self):
        x = K.Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        h = K.tanh(x)
        K.backward(K.sum_all(h))
        assert h.grad is None
        np.testing.assert_allclose(x.grad, 1.0 - np.tanh([[1.0, 2.0]]) ** 2, atol=1e-15)

    def test_second_loss_over_a_shared_subgraph(self):
        x = K.Tensor(np.array([[0.5, -1.0]]), requires_grad=True)
        h = K.tanh(x)
        K.backward(K.sum_all(h))
        first = x.grad.copy()
        x.zero_grad()
        K.backward(K.sum_all(h))  # a new loss over the same h: no stale gradient left in h
        np.testing.assert_array_equal(x.grad, first)

    def test_non_scalar_loss_errors(self):
        x = K.Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(K.KernelError, match="scalar"):
            K.backward(K.matmul(x, x))

    def test_composite_graph_matches_finite_differences(self):
        store = K.ParamStore(seed=9)
        w = store.add("w", 4, 3)
        v = store.add("v", 1, 4)
        x = K.constant(np.random.default_rng(1).normal(size=(5, 3)))

        def f(s):
            h = K.tanh(K.linear(x, s["w"]))
            p = K.softmax_rows(K.linear(s["v"], h))
            return K.cross_entropy(p, 2).item()

        loss = K.cross_entropy(K.softmax_rows(K.linear(v, K.tanh(K.linear(x, w)))), 2)
        K.backward(loss)
        fd = finite_diff_grad(f, store, eps=1e-6)
        for name, t in store.items():
            np.testing.assert_allclose(t.grad, fd[name], atol=1e-7)


class TestFiniteDiff:
    def test_quadratic_scalar(self):
        store = K.ParamStore(seed=0)
        p = store.add("p", 1, 1)
        p.data[0, 0] = 3.0
        fd = finite_diff_grad(lambda s: float(s["p"].data[0, 0] ** 2), store, eps=1e-5)
        assert fd["p"][0, 0] == pytest.approx(6.0, abs=1e-8)

    def test_constant_function_all_zero(self):
        store = K.ParamStore(seed=0)
        store.add("p", 2, 3)
        fd = finite_diff_grad(lambda s: 1.25, store)
        np.testing.assert_array_equal(fd["p"], 0.0)

    def test_quadratic_form_matches_closed_form(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 4))
        store = K.ParamStore(seed=1)
        x = store.add("x", 1, 4)

        def f(s):
            vec = s["x"].data[0]
            return float(vec @ a @ vec)

        fd = finite_diff_grad(f, store, eps=1e-5)
        expected = ((a + a.T) @ x.data[0]).reshape(1, -1)
        np.testing.assert_allclose(fd["x"], expected, atol=1e-8)


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = K.cross_entropy(K.constant(np.zeros((1, 4))), 1)
        assert loss.item() == pytest.approx(np.log(4.0), abs=1e-12)

    def test_saturated_correct_class(self):
        z = np.zeros((1, 5))
        z[0, 2] = 100.0
        assert K.cross_entropy(K.constant(z), 2).item() == pytest.approx(0.0, abs=1e-12)

    def test_matches_logsumexp_reference(self):
        rng = np.random.default_rng(13)
        z = rng.normal(size=6) * 10
        got = K.cross_entropy(K.constant(z.reshape(1, -1)), 3).item()
        m = z.max()
        want = m + np.log(np.exp(z - m).sum()) - z[3]
        assert got == pytest.approx(want, abs=1e-12)

    def test_target_out_of_range(self):
        with pytest.raises(K.KernelError, match="out of range"):
            K.cross_entropy(K.constant(np.zeros((1, 3))), 3)


class TestBinaryCrossEntropy:
    def test_uniform_logits_value(self):
        loss = K.binary_cross_entropy(K.constant(np.zeros((1, 4))), [0, 0, 0, 0], pos_weight=3.0)
        assert loss.item() == pytest.approx(4 * np.log(2.0), abs=1e-12)

    def test_positive_weight_scales_positive_term(self):
        z = K.constant(np.zeros((1, 1)))
        plain = K.binary_cross_entropy(z, [1], pos_weight=1.0).item()
        weighted = K.binary_cross_entropy(K.constant(np.zeros((1, 1))), [1], pos_weight=3.0).item()
        assert weighted == pytest.approx(3 * plain, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        store = K.ParamStore(seed=2)
        z = store.add("z", 1, 5)
        y = np.array([1, 0, 1, 0, 0], dtype=float)
        loss = K.binary_cross_entropy(z, y, pos_weight=3.0)
        K.backward(loss)
        fd = finite_diff_grad(
            lambda s: K.binary_cross_entropy(s["z"], y, pos_weight=3.0).item(), store)
        np.testing.assert_allclose(z.grad, fd["z"], atol=1e-8)


class TestAdam:
    def test_first_step_magnitude(self):
        store = K.ParamStore(seed=0)
        p = store.add("p", 1, 1, init="zeros")
        p.data[0, 0] = 1.0
        p.grad = np.array([[0.5]])
        state = K.AdamState(store)
        K.adam_step(store, state)
        # bias-corrected m/sqrt(v) is g/|g| on the first step
        assert p.data[0, 0] == pytest.approx(1.0 - state.lr, rel=1e-6)

    def test_zero_gradient_fresh_state_leaves_parameter(self):
        store = K.ParamStore(seed=0)
        p = store.add("p", 1, 3, init="zeros")
        p.data[:] = 2.0
        K.adam_step(store, K.AdamState(store))
        np.testing.assert_array_equal(p.data, 2.0)

    def test_ten_steps_match_scalar_simulation(self):
        store = K.ParamStore(seed=0)
        p = store.add("p", 1, 1, init="zeros")
        p.data[0, 0] = 0.7
        state = K.AdamState(store)
        rng = np.random.default_rng(21)
        grads = rng.normal(size=10)

        theta, m, v = 0.7, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            p.grad = np.array([[g]])
            K.adam_step(store, state)
            m = K.ADAM_BETA1 * m + (1 - K.ADAM_BETA1) * g
            v = K.ADAM_BETA2 * v + (1 - K.ADAM_BETA2) * g * g
            mh = m / (1 - K.ADAM_BETA1 ** t)
            vh = v / (1 - K.ADAM_BETA2 ** t)
            theta -= state.lr * mh / (np.sqrt(vh) + K.ADAM_EPSILON)
            assert p.data[0, 0] == pytest.approx(theta, abs=1e-12)
        assert state.step_count == 10

    def test_moments_start_at_zero_for_every_parameter(self):
        store = K.ParamStore(seed=0)
        store.add("b", 2, 3)
        store.add("a", 1, 4)
        state = K.AdamState(store, lr=0.01)
        assert (state.lr, state.step_count) == (0.01, 0)
        for moments in (state.m, state.v):
            assert sorted(moments) == store.names()
            for name, p in store.items():
                assert moments[name].shape == p.shape
                np.testing.assert_array_equal(moments[name], 0.0)
        assert all(state.m[name] is not state.v[name] for name in store.names())


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = K.constant(np.arange(6.0).reshape(2, 3))
        out = K.dropout(x, 0.0, np.random.default_rng(0))
        assert out is x

    def test_kept_fraction_within_three_sigma(self):
        rate = 0.3
        n = 100_000
        x = K.constant(np.ones((1, n)))
        out = K.dropout(x, rate, np.random.default_rng(123))
        kept = np.count_nonzero(out.data) / n
        sigma = np.sqrt(rate * (1 - rate) / n)
        assert abs(kept - (1 - rate)) <= 3 * sigma
        # inverted scaling: surviving entries are 1/(1-rate)
        surviving = out.data[out.data != 0]
        np.testing.assert_allclose(surviving, 1.0 / (1 - rate), atol=1e-12)


class TestDeterminism:
    def test_identical_seed_identical_params(self):
        a = K.ParamStore(seed=42)
        b = K.ParamStore(seed=42)
        ta = a.add("w", 4, 6)
        tb = b.add("w", 4, 6)
        np.testing.assert_array_equal(ta.data, tb.data)

    def test_forward_is_bitwise_deterministic(self):
        rng = np.random.default_rng(8)
        xs = rng.normal(size=(4, 3))
        w = make_lstm_weights(np.random.default_rng(9), 3, 5)
        one = bilstm(K.constant(xs), w, w).data
        two = bilstm(K.constant(xs), w, w).data
        np.testing.assert_array_equal(one, two)


class TestParamStore:
    def test_duplicate_name_errors(self):
        store = K.ParamStore(seed=0)
        store.add("w", 1, 1)
        with pytest.raises(K.KernelError, match="duplicate"):
            store.add("w", 1, 1)

    def test_iteration_sorted_by_name(self):
        store = K.ParamStore(seed=0)
        for name in ["zeta", "alpha", "mid"]:
            store.add(name, 1, 1)
        assert [n for n, _ in store.items()] == ["alpha", "mid", "zeta"]

    def test_load_state_rejects_name_mismatch(self):
        store = K.ParamStore(seed=0)
        store.add("w", 1, 2)
        with pytest.raises(K.KernelError, match="name set"):
            store.load_state({"other": np.zeros((1, 2))})

    def test_load_state_rejects_shape_mismatch(self):
        store = K.ParamStore(seed=0)
        store.add("w", 1, 2)
        with pytest.raises(K.KernelError, match="shape"):
            store.load_state({"w": np.zeros((2, 2))})


def _archive(members) -> bytes:
    """An uncompressed zip of .npy members, as np.savez writes one."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, arr in members:
            npy = io.BytesIO()
            np.save(npy, arr)
            zf.writestr(name, npy.getvalue())
    return buf.getvalue()


def _bare_npy() -> bytes:
    buf = io.BytesIO()
    np.save(buf, np.zeros((2, 2)))
    return buf.getvalue()


def _tsq1() -> bytes:
    """A checkpoint in the retired hand-written format: one 1x2 float32 record."""
    return (b"TSQ1" + struct.pack("<I", 1) + struct.pack("<I", 1) + b"w"
            + struct.pack("<I", 2) + struct.pack("<2I", 1, 2)
            + np.zeros(2, dtype="<f4").tobytes())


def _flip_data_byte(raw: bytes, data: np.ndarray) -> bytes:
    at = raw.index(data.tobytes())
    return raw[:at] + bytes([raw[at] ^ 0xFF]) + raw[at + 1 :]


def _one_line_naming(path, excinfo, words):
    message = str(excinfo.value)
    assert message.startswith(f"{path}: ") and "\n" not in message
    assert words in message


class TestCheckpoint:
    @staticmethod
    def saved(tmp_path, seed=5):
        store = K.ParamStore(seed=seed)
        store.add("a.weight", 3, 4)
        store.add("b.bias", 1, 4, init="zeros")
        path = tmp_path / "model.tsq"
        K.save_checkpoint(store, path)
        return store, path

    def test_round_trip(self, tmp_path):
        store, path = self.saved(tmp_path)
        state = K.load_checkpoint(path)
        assert set(state) == {"a.weight", "b.bias"}
        for name, arr in state.items():
            assert arr.dtype == np.float64
            np.testing.assert_array_equal(arr, store[name].data, strict=True)

    def test_second_round_trip_is_exact(self, tmp_path):
        # two saves of the same weights may differ in bytes: each zip member
        # records the time it was written
        store, p1 = self.saved(tmp_path)
        store.load_state(K.load_checkpoint(p1))
        p2 = tmp_path / "two.tsq"
        K.save_checkpoint(store, p2)
        one, two = K.load_checkpoint(p1), K.load_checkpoint(p2)
        assert list(one) == list(two)
        for name in one:
            np.testing.assert_array_equal(one[name], two[name], strict=True)

    def test_path_is_written_as_given(self, tmp_path):
        store = K.ParamStore(seed=0)
        store.add("w", 2, 2)
        K.save_checkpoint(store, tmp_path / "model")
        assert [p.name for p in tmp_path.iterdir()] == ["model"]
        np.testing.assert_array_equal(K.load_checkpoint(tmp_path / "model")["w"], store["w"].data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.tsq"
        path.write_bytes(b"garbage")
        with pytest.raises(K.KernelError) as excinfo:
            K.load_checkpoint(path)
        _one_line_naming(path, excinfo, "not an .npz checkpoint of float64 arrays")

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        store, path = self.saved(tmp_path, seed=2)
        before = path.read_bytes()
        store["b.bias"].data += 1.0

        def fail(fd):
            raise OSError("disk full")

        monkeypatch.setattr(K.os, "fsync", fail)  # fails after the archive is written
        with pytest.raises(OSError, match="disk full"):
            K.save_checkpoint(store, path)
        assert path.read_bytes() == before
        assert set(K.load_checkpoint(path)) == {"a.weight", "b.bias"}
        assert [p.name for p in tmp_path.iterdir()] == ["model.tsq"]

    def test_truncated_file_rejected(self, tmp_path):
        _, path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(K.KernelError) as excinfo:
            K.load_checkpoint(path)
        _one_line_naming(path, excinfo, "damaged checkpoint archive")

    @pytest.mark.parametrize("make, words", [
        (lambda raw, store: b"", "not an .npz checkpoint"),
        (lambda raw, store: _flip_data_byte(raw, store["a.weight"].data),
         "damaged checkpoint archive: Bad CRC-32"),
        (lambda raw, store: _bare_npy(), "not an .npz checkpoint"),
        (lambda raw, store: _tsq1(), "not an .npz checkpoint"),
        (lambda raw, store: _archive([("w.npy", np.zeros((2, 2), dtype=np.int64))]),
         "member 'w' is not a float64 array"),
        (lambda raw, store: _archive([("w.npy", np.zeros((2, 2), dtype=np.float32))]),
         "member 'w' is not a float64 array"),
        (lambda raw, store: _archive([("w", np.zeros((2, 2))), ("w.npy", np.ones((2, 2)))]),
         "duplicate member names"),
    ], ids=["empty", "flipped byte", "bare npy", "TSQ1", "int64 member", "float32 member",
            "duplicate members"])
    def test_bad_file_fails_with_one_line_naming_it(self, tmp_path, make, words):
        store, path = self.saved(tmp_path)
        path.write_bytes(make(path.read_bytes(), store))
        with pytest.raises(K.KernelError) as excinfo:
            K.load_checkpoint(path)
        _one_line_naming(path, excinfo, words)

    def test_missing_file_raises_its_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="missing.tsq"):
            K.load_checkpoint(tmp_path / "missing.tsq")
