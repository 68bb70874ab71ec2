import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


class TestBilstm:
    def test_zero_weights_zero_output(self):
        fw = zero_lstm_weights(3, 5)
        bw = zero_lstm_weights(3, 5)
        out = K.bilstm_encode(K.constant(np.random.default_rng(0).normal(size=(1, 3))), fw, bw)
        assert out.shape == (1, 10)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_output_shape(self):
        rng = np.random.default_rng(3)
        fw = make_lstm_weights(rng, 4, 60)
        bw = make_lstm_weights(rng, 4, 60)
        out = K.bilstm_encode(K.constant(rng.normal(size=(5, 4))), fw, bw)
        assert out.shape == (5, 120)

    def test_empty_sequence_errors(self):
        fw = zero_lstm_weights(3, 2)
        with pytest.raises(K.KernelError, match="empty sequence"):
            K.bilstm_encode(K.Tensor(np.zeros((0, 3))), fw, fw)

    def test_direction_symmetry(self):
        # Running the forward weights over a reversed input must reproduce the
        # row-reversed backward half produced with those same weights.
        rng = np.random.default_rng(5)
        fw = make_lstm_weights(rng, 3, 4)
        bw = make_lstm_weights(rng, 3, 4)
        xs = rng.normal(size=(6, 3))
        enc = K.bilstm_encode(K.constant(xs), fw, bw)
        flipped = K.bilstm_encode(K.constant(xs[::-1].copy()), bw, fw)
        np.testing.assert_allclose(enc.data[:, 4:], flipped.data[::-1, :4], atol=1e-12)


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
        grads = K.backward(loss, store)
        assert grads is not None
        np.testing.assert_array_equal(grads["unused"], 0.0)
        assert np.abs(grads["used"]).sum() > 0

    def test_double_backward_errors(self):
        x = K.Tensor(np.array([[2.0]]), requires_grad=True)
        loss = K.sum_all(K.matmul(x, x))
        K.backward(loss)
        with pytest.raises(K.KernelError, match="already ran"):
            K.backward(loss)

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
            sc = K.linear(h, s["v"])
            p = K.softmax_rows(K.transpose(sc))
            return K.cross_entropy(p, 2).item()

        loss = K.cross_entropy(K.softmax_rows(K.transpose(K.linear(K.tanh(K.linear(x, w)), v))), 2)
        K.backward(loss, store)
        fd = K.finite_diff_grad(f, store, eps=1e-6)
        for name, t in store.items():
            np.testing.assert_allclose(t.grad, fd[name], atol=1e-7)


class TestFiniteDiff:
    def test_quadratic_scalar(self):
        store = K.ParamStore(seed=0)
        p = store.add("p", 1, 1)
        p.data[0, 0] = 3.0
        fd = K.finite_diff_grad(lambda s: float(s["p"].data[0, 0] ** 2), store, eps=1e-5)
        assert fd["p"][0, 0] == pytest.approx(6.0, abs=1e-8)

    def test_constant_function_all_zero(self):
        store = K.ParamStore(seed=0)
        store.add("p", 2, 3)
        fd = K.finite_diff_grad(lambda s: 1.25, store)
        np.testing.assert_array_equal(fd["p"], 0.0)

    def test_quadratic_form_matches_closed_form(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 4))
        store = K.ParamStore(seed=1)
        x = store.add("x", 1, 4)

        def f(s):
            vec = s["x"].data[0]
            return float(vec @ a @ vec)

        fd = K.finite_diff_grad(f, store, eps=1e-5)
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
        K.backward(loss, store)
        fd = K.finite_diff_grad(
            lambda s: K.binary_cross_entropy(s["z"], y, pos_weight=3.0).item(), store)
        np.testing.assert_allclose(z.grad, fd["z"], atol=1e-8)


class TestAdam:
    def test_first_step_magnitude(self):
        store = K.ParamStore(seed=0)
        p = store.add("p", 1, 1, init="zeros")
        p.data[0, 0] = 1.0
        p.grad = np.array([[0.5]])
        state = K.AdamState()
        K.adam_step(store, state)
        # bias-corrected m/sqrt(v) is g/|g| on the first step
        assert p.data[0, 0] == pytest.approx(1.0 - state.lr, rel=1e-6)

    def test_zero_gradient_fresh_state_leaves_parameter(self):
        store = K.ParamStore(seed=0)
        p = store.add("p", 1, 3, init="zeros")
        p.data[:] = 2.0
        K.adam_step(store, K.AdamState())
        np.testing.assert_array_equal(p.data, 2.0)

    def test_ten_steps_match_scalar_simulation(self):
        store = K.ParamStore(seed=0)
        p = store.add("p", 1, 1, init="zeros")
        p.data[0, 0] = 0.7
        state = K.AdamState()
        rng = np.random.default_rng(21)
        grads = rng.normal(size=10)

        theta, m, v = 0.7, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            p.grad = np.array([[g]])
            K.adam_step(store, state)
            m = state.beta1 * m + (1 - state.beta1) * g
            v = state.beta2 * v + (1 - state.beta2) * g * g
            mh = m / (1 - state.beta1 ** t)
            vh = v / (1 - state.beta2 ** t)
            theta -= state.lr * mh / (np.sqrt(vh) + state.epsilon)
            assert p.data[0, 0] == pytest.approx(theta, abs=1e-12)
        assert state.step_count == 10

    def test_shape_drift_errors(self):
        store = K.ParamStore(seed=0)
        p = store.add("p", 1, 2, init="zeros")
        state = K.AdamState()
        K.adam_step(store, state)
        p.data = np.zeros((1, 3))
        with pytest.raises(K.KernelError, match="shape"):
            K.adam_step(store, state)


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
        one = K.bilstm_encode(K.constant(xs), w, w).data
        two = K.bilstm_encode(K.constant(xs), w, w).data
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


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        store = K.ParamStore(seed=5)
        store.add("a.weight", 3, 4)
        store.add("b.bias", 1, 4, init="zeros")
        path = tmp_path / "model.tsq"
        K.save_checkpoint(store, path)
        state = K.load_checkpoint(path)
        assert set(state) == {"a.weight", "b.bias"}
        for name, arr in state.items():
            np.testing.assert_allclose(arr, store[name].data, atol=1e-6)

    def test_second_round_trip_is_exact(self, tmp_path):
        store = K.ParamStore(seed=5)
        store.add("w", 2, 2)
        p1 = tmp_path / "one.tsq"
        p2 = tmp_path / "two.tsq"
        K.save_checkpoint(store, p1)
        store.load_state(K.load_checkpoint(p1))
        K.save_checkpoint(store, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.tsq"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(K.KernelError, match="magic"):
            K.load_checkpoint(path)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        store = K.ParamStore(seed=2)
        store.add("a", 2, 3)
        store.add("b", 3, 3)
        path = tmp_path / "model.tsq"
        K.save_checkpoint(store, path)
        before = path.read_bytes()
        store["b"].data = np.array([["not a number"]])  # fails after "a" is written
        with pytest.raises(ValueError):
            K.save_checkpoint(store, path)
        assert path.read_bytes() == before
        assert set(K.load_checkpoint(path)) == {"a", "b"}
        assert [p.name for p in tmp_path.iterdir()] == ["model.tsq"]

    def test_truncated_file_rejected(self, tmp_path):
        store = K.ParamStore(seed=1)
        store.add("w", 4, 4)
        path = tmp_path / "model.tsq"
        K.save_checkpoint(store, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(K.KernelError, match="truncated"):
            K.load_checkpoint(path)
