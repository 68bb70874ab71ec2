"""Dense 2-D tensor kernel with reverse-mode autodiff.

Everything the slot-filling models call and nothing more: matrices on a
gradient tape (`linear` is both a layer and the scores of rows against rows,
so there is no transpose op; `gather_rows` is the one row selection beside
`row`), one LSTM cell (a fused sequence node that runs a group of
directions over row-stacked sequences in a single loop, and an untaped step
for greedy decoding), stable softmax / cross-entropy / weighted BCE,
inverted dropout, Adam with fixed decay rates, and a binary checkpoint
format. Arrays are numpy; every tensor is 2-D (row vectors are 1xN, scalars
1x1). A minibatch is its examples' rows stacked, with segment lengths saying
which rows belong to which example; the tape is rebuilt per minibatch, never
cached.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field

import numpy as np

DTYPE = np.float64


class KernelError(ValueError):
    """Raised on contract violations inside kernel operations."""


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable tape recording; forward passes become plain numpy."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A 2-D array plus an optional gradient buffer and tape linkage."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_bwd", "_done")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(DTYPE)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise KernelError(f"tensors are 2-D, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._bwd = None
        self._done = False

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise KernelError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data[0, 0])

    def zero_grad(self):
        self.grad = None
        self._done = False

    @classmethod
    def _wrap(cls, data: np.ndarray) -> "Tensor":
        """Cheap constructor for op outputs already known to be 2-D float arrays."""
        t = object.__new__(cls)
        t.data = data
        t.requires_grad = False
        t.grad = None
        t._parents = ()
        t._bwd = None
        t._done = False
        return t

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    return Tensor(np.asarray(data, dtype=DTYPE))


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


def _node(data: np.ndarray, parents: tuple, bwd) -> Tensor:
    out = Tensor._wrap(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._bwd = bwd
    return out


def backward(loss: Tensor, store: "ParamStore | None" = None):
    """Reverse-mode pass from a scalar loss; returns the store's gradient map.

    Gradients accumulate into .grad of every requires_grad leaf (a tensor no op
    produced) reachable from the loss. An op's output drops its gradient once it
    has passed it back, so the pass holds only those still to propagate. A second
    call on the same loss without zero_grad is an error (the tape is single-shot).
    """
    if loss.data.shape != (1, 1):
        raise KernelError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss._done:
        raise KernelError("backward already ran on this loss; reset gradients first")
    loss._done = True
    if loss.requires_grad:
        order = []
        seen = {id(loss)}
        stack = [(loss, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, False))
        loss.grad = np.ones_like(loss.data)
        for node in reversed(order):
            if node._bwd is not None and node.grad is not None:
                node._bwd(node.grad)
                node.grad = None  # passed back: only leaves keep a gradient
    if store is not None:
        return store.gradients()
    return None


# ---------------------------------------------------------------------------
# Elementwise and linear algebra ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b; b may be a 1xC row broadcast over a's rows."""
    if a.shape == b.shape:
        def bwd(g, a=a, b=b):
            _accum(a, g)
            _accum(b, g)
    elif b.shape == (1, a.shape[1]):
        def bwd(g, a=a, b=b):
            _accum(a, g)
            _accum(b, g.sum(axis=0, keepdims=True))
    else:
        raise KernelError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return _node(a.data + b.data, (a, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise KernelError(f"matmul shape mismatch: {a.shape} @ {b.shape}")

    def bwd(g, a=a, b=b, ad=a.data, bd=b.data):
        _accum(a, g @ bd.T)
        _accum(b, ad.T @ g)

    return _node(a.data @ b.data, (a, b), bwd)


def linear(a: Tensor, w: Tensor) -> Tensor:
    """a @ w.T: a layer with weights stored as (out, in), or each row of a scored against
    each row of w."""
    if a.shape[1] != w.shape[1]:
        raise KernelError(f"linear shape mismatch: {a.shape} with weight {w.shape}")

    def bwd(g, a=a, w=w, ad=a.data, wd=w.data):
        _accum(a, g @ wd)
        _accum(w, g.T @ ad)

    return _node(a.data @ w.data.T, (a, w), bwd)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def bwd(g, a=a, out=out):
        _accum(a, g * (1.0 - out * out))

    return _node(out, (a,), bwd)


def softmax_rows(a: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Row-wise softmax with max-subtraction; masked-out entries are exactly 0."""
    z = a.data
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != z.shape:
            raise KernelError(f"softmax mask shape {mask.shape} != {z.shape}")
        if not mask.any(axis=1).all():
            raise KernelError("empty softmax row")
        z = np.where(mask, z, -np.inf)  # exp gives masked entries exactly 0
    out = z - z.max(axis=1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)

    def bwd(g, a=a, out=out):
        _accum(a, out * (g - (g * out).sum(axis=1, keepdims=True)))

    return _node(out, (a,), bwd)


def sum_all(a: Tensor, scale: float = 1.0) -> Tensor:
    """scale times the sum of every entry, as a 1x1 tensor."""

    def bwd(g, a=a):
        _accum(a, np.full_like(a.data, g[0, 0] * scale))

    return _node(np.array([[a.data.sum() * scale]], dtype=a.data.dtype), (a,), bwd)


def _segments(lengths, n_rows: int) -> np.ndarray:
    """Validated segment lengths over n_rows stacked rows; None is one segment of all rows."""
    if lengths is None:
        return np.array([n_rows])
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim != 1 or lengths.size == 0 or (lengths < 1).any() or lengths.sum() != n_rows:
        raise KernelError(f"segment lengths {lengths.tolist()} do not split {n_rows} rows")
    return lengths


def segment_sum(a: Tensor, lengths=None) -> Tensor:
    """Column sums per segment of consecutive rows: (sum of lengths, C) -> (segments, C)."""
    lengths = _segments(lengths, a.shape[0])
    out = np.empty((lengths.size, a.shape[1]), dtype=a.data.dtype)
    at = 0
    for i, n in enumerate(lengths.tolist()):
        a.data[at : at + n].sum(axis=0, out=out[i])
        at += n

    def bwd(g, a=a):
        _accum(a, np.repeat(g, lengths, axis=0))

    return _node(out, (a,), bwd)


def row(a: Tensor, i: int) -> Tensor:
    if not (0 <= i < a.shape[0]):
        raise KernelError(f"row index {i} out of range for shape {a.shape}")

    def bwd(g, a=a, i=i):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[i, :] += g[0]

    return _node(a.data[i : i + 1].copy(), (a,), bwd)


def cols(a: Tensor, j0: int, j1: int) -> Tensor:
    """Columns j0:j1 of a, as a contiguous copy."""
    if not (0 <= j0 < j1 <= a.shape[1]):
        raise KernelError(f"column slice [{j0}:{j1}] out of range for shape {a.shape}")

    def bwd(g, a=a, j0=j0, j1=j1):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[:, j0:j1] += g

    return _node(a.data[:, j0:j1].copy(), (a,), bwd)


def concat_rows(parts) -> Tensor:
    parts = list(parts)
    if not parts:
        raise KernelError("concat_rows of nothing")
    counts = [p.shape[0] for p in parts]

    def bwd(g, parts=parts, counts=counts):
        at = 0
        for p, n in zip(parts, counts):
            _accum(p, g[at : at + n])
            at += n

    return _node(np.vstack([p.data for p in parts]), tuple(parts), bwd)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[0] != b.shape[0]:
        raise KernelError(f"concat_cols row mismatch: {a.shape} vs {b.shape}")
    na = a.shape[1]

    def bwd(g, a=a, b=b, na=na):
        _accum(a, g[:, :na])
        _accum(b, g[:, na:])

    return _node(np.hstack([a.data, b.data]), (a, b), bwd)


def gather_rows(table: Tensor, indices) -> Tensor:
    """Rows of `table` by index, repeats allowed; index -1 yields a zero row."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise KernelError("gather_rows takes a flat index list")
    if (idx >= table.shape[0]).any() or (idx < -1).any():
        raise KernelError(f"gather_rows index out of range for shape {table.shape}")
    out = table.data[idx]
    valid = idx >= 0
    if not valid.all():
        out[~valid] = 0.0

    def bwd(g, table=table, idx=idx, valid=valid):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, idx[valid], g[valid])

    return _node(out, (table,), bwd)


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: kept entries scale by 1/(1-rate); callers skip it at inference."""
    if not (0.0 <= rate < 1.0):
        raise KernelError(f"dropout rate {rate} outside [0, 1)")
    if rate == 0.0:
        return a
    keep = (rng.random(a.shape) >= rate) / (1.0 - rate)

    def bwd(g, a=a, keep=keep):
        _accum(a, g * keep)

    return _node(a.data * keep, (a,), bwd)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def cross_entropy(logits: Tensor, targets, lengths=None) -> Tensor:
    """Sum over segments of -log softmax(segment)[target].

    The logits are read in row-major order and cut into consecutive segments
    of the given lengths; by default each row is one segment. `targets` holds
    one in-segment index per segment (an int for a single segment).
    """
    z = logits.data.reshape(-1)
    if lengths is None:
        lengths = np.full(logits.shape[0], logits.shape[1])
    lengths = _segments(lengths, z.size)
    targets = np.atleast_1d(np.asarray(targets, dtype=np.int64))
    if targets.shape != lengths.shape:
        raise KernelError(f"{targets.size} cross-entropy targets for {lengths.size} segments")
    if ((targets < 0) | (targets >= lengths)).any():
        raise KernelError(f"cross-entropy target out of range: {targets.tolist()} "
                          f"for {lengths.tolist()} classes")
    starts = np.cumsum(lengths) - lengths
    seg = np.repeat(np.arange(lengths.size), lengths)
    m = np.maximum.reduceat(z, starts)
    e = np.exp(z - m[seg])
    total = np.add.reduceat(e, starts)
    picked = starts + targets
    loss = float((m + np.log(total) - z[picked]).sum())

    def bwd(g, logits=logits):
        d = e / total[seg]
        d[picked] -= 1.0
        _accum(logits, g[0, 0] * d.reshape(logits.shape))

    return _node(np.array([[loss]], dtype=logits.data.dtype), (logits,), bwd)


def binary_cross_entropy(logits: Tensor, targets, pos_weight: float = 1.0) -> Tensor:
    """Sum over entries of weighted BCE-with-logits for a 1xC logit row (a whole batch's
    stacked columns sum alike)."""
    if logits.shape[0] != 1:
        raise KernelError(f"binary_cross_entropy expects a 1xC row, got {logits.shape}")
    y = np.asarray(targets, dtype=logits.data.dtype).reshape(1, -1)
    if y.shape != logits.shape:
        raise KernelError(f"BCE target shape {y.shape} != logits {logits.shape}")
    z = logits.data
    # softplus(x) = log(1 + e^x), stable via logaddexp
    loss = (pos_weight * y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z)).sum()

    def bwd(g, logits=logits, z=z, y=y, w=pos_weight):
        sig = 1.0 / (1.0 + np.exp(-z))
        _accum(logits, g[0, 0] * ((1.0 - y) * sig - w * y * (1.0 - sig)))

    return _node(np.array([[loss]], dtype=logits.data.dtype), (logits,), bwd)


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------

@dataclass
class LstmWeights:
    """Packed gate weights, order (input, forget, candidate, output)."""

    Wx: Tensor  # (4H, d_in)
    Wh: Tensor  # (4H, H)
    b: Tensor   # (1, 4H)

    @property
    def hidden(self) -> int:
        return self.Wh.shape[1]


def _cell(pre: np.ndarray, c: np.ndarray):
    """The LSTM cell on (..., 4H) gate pre-activations and the previous (..., H) cells.

    Returns (sig, g, c, tanh c, h): sig is the sigmoid of every pre-activation,
    whose first, second and fourth quarters are the i, f and o gates, and g is
    the candidate, tanh of the third quarter. Callers silence exp overflow,
    which saturates the sigmoid correctly.
    """
    hid = c.shape[-1]
    sig = 1.0 / (1.0 + np.exp(-pre))
    g = np.tanh(pre[..., 2 * hid : 3 * hid])
    c = sig[..., hid : 2 * hid] * c + sig[..., :hid] * g
    tanh_c = np.tanh(c)
    return sig, g, c, tanh_c, sig[..., 3 * hid :] * tanh_c


def lstm_step(x: Tensor, h_prev: Tensor, c_prev: Tensor, w: LstmWeights):
    """One untaped LSTM cell update on 1-row inputs, for greedy decoding; returns (h, c).

    Training runs every recurrence through lstm_sequence: a gradient request is an error.
    """
    if x.shape[1] != w.Wx.shape[1]:
        raise KernelError(f"lstm_step shape mismatch: {x.shape} with weight {w.Wx.shape}")
    if _grad_enabled and (x.requires_grad or h_prev.requires_grad or c_prev.requires_grad
                          or w.Wx.requires_grad or w.Wh.requires_grad or w.b.requires_grad):
        raise KernelError("lstm_step records no gradient; use lstm_sequence or no_grad()")
    pre = x.data @ w.Wx.data.T + h_prev.data @ w.Wh.data.T + w.b.data
    with np.errstate(over="ignore"):
        _, _, c, _, h = _cell(pre, c_prev.data)
    return Tensor._wrap(h), Tensor._wrap(c)


def lstm_sequence(xs: Tensor, ws, reverse=False, lengths=None) -> Tensor:
    """Run a group of LSTM directions over row-stacked sequences as a single fused node.

    `ws` is one LstmWeights and `reverse` a bool, or both are parallel lists. `xs` stacks
    B sequences of the given `lengths` row-wise, (sum of lengths, d_in); by default it
    is one sequence. The output has the same rows, (., k*H), direction blocks in group
    order. One loop runs all k*B recurrences from a zero state against the stacked Wh:
    every sequence starts at scan step 0 in both directions, so a shorter one idles only
    at the end of the scan, where no output reads it and no gradient reaches it. A single
    sequence's output is bitwise as if each direction ran alone. The backward is one
    hand-written BPTT loop.
    """
    if isinstance(ws, LstmWeights):
        ws, reverse = [ws], [reverse]
    k, n_rows = len(ws), xs.shape[0]
    if k == 0:
        raise KernelError("lstm_sequence needs at least one direction")
    if isinstance(reverse, bool) or len(reverse) != k:
        raise KernelError(f"lstm_sequence needs one reverse flag per direction, got {reverse!r}")
    hid = ws[0].hidden
    for w in ws:
        if w.hidden != hid:
            raise KernelError(f"lstm_sequence hidden widths differ: {w.hidden} vs {hid}")
        if xs.shape[1] != w.Wx.shape[1]:
            raise KernelError(f"lstm_sequence shape mismatch: {xs.shape} with weight {w.Wx.shape}")
    if n_rows < 1:
        raise KernelError("empty sequence")
    lengths = _segments(lengths, n_rows)
    n_seq, t_max = lengths.size, int(lengths.max())
    # rows[s, j, b]: the row direction j reads in sequence b at scan step s; step and seq:
    # the scan step and the sequence that write each output row, per direction
    starts = np.cumsum(lengths) - lengths
    rev = np.array(reverse)[:, None]  # (k, 1)
    t = np.minimum(np.arange(t_max)[:, None, None], lengths - 1)  # idle: re-read the last
    rows = starts + np.where(rev, lengths - 1 - t, t)  # (t_max, k, B)
    seq = np.repeat(np.arange(n_seq), lengths)[:, None]  # (rows, 1)
    pos = np.arange(n_rows)[:, None] - starts[seq]
    step = np.where(rev.T, lengths[seq] - 1 - pos, pos)  # (rows, k)
    dirs = np.arange(k)
    Wh = np.stack([w.Wh.data for w in ws])  # (k, 4H, H)
    Wh_T = Wh.transpose(0, 2, 1)  # per direction the same strided view as Wh.T

    pre_x = np.stack([xs.data @ w.Wx.data.T + w.b.data[0] for w in ws], axis=1)
    pre_x = pre_x[rows, dirs[:, None]]  # (t_max, k, B, 4H) in scan order
    hs = np.empty((t_max, k, n_seq, hid))  # h per scan step
    steps = []  # (sig, g, c, tanh c) per scan step, kept for the backward
    h = np.zeros((k, n_seq, hid))
    c = np.zeros((k, n_seq, hid))
    with np.errstate(over="ignore"):
        for sp in range(t_max):
            sig, gate_g, c, tanh_c, h = _cell(pre_x[sp] + np.matmul(h, Wh_T), c)
            steps.append((sig, gate_g, c, tanh_c))
            hs[sp] = h
    out = hs[step, dirs, seq].reshape(n_rows, k * hid)

    def bwd(g):
        g_scan = np.zeros((t_max, k, n_seq, hid))
        g_scan[step, dirs, seq] = g.reshape(n_rows, k, hid)
        dpre = np.empty((t_max, k, n_seq, 4 * hid))
        dh_next = np.zeros((k, n_seq, hid))
        dc_next = np.zeros((k, n_seq, hid))
        for sp in range(t_max - 1, -1, -1):
            sig, gate_g, _, tc = steps[sp]
            i, f, o = sig[..., :hid], sig[..., hid : 2 * hid], sig[..., 3 * hid :]
            dh = g_scan[sp] + dh_next
            dc = dh * o * (1.0 - tc * tc) + dc_next
            c_before = steps[sp - 1][2] if sp > 0 else 0.0
            dpre[sp, ..., :hid] = dc * gate_g * i * (1.0 - i)
            dpre[sp, ..., hid : 2 * hid] = dc * c_before * f * (1.0 - f)
            dpre[sp, ..., 2 * hid : 3 * hid] = dc * i * (1.0 - gate_g * gate_g)
            dpre[sp, ..., 3 * hid :] = dh * tc * o * (1.0 - o)
            dc_next = dc * f
            dh_next = np.matmul(dpre[sp], Wh)
        h_prev = np.zeros_like(hs)
        h_prev[1:] = hs[:-1]
        dpre_rows = dpre[step, dirs, seq]  # (rows, k, 4H) back in row order
        # per direction from contiguous copies: numpy leaves BLAS on strided operands
        for j, w in enumerate(ws):
            d_rows = np.ascontiguousarray(dpre_rows[:, j])
            _accum(w.b, d_rows.sum(axis=0, keepdims=True))
            _accum(w.Wh, dpre[:, j].reshape(-1, 4 * hid).T @ h_prev[:, j].reshape(-1, hid))
            _accum(w.Wx, d_rows.T @ xs.data)
            if xs.requires_grad:
                _accum(xs, d_rows @ w.Wx.data)

    params = tuple(p for w in ws for p in (w.Wx, w.Wh, w.b))
    return _node(out, (xs,) + params, bwd)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

class ParamStore:
    """Named trainable tensors with deterministic (sorted-name) iteration."""

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(int(seed))
        self._entries: dict[str, Tensor] = {}

    def add(self, name: str, rows: int, cols: int, init: str = "fanin") -> Tensor:
        """Register a (rows, cols) parameter; init is uniform(-a, a), a=1/sqrt(cols)."""
        if name in self._entries:
            raise KernelError(f"duplicate parameter name {name!r}")
        if init == "zeros":
            data = np.zeros((rows, cols), dtype=DTYPE)
        elif init == "fanin":
            a = 1.0 / np.sqrt(cols)
            data = self._rng.uniform(-a, a, size=(rows, cols)).astype(DTYPE)
        else:
            raise KernelError(f"unknown init {init!r}")
        t = Tensor(data, requires_grad=True)
        self._entries[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def __len__(self) -> int:
        return len(self._entries)

    def names(self):
        return sorted(self._entries)

    def items(self):
        for name in self.names():
            yield name, self._entries[name]

    def zero_grad(self):
        for t in self._entries.values():
            t.zero_grad()

    def gradients(self) -> dict[str, np.ndarray]:
        """Gradient per parameter; parameters untouched by backward map to zeros."""
        out = {}
        for name, t in self.items():
            out[name] = np.zeros_like(t.data) if t.grad is None else t.grad.copy()
        return out

    def load_state(self, state: dict[str, np.ndarray]):
        """Replace all parameter values; name sets and shapes must match exactly."""
        if set(state) != set(self._entries):
            missing = sorted(set(self._entries) - set(state))
            extra = sorted(set(state) - set(self._entries))
            raise KernelError(f"checkpoint name set mismatch: missing={missing}, unexpected={extra}")
        for name, arr in state.items():
            t = self._entries[name]
            arr = np.asarray(arr, dtype=DTYPE)
            if arr.shape != t.data.shape:
                raise KernelError(f"shape mismatch for {name!r}: {arr.shape} vs {t.data.shape}")
            t.data = arr.copy()
            t.zero_grad()


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    lr: float = 1e-3
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(store: ParamStore, state: AdamState):
    """One Adam update with bias correction over every parameter in the store."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, p in store.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        if m.shape != p.data.shape:
            raise KernelError(f"parameter {name!r} changed shape between Adam steps")
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPSILON)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"TSQ1"


def save_checkpoint(store: ParamStore, path):
    """Write all parameters as float32 little-endian records, via a temporary
    file renamed over `path`, so a failed save leaves the old checkpoint intact."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", len(store)))
            for name, t in store.items():
                raw = name.encode("utf-8")
                arr = np.ascontiguousarray(t.data, dtype="<f4")
                fh.write(struct.pack("<I", len(raw)))
                fh.write(raw)
                fh.write(struct.pack("<I", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                fh.write(arr.tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint back into a name -> float64 array map."""

    def take(fh, n, what):
        buf = fh.read(n)
        if len(buf) != n:
            raise KernelError(f"truncated checkpoint while reading {what}")
        return buf

    out = {}
    with open(path, "rb") as fh:
        if take(fh, 4, "magic") != CHECKPOINT_MAGIC:
            raise KernelError("bad checkpoint magic")
        (count,) = struct.unpack("<I", take(fh, 4, "count"))
        for _ in range(count):
            (nlen,) = struct.unpack("<I", take(fh, 4, "name length"))
            name = take(fh, nlen, "name").decode("utf-8")
            (rank,) = struct.unpack("<I", take(fh, 4, "rank"))
            dims = struct.unpack(f"<{rank}I", take(fh, 4 * rank, "dims"))
            n = int(np.prod(dims)) if dims else 1
            arr = np.frombuffer(take(fh, 4 * n, f"data of {name}"), dtype="<f4")
            out[name] = arr.reshape(dims).astype(DTYPE)
        if fh.read(1):
            raise KernelError("trailing bytes after checkpoint records")
    if len(out) != count:
        raise KernelError("duplicate parameter names in checkpoint")
    return out
