"""Dense 2-D tensor kernel with reverse-mode autodiff.

Everything the slot-filling models call and nothing more: matrices on a
gradient tape (`linear` is both a layer and the scores of rows against rows,
so there is no transpose op; `gather_rows` is the one row selection), one
LSTM cell (a fused sequence node that runs groups of directions over
row-stacked sequences in a single loop, and an untaped step for greedy
decoding), stable softmax / cross-entropy / weighted BCE,
inverted dropout, Adam with fixed decay rates, and `.npz` checkpoints of
float64 arrays. Arrays are numpy; every tensor is 2-D (row vectors are 1xN,
scalars 1x1). A minibatch is its examples' rows stacked, with segment lengths
saying which rows belong to which example; the tape is rebuilt per minibatch,
never cached. A scan step of the fused LSTM allocates nothing: its ufuncs write
into state made before the loop (one step's, reused, when untaped; every step's,
made per phase for the directions running in it, when taped, since the backward
reads it).
"""

from __future__ import annotations

import os
import zipfile
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import NamedTuple

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


def backward(loss: Tensor):
    """Reverse-mode pass from a scalar loss.

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


# ---------------------------------------------------------------------------
# Elementwise and linear algebra ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b; b may be a 1xC row broadcast over a's rows."""
    a_shape, b_shape = a.data.shape, b.data.shape
    if a_shape == b_shape:
        def bwd(g, a=a, b=b):
            _accum(a, g)
            _accum(b, g)
    elif b_shape == (1, a_shape[1]):
        def bwd(g, a=a, b=b):
            _accum(a, g)
            _accum(b, g.sum(axis=0, keepdims=True))
    else:
        raise KernelError(f"add shape mismatch: {a_shape} vs {b_shape}")
    return _node(a.data + b.data, (a, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[1] != b.data.shape[0]:
        raise KernelError(f"matmul shape mismatch: {a.shape} @ {b.shape}")

    def bwd(g, a=a, b=b, ad=a.data, bd=b.data):
        _accum(a, g @ bd.T)
        _accum(b, ad.T @ g)

    return _node(a.data @ b.data, (a, b), bwd)


def linear(a: Tensor, w: Tensor) -> Tensor:
    """a @ w.T: a layer with weights stored as (out, in), or each row of a scored against
    each row of w."""
    if a.data.shape[1] != w.data.shape[1]:
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


def block(a: Tensor, r0: int, r1: int, j0: int, j1: int) -> Tensor:
    """Rows r0:r1 and columns j0:j1 of a, as a contiguous copy."""
    rows, cols = a.data.shape
    if not (0 <= r0 < r1 <= rows and 0 <= j0 < j1 <= cols):
        raise KernelError(f"block [{r0}:{r1}, {j0}:{j1}] out of range for shape {a.shape}")

    def bwd(g, a=a):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[r0:r1, j0:j1] += g

    return _node(a.data[r0:r1, j0:j1].copy(), (a,), bwd)


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
    if a.data.shape[0] != b.data.shape[0]:
        raise KernelError(f"concat_cols row mismatch: {a.shape} vs {b.shape}")
    na = a.data.shape[1]

    def bwd(g, a=a, b=b, na=na):
        _accum(a, g[:, :na])
        _accum(b, g[:, na:])

    return _node(np.hstack([a.data, b.data]), (a, b), bwd)


def gather_rows(table: Tensor, indices) -> Tensor:
    """Rows of `table` by index, repeats allowed."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise KernelError("gather_rows takes a flat index list")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise KernelError(f"gather_rows index out of range for shape {table.shape}")

    def bwd(g, table=table, idx=idx):
        # one 1-D add.at over flat element indices: each element sums in the same order as
        # a 2-D add.at over rows, much faster; the flat view needs a C-ordered gradient
        n_cols = table.data.shape[1]
        if table.grad is None:
            table.grad = np.zeros(table.data.shape, dtype=table.data.dtype)
        elif not table.grad.flags.c_contiguous:
            table.grad = np.ascontiguousarray(table.grad)
        flat = idx[:, None] * n_cols + np.arange(n_cols)
        np.add.at(table.grad.reshape(-1), flat.reshape(-1), g.reshape(-1))

    return _node(table.data[idx], (table,), bwd)


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
        return self.Wh.data.shape[1]


def _cell(sig: np.ndarray, c: np.ndarray, g, c_next, tanh_c, h):
    """The LSTM cell in place, from (..., 4H) gate pre-activations in sig and the previous
    (..., H) cells c, into arrays of the caller's (c_next may be c).

    sig is left holding the sigmoid of every pre-activation, whose first, second and
    fourth quarters are the i, f and o gates; g gets the candidate, tanh of the third
    quarter, then c_next the new cell, tanh_c its tanh and h the new state. Callers
    silence exp overflow, which saturates the sigmoid correctly.
    """
    hid = c.shape[-1]
    np.tanh(sig[..., 2 * hid : 3 * hid], g)
    np.negative(sig, sig)
    np.exp(sig, sig)
    np.add(1.0, sig, sig)
    np.divide(1.0, sig, sig)
    np.multiply(sig[..., hid : 2 * hid], c, c_next)
    np.multiply(sig[..., :hid], g, tanh_c)  # i * g, until tanh c overwrites it
    np.add(c_next, tanh_c, c_next)
    np.tanh(c_next, tanh_c)
    np.multiply(sig[..., 3 * hid :], tanh_c, h)


def lstm_step(x: Tensor, h_prev: Tensor, c_prev: Tensor, w: LstmWeights):
    """One untaped LSTM cell update for greedy decoding, on one row per sequence (the
    pointer decoder steps every live condition at once); returns (h, c).

    Training runs every recurrence through lstm_sequence: a gradient request is an error.
    """
    if x.data.shape[1] != w.Wx.data.shape[1]:
        raise KernelError(f"lstm_step shape mismatch: {x.shape} with weight {w.Wx.shape}")
    if _grad_enabled and (x.requires_grad or h_prev.requires_grad or c_prev.requires_grad
                          or w.Wx.requires_grad or w.Wh.requires_grad or w.b.requires_grad):
        raise KernelError("lstm_step records no gradient; use lstm_sequence or no_grad()")
    pre = x.data @ w.Wx.data.T + h_prev.data @ w.Wh.data.T + w.b.data
    g, c, tanh_c, h = (np.empty_like(c_prev.data) for _ in range(4))
    with np.errstate(over="ignore"):
        _cell(pre, c_prev.data, g, c, tanh_c, h)
    return Tensor._wrap(h), Tensor._wrap(c)


@lru_cache(maxsize=32)
def _scan_indices(n_rows: int, lengths: tuple | None, reverse: tuple):
    """Index arrays of a grouped ragged scan (see lstm_sequence), built once per shape.

    rows[s, j, b] is the row direction j reads in sequence b at scan step s; step and seq
    are the scan step and the sequence that write each output row, per direction. The
    arrays are shared between calls, so they are read-only.
    """
    lengths = _segments(lengths, n_rows)
    n_seq, t_max = lengths.size, int(lengths.max())
    starts = np.cumsum(lengths) - lengths
    rev = np.array(reverse)[:, None]  # (k, 1)
    t = np.minimum(np.arange(t_max)[:, None, None], lengths - 1)  # idle: re-read the last
    rows = starts + np.where(rev, lengths - 1 - t, t)  # (t_max, k, B)
    seq = np.repeat(np.arange(n_seq), lengths)[:, None]  # (rows, 1)
    pos = np.arange(n_rows)[:, None] - starts[seq]
    step = np.where(rev.T, lengths[seq] - 1 - pos, pos)  # (rows, k)
    dirs = np.arange(len(reverse))
    for arr in (rows, seq, step, dirs):
        arr.flags.writeable = False
    return n_seq, t_max, rows, seq, step, dirs


class _ScanGroup(NamedTuple):
    """One direction group of a fused scan: its input, weights and scan indices."""

    xs: Tensor
    ws: list
    n_seq: int
    t_max: int
    rows: np.ndarray
    seq: np.ndarray
    step: np.ndarray
    dirs: np.ndarray


def _scan_group(xs: Tensor, ws, reverse, lengths) -> _ScanGroup:
    """A checked direction group; see lstm_sequence."""
    if isinstance(ws, LstmWeights):
        ws, reverse = [ws], [reverse]
    k, n_rows = len(ws), xs.data.shape[0]
    if k == 0:
        raise KernelError("lstm_sequence needs at least one direction")
    if isinstance(reverse, bool) or len(reverse) != k:
        raise KernelError(f"lstm_sequence needs one reverse flag per direction, got {reverse!r}")
    hid = ws[0].hidden
    for w in ws:
        if w.hidden != hid:
            raise KernelError(f"lstm_sequence hidden widths differ: {w.hidden} vs {hid}")
        if xs.data.shape[1] != w.Wx.data.shape[1]:
            raise KernelError(f"lstm_sequence shape mismatch: {xs.shape} with weight {w.Wx.shape}")
    if n_rows < 1:
        raise KernelError("empty sequence")
    try:
        indices = _scan_indices(n_rows, None if lengths is None else tuple(lengths),
                                tuple(reverse))
    except TypeError:  # an unhashable entry, so no segment length
        raise KernelError(f"segment lengths {lengths!r} do not split {n_rows} rows") from None
    return _ScanGroup(xs, list(ws), *indices)


def lstm_sequence(xs: Tensor, ws, reverse=False, lengths=None, more=()) -> Tensor:
    """Run groups of LSTM directions over row-stacked sequences as a single fused node.

    `ws` is one LstmWeights and `reverse` a bool, or both are parallel lists. `xs` stacks
    B sequences of the given `lengths` row-wise, (sum of lengths, d_in); by default it
    is one sequence. Its output has the same rows, (., k*H), direction blocks in group
    order. `more` holds further groups as (xs, ws, reverse, lengths) tuples, each with its
    own input width and lengths but the same hidden width, direction count and sequence
    count; their output rows follow the first group's, in order.

    One loop runs every recurrence from a zero state against the stacked Wh: every
    sequence starts at scan step 0 in every direction, so a shorter one idles only at the
    end of its group's scan, where no output reads it and no gradient reaches it, and a
    group leaves the loop once its longest sequence ends. Each direction's output and
    gradients are bitwise as if its group ran alone. A taped call keeps each step's state
    for the backward, made at the start of its phase for the directions that run in it;
    an untaped one (under no_grad, or with nothing that requires a gradient) overwrites
    one step's. The backward is one hand-written BPTT loop.
    """
    groups = [_scan_group(xs, ws, reverse, lengths)] + [_scan_group(*g) for g in more]
    k, n_seq, hid = len(groups[0].ws), groups[0].n_seq, groups[0].ws[0].hidden
    for grp in groups[1:]:
        if grp.ws[0].hidden != hid or len(grp.ws) != k or grp.n_seq != n_seq:
            raise KernelError("lstm_sequence groups differ in hidden width, direction count "
                              f"or sequence count: {grp.ws[0].hidden}, {len(grp.ws)}, "
                              f"{grp.n_seq} vs {hid}, {k}, {n_seq}")
    # the scan holds the groups longest first, so the directions running at any step are
    # a prefix: scan[i] owns directions i*k:(i+1)*k. A phase (n, lo, hi) runs the first n
    # directions over scan steps lo..hi-1
    order = sorted(range(len(groups)), key=[-grp.t_max for grp in groups].__getitem__)
    scan = [groups[i] for i in order]
    ends = [grp.t_max for grp in scan] + [0]
    phases = [(m * k, ends[m], ends[m - 1]) for m in range(len(scan), 0, -1)
              if ends[m] < ends[m - 1]]
    t_max, n_dirs = ends[0], k * len(scan)
    Wh = np.concatenate([w.Wh.data for grp in scan for w in grp.ws]).reshape(
        n_dirs, 4 * hid, hid)
    Wh_T = Wh.transpose(0, 2, 1)  # per direction the same strided view as Wh.T
    inputs = tuple(grp.xs for grp in groups)
    params = tuple(p for grp in groups for w in grp.ws for p in (w.Wx, w.Wh, w.b))
    taped = _grad_enabled and any(p.requires_grad for p in inputs + params)

    pre_x = []  # each group's input share of the gates, (t_max, k, B, 4H) in scan order
    for grp in scan:
        xw = np.empty((k, grp.xs.data.shape[0], 4 * hid))
        for j, w in enumerate(grp.ws):
            np.matmul(grp.xs.data, w.Wx.data.T, xw[j])
        pre = xw[grp.dirs[:, None], grp.rows]
        pre += np.concatenate([w.b.data for w in grp.ws])[:, None]
        pre_x.append(pre)
    hs = np.empty((t_max, n_dirs, n_seq, hid))  # h per scan step
    steps = []  # (sig, g, c, tanh c) per scan step, kept for the backward
    h = c = np.zeros((n_dirs, n_seq, hid))
    widths = (4 * hid, hid, hid, hid)  # of sig, g, c and tanh c
    if not taped:  # one step's state, overwritten by every step
        state = [np.empty((n_dirs, n_seq, width)) for width in widths]
        state[2] = c = np.zeros((n_dirs, n_seq, hid))
    with np.errstate(over="ignore"):
        for n, lo, hi in phases:
            pre = (pre_x[0][lo:hi] if n == k else
                   np.concatenate([p[lo:hi] for p in pre_x[: n // k]], axis=1))
            h, c, Wh_run = h[:n], c[:n], Wh_T[:n]
            if taped:  # every step's own state, kept for the backward; step-sized arrays,
                # because phase-sized ones measured a higher peak RSS in training
                bufs = [tuple(np.empty((n, n_seq, width)) for width in widths)
                        for _ in range(hi - lo)]
            else:
                bufs = repeat(tuple(s[:n] for s in state), hi - lo)
            for pre_sp, h_next, (sig, gate_g, c_next, tanh_c) in zip(pre, hs[lo:hi, :n], bufs):
                np.matmul(h, Wh_run, sig)
                np.add(pre_sp, sig, sig)
                _cell(sig, c, gate_g, c_next, tanh_c, h_next)
                h, c = h_next, c_next
                if taped:
                    steps.append((sig, gate_g, c_next, tanh_c))
    dirs = [i * k + grp.dirs for i, grp in enumerate(scan)]  # each group's direction slots
    place = sorted(range(len(order)), key=order.__getitem__)  # each group's index in scan
    outs = [hs[scan[i].step, dirs[i], scan[i].seq].reshape(-1, k * hid) for i in place]
    out = outs[0] if len(outs) == 1 else np.vstack(outs)

    def bwd(g):
        g_scan = np.zeros_like(hs)
        at = 0
        for i in place:
            grp, n_rows = scan[i], scan[i].xs.shape[0]
            g_scan[grp.step, dirs[i], grp.seq] = g[at : at + n_rows].reshape(n_rows, k, hid)
            at += n_rows
        dpre = np.empty((t_max, n_dirs, n_seq, 4 * hid))
        dh_next = dc_next = np.zeros((0, n_seq, hid))
        for n, lo, hi in reversed(phases):
            # the directions that join here start from a zero gradient at their last step
            pad = np.zeros((n - len(dh_next), n_seq, hid))
            dh_next, dc_next = np.concatenate([dh_next, pad]), np.concatenate([dc_next, pad])
            Wh_run = Wh[:n]
            for sp, g_sp, d in zip(range(hi - 1, lo - 1, -1), g_scan[lo:hi, :n][::-1],
                                   dpre[lo:hi, :n][::-1]):
                sig, gate_g, _, tc = steps[sp]
                i, f, o = sig[..., :hid], sig[..., hid : 2 * hid], sig[..., 3 * hid :]
                dh = g_sp + dh_next
                dc = dh * o * (1.0 - tc * tc) + dc_next
                c_before = steps[sp - 1][2][:n] if sp > 0 else 0.0
                d[..., :hid] = dc * gate_g * i * (1.0 - i)
                d[..., hid : 2 * hid] = dc * c_before * f * (1.0 - f)
                d[..., 2 * hid : 3 * hid] = dc * i * (1.0 - gate_g * gate_g)
                d[..., 3 * hid :] = dh * tc * o * (1.0 - o)
                dc_next = dc * f
                dh_next = np.matmul(d, Wh_run)
        for pos, grp in enumerate(scan):
            # a group's weight gradients sum over its own steps only
            own = slice(pos * k, (pos + 1) * k)
            d_grp = dpre[: grp.t_max, own]
            h_prev = np.zeros((grp.t_max, k, n_seq, hid))
            h_prev[1:] = hs[: grp.t_max - 1, own]
            d_rows_all = d_grp[grp.step, grp.dirs, grp.seq]  # (rows, k, 4H) in row order
            # per direction from contiguous copies: numpy leaves BLAS on strided operands
            for j, w in enumerate(grp.ws):
                d_rows = np.ascontiguousarray(d_rows_all[:, j])
                _accum(w.b, d_rows.sum(axis=0, keepdims=True))
                _accum(w.Wh,
                       d_grp[:, j].reshape(-1, 4 * hid).T @ h_prev[:, j].reshape(-1, hid))
                _accum(w.Wx, d_rows.T @ grp.xs.data)
                if grp.xs.requires_grad:
                    _accum(grp.xs, d_rows @ w.Wx.data)

    return _node(out, inputs + params, bwd)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

class ParamStore:
    """Named trainable tensors with deterministic (sorted-name) iteration."""

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(int(seed))
        self._entries: dict[str, Tensor] = {}

    def add(self, name: str, rows: int, cols: int, init: str = "fanin") -> Tensor:
        """Register a (rows, cols) parameter; init is uniform(-a, a), a=1/sqrt(cols). A
        shape too large to allocate raises MemoryError."""
        if name in self._entries:
            raise KernelError(f"duplicate parameter name {name!r}")
        if init not in ("zeros", "fanin"):
            raise KernelError(f"unknown init {init!r}")
        try:
            if init == "zeros":
                data = np.zeros((rows, cols), dtype=DTYPE)
            else:
                a = 1.0 / np.sqrt(cols)
                data = self._rng.uniform(-a, a, size=(rows, cols)).astype(DTYPE)
        except (TypeError, ValueError) as exc:  # a width numpy cannot index or take a root of
            raise MemoryError(f"{name} of shape ({rows}, {cols}): {exc}") from None
        t = Tensor(data, requires_grad=True)
        self._entries[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def names(self):
        return sorted(self._entries)

    def items(self):
        for name in self.names():
            yield name, self._entries[name]

    def zero_grad(self):
        for t in self._entries.values():
            t.zero_grad()

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


class AdamState:
    """Step count and first/second moments, zero at build for every parameter of a store."""

    def __init__(self, store: ParamStore, lr: float = 1e-3):
        self.lr = lr
        self.step_count = 0
        self.m = {name: np.zeros_like(t.data) for name, t in store.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in store.items()}


def adam_step(store: ParamStore, state: AdamState):
    """One Adam update with bias correction over every parameter in the store."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, p in store.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPSILON)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(store: ParamStore, path):
    """Write every parameter as a float64 member of an uncompressed `.npz` archive,
    via a temporary file renamed over `path`, so a failed save leaves the old
    checkpoint intact."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:  # a file object: given a path, np.savez appends ".npz"
            np.savez(fh, **{name: t.data for name, t in store.items()})
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint back into a name -> float64 array map. A file that is not
    such an archive raises a one-line KernelError that starts with the path."""
    try:
        archive = np.load(path, allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError("a bare .npy file")
        with archive:
            try:
                state = {name: archive[name] for name in archive.files}
            except OSError as exc:  # a member's offset points outside the file
                raise zipfile.BadZipFile(exc) from exc
    except zipfile.BadZipFile as exc:  # cut short, or a member fails its CRC
        raise KernelError(f"{path}: damaged checkpoint archive: {exc}") from exc
    except (ValueError, EOFError) as exc:
        # numpy says "pickled data" of any file that is neither .npy nor .npz
        raise KernelError(f"{path}: not an .npz checkpoint of float64 arrays") from exc
    if len(state) != len(archive.files):  # "w" and "w.npy" both load as "w"
        raise KernelError(f"{path}: duplicate member names in checkpoint")
    for name, arr in state.items():
        if getattr(arr, "dtype", None) != DTYPE:
            raise KernelError(f"{path}: checkpoint member {name!r} is not a float64 array")
    return state
