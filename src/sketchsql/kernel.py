"""Dense 2-D tensor kernel with reverse-mode autodiff.

Everything the slot-filling models need and nothing more: matrices on a
gradient tape, one LSTM cell (a fused sequence node, and an untaped step
for greedy decoding), stable softmax / cross-entropy / weighted BCE,
inverted dropout, Adam, and a binary checkpoint format. Arrays are numpy;
every tensor is 2-D (row vectors are 1xN, scalars 1x1). The tape is
rebuilt per example or batch, never cached.
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

    Gradients accumulate into .grad of every requires_grad tensor reachable
    from the loss. A second call on the same loss without zero_grad is an
    error (the tape is single-shot).
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


def scale(a: Tensor, k: float) -> Tensor:
    def bwd(g, a=a, k=k):
        _accum(a, g * k)

    return _node(a.data * k, (a,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise KernelError(f"matmul shape mismatch: {a.shape} @ {b.shape}")

    def bwd(g, a=a, b=b, ad=a.data, bd=b.data):
        _accum(a, g @ bd.T)
        _accum(b, ad.T @ g)

    return _node(a.data @ b.data, (a, b), bwd)


def linear(a: Tensor, w: Tensor) -> Tensor:
    """a @ w.T for weights stored as (out, in); saves a transpose node."""
    if a.shape[1] != w.shape[1]:
        raise KernelError(f"linear shape mismatch: {a.shape} with weight {w.shape}")

    def bwd(g, a=a, w=w, ad=a.data, wd=w.data):
        _accum(a, g @ wd)
        _accum(w, g.T @ ad)

    return _node(a.data @ w.data.T, (a, w), bwd)


def transpose(a: Tensor) -> Tensor:
    def bwd(g, a=a):
        _accum(a, g.T)

    return _node(a.data.T.copy(), (a,), bwd)


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
        z = np.where(mask, z, -np.inf)
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    if mask is not None:
        e = np.where(mask, e, 0.0)
    out = e / e.sum(axis=1, keepdims=True)

    def bwd(g, a=a, out=out):
        _accum(a, out * (g - (g * out).sum(axis=1, keepdims=True)))

    return _node(out, (a,), bwd)


def sum_all(a: Tensor) -> Tensor:
    def bwd(g, a=a):
        _accum(a, np.full_like(a.data, g[0, 0]))

    return _node(np.array([[a.data.sum()]], dtype=a.data.dtype), (a,), bwd)


def sum_over_rows(a: Tensor) -> Tensor:
    """Column sums: (R, C) -> (1, C)."""

    def bwd(g, a=a):
        _accum(a, np.broadcast_to(g, a.shape).copy())

    return _node(a.data.sum(axis=0, keepdims=True), (a,), bwd)


def row(a: Tensor, i: int) -> Tensor:
    if not (0 <= i < a.shape[0]):
        raise KernelError(f"row index {i} out of range for shape {a.shape}")

    def bwd(g, a=a, i=i):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[i, :] += g[0]

    return _node(a.data[i : i + 1].copy(), (a,), bwd)


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


def tile_rows(a: Tensor, n: int) -> Tensor:
    if a.shape[0] != 1:
        raise KernelError(f"tile_rows needs a 1xC row, got {a.shape}")

    def bwd(g, a=a):
        _accum(a, g.sum(axis=0, keepdims=True))

    return _node(np.repeat(a.data, n, axis=0), (a,), bwd)


def embed_rows(table: Tensor, indices) -> Tensor:
    """Gather rows of `table` by index; index -1 yields a zero row."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise KernelError("embed_rows takes a flat index list")
    if (idx >= table.shape[0]).any() or (idx < -1).any():
        raise KernelError("embed_rows index out of range")
    out = np.zeros((len(idx), table.shape[1]), dtype=table.data.dtype)
    valid = idx >= 0
    out[valid] = table.data[idx[valid]]

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

def cross_entropy(logits: Tensor, target: int) -> Tensor:
    """-log softmax(logits)[target] for a 1xK logit row."""
    if logits.shape[0] != 1:
        raise KernelError(f"cross_entropy expects a 1xK row, got {logits.shape}")
    k = logits.shape[1]
    if not (0 <= target < k):
        raise KernelError(f"cross-entropy target {target} out of range for {k} classes")
    z = logits.data[0]
    m = z.max()
    e = np.exp(z - m)
    probs = e / e.sum()
    loss = float(m + np.log(e.sum()) - z[target])

    def bwd(g, logits=logits, probs=probs, target=target):
        d = probs.copy()
        d[target] -= 1.0
        _accum(logits, g[0, 0] * d.reshape(1, -1))

    return _node(np.array([[loss]], dtype=logits.data.dtype), (logits,), bwd)


def binary_cross_entropy(logits: Tensor, targets, pos_weight: float = 1.0) -> Tensor:
    """Sum over entries of weighted BCE-with-logits for a 1xC logit row."""
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
    """The LSTM cell on one (4H,) row of gate pre-activations and the previous (H,) cell.

    Returns (sig, g, c, tanh c, h): sig is the sigmoid of every pre-activation,
    whose first, second and fourth quarters are the i, f and o gates, and g is
    the candidate, tanh of the third quarter. Callers silence exp overflow,
    which saturates the sigmoid correctly.
    """
    hid = c.shape[0]
    sig = 1.0 / (1.0 + np.exp(-pre))
    g = np.tanh(pre[2 * hid : 3 * hid])
    c = sig[hid : 2 * hid] * c + sig[:hid] * g
    tanh_c = np.tanh(c)
    return sig, g, c, tanh_c, sig[3 * hid :] * tanh_c


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
        _, _, c, _, h = _cell(pre[0], c_prev.data[0])
    return Tensor._wrap(h.reshape(1, -1)), Tensor._wrap(c.reshape(1, -1))


def lstm_sequence(xs: Tensor, w: LstmWeights, reverse: bool = False) -> Tensor:
    """Run one LSTM direction over a (T, d_in) matrix as a single fused node.

    Forward precomputes all input projections in one matmul and loops only
    the recurrence; the backward is hand-written backprop through time.
    The initial state is zero.
    """
    t_len = xs.shape[0]
    if t_len < 1:
        raise KernelError("empty sequence")
    hid = w.hidden
    Wx, Wh, b = w.Wx.data, w.Wh.data, w.b.data
    if xs.shape[1] != Wx.shape[1]:
        raise KernelError(f"lstm_sequence shape mismatch: {xs.shape} with weight {Wx.shape}")
    idx = np.arange(t_len - 1, -1, -1) if reverse else np.arange(t_len)

    pre_x = xs.data @ Wx.T + b[0]
    out = np.empty((t_len, hid))
    steps = []  # (sig, g, c, tanh c) per scan step, kept for the backward
    h = np.zeros(hid)
    c = np.zeros(hid)
    with np.errstate(over="ignore"):
        for t in idx:
            sig, gate_g, c, tanh_c, h = _cell(pre_x[t] + h @ Wh.T, c)
            steps.append((sig, gate_g, c, tanh_c))
            out[t] = h

    def bwd(g):
        g_scan = g[idx]
        h_prev = np.zeros((t_len, hid))
        h_prev[1:] = out[idx[:-1]]
        dpre = np.empty((t_len, 4 * hid))
        dh_next = np.zeros(hid)
        dc_next = np.zeros(hid)
        for sp in range(t_len - 1, -1, -1):
            sig, gate_g, _, tc = steps[sp]
            i, f, o = sig[:hid], sig[hid : 2 * hid], sig[3 * hid :]
            dh = g_scan[sp] + dh_next
            dc = dh * o * (1.0 - tc * tc) + dc_next
            c_before = steps[sp - 1][2] if sp > 0 else 0.0
            dpre[sp, :hid] = dc * gate_g * i * (1.0 - i)
            dpre[sp, hid : 2 * hid] = dc * c_before * f * (1.0 - f)
            dpre[sp, 2 * hid : 3 * hid] = dc * i * (1.0 - gate_g * gate_g)
            dpre[sp, 3 * hid :] = dh * tc * o * (1.0 - o)
            dc_next = dc * f
            dh_next = dpre[sp] @ Wh
        _accum(w.b, dpre.sum(axis=0, keepdims=True))
        _accum(w.Wh, dpre.T @ h_prev)
        _accum(w.Wx, dpre.T @ xs.data[idx])
        if xs.requires_grad:
            dxs = np.empty_like(xs.data)
            dxs[idx] = dpre @ Wx
            _accum(xs, dxs)

    return _node(out, (xs, w.Wx, w.Wh, w.b), bwd)


def bilstm_encode(xs: Tensor, fw: LstmWeights, bw: LstmWeights) -> Tensor:
    """Encode a (T, d_in) sequence into (T, 2H): forward states ++ backward states."""
    return concat_cols(lstm_sequence(xs, fw), lstm_sequence(xs, bw, reverse=True))


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

class ParamStore:
    """Named trainable tensors with deterministic (sorted-name) iteration."""

    def __init__(self, seed: int = 0, dtype=DTYPE):
        self.rng_seed = int(seed)
        self.dtype = dtype
        self._rng = np.random.default_rng(self.rng_seed)
        self._entries: dict[str, Tensor] = {}

    def add(self, name: str, rows: int, cols: int, init: str = "fanin") -> Tensor:
        """Register a (rows, cols) parameter; init is uniform(-a, a), a=1/sqrt(cols)."""
        if name in self._entries:
            raise KernelError(f"duplicate parameter name {name!r}")
        if init == "zeros":
            data = np.zeros((rows, cols), dtype=self.dtype)
        elif init == "fanin":
            a = 1.0 / np.sqrt(cols)
            data = self._rng.uniform(-a, a, size=(rows, cols)).astype(self.dtype)
        else:
            raise KernelError(f"unknown init {init!r}")
        t = Tensor(data, requires_grad=True)
        self._entries[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

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
            arr = np.asarray(arr, dtype=self.dtype)
            if arr.shape != t.data.shape:
                raise KernelError(f"shape mismatch for {name!r}: {arr.shape} vs {t.data.shape}")
            t.data = arr.copy()
            t.zero_grad()


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(store: ParamStore, state: AdamState):
    """One Adam update with bias correction over every parameter in the store."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in store.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        if m.shape != p.data.shape:
            raise KernelError(f"parameter {name!r} changed shape between Adam steps")
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.epsilon)


# ---------------------------------------------------------------------------
# Finite differences (reference oracle, also used by the test suite)
# ---------------------------------------------------------------------------

def finite_diff_grad(f, store: ParamStore, eps: float = 1e-5) -> dict[str, np.ndarray]:
    """Central-difference gradient of f(store) per scalar parameter entry.

    f must be pure and deterministic (dropout off); it runs untaped.
    """
    grads = {}
    with no_grad():
        for name, p in store.items():
            g = np.zeros_like(p.data)
            flat = p.data.reshape(-1)
            gflat = g.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = f(store)
                flat[i] = orig - eps
                lo = f(store)
                flat[i] = orig
                gflat[i] = (hi - lo) / (2.0 * eps)
            grads[name] = g
    return grads


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
