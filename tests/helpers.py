"""Shared fixtures: the worked-example table/question, a small gazetteer, and the
finite-difference gradient oracle."""

import numpy as np

from sketchsql import kernel as K
from sketchsql.tables import Table
from sketchsql.tagger import Gazetteer

# 13 tokens: the | spoofed | title | with | mort | drucker | as | the |
#            artist | for | issue | 88.5 | ?
MAGAZINE_QUESTION = "the spoofed title with mort drucker as the artist for issue 88.5?"

MAGAZINE_CONTENT_TAGS = [
    "none", "column", "column", "none", "artist", "artist",
    "none", "none", "column", "none", "column", "issue", "none",
]

MAGAZINE_INSENSITIVE_TAGS = [
    "none", "column", "column", "none", "person", "person",
    "none", "none", "column", "none", "column", "float", "none",
]

MAGAZINE_GOLD_SQL = {"sel": 0, "agg": 0, "conds": [[1, 0, "mort drucker"], [2, 0, "88.5"]]}


def short_id(value) -> str:
    """A readable test id, also for numbers hundreds of digits long."""
    text = repr(value)
    return text if len(text) <= 24 else f"{text[:8]}...{len(text)}chars"


def magazine_table() -> Table:
    return Table(
        id="mag",
        header=["spoofed title", "artist", "issue"],
        types=["text", "text", "real"],
        rows=[
            ["star blecch", "mort drucker", 88.5],
            ["the empire strikes out", "al jaffee", 203],
            ["star roars", "mort drucker", 356],
        ],
    )


def demo_gazetteer() -> Gazetteer:
    return Gazetteer([
        ("mort drucker", "person"),
        ("al jaffee", "person"),
        ("new york", "place"),
        ("france", "country"),
        ("red sox", "organization"),
        ("baseball", "sport"),
    ])


def with_inf_backward(op):
    """op with the same forward, whose backward passes +inf to its first input."""
    def patched(*args, **kwargs):
        out = op(*args, **kwargs)
        out._bwd = lambda g, a=args[0]: K._accum(a, np.full_like(a.data, np.inf))
        return out
    return patched


def gradients(store: K.ParamStore) -> dict[str, np.ndarray]:
    """Gradient per parameter after K.backward; parameters it did not reach map to zeros."""
    return {name: np.zeros_like(t.data) if t.grad is None else t.grad.copy()
            for name, t in store.items()}


def finite_diff_grad(f, store: K.ParamStore, eps: float = 1e-5) -> dict[str, np.ndarray]:
    """Central-difference gradient of f(store) per scalar parameter entry.

    f must be pure and deterministic (dropout off); it runs untaped.
    """
    grads = {}
    with K.no_grad():
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
