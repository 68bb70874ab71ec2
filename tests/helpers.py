"""Shared fixtures: the worked-example table/question, a small gazetteer, seeded byte
and JSON-value damage, and the finite-difference gradient oracle."""

import json
import random

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


DAMAGE = ("cut", "flip", "insert", "delete")


def damaged(raw: bytes, seed: int) -> bytes:
    """raw with one kind of damage, DAMAGE[seed % 4], at a place drawn from seed: cut
    short there, one bit flipped, or 1 to 8 bytes inserted or deleted."""
    rng = random.Random(seed)
    kind, at = DAMAGE[seed % len(DAMAGE)], rng.randrange(len(raw))
    if kind == "cut":
        return raw[:at]
    if kind == "flip":
        return raw[:at] + bytes([raw[at] ^ 1 << rng.randrange(8)]) + raw[at + 1:]
    n = rng.randint(1, 8)
    if kind == "insert":
        return raw[:at] + rng.randbytes(n) + raw[at:]
    return raw[:at] + raw[at + n:]


# [0, 0]: a condition of two parts where three belong
HOSTILE = (10**30, [], None, -0.0, "\u00e9", [0, 0])


def json_slots(value):
    """(container, key) of every value nested in a parsed JSON value."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, inner in list(items):
        yield value, key
        yield from json_slots(inner)


def hostile(raw: str, seed: int) -> str:
    """raw, JSON lines, with one value of one line drawn from seed replaced by one of
    HOSTILE, or, for about one seed in five, one key of an object dropped."""
    rng = random.Random(seed)
    lines = raw.splitlines()
    at = rng.randrange(len(lines))
    record = json.loads(lines[at])
    container, key = rng.choice(list(json_slots(record)))
    if isinstance(container, dict) and rng.random() < 0.2:
        del container[key]
    else:
        container[key] = rng.choice(HOSTILE)
    lines[at] = json.dumps(record, ensure_ascii=False)
    return "\n".join(lines) + "\n"


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
