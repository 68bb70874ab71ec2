"""Input embeddings: frozen word vectors, type-tag rows and column-name vectors.

Word vectors are frozen and loaded from text files (one `token v1 .. vd`
line each). `TYPE_INDEX` gives each tag kind its row of the trainable
type table, which `slots.SketchModel` registers. A column is represented
by the mean of its name-word vectors; the bi-LSTMs that encode questions
and columns belong to the slot models.
"""

from __future__ import annotations

import math

import numpy as np

from .tables import not_utf8
from .tagger import BASE_TAGS, tokenize

TYPE_INDEX = {kind: i for i, kind in enumerate(BASE_TAGS)}


class EmbeddingError(ValueError):
    pass


class EmbeddingStore:
    """Frozen word vectors; unknown tokens look up as the zero vector."""

    def __init__(self, word_vectors: dict[str, np.ndarray], dim: int):
        self.word_vectors = word_vectors
        self.dim = int(dim)
        self._zero = np.zeros(self.dim)

    def word_vec(self, token: str) -> np.ndarray:
        return self.word_vectors.get(token, self._zero)

    def __contains__(self, token: str) -> bool:
        return token in self.word_vectors

    def __len__(self) -> int:
        return len(self.word_vectors)


def load_embedding_file(path) -> tuple[dict[str, np.ndarray], int]:
    """Parse one embedding text file; all lines must share a dimension."""
    vectors: dict[str, np.ndarray] = {}
    dim = None
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line.strip():
                    continue
                parts = line.split(" ")
                if len(parts) < 2:
                    raise EmbeddingError(f"{path}:{lineno}: expected 'token v1 .. vd'")
                token = parts[0]
                try:
                    values = [float(x) for x in parts[1:]]
                except ValueError:
                    raise EmbeddingError(f"{path}:{lineno}: non-numeric vector component") from None
                # a finite sum proves every component finite; only a failing line is checked fully
                if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
                    raise EmbeddingError(f"{path}:{lineno}: non-finite vector component")
                vec = np.array(values, dtype=np.float64)
                if dim is None:
                    dim = vec.size
                elif vec.size != dim:
                    raise EmbeddingError(
                        f"{path}:{lineno}: dimension {vec.size} != {dim} from earlier lines")
                vectors[token] = vec
        except UnicodeDecodeError as exc:
            raise EmbeddingError(not_utf8(path, exc)) from None
    if dim is None:
        raise EmbeddingError(f"{path}: no embedding entries")
    return vectors, dim


def load_embeddings(paths) -> EmbeddingStore:
    """Load one or two embedding files; two files concatenate per token.

    A token present in only one file is zero-padded on the missing side.
    """
    paths = list(paths)
    if not 1 <= len(paths) <= 2:
        raise EmbeddingError(f"expected 1 or 2 embedding files, got {len(paths)}")
    first, d1 = load_embedding_file(paths[0])
    if len(paths) == 1:
        return EmbeddingStore(first, d1)
    second, d2 = load_embedding_file(paths[1])
    merged: dict[str, np.ndarray] = {}
    for token in set(first) | set(second):
        left = first.get(token, np.zeros(d1))
        right = second.get(token, np.zeros(d2))
        merged[token] = np.concatenate([left, right])
    return EmbeddingStore(merged, d1 + d2)


# ---------------------------------------------------------------------------
# Column names
# ---------------------------------------------------------------------------

def column_name_vector(name: str, emb: EmbeddingStore) -> np.ndarray:
    """Mean of the column's name-word vectors; all-OOV names give zero."""
    words = tokenize(name)[0]
    if not words:
        return np.zeros(emb.dim)
    return np.mean([emb.word_vec(w) for w in words], axis=0)
