"""Input embeddings: frozen word vectors, type-tag rows and column-name vectors.

Word vectors are frozen and loaded from text files (one `token v1 .. vd`
line each). `TYPE_INDEX` gives each tag kind its row of the trainable
type table, which `slots.SketchModel` registers. A column is represented
by the mean of its name-word vectors (`column_name_matrix`); the bi-LSTMs
that encode questions and columns belong to the slot models.
"""

from __future__ import annotations

import math

import numpy as np

from .tables import text_lines
from .tagger import BASE_TAGS, tokenize

TYPE_INDEX = {kind: i for i, kind in enumerate(BASE_TAGS)}


class EmbeddingError(ValueError):
    pass


class EmbeddingStore:
    """Frozen word vectors; unknown tokens look up as the zero vector.

    The vectors stay in float64 blocks of up to CHUNK_LINES rows, and `rows` maps each
    token to its row number: one array object a block, not a token, as an array object
    costs about 100 bytes. Blocks, not one (V, d) matrix: a matrix is one large
    allocation that cannot reuse the memory a trained model has freed. Every block but
    the last holds the same number of rows, fixed when the store is built.
    """

    def __init__(self, word_vectors: dict[str, np.ndarray], dim: int):
        tokens = list(word_vectors)
        self._keep(tokens, [np.array([word_vectors[t] for t in part], dtype=np.float64)
                            for part in _parts(tokens)], dim)

    @classmethod
    def from_blocks(cls, tokens: list[str], blocks: list[np.ndarray], dim: int):
        """Store over `blocks`, whose rows in order belong to `tokens`; a token listed
        twice resolves to its later row."""
        store = cls.__new__(cls)
        store._keep(tokens, blocks, dim)
        return store

    def _keep(self, tokens, blocks, dim):
        self.rows = dict(zip(tokens, range(len(tokens))))
        self.blocks = blocks
        self.dim = int(dim)
        self._block_rows = len(blocks[0]) if blocks else 1
        self._zero = np.zeros(self.dim)

    def word_vec(self, token: str) -> np.ndarray:
        row = self.rows.get(token)
        if row is None:
            return self._zero
        block, i = divmod(row, self._block_rows)
        return self.blocks[block][i]

    def stack(self, tokens) -> np.ndarray:
        """(len(tokens), dim) word vectors of `tokens`, one row each."""
        return np.stack([self.word_vec(t) for t in tokens])

    def __contains__(self, token: str) -> bool:
        return token in self.rows


# Lines handed to one np.loadtxt call: enough to spread the call's cost, few enough
# that a chunk's transient copies (about 0.1 MB at 50 dimensions) leave little behind
# in the resident memory of a load (512 lines left 1.2 MB more than line by line).
CHUNK_LINES = 128


def _parts(tokens: list[str]):
    """`tokens` in runs of up to CHUNK_LINES, one a block."""
    return (tokens[i:i + CHUNK_LINES] for i in range(0, len(tokens), CHUNK_LINES))


# The vector text numpy reads exactly as float() does: both pass each field to
# CPython's PyOS_string_to_double, so the values are bitwise the same.
_PLAIN_DECIMAL = b"0123456789.eE+- "


def _line_vector(path, lineno: int, line: str, dim: int | None) -> tuple[str, np.ndarray]:
    """(token, vector) of one `token v1 .. vd` line, read with float(); every message
    about a bad line comes from here."""
    parts = line.split(" ")
    if len(parts) < 2:
        raise EmbeddingError(f"{path}:{lineno}: expected 'token v1 .. vd'")
    try:
        values = [float(x) for x in parts[1:]]
    except ValueError:
        raise EmbeddingError(f"{path}:{lineno}: non-numeric vector component") from None
    # a finite sum proves every component finite; only a failing line is checked fully
    if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
        raise EmbeddingError(f"{path}:{lineno}: non-finite vector component")
    if dim is not None and len(values) != dim:
        raise EmbeddingError(
            f"{path}:{lineno}: dimension {len(values)} != {dim} from earlier lines")
    return parts[0], np.array(values, dtype=np.float64)


def _plain_block(lines: list[str], dim: int | None) -> tuple[tuple[str, ...], np.ndarray] | None:
    """(tokens, (n, d) vectors) of lines whose vectors are all plain decimals of the
    file's dimension with finite values, read by one np.loadtxt call; None otherwise."""
    pairs = [line.split(" ", 1) for line in lines]
    if min(map(len, pairs)) < 2:
        return None
    tokens, rests = zip(*pairs)
    if "" in rests:
        return None
    text = " ".join(rests)
    if not text.isascii() or text.encode().translate(None, _PLAIN_DECIMAL):
        return None
    try:
        block = np.loadtxt(rests, dtype=np.float64, delimiter=" ", comments=None, ndmin=2)
    except ValueError:
        return None
    n, d = block.shape
    # numpy splits at spaces only, so rows of d columns each hold at least d fields of
    # split(" "); n * d fields in all means every line holds exactly d
    if n != len(lines) or dim not in (None, d) or text.count(" ") != n * d - 1:
        return None
    return (tokens, block) if np.isfinite(block).all() else None


def _chunks(numbered_lines):
    """Lists of up to CHUNK_LINES (line number, line) pairs. Bytes that are not UTF-8
    fail only after the lines read before them are yielded, so a bad line among those
    is reported first, as a line-by-line reader would."""
    chunk = []
    try:
        for item in numbered_lines:
            chunk.append(item)
            if len(chunk) == CHUNK_LINES:
                yield chunk
                chunk = []
    except EmbeddingError:
        if chunk:
            yield chunk
        raise
    if chunk:
        yield chunk


def load_embedding_file(path) -> EmbeddingStore:
    """Parse one embedding text file; all lines must share a dimension.

    A chunk of plain-decimal lines goes through numpy's parser; any other chunk
    goes line by line through `_line_vector`, which accepts and rejects the same
    input. Each chunk's (n, d) array becomes one block of the store, and a token
    on two lines resolves to the later one.
    """
    tokens: list[str] = []
    blocks: list[np.ndarray] = []
    dim = None
    for chunk in _chunks(text_lines(path, EmbeddingError)):
        plain = _plain_block([line for _, line in chunk], dim)
        if plain is not None:
            chunk_tokens, block = plain
            tokens += chunk_tokens
        else:
            vectors = []
            for lineno, line in chunk:
                token, vec = _line_vector(path, lineno, line, dim)
                dim = vec.size
                tokens.append(token)
                vectors.append(vec)
            block = np.array(vectors)
        dim = block.shape[1]
        blocks.append(block)
    if dim is None:
        raise EmbeddingError(f"{path}: no embedding entries")
    return EmbeddingStore.from_blocks(tokens, blocks, dim)


def load_embeddings(paths) -> EmbeddingStore:
    """Load one or two embedding files; two files concatenate per token.

    A token present in only one file is zero-padded on the missing side.
    """
    paths = list(paths)
    if not 1 <= len(paths) <= 2:
        raise EmbeddingError(f"expected 1 or 2 embedding files, got {len(paths)}")
    first = load_embedding_file(paths[0])
    if len(paths) == 1:
        return first
    second = load_embedding_file(paths[1])
    tokens = list(first.rows | second.rows)
    blocks = [np.hstack([first.stack(part), second.stack(part)]) for part in _parts(tokens)]
    return EmbeddingStore.from_blocks(tokens, blocks, first.dim + second.dim)


# ---------------------------------------------------------------------------
# Column names
# ---------------------------------------------------------------------------

def column_name_matrix(header: list[str], emb: EmbeddingStore) -> np.ndarray:
    """(C, d) mean name-word vectors, one row per column name; a name with no tokens,
    or only unknown ones, gives zeros. Sums run as np.mean's do: from 0.0, word by
    word in order."""
    words = [tokenize(name)[0] if name.strip() else [] for name in header]
    counts = np.array([len(w) for w in words])
    # the last row pads shorter names: x + -0.0 is x for every x, -0.0 included
    table = np.stack([emb.word_vec(w) for name_words in words for w in name_words]
                     + [np.full(emb.dim, -0.0)])
    starts = np.cumsum(counts) - counts
    total = np.zeros((len(header), emb.dim))
    for k in range(counts.max()):
        total += table[np.where(k < counts, starts + k, -1)]
    return total / np.maximum(counts, 1)[:, None]
