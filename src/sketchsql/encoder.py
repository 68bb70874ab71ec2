"""Input embeddings: frozen word vectors, type-tag rows and column-name vectors.

Word vectors are frozen and loaded from text files (one `token v1 .. vd` line each,
every number read by float()); a binary sidecar next to each file, keyed by the
sha256 of its bytes, spares parsing the same bytes twice; a store read from it maps
its rows rather than copying them. `TYPE_INDEX` gives each tag kind its row of the
trainable type table, which `slots.SketchModel` registers. A column is represented by
the mean of its name-word vectors (`column_name_matrix`); the bi-LSTMs that encode
questions and columns belong to the slot models.
"""

from __future__ import annotations

import hashlib
import io
import math
import mmap
import os
import struct
import zlib
from contextlib import suppress

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
    costs about 100 bytes. Every block but the last holds the same number of rows, fixed
    when the store is built.

    A store parsed from text owns its blocks: blocks, not one (V, d) matrix, because a
    matrix is one large allocation that cannot reuse the memory a trained model has
    freed. A store read from a sidecar keeps the sidecar mapped read-only while it lives
    and its blocks are views of the map, so it holds in memory only the pages its
    lookups touch, not 8·V·d bytes. Deleting the sidecar or replacing it by rename is
    safe; rewriting or truncating it in place kills the process with SIGBUS, and this
    module never writes a sidecar in place.
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


# Rows of every block but the last, for a parsed store and for one built from a dict.
# The sidecar header records it and a sidecar of another block length is not read, so
# changing it invalidates every existing sidecar.
CHUNK_LINES = 128


def _parts(tokens: list[str]):
    """`tokens` in runs of up to CHUNK_LINES, one a block."""
    return (tokens[i:i + CHUNK_LINES] for i in range(0, len(tokens), CHUNK_LINES))


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


def _parse(path, binary) -> tuple[list[str], list[np.ndarray], int]:
    """(tokens, blocks, dim) of the embedding text read from `binary`, a buffered reader
    of path's bytes; messages name path.

    Each line goes through `_line_vector` in file order, so the first bad line, or
    the first bytes that are not UTF-8, is the error; each run of CHUNK_LINES
    vectors becomes one (n, d) block.
    """
    tokens: list[str] = []
    blocks: list[np.ndarray] = []
    vectors: list[np.ndarray] = []
    dim = None
    for lineno, line in text_lines(path, EmbeddingError, binary):
        token, vec = _line_vector(path, lineno, line, dim)
        dim = vec.size
        tokens.append(token)
        vectors.append(vec)
        if len(vectors) == CHUNK_LINES:
            blocks.append(np.array(vectors))
            vectors = []
    if dim is None:
        raise EmbeddingError(f"{path}: no embedding entries")
    if vectors:
        blocks.append(np.array(vectors))
    return tokens, blocks, dim


# The sidecar `<file>.sketchsql-cache` holds what `_parse` made of the file's bytes: a
# header (magic, format, the text's sha256, CHUNK_LINES, d, rows), then per block its
# tokens' UTF-8 byte count and a CRC32 of its tokens and rows, its tokens joined by "\n"
# (no token holds a newline) and its rows as little-endian float64.
CACHE_SUFFIX = ".sketchsql-cache"
_MAGIC = b"SKSQLEMB"
_FORMAT = 1
_HEADER = struct.Struct("<8sI32sIIQ")
_BLOCK = struct.Struct("<II")
_HASH_BYTES = 1 << 16


class _Hashed(io.RawIOBase):
    """A file opened unbuffered for binary reading, hashing (sha256) each byte read."""

    def __init__(self, raw):
        self.raw = raw
        self.sha = hashlib.sha256()

    def readable(self):
        return True

    def readinto(self, buffer):
        n = self.raw.readinto(buffer)
        self.sha.update(memoryview(buffer)[:n])
        return n


def _sha256(path) -> bytes:
    with open(path, "rb", buffering=0) as raw:
        hashed = _Hashed(raw)
        while hashed.read(_HASH_BYTES):
            pass
    return hashed.sha.digest()


def _read_cache(cache: str, path) -> EmbeddingStore | None:
    """The store the sidecar `cache` holds for the bytes path holds now, or None when it
    holds none: any sidecar that is absent, unreadable, of another format or block
    length, made from other bytes, or fails a size or CRC check.

    The checks read the rows through one reusable buffer; only once the whole file has
    passed them is the same open file mapped read-only, each block a view of its rows."""
    try:
        with open(cache, "rb") as fh:
            header = fh.read(_HEADER.size)
            if len(header) != _HEADER.size:
                return None
            magic, version, sha, chunk_lines, dim, rows = _HEADER.unpack(header)
            if (magic, version, chunk_lines) != (_MAGIC, _FORMAT, CHUNK_LINES) or not rows:
                return None
            # every count is checked against the file's size before it sizes a buffer,
            # so a damaged count allocates nothing
            size = os.fstat(fh.fileno()).st_size
            least = _HEADER.size + -(-rows // chunk_lines) * _BLOCK.size + 8 * rows * dim
            if least > size or sha != _sha256(path):
                return None
            buffer = np.empty((min(chunk_lines, rows), dim), dtype="<f8")
            tokens, spans = [], []
            for start in range(0, rows, chunk_lines):
                meta = fh.read(_BLOCK.size)
                if len(meta) != _BLOCK.size:
                    return None
                text_bytes, crc = _BLOCK.unpack(meta)
                if text_bytes > size - fh.tell():
                    return None
                text = fh.read(text_bytes)
                block = buffer[:rows - start]
                spans.append((len(block), fh.tell()))
                if (len(text) != text_bytes or fh.readinto(block) != block.nbytes
                        or zlib.crc32(block, zlib.crc32(text)) != crc):
                    return None
                part = text.decode().split("\n")
                if len(part) != len(block):
                    return None
                tokens += part
            if fh.read(1):
                return None
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError):  # ValueError: not UTF-8, or emptied before the map
        return None
    if len(mapped) != size:  # cut short since its checks: a view would reach past its end
        return None
    blocks = [np.ndarray((n, dim), "<f8", buffer=mapped, offset=at) for n, at in spans]
    return EmbeddingStore.from_blocks(tokens, blocks, dim)


def _write_cache(cache: str, sha: bytes, tokens: list[str], blocks: list[np.ndarray],
                 dim: int):
    """Write the sidecar `cache` for text of digest sha, via a temporary file renamed
    into place. Best effort: a failed write is silent and removes its temporary file,
    and a non-empty file there that does not start with the magic is left alone. The
    file is not fsynced: a sidecar a crash cut short fails its checks and is rebuilt."""
    try:
        with open(cache, "rb") as fh:
            if fh.read(len(_MAGIC)) not in (b"", _MAGIC):
                return
    except FileNotFoundError:
        pass
    except OSError:
        return
    tmp = f"{cache}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEADER.pack(_MAGIC, _FORMAT, sha, CHUNK_LINES, dim, len(tokens)))
            for part, block in zip(_parts(tokens), blocks):
                text = "\n".join(part).encode()
                rows = block.astype("<f8", copy=False)
                fh.write(_BLOCK.pack(len(text), zlib.crc32(rows, zlib.crc32(text))))
                fh.write(text)
                fh.write(rows)
        os.replace(tmp, cache)
    except BaseException as exc:
        with suppress(OSError):
            os.remove(tmp)
        if not isinstance(exc, OSError):
            raise


def load_embedding_file(path) -> EmbeddingStore:
    """Load one embedding text file; all lines must share a dimension.

    The vectors come from the sidecar `<path>.sketchsql-cache` when it was made from
    the file's exact bytes, as read-only views of its map; otherwise the text is
    parsed (see `_parse`) and the sidecar written for the bytes the parse read, and
    the store keeps the parse's blocks. A token on two lines resolves to the later one.
    """
    cache = os.fspath(path) + CACHE_SUFFIX
    store = _read_cache(cache, path)
    if store is None:
        with open(path, "rb", buffering=0) as raw:
            hashed = _Hashed(raw)
            tokens, blocks, dim = _parse(path, io.BufferedReader(hashed, _HASH_BYTES))
        _write_cache(cache, hashed.sha.digest(), tokens, blocks, dim)
        store = EmbeddingStore.from_blocks(tokens, blocks, dim)
    return store


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
