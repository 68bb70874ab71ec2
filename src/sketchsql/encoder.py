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
from array import array
from contextlib import suppress

import numpy as np

from .tables import text_lines
from .tagger import BASE_TAGS, tokenize

TYPE_INDEX = {kind: i for i, kind in enumerate(BASE_TAGS)}


class EmbeddingError(ValueError):
    pass


class EmbeddingStore:
    """Frozen word vectors; unknown tokens look up as the zero vector.

    `vectors` is one (V, d) float64 array and `rows` maps each token to its row. A store
    parsed from text owns `vectors`; one read from a sidecar keeps the sidecar mapped
    read-only while it lives and `vectors` is a view of the map, so it holds in memory
    only the pages its lookups touch, not 8·V·d bytes. Deleting the sidecar or replacing
    it by rename is safe; rewriting or truncating it in place kills the process with
    SIGBUS, and this module never writes a sidecar in place.
    """

    def __init__(self, word_vectors: dict[str, np.ndarray], dim: int):
        self._keep(list(word_vectors),
                   np.array(list(word_vectors.values()), dtype=np.float64).reshape(-1, dim))

    @classmethod
    def from_matrix(cls, tokens: list[str], vectors: np.ndarray):
        """Store over the (V, d) `vectors`, whose rows in order belong to `tokens`; a
        token listed twice resolves to its later row."""
        store = cls.__new__(cls)
        store._keep(tokens, vectors)
        return store

    def _keep(self, tokens, vectors):
        self.rows = dict(zip(tokens, range(len(tokens))))
        self.vectors = vectors
        self.dim = vectors.shape[1]
        self._zero = np.zeros(self.dim)

    def word_vec(self, token: str) -> np.ndarray:
        row = self.rows.get(token)
        return self._zero if row is None else self.vectors[row]

    def stack(self, tokens) -> np.ndarray:
        """(len(tokens), dim) word vectors of `tokens`, one row each."""
        return np.stack([self.word_vec(t) for t in tokens])

    def __contains__(self, token: str) -> bool:
        return token in self.rows


def _line_vector(path, lineno: int, line: str, dim: int | None) -> tuple[str, list[float]]:
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
    return parts[0], values


def _parse(path, binary) -> tuple[list[str], np.ndarray]:
    """(tokens, (V, d) vectors) of the embedding text read from `binary`, a buffered
    reader of path's bytes; messages name path.

    Each line goes through `_line_vector` in file order, so the first bad line, or
    the first bytes that are not UTF-8, is the error; its floats are appended to one
    array("d"), which the vectors view without a copy.
    """
    tokens: list[str] = []
    values = array("d")
    dim = None
    for lineno, line in text_lines(path, EmbeddingError, binary):
        token, vec = _line_vector(path, lineno, line, dim)
        dim = len(vec)
        tokens.append(token)
        values.extend(vec)
    if dim is None:
        raise EmbeddingError(f"{path}: no embedding entries")
    return tokens, np.frombuffer(values, dtype=np.float64).reshape(-1, dim)


# The sidecar `<file>.sketchsql-cache` holds what `_parse` made of the file's bytes: a
# header (magic, format, the text's sha256, d, rows, the tokens' UTF-8 byte count and a
# CRC32 of every other byte of the file), the tokens joined by "\n" (no token holds a
# newline), zero bytes up to a multiple of 8, and the rows as little-endian float64.
CACHE_SUFFIX = ".sketchsql-cache"
_MAGIC = b"SKSQLEMB"
_FORMAT = 2
_HEADER = struct.Struct("<8sI32sIQQI")
_HASH_BYTES = 1 << 16
# rows of a two-file merge filled per step, which bounds its temporary arrays
_MERGE_ROWS = 4096


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
    holds none: any sidecar that is absent, unreadable, of another format or size, made
    from other bytes, or fails its CRC.

    The CRC reads the file through one reusable buffer; only once the whole file has
    passed the checks is the same open file mapped read-only, the vectors one view."""
    try:
        with open(cache, "rb") as fh:
            header = fh.read(_HEADER.size)
            magic, version, sha, dim, rows, text_bytes, crc = _HEADER.unpack(header)
            # the size is checked before any count sizes a read: a damaged one allocates nothing
            size = os.fstat(fh.fileno()).st_size
            rows_at = (_HEADER.size + text_bytes + 7) // 8 * 8
            if ((magic, version) != (_MAGIC, _FORMAT) or size != rows_at + 8 * rows * dim
                    or sha != _sha256(path)):
                return None
            text = fh.read(text_bytes)
            check = zlib.crc32(text, zlib.crc32(header[:-4]))
            buffer = memoryview(bytearray(_HASH_BYTES))
            while n := fh.readinto(buffer):
                check = zlib.crc32(buffer[:n], check)
            tokens = text.decode().split("\n")
            if check != crc or len(tokens) != rows:
                return None
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    # struct.error: shorter than a header; ValueError: not UTF-8, or emptied before the map
    except (OSError, ValueError, struct.error):
        return None
    if len(mapped) != size:  # cut short since its checks: the view would reach past its end
        return None
    vectors = np.ndarray((rows, dim), "<f8", buffer=mapped, offset=rows_at)
    return EmbeddingStore.from_matrix(tokens, vectors)


def _write_cache(cache: str, sha: bytes, tokens: list[str], vectors: np.ndarray):
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
    text = "\n".join(tokens).encode()
    pad = bytes(-(_HEADER.size + len(text)) % 8)
    rows = vectors.astype("<f8", copy=False)
    fields = (_MAGIC, _FORMAT, sha, vectors.shape[1], len(rows), len(text))
    crc = zlib.crc32(rows, zlib.crc32(text + pad, zlib.crc32(_HEADER.pack(*fields, 0)[:-4])))
    tmp = f"{cache}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEADER.pack(*fields, crc))
            fh.write(text + pad)
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
    the file's exact bytes, as a read-only view of its map; otherwise the text is
    parsed (see `_parse`) and the sidecar written for the bytes the parse read, and
    the store keeps the parse's array. A token on two lines resolves to the later one.
    """
    cache = os.fspath(path) + CACHE_SUFFIX
    store = _read_cache(cache, path)
    if store is None:
        with open(path, "rb", buffering=0) as raw:
            hashed = _Hashed(raw)
            tokens, vectors = _parse(path, io.BufferedReader(hashed, _HASH_BYTES))
        _write_cache(cache, hashed.sha.digest(), tokens, vectors)
        store = EmbeddingStore.from_matrix(tokens, vectors)
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
    vectors = np.empty((len(tokens), first.dim + second.dim))
    for at in range(0, len(tokens), _MERGE_ROWS):
        part = tokens[at:at + _MERGE_ROWS]
        vectors[at:at + len(part), :first.dim] = first.stack(part)
        vectors[at:at + len(part), first.dim:] = second.stack(part)
    return EmbeddingStore.from_matrix(tokens, vectors)


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
