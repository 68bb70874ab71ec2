"""Input embeddings: frozen word vectors, type-tag rows and column-name vectors.

Word vectors are frozen and loaded from text files (one `token v1 .. vd` line each,
every number read by float()); a binary sidecar next to each file, keyed by the
sha256 of its bytes, spares parsing the same bytes twice; a store read from it maps
its rows and its sorted token-key table rather than copying them, and a lookup is one
binary search of that table for a batch of tokens. `TYPE_INDEX` gives each tag kind its
row of the trainable type table, which `slots.SketchModel` registers. A column is
represented by the mean of its name-word vectors (`column_name_matrix`); the bi-LSTMs
that encode questions and columns belong to the slot models.
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

    `vectors` is one (V, d) float64 array, a row per line of the file. `keys` is the
    sorted key table of the tokens (see `_index`), `key_rows` each key's row and
    `key_starts` where its token starts in the token text, the tokens' UTF-8 bytes
    joined by "\n" in row order. A lookup searches `keys` once for a whole batch, so a
    store holds no Python object per token. A store parsed from text owns these arrays
    and its text; one read from a sidecar keeps the sidecar mapped read-only while it
    lives and all four arrays and the text are views of the map, so it holds in memory
    only the pages its lookups touch. Deleting the sidecar or replacing it by rename is
    safe; rewriting or truncating it in place kills the process with SIGBUS, and this
    module never writes a sidecar in place.
    """

    def __init__(self, word_vectors: dict[str, np.ndarray], dim: int):
        vectors = np.array(list(word_vectors.values()), dtype=np.float64).reshape(-1, dim)
        self._keep(vectors, *_index(list(word_vectors)))

    @classmethod
    def from_matrix(cls, tokens: list[str], vectors: np.ndarray):
        """Store over the (V, d) `vectors`, whose rows in order belong to `tokens`; a
        token listed twice resolves to its later row."""
        store = cls.__new__(cls)
        store._keep(vectors, *_index(tokens))
        return store

    def _keep(self, vectors, keys, key_rows, key_starts, text):
        """Keep the arrays and the token text, bytes or a memoryview of a map."""
        self.vectors, self.keys, self.key_rows, self.key_starts = (
            vectors, keys, key_rows, key_starts)
        self._text = text
        self.dim = vectors.shape[1]

    def _find(self, tokens) -> tuple[np.ndarray, np.ndarray]:
        """(rows, missing) of the tokens: each token's row, where `missing` is False.
        One search of `keys` finds them all; a token longer than a key is checked in
        the text."""
        # a lone surrogate, which no file's token holds, encodes as no such token does
        probes = [t.encode("utf-8", "surrogatepass") + b"\xff" for t in tokens]
        keys = np.array(probes, self.keys.dtype)
        at = self.keys.searchsorted(keys, side="right")
        at -= 1  # the last key <= the probe: of a token's equal keys, the later row
        rows, missing = self.key_rows[at], self.keys[at] != keys
        if max(map(len, probes), default=0) > _KEY_BYTES:
            for i, probe in enumerate(probes):
                if len(probe) > _KEY_BYTES and not missing[i]:
                    rows[i] = self._long_row(probe[:-1], at[i])
                    missing[i] = rows[i] < 0
        return rows, missing

    def _long_row(self, token: bytes, at: int) -> int:
        """Row of the UTF-8 token longer than a key whose prefix ends the run of equal
        keys at `at`: the last key in the run whose text is the token, or -1."""
        key = self.keys[at]
        while at >= 0 and self.keys[at] == key:
            start = int(self.key_starts[at])
            # the token's bytes, then the newline after them or the text's end
            if self._text[start:start + len(token) + 1] in (token, token + b"\n"):
                return int(self.key_rows[at])
            at -= 1
        return -1

    def stack(self, tokens) -> np.ndarray:
        """(len(tokens), dim) word vectors of `tokens`, one row each."""
        rows, missing = self._find(tokens)
        out = self.vectors[rows]
        out[missing] = 0.0
        return out

    def __contains__(self, token: str) -> bool:
        return not self._find([token])[1][0]

    def tokens(self) -> list[str]:
        """The distinct tokens in first-seen order, decoded from the token text."""
        return list(dict.fromkeys(str(self._text, "utf-8", "surrogatepass").split("\n")))


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


# The sidecar `<file>.sketchsql-cache` holds what `_parse` and `_index` made of the
# file's bytes: a header (magic, format, the text's sha256, d, rows, the tokens' UTF-8
# byte count, the key count, the key width and a CRC32 of every other byte of the file),
# the token text (no token holds a newline), zero bytes up to a multiple of 8, the rows
# as little-endian float64, then the key table: the keys, and each key's row and token
# start as little-endian int64.
CACHE_SUFFIX = ".sketchsql-cache"
_MAGIC = b"SKSQLEMB"
_FORMAT = 3
_HEADER = struct.Struct("<8sI32sIQQQII")
_HASH_BYTES = 1 << 16
# a key's width: a token of fewer UTF-8 bytes is its own key, a longer one is checked in
# the text; a fixed width keeps one long token from widening every key
_KEY_BYTES = 16
# rows of a two-file merge filled per step, which bounds its temporary arrays
_MERGE_ROWS = 4096


def _index(tokens) -> tuple[np.ndarray, np.ndarray, np.ndarray, bytes]:
    """(keys, key rows, key starts, text) of the tokens of rows 0, 1, ..: the sorted key
    table and the tokens' UTF-8 bytes joined by "\n".

    A token's key is its UTF-8 bytes and 0xFF, a byte UTF-8 never uses, cut or padded
    with zeros to _KEY_BYTES: a key that holds the 0xFF is one token's alone, while a
    longer token shares its key with any token of the same prefix. The sort is stable,
    so equal keys keep row order; of equal keys that hold the 0xFF only the last, the
    token's later row, stays. The keys are cut from the text, with no object per token."""
    text = "\n".join(tokens).encode("utf-8", "surrogatepass")
    # each token's bytes and its 0xFF, then zeros past the last token's key
    ended = np.frombuffer(text.replace(b"\n", b"\xff") + b"\xff" + bytes(_KEY_BYTES), np.uint8)
    ends = np.flatnonzero(ended == 0xFF)
    starts = np.append(0, ends[:-1] + 1)
    keys = np.zeros((len(starts), _KEY_BYTES), np.uint8)
    for j in range(_KEY_BYTES):
        keys[:, j] = np.where(starts + j <= ends, ended[starts + j], 0)
    keys = keys.view(f"S{_KEY_BYTES}").ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    last = (ends - starts >= _KEY_BYTES)[order] | np.append(keys[1:] != keys[:-1], True)
    order = order[last].astype("<i8")
    return keys[last], order, starts[order].astype("<i8"), text


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
    holds none: any sidecar that is absent, unreadable, of another format, key width or
    size, made from other bytes, or fails its CRC.

    The CRC reads the file through one reusable buffer; only once the whole file has
    passed the checks is the same open file mapped read-only. The store's arrays and
    its token text are views of the map: a load reads no token into a Python object."""
    try:
        with open(cache, "rb") as fh:
            header = fh.read(_HEADER.size)
            magic, version, sha, dim, rows, text_bytes, keys, width, crc = _HEADER.unpack(header)
            # the size is checked before any count sizes a read: a damaged one allocates nothing
            size = os.fstat(fh.fileno()).st_size
            rows_at = (_HEADER.size + text_bytes + 7) // 8 * 8
            keys_at = rows_at + 8 * rows * dim
            if ((magic, version, width) != (_MAGIC, _FORMAT, _KEY_BYTES) or not 0 < keys <= rows
                    or size != keys_at + keys * (width + 16) or sha != _sha256(path)):
                return None
            check = zlib.crc32(header[:-4])
            buffer = memoryview(bytearray(_HASH_BYTES))
            while n := fh.readinto(buffer):
                check = zlib.crc32(buffer[:n], check)
            if check != crc:
                return None
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    # struct.error: shorter than a header; ValueError: emptied before the map
    except (OSError, ValueError, struct.error):
        return None
    if len(mapped) != size:  # cut short since its checks: a view would reach past its end
        return None

    def view(shape, dtype, offset):
        return np.ndarray(shape, dtype, buffer=mapped, offset=offset)

    store = EmbeddingStore.__new__(EmbeddingStore)
    store._keep(view((rows, dim), "<f8", rows_at), view(keys, f"S{width}", keys_at),
                view(keys, "<i8", keys_at + keys * width),
                view(keys, "<i8", keys_at + keys * (width + 8)),
                memoryview(mapped)[_HEADER.size:_HEADER.size + text_bytes])
    return store


def _write_cache(cache: str, sha: bytes, store: EmbeddingStore):
    """Write the sidecar `cache` of the parsed store for text of digest sha, via a
    temporary file renamed into place. Best effort: a failed write is silent and removes
    its temporary file, and a non-empty file there that does not start with the magic is
    left alone. The file is not fsynced: a sidecar a crash cut short fails its checks and
    is rebuilt."""
    try:
        with open(cache, "rb") as fh:
            if fh.read(len(_MAGIC)) not in (b"", _MAGIC):
                return
    except FileNotFoundError:
        pass
    except OSError:
        return
    text = store._text
    rows = store.vectors.astype("<f8", copy=False)
    fields = (_MAGIC, _FORMAT, sha, store.dim, len(rows), len(text), len(store.keys),
              _KEY_BYTES)
    body = (text + bytes(-(_HEADER.size + len(text)) % 8), rows, store.keys, store.key_rows,
            store.key_starts)
    crc = zlib.crc32(_HEADER.pack(*fields, 0)[:-4])
    for part in body:
        crc = zlib.crc32(part, crc)
    tmp = f"{cache}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEADER.pack(*fields, crc))
            for part in body:
                fh.write(part)
        os.replace(tmp, cache)
    except BaseException as exc:
        with suppress(OSError):
            os.remove(tmp)
        if not isinstance(exc, OSError):
            raise


def load_embedding_file(path) -> EmbeddingStore:
    """Load one embedding text file; all lines must share a dimension.

    The store comes from the sidecar `<path>.sketchsql-cache` when it was made from the
    file's exact bytes, as read-only views of its map; otherwise the text is parsed
    (see `_parse`), the store keeps the parse's array and its own key table, and the
    sidecar is written for the bytes the parse read. A token on two lines resolves to
    the later one.
    """
    cache = os.fspath(path) + CACHE_SUFFIX
    store = _read_cache(cache, path)
    if store is None:
        with open(path, "rb", buffering=0) as raw:
            hashed = _Hashed(raw)
            tokens, vectors = _parse(path, io.BufferedReader(hashed, _HASH_BYTES))
        store = EmbeddingStore.from_matrix(tokens, vectors)
        _write_cache(cache, hashed.sha.digest(), store)
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
    tokens = list(dict.fromkeys([*first.tokens(), *second.tokens()]))
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
    counts = [len(name_words) for name_words in words]
    # one lookup for all the names' words; the last row pads shorter names: x + -0.0 is
    # x for every x, -0.0 included
    table = np.concatenate([emb.stack([w for name_words in words for w in name_words]),
                            np.full((1, emb.dim), -0.0)])
    longest, at, index = max(counts), 0, []
    for n in counts:
        index.append([*range(at, at + n), *[-1] * (longest - n)])
        at += n
    total = np.zeros((len(header), emb.dim))
    for kth_words in table[np.array(index, dtype=np.intp).T]:
        total += kth_words
    return total / np.maximum(counts, 1)[:, None]
