import errno
import hashlib
import json
import mmap
import os
import random
import shutil
import struct
import tracemalloc
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import damaged, demo_gazetteer, magazine_table
from reference_impls import reference_load_embedding_file
from sketchsql import encoder
from sketchsql import harness as H
from sketchsql import kernel as K
from sketchsql.cli import main
from sketchsql.encoder import (EmbeddingError, EmbeddingStore, column_name_matrix,
                               load_embedding_file, load_embeddings)
from sketchsql.slots import COLUMN_MATRICES, TYPE_INDEX, SketchModel, stack_inputs
from sketchsql.synth import generate_corpus
from sketchsql.tagger import TAG_NONE, TaggedQuestion, TypeTag, recognize


def tiny_vectors(dim=4, tokens=("spoofed", "title", "artist", "issue", "mort", "drucker")):
    rng = np.random.default_rng(99)
    return {t: rng.normal(size=dim) for t in tokens}


def tiny_store(dim=4):
    return EmbeddingStore(tiny_vectors(dim), dim)


def tiny_model(seed=0, width=8, mode="insensitive"):
    """Slot model over `tiny_store`: type width 3, or 4 (the word width) in content mode."""
    return SketchModel(K.ParamStore(seed=seed), tiny_store(), width=width, mode=mode,
                       type_dim=None if mode == "content" else 3, dropout=0.0)


def embed(model, tq, header):
    col_matrix = model.column_matrix(header)
    return model.question_input(model.question_parts(tq, col_matrix), col_matrix)


def encode(model, q_input, header):
    """(H_qt, H_col) of the column model for one question input and a header."""
    col_input = K.constant(model.column_matrix(header))
    return model.encode(q_input, col_input, [q_input.shape[0]], [col_input.shape[0]])[0]


def one_token_input(model):
    return K.constant(np.ones((1, model.d_in)))


def write_emb(path, entries):
    path.write_text("\n".join(f"{t} " + " ".join(str(v) for v in vec)
                              for t, vec in entries) + "\n", encoding="utf-8")


class TestEmbeddingFiles:
    def test_single_file(self, tmp_path):
        p = tmp_path / "a.txt"
        write_emb(p, [("cat", [1.0] * 50), ("dog", [2.0] * 50)])
        emb = load_embeddings([p])
        assert emb.dim == 50
        np.testing.assert_array_equal(emb.stack(["cat"])[0], 1.0)

    def test_two_files_concatenate(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_emb(a, [("cat", [1.0] * 50)])
        write_emb(b, [("cat", [2.0] * 25)])
        emb = load_embeddings([a, b])
        assert emb.dim == 75
        np.testing.assert_array_equal(emb.stack(["cat"])[0][:50], 1.0)
        np.testing.assert_array_equal(emb.stack(["cat"])[0][50:], 2.0)

    def test_token_in_one_file_zero_padded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(encoder, "_MERGE_ROWS", 2)  # the merge fills its rows in runs
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_emb(a, [("cat", [1.0, 1.5]), ("dog", [2.0, 2.5]), ("emu", [3.0, 3.5])])
        write_emb(b, [("emu", [7.0]), ("fox", [8.0]), ("cat", [9.0])])
        emb = load_embeddings([a, b])
        want = {"cat": [1.0, 1.5, 9.0], "dog": [2.0, 2.5, 0.0], "emu": [3.0, 3.5, 7.0],
                "fox": [0.0, 0.0, 8.0], "zzz": [0.0, 0.0, 0.0]}
        assert emb.dim == 3
        assert {t: emb.stack([t])[0].tobytes() for t in want} == {
            t: np.array(vec).tobytes() for t, vec in want.items()}

    @pytest.mark.parametrize("later", ["9", "9_0"], ids=["decimal", "underscored"])
    def test_token_on_two_lines_takes_the_later(self, tmp_path, later):
        p = tmp_path / "a.txt"
        p.write_text(f"cat 1\ndog 2\nemu 3\ncat {later}\n", encoding="utf-8")
        emb = load_embedding_file(p)
        assert emb.tokens() == ["cat", "dog", "emu"]
        np.testing.assert_array_equal(emb.stack(["cat"])[0], [float(later)])
        np.testing.assert_array_equal(emb.stack(["dog"])[0], [2.0])

    def test_dimension_mismatch_reports_line(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("cat 1.0 2.0\ndog 1.0 2.0 3.0\n", encoding="utf-8")
        with pytest.raises(EmbeddingError, match=":2"):
            load_embedding_file(p)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_non_finite_component_reports_line(self, tmp_path, bad):
        p = tmp_path / "a.txt"
        p.write_text(f"cat 1.0 2.0\ndog 1.0 {bad}\n", encoding="utf-8")
        with pytest.raises(EmbeddingError, match="a.txt:2: non-finite"):
            load_embedding_file(p)

    def test_finite_components_with_overflowing_sum_accepted(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("cat 1e308 1e308\n", encoding="utf-8")
        emb = load_embedding_file(p)
        assert emb.dim == 2
        np.testing.assert_array_equal(emb.stack(["cat"])[0], 1e308)

    def test_unknown_word_is_zero_vector(self):
        emb = tiny_store()
        np.testing.assert_array_equal(emb.stack(["zzz"])[0], 0.0)
        assert emb.stack(["zzz"])[0].shape == (4,)


def load_outcome(load, path):
    """What a loader makes of a file: its entries in first-seen order with their vector
    bytes, or its error. The loader gives a store, the reference a (dict, dim) pair."""
    try:
        loaded = load(path)
    except EmbeddingError as exc:
        return "error", str(exc)
    if isinstance(loaded, EmbeddingStore):
        tokens = loaded.tokens()
        loaded = dict(zip(tokens, loaded.stack(tokens))), loaded.dim
    vectors, dim = loaded
    return dim, [(token, vec.shape, vec.tobytes()) for token, vec in vectors.items()]


PLAIN = ["0", "-0", "+2", ".5", "5.", "-1.25", "1e-3", "1E5", "-7.5e+2", "1e308", "0.30000"]
ODD = ["nan", "inf", "-Infinity", "1e400", "1_000", "\u0661", "1\x1c", "1\t", "", "1-2",
       "0x10", "1e", "-", "."]
TOKENS = ["cat", "dog", "cat", "caf\u00e9", "\u732b", "x-y", "1", ""]


def random_embedding_text(rng: random.Random) -> str:
    """A small embedding file: mostly plain decimals, and sometimes other text: spellings
    float() reads or rejects, bad spacing, a line with no vector, blank lines and a
    dimension change."""
    dim = rng.randint(1, 3)
    lines = []
    for _ in range(rng.randint(0, 10)):
        roll = rng.random()
        if roll < 0.05:
            lines.append(rng.choice(["", "   "]))
            continue
        token = rng.choice(TOKENS)
        if roll < 0.08:
            lines.append(token)
            continue
        if roll < 0.12:
            dim = rng.randint(1, 3)
        fields = [rng.choice(ODD) if rng.random() < 0.03
                  else rng.choice(PLAIN + [f"{rng.uniform(-3, 3):.5f}"]) for _ in range(dim)]
        sep = "  " if rng.random() < 0.03 else " "
        tail = " " if rng.random() < 0.03 else ""
        lines.append(token + " " + sep.join(fields) + tail)
    return "\n".join(lines) + "\n"


class TestEmbeddingFileLoaders:
    def test_random_files_load_as_the_line_by_line_reference(self, tmp_path):
        rng = random.Random(1313)
        path = tmp_path / "e.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(1500):
                text = random_embedding_text(rng)
                path.write_text(text, encoding="utf-8")
                want = load_outcome(reference_load_embedding_file, path)
                # the second load reads the sidecar the first one wrote
                assert load_outcome(load_embedding_file, path) == want, text
                assert load_outcome(load_embedding_file, path) == want, text

    def test_large_plain_file_bitwise(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(1300, 7))
        path = tmp_path / "e.txt"
        path.write_text("".join(f"w{i} " + " ".join(f"{v:.5f}" for v in row) + "\n"
                                for i, row in enumerate(rows)), encoding="utf-8")
        outcome = load_outcome(load_embedding_file, path)
        assert outcome[0] == 7 and len(outcome[1]) == 1300
        assert outcome == load_outcome(reference_load_embedding_file, path)
        # one (V, d) array, not one per token: every vector is one of its rows, parsed
        # and then mapped from the sidecar
        for emb in (load_embedding_file(path), load_embedding_file(path)):
            assert emb.vectors.shape == (1300, 7)
            assert emb.stack(emb.tokens()).tobytes() == emb.vectors.tobytes()

    @pytest.mark.parametrize("vocab", [4, 6, 128])
    def test_dict_and_file_stores_look_up_the_same_bytes(self, tmp_path, vocab):
        """A store built from a dict, one parsed from text and one mapped from the
        sidecar hold the same bytes, for vocabularies of a few tokens and of many."""
        vectors = tiny_vectors(dim=5, tokens=[f"w{i}" for i in range(vocab)])
        path = tmp_path / "e.txt"
        write_emb(path, vectors.items())
        from_dict = EmbeddingStore(vectors, 5)
        parsed, from_sidecar = load_embedding_file(path), load_embedding_file(path)
        assert not mapped(parsed) and mapped(from_sidecar)
        for store in (from_dict, parsed, from_sidecar):
            assert store.vectors.shape == (vocab, 5)
            for token in [*vectors, "zzz"]:
                want = vectors.get(token, np.zeros(5)).tobytes()
                assert store.stack([token])[0].tobytes() == want

    def test_two_spaces_are_an_empty_field(self, tmp_path):
        """A run of spaces is not one delimiter: the empty field between them is not a
        number."""
        path = tmp_path / "e.txt"
        path.write_text("cat 1 2\ndog 1  2\n", encoding="utf-8")
        with pytest.raises(EmbeddingError, match="e.txt:2: non-numeric"):
            load_embedding_file(path)

    @pytest.mark.parametrize("bad_line", [3, 400])
    def test_first_error_before_or_after_bytes_not_utf8(self, tmp_path, bad_line):
        """The reader decodes in blocks: a bad line in a block decoded before the one
        holding the stray byte is reported first, one in the same block is not."""
        lines = [b"w%d 0.1000000000 0.2000000000" % i for i in range(600)]
        lines[1] = b"dog 1.0"
        lines[bad_line] = b"bad \xff 1.0"
        path = tmp_path / "e.txt"
        path.write_bytes(b"\n".join(lines) + b"\n")
        want = load_outcome(reference_load_embedding_file, path)
        assert load_outcome(load_embedding_file, path) == want
        assert want[1].endswith(":2: dimension 1 != 2 from earlier lines" if bad_line == 400
                                else ":4: not UTF-8 text (invalid start byte)")


def sidecar(path) -> Path:
    return Path(str(path) + encoder.CACHE_SUFFIX)


def mapped(store) -> bool:
    """Whether the store's vectors and key table are read-only views of a map of its
    sidecar (a sidecar load) rather than writable memory of its own (a parse or a
    merge)."""
    arrays = (store.vectors, store.keys, store.key_rows, store.key_starts)
    if all(array.flags.writeable for array in arrays):
        return False
    assert all(isinstance(array.base, mmap.mmap) for array in arrays)
    return True


def snapshot(store):
    """All a store holds: its tokens, width, the shape, dtype and bytes of its vectors
    and of its key table, and the vector bytes of every token and of an unknown one. Its
    arrays must be 8-byte aligned and either writable or read-only views of a map
    (`mapped`)."""
    mapped(store)
    assert all(array.ctypes.data % 8 == 0
               for array in (store.vectors, store.key_rows, store.key_starts))
    tokens = store.tokens()
    return (tokens, store.dim,
            [(array.shape, array.dtype.str, array.tobytes())
             for array in (store.vectors, store.keys, store.key_rows, store.key_starts)],
            [row.tobytes() for row in store.stack([*tokens, "not a token"])])


@pytest.fixture
def parses(monkeypatch):
    """The paths load_embedding_file parsed as text, one entry a parse."""
    calls = []
    parse = encoder._parse

    def counted(path, binary):
        calls.append(path)
        return parse(path, binary)

    monkeypatch.setattr(encoder, "_parse", counted)
    return calls


class FullDisk:
    """A binary file whose writes after the first fail as on a full disk."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(data)


# "float" holds spellings float() reads (9_0, 1e3, -0); "odd tokens" holds non-ASCII,
# empty and control-character tokens.
SIDECAR_TEXTS = {
    "plain": "".join(f"w{i} {i / 7:.5f} {-i / 3:.5f}\n" for i in range(11)),
    "duplicate": "cat 1 2\ndog 3 4\nemu 5 6\ncat 7 8\n",
    "float": "cat 1 2\ndog 9_0 4\nemu 5 6\nfox 1e3 -0\n",
    "odd tokens": "caf\u00e9 1 2\n\u732b 3 4\n 5 6\nx\x1cy\u2028z 7 8\n\n\nlast 9 9\n",
}


FORMAT_2_HEADER = struct.Struct("<8sI32sIQQI")


def format_2_sidecar(path) -> bytes:
    """The format-2 sidecar of an embedding file of plain lines: the header (magic,
    format 2, sha256, d, rows, token bytes, a CRC32 of every other byte), the tokens
    joined by "\n", zero bytes up to a multiple of 8 and the rows as <f8."""
    raw = path.read_bytes()
    lines = [line.split(" ") for line in raw.decode().splitlines() if line.strip()]
    text = "\n".join(line[0] for line in lines).encode()
    rows = np.array([[float(x) for x in line[1:]] for line in lines], "<f8")
    fields = (encoder._MAGIC, 2, hashlib.sha256(raw).digest(), rows.shape[1], len(rows),
              len(text))
    body = text + bytes(-(FORMAT_2_HEADER.size + len(text)) % 8) + rows.tobytes()
    crc = zlib.crc32(body, zlib.crc32(FORMAT_2_HEADER.pack(*fields, 0)[:-4]))
    return FORMAT_2_HEADER.pack(*fields, crc) + body


FORMAT_3_HEADER = struct.Struct("<8sI32sIQQQII")


def format_3_sidecar(path) -> bytes:
    """The format-3 sidecar of an embedding file of plain lines: format 2's header with
    the key count and key width before the CRC32, and its body followed by the key
    table (the keys, then each key's row and token start as <i8), as `_index` builds it."""
    raw = path.read_bytes()
    lines = [line.split(" ") for line in raw.decode().splitlines() if line.strip()]
    keys, key_rows, key_starts, text = encoder._index([line[0] for line in lines])
    rows = np.array([[float(x) for x in line[1:]] for line in lines], "<f8")
    fields = (encoder._MAGIC, 3, hashlib.sha256(raw).digest(), rows.shape[1], len(rows),
              len(text), len(keys), encoder._KEY_BYTES)
    body = (text + bytes(-(FORMAT_3_HEADER.size + len(text)) % 8) + rows.tobytes()
            + keys.tobytes() + key_rows.tobytes() + key_starts.tobytes())
    crc = zlib.crc32(body, zlib.crc32(FORMAT_3_HEADER.pack(*fields, 0)[:-4]))
    return FORMAT_3_HEADER.pack(*fields, crc) + body


def settle(path):
    """Move the sidecar's mtime a second past the text's ctime, so that the text was
    not changed in the clock tick its sidecar was written in."""
    st, side = os.stat(path), os.stat(sidecar(path))
    os.utime(sidecar(path), ns=(side.st_atime_ns, st.st_ctime_ns + 10**9))


@pytest.fixture
def hashes(monkeypatch):
    """The paths whose text a sidecar load hashed, one entry a hash."""
    calls = []
    sha256 = encoder._sha256

    def counted(path):
        calls.append(path)
        return sha256(path)

    monkeypatch.setattr(encoder, "_sha256", counted)
    return calls


class TestSidecar:
    """`<file>.sketchsql-cache` holds the parse of the file's exact bytes; a load that
    cannot use it parses the text, and a load never differs from the parse."""

    @pytest.mark.parametrize("kind", list(SIDECAR_TEXTS))
    def test_second_load_reads_the_sidecar(self, tmp_path, parses, kind):
        path = tmp_path / "e.txt"
        path.write_text(SIDECAR_TEXTS[kind], encoding="utf-8")
        parsed = snapshot(load_embedding_file(path))
        assert sidecar(path).is_file() and len(parses) == 1
        assert snapshot(load_embedding_file(path)) == parsed
        assert len(parses) == 1

    def test_byte_order_mark_is_not_read_into_the_first_token(self, tmp_path, parses):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(SIDECAR_TEXTS["plain"], encoding="utf-8")
        marked.write_text(SIDECAR_TEXTS["plain"], encoding="utf-8-sig")
        want = snapshot(load_embedding_file(plain))
        assert snapshot(load_embedding_file(marked)) == want  # a parse
        from_sidecar = load_embedding_file(marked)
        assert mapped(from_sidecar) and snapshot(from_sidecar) == want
        assert parses == [plain, marked]
        # the sidecar is keyed by the sha256 of the file's bytes, the mark among them
        header = sidecar(marked).read_bytes()[:encoder._HEADER.size]
        assert encoder._HEADER.unpack(header)[2] == hashlib.sha256(marked.read_bytes()).digest()

    def test_sidecar_load_maps_read_only_blocks(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text(SIDECAR_TEXTS["plain"], encoding="utf-8")
        parsed = load_embedding_file(path)
        assert not mapped(parsed)
        parsed.vectors[0, 0] = 1.0  # a parse's vectors are its own, writable array
        store = load_embedding_file(path)
        assert mapped(store)
        before = snapshot(store)
        for write in (lambda: store.vectors.__setitem__((-1, 0), 1.0),
                      lambda: store.vectors[0].__iadd__(1.0)):
            with pytest.raises(ValueError, match="read-only"):
                write()
        assert snapshot(store) == before

    @pytest.mark.parametrize("fail", ["map fails", "cut short before the map"])
    def test_failed_map_parses_the_text(self, tmp_path, monkeypatch, parses, fail):
        path = tmp_path / "e.txt"
        path.write_text(SIDECAR_TEXTS["plain"], encoding="utf-8")
        want = snapshot(load_embedding_file(path))
        real_mmap = mmap.mmap

        def failing_mmap(fileno, length, **kwargs):
            if fail == "map fails":
                raise OSError(errno.ENOMEM, "Cannot allocate memory")
            with open(sidecar(path), "r+b") as fh:  # after every check has passed
                fh.truncate(os.path.getsize(sidecar(path)) - 8)
            return real_mmap(fileno, length, **kwargs)

        monkeypatch.setattr(encoder.mmap, "mmap", failing_mmap)
        store = load_embedding_file(path)
        assert not mapped(store) and snapshot(store) == want
        assert len(parses) == 2

    @pytest.mark.parametrize("replace", ["rebuilt", "deleted"])
    def test_mapped_store_outlives_its_sidecar(self, tmp_path, parses, replace):
        """A sidecar is only ever replaced by rename or deleted, never rewritten in
        place, so a store that maps the old one keeps its vectors bitwise."""
        path = tmp_path / "e.txt"
        text = SIDECAR_TEXTS["plain"]
        path.write_text(text, encoding="utf-8")
        load_embedding_file(path)
        store = load_embedding_file(path)
        before = snapshot(store)
        old = os.stat(sidecar(path)).st_ino
        if replace == "rebuilt":
            path.write_text(text.replace("w10", "new"), encoding="utf-8")
            load_embedding_file(path)  # parses and renames a new sidecar into place
            assert os.stat(sidecar(path)).st_ino != old
            fresh = load_embedding_file(path)
            assert mapped(fresh) and "new" in fresh and "new" not in store
        else:
            sidecar(path).unlink()
        assert snapshot(store) == before
        assert len(parses) == 1 + (replace == "rebuilt")

    def test_two_file_merge_from_sidecars(self, tmp_path, parses):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_emb(a, [("cat", [1.0, 1.5]), ("dog", [2.0, 2.5]), ("emu", [3.0, 3.5])])
        write_emb(b, [("emu", [7.0]), ("fox", [8.0]), ("cat", [9.0])])
        merged = snapshot(load_embeddings([a, b]))
        store = load_embeddings([a, b])
        assert snapshot(store) == merged
        assert not mapped(store) and mapped(load_embedding_file(a))  # the merge copies
        assert parses == [a, b]

    @staticmethod
    def change_text(path, text, sidecar_path):
        path.write_text(text.replace("7 8", "7 9"), encoding="utf-8")

    @staticmethod
    def change_text_keep_size_and_mtime(path, text, sidecar_path):
        before = os.stat(path)
        path.write_text(text.replace("7 8", "7 7"), encoding="utf-8")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert os.stat(path).st_size == before.st_size

    @staticmethod
    def cut_short(path, text, sidecar_path):
        with open(sidecar_path, "r+b") as fh:
            fh.truncate(os.path.getsize(sidecar_path) - 1)

    @staticmethod
    def one_byte_longer(path, text, sidecar_path):
        with open(sidecar_path, "ab") as fh:
            fh.write(b"\0")

    @staticmethod
    def other_format(path, text, sidecar_path):
        data = bytearray(sidecar_path.read_bytes())
        data[8:12] = struct.pack("<I", encoder._FORMAT + 1)
        sidecar_path.write_bytes(bytes(data))

    @staticmethod
    def format_1(path, text, sidecar_path):
        """The same bytes, labelled as the format that kept the rows in blocks."""
        data = bytearray(sidecar_path.read_bytes())
        data[8:12] = struct.pack("<I", 1)
        sidecar_path.write_bytes(bytes(data))

    @staticmethod
    def format_2(path, text, sidecar_path):
        """A sidecar of format 2 for the same bytes, as the store without a key table
        wrote it: a shorter header, the token text, padding and the rows, and no keys."""
        sidecar_path.write_bytes(format_2_sidecar(path))

    @staticmethod
    def format_3(path, text, sidecar_path):
        """A sidecar of format 3 for the same bytes, as the store without the text's stat
        identity wrote it: a shorter header, then the same body."""
        sidecar_path.write_bytes(format_3_sidecar(path))

    @staticmethod
    def token_bytes_into_padding(path, text, sidecar_path):
        """One more token byte, read from the padding: the size and the bytes after the
        header stay the same, so only the header's share of the CRC tells."""
        data = bytearray(sidecar_path.read_bytes())
        [count] = struct.unpack_from("<Q", data, 56)
        assert (encoder._HEADER.size + count) % 8  # the padding holds a byte to read
        struct.pack_into("<Q", data, 56, count + 1)
        sidecar_path.write_bytes(bytes(data))

    @staticmethod
    def empty(path, text, sidecar_path):
        sidecar_path.write_bytes(b"")

    @pytest.mark.parametrize("damage", ["change_text", "change_text_keep_size_and_mtime",
                                        "cut_short", "one_byte_longer", "other_format",
                                        "format_1", "format_2", "format_3",
                                        "token_bytes_into_padding",
                                        "empty"])
    def test_unusable_sidecar_is_rebuilt_from_the_text(self, tmp_path, parses, damage):
        path = tmp_path / "e.txt"
        text = SIDECAR_TEXTS["duplicate"]
        path.write_text(text, encoding="utf-8")
        load_embedding_file(path)
        getattr(self, damage)(path, path.read_text(encoding="utf-8"), sidecar(path))
        fresh = tmp_path / "fresh" / "e.txt"
        fresh.parent.mkdir()
        fresh.write_bytes(path.read_bytes())
        want = snapshot(load_embedding_file(fresh))
        assert snapshot(load_embedding_file(path)) == want
        store = load_embedding_file(path)
        assert mapped(store) and snapshot(store) == want
        assert parses == [path, fresh, path]  # the rebuilt sidecar serves the last load

    def test_format_2_and_3_checks_turn_format_4_away(self, tmp_path):
        """The readers of formats 2 and 3 compared the magic and format, then the file's
        size with the one its header implies: a format-4 sidecar fails both, so either
        reader parses the text and renames its own sidecar into place, as this one does
        with a sidecar of format 2 or 3 (`test_unusable_sidecar_is_rebuilt_from_the_text`)."""
        path = tmp_path / "e.txt"
        path.write_text(SIDECAR_TEXTS["plain"], encoding="utf-8")
        load_embedding_file(path)
        data = sidecar(path).read_bytes()
        magic, version, _, dim, rows, text_bytes, _ = FORMAT_2_HEADER.unpack_from(data)
        assert (magic, version) == (encoder._MAGIC, 4)
        assert len(data) != (FORMAT_2_HEADER.size + text_bytes + 7) // 8 * 8 + 8 * rows * dim
        magic, version, _, dim, rows, text_bytes, keys, width, _ = (
            FORMAT_3_HEADER.unpack_from(data))
        assert (magic, version) == (encoder._MAGIC, 4)
        rows_at = (FORMAT_3_HEADER.size + text_bytes + 7) // 8 * 8
        assert len(data) != rows_at + 8 * rows * dim + keys * (width + 16)
        assert len(format_2_sidecar(path)) < len(format_3_sidecar(path)) < len(data)

    def test_sidecar_records_the_stat_identity_of_the_text(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text(SIDECAR_TEXTS["plain"], encoding="utf-8")
        load_embedding_file(path)
        st = os.stat(path)
        header = encoder._HEADER.unpack_from(sidecar(path).read_bytes())
        assert header[8:13] == (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns,
                                st.st_ctime_ns)

    def test_warm_load_of_an_unchanged_text_hashes_nothing(self, tmp_path, parses, hashes):
        path = tmp_path / "e.txt"
        path.write_text(SIDECAR_TEXTS["odd tokens"], encoding="utf-8")
        want = snapshot(load_embedding_file(path))
        settle(path)
        for _ in range(2):
            store = load_embedding_file(path)
            assert mapped(store) and snapshot(store) == want
        assert parses == [path] and hashes == []

    def test_touched_text_is_hashed_and_read_from_its_sidecar(self, tmp_path, parses, hashes):
        """A new mtime on the same bytes fails the identity, and the sha256 still holds."""
        path = tmp_path / "e.txt"
        path.write_text(SIDECAR_TEXTS["plain"], encoding="utf-8")
        want = snapshot(load_embedding_file(path))
        st = os.stat(path)
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
        settle(path)
        store = load_embedding_file(path)
        assert mapped(store) and snapshot(store) == want
        assert parses == [path] and hashes == [path]

    @pytest.mark.parametrize("sidecar_mtime", ["at the text's ctime", "before it"])
    def test_text_changed_in_the_tick_of_its_sidecar_is_hashed(self, tmp_path, parses, hashes,
                                                               sidecar_mtime):
        """The text's ctime must be strictly earlier than the sidecar's mtime."""
        path = tmp_path / "e.txt"
        path.write_text(SIDECAR_TEXTS["plain"], encoding="utf-8")
        want = snapshot(load_embedding_file(path))
        ctime = os.stat(path).st_ctime_ns - (sidecar_mtime == "before it")
        os.utime(sidecar(path), ns=(ctime, ctime))
        store = load_embedding_file(path)
        assert mapped(store) and snapshot(store) == want
        assert parses == [path] and hashes == [path]

    def test_copies_of_the_text_and_its_sidecar_are_hashed(self, tmp_path, parses, hashes):
        """A copy is a new inode, even with the original's mtime."""
        path = tmp_path / "e.txt"
        path.write_text(SIDECAR_TEXTS["plain"], encoding="utf-8")
        want = snapshot(load_embedding_file(path))
        copy = tmp_path / "copy" / "e.txt"
        copy.parent.mkdir()
        shutil.copy2(path, copy)
        shutil.copy2(sidecar(path), sidecar(copy))
        settle(copy)
        store = load_embedding_file(copy)
        assert mapped(store) and snapshot(store) == want
        assert parses == [path] and hashes == [copy]

    @pytest.mark.parametrize("why", ["changed during the parse", "ctime is not change time"])
    def test_no_identity_is_recorded_and_every_load_hashes(self, tmp_path, monkeypatch, hashes,
                                                           why):
        path = tmp_path / "e.txt"
        path.write_text(SIDECAR_TEXTS["plain"], encoding="utf-8")
        if why == "changed during the parse":
            parse = encoder._parse

            def touching(path, binary):
                st = os.stat(path)
                os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
                return parse(path, binary)

            monkeypatch.setattr(encoder, "_parse", touching)
        else:  # as on Windows, where st_ctime is the creation time
            monkeypatch.setattr(encoder, "_CTIME_IS_CHANGE", False)
        want = snapshot(load_embedding_file(path))
        monkeypatch.setattr(encoder, "_parse", None)  # from here every load is a sidecar's
        header = encoder._HEADER.unpack_from(sidecar(path).read_bytes())
        assert header[8:13] == (0,) * 5
        settle(path)
        for _ in range(2):
            assert snapshot(load_embedding_file(path)) == want
        assert hashes == [path, path]

    def test_recorded_identity_is_not_trusted_where_ctime_is_not_change_time(
            self, tmp_path, monkeypatch, parses, hashes):
        path = tmp_path / "e.txt"
        path.write_text(SIDECAR_TEXTS["plain"], encoding="utf-8")
        want = snapshot(load_embedding_file(path))
        settle(path)
        monkeypatch.setattr(encoder, "_CTIME_IS_CHANGE", False)
        store = load_embedding_file(path)
        assert mapped(store) and snapshot(store) == want
        assert parses == [path] and hashes == [path]

    @pytest.mark.parametrize("token_bytes", range(1, 9))
    def test_parsed_and_mapped_vectors_are_8_byte_aligned(self, tmp_path, token_bytes):
        """Whatever the tokens' byte count, zero padding puts the rows on 8 bytes."""
        path = tmp_path / "e.txt"
        path.write_text(f"{'a' * token_bytes} 1 2\n", encoding="utf-8")
        for want_mapped in (False, True):
            store = load_embedding_file(path)
            assert mapped(store) == want_mapped
            assert store.vectors.ctypes.data % 8 == 0
        size = encoder._HEADER.size + token_bytes
        # the rows (2 float64) and one key with its row and start (two int64)
        assert os.path.getsize(sidecar(path)) == -(-size // 8) * 8 + 16 + encoder._KEY_BYTES + 16

    def test_every_flipped_byte_after_the_magic_is_rebuilt(self, tmp_path, parses):
        path = tmp_path / "e.txt"
        path.write_text(SIDECAR_TEXTS["odd tokens"], encoding="utf-8")
        want = snapshot(load_embedding_file(path))
        good = sidecar(path).read_bytes()
        for i in range(len(encoder._MAGIC), len(good)):
            sidecar(path).write_bytes(good[:i] + bytes([good[i] ^ 0xFF]) + good[i + 1:])
            assert snapshot(load_embedding_file(path)) == want, i
            assert sidecar(path).read_bytes() == good, i
        assert len(parses) == 1 + len(good) - len(encoder._MAGIC)

    @pytest.mark.parametrize("field", ["rows", "dim", "token bytes", "keys", "key width"])
    def test_damaged_count_allocates_nothing(self, tmp_path, field):
        path = tmp_path / "e.txt"
        path.write_text(SIDECAR_TEXTS["plain"], encoding="utf-8")
        want = snapshot(load_embedding_file(path))
        data = bytearray(sidecar(path).read_bytes())
        at, width = {"dim": (44, 4), "rows": (48, 8), "token bytes": (56, 8), "keys": (64, 8),
                     "key width": (72, 4)}[field]
        data[at:at + width] = b"\xff" * width
        sidecar(path).write_bytes(bytes(data))
        tracemalloc.start()
        try:
            assert snapshot(load_embedding_file(path)) == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("fail", ["unwritable directory", "disk full", "rename"])
    def test_failed_write_is_silent_and_leaves_no_file(self, tmp_path, monkeypatch, fail):
        real_open = open

        def failing_open(file, mode="r", *args, **kwargs):
            if mode != "wb":
                return real_open(file, mode, *args, **kwargs)
            if fail == "unwritable directory":
                raise PermissionError(errno.EACCES, "Permission denied", file)
            return FullDisk(real_open(file, mode, *args, **kwargs))

        def failing_replace(src, dst):
            raise PermissionError(errno.EACCES, "Permission denied", dst)

        if fail == "rename":
            monkeypatch.setattr(encoder.os, "replace", failing_replace)
        else:
            monkeypatch.setattr(encoder, "open", failing_open, raising=False)
        path = tmp_path / "e.txt"
        path.write_text(SIDECAR_TEXTS["plain"], encoding="utf-8")
        want = load_outcome(reference_load_embedding_file, path)
        assert load_outcome(load_embedding_file, path) == want
        assert [p.name for p in tmp_path.iterdir()] == ["e.txt"]

    @pytest.mark.parametrize("existing", [b"not a sidecar", encoder._MAGIC[:-1], "directory"])
    def test_foreign_file_at_the_sidecar_path_is_left_alone(self, tmp_path, parses, existing):
        path = tmp_path / "e.txt"
        path.write_text(SIDECAR_TEXTS["plain"], encoding="utf-8")
        if existing == "directory":
            sidecar(path).mkdir()
        else:
            sidecar(path).write_bytes(existing)
        want = load_outcome(reference_load_embedding_file, path)
        assert load_outcome(load_embedding_file, path) == want
        assert load_outcome(load_embedding_file, path) == want
        assert len(parses) == 2
        if existing == "directory":
            assert list(sidecar(path).iterdir()) == []
        else:
            assert sidecar(path).read_bytes() == existing

    @pytest.mark.parametrize("after_good_load", [False, True], ids=["fresh", "stale"])
    @pytest.mark.parametrize("data", [b"cat 1 2\ndog 1\n", b"cat 1 x\n", b"\n",
                                      b"cat 1 2\nd\xffg 1 2\n"],
                             ids=["dimension", "non-numeric", "empty", "not-utf8"])
    def test_bad_text_reports_its_line_and_writes_no_sidecar(self, tmp_path, data,
                                                             after_good_load):
        path = tmp_path / "e.txt"
        if after_good_load:  # a sidecar made from other bytes cannot hide the error
            path.write_text(SIDECAR_TEXTS["plain"], encoding="utf-8")
            load_embedding_file(path)
            before = sidecar(path).read_bytes()
        path.write_bytes(data)
        want = load_outcome(reference_load_embedding_file, path)
        assert want[0] == "error"
        assert load_outcome(load_embedding_file, path) == want
        if after_good_load:
            assert sidecar(path).read_bytes() == before
        else:
            assert not sidecar(path).exists()


KEY = encoder._KEY_BYTES
PREFIX = "p" * KEY
# tokens around the key width: ones as long as a key or longer that share its prefix and
# differ after it, in length or in trailing NUL bytes; short ones that end in NUL bytes;
# non-ASCII ones on both sides of the width; the empty token; and one short and one long
# token on two lines each (the later line holds)
KEY_TABLE_TOKENS = [PREFIX + "a", PREFIX, "cat", PREFIX + "b", PREFIX + "ab", PREFIX[:-1],
                    PREFIX + "\0", PREFIX + "\0\0", "cat\0", "cat\0\0", "\0", "", "caf\u00e9",
                    "\u732b" * 5, "\u732b" * 6, "\u00e9" * 8, "\u00e9" * 7 + "e", "cat",
                    PREFIX + "a", "z" * 300]
ABSENT = [PREFIX + "c", PREFIX + "a\0", PREFIX + "abc", PREFIX[:-2], "ca", "cat\0\0\0",
          "\0\0", "\u732b" * 7, "\u732b" * 4, "\u00e9" * 9, "z" * 299, "z" * 301, "\ud800",
          "p" * 1000, "\uffff"]


class TestKeyTable:
    """Parsed, mapped and dict-built stores look tokens up in a sorted key table, and
    each gives the line-by-line reference's bytes for every token and none for others."""

    @pytest.fixture
    def key_file(self, tmp_path):
        path = tmp_path / "keys.txt"
        path.write_text("".join(f"{token} {i} {-i / 4}\n"
                                for i, token in enumerate(KEY_TABLE_TOKENS)), encoding="utf-8")
        return path

    def test_every_store_looks_up_the_reference_bytes(self, key_file, parses):
        vectors, dim = reference_load_embedding_file(key_file)
        assert len(vectors) == len(KEY_TABLE_TOKENS) - 2  # two tokens are on two lines
        parsed, from_sidecar = load_embedding_file(key_file), load_embedding_file(key_file)
        assert parses == [key_file] and not mapped(parsed) and mapped(from_sidecar)
        probes = [*vectors, *ABSENT]
        want = [vectors.get(t, np.zeros(dim)).tobytes() for t in probes]
        for store in (parsed, from_sidecar, EmbeddingStore(vectors, dim)):
            assert store.tokens() == list(vectors)
            assert [store.stack([t])[0].tobytes() for t in probes] == want
            assert [row.tobytes() for row in store.stack(probes)] == want
            assert [t in store for t in probes] == [t in vectors for t in probes]
        assert snapshot(parsed) == snapshot(from_sidecar)

    def test_keys_are_sorted_fixed_width_and_one_per_short_token(self, key_file):
        store = load_embedding_file(key_file)
        assert store.keys.dtype == np.dtype(f"S{KEY}")
        assert list(store.keys) == sorted(store.keys)
        # the short token on two lines has one key, the long one a key per line
        assert len(store.keys) == len(KEY_TABLE_TOKENS) - 1
        assert store.stack(["cat"])[0].tolist() == [17.0, -17 / 4]
        assert store.stack([PREFIX + "a"])[0].tolist() == [18.0, -18 / 4]


@pytest.fixture(scope="module")
def big_embeddings(tmp_path_factory):
    """The text of an embedding file of 50,000 short tokens and 2 numbers a line."""
    return "".join(f"w{i} {i % 7} {-(i % 5)}\n" for i in range(50_000))


class TestLargeSidecar:
    def test_sidecar_load_allocates_under_half_a_megabyte(self, tmp_path, big_embeddings):
        path = tmp_path / "e.txt"
        path.write_text(big_embeddings, encoding="utf-8")
        load_embedding_file(path)
        tracemalloc.start()
        try:
            store = load_embedding_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mapped(store) and peak < 1 << 19, peak
        assert store.stack(["w49999"])[0].tolist() == [49_999 % 7, -(49_999 % 5)]

    def test_a_long_token_grows_the_sidecar_by_little_more_than_its_bytes(self, tmp_path,
                                                                           big_embeddings):
        path = tmp_path / "e.txt"
        path.write_text(big_embeddings, encoding="utf-8")
        load_embedding_file(path)
        before = os.path.getsize(sidecar(path))
        long = "L" * 10_000
        path.write_text(big_embeddings + f"{long} 1 2\n", encoding="utf-8")
        load_embedding_file(path)
        grown = os.path.getsize(sidecar(path)) - before
        # its bytes and newline, its row of 2 float64, its key, row and start, padding
        assert len(long) < grown <= len(long) + 1 + 16 + KEY + 16 + 7
        store = load_embedding_file(path)
        assert mapped(store) and store.stack([long])[0].tolist() == [1.0, 2.0]
        assert long[:-1] not in store and store.tokens()[-1] == long


@pytest.fixture(scope="module")
def corpus_embeddings(tmp_path_factory):
    """A synth corpus, a config for it and the checkpoint of an untrained model of its
    50-dimensional embeddings (323 lines, about 139 KB)."""
    root = tmp_path_factory.mktemp("damage")
    paths = generate_corpus(root / "corpus", seed=0, n_train=24, n_dev=4)
    config = {"hidden_width": 8, "dropout": 0.0, "mode": "content",
              "embedding_paths": [str(paths.embeddings)], "gazetteer_path": str(paths.gazetteer)}
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    _, store = H.build_model(H.TrainConfig(**config), load_embeddings([paths.embeddings]))
    K.save_checkpoint(store, root / "model.tsq")
    return paths, paths.embeddings.read_bytes(), str(config_path), str(root / "model.tsq")


class TestDamagedEmbeddingFile:
    """Seeded byte damage to a real embedding file: a cold load and the load after it
    agree with the line-by-line reference, vectors or one-line error alike."""

    def test_cold_and_sidecar_loads_match_the_reference(self, corpus_embeddings, parses):
        paths, raw, _, _ = corpus_embeddings
        path = paths.embeddings
        seeds, errors = range(300), 0
        try:
            for seed in seeds:
                path.write_bytes(damaged(raw, seed))
                sidecar(path).unlink(missing_ok=True)
                want = load_outcome(reference_load_embedding_file, path)
                assert load_outcome(load_embedding_file, path) == want, seed
                if want[0] == "error":
                    errors += 1
                    assert want[1].startswith(str(path)) and "\n" not in want[1], seed
                    assert not sidecar(path).exists(), seed
                assert load_outcome(load_embedding_file, path) == want, seed
        finally:
            path.write_bytes(raw)
        assert 0 < errors < len(seeds)  # the seeds reach both outcomes
        # each seed parsed once, and once more where the parse failed and left no sidecar
        assert len(parses) == len(seeds) + errors

    @pytest.mark.parametrize("seed", range(8))
    def test_predict_exits_0_or_1_with_one_line_naming_the_file(self, corpus_embeddings,
                                                                seed, capsys):
        paths, raw, config, checkpoint = corpus_embeddings
        path = paths.embeddings
        path.write_bytes(damaged(raw, seed))
        sidecar(path).unlink(missing_ok=True)
        want = load_outcome(reference_load_embedding_file, path)
        try:
            runs = [(main(["predict", "--question", "what is the maximum points when the "
                           "team is delta union?", "--tables", str(paths.tables),
                           "--table-id", "players", "--checkpoint", checkpoint,
                           "--config", config]), *capsys.readouterr())
                    for _ in ("cold", "from the sidecar")]
        finally:
            path.write_bytes(raw)
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        if want[0] == "error":
            assert (code, out, err) == (1, "", f"error: {want[1]}\n")
        else:
            assert (code, err) == (0, "") and out.count("\n") == 1


class TestEmbedQuestion:
    def test_known_word_none_tag(self):
        model = tiny_model()
        tq = TaggedQuestion(tokens=["artist"], tags=[TAG_NONE])
        out = embed(model, tq, ["artist"])
        assert out.shape == (1, 7)
        np.testing.assert_array_equal(out.data[0, :4], model.emb.stack(["artist"])[0])
        np.testing.assert_array_equal(out.data[0, 4:], model.type_table.data[0])

    def test_unknown_word_zero_prefix(self):
        model = tiny_model()
        tq = TaggedQuestion(tokens=["zzz"], tags=[TypeTag("integer")])
        out = embed(model, tq, ["artist"])
        np.testing.assert_array_equal(out.data[0, :4], 0.0)
        assert np.abs(out.data[0, 4:]).sum() > 0

    def test_column_value_uses_mean_column_name_vector(self):
        model = tiny_model(mode="content")  # content mode: type width == word width
        tq = TaggedQuestion(tokens=["mort"], tags=[TypeTag("column_value", column=0)])
        out = embed(model, tq, ["artist"])
        np.testing.assert_allclose(out.data[0, 4:], model.emb.stack(["artist"])[0], atol=1e-12)

    def test_content_mode_width_mismatch_rejected(self):
        # an insensitive model rejects a cell-value tag at any type width, the word width
        # (4) included
        tq = TaggedQuestion(tokens=["mort"], tags=[TypeTag("column_value", column=0)])
        for type_dim in (3, 4):
            model = SketchModel(K.ParamStore(seed=0), tiny_store(), width=8, type_dim=type_dim,
                                dropout=0.0)
            with pytest.raises(ValueError, match="^column_value tags need content mode$"):
                model.question_parts(tq, model.column_matrix(["artist"]))

    def test_batch_input_gathers_the_stacked_vectors_from_kept_rows(self):
        # known words, long ones checked in the store's text, and unknown words (one sharing
        # its first 16 UTF-8 bytes with two known ones), in two questions over two tables
        emb = TestColumnEncoding.EMB
        model = SketchModel(K.ParamStore(seed=3), emb, width=8, mode="content", dropout=0.0)
        value = TypeTag("column_value", column=1)
        questions = [
            (["supercalifragilisticexpialidocious", "zzz", "artist", "minus"],
             [TAG_NONE, TypeTag("integer"), value, TAG_NONE], ["spoofed", "title artist"]),
            (["électroencéphalogramme", "supercalifragilisticz", "supercalifragilistic"],
             [value, TypeTag("float"), TAG_NONE], ["issue", "mort", "drucker"]),
        ]
        inputs, words, types = [], [], []
        for tokens, tags, header in questions:
            col_matrix = model.column_matrix(header)
            inputs.append((model.question_parts(TaggedQuestion(tokens, tags), col_matrix),
                           col_matrix))
            words.append(emb.stack(tokens))
            types += [col_matrix[tag.column] if tag.kind == "column_value"
                      else model.type_table.data[TYPE_INDEX[tag.kind]] for tag in tags]
        assert [(parts[0] < 0).tolist() for parts, _ in inputs] == [[False, True, False, False],
                                                                    [False, True, False]]
        q_parts, col_matrix, _, _ = stack_inputs(inputs)
        q_in = model.question_input(q_parts, col_matrix)
        assert q_in.data.tobytes() == np.hstack([np.vstack(words), types]).tobytes()

    def test_question_parts_are_one_int64_array_of_store_and_type_rows(self):
        model = tiny_model(mode="content")
        tags = [TAG_NONE, TypeTag("integer"), TypeTag("column_value", column=1)]
        parts = model.question_parts(TaggedQuestion(["artist", "zzz", "mort"], tags),
                                     model.column_matrix(["title", "artist"]))
        assert parts.dtype == np.int64 and parts.shape == (2, 3)
        assert parts[0].tolist() == model.emb.rows(["artist", "zzz", "mort"]).tolist()
        assert parts[0, 1] == -1
        assert parts[1].tolist() == [TYPE_INDEX["none"], TYPE_INDEX["integer"],
                                     len(TYPE_INDEX) + 1]

    def test_gradient_reaches_type_table(self):
        model = tiny_model()
        tq = TaggedQuestion(tokens=["artist", "zzz"], tags=[TAG_NONE, TypeTag("float")])
        out = embed(model, tq, ["artist"])
        K.backward(K.sum_all(out))
        table = model.type_table
        assert table.grad is not None
        assert np.abs(table.grad[0]).sum() > 0   # none tag row
        assert np.abs(table.grad[3]).sum() > 0   # float tag row


class TestRowLookup:
    def test_a_token_without_a_vector_is_row_minus_one_and_gathers_as_zeros(self):
        emb = TestColumnEncoding.EMB
        # "supercalifragilisticz" shares its key, its first 16 bytes, with two known words,
        # so only the check in the text finds it missing
        tokens = ["artist", "quux", "supercalifragilisticexpialidocious",
                  "supercalifragilisticz", "minus"]
        rows = emb.rows(tokens)
        assert rows.dtype == np.int64 and rows.shape == (5,)
        assert rows[1] == rows[3] == -1 and (rows[[0, 2, 4]] >= 0).all()
        assert [t in emb for t in tokens] == [True, False, True, False, True]
        out = emb.gather(rows)
        assert out.shape == (5, emb.dim)
        np.testing.assert_array_equal(out[[1, 3]], 0.0)
        assert out[[0, 2, 4]].tobytes() == emb.vectors[rows[[0, 2, 4]]].tobytes()
        assert out.tobytes() == emb.stack(tokens).tobytes()


class TestColumnEncoding:
    def test_column_vector_is_mean_of_words(self):
        emb = tiny_store()
        want = (emb.stack(["spoofed"])[0] + emb.stack(["title"])[0]) / 2
        np.testing.assert_allclose(column_name_matrix(["spoofed title"], emb)[0], want,
                                   atol=1e-12)

    def test_all_oov_name_gives_zero(self):
        emb = tiny_store()
        np.testing.assert_array_equal(column_name_matrix(["quux corge"], emb)[0], 0.0)

    # known words: short ones, one whose vector is -0.0, and three of 16 UTF-8 bytes or
    # more, two of which share their first 16 bytes, so a lookup checks them in the text
    LONG = ("supercalifragilistic", "supercalifragilisticexpialidocious",
            "électroencéphalogramme")
    EMB = EmbeddingStore(dict(tiny_vectors(), minus=np.full(4, -0.0),
                              **dict(zip(LONG, np.random.default_rng(7).normal(size=(3, 4))))),
                         4)
    # unknown words, one of them sharing its first 16 bytes with the known long words
    UNKNOWN = ("quux", "corge", "supercalifragilisticz")
    NAMES = st.one_of(st.sampled_from(["", " ", "  "]),
                      st.lists(st.sampled_from([*EMB.tokens(), *UNKNOWN]), min_size=1,
                               max_size=4).map(" ".join))

    @given(header=st.lists(NAMES, min_size=1, max_size=16))
    @settings(max_examples=300, deadline=None)
    def test_matrix_rows_are_per_name_means(self, header):
        got = column_name_matrix(header, self.EMB)
        want = [np.mean([self.EMB.stack([w])[0] for w in name.split()], axis=0)
                if name.strip() else np.zeros(self.EMB.dim) for name in header]
        assert got.tobytes() == np.stack(want).tobytes()

    def test_model_keeps_a_read_only_matrix_per_header(self):
        model = tiny_model(seed=1)
        header = ["spoofed title", "artist"]
        kept = model.column_matrix(header)
        assert model.column_matrix(list(header)) is kept and not kept.flags.writeable
        assert kept.tobytes() == column_name_matrix(header, model.emb).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            kept[0, 0] = 1.0
        other = model.column_matrix(["artist", "spoofed title"])
        assert other is not kept and other.tobytes() == kept[::-1].tobytes()
        # one header read between the others stays; the least recently read go first
        for i in range(2 * COLUMN_MATRICES):
            model.column_matrix([f"issue {i}"])
            assert model.column_matrix(header) is kept
            assert model._column_matrix.cache_info().currsize <= COLUMN_MATRICES
        again = model.column_matrix(["artist", "spoofed title"])
        assert again is not other and again.tobytes() == other.tobytes()

    def test_single_column_shape(self):
        model = tiny_model(seed=1, width=10)
        _, out = encode(model, one_token_input(model), ["artist"])
        assert out.shape == (1, 10)

    def test_column_order_sensitivity(self):
        model = tiny_model(seed=2, width=12)
        q_input = one_token_input(model)
        _, a = encode(model, q_input, ["spoofed title", "artist", "issue"])
        _, b = encode(model, q_input, ["issue", "artist", "spoofed title"])
        # the LSTM is order-sensitive: rows move beyond a pure permutation
        assert not np.allclose(a.data[1], b.data[1])


class TestEncodeQuestion:
    def test_zero_weights_zero_output(self):
        model = tiny_model(seed=3)
        for t in model.encoders["col"][0]:
            t.Wx.data[:] = 0
            t.Wh.data[:] = 0
            t.b.data[:] = 0
        x = K.constant(np.random.default_rng(0).normal(size=(3, model.d_in)))
        out, _ = encode(model, x, ["artist"])
        np.testing.assert_array_equal(out.data, 0.0)

    def test_worked_example_row_count(self):
        table = magazine_table()
        tq = recognize("the spoofed title with mort drucker as the artist for issue 88.5?",
                       table.header, table=table, mode="content", gazetteer=demo_gazetteer())
        model = tiny_model(seed=4, width=16, mode="content")
        out, _ = encode(model, embed(model, tq, table.header), table.header)
        assert out.shape == (13, 16)

    def test_deterministic(self):
        model = tiny_model(seed=5)
        x = np.random.default_rng(1).normal(size=(4, model.d_in))
        one = encode(model, K.constant(x), ["artist"])[0].data
        two = encode(model, K.constant(x), ["artist"])[0].data
        np.testing.assert_array_equal(one, two)
