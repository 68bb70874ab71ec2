import math
import random
import warnings

import numpy as np
import pytest

from helpers import demo_gazetteer, magazine_table
from reference_impls import reference_load_embedding_file
from sketchsql import encoder
from sketchsql import kernel as K
from sketchsql.encoder import (EmbeddingError, EmbeddingStore, column_name_matrix,
                               load_embedding_file, load_embeddings)
from sketchsql.slots import SketchModel
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
    return model.question_input(*model.question_parts(tq, model.column_matrix(header)))


def encode(model, q_input, header):
    """(H_qt, H_col) of the column model for a question input and a header."""
    [out] = model.encode(("col",), q_input, K.constant(model.column_matrix(header)))
    return out


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
        np.testing.assert_array_equal(emb.word_vec("cat"), 1.0)

    def test_two_files_concatenate(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_emb(a, [("cat", [1.0] * 50)])
        write_emb(b, [("cat", [2.0] * 25)])
        emb = load_embeddings([a, b])
        assert emb.dim == 75
        np.testing.assert_array_equal(emb.word_vec("cat")[:50], 1.0)
        np.testing.assert_array_equal(emb.word_vec("cat")[50:], 2.0)

    def test_token_in_one_file_zero_padded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(encoder, "CHUNK_LINES", 2)  # the merged rows span blocks
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_emb(a, [("cat", [1.0, 1.5]), ("dog", [2.0, 2.5]), ("emu", [3.0, 3.5])])
        write_emb(b, [("emu", [7.0]), ("fox", [8.0]), ("cat", [9.0])])
        emb = load_embeddings([a, b])
        want = {"cat": [1.0, 1.5, 9.0], "dog": [2.0, 2.5, 0.0], "emu": [3.0, 3.5, 7.0],
                "fox": [0.0, 0.0, 8.0], "zzz": [0.0, 0.0, 0.0]}
        assert emb.dim == 3
        assert {t: emb.word_vec(t).tobytes() for t in want} == {
            t: np.array(vec).tobytes() for t, vec in want.items()}

    @pytest.mark.parametrize("later", ["9", "9_0"], ids=["numpy", "float"])
    def test_token_on_two_lines_takes_the_later(self, tmp_path, monkeypatch, later):
        monkeypatch.setattr(encoder, "CHUNK_LINES", 2)  # the lines fall in two blocks
        p = tmp_path / "a.txt"
        p.write_text(f"cat 1\ndog 2\nemu 3\ncat {later}\n", encoding="utf-8")
        emb = load_embedding_file(p)
        assert list(emb.rows) == ["cat", "dog", "emu"]
        np.testing.assert_array_equal(emb.word_vec("cat"), [float(later)])
        np.testing.assert_array_equal(emb.word_vec("dog"), [2.0])

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
        np.testing.assert_array_equal(emb.word_vec("cat"), 1e308)

    def test_unknown_word_is_zero_vector(self):
        emb = tiny_store()
        np.testing.assert_array_equal(emb.word_vec("zzz"), 0.0)
        assert emb.word_vec("zzz").shape == (4,)


def load_outcome(load, path):
    """What a loader makes of a file: its entries in first-seen order with their vector
    bytes, or its error. The loader gives a store, the reference a (dict, dim) pair."""
    try:
        loaded = load(path)
    except EmbeddingError as exc:
        return "error", str(exc)
    if isinstance(loaded, EmbeddingStore):
        loaded = {token: loaded.word_vec(token) for token in loaded.rows}, loaded.dim
    vectors, dim = loaded
    return dim, [(token, vec.shape, vec.tobytes()) for token, vec in vectors.items()]


PLAIN = ["0", "-0", "+2", ".5", "5.", "-1.25", "1e-3", "1E5", "-7.5e+2", "1e308", "0.30000"]
ODD = ["nan", "inf", "-Infinity", "1e400", "1_000", "\u0661", "1\x1c", "1\t", "", "1-2",
       "0x10", "1e", "-", "."]
TOKENS = ["cat", "dog", "cat", "caf\u00e9", "\u732b", "x-y", "1", ""]


def random_embedding_text(rng: random.Random) -> str:
    """A small embedding file: mostly plain decimals, and sometimes what float() reads
    differently, what it rejects, bad spacing, a line with no vector, blank lines and a
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
    def test_random_files_load_as_the_line_by_line_reference(self, tmp_path, monkeypatch):
        monkeypatch.setattr(encoder, "CHUNK_LINES", 3)
        rng = random.Random(1313)
        path = tmp_path / "e.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(1500):
                text = random_embedding_text(rng)
                path.write_text(text, encoding="utf-8")
                assert (load_outcome(load_embedding_file, path)
                        == load_outcome(reference_load_embedding_file, path)), text

    def test_large_plain_file_bitwise(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(1300, 7))
        path = tmp_path / "e.txt"
        path.write_text("".join(f"w{i} " + " ".join(f"{v:.5f}" for v in row) + "\n"
                                for i, row in enumerate(rows)), encoding="utf-8")
        outcome = load_outcome(load_embedding_file, path)
        assert outcome[0] == 7 and len(outcome[1]) == 1300
        assert outcome == load_outcome(reference_load_embedding_file, path)
        # one array per block of lines, not one per token: every vector is a block's row
        emb = load_embedding_file(path)
        assert len(emb.blocks) == math.ceil(1300 / encoder.CHUNK_LINES)
        assert ({id(emb.word_vec(token).base) for token in emb.rows}
                == {id(block) for block in emb.blocks})

    @pytest.mark.parametrize("chunk_lines", [4, 6, 128])
    def test_dict_and_file_stores_look_up_the_same_bytes(self, tmp_path, monkeypatch,
                                                         chunk_lines):
        monkeypatch.setattr(encoder, "CHUNK_LINES", chunk_lines)
        vectors = tiny_vectors(dim=5)
        path = tmp_path / "e.txt"
        write_emb(path, vectors.items())
        from_file, from_dict = load_embedding_file(path), EmbeddingStore(vectors, 5)
        assert len(from_dict.blocks) == len(from_file.blocks) == math.ceil(6 / chunk_lines)
        monkeypatch.undo()  # a store keeps the block length it was built with
        for token in [*vectors, "zzz"]:
            want = vectors.get(token, np.zeros(5)).tobytes()
            assert from_file.word_vec(token).tobytes() == want
            assert from_dict.word_vec(token).tobytes() == want

    def test_numpy_merging_spaces_cannot_change_the_outcome(self, tmp_path, monkeypatch):
        """Should numpy read a run of spaces as one delimiter, the field count still
        sends the chunk through float()."""
        loadtxt = np.loadtxt
        monkeypatch.setattr(encoder.np, "loadtxt",
                            lambda rows, **kw: loadtxt(rows, **{**kw, "delimiter": None}))
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


class TestEmbedQuestion:
    def test_known_word_none_tag(self):
        model = tiny_model()
        tq = TaggedQuestion(tokens=["artist"], tags=[TAG_NONE], char_spans=[(0, 6)])
        out = embed(model, tq, ["artist"])
        assert out.shape == (1, 7)
        np.testing.assert_array_equal(out.data[0, :4], model.emb.word_vec("artist"))
        np.testing.assert_array_equal(out.data[0, 4:], model.type_table.data[0])

    def test_unknown_word_zero_prefix(self):
        model = tiny_model()
        tq = TaggedQuestion(tokens=["zzz"], tags=[TypeTag("integer")], char_spans=[(0, 3)])
        out = embed(model, tq, ["artist"])
        np.testing.assert_array_equal(out.data[0, :4], 0.0)
        assert np.abs(out.data[0, 4:]).sum() > 0

    def test_column_value_uses_mean_column_name_vector(self):
        model = tiny_model(mode="content")  # content mode: type width == word width
        tq = TaggedQuestion(tokens=["mort"], tags=[TypeTag("column_value", column=0)],
                            char_spans=[(0, 4)])
        out = embed(model, tq, ["artist"])
        np.testing.assert_allclose(out.data[0, 4:], model.emb.word_vec("artist"), atol=1e-12)

    def test_content_mode_width_mismatch_rejected(self):
        model = tiny_model()
        tq = TaggedQuestion(tokens=["mort"], tags=[TypeTag("column_value", column=0)],
                            char_spans=[(0, 4)])
        with pytest.raises(ValueError, match="type width"):
            model.question_parts(tq, model.column_matrix(["artist"]))

    def test_gradient_reaches_type_table(self):
        model = tiny_model()
        tq = TaggedQuestion(tokens=["artist", "zzz"], tags=[TAG_NONE, TypeTag("float")],
                            char_spans=[(0, 1), (1, 2)])
        out = embed(model, tq, ["artist"])
        K.backward(K.sum_all(out))
        table = model.type_table
        assert table.grad is not None
        assert np.abs(table.grad[0]).sum() > 0   # none tag row
        assert np.abs(table.grad[3]).sum() > 0   # float tag row


class TestColumnEncoding:
    def test_column_vector_is_mean_of_words(self):
        emb = tiny_store()
        want = (emb.word_vec("spoofed") + emb.word_vec("title")) / 2
        np.testing.assert_allclose(column_name_matrix(["spoofed title"], emb)[0], want,
                                   atol=1e-12)

    def test_all_oov_name_gives_zero(self):
        emb = tiny_store()
        np.testing.assert_array_equal(column_name_matrix(["quux corge"], emb)[0], 0.0)

    def test_matrix_rows_are_per_name_means(self):
        emb = EmbeddingStore(dict(tiny_vectors(), minus=np.full(4, -0.0)), 4)
        header = ["spoofed title", "", "artist", "  ", "quux", "issue mort drucker", "minus"]
        got = column_name_matrix(header, emb)
        want = [np.mean([emb.word_vec(w) for w in name.split()], axis=0) if name.strip()
                else np.zeros(emb.dim) for name in header]
        assert got.tobytes() == np.stack(want).tobytes()

    def test_single_column_shape(self):
        model = tiny_model(seed=1, width=10)
        _, out = encode(model, one_token_input(model), ["artist"])
        assert out.shape == (1, 10)

    def test_empty_schema_errors(self):
        with pytest.raises(ValueError, match="empty schema"):
            tiny_model().column_matrix([])

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
