import numpy as np
import pytest

from helpers import demo_gazetteer, magazine_table
from sketchsql import kernel as K
from sketchsql.encoder import (EmbeddingError, EmbeddingStore, column_name_vector,
                               load_embedding_file, load_embeddings)
from sketchsql.slots import SketchModel
from sketchsql.tagger import TAG_NONE, TaggedQuestion, TypeTag, recognize


def tiny_store(dim=4, tokens=("spoofed", "title", "artist", "issue", "mort", "drucker")):
    rng = np.random.default_rng(99)
    return EmbeddingStore({t: rng.normal(size=dim) for t in tokens}, dim)


def tiny_model(seed=0, width=8, mode="insensitive", type_dim=3):
    """Slot model over `tiny_store`; content mode forces the type width to 4."""
    return SketchModel(K.ParamStore(seed=seed), tiny_store(), width=width, mode=mode,
                       type_dim=type_dim, dropout=0.0)


def embed(model, tq, header):
    return model.question_input(*model.question_parts(tq, header))


def encode(model, q_input, header):
    """(H_qt, H_col) of the column model for a question input and a header."""
    return model.encode("col", q_input, K.constant(model.column_matrix(header)))


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

    def test_token_in_one_file_zero_padded(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_emb(a, [("cat", [1.0] * 50), ("dog", [3.0] * 50)])
        write_emb(b, [("cat", [2.0] * 25)])
        emb = load_embeddings([a, b])
        np.testing.assert_array_equal(emb.word_vec("dog")[50:], 0.0)

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
        vectors, dim = load_embedding_file(p)
        assert dim == 2
        np.testing.assert_array_equal(vectors["cat"], 1e308)

    def test_unknown_word_is_zero_vector(self):
        emb = tiny_store()
        np.testing.assert_array_equal(emb.word_vec("zzz"), 0.0)
        assert emb.word_vec("zzz").shape == (4,)


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
            model.question_parts(tq, ["artist"])

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
        np.testing.assert_allclose(column_name_vector("spoofed title", emb), want, atol=1e-12)

    def test_all_oov_name_gives_zero(self):
        emb = tiny_store()
        np.testing.assert_array_equal(column_name_vector("quux corge", emb), 0.0)

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
        for t in model.encoders["col"][0].fw, model.encoders["col"][0].bw:
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
