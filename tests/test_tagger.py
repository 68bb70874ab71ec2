import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    MAGAZINE_CONTENT_TAGS,
    MAGAZINE_INSENSITIVE_TAGS,
    MAGAZINE_QUESTION,
    demo_gazetteer,
    magazine_table,
)
from reference_impls import reference_recognize, reference_tag_content
from sketchsql import tagger as T
from sketchsql.tables import Table, cell_text, normalize_text
from sketchsql.tagger import Gazetteer, GazetteerError, TaggedQuestion, TypeTag


def fresh(tokens):
    return TaggedQuestion(
        tokens=list(tokens),
        tags=[T.TAG_NONE] * len(tokens),
        char_spans=[(0, 0)] * len(tokens),
    )


class TestTokenize:
    def test_punctuation_split(self):
        tokens, _ = T.tokenize("How many spoofed titles?")
        assert tokens == ["how", "many", "spoofed", "titles", "?"]

    def test_decimal_point_kept_inside_digits(self):
        tokens, _ = T.tokenize("88.5")
        assert tokens == ["88.5"]

    def test_apostrophe_split(self):
        tokens, _ = T.tokenize("mort drucker's issue")
        assert tokens == ["mort", "drucker", "'", "s", "issue"]

    def test_hyphen_kept_inside_words(self):
        tokens, _ = T.tokenize("the t-shirt from 1999-07-01")
        assert tokens == ["the", "t-shirt", "from", "1999-07-01"]

    def test_char_spans_cover_tokens(self):
        question = "Hits 88.5, right?"
        tokens, spans = T.tokenize(question)
        for token, (start, end) in zip(tokens, spans):
            assert question.lower()[start:end] == token

    @pytest.mark.parametrize("bad", ["", "   ", "\t\n"])
    def test_empty_question_errors(self, bad):
        with pytest.raises(ValueError, match="empty question"):
            T.tokenize(bad)


class TestExtractNgrams:
    def test_five_tokens_count_for_paper_lengths(self):
        spans = T.ngram_spans(5)
        long_spans = [s for s in spans if s[1] - s[0] >= 2]
        assert len(long_spans) == 10  # lengths 2..6 over 5 tokens: 4+3+2+1

    def test_single_token(self):
        assert T.ngram_spans(1) == ((0, 1),)

    def test_two_tokens(self):
        assert T.ngram_spans(2) == ((0, 2), (0, 1), (1, 2))

    def test_ordering_longest_then_leftmost(self):
        spans = T.ngram_spans(7)
        lengths = [e - s for s, e in spans]
        assert lengths == sorted(lengths, reverse=True)
        for length in set(lengths):
            starts = [s for s, e in spans if e - s == length]
            assert starts == sorted(starts)

    def test_caps_at_six(self):
        spans = T.ngram_spans(8)
        assert max(e - s for s, e in spans) == 6


class TestSpanTexts:
    @given(st.text(min_size=1, max_size=40).filter(str.strip))
    @settings(max_examples=300, deadline=None)
    def test_span_texts_are_normal_and_follow_the_walk(self, question):
        # every span text is already its own normalize_text, so the entity pass may look
        # it up in the gazetteer as it stands
        tokens = T.tokenize(question)[0]
        texts = T.span_texts(tuple(tokens))
        assert [(start, end) for start, end, _ in texts] == list(T.ngram_spans(len(tokens)))
        for start, end, text in texts:
            assert text == " ".join(tokens[start:end])
            assert normalize_text(text) == text

    def test_gazetteer_get_reads_normal_keys_only(self):
        gaz = Gazetteer([("Mort  Drucker", "person")])
        assert gaz.get("mort drucker") == gaz.get(normalize_text(" MORT drucker ")) == "person"
        assert gaz.get(" MORT drucker ") is None


class TestSchemaColumns:
    def test_figure_like_columns(self):
        tq = fresh("the spoofed title and the artist for that issue".split())
        T.tag_schema_columns(tq, ["spoofed title", "artist", "issue"])
        kinds = [t.kind for t in tq.tags]
        assert kinds == ["none", "column", "column", "none", "none", "column",
                         "none", "none", "column"]

    def test_no_overlap_changes_nothing(self):
        tq = fresh(["who", "won"])
        T.tag_schema_columns(tq, ["artist"])
        assert all(t.kind == "none" for t in tq.tags)

    def test_longest_match_shadows_shorter(self):
        tq = fresh("what total score was it".split())
        T.tag_schema_columns(tq, ["total", "total score"])
        assert [t.kind for t in tq.tags] == ["none", "column", "column", "none", "none"]

    def test_empty_schema_errors(self):
        with pytest.raises(ValueError, match="no columns"):
            T.tag_schema_columns(fresh(["a"]), [])


class TestNumbers:
    @pytest.mark.parametrize("token,kind", [
        ("88.5", "float"),
        ("1998", "year"),
        ("7", "integer"),
        ("2101", "integer"),
        ("1299", "integer"),
        ("1300", "year"),
        ("2100", "year"),
        ("1999-07-01", "date"),
        ("12-31-1999", "date"),
        ("١٢", "none"),
        ("١٩٩٩", "none"),
        ("1e5", "float"),
        ("007", "integer"),
        ("1e400", "none"),
        ("١٩٩٩-٠٧-٠١", "none"),
    ])
    def test_single_token_classes(self, token, kind):
        tq = fresh([token])
        T.tag_numbers(tq)
        assert tq.tags[0].kind == kind

    def test_month_name_date_span(self):
        tq = fresh(["on", "july", "1", "1999", "then"])
        T.tag_numbers(tq)
        assert [t.kind for t in tq.tags] == ["none", "date", "date", "date", "none"]

    def test_month_name_date_span_with_comma(self):
        tq = fresh(["july", "1", ",", "1999"])
        T.tag_numbers(tq)
        assert [t.kind for t in tq.tags] == ["date"] * 4

    def test_bare_month_is_not_a_date(self):
        tq = fresh(["in", "may", "perhaps"])
        T.tag_numbers(tq)
        assert all(t.kind == "none" for t in tq.tags)

    def test_date_span_with_a_day_past_float64_is_not_a_date(self):
        tq = fresh(["july", "9" * 5000, "1999"])
        T.tag_numbers(tq)
        assert [t.kind for t in tq.tags] == ["none", "none", "year"]

    def test_already_tagged_tokens_kept(self):
        tq = fresh(["1998"])
        tq.tags[0] = TypeTag("column")
        T.tag_numbers(tq)
        assert tq.tags[0].kind == "column"


class TestEntities:
    def test_multiword_person(self):
        tq = fresh(["mort", "drucker", "drew"])
        T.tag_entities(tq, demo_gazetteer())
        assert [t.kind for t in tq.tags] == ["person", "person", "none"]

    def test_absent_token_stays_none(self):
        tq = fresh(["nobody"])
        T.tag_entities(tq, demo_gazetteer())
        assert tq.tags[0].kind == "none"

    def test_country_outranks_place_for_duplicate_keys(self):
        gaz = Gazetteer([("georgia", "place"), ("georgia", "country")])
        tq = fresh(["georgia"])
        T.tag_entities(tq, gaz)
        assert tq.tags[0].kind == "country"
        # insertion order must not matter
        gaz2 = Gazetteer([("georgia", "country"), ("georgia", "place")])
        tq2 = fresh(["georgia"])
        T.tag_entities(tq2, gaz2)
        assert tq2.tags[0].kind == "country"

    def test_person_outranks_everything(self):
        gaz = Gazetteer([("jordan", "country"), ("jordan", "person")])
        assert gaz.get("jordan") == "person"


class TestGazetteerFile:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text("Mort Drucker\tperson\nFrance\tcountry\n\n", encoding="utf-8")
        gaz = Gazetteer.from_tsv(path)
        assert gaz.get(normalize_text("mort  drucker")) == "person"
        assert gaz.get(normalize_text("FRANCE")) == "country"

    def test_unknown_category_reports_line(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text("ok\tperson\nbad\trobot\n", encoding="utf-8")
        with pytest.raises(GazetteerError, match=":2"):
            Gazetteer.from_tsv(path)

    def test_malformed_line_reports_line(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text("justakey\n", encoding="utf-8")
        with pytest.raises(GazetteerError, match=":1"):
            Gazetteer.from_tsv(path)


# Cells that a per-column index could get wrong: True == 1, 1 == 1.0 == -0.0,
# NaN != NaN, ints above 2**53 that round as floats, an int beyond float64,
# and text that only normalises to a number, that only float() reads as one,
# or that normalises to nothing.
STR_CELLS = ["", "  ", "Mort  Drucker", "mort drucker", "\tal\tjaffee ", " STAR ", "star",
             "1", "1.0", "-0.0", "1e-05", "true", "nan", "inf", "none", "2004", "1_000"]
INT_CELLS = [0, 1, -1, 7, 2004, 2**53, 2**53 + 1, -(2**53 + 1), 2**64, 10**400]
FLOAT_CELLS = [0.0, -0.0, 1.0, 7.5, 1e-05, 88.5, 2004.0, 2.0**53, 1e16, 0.1,
               float("nan"), float("inf"), float("-inf")]
BOOL_CELLS = [True, False, 0, 1, 1.0]
CELL_POOLS = [STR_CELLS, INT_CELLS, FLOAT_CELLS, INT_CELLS + FLOAT_CELLS, BOOL_CELLS,
              STR_CELLS + INT_CELLS + FLOAT_CELLS + BOOL_CELLS + [None]]
QUESTION_WORDS = ["1", "1.0", "0", "-1", "true", "false", "none", "nan", "inf", "1e-05",
                  "2004", "7", "9007199254740992", "9007199254740993",
                  "18446744073709551616", "88.5", "star", "mort drucker", "al jaffee", "x",
                  "1_000", "1000"]


@st.composite
def adversarial_tables(draw):
    n_rows = draw(st.integers(0, 5))
    n_cols = draw(st.integers(1, 4))
    columns = [draw(st.lists(st.sampled_from(draw(st.sampled_from(CELL_POOLS))),
                             min_size=n_rows, max_size=n_rows))
               for _ in range(n_cols)]
    return Table(id="adv", header=[f"c{i}" for i in range(n_cols)], types=["text"] * n_cols,
                 rows=[list(row) for row in zip(*columns)])


class TestContent:
    def test_worked_example_sequence(self):
        table = magazine_table()
        tq = T.recognize(MAGAZINE_QUESTION, table.header, table=table,
                         mode="content", gazetteer=demo_gazetteer())
        assert tq.display_tags(table.header) == MAGAZINE_CONTENT_TAGS

    def test_multitoken_cell_tags_whole_span(self):
        table = magazine_table()
        tq = fresh(["mort", "drucker"])
        T.tag_content(tq, table)
        assert tq.tags == [TypeTag("column_value", column=1)] * 2

    def test_value_in_two_columns_takes_lowest_index(self):
        table = Table(id="x", header=["a", "b"], types=["real", "real"],
                      rows=[[2004, 1999], [1999, 2004]])
        tq = fresh(["2004"])
        T.tag_content(tq, table)
        assert tq.tags[0] == TypeTag("column_value", column=0)

    def test_numeric_cell_matches_integral_float(self):
        table = Table(id="x", header=["n"], types=["real"], rows=[[203.0]])
        tq = fresh(["203"])
        T.tag_content(tq, table)
        assert tq.tags[0] == TypeTag("column_value", column=0)

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_whole_table_reference(self, data):
        table = data.draw(adversarial_tables())
        texts = sorted({cell_text(cell) for row in table.rows for cell in row} - {""})
        words = data.draw(st.lists(st.sampled_from(QUESTION_WORDS + texts), min_size=1,
                                   max_size=8))
        # raw words may hold spaces or a leading '-', which tokenize would split
        tokens = words if data.draw(st.booleans()) else T.tokenize(" ".join(words))[0]
        got = T.tag_content(fresh(tokens), table)
        want = reference_tag_content(fresh(tokens), table)
        assert got.tags == want.tags


# Header words, cell texts, month names, ',' and number tokens, so that column, value,
# date, number and entity spans overlap and compete; whole date phrases make month-name
# dates frequent, also ones whose inner tokens an earlier pass has claimed.
RECOGNIZE_TABLE = Table(
    id="rec", header=["spoofed title", "artist", "issue", "year", "may"],
    types=["text", "text", "real", "real", "text"],
    rows=[["star blecch", "mort drucker", 88.5, 1999, "july 4 1999"],
          ["the empire", "al jaffee", 203, 2100, "may"],
          ["1e5", "new york", 7, 12, "july"]],
)
RECOGNIZE_WORDS = (
    RECOGNIZE_TABLE.header
    + sorted({cell_text(cell) for row in RECOGNIZE_TABLE.rows for cell in row})
    + ["spoofed", "title", "star", "mort", "drucker", "new", "france", "of", "the"]
    + ["january", "may", "july", "december", ","]
    + ["december 12 1999", "may 31 , 2101", "january 32 1999", "june 0 2000",
       "july 1 ١٩٩٩", "july 007 1299", "july 4 , 19999"]
    + ["١٢", "١٩٩٩", "1e5", "007", "1e400", "2100", "2101", "1299", "1999", "1998",
       "88.5", "203", "7", "1", "4", "12", "31", "32", "0", "01999", "1e-5", "1_000",
       "1999-07-01", "12-31-1999", "١٩٩٩-٠٧-٠١", "9" * 400]
)
RECOGNIZE_GAZETTEER = Gazetteer([
    ("mort drucker", "person"), ("al jaffee", "person"), ("new york", "place"),
    ("france", "country"), ("may", "person"), ("july 4", "sport"), ("star", "organization"),
])


class TestRecognize:
    def test_insensitive_mode_tags(self):
        table = magazine_table()
        tq = T.recognize(MAGAZINE_QUESTION, table.header, mode="insensitive",
                         gazetteer=demo_gazetteer())
        assert tq.display_tags(table.header) == MAGAZINE_INSENSITIVE_TAGS

    def test_modes_differ_exactly_on_value_tokens(self):
        table = magazine_table()
        gaz = demo_gazetteer()
        plain = T.recognize(MAGAZINE_QUESTION, table.header, mode="insensitive", gazetteer=gaz)
        content = T.recognize(MAGAZINE_QUESTION, table.header, table=table,
                              mode="content", gazetteer=gaz)
        differing = [i for i, (a, b) in enumerate(zip(plain.tags, content.tags)) if a != b]
        value_tokens = [i for i, t in enumerate(content.tags) if t.kind == "column_value"]
        assert differing == value_tokens == [4, 5, 11]

    def test_stop_words_only_all_none(self):
        tq = T.recognize("is it of the and", ["artist"], gazetteer=demo_gazetteer())
        assert all(t.kind == "none" for t in tq.tags)

    def test_content_mode_requires_table(self):
        with pytest.raises(ValueError, match="content mode"):
            T.recognize("anything", ["a"], mode="content")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            T.recognize("anything", ["a"], mode="hybrid")

    def test_content_value_never_outside_schema(self):
        table = magazine_table()
        tq = T.recognize(MAGAZINE_QUESTION, table.header, table=table, mode="content")
        for tag in tq.tags:
            if tag.kind == "column_value":
                assert 0 <= tag.column < table.n_columns

    @given(st.text(alphabet="abcxyz128. '?-", min_size=1, max_size=40).filter(str.strip))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_parallel(self, question):
        table = magazine_table()
        gaz = demo_gazetteer()
        tq = T.recognize(question, table.header, table=table, mode="content", gazetteer=gaz)
        assert len(tq.tokens) == len(tq.tags) == len(tq.char_spans)
        again = T.recognize(" ".join(tq.tokens), table.header, table=table,
                            mode="content", gazetteer=gaz)
        assert again.tokens == tq.tokens
        assert again.tags == tq.tags

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_pass_by_pass_reference(self, data):
        table = RECOGNIZE_TABLE
        words = data.draw(st.lists(st.sampled_from(RECOGNIZE_WORDS), min_size=1, max_size=12))
        question = " ".join(words)
        gaz = RECOGNIZE_GAZETTEER
        for mode in T.MODES:
            got = T.recognize(question, table.header, table=table, mode=mode, gazetteer=gaz)
            want = reference_recognize(question, table.header, table=table, mode=mode,
                                       gazetteer=gaz)
            assert got.tags == want.tags, (mode, question)

