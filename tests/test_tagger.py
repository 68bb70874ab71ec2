import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    MAGAZINE_CONTENT_TAGS,
    MAGAZINE_INSENSITIVE_TAGS,
    MAGAZINE_QUESTION,
    demo_gazetteer,
    magazine_table,
    short_id,
)
from reference_impls import reference_recognize, reference_tag_content
from sketchsql import tagger as T
from sketchsql.tables import Table, cell_text, normalize_text
from sketchsql.tagger import Gazetteer, GazetteerError, TaggedQuestion, TypeTag


def fresh(tokens):
    return TaggedQuestion(tokens=list(tokens), tags=[T.TAG_NONE] * len(tokens))


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
        # it up in the gazetteer as it stands; a tagged question holds the same walk while
        # it is tagged, and recognize drops it once the passes are done
        tokens = T.tokenize(question)[0]
        texts = T.span_texts(tokens)
        assert fresh(tokens).spans == texts
        assert not hasattr(T.recognize(question, ["a"]), "spans")
        assert [(start, end) for start, end, _ in texts] == list(T.ngram_spans(len(tokens)))
        for start, end, text in texts:
            assert text == " ".join(tokens[start:end])
            assert normalize_text(text) == text

    # any text, and texts of word characters, spaces, hyphens and punctuation
    @given(st.one_of(st.text(min_size=1, max_size=40),
                     st.text(alphabet="aZ1_é -.'#\t", min_size=1, max_size=12))
           .filter(str.strip))
    @settings(max_examples=300, deadline=None)
    def test_span_key_is_the_texts_tokens_joined(self, text):
        # span_key tokenizes only a text holding a character tokenize splits off; every
        # other normalised text is already its tokens joined by single spaces
        assert T.span_key(normalize_text(text)) == " ".join(T.tokenize(text)[0])

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

    def test_punctuated_column_names(self):
        # the names' texts differ from the spans' by the spaces tokenize puts around
        # the punctuation it splits off
        tq = fresh(T.tokenize("what is the no. when the pick # is 3 of o'brien-smith ?")[0])
        T.tag_schema_columns(tq, ["No.", "Pick  #", "O'Brien-Smith"])
        assert [t.kind for t in tq.tags] == [
            "none", "none", "none", "column", "column", "none", "none", "column", "column",
            "none", "none", "none", "column", "column", "column", "none"]

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

    @pytest.mark.parametrize("tokens, kinds", [
        (["of", "-", "4"], ["none", "integer", "integer"]),
        (["of", "-", "4.5"], ["none", "float", "float"]),
        (["-", "007"], ["integer", "integer"]),
        (["-", "2000"], ["integer", "integer"]),  # a negative value is never a year
        (["-", "1e5"], ["float", "float"]),
        (["-", "0"], ["none", "integer"]),  # no value above 0
        (["-", "0.0"], ["none", "float"]),
        (["3", "-", "4"], ["integer", "integer", "integer"]),
        (["-", "-", "4"], ["none", "integer", "integer"]),
        (["-", "1999-07-01"], ["none", "date"]),
        (["-", "1e400"], ["none", "none"]),
        (["4", "-"], ["integer", "none"]),
    ], ids=short_id)
    def test_a_sign_token_and_a_number_token_are_one_number(self, tokens, kinds):
        tq = fresh(list(tokens))
        T.tag_numbers(tq)
        assert [t.kind for t in tq.tags] == kinds

    @pytest.mark.parametrize("mode", T.MODES)
    @pytest.mark.parametrize("question, kind", [("who has points of -4", "integer"),
                                                ("who has points of -4.5", "float")])
    def test_a_negative_number_in_no_cell_is_one_number(self, mode, question, kind):
        table = Table(id="p", header=["points"], types=["real"], rows=[[-5], [3]])
        tq = T.recognize(question, table.header, table=table, mode=mode)
        assert tq.display_tags(table.header) == ["none", "none", "column", "none", kind, kind]

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

    def test_punctuated_key(self):
        gaz = Gazetteer([("O'Brien", "person"), ("St. Louis", "place")])
        tq = fresh(T.tokenize("who is o'brien in st. louis")[0])
        T.tag_entities(tq, gaz)
        assert [t.kind for t in tq.tags] == ["none", "none", "person", "person", "person",
                                             "none", "place", "place", "place"]

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

    def test_byte_order_mark_is_not_read_into_the_first_key(self, tmp_path):
        text = "Alma Reyes\tperson\nFrance\tcountry\n"
        plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        gaz = Gazetteer.from_tsv(marked)
        assert gaz.get("alma reyes") == "person"
        assert vars(gaz) == vars(Gazetteer.from_tsv(plain))

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
             "1", "1.0", "-0.0", "1e-05", "true", "nan", "inf", "none", "2004", "1_000",
             "St. Louis", "o'brien", "pick #"]
INT_CELLS = [0, 1, -1, 7, 2004, 2**53, 2**53 + 1, -(2**53 + 1), 2**64, 10**400]
FLOAT_CELLS = [0.0, -0.0, 1.0, 7.5, -7.5, 1e-05, 88.5, 2004.0, 2.0**53, 1e16, 0.1,
               float("nan"), float("inf"), float("-inf")]
BOOL_CELLS = [True, False, 0, 1, 1.0]
CELL_POOLS = [STR_CELLS, INT_CELLS, FLOAT_CELLS, INT_CELLS + FLOAT_CELLS, BOOL_CELLS,
              STR_CELLS + INT_CELLS + FLOAT_CELLS + BOOL_CELLS + [None]]
QUESTION_WORDS = ["1", "1.0", "0", "-1", "-0", "-7.5", "- 1e-05", "-", "true", "false", "none",
                  "nan", "inf", "1e-05",
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

    @pytest.mark.parametrize("rows", [[["St. Louis"], ["boston"]], [["St. Louis"], [7]]],
                             ids=["text", "mixed"])
    def test_punctuated_cell(self, rows):
        # a text column reads its distinct values, a mixed one each cell
        table = Table(id="x", header=["city"], types=["text"], rows=rows)
        tq = fresh(T.tokenize("when the city is st. louis ?")[0])
        T.tag_content(tq, table)
        value = TypeTag("column_value", column=0)
        assert tq.tags == [T.TAG_NONE] * 4 + [value] * 3 + [T.TAG_NONE]

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

    @pytest.mark.parametrize("question, cell, tag", [
        ("which player has none as no.", None, "none"),  # though cell_text(None) is "none"
        ("which player has 25 as no.", None, "no."),
        ("which player has none as no.", "none", "no."),
    ], ids=["null", "number-beside-null", "str-none"])
    def test_null_cell_is_no_value(self, question, cell, tag):
        table = Table(id="x", header=["Player", "No."], types=["text", "real"],
                      rows=[["Pat", 25], ["Lee", cell]])
        tq = T.recognize(question, table.header, table=table, mode="content")
        assert tq.display_tags(table.header) == [
            "none", "column", "none", tag, "none", "column", "column"]

    @pytest.mark.parametrize("question, cells, tags", [
        ("who has points of -5", [-5, 3], ["none", "points", "points"]),
        ("who has points of -3.5", [-3.5, 1.0], ["none", "points", "points"]),
        ("who has points of -5", [-5, "x"], ["none", "points", "points"]),  # cell by cell
        ("who has points of -0", [0, 3], ["none", "none", "points"]),  # -0 is no cell text
        ("who has points of -5", [5, 3], ["none", "none", "points"]),
    ], ids=["int", "float", "mixed", "zero", "positive"])
    def test_a_sign_token_and_a_number_token_are_one_negative_value(self, question, cells,
                                                                  tags):
        table = Table(id="p", header=["points", "name"], types=["real", "text"],
                      rows=[[cell, name] for cell, name in zip(cells, "xy")])
        tq = T.recognize(question, table.header, table=table, mode="content")
        assert tq.display_tags(table.header) == ["none", "none", "column", *tags]

    def test_mixed_column_matches_the_question_s_spellings(self):
        # a column that is not all numbers keys each cell as a question spells it; 1e20's
        # cell text is its digits, and 1.5e-07's splits in two before the 'e'
        table = Table(id="m", header=["points"], types=["real"],
                      rows=[[-5], [float("-inf")], [1e20], [1.5e-07], ["x"]])
        index = T.content_index(table)
        assert index.texts == {"- 5": 0, "- inf": 0, "100000000000000000000": 0,
                               "1.5 e-07": 0, "x": 0}
        assert "-5" not in index.texts
        for question in ["points of -5", "points of -inf", "points of 100000000000000000000",
                         "points of 1.5e-07"]:
            tq = T.recognize(question, table.header, table=table, mode="content")
            assert tq.display_tags(table.header)[2:] == ["points"] * (len(tq.tokens) - 2)

    def test_number_column_matches_by_value_however_spelled(self):
        table = Table(id="n", header=["pick", "rating"], types=["real", "real"],
                      rows=[[1, 3.5], [2, -0.5], [3.0, 7]])
        for question, tags in [("rating of 3.0", ["pick"]), ("rating of 2.0", ["pick"]),
                               ("rating of 3.50", ["rating"]), ("rating of 007", ["rating"]),
                               ("rating of -0.5", ["rating"] * 2)]:
            tq = T.recognize(question, table.header, table=table, mode="content")
            assert tq.display_tags(table.header) == ["column", "none", *tags], question

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


class TestQuestionNumbers:
    def test_distinct_numbers_in_order_then_signed_ones(self):
        tokens = ["-", "5", "3.0", "5", "x1", "007", "-", "0", "1e-05", "-", "3.0", "1_000"]
        assert list(T.question_numbers(tokens).items()) == [
            ("5", 5.0), ("3.0", 3.0), ("007", 7.0), ("0", 0.0), ("1e-05", 1e-05),
            ("- 5", -5.0), ("- 3.0", -3.0)]


class TestContentIndex:
    def test_a_table_keeps_its_index_from_its_second_tagging_on(self, monkeypatch):
        built = []
        content_index = T.content_index

        def counted(table):
            built.append(table.id)
            return content_index(table)

        monkeypatch.setattr(T, "content_index", counted)
        table = magazine_table()
        questions = ["who is mort drucker ?", "the issue 88.5", "star blecch of 203",
                     "what about al jaffee ?"]
        T.recognize(questions[0], table.header, table=table, mode="content")
        # tagged once: built for the question and dropped
        assert built == ["mag"] and not isinstance(table._content_index, T.ContentIndex)
        T.recognize(questions[1], table.header, table=table, mode="content")
        kept = table._content_index
        assert built == ["mag"] * 2 and isinstance(kept, T.ContentIndex)
        for question in questions:
            T.recognize(question, table.header, table=table, mode="content")
        assert built == ["mag"] * 2 and table._content_index is kept
        T.recognize(questions[0], table.header, table=table, mode="insensitive")
        assert built == ["mag"] * 2

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_every_tagging_of_one_table_matches_the_reference(self, data):
        table = data.draw(adversarial_tables())
        texts = sorted({cell_text(cell) for row in table.rows for cell in row} - {""})
        words = st.sampled_from(QUESTION_WORDS + texts)
        numbers = st.sampled_from(["1", "7", "-1", "-7.5", "88.5", "2004", "0"])
        for _ in range(data.draw(st.integers(3, 5))):
            question = data.draw(st.lists(words, min_size=0, max_size=7))
            question.insert(data.draw(st.integers(0, len(question))), data.draw(numbers))
            tokens = T.tokenize(" ".join(question))[0]
            got = T.tag_content(fresh(tokens), table)
            assert got.tags == reference_tag_content(fresh(tokens), table).tags, tokens
        assert isinstance(table._content_index, T.ContentIndex)


# Header words, cell texts, month names, ',' and number tokens, so that column, value,
# date, number and entity spans overlap and compete; whole date phrases make month-name
# dates frequent, also ones whose inner tokens an earlier pass has claimed.
RECOGNIZE_TABLE = Table(
    id="rec", header=["spoofed title", "artist", "issue", "year", "may", "No."],
    types=["text", "text", "real", "real", "text", "text"],
    rows=[["star blecch", "mort drucker", 88.5, 1999, "july 4 1999", "St. Louis"],
          ["the empire", "al jaffee", 203, 2100, "may", "pick #"],
          ["1e5", "new york", 7, 12, "july", "o'brien"],
          ["mad", "-12", -7, -1999, "june", "-7"]],
)
RECOGNIZE_WORDS = (
    RECOGNIZE_TABLE.header
    + sorted({cell_text(cell) for row in RECOGNIZE_TABLE.rows for cell in row})
    + ["spoofed", "title", "star", "mort", "drucker", "new", "france", "of", "the"]
    + ["no", ".", "st", "louis", "o", "'", "brien", "pick", "#", "o'brien", "st. louis"]
    + ["january", "may", "july", "december", ","]
    + ["december 12 1999", "may 31 , 2101", "january 32 1999", "june 0 2000",
       "july 1 ١٩٩٩", "july 007 1299", "july 4 , 19999"]
    + ["١٢", "١٩٩٩", "1e5", "007", "1e400", "2100", "2101", "1299", "1999", "1998",
       "88.5", "203", "7", "1", "4", "12", "31", "32", "0", "01999", "1e-5", "1_000",
       "-", "-7", "-12", "-1999", "- 88.5",
       "1999-07-01", "12-31-1999", "١٩٩٩-٠٧-٠١", "9" * 400]
)
RECOGNIZE_GAZETTEER = Gazetteer([
    ("mort drucker", "person"), ("al jaffee", "person"), ("new york", "place"),
    ("france", "country"), ("may", "person"), ("july 4", "sport"), ("star", "organization"),
    ("O'Brien", "person"), ("st. louis", "place"), ("no. 7", "sport"),
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
        assert len(tq.tokens) == len(tq.tags)
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

