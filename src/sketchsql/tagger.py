"""Type recognition: give every question token exactly one type tag.

Four passes in priority order tag n-gram spans: schema column names, cell values
(content mode only), dates and the numbers `tables.parse_number` reads, and a
gazetteer of named entities. Each pass picks its matching spans by looking their
texts up, then claims them greedily, longest first then leftmost, never retagging a
token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .tables import (Table, cell_text, column_numbers, distinct_text, normalize_text,
                     parse_number, text_lines)

NONE = "none"
COLUMN = "column"
INTEGER = "integer"
FLOAT = "float"
DATE = "date"
YEAR = "year"
PERSON = "person"
PLACE = "place"
COUNTRY = "country"
ORGANIZATION = "organization"
SPORT = "sport"
COLUMN_VALUE = "column_value"

BASE_TAGS = (NONE, COLUMN, INTEGER, FLOAT, DATE, YEAR, PERSON, PLACE, COUNTRY, ORGANIZATION, SPORT)
ENTITY_CATEGORIES = (PERSON, PLACE, COUNTRY, ORGANIZATION, SPORT)

# Resolution for keys filed under several categories; the more specific
# geographic category outranks the generic one.
CATEGORY_PRIORITY = (PERSON, COUNTRY, PLACE, ORGANIZATION, SPORT)

MAX_NGRAM = 6

YEAR_RANGE = (1300, 2100)

_TOKEN_RE = re.compile(r"\d+(?:\.\d+)+|\w+(?:-\w+)*|\S")
_ISO_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{1,2}-[0-9]{1,2}|[0-9]{1,2}-[0-9]{1,2}-[0-9]{4}")
_MONTH_DATE_RE = re.compile(r"(?:january|february|march|april|may|june|july|august|september"
                            r"|october|november|december) ([0-9]+) (?:, )?[0-9]{4}")
_DIGITS_RE = re.compile(r"[0-9]+")
_DIGIT_RE = re.compile(r"[0-9]")
# any character but a word character or a space, as is each that tokenize splits off
_NON_WORD_RE = re.compile(r"[^\w\s]")


@dataclass(frozen=True)
class TypeTag:
    """One tag; `column` is set only for content-mode cell-value tags."""

    kind: str
    column: int | None = None

    def __post_init__(self):
        if self.kind == COLUMN_VALUE:
            if self.column is None or self.column < 0:
                raise ValueError("column_value tag needs a column index")
        elif self.kind not in BASE_TAGS:
            raise ValueError(f"unknown tag kind {self.kind!r}")
        elif self.column is not None:
            raise ValueError(f"tag {self.kind!r} does not carry a column index")

    def display(self, header: list[str]) -> str:
        if self.kind == COLUMN_VALUE:
            return normalize_text(header[self.column])
        return self.kind


TAG_NONE = TypeTag(NONE)
TAG_COLUMN = TypeTag(COLUMN)


@dataclass
class TaggedQuestion:
    """Question tokens aligned one-to-one with tags; `spans` is span_texts(tokens), built
    when the question is made, for the four passes, and dropped when recognize returns."""

    tokens: list[str]
    tags: list[TypeTag]
    spans: tuple[tuple[int, int, str], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (len(self.tokens) == len(self.tags) >= 1):
            raise ValueError("tokens and tags must be parallel and non-empty")
        self.spans = span_texts(self.tokens)

    def display_tags(self, header: list[str]) -> list[str]:
        return [t.display(header) for t in self.tags]


class GazetteerError(ValueError):
    pass


class Gazetteer:
    """Lowercase multi-word keys mapped to one of the five entity categories."""

    def __init__(self, entries=None):
        self._entries: dict[str, str] = {}
        for key, category in entries or []:
            self.add(key, category)

    def add(self, key: str, category: str):
        if category not in ENTITY_CATEGORIES:
            raise GazetteerError(f"unknown entity category {category!r}")
        key = span_key(normalize_text(key))
        if not key:
            raise GazetteerError("empty gazetteer key")
        current = self._entries.get(key)
        if current is None or CATEGORY_PRIORITY.index(category) < CATEGORY_PRIORITY.index(current):
            self._entries[key] = category

    def get(self, key: str) -> str | None:
        """The category of a key already in span form (see span_key), as span texts are,
        or None."""
        return self._entries.get(key)

    @classmethod
    def from_tsv(cls, path) -> "Gazetteer":
        """Load `key<TAB>category` lines; unknown categories fail with the line number."""
        gaz = cls()
        for lineno, line in text_lines(path, GazetteerError):
            parts = line.split("\t")
            if len(parts) != 2:
                raise GazetteerError(f"{path}:{lineno}: expected 'key<TAB>category'")
            key, category = parts
            try:
                gaz.add(key, category.strip().lower())
            except GazetteerError as exc:
                raise GazetteerError(f"{path}:{lineno}: {exc}") from None
        return gaz


# ---------------------------------------------------------------------------
# Tokenization and span enumeration
# ---------------------------------------------------------------------------

def tokenize(question: str) -> tuple[list[str], list[tuple[int, int]]]:
    """Lowercase and split; '.' survives inside digits, '-' inside words."""
    if not question or not question.strip():  # else the \S of _TOKEN_RE finds a token
        raise ValueError("empty question")
    lowered = question.lower()
    tokens, spans = [], []
    for m in _TOKEN_RE.finditer(lowered):
        tokens.append(m.group(0))
        spans.append((m.start(), m.end()))
    return tokens, spans


def span_key(text: str) -> str:
    """The normalised text as a question spells it: its tokens joined by single spaces.
    A text of word characters and spaces only is that already and is not tokenized."""
    return " ".join(tokenize(text)[0]) if _NON_WORD_RE.search(text) else text


@lru_cache(maxsize=64)
def ngram_spans(t: int) -> tuple[tuple[int, int], ...]:
    """All (start, end) spans of length min(6, t) down to 1 over t tokens, longest first
    then leftmost; built once per question length."""
    return tuple((start, start + length)
                 for length in range(min(MAX_NGRAM, t), 0, -1)
                 for start in range(0, t - length + 1))


def span_texts(tokens: list[str]) -> tuple[tuple[int, int, str], ...]:
    """(start, end, text) of every span of ngram_spans(len(tokens)), in its walk order; a
    span's text is its tokens joined by single spaces."""
    line = " ".join(tokens)
    stops = list(accumulate(len(token) + 1 for token in tokens))  # one past each space
    starts = [0, *stops]
    return tuple((start, end, line[starts[start] : stops[end - 1] - 1])
                 for start, end in ngram_spans(len(tokens)))


def _claim(tq: TaggedQuestion, matches):
    """Greedy longest-first, leftmost tagging: each (start, end, tag) of matches, given in
    the walk order of span_texts, tags its span unless one of its tokens has a tag."""
    tags = tq.tags
    claimed = [tag.kind != NONE for tag in tags]
    for start, end, tag in matches:
        if True not in claimed[start:end]:
            tags[start:end] = [tag] * (end - start)
            claimed[start:end] = [True] * (end - start)


# ---------------------------------------------------------------------------
# Tagging passes
# ---------------------------------------------------------------------------

def tag_schema_columns(tq: TaggedQuestion, header: list[str]) -> TaggedQuestion:
    """Tag every span that spells a column name as COLUMN."""
    if not header:
        raise ValueError("schema has no columns")
    names = {span_key(normalize_text(name)) for name in header}
    _claim(tq, [(start, end, TAG_COLUMN) for start, end, text in tq.spans if text in names])
    return tq


def question_numbers(tokens: list[str]) -> dict[str, float]:
    """The numbers a question spells, each text with its value, in the order they first
    occur: every distinct token that `parse_number` reads, then every '-' token directly
    before such a token of a value above 0, as one negative number ('- 5' is -5)."""
    numbers = {}
    for token in dict.fromkeys(tokens):
        if token[-1:].isdigit():  # a number token ends in a digit, '1e-05' too
            value = parse_number(token)
            if value is not None:
                numbers[token] = value
    for sign, token in zip(tokens, tokens[1:]):
        if sign == "-" and numbers.get(token, 0) > 0:
            numbers[f"- {token}"] = -numbers[token]
    return numbers


class ContentIndex(NamedTuple):
    """What content tagging reads of a table whatever the question: `texts` maps the text
    of each cell of the columns that are not all numbers, keyed as a question spells it
    (`span_key`), to the lowest of them holding it; `number_columns` holds each all-number
    column's index and float64 array (`tables.column_numbers`), in column order."""

    texts: dict[str, int]
    number_columns: list[tuple[int, np.ndarray]]


def content_index(table: Table) -> ContentIndex:
    """Build the table's ContentIndex from its columns (`Table.columns`) as they are held,
    one at a time. An all-str column reads only its normalised distinct values
    (`tables.distinct_text`); any other column that is not all numbers (bools, None, mixed
    types, NaN, ints beyond float64) reads the `cell_text` of each cell but a None (JSON
    null), which is no value. Each non-empty text is keyed by its `span_key`: -5 as
    '- 5', 1.5e-07 as '1.5 e-07'."""
    texts: dict[str, int] = {}
    number_columns = []
    for col, column in enumerate(table.columns):
        floats = column_numbers(column)
        if floats is not None:
            number_columns.append((col, floats))
            continue
        distinct = distinct_text(column)
        cells = (map(normalize_text, distinct) if distinct is not None
                 else (cell_text(cell) for cell in column if cell is not None))
        for text in cells:
            if text:
                texts.setdefault(span_key(text), col)
    return ContentIndex(texts, number_columns)


def _table_index(table: Table) -> ContentIndex:
    """The table's ContentIndex: built afresh at its first content tagging, which leaves
    only a mark on the table, then built once more and kept on it (`Table._content_index`)
    from its second on, so a table tagged once keeps nothing."""
    kept = table._content_index
    if kept is None:
        table._content_index = False
        return content_index(table)
    if kept is False:
        kept = table._content_index = content_index(table)
    return kept


def tag_content(tq: TaggedQuestion, table: Table) -> TaggedQuestion:
    """Content mode: tag spans equal to a cell value with the lowest column holding it.

    The table's part is its ContentIndex (`content_index`), kept on the table from its
    second content tagging on. The question's part matches the question's numbers
    (`question_numbers`: '3.0', '007', '- 5') by value against the all-number columns,
    each against a column's float64 array in one vectorised op, and looks every span
    text up in the index's texts; a number matched both ways takes the lower column.
    Then the spans are claimed.
    """
    texts, number_columns = _table_index(table)
    found = {}
    for text, value in question_numbers(tq.tokens).items():
        for col, floats in number_columns:
            if (floats == value).any():
                found[text] = min(col, texts.get(text, col))
                break
    _claim(tq, [(start, end, TypeTag(COLUMN_VALUE, column=found.get(text, texts.get(text))))
                for start, end, text in tq.spans if text in texts or text in found])
    return tq


def _number_tag(text: str) -> TypeTag | None:
    """A date ('july 4 1999', 'july 4 , 1999', '1999-07-04'), or a token `parse_number`
    reads: a year (four digits in YEAR_RANGE), an integer (digits only) or a float. A '-'
    token and such a token of a value above 0 are one negative number ('- 4'), an integer
    or a float by its digits, never a year."""
    month_date = _MONTH_DATE_RE.fullmatch(text)
    # float() reads any run of ASCII digits, however long, without raising
    if month_date and 1 <= float(month_date[1]) <= 31 or _ISO_DATE_RE.fullmatch(text):
        return TypeTag(DATE)
    signed = text[:2] == "- "
    number = text[2:] if signed else text
    value = parse_number(number)  # None for any text with an inner space
    if value is None or signed and value <= 0:
        return None
    if not _DIGITS_RE.fullmatch(number):
        return TypeTag(FLOAT)
    return TypeTag(YEAR if not signed and len(number) == 4
                   and YEAR_RANGE[0] <= value <= YEAR_RANGE[1] else INTEGER)


def tag_numbers(tq: TaggedQuestion) -> TaggedQuestion:
    """Classify untagged number and date spans. Every one holds an ASCII digit, so only
    the spans over a token with a digit are read."""
    digits = [_DIGIT_RE.search(token) is not None for token in tq.tokens]
    if True in digits:
        tagged = ((start, end, _number_tag(text))
                  for start, end, text in tq.spans
                  if True in digits[start:end])
        _claim(tq, [(start, end, tag) for start, end, tag in tagged if tag is not None])
    return tq


def tag_entities(tq: TaggedQuestion, gazetteer: Gazetteer) -> TaggedQuestion:
    """Tag untagged spans found in the gazetteer with their entity category. A span's
    text is already in the gazetteer's key form (see span_key), so it is looked up as it
    stands."""
    found = ((start, end, gazetteer.get(text)) for start, end, text in tq.spans)
    _claim(tq, [(start, end, TypeTag(category)) for start, end, category in found
                if category is not None])
    return tq


MODES = ("insensitive", "content")


def recognize(question: str, header: list[str], table: Table | None = None,
              mode: str = "insensitive", gazetteer: Gazetteer | None = None) -> TaggedQuestion:
    """Full tagging pipeline: columns, then cell values (content mode), numbers, entities."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode == "content" and table is None:
        raise ValueError("content mode needs the table rows")
    tokens = tokenize(question)[0]
    tq = TaggedQuestion(tokens=tokens, tags=[TAG_NONE] * len(tokens))
    tag_schema_columns(tq, header)
    if mode == "content":
        tag_content(tq, table)
    tag_numbers(tq)
    if gazetteer is not None:
        tag_entities(tq, gazetteer)
    del tq.spans  # read by the passes only; a kept question holds its tokens and tags
    return tq
