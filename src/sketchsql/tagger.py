"""Type recognition: give every question token exactly one type tag.

Four passes in priority order tag n-gram spans: schema column names, cell values
(content mode only), dates and the numbers `tables.parse_number` reads, and a
gazetteer of named entities. Each pass picks its matching spans by looking their
texts up, then claims them greedily, longest first then leftmost, never retagging a
token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

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
    """Question tokens aligned one-to-one with tags and raw-text offsets."""

    tokens: list[str]
    tags: list[TypeTag]
    char_spans: list[tuple[int, int]]

    def __post_init__(self):
        if not (len(self.tokens) == len(self.tags) == len(self.char_spans) >= 1):
            raise ValueError("tokens, tags and char_spans must be parallel and non-empty")

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
        key = normalize_text(key)
        if not key:
            raise GazetteerError("empty gazetteer key")
        current = self._entries.get(key)
        if current is None or CATEGORY_PRIORITY.index(category) < CATEGORY_PRIORITY.index(current):
            self._entries[key] = category

    def get(self, key: str) -> str | None:
        """The category of a key already in normal form (see normalize_text), as span
        texts are, or None."""
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
    if not question or not question.strip():
        raise ValueError("empty question")
    lowered = question.lower()
    tokens, spans = [], []
    for m in _TOKEN_RE.finditer(lowered):
        tokens.append(m.group(0))
        spans.append((m.start(), m.end()))
    if not tokens:
        raise ValueError("empty question")
    return tokens, spans


@lru_cache(maxsize=64)
def ngram_spans(t: int) -> tuple[tuple[int, int], ...]:
    """All (start, end) spans of length min(6, t) down to 1 over t tokens, longest first
    then leftmost; built once per question length."""
    return tuple((start, start + length)
                 for length in range(min(MAX_NGRAM, t), 0, -1)
                 for start in range(0, t - length + 1))


@lru_cache(maxsize=1)
def span_texts(tokens: tuple[str, ...]) -> tuple[tuple[int, int, str], ...]:
    """(start, end, text) of every span of ngram_spans(len(tokens)), in its walk order; a
    span's text is its tokens joined by single spaces. The four passes over a question
    share one build: the cache holds the last question's."""
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
    names = {normalize_text(name) for name in header}
    spans = span_texts(tuple(tq.tokens))
    _claim(tq, [(start, end, TAG_COLUMN) for start, end, text in spans if text in names])
    return tq


def _question_numbers(tokens: list[str]) -> dict[float, str]:
    """Single tokens that are the cell text of their own number, keyed by that number.

    A number's cell text never holds a space, so no longer span can equal one.
    """
    numbers = {}
    for token in set(tokens):
        value = parse_number(token)
        if value is not None and cell_text(value) == token:
            numbers[value] = token
    return numbers


def tag_content(tq: TaggedQuestion, table: Table) -> TaggedQuestion:
    """Content mode: tag spans equal to a cell value with that cell's column.

    The index maps each cell text to the lowest column holding it. It is
    built column by column: an int/float column of numbers
    (`tables.column_numbers`) is matched by value against the question's
    number tokens, and a plain-str column normalises only its distinct
    values (`tables.distinct_text`). Any other column (bools, None, mixed
    types, NaN, ints beyond float64) goes through `cell_text` cell by cell.
    """
    values: dict[str, int] = {}
    numbers = _question_numbers(tq.tokens)
    for col, column in enumerate(zip(*table.rows)):
        floats = column_numbers(column)
        if floats is not None:
            for value, token in numbers.items():
                if (floats == value).any():
                    values.setdefault(token, col)
            continue
        texts = distinct_text(column)
        if texts is not None:
            for text in map(normalize_text, texts):
                if text:
                    values.setdefault(text, col)
            continue
        for cell in column:
            text = cell_text(cell)
            if text:
                values.setdefault(text, col)

    spans = span_texts(tuple(tq.tokens))
    _claim(tq, [(start, end, TypeTag(COLUMN_VALUE, column=values[text]))
                for start, end, text in spans if text in values])
    return tq


def _number_tag(text: str) -> TypeTag | None:
    """A date ('july 4 1999', 'july 4 , 1999', '1999-07-04'), or a token `parse_number`
    reads: a year (four digits in YEAR_RANGE), an integer (digits only) or a float."""
    month_date = _MONTH_DATE_RE.fullmatch(text)
    # float() reads any run of ASCII digits, however long, without raising
    if month_date and 1 <= float(month_date[1]) <= 31 or _ISO_DATE_RE.fullmatch(text):
        return TypeTag(DATE)
    value = parse_number(text)
    if value is None:
        return None
    if not _DIGITS_RE.fullmatch(text):
        return TypeTag(FLOAT)
    return TypeTag(YEAR if len(text) == 4 and YEAR_RANGE[0] <= value <= YEAR_RANGE[1]
                   else INTEGER)


def tag_numbers(tq: TaggedQuestion) -> TaggedQuestion:
    """Classify untagged number and date spans. Every one holds an ASCII digit, so only
    the spans over a token with a digit are read."""
    digits = [_DIGIT_RE.search(token) is not None for token in tq.tokens]
    if True in digits:
        tagged = ((start, end, _number_tag(text))
                  for start, end, text in span_texts(tuple(tq.tokens))
                  if True in digits[start:end])
        _claim(tq, [(start, end, tag) for start, end, tag in tagged if tag is not None])
    return tq


def tag_entities(tq: TaggedQuestion, gazetteer: Gazetteer) -> TaggedQuestion:
    """Tag untagged spans found in the gazetteer with their entity category. The span
    texts of tokenize's tokens are already in normal form, so they are not normalised
    again."""
    spans = span_texts(tuple(tq.tokens))
    found = ((start, end, gazetteer.get(text)) for start, end, text in spans)
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
    tokens, spans = tokenize(question)
    tq = TaggedQuestion(tokens=tokens, tags=[TAG_NONE] * len(tokens), char_spans=spans)
    tag_schema_columns(tq, header)
    if mode == "content":
        tag_content(tq, table)
    tag_numbers(tq)
    if gazetteer is not None:
        tag_entities(tq, gazetteer)
    return tq
