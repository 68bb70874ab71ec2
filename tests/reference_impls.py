"""Independent reference implementations used as test oracles.

Deliberately naive and written without reference to the package's
executor, tagger or slot code: per-row loops, literal formula transcriptions.
The number oracle scans characters itself and uses `float()` only to
convert text the scan has accepted. The tagging oracle has its own span
walk, re-enumerating and re-checking every span on each pass, and tags
numbers token by token from left to right; it shares the package's
`tokenize`, `cell_text` and gazetteer lookup, and its content pass indexes
the whole table at once rather than column by column. The per-example
loss oracle shares the slot formulas and kernel ops and differs in how it
batches: one example, one model read, one decoder sequence and one
pointer step at a time. The embedding-file oracle parses every line with
`float()`, one line at a time.
"""

import math

import numpy as np

from sketchsql import kernel as K
from sketchsql import slots as S
from sketchsql.encoder import EmbeddingError
from sketchsql.harness import COND_COL_POS_WEIGHT
from sketchsql.tables import cell_text, text_lines
from sketchsql.tagger import TAG_NONE, TaggedQuestion, TypeTag, tokenize

DIGITS = "0123456789"


def _digits_from(text, i):
    """Index of the first non-ASCII-digit character at or after i."""
    while i < len(text) and text[i] in DIGITS:
        i += 1
    return i


def naive_is_number_text(text):
    """Character scan: sign? digits ('.' digits?)? exponent?, at least one mantissa digit."""
    i = 1 if text[:1] in ("+", "-") else 0
    whole = _digits_from(text, i)
    frac = whole
    if whole < len(text) and text[whole] == ".":
        frac = _digits_from(text, whole + 1)
    mantissa_digits = (whole - i) + max(frac - whole - 1, 0)
    if mantissa_digits == 0:
        return False
    if frac < len(text) and text[frac] in "eE":
        start = frac + 1
        if start < len(text) and text[start] in "+-":
            start += 1
        end = _digits_from(text, start)
        if end == start:
            return False
        frac = end
    return frac == len(text)


def naive_number(value):
    """The number grammar written out by hand: exact int or float cells, and text that
    the character scan accepts after trimming; finite values only."""
    if type(value) not in (int, float, str):
        return None
    if isinstance(value, str):
        text = value.strip()
        if not naive_is_number_text(text):
            return None
        num = float(text)  # only converts; the scan has already decided
    elif isinstance(value, int) and abs(value) >= 2 ** 1024 - 2 ** 970:
        return None  # rounds past the largest float64, (2 - 2**-52) * 2**1023
    else:
        num = float(value)
    return num if num - num == 0.0 else None  # inf - inf and nan - nan are nan


def naive_norm(s):
    return " ".join(str(s).strip().lower().split())


def reference_execute(query, table):
    """Brute-force interpreter: loop rows, apply each condition literally. A None cell is
    SQL's NULL: no condition holds on it, and COUNT and the aggregates skip it."""
    kept = []
    for row in table.rows:
        ok = True
        for col, op, val in query.conds:
            cell = row[col]
            cn, vn = naive_number(cell), naive_number(val)
            if cell is None:
                good = False
            elif op == 0:
                if cn is not None and vn is not None:
                    good = cn == vn
                else:
                    good = naive_norm(cell) == naive_norm(val)
            elif cn is None or vn is None:
                good = False
            elif op == 1:
                good = cn > vn
            else:
                good = cn < vn
            if not good:
                ok = False
                break
        if ok:
            kept.append(row)

    picked = [row[query.sel] for row in kept]
    if query.agg == 0:
        return ("rows", picked)
    picked = [cell for cell in picked if cell is not None]
    if query.agg == 3:  # COUNT
        return ("scalar", len(picked))
    if not picked:
        return ("empty", None)
    if query.agg in (4, 5):  # SUM / AVG
        if table.types[query.sel] != "real":
            return ("error", "non-numeric aggregate")
        nums = [naive_number(c) for c in picked]
        if any(n is None for n in nums):
            return ("error", "non-numeric aggregate")
        s = sum(nums)
        return ("scalar", s if query.agg == 4 else s / len(nums))
    if table.types[query.sel] == "real":
        nums = [naive_number(c) for c in picked]
        if any(n is None for n in nums):
            return ("error", "bad cell")
        return ("scalar", min(nums) if query.agg == 2 else max(nums))
    texts = [naive_norm(c) for c in picked]
    return ("scalar", min(texts) if query.agg == 2 else max(texts))


def reference_span_matches(tq, match_fn):
    """Every span longest first then leftmost, each re-checked token by token; match_fn
    gets the span's tokens."""
    t = len(tq.tokens)
    for length in range(min(6, t), 0, -1):
        for start in range(0, t - length + 1):
            end = start + length
            if any(tq.tags[i].kind != "none" for i in range(start, end)):
                continue
            tag = match_fn(tq.tokens[start:end])
            if tag is not None:
                for i in range(start, end):
                    tq.tags[i] = tag


def reference_key(text):
    """A text as a question spells it: the tokens of its normal form joined by single
    spaces, tokenized whatever characters it holds; "" for a blank text."""
    text = naive_norm(text)
    return " ".join(tokenize(text)[0]) if text else ""


def _spelled_number(span):
    """The value of a span that is one token naive_number reads, or '-' and such a token
    of a value above 0; else None."""
    if len(span) == 1:
        return naive_number(span[0])
    if len(span) == 2 and span[0] == "-":
        value = naive_number(span[1])
        if value is not None and value > 0:
            return -value
    return None


def reference_tag_content(tq, table):
    """Whole-table content tagging, the lowest column winning. A column whose cells are
    all finite ints or floats (not bools) matches a span that spells a number
    (`_spelled_number`) of a value equal to one of its cells. Any other column matches a
    span equal to the `reference_key` of the `cell_text` of one of its cells but a null."""
    n = len(table.header)
    all_numbers = [all(type(row[col]) in (int, float) and naive_number(row[col]) is not None
                       for row in table.rows) for col in range(n)]
    keys = {}
    for row in table.rows:
        for col, cell in enumerate(row):
            if cell is not None and not all_numbers[col]:
                keys.setdefault(reference_key(cell_text(cell)), set()).add(col)

    def match(span):
        cols = set(keys.get(" ".join(span), ()))
        value = _spelled_number(span)
        if value is not None:
            cols |= {col for row in table.rows for col, cell in enumerate(row)
                     if all_numbers[col] and naive_number(cell) == value}
        return TypeTag("column_value", column=min(cols)) if cols else None

    reference_span_matches(tq, match)
    return tq


MONTHS = ("january", "february", "march", "april", "may", "june", "july", "august",
          "september", "october", "november", "december")


def _all_digits(text, lengths=None):
    return (text != "" and all(ch in DIGITS for ch in text)
            and (lengths is None or len(text) in lengths))


def _naive_iso_date(token):
    parts = token.split("-")
    return len(parts) == 3 and (
        _all_digits(parts[0], (4,)) and _all_digits(parts[1], (1, 2))
        and _all_digits(parts[2], (1, 2))
        or _all_digits(parts[0], (1, 2)) and _all_digits(parts[1], (1, 2))
        and _all_digits(parts[2], (4,)))


def reference_tag_numbers(tq):
    """Left to right: a month-name date span if one starts here and is free, else the
    token alone as an ISO-like date, a year, an integer or a float."""
    tokens, tags = tq.tokens, tq.tags
    i = 0
    while i < len(tokens):
        if tags[i].kind != "none":
            i += 1
            continue
        span = 0
        rest = tokens[i + 1:]
        if tokens[i] in MONTHS and len(rest) >= 2 and _all_digits(rest[0]) \
                and 1 <= int(rest[0]) <= 31:
            if _all_digits(rest[1], (4,)):
                span = 3
            elif len(rest) >= 3 and rest[1] == "," and _all_digits(rest[2], (4,)):
                span = 4
        if span and all(tags[j].kind == "none" for j in range(i, i + span)):
            for j in range(i, i + span):
                tags[j] = TypeTag("date")
            i += span
            continue
        token = tokens[i]
        after = tokens[i + 1] if i + 1 < len(tokens) else None
        if token == "-" and after is not None and tags[i + 1].kind == "none" \
                and (naive_number(after) or 0) > 0:
            # a sign and the number after it: one negative integer or float, never a year
            kind = "integer" if _all_digits(after) else "float"
            tags[i] = tags[i + 1] = TypeTag(kind)
            i += 2
            continue
        if _naive_iso_date(token):
            tags[i] = TypeTag("date")
        elif naive_number(token) is not None:
            if not _all_digits(token):
                tags[i] = TypeTag("float")
            elif len(token) == 4 and 1300 <= int(token) <= 2100:
                tags[i] = TypeTag("year")
            else:
                tags[i] = TypeTag("integer")
        i += 1
    return tq


def reference_recognize(question, header, table=None, mode="insensitive", gazetteer=None):
    """The four passes in order: columns, cell values (content mode), numbers, entities."""
    tokens = tokenize(question)[0]
    tq = TaggedQuestion(tokens=tokens, tags=[TAG_NONE] * len(tokens))
    names = {reference_key(name) for name in header}
    reference_span_matches(tq, lambda span: TypeTag("column") if " ".join(span) in names
                           else None)
    if mode == "content":
        reference_tag_content(tq, table)
    reference_tag_numbers(tq)
    if gazetteer is not None:
        def entity(span):
            category = gazetteer.get(" ".join(span))
            return TypeTag(category) if category is not None else None
        reference_span_matches(tq, entity)
    return tq


# ---------------------------------------------------------------------------
# Straight-line transcriptions of the slot formulas
# ---------------------------------------------------------------------------

def ref_softmax_vec(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def ref_column_attention(H_qt, H_col, W_ct):
    scores = H_col @ W_ct @ H_qt.T
    alpha = np.stack([ref_softmax_vec(r) for r in scores])
    return alpha, alpha @ H_qt


def ref_select(H_qt_col, H_col, Wc, Wqt, V):
    s = V @ np.tanh(Wc @ H_col.T + Wqt @ H_qt_col.T)
    return ref_softmax_vec(s[0])


def ref_cond_number(H_qt_col, Wqt, V):
    pooled = H_qt_col.T.sum(axis=1, keepdims=True)  # sum_i of column-wise rows
    s = V @ np.tanh(Wqt @ pooled)
    return ref_softmax_vec(s[:, 0])


def ref_cond_cols(H_qt_col, H_col, H_qt_scol, Wc, Wqt, Wscol, V):
    c = V @ np.tanh(Wc @ H_col.T + Wqt @ H_qt_col.T + Wscol @ H_qt_scol.T)
    return ref_softmax_vec(c[0])


def ref_agg(h_qt_scol, Wqt, V):
    s = V @ np.tanh(Wqt @ h_qt_scol.reshape(-1, 1))
    return ref_softmax_vec(s[:, 0])


def ref_op(h_qt_col, h_col, Wc, Wqt, Wt):
    s = Wt @ np.tanh(Wc @ h_col.reshape(-1, 1) + Wqt @ h_qt_col.reshape(-1, 1))
    return ref_softmax_vec(s[:, 0])


def ref_pointer_scores(H_qt_ext, h_col, h_dec, Wqt, Wc, Wh, V):
    v = V @ np.tanh(Wqt @ H_qt_ext.T + (Wc @ h_col.reshape(-1, 1)) + (Wh @ h_dec.reshape(-1, 1)))
    return v[0]


def ref_lstm_step(x, h, c, Wx, Wh, b):
    hid = h.size
    pre = Wx @ x + Wh @ h + b

    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    i, f = sig(pre[:hid]), sig(pre[hid:2 * hid])
    g, o = np.tanh(pre[2 * hid:3 * hid]), sig(pre[3 * hid:])
    c2 = f * c + i * g
    return o * np.tanh(c2), c2


# ---------------------------------------------------------------------------
# The training loss one example at a time
# ---------------------------------------------------------------------------

def reference_total_loss(model, prep):
    """One example's summed slot losses without dropout, from one read of the example as a
    batch of one, with one teacher-forced decoder sequence per located span and one
    pointer step per token. Returns the loss tensor and each slot's term as a float."""
    gold = prep.gold
    n_cols = prep.col_matrix.shape[0]
    terms = {slot: [] for slot in ("select", "count", "cond_cols", "agg", "op", "pointer")}

    col_read, agg_read, opval_read = model.read(*S.stack_inputs([(prep.q_parts,
                                                                  prep.col_matrix)]))
    _, _, H_col, H_qt_col = col_read
    terms["select"].append(K.cross_entropy(S.select_scores(H_qt_col, H_col, model.select_head),
                                           gold.sel))
    terms["count"].append(K.cross_entropy(S.cond_number_scores(H_qt_col, model.cond_num_head),
                                          len(gold.conds)))
    H_qt_scol = K.gather_rows(H_qt_col, [gold.sel] * n_cols)
    targets = np.zeros(n_cols)
    for col, _, _ in gold.conds:
        targets[col] = 1.0
    terms["cond_cols"].append(K.binary_cross_entropy(
        S.cond_col_scores(H_qt_col, H_col, H_qt_scol, model.cond_col_head),
        targets, pos_weight=COND_COL_POS_WEIGHT))

    terms["agg"].append(K.cross_entropy(
        S.agg_scores(K.gather_rows(agg_read[3], [gold.sel]), model.agg_head), gold.agg))

    q_in, H_qt, H_col, H_qt_col = opval_read
    t_len = len(prep.tq.tokens)
    vp = model.val_pointer
    for (col, op, _), span in zip(gold.conds, prep.gold_spans):
        h_col = K.gather_rows(H_col, [col])
        terms["op"].append(K.cross_entropy(
            S.op_scores(K.gather_rows(H_qt_col, [col]), h_col, model.op_head), op))
        if span is None:
            continue
        context = S.pointer_context(vp, H_qt, h_col)
        H_dec = K.lstm_sequence(
            K.concat_rows([vp.start] + [K.gather_rows(q_in, [t]) for t in span]), vp.dec)
        for step, target in enumerate(list(span) + [t_len]):
            terms["pointer"].append(K.cross_entropy(
                S.pointer_step(vp, context, K.gather_rows(H_dec, [step])), target))
    flat = [t for slot in terms.values() for t in slot]
    return (K.sum_all(K.concat_rows(flat)),
            {slot: sum(t.item() for t in parts) for slot, parts in terms.items()})


# ---------------------------------------------------------------------------
# Embedding files
# ---------------------------------------------------------------------------

def reference_load_embedding_file(path):
    """Parse one embedding text file line by line with float(); all lines must share a
    dimension."""
    vectors = {}
    dim = None
    for lineno, line in text_lines(path, EmbeddingError):
        parts = line.split(" ")
        if len(parts) < 2:
            raise EmbeddingError(f"{path}:{lineno}: expected 'token v1 .. vd'")
        token = parts[0]
        try:
            values = [float(x) for x in parts[1:]]
        except ValueError:
            raise EmbeddingError(f"{path}:{lineno}: non-numeric vector component") from None
        if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
            raise EmbeddingError(f"{path}:{lineno}: non-finite vector component")
        vec = np.array(values, dtype=np.float64)
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise EmbeddingError(
                f"{path}:{lineno}: dimension {vec.size} != {dim} from earlier lines")
        vectors[token] = vec
    if dim is None:
        raise EmbeddingError(f"{path}: no embedding entries")
    return vectors, dim
