"""Slot predictors over the encoded question and columns.

Three models fill the sketch slots: the column model (select column,
condition count, condition columns), the aggregator model, and the
operator/value model (comparison operator plus a pointer decoder that
copies the condition value out of the question). Each model owns its own
question and column bi-LSTMs (six in total) and its own attention matrix;
all predictors inside one model share that model's encoders.

The read path and the score heads work on a minibatch: its questions'
rows stacked (sum of T, .), its tables' column rows stacked (sum of C, .),
plus the segment lengths. Inference reads a batch the same way
(`SketchModel.predict_batch`; `predict_slots` is its batch of one) and
decodes every predicted condition's value greedily in one loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import kernel as K
from .encoder import TYPE_INDEX, EmbeddingStore, column_name_matrix
from .sketch import MAX_CONDITIONS
from .tagger import BASE_TAGS, COLUMN_VALUE, TaggedQuestion

N_AGGREGATORS = 6
N_OPERATORS = 3
N_COND_CLASSES = MAX_CONDITIONS + 1  # predicted condition count in 0..4


@dataclass
class SlotPrediction:
    """One filled set of sketch slots, still in index form."""

    select_col: int
    agg: int
    cond_count: int
    cond_cols: list[int] = field(default_factory=list)
    cond_ops: list[int] = field(default_factory=list)
    cond_val_spans: list[list[int]] = field(default_factory=list)

    def __post_init__(self):
        if not 0 <= self.cond_count <= MAX_CONDITIONS:
            raise ValueError(f"condition count {self.cond_count} outside 0..{MAX_CONDITIONS}")
        if not len(self.cond_cols) == len(self.cond_ops) == len(self.cond_val_spans) == self.cond_count:
            raise ValueError("condition lists must be parallel and match cond_count")
        if len(set(self.cond_cols)) != len(self.cond_cols):
            raise ValueError("duplicate condition columns")


@dataclass
class AttentionResult:
    alpha: K.Tensor      # (C, T), rows sum to 1
    H_qt_col: K.Tensor   # (C, 2h) = alpha @ H_qt


def block_mask(c_lens, q_lens) -> np.ndarray:
    """(sum of C, sum of T) mask pairing each example's columns with its own question
    positions only."""
    return np.repeat(np.repeat(np.eye(len(c_lens), dtype=bool), c_lens, axis=0), q_lens, axis=1)


def column_attention(H_qt: K.Tensor, H_col: K.Tensor, W_ct: K.Tensor,
                     mask: np.ndarray | None = None) -> AttentionResult:
    """Per-column softmax over question positions (those the mask allows) and the
    weighted summary."""
    scores = K.linear(K.matmul(H_col, W_ct), H_qt)
    alpha = K.softmax_rows(scores, mask)
    return AttentionResult(alpha=alpha, H_qt_col=K.matmul(alpha, H_qt))


# ---------------------------------------------------------------------------
# Classifier heads
# ---------------------------------------------------------------------------

@dataclass
class SelectHead:
    Wc: K.Tensor   # (d, 2h)
    Wqt: K.Tensor  # (d, 2h)
    V: K.Tensor    # (1, d)


@dataclass
class CondNumHead:
    Wqt: K.Tensor  # (d, 2h)
    V: K.Tensor    # (5, d)


@dataclass
class CondColHead:
    Wc: K.Tensor     # (d, 2h)
    Wqt: K.Tensor    # (d, 2h)
    Wscol: K.Tensor  # (d, 2h)
    V: K.Tensor      # (1, d)


@dataclass
class AggHead:
    Wqt: K.Tensor  # (d, 2h)
    V: K.Tensor    # (6, d)


@dataclass
class OpHead:
    Wc: K.Tensor   # (d, 2h)
    Wqt: K.Tensor  # (d, 2h)
    Wt: K.Tensor   # (3, d) -- a matrix, unlike the vector heads


@dataclass
class ValPointer:
    Wqt: K.Tensor    # (d, 2h)
    Wc: K.Tensor     # (d, 2h)
    Wh: K.Tensor     # (d, dec_hidden)
    V: K.Tensor      # (1, d)
    dec: K.LstmWeights
    start: K.Tensor  # (1, d_in) learned first decoder input
    end: K.Tensor    # (1, 2h) learned terminator state scored as position T


def select_scores(H_qt_col: K.Tensor, H_col: K.Tensor, head: SelectHead) -> K.Tensor:
    """(1, C) logits for the select column, one per stacked column row."""
    hidden = K.tanh(K.add(K.linear(H_col, head.Wc), K.linear(H_qt_col, head.Wqt)))
    return K.linear(head.V, hidden)


def cond_number_scores(H_qt_col: K.Tensor, head: CondNumHead, c_lens=None) -> K.Tensor:
    """(B, 5) logits for the number of conditions, from each example's column-summed
    summary; c_lens splits the stacked columns into examples (default: one)."""
    pooled = K.segment_sum(H_qt_col, c_lens)
    return K.linear(K.tanh(K.linear(pooled, head.Wqt)), head.V)


def cond_col_scores(H_qt_col: K.Tensor, H_col: K.Tensor, H_qt_scol: K.Tensor,
                    head: CondColHead) -> K.Tensor:
    """(1, C) logits for condition columns, conditioned on the chosen select column
    (H_qt_scol: its summary repeated on each of its example's column rows)."""
    hidden = K.tanh(K.add(K.add(K.linear(H_col, head.Wc), K.linear(H_qt_col, head.Wqt)),
                          K.linear(H_qt_scol, head.Wscol)))
    return K.linear(head.V, hidden)


def predict_cond_cols(H_qt_col: K.Tensor, H_col: K.Tensor, H_qt_scol: K.Tensor,
                      head: CondColHead, counts, c_lens) -> list[list[int]]:
    """Each example's top counts[i] condition columns by probability, ties toward the
    lower index; c_lens splits the stacked columns into examples."""
    if not any(counts):
        return [[] for _ in counts]
    logits = cond_col_scores(H_qt_col, H_col, H_qt_scol, head).data[0]
    out, at = [], 0
    for k, n_cols in zip(counts, c_lens):
        picked = []
        if k:
            probs = K.softmax_rows(K.constant(logits[at : at + n_cols])).data[0]
            picked = sorted(range(n_cols), key=lambda i: (-probs[i], i))[:k]
        out.append(picked)
        at += n_cols
    return out


def agg_scores(h_qt_scol: K.Tensor, head: AggHead) -> K.Tensor:
    """(B, 6) logits over [none, max, min, count, sum, avg], one row per select column."""
    return K.linear(K.tanh(K.linear(h_qt_scol, head.Wqt)), head.V)


def op_scores(h_qt_col: K.Tensor, h_col: K.Tensor, head: OpHead) -> K.Tensor:
    """(n, 3) logits over [=, >, <], one row per condition column."""
    return K.linear(K.tanh(K.add(K.linear(h_col, head.Wc), K.linear(h_qt_col, head.Wqt))), head.Wt)


# ---------------------------------------------------------------------------
# Pointer decoder for condition values
# ---------------------------------------------------------------------------

def pointer_context(vp: ValPointer, H_qt: K.Tensor, h_col: K.Tensor,
                    rows=None, cols=None) -> K.Tensor:
    """Decode-invariant part of the pointer scores, one row per scored position.

    Position t < T is question row t and position T the learned end state, so
    logit index T means 'stop'. Row m scores position rows[m] for condition column
    cols[m] of h_col; by default all T+1 positions for the first, (T+1, d).
    """
    if rows is None:
        rows, cols = np.arange(H_qt.shape[0] + 1), np.zeros(H_qt.shape[0] + 1, dtype=np.int64)
    positions = K.linear(K.concat_rows([H_qt, vp.end]), vp.Wqt)
    return K.add(K.gather_rows(positions, rows), K.gather_rows(K.linear(h_col, vp.Wc), cols))


def pointer_step(vp: ValPointer, context: K.Tensor, h_dec: K.Tensor, rows=None) -> K.Tensor:
    """(1, n) logits for the next token, one per context row, given the decoder states after
    reading their inputs: one row for every context row, or one row for all, or with `rows`
    one row per condition, rows[m] naming the state of context row m."""
    state = K.linear(h_dec, vp.Wh)
    if rows is not None:
        state = K.gather_rows(state, rows)
    return K.linear(vp.V, K.tanh(K.add(context, state)))


def _segment_argmax(z: np.ndarray, lengths: list[int]) -> list[int]:
    """First index of the maximum within each consecutive segment of the flat z."""
    return [int(z[end - n : end].argmax()) for n, end in zip(lengths, accumulate(lengths))]


def scored_rows(q_lens, owners) -> list[list[int]]:
    """Each condition's context rows in pointer_context's stacked [H_qt; end]: the rows of
    question owners[j] (of questions stacked with lengths q_lens), then the end state's
    row. Logit index t scores the condition's row t, so its last index means 'stop'."""
    bounds = [0, *accumulate(q_lens)]
    return [[*range(bounds[i], bounds[i + 1]), bounds[-1]] for i in owners]


def pointer_loss(H_qt: K.Tensor, q_in: K.Tensor, h_cols: K.Tensor, vp: ValPointer,
                 spans: list[list[int]], q_lens, owners) -> K.Tensor:
    """Pointer cross-entropy of every gold span (row j of h_cols, in question owners[j]),
    teacher-forced as one ragged decoder scan over [start, gold tokens...] per span; each
    decoder step scores its condition's scored_rows."""
    dec_rows, positions, conds, steps, targets, widths = [], [], [], [], [], []
    for j, (span, scored) in enumerate(zip(spans, scored_rows(q_lens, owners))):
        # row 0 of [start; q_in] is the start input, row 1 + r is stacked question row r
        dec_rows += [0] + [1 + scored[t] for t in span]
        for target in span + [len(scored) - 1]:  # the gold tokens, then the end
            positions += scored
            conds += [j] * len(scored)
            steps += [len(widths)] * len(scored)
            widths.append(len(scored))
            targets.append(target)
    dec_in = K.gather_rows(K.concat_rows([vp.start, q_in]), dec_rows)
    H_dec = K.lstm_sequence(dec_in, vp.dec, lengths=[len(span) + 1 for span in spans])
    context = pointer_context(vp, H_qt, h_cols, positions, conds)
    return K.cross_entropy(pointer_step(vp, context, K.gather_rows(H_dec, steps)),
                           targets, widths)


def decode_cond_vals(H_qt: K.Tensor, q_input: K.Tensor, h_cols: K.Tensor, vp: ValPointer,
                     max_len: int, q_lens, owners) -> list[list[int]]:
    """Greedy span extraction for a batch of conditions in one loop.

    Condition j (row j of h_cols) points into question owners[j] of the questions stacked
    in H_qt and q_input with lengths q_lens. Each step runs one lstm_step over the
    conditions still decoding and one pointer_step over their scored_rows; a condition
    leaves the loop when its end wins or after max_len tokens. Returns each condition's
    question-token indices.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    n = h_cols.shape[0]
    scored = scored_rows(q_lens, owners)
    context = pointer_context(vp, H_qt, h_cols, [r for rows in scored for r in rows],
                              np.repeat(np.arange(n), [len(rows) for rows in scored]))

    spans: list[list[int]] = [[] for _ in range(n)]
    live = list(range(n))
    h = c = K.constant(np.zeros((n, vp.dec.hidden)))
    x = K.gather_rows(vp.start, [0] * n)
    while True:
        h, c = K.lstm_step(x, h, c, vp.dec)
        widths = [len(scored[j]) for j in live]
        # one live condition's state broadcasts over its rows; several are gathered
        state_rows = None if len(live) == 1 else np.repeat(np.arange(len(live)), widths)
        choices = _segment_argmax(pointer_step(vp, context, h, state_rows).data[0], widths)
        kept = []
        for m, (j, choice) in enumerate(zip(live, choices)):
            if choice < len(scored[j]) - 1:  # a question token, not the end state
                spans[j].append(choice)
                if len(spans[j]) < max_len:
                    kept.append(m)
        if not kept:
            return spans
        if len(kept) < len(live):
            stays = np.zeros(len(live), dtype=bool)
            stays[kept] = True
            context = K.gather_rows(context, np.flatnonzero(np.repeat(stays, widths)))
            h, c = K.gather_rows(h, kept), K.gather_rows(c, kept)
            live = [live[m] for m in kept]
        x = K.gather_rows(q_input, [scored[j][spans[j][-1]] for j in live])


def decode_cond_val(H_qt: K.Tensor, q_input: K.Tensor, h_col: K.Tensor,
                    vp: ValPointer, max_len: int = 20) -> list[int]:
    """Greedy span extraction for one condition: question-token indices until end wins."""
    return decode_cond_vals(H_qt, q_input, h_col, vp, max_len, [H_qt.shape[0]], [0])[0]


# ---------------------------------------------------------------------------
# The three-model bundle
# ---------------------------------------------------------------------------

def _lstm_weights(store: K.ParamStore, prefix: str, d_in: int, hidden: int) -> K.LstmWeights:
    return K.LstmWeights(
        Wx=store.add(f"{prefix}.Wx", 4 * hidden, d_in),
        Wh=store.add(f"{prefix}.Wh", 4 * hidden, hidden),
        b=store.add(f"{prefix}.b", 1, 4 * hidden, init="zeros"),
    )


MODEL_NAMES = ("col", "agg", "opval")


def stack_inputs(inputs):
    """One batch from (question_parts, column_matrix) pairs: the stacked question parts,
    the stacked column rows, and each question's and table's row count."""
    q_lens = [len(parts[1]) for parts, _ in inputs]
    c_lens = [cols.shape[0] for _, cols in inputs]
    if len(inputs) == 1:
        return (*inputs[0], q_lens, c_lens)
    words, indices, consts = zip(*(parts for parts, _ in inputs))
    q_parts = (np.vstack(words), [i for idx in indices for i in idx], np.vstack(consts))
    return q_parts, np.vstack([cols for _, cols in inputs]), q_lens, c_lens


class SketchModel:
    """Parameter registration and shared forward plumbing for all slots.

    `width` is the bidirectional output width 2h; each direction uses h.
    In content mode the trainable type width is the word width, and any other
    `type_dim` is rejected, because cell-value tags substitute averaged
    column-name word vectors.
    """

    decoder_max_len = 20  # value tokens greedy decoding emits at most per condition

    def __init__(self, store: K.ParamStore, emb: EmbeddingStore, width: int = 120,
                 mode: str = "insensitive", type_dim: int | None = None,
                 dropout: float = 0.3):
        if width % 2 != 0:
            raise ValueError("bidirectional width must be even")
        self.emb = emb
        self.mode = mode
        self.dropout = dropout
        if mode == "content" and type_dim not in (None, emb.dim):
            raise ValueError(f"type_dim {type_dim} must equal the word width {emb.dim} "
                             "in content mode, or be null")
        self.type_dim = emb.dim if mode == "content" else (30 if type_dim is None else type_dim)
        self.d_in = emb.dim + self.type_dim
        h = width // 2

        self.type_table = store.add("emb.type", len(BASE_TAGS), self.type_dim)
        self.encoders = {}
        self.attention = {}
        for name in MODEL_NAMES:
            # (question, column) bi-LSTMs, each a [forward, backward] direction pair
            self.encoders[name] = tuple(
                [_lstm_weights(store, f"{name}.{part}.{d}", d_in, h) for d in ("fw", "bw")]
                for part, d_in in (("qt", self.d_in), ("col", emb.dim)))
            self.attention[name] = store.add(f"{name}.att.Wct", width, width)

        d = width
        self.select_head = SelectHead(
            Wc=store.add("col.sel.Wc", d, width),
            Wqt=store.add("col.sel.Wqt", d, width),
            V=store.add("col.sel.V", 1, d))
        self.cond_num_head = CondNumHead(
            Wqt=store.add("col.num.Wqt", d, width),
            V=store.add("col.num.V", N_COND_CLASSES, d))
        self.cond_col_head = CondColHead(
            Wc=store.add("col.cond.Wc", d, width),
            Wqt=store.add("col.cond.Wqt", d, width),
            Wscol=store.add("col.cond.Wscol", d, width),
            V=store.add("col.cond.V", 1, d))
        self.agg_head = AggHead(
            Wqt=store.add("agg.head.Wqt", d, width),
            V=store.add("agg.head.V", N_AGGREGATORS, d))
        self.op_head = OpHead(
            Wc=store.add("opval.op.Wc", d, width),
            Wqt=store.add("opval.op.Wqt", d, width),
            Wt=store.add("opval.op.Wt", N_OPERATORS, d))
        self.val_pointer = ValPointer(
            Wqt=store.add("opval.val.Wqt", d, width),
            Wc=store.add("opval.val.Wc", d, width),
            Wh=store.add("opval.val.Wh", d, width),
            V=store.add("opval.val.V", 1, d),
            dec=_lstm_weights(store, "opval.val.dec", self.d_in, width),
            start=store.add("opval.val.start", 1, self.d_in),
            end=store.add("opval.val.end", 1, width))

    # -- input construction ------------------------------------------------

    def question_parts(self, tq: TaggedQuestion, col_matrix: np.ndarray):
        """Numpy pieces of the question input, cacheable per example; a cell-value
        token's type vector is its column's row of col_matrix (see column_matrix)."""
        word = self.emb.stack(tq.tokens)
        indices = []
        const = np.zeros((len(tq.tokens), self.type_dim))
        for t, tag in enumerate(tq.tags):
            if tag.kind == COLUMN_VALUE:
                if col_matrix.shape[1] != self.type_dim:
                    raise ValueError("content mode needs type width == word width")
                indices.append(-1)
                const[t] = col_matrix[tag.column]
            else:
                indices.append(TYPE_INDEX[tag.kind])
        return word, indices, const

    def column_matrix(self, header: list[str]) -> np.ndarray:
        """(C, d_w) averaged column-name vectors, one row per column in schema order."""
        if not header:
            raise ValueError("empty schema")
        return column_name_matrix(header, self.emb)

    def question_input(self, word: np.ndarray, indices, const: np.ndarray) -> K.Tensor:
        type_part = K.add(K.gather_rows(self.type_table, indices), K.constant(const))
        return K.concat_cols(K.constant(word), type_part)

    # -- encoding ----------------------------------------------------------

    def encode(self, which: tuple[str, ...], q_input: K.Tensor, col_input: K.Tensor,
               q_lens=None, c_lens=None, rng: np.random.Generator | None = None):
        """[(H_qt, H_col)] per named model, with output dropout when an rng is passed. The
        named models' question and column bi-LSTMs run as one fused scan over every
        question (lengths q_lens) and every table (lengths c_lens) of the batch."""
        flags = [False, True] * len(which)
        q_dirs, c_dirs = ([d for m in which for d in self.encoders[m][part]] for part in (0, 1))
        H = K.lstm_sequence(q_input, q_dirs, flags, q_lens,
                            more=[(col_input, c_dirs, flags, c_lens)])
        n_q, n_rows = q_input.shape[0], H.shape[0]
        width = H.shape[1] // len(which)
        out = []
        for i in range(len(which)):
            j0, j1 = i * width, (i + 1) * width
            H_qt, H_col = K.block(H, 0, n_q, j0, j1), K.block(H, n_q, n_rows, j0, j1)
            if rng is not None:
                H_qt = K.dropout(H_qt, self.dropout, rng)
                H_col = K.dropout(H_col, self.dropout, rng)
            out.append((H_qt, H_col))
        return out

    def attend(self, which: str, H_qt: K.Tensor, H_col: K.Tensor, mask=None,
               rng: np.random.Generator | None = None) -> K.Tensor:
        """Attention-weighted question summary per column; an rng turns dropout on."""
        att = column_attention(H_qt, H_col, self.attention[which], mask)
        H_qt_col = att.H_qt_col
        if rng is not None:
            H_qt_col = K.dropout(H_qt_col, self.dropout, rng)
        return H_qt_col

    def read(self, which: tuple[str, ...], q_parts, col_matrix: np.ndarray,
             q_lens=None, c_lens=None, rng: np.random.Generator | None = None):
        """[(q_in, H_qt, H_col, H_qt_col)] per named model, from one q_in, for a batch of
        stacked questions and columns with lengths q_lens and c_lens (default: one)."""
        q_in = self.question_input(*q_parts)
        encoded = self.encode(which, q_in, K.constant(col_matrix), q_lens, c_lens, rng)
        mask = None if q_lens is None or len(q_lens) == 1 else block_mask(c_lens, q_lens)
        return [(q_in, H_qt, H_col, self.attend(name, H_qt, H_col, mask, rng))
                for name, (H_qt, H_col) in zip(which, encoded)]

    # -- inference ---------------------------------------------------------

    def predict_slots(self, tq: TaggedQuestion, header: list[str]) -> SlotPrediction:
        """Greedy slot filling for one question: the batch of one of predict_batch."""
        col_matrix = self.column_matrix(header)
        return self.predict_batch([(self.question_parts(tq, col_matrix), col_matrix)])[0]

    def predict_batch(self, inputs) -> list[SlotPrediction]:
        """Greedy slot filling for a batch of (question_parts, column_matrix) pairs.

        One read covers the batch. Each head runs once over its stacked rows, with one
        argmax per example; conditioned slots consume predicted antecedents. The op head
        runs once over every chosen condition, and one loop decodes all their values.
        """
        with K.no_grad():
            q_parts, col_matrix, q_lens, c_lens = stack_inputs(inputs)
            c_at = np.cumsum(c_lens) - c_lens
            col_read, agg_read, opval_read = self.read(MODEL_NAMES, q_parts, col_matrix,
                                                       q_lens, c_lens)
            _, _, H_col, H_qt_col = col_read
            # argmax over logits: softmax is monotonic, so it would pick the same index
            sels = _segment_argmax(select_scores(H_qt_col, H_col, self.select_head).data[0],
                                  c_lens)
            counts = cond_number_scores(H_qt_col, self.cond_num_head, c_lens).data.argmax(axis=1)
            counts = counts.tolist()  # predict_cond_cols keeps at most n_cols of each
            sel_rows = c_at + sels
            H_qt_scol = K.gather_rows(H_qt_col, np.repeat(sel_rows, c_lens))
            cond_cols = predict_cond_cols(H_qt_col, H_col, H_qt_scol, self.cond_col_head, counts,
                                          c_lens)

            aggs = agg_scores(K.gather_rows(agg_read[3], sel_rows), self.agg_head)
            aggs = aggs.data.argmax(axis=1)

            owners = [i for i, cols in enumerate(cond_cols) for _ in cols]
            rows = [c_at[i] + col for i, cols in enumerate(cond_cols) for col in cols]
            ops: list[int] = []
            spans: list[list[int]] = []
            if rows:
                q_in, H_qt, H_col, H_qt_col = opval_read
                h_cols = K.gather_rows(H_col, rows)
                op = op_scores(K.gather_rows(H_qt_col, rows), h_cols, self.op_head)
                ops = op.data.argmax(axis=1).tolist()
                spans = decode_cond_vals(H_qt, q_in, h_cols, self.val_pointer,
                                         self.decoder_max_len, q_lens, owners)
            preds, at = [], 0
            for sel, agg, cols in zip(sels, aggs.tolist(), cond_cols):
                end = at + len(cols)
                preds.append(SlotPrediction(select_col=sel, agg=agg, cond_count=len(cols),
                                            cond_cols=cols, cond_ops=ops[at:end],
                                            cond_val_spans=spans[at:end]))
                at = end
            return preds
