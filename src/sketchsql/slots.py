"""Slot predictors over the encoded question and columns.

Three models fill the sketch slots: the column model (select column,
condition count, condition columns), the aggregator model, and the
operator/value model (comparison operator plus a pointer decoder that
copies the condition value out of the question). Each model owns its own
question and column bi-LSTMs (six in total) and its own attention matrix;
all predictors inside one model share that model's encoders.

The read path and the score heads work on a minibatch: its questions'
rows stacked (sum of T, .), its tables' column rows stacked (sum of C, .),
plus the segment lengths. Inference is the batch of one; greedy decoding
runs one condition at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernel as K
from .encoder import TYPE_INDEX, EmbeddingStore, column_name_vector
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
                      head: CondColHead, k: int) -> list[int]:
    """Top-k condition columns by probability; ties break toward lower index."""
    n_cols = H_col.shape[0]
    if not 0 <= k <= MAX_CONDITIONS:
        raise ValueError(f"k={k} outside 0..{MAX_CONDITIONS}")
    if k > n_cols:
        raise ValueError(f"k={k} exceeds {n_cols} columns")
    if k == 0:
        return []
    probs = K.softmax_rows(cond_col_scores(H_qt_col, H_col, H_qt_scol, head)).data[0]
    return sorted(range(n_cols), key=lambda i: (-probs[i], i))[:k]


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


def pointer_step(vp: ValPointer, context: K.Tensor, h_dec: K.Tensor) -> K.Tensor:
    """(1, T+1) logits for the next token, given the decoder state after reading its input
    (one row for every context row, or one row for all)."""
    hidden = K.tanh(K.add(context, K.linear(h_dec, vp.Wh)))
    return K.linear(vp.V, hidden)


def decode_cond_val(H_qt: K.Tensor, q_input: K.Tensor, h_col: K.Tensor,
                    vp: ValPointer, max_len: int = 20) -> list[int]:
    """Greedy span extraction: emit question-token indices until end wins."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    t_len = H_qt.shape[0]
    context = pointer_context(vp, H_qt, h_col)
    zeros = K.constant(np.zeros((1, vp.dec.hidden)))
    h, c, x = zeros, zeros, vp.start
    emitted: list[int] = []
    while len(emitted) < max_len:
        h, c = K.lstm_step(x, h, c, vp.dec)
        choice = int(np.argmax(pointer_step(vp, context, h).data[0]))
        if choice == t_len:
            break
        emitted.append(choice)
        x = K.row(q_input, choice)
    return emitted


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


class SketchModel:
    """Parameter registration and shared forward plumbing for all slots.

    `width` is the bidirectional output width 2h; each direction uses h.
    In content mode the trainable type width must equal the word width
    because cell-value tags substitute averaged column-name word vectors.
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
        word = np.stack([self.emb.word_vec(tok) for tok in tq.tokens])
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
        return np.stack([column_name_vector(name, self.emb) for name in header])

    def question_input(self, word: np.ndarray, indices, const: np.ndarray) -> K.Tensor:
        type_part = K.add(K.gather_rows(self.type_table, indices), K.constant(const))
        return K.concat_cols(K.constant(word), type_part)

    # -- encoding ----------------------------------------------------------

    def encode(self, which: tuple[str, ...], q_input: K.Tensor, col_input: K.Tensor,
               q_lens=None, c_lens=None, training: bool = False,
               rng: np.random.Generator | None = None):
        """[(H_qt, H_col)] per named model, with output dropout. The named models'
        question bi-LSTMs run as one grouped scan over every question of the batch
        (lengths q_lens), their column bi-LSTMs as another (lengths c_lens)."""
        flags = [False, True] * len(which)
        H_q = K.lstm_sequence(q_input, [d for m in which for d in self.encoders[m][0]], flags,
                              q_lens)
        H_c = K.lstm_sequence(col_input, [d for m in which for d in self.encoders[m][1]], flags,
                              c_lens)
        width = H_q.shape[1] // len(which)
        out = []
        for i in range(len(which)):
            H_qt, H_col = (K.cols(H, i * width, (i + 1) * width) for H in (H_q, H_c))
            if training and self.dropout > 0:
                H_qt = K.dropout(H_qt, self.dropout, rng)
                H_col = K.dropout(H_col, self.dropout, rng)
            out.append((H_qt, H_col))
        return out

    def attend(self, which: str, H_qt: K.Tensor, H_col: K.Tensor, mask=None,
               training: bool = False, rng: np.random.Generator | None = None) -> K.Tensor:
        """Attention-weighted question summary per column, with dropout."""
        att = column_attention(H_qt, H_col, self.attention[which], mask)
        H_qt_col = att.H_qt_col
        if training and self.dropout > 0:
            H_qt_col = K.dropout(H_qt_col, self.dropout, rng)
        return H_qt_col

    def read(self, which: tuple[str, ...], q_parts, col_matrix: np.ndarray,
             q_lens=None, c_lens=None, training: bool = False,
             rng: np.random.Generator | None = None):
        """[(q_in, H_qt, H_col, H_qt_col)] per named model, from one q_in, for a batch of
        stacked questions and columns with lengths q_lens and c_lens (default: one)."""
        q_in = self.question_input(*q_parts)
        encoded = self.encode(which, q_in, K.constant(col_matrix), q_lens, c_lens, training, rng)
        mask = None if q_lens is None else block_mask(c_lens, q_lens)
        return [(q_in, H_qt, H_col, self.attend(name, H_qt, H_col, mask, training, rng))
                for name, (H_qt, H_col) in zip(which, encoded)]

    # -- inference ---------------------------------------------------------

    def predict_slots(self, tq: TaggedQuestion, header: list[str]) -> SlotPrediction:
        """Greedy slot filling; conditioned slots consume predicted antecedents."""
        with K.no_grad():
            col_matrix = self.column_matrix(header)
            q_parts = self.question_parts(tq, col_matrix)

            col_read, agg_read, opval_read = self.read(MODEL_NAMES, q_parts, col_matrix)
            _, _, H_col, H_qt_col = col_read
            # argmax over logits: softmax is monotonic, so it would pick the same index
            sel = int(np.argmax(select_scores(H_qt_col, H_col, self.select_head).data[0]))
            count = int(np.argmax(cond_number_scores(H_qt_col, self.cond_num_head).data[0]))
            count = min(count, len(header))
            H_qt_scol = K.gather_rows(H_qt_col, [sel] * len(header))
            cond_cols = predict_cond_cols(H_qt_col, H_col, H_qt_scol, self.cond_col_head, count)

            _, _, _, H_qt_col_a = agg_read
            agg = int(np.argmax(agg_scores(K.row(H_qt_col_a, sel), self.agg_head).data[0]))

            ops: list[int] = []
            spans: list[list[int]] = []
            q_in, H_qt, H_col, H_qt_col = opval_read
            for col in cond_cols:
                h_col = K.row(H_col, col)
                op = op_scores(K.row(H_qt_col, col), h_col, self.op_head)
                ops.append(int(np.argmax(op.data[0])))
                spans.append(decode_cond_val(H_qt, q_in, h_col, self.val_pointer,
                                             self.decoder_max_len))
            return SlotPrediction(select_col=sel, agg=agg, cond_count=len(cond_cols),
                                  cond_cols=cond_cols, cond_ops=ops, cond_val_spans=spans)
