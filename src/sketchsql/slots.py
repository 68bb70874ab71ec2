"""Slot predictors over the encoded question and columns.

Three models fill the sketch slots: the column model (select column,
condition count, condition columns), the aggregator model, and the
operator/value model (comparison operator plus a pointer decoder that
copies the condition value out of the question). Each model owns its own
question and column bi-LSTMs (six in total) and its own attention matrix;
all predictors inside one model share that model's encoders.
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


def column_attention(H_qt: K.Tensor, H_col: K.Tensor, W_ct: K.Tensor) -> AttentionResult:
    """Per-column softmax over question positions and the weighted summary."""
    scores = K.matmul(K.matmul(H_col, W_ct), K.transpose(H_qt))
    alpha = K.softmax_rows(scores)
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
    """(1, C) logits for the select column."""
    hidden = K.tanh(K.add(K.linear(H_col, head.Wc), K.linear(H_qt_col, head.Wqt)))
    return K.transpose(K.linear(hidden, head.V))


def cond_number_scores(H_qt_col: K.Tensor, head: CondNumHead) -> K.Tensor:
    """(1, 5) logits for the number of conditions, from the column-summed summary."""
    pooled = K.sum_over_rows(H_qt_col)
    return K.linear(K.tanh(K.linear(pooled, head.Wqt)), head.V)


def cond_col_scores(H_qt_col: K.Tensor, H_col: K.Tensor, H_qt_scol: K.Tensor,
                    head: CondColHead) -> K.Tensor:
    """(1, C) logits for condition columns, conditioned on the chosen select column."""
    hidden = K.tanh(K.add(K.add(K.linear(H_col, head.Wc), K.linear(H_qt_col, head.Wqt)),
                          K.linear(H_qt_scol, head.Wscol)))
    return K.transpose(K.linear(hidden, head.V))


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
    """(1, 6) logits over [none, max, min, count, sum, avg]."""
    return K.linear(K.tanh(K.linear(h_qt_scol, head.Wqt)), head.V)


def op_scores(h_qt_col: K.Tensor, h_col: K.Tensor, head: OpHead) -> K.Tensor:
    """(1, 3) logits over [=, >, <] for one condition column."""
    return K.linear(K.tanh(K.add(K.linear(h_col, head.Wc), K.linear(h_qt_col, head.Wqt))), head.Wt)


# ---------------------------------------------------------------------------
# Pointer decoder for condition values
# ---------------------------------------------------------------------------

def pointer_context(vp: ValPointer, H_qt: K.Tensor, h_col: K.Tensor) -> K.Tensor:
    """Decode-invariant part of the pointer scores, (T+1, d).

    Row T comes from the learned end state, so logit index T means 'stop'.
    """
    H_qt_ext = K.concat_rows([H_qt, vp.end])
    return K.add(K.linear(H_qt_ext, vp.Wqt), K.linear(h_col, vp.Wc))


def pointer_step(vp: ValPointer, context: K.Tensor, h_dec: K.Tensor) -> K.Tensor:
    """(1, T+1) logits for the next token, given the decoder state after reading its input."""
    hidden = K.tanh(K.add(context, K.linear(h_dec, vp.Wh)))
    return K.transpose(K.linear(hidden, vp.V))


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

class BiLstm:
    """Forward+backward LSTM weights registered under a common name prefix."""

    def __init__(self, store: K.ParamStore, prefix: str, d_in: int, hidden: int):
        self.fw = _lstm_weights(store, f"{prefix}.fw", d_in, hidden)
        self.bw = _lstm_weights(store, f"{prefix}.bw", d_in, hidden)


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

    def __init__(self, store: K.ParamStore, emb: EmbeddingStore, width: int = 120,
                 mode: str = "insensitive", type_dim: int | None = None,
                 dropout: float = 0.3, decoder_max_len: int = 20):
        if width % 2 != 0:
            raise ValueError("bidirectional width must be even")
        self.emb = emb
        self.mode = mode
        self.dropout = dropout
        self.decoder_max_len = decoder_max_len
        self.type_dim = emb.dim if mode == "content" else (30 if type_dim is None else type_dim)
        self.d_in = emb.dim + self.type_dim
        h = width // 2

        self.type_table = store.add("emb.type", len(BASE_TAGS), self.type_dim)
        self.encoders = {}
        self.attention = {}
        for name in MODEL_NAMES:
            self.encoders[name] = (BiLstm(store, f"{name}.qt", self.d_in, h),
                                   BiLstm(store, f"{name}.col", emb.dim, h))
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
            dec=K.LstmWeights(
                Wx=store.add("opval.val.dec.Wx", 4 * width, self.d_in),
                Wh=store.add("opval.val.dec.Wh", 4 * width, width),
                b=store.add("opval.val.dec.b", 1, 4 * width, init="zeros")),
            start=store.add("opval.val.start", 1, self.d_in),
            end=store.add("opval.val.end", 1, width))

    # -- input construction ------------------------------------------------

    def question_parts(self, tq: TaggedQuestion, header: list[str]):
        """Numpy pieces of the question input, cacheable per example."""
        word = np.stack([self.emb.word_vec(tok) for tok in tq.tokens])
        indices = []
        const = np.zeros((len(tq.tokens), self.type_dim))
        for t, tag in enumerate(tq.tags):
            if tag.kind == COLUMN_VALUE:
                vec = column_name_vector(header[tag.column], self.emb)
                if vec.size != self.type_dim:
                    raise ValueError("content mode needs type width == word width")
                indices.append(-1)
                const[t] = vec
            else:
                indices.append(TYPE_INDEX[tag.kind])
        return word, indices, const

    def column_matrix(self, header: list[str]) -> np.ndarray:
        """(C, d_w) averaged column-name vectors, one row per column in schema order."""
        if not header:
            raise ValueError("empty schema")
        return np.stack([column_name_vector(name, self.emb) for name in header])

    def question_input(self, word: np.ndarray, indices, const: np.ndarray) -> K.Tensor:
        type_part = K.add(K.embed_rows(self.type_table, indices), K.constant(const))
        return K.concat_cols(K.constant(word), type_part)

    # -- encoding ----------------------------------------------------------

    def encode(self, which: str, q_input: K.Tensor, col_input: K.Tensor,
               training: bool = False, rng: np.random.Generator | None = None):
        """(H_qt, H_col) for one of the three models, with output dropout."""
        qt, col = self.encoders[which]
        H_qt = K.bilstm_encode(q_input, qt.fw, qt.bw)
        H_col = K.bilstm_encode(col_input, col.fw, col.bw)
        if training and self.dropout > 0:
            H_qt = K.dropout(H_qt, self.dropout, rng)
            H_col = K.dropout(H_col, self.dropout, rng)
        return H_qt, H_col

    def attend(self, which: str, H_qt: K.Tensor, H_col: K.Tensor,
               training: bool = False, rng: np.random.Generator | None = None) -> K.Tensor:
        """Attention-weighted question summary per column, with dropout."""
        att = column_attention(H_qt, H_col, self.attention[which])
        H_qt_col = att.H_qt_col
        if training and self.dropout > 0:
            H_qt_col = K.dropout(H_qt_col, self.dropout, rng)
        return H_qt_col

    def read(self, which: str, q_parts, col_matrix: np.ndarray,
             training: bool = False, rng: np.random.Generator | None = None):
        """(q_in, H_qt, H_col, H_qt_col) for one model. Each model builds its own q_in:
        one shared q_in would sum the type-table gradient in another order."""
        q_in = self.question_input(*q_parts)
        H_qt, H_col = self.encode(which, q_in, K.constant(col_matrix), training, rng)
        return q_in, H_qt, H_col, self.attend(which, H_qt, H_col, training, rng)

    # -- inference ---------------------------------------------------------

    def predict_slots(self, tq: TaggedQuestion, header: list[str]) -> SlotPrediction:
        """Greedy slot filling; conditioned slots consume predicted antecedents."""
        with K.no_grad():
            q_parts = self.question_parts(tq, header)
            col_matrix = self.column_matrix(header)

            _, _, H_col, H_qt_col = self.read("col", q_parts, col_matrix)
            # argmax over logits: softmax is monotonic, so it would pick the same index
            sel = int(np.argmax(select_scores(H_qt_col, H_col, self.select_head).data[0]))
            count = int(np.argmax(cond_number_scores(H_qt_col, self.cond_num_head).data[0]))
            count = min(count, len(header))
            H_qt_scol = K.tile_rows(K.row(H_qt_col, sel), len(header))
            cond_cols = predict_cond_cols(H_qt_col, H_col, H_qt_scol, self.cond_col_head, count)

            _, _, _, H_qt_col_a = self.read("agg", q_parts, col_matrix)
            agg = int(np.argmax(agg_scores(K.row(H_qt_col_a, sel), self.agg_head).data[0]))

            ops: list[int] = []
            spans: list[list[int]] = []
            if cond_cols:
                q_in, H_qt, H_col, H_qt_col = self.read("opval", q_parts, col_matrix)
                for col in cond_cols:
                    h_col = K.row(H_col, col)
                    op = op_scores(K.row(H_qt_col, col), h_col, self.op_head)
                    ops.append(int(np.argmax(op.data[0])))
                    spans.append(decode_cond_val(H_qt, q_in, h_col, self.val_pointer,
                                                 self.decoder_max_len))
            return SlotPrediction(select_col=sel, agg=agg, cond_count=len(cond_cols),
                                  cond_cols=cond_cols, cond_ops=ops, cond_val_spans=spans)
