"""Operational shell: dataset IO, loss composition, training, inference.

Datasets are JSON-lines. Examples carry a question, a table id, and the
gold query in index form; tables carry header, column kinds, and rows.
Training teacher-forces every conditioned slot on the gold antecedents
and sums the per-slot losses; inference feeds predicted antecedents.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import kernel as K
from . import slots as S
from .encoder import EmbeddingStore, load_embeddings
from .executor import Metrics, evaluate_dataset
from .sketch import SqlQuery, assemble
from .tables import Table
from .tagger import Gazetteer, TaggedQuestion, recognize, tokenize

COND_COL_POS_WEIGHT = 3.0  # positive-class weight for the condition-column BCE


@dataclass
class Example:
    question: str
    table_id: str
    gold: SqlQuery


class DatasetError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Dataset files
# ---------------------------------------------------------------------------

def _read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}:{lineno}: bad JSON ({exc.msg})") from None


def load_tables(path) -> dict[str, Table]:
    tables: dict[str, Table] = {}
    for lineno, rec in _read_jsonl(path):
        try:
            table = Table(id=str(rec["id"]), header=[str(h) for h in rec["header"]],
                          types=[str(t) for t in rec["types"]], rows=rec.get("rows", []))
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(f"{path}:{lineno}: {exc}") from None
        if table.id in tables:
            raise DatasetError(f"{path}:{lineno}: duplicate table id {table.id!r}")
        tables[table.id] = table
    return tables


def load_dataset(examples_path, tables_path) -> tuple[list[Example], dict[str, Table]]:
    """Load examples and tables; every example must reference a known table."""
    tables = load_tables(tables_path)
    examples: list[Example] = []
    for lineno, rec in _read_jsonl(examples_path):
        try:
            gold = SqlQuery.from_dict(rec["sql"])
            example = Example(question=str(rec["question"]), table_id=str(rec["table_id"]),
                              gold=gold)
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(f"{examples_path}:{lineno}: {exc}") from None
        table = tables.get(example.table_id)
        if table is None:
            raise DatasetError(f"{examples_path}:{lineno}: unknown table {example.table_id!r}")
        try:
            gold.validate_against(table.n_columns)
        except ValueError as exc:
            raise DatasetError(f"{examples_path}:{lineno}: {exc}") from None
        examples.append(example)
    return examples, tables


def write_examples(examples: list[Example], path):
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps({"question": ex.question, "table_id": ex.table_id,
                                 "sql": ex.gold.to_dict()}) + "\n")


def write_tables(tables, path):
    items = tables.values() if isinstance(tables, dict) else tables
    with open(path, "w", encoding="utf-8") as fh:
        for table in items:
            fh.write(json.dumps({"id": table.id, "header": table.header,
                                 "types": table.types, "rows": table.rows}) + "\n")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    hidden_width: int = 120          # bidirectional output width
    type_dim: int | None = None      # defaults to 30, or the word width in content mode
    dropout: float = 0.3
    batch_size: int = 64
    learning_rate: float = 1e-3
    epochs: int = 100
    seed: int = 0
    mode: str = "insensitive"
    embedding_paths: list[str] = field(default_factory=list)
    gazetteer_path: str | None = None
    train_path: str | None = None
    dev_path: str | None = None
    tables_path: str | None = None
    checkpoint_path: str | None = None
    eval_every: int = 1
    stop_at_train_qm: float | None = None
    decoder_max_len: int = 20

    def __post_init__(self):
        least = dict.fromkeys(("hidden_width", "batch_size", "epochs", "eval_every",
                               "decoder_max_len"), 1)
        least["seed"] = 0
        if self.type_dim is not None:  # None picks the mode's default width
            least["type_dim"] = 1
        for name, low in least.items():
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        for name in ("learning_rate", "dropout"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout!r}")
        if self.hidden_width % 2 != 0:
            raise ValueError("hidden_width must be even")
        if self.mode not in ("insensitive", "content"):
            raise ValueError(f"unknown mode {self.mode!r}")

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(f"{path}: unknown config keys {unknown}")
        return cls(**raw)


# ---------------------------------------------------------------------------
# Example preparation and loss
# ---------------------------------------------------------------------------

@dataclass
class PreparedExample:
    """Tagged question plus cached numpy inputs and located gold value spans."""

    tq: TaggedQuestion
    gold: SqlQuery
    q_parts: tuple  # (word, type indices, type constants) from SketchModel.question_parts
    col_matrix: np.ndarray
    gold_spans: list[list[int] | None] = field(default_factory=list)


def find_token_span(tokens: list[str], value: str) -> list[int] | None:
    """Indices of the first occurrence of the value's token sequence, else None."""
    try:
        needle = tokenize(value)[0]
    except ValueError:
        return None
    n = len(needle)
    for start in range(len(tokens) - n + 1):
        if tokens[start : start + n] == needle:
            return list(range(start, start + n))
    return None


def prepare_example(model: S.SketchModel, example: Example, table: Table,
                    gazetteer: Gazetteer | None = None) -> PreparedExample:
    tq = recognize(example.question, table.header,
                   table=table if model.mode == "content" else None,
                   mode=model.mode, gazetteer=gazetteer)
    spans = [find_token_span(tq.tokens, val) for _, _, val in example.gold.conds]
    return PreparedExample(tq=tq, gold=example.gold,
                           q_parts=model.question_parts(tq, table.header),
                           col_matrix=model.column_matrix(table.header), gold_spans=spans)


def total_loss(model: S.SketchModel, prep: PreparedExample, training: bool = True,
               rng: np.random.Generator | None = None) -> K.Tensor:
    """Sum of all slot losses for one example, teacher-forced on the gold query.

    Cross-entropy for the select column, condition count, aggregator, and
    each condition's operator; weighted per-column BCE for the condition
    columns; per-step pointer cross-entropy (gold span then the end token)
    for each condition value that occurs in the question.
    """
    gold = prep.gold
    n_cols = prep.col_matrix.shape[0]
    terms: list[K.Tensor] = []

    # column model: select column, condition count, condition columns
    _, _, H_col, H_qt_col = model.read("col", prep.q_parts, prep.col_matrix, training, rng)
    terms.append(K.cross_entropy(S.select_scores(H_qt_col, H_col, model.select_head), gold.sel))
    terms.append(K.cross_entropy(S.cond_number_scores(H_qt_col, model.cond_num_head),
                                 len(gold.conds)))
    H_qt_scol = K.tile_rows(K.row(H_qt_col, gold.sel), n_cols)
    targets = np.zeros(n_cols)
    for col, _, _ in gold.conds:
        targets[col] = 1.0
    terms.append(K.binary_cross_entropy(
        S.cond_col_scores(H_qt_col, H_col, H_qt_scol, model.cond_col_head),
        targets, pos_weight=COND_COL_POS_WEIGHT))

    # aggregator model, conditioned on the gold select column
    _, _, _, H_qt_col_a = model.read("agg", prep.q_parts, prep.col_matrix, training, rng)
    terms.append(K.cross_entropy(S.agg_scores(K.row(H_qt_col_a, gold.sel), model.agg_head),
                                 gold.agg))

    # operator/value model, one term pair per gold condition
    if gold.conds:
        q_in, H_qt, H_col, H_qt_col = model.read("opval", prep.q_parts, prep.col_matrix,
                                                 training, rng)
        t_len = len(prep.tq.tokens)
        for (col, op, _val), span in zip(gold.conds, prep.gold_spans):
            terms.append(K.cross_entropy(
                S.op_scores(K.row(H_qt_col, col), K.row(H_col, col), model.op_head), op))
            if span is None:
                continue  # value absent from the question; no pointer signal
            # teacher-forced decoder: the start input, then the gold tokens
            vp = model.val_pointer
            context = S.pointer_context(vp, H_qt, K.row(H_col, col))
            H_dec = K.lstm_sequence(K.concat_rows([vp.start] + [K.row(q_in, t) for t in span]),
                                    vp.dec)
            for step, target in enumerate(list(span) + [t_len]):
                terms.append(K.cross_entropy(S.pointer_step(vp, context, K.row(H_dec, step)),
                                             target))
    return K.sum_all(K.concat_rows(terms))


def predict(model: S.SketchModel, question: str, table: Table,
            gazetteer: Gazetteer | None = None) -> SqlQuery:
    """End-to-end inference: tag, encode, fill slots, assemble the query."""
    tq = recognize(question, table.header,
                   table=table if model.mode == "content" else None,
                   mode=model.mode, gazetteer=gazetteer)
    pred = model.predict_slots(tq, table.header)
    query = assemble(pred, tq.tokens)
    query.validate_against(table.n_columns)
    return query


def evaluate_model(model: S.SketchModel, examples: list[Example], tables: dict[str, Table],
                   gazetteer: Gazetteer | None = None) -> Metrics:
    preds = [predict(model, ex.question, tables[ex.table_id], gazetteer) for ex in examples]
    golds = [ex.gold for ex in examples]
    return evaluate_dataset(preds, golds, [ex.table_id for ex in examples], tables)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    epoch_losses: list[float]
    train_qm: list[tuple[int, float]]
    dev_qm: list[tuple[int, float]]
    best_dev_qm: float | None
    model: S.SketchModel
    store: K.ParamStore
    checkpoint_path: str | None


def build_model(config: TrainConfig, emb: EmbeddingStore) -> tuple[S.SketchModel, K.ParamStore]:
    store = K.ParamStore(seed=config.seed)
    model = S.SketchModel(store, emb, width=config.hidden_width, mode=config.mode,
                          type_dim=config.type_dim, dropout=config.dropout,
                          decoder_max_len=config.decoder_max_len)
    return model, store


def train(config: TrainConfig, train_examples: list[Example], tables: dict[str, Table],
          dev_examples: list[Example] | None = None, emb: EmbeddingStore | None = None,
          gazetteer: Gazetteer | None = None, log=None) -> TrainResult:
    """Seeded mini-batch Adam training with best-dev checkpoints; a non-finite loss raises."""
    if emb is None:
        if not config.embedding_paths:
            raise ValueError("no embeddings: set embedding_paths or pass emb")
        emb = load_embeddings(config.embedding_paths)
    if gazetteer is None and config.gazetteer_path:
        gazetteer = Gazetteer.from_tsv(config.gazetteer_path)

    model, store = build_model(config, emb)
    prepared = [prepare_example(model, ex, tables[ex.table_id], gazetteer)
                for ex in train_examples]
    adam = K.AdamState(lr=config.learning_rate)
    rng = np.random.default_rng(config.seed)

    epoch_losses: list[float] = []
    train_qm: list[tuple[int, float]] = []
    dev_qm: list[tuple[int, float]] = []
    best_dev = None
    started = time.monotonic()

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(prepared))
        total = 0.0
        for at in range(0, len(order), config.batch_size):
            batch = order[at : at + config.batch_size]
            store.zero_grad()
            losses = [total_loss(model, prepared[i], training=True, rng=rng) for i in batch]
            batch_loss = K.scale(K.sum_all(K.concat_rows(losses)), 1.0 / len(batch))
            value = batch_loss.item()
            if not np.isfinite(value):  # stop before the update, so weights stay finite
                raise ValueError(f"non-finite loss at epoch {epoch}, "
                                 f"batch {at // config.batch_size + 1}")
            K.backward(batch_loss)
            K.adam_step(store, adam)
            total += value * len(batch)
        epoch_loss = total / len(prepared)
        epoch_losses.append(epoch_loss)

        entry = {"epoch": epoch, "loss": epoch_loss,
                 "seconds": round(time.monotonic() - started, 2)}
        stop = False
        if epoch % config.eval_every == 0 or epoch == config.epochs:
            if config.stop_at_train_qm is not None:
                qm = evaluate_model(model, train_examples, tables, gazetteer).acc_qm
                train_qm.append((epoch, qm))
                entry["train_qm"] = qm
                if qm >= config.stop_at_train_qm:
                    stop = True
            if dev_examples:
                qm = evaluate_model(model, dev_examples, tables, gazetteer).acc_qm
                dev_qm.append((epoch, qm))
                entry["dev_qm"] = qm
                if config.checkpoint_path and (best_dev is None or qm > best_dev):
                    best_dev = qm
                    K.save_checkpoint(store, config.checkpoint_path)
        if log is not None:
            log(entry)
        if stop:
            break

    if config.checkpoint_path and best_dev is None:
        K.save_checkpoint(store, config.checkpoint_path)
    return TrainResult(epoch_losses=epoch_losses, train_qm=train_qm, dev_qm=dev_qm,
                       best_dev_qm=best_dev, model=model, store=store,
                       checkpoint_path=config.checkpoint_path)
