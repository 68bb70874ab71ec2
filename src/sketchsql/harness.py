"""Operational shell: dataset IO, loss composition, training, inference.

Datasets are JSON-lines. Examples carry a question, a table id, and the
gold query in index form; tables carry header, column kinds, and rows.
Training teacher-forces every conditioned slot on the gold antecedents
and sums the per-slot losses; inference feeds predicted antecedents.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field, fields
from itertools import chain

import numpy as np

from . import kernel as K
from . import slots as S
from .encoder import EmbeddingStore
from .executor import Metrics, evaluate_dataset
from .sketch import SqlQuery, assemble
from .tables import KIND_TEXT, Table, not_utf8, text_lines
from .tagger import MODES, Gazetteer, TaggedQuestion, recognize, tokenize

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

NESTED_TOO_DEEPLY = "nested too deeply"  # json raises RecursionError past its depth limit


def _read_jsonl(path):
    for lineno, line in text_lines(path, DatasetError):
        try:
            yield lineno, json.loads(line)
        except ValueError as exc:  # also an integer past Python's digit limit
            msg = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
            raise DatasetError(f"{path}:{lineno}: bad JSON ({msg})") from None
        except RecursionError:
            raise DatasetError(f"{path}:{lineno}: bad JSON ({NESTED_TOO_DEEPLY})") from None


def _record_error(path, lineno, exc: Exception) -> DatasetError:
    """A bad record as one line naming its file and line; a KeyError is a missing key."""
    msg = f"missing key {exc}" if isinstance(exc, KeyError) else exc  # str(KeyError) quotes it
    return DatasetError(f"{path}:{lineno}: {msg}")


def _string(rec: dict, name: str) -> str:
    value = rec[name]
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def _strings(rec: dict, name: str) -> list[str]:
    value = rec[name]
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"{name} must be a list of strings, got {value!r}")
    return value


_JSON_CONTAINERS = {dict, list}  # the JSON values a cell may not be


def load_tables(path) -> dict[str, Table]:
    """The tables of a JSON-lines file by id. Equal str cells of text columns share one
    object across the file: a wide file repeats a few values in many cells, so this
    saves memory, and sets and dicts over a column hash and compare a few objects. Each
    text column is shared as a whole once its table has built its columns from the parsed
    rows, which are then dropped."""
    tables: dict[str, Table] = {}
    shared: dict[str, str] = {}  # each distinct text cell of this file, by itself
    for lineno, rec in _read_jsonl(path):
        try:
            if not isinstance(rec, dict):
                raise ValueError(f"a table must be a JSON object, got {rec!r}")
            rows = rec.get("rows", [])
            if not isinstance(rows, list):
                raise ValueError(f"rows must be a list of rows, got {rows!r}")
            if not {list}.issuperset(map(type, rows)):  # stops at the first other type
                i, row = next((i, row) for i, row in enumerate(rows) if type(row) is not list)
                raise ValueError(f"row {i} must be a list of cells, got {row!r}")
            if not _JSON_CONTAINERS.isdisjoint(map(type, chain.from_iterable(rows))):
                i, bad = next((i, cell) for i, row in enumerate(rows) for cell in row
                              if type(cell) in _JSON_CONTAINERS)
                raise ValueError(f"row {i}: a cell must be a string, number, bool or null, "
                                 f"got {bad!r}")
            table = Table(id=_string(rec, "id"), header=_strings(rec, "header"),
                          types=_strings(rec, "types"), rows=rows)
            if table.id in tables:
                raise ValueError(f"duplicate table id {table.id!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise _record_error(path, lineno, exc) from None
        table.columns = tuple(_shared_text(column, shared) if kind == KIND_TEXT else column
                              for column, kind in zip(table.columns, table.types))
        tables[table.id] = table
    return tables


def _shared_text(column: tuple, shared: dict[str, str]) -> tuple:
    """A text column with each str cell replaced by shared's object of the same text,
    which is the cell itself when shared has none yet. Cells that are not a str stay as
    they are, since 1 == 1.0 == True and 0.0 == -0.0 as keys."""
    return tuple(shared.setdefault(cell, cell) if type(cell) is str else cell
                 for cell in column)


def load_dataset(examples_path, tables_path) -> tuple[list[Example], dict[str, Table]]:
    """Load examples and tables; every example must reference a known table."""
    tables = load_tables(tables_path)
    return load_examples(examples_path, tables), tables


def load_examples(examples_path, tables: dict[str, Table]) -> list[Example]:
    """Load the examples of a JSON-lines file; each must reference one of `tables`."""
    examples: list[Example] = []
    for lineno, rec in _read_jsonl(examples_path):
        try:
            if not isinstance(rec, dict):
                raise ValueError(f"an example must be a JSON object, got {rec!r}")
            gold = SqlQuery.from_dict(rec["sql"], rec.get("question"))
            example = Example(question=_string(rec, "question"),
                              table_id=_string(rec, "table_id"), gold=gold)
            # tokenize keeps every run of non-space characters, so it finds no token in
            # exactly the questions that are blank
            if not example.question.strip():
                raise ValueError(f"question has no tokens: {example.question!r}")
            table = tables.get(example.table_id)
            if table is None:
                raise ValueError(f"unknown table {example.table_id!r}")
            gold.validate_against(table.n_columns)
        except (KeyError, TypeError, ValueError) as exc:
            raise _record_error(examples_path, lineno, exc) from None
        examples.append(example)
    return examples


def load_predictions(path, examples: list[Example],
                     tables: dict[str, Table]) -> list[SqlQuery]:
    """Predicted queries, one JSON line each (bare or under "sql"), parallel to examples;
    each must lie within its example's table."""
    preds: list[SqlQuery] = []
    for lineno, rec in _read_jsonl(path):
        body = rec.get("sql", rec) if isinstance(rec, dict) else rec
        try:
            # a surplus line fails the count check below
            example = examples[len(preds)] if len(preds) < len(examples) else None
            pred = SqlQuery.from_dict(body, example and example.question)
            if example is not None:
                pred.validate_against(tables[example.table_id].n_columns)
        except (KeyError, TypeError, ValueError) as exc:
            raise _record_error(path, lineno, exc) from None
        preds.append(pred)
    if len(preds) != len(examples):
        raise DatasetError(f"{path}: {len(preds)} predictions for {len(examples)} examples")
    return preds


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
    type_dim: int | None = None      # defaults to 30; content mode needs null or the word width
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

    def __post_init__(self):
        least = dict.fromkeys(("hidden_width", "batch_size", "epochs", "eval_every"), 1)
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
        # json reads Infinity and 1e999 as inf, but keeps an int past the float range exact
        if not 0 < self.learning_rate <= sys.float_info.max:
            raise ValueError(f"learning_rate must be a finite number > 0, "
                             f"got {self.learning_rate!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout!r}")
        qm = self.stop_at_train_qm
        if qm is not None and (not isinstance(qm, (int, float)) or isinstance(qm, bool)
                               or not 0.0 <= qm <= 1.0):
            raise ValueError(f"stop_at_train_qm must be null or a number in [0, 1], got {qm!r}")
        paths = self.embedding_paths
        if not isinstance(paths, list) or not all(isinstance(p, str) for p in paths):
            raise ValueError(f"embedding_paths must be a list of strings, got {paths!r}")
        for name in ("gazetteer_path", "train_path", "dev_path", "tables_path",
                     "checkpoint_path"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"{name} must be null or a string, got {value!r}")
        if self.hidden_width % 2 != 0:
            raise ValueError("hidden_width must be even")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        with open(path, encoding="utf-8-sig") as fh:
            try:
                raw = json.load(fh)
            except UnicodeDecodeError as exc:
                raise ValueError(not_utf8(path, exc)) from None
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{exc.lineno}: bad JSON ({exc.msg})") from None
            except ValueError as exc:  # an integer past Python's digit limit has no line
                raise ValueError(f"{path}: bad JSON ({exc})") from None
            except RecursionError:  # nor has nesting past the decoder's depth limit
                raise ValueError(f"{path}: bad JSON ({NESTED_TOO_DEEPLY})") from None
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: config must be a JSON object, got {type(raw).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(f"{path}: unknown config keys {unknown}")
        try:
            return cls(**raw)
        except ValueError as exc:  # the field's error, named by the file that holds it
            raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Example preparation and loss
# ---------------------------------------------------------------------------

@dataclass
class PreparedExample:
    """What the model reads of a question, in training and evaluation alike: the tagged
    question (tokens and tags), its index array from SketchModel.question_parts, its
    table's column matrix and the located gold value spans. It keeps no word vector:
    question_input gathers those per batch. Examples of one table built in one
    `prepare_examples` call share one column matrix."""

    tq: TaggedQuestion
    gold: SqlQuery
    q_parts: np.ndarray  # (2, T) int64: store rows (-1: none), then type rows
    col_matrix: np.ndarray
    gold_spans: list[list[int] | None]


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
                    gazetteer: Gazetteer | None = None,
                    col_matrix: np.ndarray | None = None) -> PreparedExample:
    """The example's PreparedExample over `col_matrix`, the table's column matrix, which
    is built here when none is passed."""
    tq = recognize(example.question, table.header, table=table, mode=model.mode,
                   gazetteer=gazetteer)
    if col_matrix is None:
        col_matrix = model.column_matrix(table.header)
    spans = [find_token_span(tq.tokens, val) for _, _, val in example.gold.conds]
    return PreparedExample(tq=tq, gold=example.gold, q_parts=model.question_parts(tq, col_matrix),
                           col_matrix=col_matrix, gold_spans=spans)


def prepare_examples(model: S.SketchModel, examples: list[Example], tables: dict[str, Table],
                     gazetteer: Gazetteer | None = None) -> list[PreparedExample]:
    """Each example's PreparedExample; the examples of one table share its column matrix,
    read once per call from `model.column_matrix`, whatever the number of tables."""
    matrices = {tid: model.column_matrix(tables[tid].header)
                for tid in dict.fromkeys(ex.table_id for ex in examples)}
    return [prepare_example(model, ex, tables[ex.table_id], gazetteer, matrices[ex.table_id])
            for ex in examples]


SLOTS = ("select", "count", "cond_cols", "agg", "op", "pointer")


def total_loss(model: S.SketchModel, preps: list[PreparedExample],
               rng: np.random.Generator | None = None) -> tuple[K.Tensor, dict[str, float]]:
    """Teacher-forced loss of a minibatch as one taped forward; an rng turns dropout on.

    Returns the batch mean of each example's summed slot losses, and per slot
    (SLOTS) its term summed over the batch. The terms: cross-entropy for the
    select column, condition count, aggregator, and each condition's operator;
    weighted per-column BCE for the condition columns; per-step pointer
    cross-entropy (gold span then the end token) for each condition value that
    occurs in the question.
    """
    q_parts, col_matrix, q_lens, c_lens = S.stack_inputs([(p.q_parts, p.col_matrix)
                                                          for p in preps])
    c_at = np.cumsum(c_lens) - c_lens  # each example's first stacked column row
    col_read, agg_read, opval_read = model.read(q_parts, col_matrix, q_lens, c_lens, rng)
    golds = [p.gold for p in preps]
    sel_rows = c_at + [gold.sel for gold in golds]
    conds = [(i, c_at[i] + col, op, span) for i, p in enumerate(preps)
             for (col, op, _), span in zip(p.gold.conds, p.gold_spans)]

    # column model: select column, condition count, condition columns
    _, _, H_col, H_qt_col = col_read
    targets = np.zeros(sum(c_lens))
    targets[[row for _, row, _, _ in conds]] = 1.0
    H_qt_scol = K.gather_rows(H_qt_col, np.repeat(sel_rows, c_lens))
    terms = {
        "select": K.cross_entropy(S.select_scores(H_qt_col, H_col, model.select_head),
                                  [gold.sel for gold in golds], c_lens),
        "count": K.cross_entropy(S.cond_number_scores(H_qt_col, model.cond_num_head, c_lens),
                                 [len(gold.conds) for gold in golds]),
        "cond_cols": K.binary_cross_entropy(
            S.cond_col_scores(H_qt_col, H_col, H_qt_scol, model.cond_col_head),
            targets, pos_weight=COND_COL_POS_WEIGHT),
    }
    # aggregator model, conditioned on the gold select column
    terms["agg"] = K.cross_entropy(
        S.agg_scores(K.gather_rows(agg_read[3], sel_rows), model.agg_head),
        [gold.agg for gold in golds])

    # operator/value model, one operator term per gold condition
    q_in, H_qt, H_col, H_qt_col = opval_read
    terms["op"] = terms["pointer"] = K.constant([[0.0]])
    if conds:
        rows = [row for _, row, _, _ in conds]
        terms["op"] = K.cross_entropy(
            S.op_scores(K.gather_rows(H_qt_col, rows), K.gather_rows(H_col, rows),
                        model.op_head), [op for _, _, op, _ in conds])
    located = [(i, row, span) for i, row, _, span in conds if span is not None]
    if located:  # a value absent from the question gives no pointer signal
        owners, rows, spans = zip(*located)
        terms["pointer"] = S.pointer_loss(H_qt, q_in, K.gather_rows(H_col, rows),
                                          model.val_pointer, spans, q_lens, owners)
    loss = K.sum_all(K.concat_rows([terms[slot] for slot in SLOTS]), scale=1.0 / len(preps))
    return loss, {slot: terms[slot].item() for slot in SLOTS}


EVAL_CHUNK = 16  # questions evaluate_model predicts per batch


def _checked_query(pred: S.SlotPrediction, tokens: list[str], table: Table) -> SqlQuery:
    query = assemble(pred, tokens)
    query.validate_against(table.n_columns)
    return query


def predict(model: S.SketchModel, question: str, table: Table,
            gazetteer: Gazetteer | None = None) -> SqlQuery:
    """End-to-end inference: tag, encode, fill slots, assemble the query."""
    tq = recognize(question, table.header, table=table, mode=model.mode, gazetteer=gazetteer)
    return _checked_query(model.predict_slots(tq, table.header), tq.tokens, table)


def evaluate_model(model: S.SketchModel, examples: list[Example], tables: dict[str, Table],
                   gazetteer: Gazetteer | None = None,
                   prepared: list[PreparedExample] | None = None) -> Metrics:
    """Predict every example, EVAL_CHUNK questions per batch, and score the predictions.

    `prepared` holds each example's PreparedExample when the caller has built them already.
    """
    if prepared is None:
        prepared = prepare_examples(model, examples, tables, gazetteer)
    preds = []
    for at in range(0, len(examples), EVAL_CHUNK):
        chunk = prepared[at : at + EVAL_CHUNK]
        slots = model.predict_batch([(p.q_parts, p.col_matrix) for p in chunk])
        for pred, p, ex in zip(slots, chunk, examples[at : at + EVAL_CHUNK]):
            preds.append(_checked_query(pred, p.tq.tokens, tables[ex.table_id]))
    golds = [ex.gold for ex in examples]
    return evaluate_dataset(preds, golds, [ex.table_id for ex in examples], tables)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    epoch_losses: list[float]
    best_dev_qm: float | None
    model: S.SketchModel
    store: K.ParamStore


def build_model(config: TrainConfig, emb: EmbeddingStore) -> tuple[S.SketchModel, K.ParamStore]:
    """The config's model over `emb` and its parameters; widths too large to allocate
    raise a ValueError that names them."""
    store = K.ParamStore(seed=config.seed)
    try:
        model = S.SketchModel(store, emb, width=config.hidden_width, mode=config.mode,
                              type_dim=config.type_dim, dropout=config.dropout)
    except MemoryError as exc:
        raise ValueError(f"hidden_width {config.hidden_width}, type_dim {config.type_dim}: "
                         f"the model is too large to allocate ({exc})") from None
    return model, store


def _check_gradients(store: K.ParamStore, where: str):
    """Raise before the update when a gradient is not finite, naming its parameter."""
    for name, p in store.items():
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise ValueError(f"non-finite gradient in {name} {where}")


def train(config: TrainConfig, train_examples: list[Example], tables: dict[str, Table],
          dev_examples: list[Example] | None = None, *, emb: EmbeddingStore,
          gazetteer: Gazetteer | None = None, log=None) -> TrainResult:
    """Seeded mini-batch Adam training over the loaded `emb` and `gazetteer`, with
    best-dev checkpoints; of the config's paths it reads only `checkpoint_path`. A
    non-finite loss or gradient raises before the update."""
    if not train_examples:
        where = f"{config.train_path}: " if config.train_path else ""
        raise ValueError(f"{where}no training examples")
    if config.checkpoint_path:  # checked now: it is first written after an epoch
        folder = os.path.dirname(config.checkpoint_path) or "."
        if not os.path.isdir(folder):
            raise ValueError(f"checkpoint_path {config.checkpoint_path!r}: "
                             f"no directory {folder!r}")
        if os.path.isdir(config.checkpoint_path):
            raise ValueError(f"checkpoint_path {config.checkpoint_path!r} is a directory")

    model, store = build_model(config, emb)
    dev_examples = dev_examples or []
    prepared = prepare_examples(model, train_examples, tables, gazetteer)
    dev_prepared = prepare_examples(model, dev_examples, tables, gazetteer)
    adam = K.AdamState(store, lr=config.learning_rate)
    rng = np.random.default_rng(config.seed)

    epoch_losses: list[float] = []
    best_dev = None
    started = time.monotonic()

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(prepared))
        total = 0.0
        slot_totals = dict.fromkeys(SLOTS, 0.0)
        for at in range(0, len(order), config.batch_size):
            batch = order[at : at + config.batch_size]
            store.zero_grad()
            batch_loss, slot_sums = total_loss(model, [prepared[i] for i in batch], rng)
            value = batch_loss.item()
            where = f"at epoch {epoch}, batch {at // config.batch_size + 1}"
            if not np.isfinite(value):  # stop before the update, so weights stay finite
                raise ValueError(f"non-finite loss {where}")
            K.backward(batch_loss)
            _check_gradients(store, where)
            K.adam_step(store, adam)
            total += value * len(batch)
            for slot, term in slot_sums.items():
                slot_totals[slot] += term
        epoch_loss = total / len(prepared)
        epoch_losses.append(epoch_loss)

        entry = {"epoch": epoch, "loss": epoch_loss,
                 "slot_losses": {slot: slot_totals[slot] / len(prepared) for slot in SLOTS},
                 "seconds": round(time.monotonic() - started, 2)}
        stop = False
        if epoch % config.eval_every == 0 or epoch == config.epochs:
            if config.stop_at_train_qm is not None:
                qm = evaluate_model(model, train_examples, tables, prepared=prepared).acc_qm
                entry["train_qm"] = qm
                if qm >= config.stop_at_train_qm:
                    stop = True
            if dev_examples:
                qm = evaluate_model(model, dev_examples, tables, prepared=dev_prepared).acc_qm
                entry["dev_qm"] = qm
                if best_dev is None or qm > best_dev:
                    best_dev = qm
                    if config.checkpoint_path:
                        K.save_checkpoint(store, config.checkpoint_path)
        if log is not None:
            log(entry)
        if stop:
            break

    if config.checkpoint_path and best_dev is None:
        K.save_checkpoint(store, config.checkpoint_path)
    return TrainResult(epoch_losses=epoch_losses, best_dev_qm=best_dev, model=model,
                       store=store)
