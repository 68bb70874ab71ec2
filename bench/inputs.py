"""Seeded benchmark inputs and the cached serving model.

Everything here is derived from a seed and written under the cache
directory; the program under test only ever sees the generated files.

- `narrow_corpus`: `synth.generate_corpus` (4-column, 8-row tables).
- `serve_pass`: the questions and tables of one serving pass, drawn fresh
  from the workload seed and the pass number, so no question text is
  served twice in a run on purpose. Narrow passes are whole synth corpora
  (540 questions on 12 tables); wide passes put each question on a table
  of its own: 16 columns made by joining four synth schemas, 250 to 1000
  rows, and 1-4 conditions.
- `embeddings`: one 50,000 x 50 word-vector file covering every token the
  two generators can emit, padded with filler tokens, so that loading it
  costs what a realistic vocabulary costs.
- `serving_model`: the checkpoint that `serve` and `serve_wide` load,
  trained once per source tree by `harness.train` and checked against the
  gold query's decoding work.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from pathlib import Path

import numpy as np

from sketchsql import harness, synth
from sketchsql import kernel as K
from sketchsql.encoder import load_embeddings
from sketchsql.harness import Example
from sketchsql.sketch import SqlQuery
from sketchsql.tables import Table, cell_text
from sketchsql.tagger import Gazetteer, recognize, tokenize

# The serving model is trained from one fixed seed, not from the workload
# seed: a build costs about 80 s, and every new workload seed would pay it.
MODEL_SEED = 0
ACCEPTANCE = dict(hidden_width=32, dropout=0.0, batch_size=16, learning_rate=2e-3,
                  mode="content")
N_TRAIN, N_DEV = 480, 60
MODEL_EPOCHS = (16, 24, 32)   # tried in turn until the work bound holds
WORK_BOUND = 0.10             # conditions and pointer steps per query vs gold

VOCAB_SIZE, EMBED_DIM = 50_000, 50
FILLER = "fill{:05d}"

WIDE_SCHEMAS = 4                                  # joined per table: 16 columns
WIDE_ROWS = (250, 400, 550, 700, 850, 1000)       # table sizes, in turn
WIDE_PER_PASS = 120                               # questions, each on its own table


def _write_atomic_dir(final: Path, build):
    """Run build(tmp_dir) and move the result into place in one rename."""
    if final.is_dir():
        return final
    tmp = final.with_name(f"{final.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        build(tmp)
        os.replace(tmp, final)
    except OSError:
        if not final.is_dir():
            raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return final


def source_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "sketchsql").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    digest.update(Path(__file__).read_bytes())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Narrow corpus
# ---------------------------------------------------------------------------

def narrow_corpus(cache: Path, seed: int) -> Path:
    """The acceptance corpus for one seed: train/dev/tables/gazetteer files."""
    return _write_atomic_dir(
        cache / f"narrow-{seed}",
        lambda out: synth.generate_corpus(out, seed=seed, n_train=N_TRAIN, n_dev=N_DEV))


# ---------------------------------------------------------------------------
# Wide corpus
# ---------------------------------------------------------------------------

def _cell(spec: synth.ColumnSpec, rnd: random.Random):
    if spec.kind == "text":
        return rnd.choice(spec.pool)
    if spec.decimals:
        return round(rnd.uniform(spec.low, spec.high), spec.decimals)
    return rnd.randint(spec.low, spec.high)


def _wide_question(table: Table, specs, rnd: random.Random) -> Example:
    """A synth-style question over one wide table, with 1-4 conditions."""
    real_cols = [i for i, kind in enumerate(table.types) if kind == "real"]
    agg = rnd.choice([0, 0, 0, 1, 2, 3, 3, 4, 5])
    sel = rnd.choice(real_cols) if agg in (1, 2, 4, 5) else rnd.randrange(table.n_columns)
    n_conds = rnd.randint(1, 4)
    conds, phrases = [], []
    for col in rnd.sample([c for c in range(table.n_columns) if c != sel], k=n_conds):
        op = rnd.choice([0, 0, 0, 1, 2]) if table.types[col] == "real" else 0
        if op == 0:
            val = cell_text(rnd.choice(table.rows)[col])
        else:
            val = str(rnd.randint(specs[col].low, specs[col].high))
        conds.append((col, op, val))
        phrases.append(f"the {table.header[col]} {synth.OP_PHRASE[op]} {val}")
    question = synth.AGG_PREFIX[agg].format(sel=table.header[sel])
    question += " when " + " and ".join(phrases) + "?"
    return Example(question=question, table_id=table.id,
                   gold=SqlQuery(agg=agg, sel=sel, conds=conds))


def _build_wide(out: Path, seed: int):
    rnd = random.Random(seed)
    tables, examples = [], []
    for i in range(WIDE_PER_PASS):
        joined = rnd.sample(synth.SCHEMAS, k=WIDE_SCHEMAS)
        specs = [spec for _name, cols in joined for spec in cols]
        table = Table(id=f"wide{i}_" + "_".join(name for name, _ in joined),
                      header=[s.name for s in specs], types=[s.kind for s in specs],
                      rows=[[_cell(s, rnd) for s in specs]
                            for _ in range(WIDE_ROWS[i % len(WIDE_ROWS)])])
        tables.append(table)
        examples.append(_wide_question(table, specs, rnd))
    harness.write_tables(tables, out / "tables.jsonl")
    harness.write_examples(examples, out / "questions.jsonl")


def pass_seed(seed: int, index: int, wide: bool) -> int:
    """The generator seed of one serving pass; never the serving model's."""
    key = f"{'wide' if wide else 'narrow'}:{seed}:{index}".encode()
    return MODEL_SEED + 1 + int.from_bytes(hashlib.sha256(key).digest()[:6], "big")


def serve_pass(cache: Path, seed: int, index: int, wide: bool):
    """Examples and tables of one serving pass, generated afresh into a scratch folder."""
    tmp = cache / "tmp" / f"pass{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        gen_seed = pass_seed(seed, index, wide)
        if wide:
            _build_wide(tmp, gen_seed)
            return harness.load_dataset(tmp / "questions.jsonl", tmp / "tables.jsonl")
        synth.generate_corpus(tmp, seed=gen_seed, n_train=N_TRAIN, n_dev=N_DEV)
        train, tables = harness.load_dataset(tmp / "train.jsonl", tmp / "tables.jsonl")
        dev, _ = harness.load_dataset(tmp / "dev.jsonl", tmp / "tables.jsonl")
        return train + dev, tables
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# Embeddings
# ---------------------------------------------------------------------------

def grammar_vocabulary() -> set[str]:
    """Every token either generator can put in a question, header or cell."""
    words: set[str] = set()

    def add(text):
        words.update(tokenize(text)[0])

    for template in [*synth.AGG_PREFIX.values(), *synth.OP_PHRASE.values()]:
        add(template.format(sel="when and are there?"))
    for _name, specs in synth.SCHEMAS:
        for spec in specs:
            add(spec.name)
            if spec.kind == "text":
                for value in spec.pool:
                    add(value)
                continue
            words.update(str(v) for v in range(spec.low, spec.high + 1))
            scale = 10 ** spec.decimals
            for k in range(spec.low * scale, spec.high * scale + 1):
                words.add(cell_text(round(k / scale, spec.decimals)))
    return words


def _build_embeddings(out: Path):
    vocab = sorted(grammar_vocabulary())
    if len(vocab) > VOCAB_SIZE:
        raise ValueError(f"grammar vocabulary {len(vocab)} exceeds {VOCAB_SIZE}")
    tokens = vocab + [FILLER.format(i) for i in range(VOCAB_SIZE - len(vocab))]
    vectors = np.random.default_rng(MODEL_SEED).normal(scale=0.4, size=(len(tokens), EMBED_DIM))
    with open(out / "embeddings.txt", "w", encoding="utf-8") as fh:
        for token, vec in zip(tokens, vectors):
            fh.write(token + " " + " ".join(f"{v:.5f}" for v in vec) + "\n")


def embeddings(cache: Path) -> Path:
    """Path of the padded 50,000-token embedding file."""
    key = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:16]
    return _write_atomic_dir(cache / f"emb-{key}", _build_embeddings) / "embeddings.txt"


def check_coverage(examples: list[Example]):
    """Every question token has a vector of its own, never a filler's or the OOV zero."""
    vocab = grammar_vocabulary()
    for ex in examples:
        missing = set(tokenize(ex.question)[0]) - vocab
        if missing:
            raise ValueError(f"no embedding for {sorted(missing)} in {ex.question!r}")


# ---------------------------------------------------------------------------
# Serving model
# ---------------------------------------------------------------------------

def decode_work(model, examples: list[Example], tables, gazetteer) -> dict:
    """Conditions and pointer steps per query: predicted against gold.

    A decoded span costs one step per token plus the end step, unless it
    ran to `decoder_max_len`; a gold value costs its token count plus one.
    """
    pred_conds = pred_steps = gold_conds = gold_steps = 0
    for ex in examples:
        table = tables[ex.table_id]
        tq = recognize(ex.question, table.header, table=table, mode=model.mode,
                       gazetteer=gazetteer)
        pred = model.predict_slots(tq, table.header)
        pred_conds += pred.cond_count
        pred_steps += sum(len(s) + (len(s) < model.decoder_max_len)
                          for s in pred.cond_val_spans)
        gold_conds += len(ex.gold.conds)
        gold_steps += sum(len(tokenize(val)[0]) + 1 for _, _, val in ex.gold.conds)
    n = len(examples)
    return {"pred_conds": pred_conds / n, "gold_conds": gold_conds / n,
            "pred_steps": pred_steps / n, "gold_steps": gold_steps / n}


def within_bound(work: dict) -> bool:
    return all(abs(work[f"pred_{k}"] - work[f"gold_{k}"]) <= WORK_BOUND * work[f"gold_{k}"]
               for k in ("conds", "steps"))


def model_config(emb_path: Path, epochs: int, seed: int = MODEL_SEED) -> harness.TrainConfig:
    return harness.TrainConfig(**ACCEPTANCE, epochs=epochs, seed=seed,
                               embedding_paths=[str(emb_path)])


def _build_model(out: Path, cache: Path, emb_path: Path, log):
    corpus = narrow_corpus(cache, MODEL_SEED)
    train, tables = harness.load_dataset(corpus / "train.jsonl", corpus / "tables.jsonl")
    dev, _ = harness.load_dataset(corpus / "dev.jsonl", corpus / "tables.jsonl")
    held_dir = narrow_corpus(cache, MODEL_SEED + 1)
    held, held_tables = harness.load_dataset(held_dir / "train.jsonl", held_dir / "tables.jsonl")
    emb = load_embeddings([emb_path])
    gaz = Gazetteer.from_tsv(corpus / "gazetteer.tsv")
    for epochs in MODEL_EPOCHS:
        config = model_config(emb_path, epochs)
        config.checkpoint_path = str(out / "model.tsq")
        result = harness.train(config, train, tables, dev, emb=emb, gazetteer=gaz)
        model, store = harness.build_model(config, emb)
        store.load_state(K.load_checkpoint(config.checkpoint_path))
        work = decode_work(model, held, held_tables, gaz)
        log(f"serving model: {epochs} epochs, best dev qm {result.best_dev_qm}, work {work}")
        if within_bound(work):
            meta = {"epochs": epochs, "seed": MODEL_SEED, "best_dev_qm": result.best_dev_qm,
                    "final_loss": result.epoch_losses[-1], "work": work}
            (out / "meta.json").write_text(json.dumps(meta, indent=1))
            return
    raise RuntimeError(f"serving model misses the {WORK_BOUND:.0%} work bound: {work}")


def serving_model(root: Path, cache: Path, emb_path: Path, log) -> Path:
    """Directory holding model.tsq and meta.json, built on first use per source tree."""
    final = cache / f"model-{source_hash(root)}"
    return _write_atomic_dir(final, lambda out: _build_model(out, cache, emb_path, log))
