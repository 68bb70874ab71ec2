"""Deterministic synthetic corpus for desk-scale training runs.

Template questions over a dozen toy schemas, with condition values drawn
from the table rows so both tagging modes and execution have something to
bite on. Also emits random 'pretrained' embeddings covering the corpus
vocabulary and a gazetteer for the entity pools.
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .harness import Example, write_examples, write_tables
from .sketch import SqlQuery
from .tables import Table, cell_text
from .tagger import tokenize

PERSONS = [
    "alma reyes", "felix ng", "iris fontaine", "omar diallo", "petra novak",
    "ruth okafor", "samir patel", "tessa brandt", "victor hale", "wanda liu",
    "yusuf demir", "zoe marsh",
]
COUNTRIES = ["norway", "peru", "ghana", "latvia", "nepal", "chile", "kenya", "malta"]
PLACES = ["oslo", "lima", "accra", "riga", "pokhara", "valdivia", "nakuru", "mdina"]
ORGANIZATIONS = [
    "harbor wolves", "delta union", "summit nine", "coral kings",
    "prairie lions", "magnet works", "quartz labs", "vector mills",
]
THINGS = [
    "amber falcon", "bold otter", "cedar crown", "dusk runner", "ember fox",
    "frost lily", "glass meadow", "hollow star", "ivory gate", "jade harbor",
    "kite valley", "lunar bridge", "maple chord", "night orchid", "opal drift",
    "pine anchor",
]
DEPARTMENTS = ["logistics", "research", "finance", "operations"]


@dataclass
class ColumnSpec:
    name: str
    kind: str          # text | real
    pool: list | None = None
    low: int = 0
    high: int = 0
    decimals: int = 0  # for real columns: 0 means integers


SCHEMAS = [
    ("players", [ColumnSpec("player", "text", PERSONS), ColumnSpec("team", "text", ORGANIZATIONS),
                 ColumnSpec("points", "real", low=10, high=90),
                 ColumnSpec("season", "real", low=1, high=9)]),
    ("movies", [ColumnSpec("movie", "text", THINGS), ColumnSpec("director", "text", PERSONS),
                ColumnSpec("gross", "real", low=50, high=900, decimals=1),
                ColumnSpec("screens", "real", low=20, high=400)]),
    ("cities", [ColumnSpec("city", "text", PLACES), ColumnSpec("country", "text", COUNTRIES),
                ColumnSpec("population", "real", low=100, high=999),
                ColumnSpec("area", "real", low=10, high=80, decimals=1)]),
    ("products", [ColumnSpec("product", "text", THINGS), ColumnSpec("brand", "text", ORGANIZATIONS),
                  ColumnSpec("price", "real", low=5, high=95, decimals=1),
                  ColumnSpec("stock", "real", low=10, high=500)]),
    ("albums", [ColumnSpec("album", "text", THINGS), ColumnSpec("singer", "text", PERSONS),
                ColumnSpec("sales", "real", low=100, high=900),
                ColumnSpec("weeks", "real", low=1, high=40)]),
    ("staff", [ColumnSpec("employee", "text", PERSONS), ColumnSpec("department", "text", DEPARTMENTS),
               ColumnSpec("salary", "real", low=300, high=900),
               ColumnSpec("age", "real", low=21, high=65)]),
    ("matches", [ColumnSpec("opponent", "text", ORGANIZATIONS), ColumnSpec("venue", "text", PLACES),
                 ColumnSpec("attendance", "real", low=100, high=990),
                 ColumnSpec("round", "real", low=1, high=12)]),
    ("books", [ColumnSpec("book", "text", THINGS), ColumnSpec("author", "text", PERSONS),
               ColumnSpec("pages", "real", low=90, high=900),
               ColumnSpec("copies", "real", low=10, high=99)]),
    ("cars", [ColumnSpec("vehicle", "text", THINGS), ColumnSpec("maker", "text", ORGANIZATIONS),
              ColumnSpec("speed", "real", low=80, high=320, decimals=1),
              ColumnSpec("weight", "real", low=700, high=999)]),
    ("schools", [ColumnSpec("school", "text", THINGS), ColumnSpec("district", "text", PLACES),
                 ColumnSpec("students", "real", low=100, high=999),
                 ColumnSpec("teachers", "real", low=10, high=99)]),
    ("rivers", [ColumnSpec("river", "text", THINGS), ColumnSpec("region", "text", PLACES),
                ColumnSpec("length", "real", low=50, high=900),
                ColumnSpec("depth", "real", low=2, high=60, decimals=1)]),
    ("phones", [ColumnSpec("phone", "text", THINGS), ColumnSpec("vendor", "text", ORGANIZATIONS),
                ColumnSpec("cost", "real", low=100, high=999),
                ColumnSpec("battery", "real", low=10, high=48)]),
]

AGG_PREFIX = {
    0: "what is the {sel}",
    1: "what is the maximum {sel}",
    2: "what is the minimum {sel}",
    3: "how many {sel}",
    4: "what is the total {sel}",
    5: "what is the average {sel}",
}
OP_PHRASE = {0: "is", 1: "is greater than", 2: "is less than"}
EMBEDDING_DIM = 50  # width of the random 'pretrained' vectors


def _make_table(name: str, specs: list[ColumnSpec], rnd: random.Random) -> Table:
    rows = []
    for _ in range(8):
        row = []
        for spec in specs:
            if spec.kind == "text":
                row.append(rnd.choice(spec.pool))
            elif spec.decimals:
                row.append(round(rnd.uniform(spec.low, spec.high), spec.decimals))
            else:
                row.append(rnd.randint(spec.low, spec.high))
        rows.append(row)
    return Table(id=name, header=[s.name for s in specs],
                 types=[s.kind for s in specs], rows=rows)


def _condition_value(table: Table, specs: list[ColumnSpec], col: int, op: int,
                     rnd: random.Random) -> str:
    if op == 0:
        return cell_text(rnd.choice(table.columns[col]))
    spec = specs[col]
    return str(rnd.randint(spec.low, spec.high))


def _generate_one(table: Table, specs: list[ColumnSpec], rnd: random.Random) -> Example:
    n = table.n_columns
    real_cols = [i for i, t in enumerate(table.types) if t == "real"]
    agg = rnd.choice([0, 0, 0, 1, 2, 3, 3, 4, 5])
    sel = rnd.choice(real_cols) if agg in (1, 2, 4, 5) else rnd.randrange(n)

    n_conds = rnd.choice([0, 1, 1, 1, 2])
    cond_cols = rnd.sample([c for c in range(n) if c != sel], k=n_conds)
    conds = []
    phrases = []
    for col in cond_cols:
        op = rnd.choice([0, 0, 0, 1, 2]) if table.types[col] == "real" else 0
        val = _condition_value(table, specs, col, op, rnd)
        conds.append((col, op, val))
        phrases.append(f"the {table.header[col]} {OP_PHRASE[op]} {val}")

    question = AGG_PREFIX[agg].format(sel=table.header[sel])
    if phrases:
        question += " when " + " and ".join(phrases)
    elif agg == 3:
        question += " are there"
    question += "?"
    return Example(question=question, table_id=table.id,
                   gold=SqlQuery(agg=agg, sel=sel, conds=conds))


@dataclass
class CorpusPaths:
    train: Path
    dev: Path
    tables: Path
    embeddings: Path
    gazetteer: Path


def generate_corpus(out_dir, seed: int = 0, n_train: int = 240, n_dev: int = 60) -> CorpusPaths:
    """Write train/dev/tables JSONL plus embeddings and gazetteer files. A negative seed
    or count raises ValueError before anything is written."""
    for name, value in (("seed", seed), ("n_train", n_train), ("n_dev", n_dev)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rnd = random.Random(seed)

    tables = [_make_table(name, specs, rnd) for name, specs in SCHEMAS]
    specs_by_id = {name: specs for name, specs in SCHEMAS}

    examples: list[Example] = []
    seen_questions: set[str] = set()
    while len(examples) < n_train + n_dev:
        table = rnd.choice(tables)
        ex = _generate_one(table, specs_by_id[table.id], rnd)
        if ex.question in seen_questions:
            continue
        seen_questions.add(ex.question)
        examples.append(ex)
    train, dev = examples[:n_train], examples[n_train:]

    paths = CorpusPaths(train=out / "train.jsonl", dev=out / "dev.jsonl",
                        tables=out / "tables.jsonl", embeddings=out / "embeddings.txt",
                        gazetteer=out / "gazetteer.tsv")
    write_examples(train, paths.train)
    write_examples(dev, paths.dev)
    write_tables(tables, paths.tables)

    vocab: set[str] = set()
    for ex in examples:
        vocab.update(tokenize(ex.question)[0])
    for table in tables:
        for name in table.header:
            vocab.update(tokenize(name)[0])
        for column in table.columns:
            for cell in column:
                vocab.update(tokenize(cell_text(cell))[0])
    emb_rng = np.random.default_rng(seed)
    with open(paths.embeddings, "w", encoding="utf-8") as fh:
        for token in sorted(vocab):
            vec = emb_rng.normal(scale=0.4, size=EMBEDDING_DIM)
            fh.write(token + " " + " ".join(f"{v:.5f}" for v in vec) + "\n")

    with open(paths.gazetteer, "w", encoding="utf-8") as fh:
        for key in PERSONS:
            fh.write(f"{key}\tperson\n")
        for key in COUNTRIES:
            fh.write(f"{key}\tcountry\n")
        for key in PLACES:
            fh.write(f"{key}\tplace\n")
        for key in ORGANIZATIONS:
            fh.write(f"{key}\torganization\n")
    return paths


def _non_negative(text: str) -> int:
    """An argument that must be an integer >= 0, checked before anything is written."""
    try:
        if (value := int(text)) >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Generate the synthetic training corpus")
    parser.add_argument("out_dir")
    parser.add_argument("--seed", type=_non_negative, default=0)
    parser.add_argument("--train", type=_non_negative, default=240)
    parser.add_argument("--dev", type=_non_negative, default=60)
    args = parser.parse_args(argv)
    paths = generate_corpus(args.out_dir, seed=args.seed, n_train=args.train, n_dev=args.dev)
    print(f"wrote {paths.train}, {paths.dev}, {paths.tables}, "
          f"{paths.embeddings}, {paths.gazetteer}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
