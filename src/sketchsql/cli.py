"""Command-line interface: tag, train, eval, and predict subcommands."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import harness
from .encoder import load_embeddings
from .executor import evaluate_dataset
from .kernel import load_checkpoint
from .sketch import render
from .tagger import Gazetteer, recognize


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sketchsql",
                                     description="Sketch-based text-to-SQL slot filler")
    sub = parser.add_subparsers(dest="command", required=True)

    tag = sub.add_parser("tag", help="type-tag a question against a table")
    tag.add_argument("--question", required=True)
    tag.add_argument("--tables", required=True, help="tables JSONL file")
    tag.add_argument("--table-id", required=True)
    tag.add_argument("--mode", choices=("insensitive", "content"), default="insensitive")
    tag.add_argument("--gazetteer", help="gazetteer TSV file")

    train = sub.add_parser("train", help="train from a config file")
    train.add_argument("--config", required=True)
    train.add_argument("--seed", type=int)
    train.add_argument("--mode", choices=("insensitive", "content"))
    train.add_argument("--checkpoint", help="checkpoint output path override")

    ev = sub.add_parser("eval", help="score predictions or a checkpoint on a dataset")
    ev.add_argument("--examples", required=True)
    ev.add_argument("--tables", required=True)
    source = ev.add_mutually_exclusive_group(required=True)
    source.add_argument("--preds", help="JSONL of predicted queries, parallel to examples")
    source.add_argument("--checkpoint", help="model checkpoint to run instead of --preds")
    ev.add_argument("--config", help="config file (needed with --checkpoint)")
    ev.add_argument("--mode", choices=("insensitive", "content"))

    pred = sub.add_parser("predict", help="turn one question into SQL")
    pred.add_argument("--question", required=True)
    pred.add_argument("--tables", required=True)
    pred.add_argument("--table-id", required=True)
    pred.add_argument("--checkpoint", required=True)
    pred.add_argument("--config", required=True)
    pred.add_argument("--mode", choices=("insensitive", "content"))
    return parser


def _load_table(path, table_id):
    tables = harness.load_tables(path)
    table = tables.get(table_id)
    if table is None:
        raise harness.DatasetError(f"table {table_id!r} not found in {path}")
    return table


def _config_with_overrides(args) -> harness.TrainConfig:
    overrides = {"seed": getattr(args, "seed", None), "mode": getattr(args, "mode", None),
                 "checkpoint_path": getattr(args, "checkpoint", None)}
    # replace() builds a new config, so the overrides pass TrainConfig's checks too
    return replace(harness.TrainConfig.from_file(args.config),
                   **{name: value for name, value in overrides.items() if value is not None})


def _restore_model(config: harness.TrainConfig, checkpoint_path):
    emb = load_embeddings(config.embedding_paths)
    model, store = harness.build_model(config, emb)
    store.load_state(load_checkpoint(checkpoint_path))
    gaz = Gazetteer.from_tsv(config.gazetteer_path) if config.gazetteer_path else None
    return model, gaz


def _cmd_tag(args) -> int:
    table = _load_table(args.tables, args.table_id)
    gaz = Gazetteer.from_tsv(args.gazetteer) if args.gazetteer else None
    tq = recognize(args.question, table.header, table=table, mode=args.mode, gazetteer=gaz)
    print(json.dumps(tq.display_tags(table.header)))
    return 0


def _cmd_train(args) -> int:
    config = _config_with_overrides(args)
    if not config.train_path or not config.tables_path:
        raise ValueError("config needs train_path and tables_path")
    examples, tables = harness.load_dataset(config.train_path, config.tables_path)
    dev = None
    if config.dev_path:
        dev, dev_tables = harness.load_dataset(config.dev_path, config.tables_path)
        tables.update(dev_tables)

    def log(entry):
        print(json.dumps(entry), file=sys.stderr)

    result = harness.train(config, examples, tables, dev_examples=dev, log=log)
    summary = {"epochs_run": len(result.epoch_losses),
               "final_loss": result.epoch_losses[-1] if result.epoch_losses else None,
               "best_dev_qm": result.best_dev_qm,
               "checkpoint": result.checkpoint_path}
    print(json.dumps(summary))
    return 0


def _cmd_eval(args) -> int:
    examples, tables = harness.load_dataset(args.examples, args.tables)
    if args.preds:
        preds = harness.load_predictions(args.preds, examples, tables)
        metrics = evaluate_dataset(preds, [ex.gold for ex in examples],
                                   [ex.table_id for ex in examples], tables)
    else:
        if not args.config:
            raise ValueError("--checkpoint needs --config for the model shape")
        model, gaz = _restore_model(_config_with_overrides(args), args.checkpoint)
        metrics = harness.evaluate_model(model, examples, tables, gaz)
    print(json.dumps(metrics.to_dict()))
    return 0


def _cmd_predict(args) -> int:
    config = _config_with_overrides(args)
    model, gaz = _restore_model(config, args.checkpoint)
    table = _load_table(args.tables, args.table_id)
    query = harness.predict(model, args.question, table, gaz)
    print(render(query, table.header, table.id))
    return 0


COMMANDS = {"tag": _cmd_tag, "train": _cmd_train, "eval": _cmd_eval, "predict": _cmd_predict}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
