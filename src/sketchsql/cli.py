"""Command-line interface: tag, train, eval, and predict subcommands."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import harness
from .encoder import load_embeddings
from .executor import evaluate_dataset
from .kernel import KernelError, load_checkpoint
from .sketch import render
from .slots import check_type_dim
from .tagger import MODES, Gazetteer, recognize


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sketchsql",
                                     description="Sketch-based text-to-SQL slot filler")
    sub = parser.add_subparsers(dest="command", required=True)

    tag = sub.add_parser("tag", help="type-tag a question against a table")
    tag.add_argument("--question", required=True)
    tag.add_argument("--tables", required=True, help="tables JSONL file")
    tag.add_argument("--table-id", required=True)
    tag.add_argument("--mode", choices=MODES, default="insensitive")
    tag.add_argument("--gazetteer", help="gazetteer TSV file")

    train = sub.add_parser("train", help="train from a config file")
    train.add_argument("--config", required=True)
    train.add_argument("--seed", type=int)
    train.add_argument("--mode", choices=MODES)
    train.add_argument("--checkpoint", help="checkpoint output path override")

    ev = sub.add_parser("eval", help="score predictions or a checkpoint on a dataset")
    ev.add_argument("--examples", required=True)
    ev.add_argument("--tables", required=True)
    source = ev.add_mutually_exclusive_group(required=True)
    source.add_argument("--preds", help="JSONL of predicted queries, parallel to examples")
    source.add_argument("--checkpoint", help="model checkpoint to run instead of --preds")
    ev.add_argument("--config", help="config file (needed with --checkpoint)")

    pred = sub.add_parser("predict", help="turn one question into SQL")
    pred.add_argument("--question", required=True)
    pred.add_argument("--tables", required=True)
    pred.add_argument("--table-id", required=True)
    pred.add_argument("--checkpoint", required=True)
    pred.add_argument("--config", required=True)
    return parser


def _load_table(path, table_id):
    tables = harness.load_tables(path)
    table = tables.get(table_id)
    if table is None:
        raise harness.DatasetError(f"table {table_id!r} not found in {path}")
    return table


def _config_with_overrides(args) -> harness.TrainConfig:
    overrides = {"seed": args.seed, "mode": args.mode, "checkpoint_path": args.checkpoint}
    # replace() builds a new config, so the overrides pass TrainConfig's checks too
    return replace(harness.TrainConfig.from_file(args.config),
                   **{name: value for name, value in overrides.items() if value is not None})


def _load_inputs(config_path, config: harness.TrainConfig):
    """(embeddings, gazetteer or None) that the config names, loaded before its datasets;
    the word width is known then, so a type width that does not fit it fails here too."""
    count = len(config.embedding_paths)
    if not 1 <= count <= 2:
        raise ValueError(f"{config_path}: embedding_paths must name 1 or 2 files, got {count}")
    emb = load_embeddings(config.embedding_paths)
    check_type_dim(config.mode, config.type_dim, emb.dim)
    gaz = Gazetteer.from_tsv(config.gazetteer_path) if config.gazetteer_path else None
    return emb, gaz


def _restore_model(config_path, checkpoint_path):
    config = harness.TrainConfig.from_file(config_path)
    emb, gaz = _load_inputs(config_path, config)
    model, store = harness.build_model(config, emb)
    state = load_checkpoint(checkpoint_path)
    try:
        store.load_state(state)
    except KernelError as exc:
        word = state.get("col.col.fw.Wx")  # (4·hidden, word width): reads bare word vectors
        width = word.shape[1] if word is not None and word.ndim == 2 else "unknown"
        raise KernelError(f"{checkpoint_path}: does not fit the model of {config_path} (word width "
                          f"{width}; embeddings {', '.join(config.embedding_paths)}: width "
                          f"{emb.dim}): {exc}") from None
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
    emb, gaz = _load_inputs(args.config, config)
    examples, tables = harness.load_dataset(config.train_path, config.tables_path)
    dev = None
    if config.dev_path:
        dev, dev_tables = harness.load_dataset(config.dev_path, config.tables_path)
        tables.update(dev_tables)

    def log(entry):
        print(json.dumps(entry), file=sys.stderr)

    result = harness.train(config, examples, tables, dev, emb=emb, gazetteer=gaz, log=log)
    summary = {"epochs_run": len(result.epoch_losses),
               "final_loss": result.epoch_losses[-1] if result.epoch_losses else None,
               "best_dev_qm": result.best_dev_qm,
               "checkpoint": result.checkpoint_path}
    print(json.dumps(summary))
    return 0


def _cmd_eval(args) -> int:
    if args.checkpoint:  # the model's inputs load before the datasets
        if not args.config:
            raise ValueError("--checkpoint needs --config for the model shape")
        model, gaz = _restore_model(args.config, args.checkpoint)
    examples, tables = harness.load_dataset(args.examples, args.tables)
    if args.preds:
        preds = harness.load_predictions(args.preds, examples, tables)
        metrics = evaluate_dataset(preds, [ex.gold for ex in examples],
                                   [ex.table_id for ex in examples], tables)
    else:
        metrics = harness.evaluate_model(model, examples, tables, gaz)
    print(json.dumps(metrics.to_dict()))
    return 0


def _cmd_predict(args) -> int:
    model, gaz = _restore_model(args.config, args.checkpoint)
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
