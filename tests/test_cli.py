import json
import re

import pytest

from helpers import (MAGAZINE_CONTENT_TAGS, MAGAZINE_GOLD_SQL,
                     MAGAZINE_INSENSITIVE_TAGS, MAGAZINE_QUESTION, magazine_table)
from sketchsql import harness as H
from sketchsql import kernel as K
from sketchsql.cli import main
from sketchsql.encoder import load_embeddings
from sketchsql.sketch import SqlQuery
from sketchsql.synth import generate_corpus


@pytest.fixture
def magazine_files(tmp_path):
    tables = tmp_path / "tables.jsonl"
    examples = tmp_path / "examples.jsonl"
    gazetteer = tmp_path / "gazetteer.tsv"
    H.write_tables({"mag": magazine_table()}, tables)
    H.write_examples([H.Example(question=MAGAZINE_QUESTION, table_id="mag",
                                gold=SqlQuery.from_dict(MAGAZINE_GOLD_SQL))], examples)
    gazetteer.write_text("mort drucker\tperson\nal jaffee\tperson\n", encoding="utf-8")
    return {"tables": str(tables), "examples": str(examples), "gazetteer": str(gazetteer)}


class TestTagCommand:
    def test_content_mode_worked_example(self, magazine_files, capsys):
        code = main(["tag", "--question", MAGAZINE_QUESTION,
                     "--tables", magazine_files["tables"], "--table-id", "mag",
                     "--mode", "content"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == MAGAZINE_CONTENT_TAGS

    def test_insensitive_mode_with_gazetteer(self, magazine_files, capsys):
        code = main(["tag", "--question", MAGAZINE_QUESTION,
                     "--tables", magazine_files["tables"], "--table-id", "mag",
                     "--gazetteer", magazine_files["gazetteer"]])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == MAGAZINE_INSENSITIVE_TAGS

    def test_unknown_table_id_fails(self, magazine_files, capsys):
        code = main(["tag", "--question", "x?", "--tables", magazine_files["tables"],
                     "--table-id", "ghost"])
        assert code == 1
        assert "ghost" in capsys.readouterr().err


class TestEvalCommand:
    def test_perfect_predictions_all_ones(self, magazine_files, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps(MAGAZINE_GOLD_SQL) + "\n", encoding="utf-8")
        code = main(["eval", "--examples", magazine_files["examples"],
                     "--tables", magazine_files["tables"], "--preds", str(preds)])
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics == {"n": 1, "acc_lf": 1.0, "acc_qm": 1.0, "acc_ex": 1.0,
                           "acc_agg": 1.0, "acc_sel": 1.0, "acc_where": 1.0}

    def test_length_mismatch_fails(self, magazine_files, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        preds.write_text("", encoding="utf-8")
        code = main(["eval", "--examples", magazine_files["examples"],
                     "--tables", magazine_files["tables"], "--preds", str(preds)])
        assert code == 1

    def test_missing_dataset_path_fails_with_message(self, magazine_files, capsys):
        code = main(["eval", "--examples", "/nonexistent/examples.jsonl",
                     "--tables", magazine_files["tables"], "--preds", "x"])
        assert code == 1
        assert "error" in capsys.readouterr().err


@pytest.fixture
def untrained_checkpoint(tmp_path):
    """A small synth corpus, a config for it and the checkpoint of an untrained model."""
    paths = generate_corpus(tmp_path / "corpus", seed=0, n_train=4, n_dev=3)
    config = {"hidden_width": 8, "dropout": 0.0, "mode": "content",
              "embedding_paths": [str(paths.embeddings)], "gazetteer_path": str(paths.gazetteer)}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    _, store = H.build_model(H.TrainConfig(**config), load_embeddings([paths.embeddings]))
    K.save_checkpoint(store, tmp_path / "model.tsq")
    return paths, str(config_path), str(tmp_path / "model.tsq")


class TestEvalAndPredictOptions:
    def test_checkpoint_is_scored_by_evaluate_model(self, untrained_checkpoint, monkeypatch,
                                                    capsys):
        paths, config, checkpoint = untrained_checkpoint
        calls = []
        original = H.evaluate_model

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(H, "evaluate_model", spy)
        code = main(["eval", "--examples", str(paths.dev), "--tables", str(paths.tables),
                     "--checkpoint", checkpoint, "--config", config])
        assert code == 0
        [(model, examples, tables, gazetteer)] = calls
        assert len(examples) == 3 and gazetteer is not None
        assert json.loads(capsys.readouterr().out) == original(model, examples, tables,
                                                               gazetteer).to_dict()

    def test_preds_and_checkpoint_are_mutually_exclusive(self, untrained_checkpoint, capsys):
        paths, config, checkpoint = untrained_checkpoint
        code = main(["eval", "--examples", str(paths.dev), "--tables", str(paths.tables),
                     "--preds", str(paths.dev), "--checkpoint", checkpoint, "--config", config])
        assert code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_eval_needs_preds_or_checkpoint(self, magazine_files, capsys):
        code = main(["eval", "--examples", magazine_files["examples"],
                     "--tables", magazine_files["tables"]])
        assert code == 2
        assert "--preds" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_seed_option_is_gone(self, untrained_checkpoint, command, capsys):
        paths, config, checkpoint = untrained_checkpoint
        args = {"eval": ["--examples", str(paths.dev)],
                "predict": ["--question", "x?", "--table-id", "t"]}[command]
        code = main([command, *args, "--tables", str(paths.tables), "--checkpoint", checkpoint,
                     "--config", config, "--seed", "3"])
        assert code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


class TestReadersNameTheirFile:
    NOT_UTF8 = b"\xff\xfe"

    @pytest.mark.parametrize("kind", ["config", "examples", "tables", "embeddings",
                                      "gazetteer"])
    def test_non_utf8_bytes_name_file_and_line(self, kind, magazine_files, tmp_path, capsys):
        bad = tmp_path / f"bad-{kind}"
        config = tmp_path / "config.json"
        base = {"hidden_width": 8, "train_path": magazine_files["examples"],
                "tables_path": magazine_files["tables"]}
        if kind == "config":
            bad.write_bytes(b'{"hidden_width": 8,\n"mode": "' + self.NOT_UTF8 + b'"}\n')
            argv = ["train", "--config", str(bad)]
        elif kind in ("examples", "tables"):
            with open(magazine_files[kind], "rb") as fh:
                bad.write_bytes(fh.read() + b'{"question": "' + self.NOT_UTF8 + b'"}\n')
            files = dict(magazine_files, **{kind: str(bad)})
            argv = ["eval", "--examples", files["examples"], "--tables", files["tables"],
                    "--preds", files["examples"]]
        elif kind == "embeddings":
            bad.write_bytes(b"cat 1.0 2.0\nd" + self.NOT_UTF8 + b"g 1.0 2.0\n")
            config.write_text(json.dumps(dict(base, embedding_paths=[str(bad)])),
                              encoding="utf-8")
            argv = ["train", "--config", str(config)]
        else:
            bad.write_bytes(b"al jaffee\tperson\nmort " + self.NOT_UTF8 + b"\tperson\n")
            argv = ["tag", "--question", "x?", "--tables", magazine_files["tables"],
                    "--table-id", "mag", "--gazetteer", str(bad)]
        assert main(argv) == 1
        assert re.match(f"error: {re.escape(str(bad))}:2: not UTF-8 text",
                        one_line_error(capsys))

    def test_config_json_syntax_error_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"hidden_width": 8,\n "epochs": 2,}\n', encoding="utf-8")
        assert main(["train", "--config", str(path)]) == 1
        assert one_line_error(capsys).startswith(
            f"error: {path}:2: bad JSON (Expecting property name")

    def test_empty_training_set_names_the_file(self, magazine_files, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"hidden_width": 8, "train_path": str(empty),
                                      "tables_path": magazine_files["tables"]}),
                          encoding="utf-8")
        assert main(["train", "--config", str(config)]) == 1
        assert one_line_error(capsys) == f"error: {empty}: no training examples\n"


class TestArgumentErrors:
    def test_unknown_flag_nonzero_exit(self, capsys):
        code = main(["tag", "--question", "x", "--tables", "t", "--table-id", "i",
                     "--warp-speed"])
        assert code == 2
        assert "usage" in capsys.readouterr().err

    def test_no_command_nonzero_exit(self, capsys):
        assert main([]) == 2

    def test_unknown_mode_rejected(self, capsys):
        code = main(["tag", "--question", "x", "--tables", "t", "--table-id", "i",
                     "--mode", "psychic"])
        assert code == 2


class TestConfigErrors:
    @pytest.mark.parametrize("bad", [{"eval_every": 0}, {"epochs": "2"}, {"dropout": "0.3"},
                                     {"dropout": True}, {"seed": "1"}, {"seed": 1.5},
                                     {"seed": -1}, {"type_dim": "10"}, {"type_dim": 0},
                                     {"stop_at_train_qm": "0.9"},
                                     {"embedding_paths": "emb.txt"},
                                     {"train_path": 5, "tables_path": "tables.jsonl"},
                                     {"checkpoint_path": ["model.tsq"]},
                                     5, None, [], [1]])
    def test_bad_field_is_one_line_error(self, bad, tmp_path, capsys):
        # a config that is not a JSON object is reported by file, a bad field by name
        path = tmp_path / "config.json"
        raw = dict({"hidden_width": 8}, **bad) if isinstance(bad, dict) else bad
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if isinstance(bad, dict):
            assert next(iter(bad)) in err
        else:
            assert f"{path}: config must be a JSON object" in err


class TestTrainEvalPredictPipeline:
    def test_end_to_end_small(self, tmp_path, capsys):
        paths = generate_corpus(tmp_path / "corpus", seed=0, n_train=12, n_dev=4)
        config = {
            "hidden_width": 8,
            "dropout": 0.0,
            "batch_size": 6,
            "epochs": 1,
            "seed": 0,
            "mode": "content",
            "embedding_paths": [str(paths.embeddings)],
            "gazetteer_path": str(paths.gazetteer),
            "train_path": str(paths.train),
            "dev_path": str(paths.dev),
            "tables_path": str(paths.tables),
            "checkpoint_path": str(tmp_path / "model.tsq"),
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")

        code = main(["train", "--config", str(config_path)])
        out = capsys.readouterr().out
        assert code == 0
        summary = json.loads(out)
        assert summary["epochs_run"] == 1
        assert (tmp_path / "model.tsq").exists()

        code = main(["eval", "--examples", str(paths.dev), "--tables", str(paths.tables),
                     "--checkpoint", str(tmp_path / "model.tsq"),
                     "--config", str(config_path)])
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert set(metrics) == {"n", "acc_lf", "acc_qm", "acc_ex",
                                "acc_agg", "acc_sel", "acc_where"}
        assert metrics["n"] == 4

        first_example, _ = H.load_dataset(paths.dev, paths.tables)
        code = main(["predict", "--question", first_example[0].question,
                     "--tables", str(paths.tables), "--table-id", first_example[0].table_id,
                     "--checkpoint", str(tmp_path / "model.tsq"),
                     "--config", str(config_path)])
        assert code == 0
        assert capsys.readouterr().out.startswith("SELECT ")

    def test_checkpoint_architecture_mismatch_fails(self, tmp_path, capsys):
        paths = generate_corpus(tmp_path / "corpus", seed=0, n_train=8, n_dev=2)
        base = {
            "hidden_width": 8, "dropout": 0.0, "batch_size": 4, "epochs": 1,
            "seed": 0, "mode": "content",
            "embedding_paths": [str(paths.embeddings)],
            "train_path": str(paths.train), "tables_path": str(paths.tables),
            "checkpoint_path": str(tmp_path / "model.tsq"),
        }
        (tmp_path / "config.json").write_text(json.dumps(base), encoding="utf-8")
        assert main(["train", "--config", str(tmp_path / "config.json")]) == 0
        capsys.readouterr()

        wider = dict(base, hidden_width=12)
        (tmp_path / "wider.json").write_text(json.dumps(wider), encoding="utf-8")
        code = main(["eval", "--examples", str(paths.dev), "--tables", str(paths.tables),
                     "--checkpoint", str(tmp_path / "model.tsq"),
                     "--config", str(tmp_path / "wider.json")])
        assert code == 1
        assert "mismatch" in capsys.readouterr().err
