import json
import re

import pytest

from helpers import (MAGAZINE_CONTENT_TAGS, MAGAZINE_GOLD_SQL,
                     MAGAZINE_INSENSITIVE_TAGS, MAGAZINE_QUESTION, damaged, hostile,
                     magazine_table, with_inf_backward)
from sketchsql import harness as H
from sketchsql import kernel as K
from sketchsql.cli import main
from sketchsql.encoder import load_embeddings
from sketchsql.sketch import SqlQuery
from sketchsql.synth import generate_corpus
from sketchsql.tables import Table


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

    def test_non_ascii_digits_are_not_numbers(self, magazine_files, capsys):
        code = main(["tag", "--question", "is it ١٩٩٩ or ١٢",
                     "--tables", magazine_files["tables"], "--table-id", "mag"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == ["none"] * 5


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
        assert one_line_error(capsys) == f"error: {preds}: 0 predictions for 1 examples\n"

    @pytest.mark.parametrize("query,message", [
        ({"sel": 5, "agg": 0, "conds": []}, "select column 5 outside schema of 3"),
        ({"sel": 0, "agg": 0, "conds": [[7, 0, "x"]]}, "condition column 7 outside schema of 3"),
    ], ids=["select", "condition"])
    def test_prediction_outside_its_table_names_file_and_line(self, query, message,
                                                              magazine_files, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps(query) + "\n", encoding="utf-8")
        code = main(["eval", "--examples", magazine_files["examples"],
                     "--tables", magazine_files["tables"], "--preds", str(preds)])
        assert code == 1
        assert one_line_error(capsys) == f"error: {preds}:1: {message}\n"

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
        # a model's seed and mode are fixed by the config it was trained with
        paths, config, checkpoint = untrained_checkpoint
        args = {"eval": ["--examples", str(paths.dev)],
                "predict": ["--question", "x?", "--table-id", "t"]}[command]
        for option in (["--seed", "3"], ["--mode", "content"]):
            code = main([command, *args, "--tables", str(paths.tables), "--checkpoint",
                         checkpoint, "--config", config, *option])
            assert code == 2
            assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_garbage_checkpoint_fails_with_one_line(self, untrained_checkpoint, tmp_path,
                                                    command, capsys):
        paths, config, _ = untrained_checkpoint
        junk = tmp_path / "junk.tsq"
        junk.write_bytes(b"garbage")
        args = {"eval": ["--examples", str(paths.dev)],
                "predict": ["--question", "x?", "--table-id", "t"]}[command]
        code = main([command, *args, "--tables", str(paths.tables), "--checkpoint", str(junk),
                     "--config", config])
        assert code == 1
        message = f"error: {junk}: not an .npz checkpoint of float64 arrays\n"
        assert one_line_error(capsys) == message


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def exit_0_or_one_line_naming(argv, capsys, *names) -> int:
    """Run main(argv): it exits 0 with one line on stdout and nothing on stderr, or exits
    1 with nothing on stdout and one stderr line that starts with one of `names`."""
    code = main(argv)
    out, err = capsys.readouterr()
    if code == 0:
        assert err == "" and out.count("\n") == 1, (argv, err)
    else:
        assert code == 1 and out == "" and err.count("\n") == 1, (argv, code, err)
        assert any(err.startswith(f"error: {name}") for name in names), (argv, err)
    return code


def restore_args(paths, command):
    """Arguments of `eval --checkpoint` or `predict` on the corpus's first dev question,
    without the checkpoint and the config."""
    if command == "eval":
        return ["eval", "--examples", str(paths.dev), "--tables", str(paths.tables)]
    [example, *_], _ = H.load_dataset(paths.dev, paths.tables)
    return ["predict", "--question", example.question, "--tables", str(paths.tables),
            "--table-id", example.table_id]


class TestCheckpointAgainstItsModel:
    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_other_word_width_names_checkpoint_embeddings_and_widths(
            self, untrained_checkpoint, tmp_path, command, capsys):
        paths, config, checkpoint = untrained_checkpoint
        narrow = tmp_path / "narrow.txt"  # every line cut to its first 3 numbers
        narrow.write_text("".join(" ".join(line.split(" ")[:4]) + "\n" for line in
                                  paths.embeddings.read_text(encoding="utf-8").splitlines()),
                          encoding="utf-8")
        narrow_config = tmp_path / "narrow.json"
        narrow_config.write_text(json.dumps(dict(json.loads(open(config).read()),
                                                 embedding_paths=[str(narrow)])),
                                 encoding="utf-8")
        code = main([*restore_args(paths, command), "--checkpoint", checkpoint,
                     "--config", str(narrow_config)])
        assert code == 1
        err = one_line_error(capsys)
        assert err.startswith(f"error: {checkpoint}: does not fit the model of {narrow_config} "
                              f"(word width 50; embeddings {narrow}: width 3): shape mismatch "
                              "for "), err


class TestDamagedCheckpoint:
    """Seeded byte damage to a width-8 checkpoint (a slice of the fault-injection sweep):
    each run exits 0, or exits 1 with one stderr line that names the checkpoint."""

    def test_eval_and_predict_exit_0_or_one_line_naming_it(self, untrained_checkpoint,
                                                           tmp_path, capsys):
        paths, config, checkpoint = untrained_checkpoint
        raw = open(checkpoint, "rb").read()
        path = tmp_path / "damaged.tsq"
        runs = [restore_args(paths, command) for command in ("eval", "predict")]
        codes = []
        for seed in range(300):
            path.write_bytes(damaged(raw, seed))
            for args in runs:
                codes.append(exit_0_or_one_line_naming(
                    [*args, "--checkpoint", str(path), "--config", config], capsys, f"{path}: "))
        assert codes.count(1) > len(codes) // 2  # nearly every damage is found


class TestDamagedInputFiles:
    """Slices of the fault-injection sweep over the input files: seeded byte damage to
    the gazetteer, and hostile JSON values in the dev, tables and config files. Every seed runs
    the commands that load no model; those that restore the checkpoint, which costs
    about 12 ms a run, take turns over the seeds."""

    @staticmethod
    def model_runs(paths, config, checkpoint):
        return [[*restore_args(paths, command), "--checkpoint", checkpoint, "--config", config]
                for command in ("eval", "predict")]

    def test_gazetteer_bytes(self, untrained_checkpoint, capsys):
        paths, config, checkpoint = untrained_checkpoint
        gazetteer = paths.gazetteer
        raw = gazetteer.read_bytes()
        tag = ["tag", *restore_args(paths, "predict")[1:], "--mode", "content",
               "--gazetteer", str(gazetteer)]
        model_runs = self.model_runs(paths, config, checkpoint)
        codes = []
        try:
            for seed in range(300):
                gazetteer.write_bytes(damaged(raw, seed))
                for argv in (tag, model_runs[seed % 2]):
                    codes.append(exit_0_or_one_line_naming(argv, capsys, gazetteer))
        finally:
            gazetteer.write_bytes(raw)
        assert 0 < codes.count(1) < len(codes)  # the seeds reach both outcomes

    @pytest.mark.parametrize("damaged_file", ["dev", "tables"])
    def test_hostile_json_values(self, untrained_checkpoint, capsys, damaged_file):
        paths, config, checkpoint = untrained_checkpoint
        path = getattr(paths, damaged_file)
        raw = path.read_text(encoding="utf-8")
        cheap_runs = [[*restore_args(paths, "eval"), "--preds", str(paths.dev)],
                      ["tag", *restore_args(paths, "predict")[1:], "--mode", "content"]]
        model_runs = self.model_runs(paths, config, checkpoint)
        # a damaged table may fail where a dev example refers to it
        names = [path] if damaged_file == "dev" else [path, paths.dev]
        codes = []
        try:
            for seed in range(150):
                path.write_text(hostile(raw, seed), encoding="utf-8")
                for argv in (*cheap_runs, model_runs[seed % 2]):
                    codes.append(exit_0_or_one_line_naming(argv, capsys, *names))
        finally:
            path.write_text(raw, encoding="utf-8")
        assert 0 < codes.count(1) < len(codes)

    def test_hostile_config_values(self, untrained_checkpoint, capsys):
        # never `train`: "epochs": 10**30 is a valid config that trains for ever
        paths, config, checkpoint = untrained_checkpoint
        raw = open(config, encoding="utf-8").read()
        before = json.loads(raw)
        model_runs = self.model_runs(paths, config, checkpoint)
        codes = []
        try:
            for seed in range(150):
                text = hostile(raw, seed)
                after = json.loads(text)
                [field] = [key for key in before
                           if key not in after or json.dumps(after[key]) != json.dumps(before[key])]
                # "é", the one hostile string, names no file as a path: its error names it
                names = [config, field, "\u00e9"]
                with open(config, "w", encoding="utf-8") as fh:
                    fh.write(text)
                argv = model_runs[seed % 2]
                code = main(argv)
                out, err = capsys.readouterr()
                if code == 0:
                    assert err == "" and out.count("\n") == 1, (text, argv, err)
                else:
                    assert code == 1 and out == "" and err.count("\n") == 1, (text, code, err)
                    assert err.startswith("error: ") and any(
                        str(name) in err for name in names), (text, err)
                codes.append(code)
        finally:
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(raw)
        assert 0 < codes.count(1) < len(codes)


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

    @staticmethod
    def bad_json_run(kind, text, magazine_files, tmp_path):
        """(file, argv, where): text as the config of `train`, or else appended as line 2
        of the examples, tables or predictions file of `eval`."""
        bad = tmp_path / f"bad-{kind}"
        if kind == "config":
            bad.write_text(text, encoding="utf-8")
            return bad, ["train", "--config", str(bad)], ""
        source = magazine_files.get(kind, magazine_files["examples"])
        with open(source, encoding="utf-8") as fh:
            bad.write_text(fh.read() + text, encoding="utf-8")
        files = dict(magazine_files, preds=magazine_files["examples"])
        files[kind] = str(bad)
        return bad, ["eval", "--examples", files["examples"], "--tables", files["tables"],
                     "--preds", files["preds"]], ":2"

    @pytest.mark.parametrize("kind", ["config", "examples", "tables", "preds"])
    def test_integer_past_digit_limit_names_the_file(self, kind, magazine_files, tmp_path,
                                                     capsys):
        huge = "9" * 5000
        text = ('{"hidden_width": 8,\n"epochs": ' + huge + '}\n' if kind == "config"
                else '{"n": ' + huge + '}\n')
        bad, argv, where = self.bad_json_run(kind, text, magazine_files, tmp_path)
        assert main(argv) == 1
        assert one_line_error(capsys).startswith(
            f"error: {bad}{where}: bad JSON (Exceeds the limit (4300 digits)")

    @pytest.mark.parametrize("kind", ["config", "examples", "tables", "preds"])
    def test_deep_nesting_names_the_file(self, kind, magazine_files, tmp_path, capsys):
        deep = "[" * 5000 + "]" * 5000 + "\n"
        bad, argv, where = self.bad_json_run(kind, deep, magazine_files, tmp_path)
        assert main(argv) == 1
        assert one_line_error(capsys) == f"error: {bad}{where}: bad JSON (nested too deeply)\n"

    def test_empty_training_set_names_the_file(self, magazine_files, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n", encoding="utf-8")
        embeddings = tmp_path / "emb.txt"
        embeddings.write_text("cat 1.0 2.0\n", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"hidden_width": 8, "train_path": str(empty),
                                      "tables_path": magazine_files["tables"],
                                      "embedding_paths": [str(embeddings)]}),
                          encoding="utf-8")
        assert main(["train", "--config", str(config)]) == 1
        assert one_line_error(capsys) == f"error: {empty}: no training examples\n"


class TestLoadersKeepJsonTypes:
    """A field of the wrong JSON type is a one-line error naming file, line and field;
    it is never turned into a string first."""

    TABLE = '{"id": "one", "header": ["n"], "types": ["real"], "rows": [[1], [2]]}'
    EXAMPLE = ('{"question": "how many n?", "table_id": "one", '
               '"sql": {"sel": 0, "agg": 3, "conds": [[0, 0, "1"]]}}')
    PRED = '{"sel": 0, "agg": 3, "conds": [[0, 0, "1"]]}'

    @pytest.mark.parametrize("bad,old,new,message", [
        ("tables", '"id": "one"', '"id": 7', "id must be a string, got 7"),
        ("examples", '"table_id": "one"', '"table_id": 7', "table_id must be a string, got 7"),
        ("examples", '"question": "how many n?"', '"question": 5',
         "question must be a string, got 5"),
        ("tables", "[[1], [2]]", '[[1], [{"v": 1}]]',
         "row 1: a cell must be a string, number, bool or null, got {'v': 1}"),
        ("tables", "[[1], [2]]", "[[1], [[3]]]",
         "row 1: a cell must be a string, number, bool or null, got [3]"),
        ("examples", '[[0, 0, "1"]]', "[[0, 0, 1e400]]",
         "condition value must be a finite number, got inf"),
        ("preds", '[[0, 0, "1"]]', "[[0, 0, -1e400]]",
         "condition value must be a finite number, got -inf"),
        ("tables", TABLE, "[1]", "a table must be a JSON object, got [1]"),
        ("examples", EXAMPLE, "[1]", "an example must be a JSON object, got [1]"),
        ("examples", EXAMPLE, '"x"', "an example must be a JSON object, got 'x'"),
    ], ids=["id", "table_id", "question", "object-cell", "array-cell", "gold-value",
            "pred-value", "table-array", "example-array", "example-string"])
    def test_wrong_json_type_is_one_line_error(self, bad, old, new, message, magazine_files,
                                               tmp_path, capsys):
        with open(magazine_files["tables"], encoding="utf-8") as fh:
            tables = [fh.read().strip(), self.TABLE]
        with open(magazine_files["examples"], encoding="utf-8") as fh:
            examples = [fh.read().strip(), self.EXAMPLE]
        lines = {"tables": tables, "examples": examples,
                 "preds": [json.dumps(MAGAZINE_GOLD_SQL), self.PRED]}
        assert old in lines[bad][1]
        lines[bad][1] = lines[bad][1].replace(old, new)
        paths = {}
        for kind, text in lines.items():
            paths[kind] = tmp_path / f"{kind}.jsonl"
            paths[kind].write_text("\n".join(text) + "\n", encoding="utf-8")
        assert main(["eval", "--examples", str(paths["examples"]),
                     "--tables", str(paths["tables"]), "--preds", str(paths["preds"])]) == 1
        assert one_line_error(capsys) == f"error: {paths[bad]}:2: {message}\n"


class TestOutOfRangeNumbers:
    """A cell beyond float64 is text: it matches its own digits and fails SUM, never raises."""

    HUGE = str(10**400)

    @pytest.fixture
    def huge_files(self, tmp_path):
        table = Table(id="big", header=["n", "name"], types=["real", "text"],
                      rows=[[10**400, "a"], [5, "b"]])
        examples = [H.Example(question=f"how many name when n is {self.HUGE}?", table_id="big",
                              gold=SqlQuery(agg=3, sel=1, conds=[(0, 0, self.HUGE)])),
                    H.Example(question="what is the total n?", table_id="big",
                              gold=SqlQuery(agg=4, sel=0))]
        H.write_tables({"big": table}, tmp_path / "tables.jsonl")
        H.write_examples(examples, tmp_path / "examples.jsonl")
        with open(tmp_path / "preds.jsonl", "w", encoding="utf-8") as fh:
            for ex in examples:
                fh.write(json.dumps(ex.gold.to_dict()) + "\n")
        return tmp_path

    def test_tag_content(self, huge_files, capsys):
        code = main(["tag", "--question", f"is n 5 or {self.HUGE}?",
                     "--tables", str(huge_files / "tables.jsonl"), "--table-id", "big",
                     "--mode", "content"])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        assert json.loads(out) == ["none", "column", "n", "none", "n", "none"]

    def test_eval_preds(self, huge_files, capsys):
        code = main(["eval", "--examples", str(huge_files / "examples.jsonl"),
                     "--tables", str(huge_files / "tables.jsonl"),
                     "--preds", str(huge_files / "preds.jsonl")])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        # the SUM fails on both sides, which scores as an execution mismatch
        assert json.loads(out) == {"n": 2, "acc_lf": 1.0, "acc_qm": 1.0, "acc_ex": 0.5,
                                   "acc_agg": 1.0, "acc_sel": 1.0, "acc_where": 1.0}


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


    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_checkpoint_path_fails_before_training(self, where, tmp_path, capsys):
        paths = generate_corpus(tmp_path / "corpus", seed=0, n_train=24, n_dev=4)
        if where == "directory":
            checkpoint = tmp_path / "out"
            checkpoint.mkdir()
            message = f"checkpoint_path {str(checkpoint)!r} is a directory"
        else:
            checkpoint = tmp_path / "nodir" / "model.tsq"
            message = (f"checkpoint_path {str(checkpoint)!r}: "
                       f"no directory {str(checkpoint.parent)!r}")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "hidden_width": 8, "epochs": 1, "batch_size": 8, "mode": "content",
            "embedding_paths": [str(paths.embeddings)], "gazetteer_path": str(paths.gazetteer),
            "train_path": str(paths.train), "dev_path": str(paths.dev),
            "tables_path": str(paths.tables), "checkpoint_path": str(checkpoint)}),
            encoding="utf-8")
        assert main(["train", "--config", str(config)]) == 1
        # the only line on stderr: no epoch was logged
        assert one_line_error(capsys) == f"error: {message}\n"

    def test_content_mode_type_width_other_than_word_width_is_one_line_error(
            self, tmp_path, capsys):
        """The width check runs once the embeddings load, before any dataset is read:
        an unparsable training file does not get reported first."""
        paths = generate_corpus(tmp_path / "corpus", seed=0, n_train=8, n_dev=0)
        unparsable = tmp_path / "bad.jsonl"
        unparsable.write_text("{not json\n", encoding="utf-8")
        for train_path in (paths.train, unparsable):
            config = tmp_path / "config.json"
            config.write_text(json.dumps({
                "hidden_width": 8, "epochs": 1, "mode": "content", "type_dim": 3,
                "embedding_paths": [str(paths.embeddings)], "train_path": str(train_path),
                "tables_path": str(paths.tables)}), encoding="utf-8")
            assert main(["train", "--config", str(config)]) == 1
            assert one_line_error(capsys) == ("error: type_dim 3 must equal the word width 50 "
                                              "in content mode, or be null\n")

    @pytest.mark.parametrize("paths", [[], ["a.txt", "b.txt", "c.txt"]], ids=["none", "three"])
    def test_embedding_count_is_the_same_one_line_error_from_every_command(
            self, untrained_checkpoint, tmp_path, paths, capsys):
        """The count is checked before any dataset is read: `train` reports it ahead of
        an unparsable training file."""
        corpus, config, checkpoint = untrained_checkpoint
        unparsable = tmp_path / "bad.jsonl"
        unparsable.write_text("{not json\n", encoding="utf-8")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(json.loads(open(config).read()), embedding_paths=paths,
                                       train_path=str(unparsable),
                                       tables_path=str(corpus.tables))), encoding="utf-8")
        runs = [["train", "--config", str(bad)],
                *[[*restore_args(corpus, command), "--checkpoint", checkpoint, "--config",
                   str(bad)] for command in ("eval", "predict")]]
        for argv in runs:
            assert main(argv) == 1
            assert one_line_error(capsys) == (f"error: {bad}: embedding_paths must name 1 or "
                                              f"2 files, got {len(paths)}\n")

    def test_damaged_gazetteer_fails_train_before_any_epoch(self, tmp_path, capsys):
        paths = generate_corpus(tmp_path / "corpus", seed=0, n_train=8, n_dev=4)
        paths.gazetteer.write_bytes(paths.gazetteer.read_bytes() + b"no tab here\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "hidden_width": 8, "epochs": 1, "batch_size": 8, "mode": "content",
            "embedding_paths": [str(paths.embeddings)], "gazetteer_path": str(paths.gazetteer),
            "train_path": str(paths.train), "dev_path": str(paths.dev),
            "tables_path": str(paths.tables)}), encoding="utf-8")
        assert main(["train", "--config", str(config)]) == 1
        # the only line on stderr: no epoch was logged
        assert re.fullmatch(f"error: {re.escape(str(paths.gazetteer))}:\\d+: expected "
                            "'key<TAB>category'\n", one_line_error(capsys))

    @pytest.mark.parametrize("widths", [
        {"hidden_width": 2**40}, {"hidden_width": 10**30},
        {"mode": "insensitive", "type_dim": 2**44}, {"mode": "insensitive", "type_dim": 10**30},
    ], ids=["hidden-2**40", "hidden-10**30", "type-2**44", "type-10**30"])
    @pytest.mark.parametrize("command", ["train", "eval", "predict"])
    def test_width_too_large_to_allocate_is_one_line_error(
            self, untrained_checkpoint, tmp_path, command, widths, capsys):
        """Each width fails at its first allocation, which asks for more than the 128 TiB
        of a 47-bit address space or more than numpy can index: none can be allocated."""
        paths, config, checkpoint = untrained_checkpoint
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps(dict(json.loads(open(config).read()), **widths,
                                        train_path=str(paths.train),
                                        tables_path=str(paths.tables))), encoding="utf-8")
        argv = (["train", "--config", str(wide)] if command == "train" else
                [*restore_args(paths, command), "--checkpoint", checkpoint, "--config",
                 str(wide)])
        assert main(argv) == 1
        [(name, width)] = [(name, width) for name, width in widths.items() if name != "mode"]
        assert f"{name} {width}" in one_line_error(capsys)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gradient_is_one_line_error(self, tmp_path, capsys, monkeypatch):
        paths = generate_corpus(tmp_path / "corpus", seed=0, n_train=8, n_dev=4)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "hidden_width": 8, "epochs": 1, "batch_size": 8, "mode": "content",
            "embedding_paths": [str(paths.embeddings)], "train_path": str(paths.train),
            "tables_path": str(paths.tables)}), encoding="utf-8")
        monkeypatch.setattr(K, "sum_all", with_inf_backward(K.sum_all))
        assert main(["train", "--config", str(config)]) == 1
        assert re.fullmatch(r"error: non-finite gradient in \S+ at epoch 1, batch 1\n",
                            one_line_error(capsys))

    def test_flag_override_is_checked_like_a_config_field(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"hidden_width": 8}), encoding="utf-8")
        assert main(["train", "--config", str(path), "--seed", "-1"]) == 1
        assert one_line_error(capsys) == "error: seed must be an integer >= 0, got -1\n"


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
