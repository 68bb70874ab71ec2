"""The benchmark's tracer (bench/tracing.py) wraps program functions by the
names their callers look them up by, and its input builder (bench/inputs.py)
reads program names to build the serving model. These tests keep those seams
in use on both the training and the inference path."""

import importlib.util
from pathlib import Path

from helpers import MAGAZINE_QUESTION, demo_gazetteer, magazine_table
from test_harness import magazine_example, tiny_embeddings
from sketchsql import executor as X
from sketchsql import harness as H
from sketchsql import kernel as K
from sketchsql import slots as S
from sketchsql.sketch import SqlQuery


def load_bench_module(name):
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer_class():
    return load_bench_module("tracing").Tracer


def test_tracer_counts_the_read_path_in_training_and_inference():
    model = S.SketchModel(K.ParamStore(seed=3), tiny_embeddings(), width=12, mode="content",
                          dropout=0.0)
    table, gazetteer = magazine_table(), demo_gazetteer()
    unlocated = H.Example(question="how many issue?", table_id="mag",
                          gold=SqlQuery(agg=3, sel=2, conds=[(1, 0, "al jaffee")]))
    tracer = load_tracer_class()()
    tracer.install()
    try:
        prep = H.prepare_example(model, magazine_example(), table, gazetteer)
        other = H.prepare_example(model, unlocated, table, gazetteer)
        loss, _ = H.total_loss(model, [prep, other])
        trained = tracer.per_layer()
        K.backward(loss)
        H.total_loss(model, [other])
        no_span = tracer.per_layer()
        H.predict(model, MAGAZINE_QUESTION, table, gazetteer)
        served = tracer.per_layer()
    finally:
        tracer.remove()

    assert sum(span is not None for span in prep.gold_spans) == 2
    assert other.gold_spans == [None]
    # one batch: one question input and one read of all three models, whose six question
    # and six column bi-LSTM directions run as one fused ragged scan; one decoder scan
    # takes every located gold span, and one pointer step scores all of them
    assert trained["slots.question_input.calls"] == 1
    assert trained["slots.encode.calls"] == 1
    assert trained["kernel.lstm_sequence.calls"] == 2
    assert trained["slots.pointer.steps"] == 1
    assert trained["kernel.lstm_step.calls"] == 0  # the teacher-forced decoder is one sequence
    # a batch without a located span runs no decoder
    assert no_span["kernel.lstm_sequence.calls"] - trained["kernel.lstm_sequence.calls"] == 1
    assert no_span["slots.pointer.steps"] == trained["slots.pointer.steps"]
    # inference is the batch of one: six bi-LSTMs in one fused scan
    assert served["slots.question_input.calls"] - no_span["slots.question_input.calls"] == 1
    assert served["slots.encode.calls"] - no_span["slots.encode.calls"] == 1
    assert served["kernel.lstm_sequence.calls"] - no_span["kernel.lstm_sequence.calls"] == 1
    assert K.backward.__module__ == "sketchsql.kernel"  # the tracer put the original back


def test_tracer_sees_content_tagging_and_scoring_executions():
    model = S.SketchModel(K.ParamStore(seed=3), tiny_embeddings(), width=12, mode="content",
                          dropout=0.0)
    table, gazetteer = magazine_table(), demo_gazetteer()
    example = magazine_example()
    tracer = load_tracer_class()()
    tracer.install()
    try:
        pred = H.predict(model, MAGAZINE_QUESTION, table, gazetteer)
        tagged = tracer.per_layer()
        X.evaluate_dataset([pred, example.gold], [example.gold] * 2, ["mag"] * 2,
                           {"mag": table})
        scored = tracer.per_layer()
    finally:
        tracer.remove()

    assert tagged["tagger.cells_indexed"] == len(table.rows) * table.n_columns
    assert scored["executor.execute.calls"] == 2 * 2  # prediction and gold, per example


def test_serving_model_build_reads_its_program_names():
    inputs = load_bench_module("inputs")
    config = inputs.model_config(Path("embeddings.txt"), epochs=1)
    assert config.mode == "content"
    model, _ = H.build_model(config, tiny_embeddings())
    # decode_work reads cond_count, decoder_max_len and tokenize(...)[0]
    work = inputs.decode_work(model, [magazine_example()], {"mag": magazine_table()},
                              demo_gazetteer())
    assert work["gold_conds"] == 2
    assert work["gold_steps"] == 5  # "mort drucker" and "88.5", each plus its end step
    assert work["pred_conds"] <= 3
    assert work["pred_conds"] <= work["pred_steps"] <= work["pred_conds"] * (
        model.decoder_max_len + 1)
