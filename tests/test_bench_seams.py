"""The benchmark's tracer (bench/tracing.py) wraps program functions by the
names their callers look them up by. These tests keep those seams in use
on both the training and the inference path."""

import importlib.util
from pathlib import Path

from helpers import MAGAZINE_QUESTION, demo_gazetteer, magazine_table
from test_harness import magazine_example, tiny_embeddings
from sketchsql import harness as H
from sketchsql import kernel as K
from sketchsql import slots as S


def load_tracer_class():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_counts_the_read_path_in_training_and_inference():
    model = S.SketchModel(K.ParamStore(seed=3), tiny_embeddings(), width=12, mode="content",
                          dropout=0.0)
    table, gazetteer = magazine_table(), demo_gazetteer()
    tracer = load_tracer_class()()
    tracer.install()
    try:
        prep = H.prepare_example(model, magazine_example(), table, gazetteer)
        loss = H.total_loss(model, prep, training=False)
        trained = tracer.per_layer()
        K.backward(loss)
        H.predict(model, MAGAZINE_QUESTION, table, gazetteer)
        served = tracer.per_layer()
    finally:
        tracer.remove()

    # the worked example has two conditions, so all three models read it
    assert trained["slots.question_input.calls"] == 3
    assert trained["slots.encode.calls"] == 3
    assert trained["slots.pointer.steps"] > 0
    assert trained["kernel.lstm_step.calls"] == 0  # the teacher-forced decoder is one sequence
    assert served["slots.question_input.calls"] > trained["slots.question_input.calls"]
    assert served["slots.encode.calls"] > trained["slots.encode.calls"]
    assert served["kernel.lstm_sequence.calls"] > trained["kernel.lstm_sequence.calls"]
    assert K.backward.__module__ == "sketchsql.kernel"  # the tracer put the original back
