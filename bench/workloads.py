"""The benchmark's workloads and the end-to-end metrics they report.

All three are closed loops with one client in one process: the caller
waits for each result before it sends the next request.

- `train`: `harness.train` at the acceptance config for TRAIN_EPOCHS epochs,
  with a dev eval and a best-dev checkpoint after every epoch.
- `serve`: `harness.predict` on every question of a fresh narrow corpus,
  then `executor.evaluate_dataset` on the predictions; repeated in passes,
  each over newly generated questions and tables.
- `serve_wide`: the same loop over wide tables, one question per table.

Every timing is scaled to the box's reference speed (see speed.py).
Accuracy and loss depend only on the seed and the source, so they are
printed in the report line and guarded by floors in `correct`, not
reported as bounded metrics.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

import inputs
from sketchsql import encoder, executor, harness
from sketchsql import kernel as K
from sketchsql.sketch import render
from sketchsql.tagger import Gazetteer
from speed import EXPONENTS, Speed
from tracing import Tracer

TRAIN_EPOCHS = 4
SETUP_REPEATS = 7
MIN_TIMED = 1000        # timed predict calls per serve run: p99 has ten beyond it
PRICE_CALLS = 300       # untraced predict calls that price the tracing
PROBE_EVERY_S = 0.05    # work between two speed probes
# Floors on quality: far below every seed seen, they catch a broken model.
ACC_EX_FLOOR = {"serve": 0.5, "serve_wide": 0.15}
TRAIN_LOSS_DROP = 0.75  # last epoch's loss under this share of the first's


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "machine": platform.machine(),
            "loadavg_start": os.getloadavg()}


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def tail_percentile(n: int) -> int:
    """The highest whole percentile that leaves at least ten of n samples beyond it."""
    return math.floor(100.0 * (1.0 - 10.0 / n))


class Run:
    """One benchmark invocation: its seed, cache, clocks, checks and report."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: int, trace: bool):
        self.root, self.workload, self.seed, self.seconds = root, workload, seed, seconds
        self.cache = root / ".bench_cache"
        self.cache.mkdir(exist_ok=True)
        self.tracer = Tracer() if trace else None
        self.speed = Speed(EXPONENTS[workload])
        self.report = {"workload": workload, "seed": seed, "trace": int(trace),
                       "machine": machine()}
        self.checks: dict[str, bool] = {}
        self.setup_spans: list[tuple[float, float]] = []
        self.attempted = self.failed = 0

    def timed_setup(self, setup):
        """Call setup once between speed probes, timing it; returns its result.

        The caller drops the previous result first, so every call starts
        from the same heap.
        """
        gc.collect()
        for _ in range(3):
            self.speed.probe()
        start = time.perf_counter()
        out = setup()
        self.setup_spans.append((start, time.perf_counter()))
        for _ in range(3):
            self.speed.probe()
        return out

    def setup_s(self) -> float:
        """Median scaled time of the timed setup calls."""
        self.report["setup_raw_s"] = [end - start for start, end in self.setup_spans]
        return statistics.median(self.speed.scaled(*span) for span in self.setup_spans)

    def check_digests(self, **digests):
        """Same source, workload and seed must give the same digests on every run."""
        self.report.update(digests)
        folder = self.cache / "digests"
        folder.mkdir(exist_ok=True)
        path = folder / f"{inputs.source_hash(self.root)}-{self.workload}-{self.seed}.json"
        if path.exists():
            self.checks["digests_repeat"] = json.loads(path.read_text()) == digests
        else:
            tmp = path.with_suffix(f".tmp{os.getpid()}")
            tmp.write_text(json.dumps(digests))
            os.replace(tmp, path)

    def trace(self):
        if self.tracer is not None:
            self.tracer.install()

    def finish(self, end_to_end: dict) -> dict:
        self.report["machine"]["loadavg_end"] = os.getloadavg()
        self.report["probe_median_ms"] = 1000.0 * statistics.median(self.speed.times)
        self.report["failed_share"] = self.failed / max(1, self.attempted)
        # harness.predict validates every query against its table and raises
        # when one is invalid; such calls count in `failed`, like NaN losses
        self.checks["no_failures"] = self.failed == 0
        self.report["checks"] = self.checks
        if self.tracer is None:
            metrics = end_to_end
        else:
            self.tracer.remove()
            traces = self.cache / "traces"
            traces.mkdir(exist_ok=True)
            self.tracer.write_spans(traces / f"{self.workload}-seed{self.seed}.tsv")
            layers = self.tracer.per_layer()
            layers["trace.overhead_share"] = self.report["trace_overhead_share"]
            metrics = {name: metric(value, unit) for name, (value, unit)
                       in _with_units(layers).items()}
        return {"correct": all(self.checks.values()), "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def _with_units(layers: dict) -> dict:
    def unit(name):
        if name.endswith("_s") or name.endswith(".s"):
            return "s"
        if name.endswith("_share"):
            return "fraction"
        if name == "kernel.tape_nodes":
            return "nodes/example"
        return "count"
    return {name: (value, unit(name)) for name, value in layers.items()}


def _end_to_end(run: Run, per_s, op_ms) -> dict:
    """The bounded metrics; the report line gets the tail with its sample count.

    p90 is the bounded tail: on a shared box the call-level p99 moves by
    up to a fifth between runs, too much to bound a regression by.
    """
    tail = tail_percentile(len(op_ms))
    run.report.update({"timed_ops": len(op_ms), "tail_percentile": tail,
                       "tail_ms": float(np.percentile(op_ms, tail))})
    return {
        "setup_s": metric(run.setup_s(), "s"),
        "throughput_per_s": metric(per_s, "1/s"),
        "p50_ms": metric(float(np.percentile(op_ms, 50)), "ms"),
        "p90_ms": metric(float(np.percentile(op_ms, 90)), "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

class StepClock:
    """Time stamps around every optimizer step of one `harness.train` call.

    After each step it runs one speed probe. The call is cut into one span
    per step, from the end of the previous step's probe (or the call's
    start) to the end of the step, and a last span from the last probe to
    the call's end. So the spans cover the whole call except the probes:
    the first holds the model build and the preparation of every example,
    and the first of each later epoch, like the last span, holds the
    previous epoch's dev eval and checkpoint.
    """

    def __init__(self, speed: Speed):
        self.speed = speed
        self.steps: list[tuple[float, float]] = []   # (step end, probe end)
        self.start = self.end = 0.0
        self._original = None

    def __enter__(self):
        self._original = original = K.adam_step

        def adam_step(*args, **kwargs):
            out = original(*args, **kwargs)
            self.steps.append((time.perf_counter(), self.speed.probe()))
            return out

        K.adam_step = adam_step
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        K.adam_step = self._original

    def step_spans(self) -> list[tuple[float, float]]:
        starts = [self.start] + [probe_end for _, probe_end in self.steps[:-1]]
        return [(start, end) for start, (end, _) in zip(starts, self.steps)]

    def last_span(self) -> tuple[float, float]:
        return self.steps[-1][1], self.end


def run_train(run: Run) -> dict:
    corpus = inputs.narrow_corpus(run.cache, run.seed)
    emb_path = inputs.embeddings(run.cache)

    def setup():
        emb = encoder.load_embeddings([emb_path])
        gaz = Gazetteer.from_tsv(corpus / "gazetteer.tsv")
        train, tables = harness.load_dataset(corpus / "train.jsonl", corpus / "tables.jsonl")
        dev, _ = harness.load_dataset(corpus / "dev.jsonl", corpus / "tables.jsonl")
        return emb, gaz, train, dev, tables

    config = inputs.model_config(emb_path, TRAIN_EPOCHS, seed=run.seed)
    tmp = run.cache / "tmp"
    tmp.mkdir(exist_ok=True)
    config.checkpoint_path = str(tmp / f"train-{run.seed}-{os.getpid()}.tsq")

    if run.tracer is not None:   # an untraced first epoch prices the tracing
        emb, gaz, train, dev, tables = setup()
        with StepClock(run.speed) as untraced:
            ref = harness.train(replace(config, epochs=1), train, tables, dev, emb=emb,
                                gazetteer=gaz)
    run.trace()
    for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2):
        data = None   # freed before the next call
        data = run.timed_setup(setup)
    emb, gaz, train, dev, tables = data
    with StepClock(run.speed) as clock:
        result = harness.train(config, train, tables, dev, emb=emb, gazetteer=gaz)
    for _ in range(SETUP_REPEATS // 2):   # the rest after training, so a slow stretch holds fewer
        run.timed_setup(setup)
    os.remove(config.checkpoint_path)
    steps_ms = [1000.0 * run.speed.scaled(*span) for span in clock.step_spans()]
    if run.tracer is not None:
        run.tracer.remove()
        # the same work both times: model build, preparation, one epoch's steps
        first = len(untraced.steps)
        run.report["trace_overhead_share"] = (
            sum(steps_ms[:first]) / 1000.0
            / sum(run.speed.scaled(*span) for span in untraced.step_spans()) - 1.0)
        run.checks["tracing_keeps_loss"] = ref.epoch_losses[0] == result.epoch_losses[0]

    losses = result.epoch_losses
    run.attempted = len(losses) * len(train)
    run.failed = sum(not math.isfinite(x) for x in losses) * len(train)
    run.checks["loss_falls"] = losses[-1] < TRAIN_LOSS_DROP * losses[0]

    # the trained model's quality, untimed, on every train and dev question
    examples = train + dev
    _, rendered, scores, _ = _serve_pass(run, result.model, examples, tables, gaz)
    run.check_digests(loss_digest=digest(repr(x) for x in losses), pred_digest=digest(rendered))
    train_s = sum(steps_ms) / 1000.0 + run.speed.scaled(*clock.last_span())
    run.report.update({
        "epoch_losses": losses, "final_loss": losses[-1],
        "train_raw_s": clock.end - clock.start, "train_scaled_s": train_s,
        "acc_qm": scores.qm / len(examples), "acc_ex": scores.ex / len(examples)})
    return _end_to_end(run, config.epochs * len(train) / train_s, steps_ms)


# ---------------------------------------------------------------------------
# serve, serve_wide
# ---------------------------------------------------------------------------

def _serve_pass(run: Run, model, examples, tables, gaz):
    """Predict every question once, then score the pass.

    Returns each call's (start, end), the rendered predictions, the
    metrics and the scoring's (start, end).
    """
    spans, preds, rendered = [], [], []
    last_probe = run.speed.probe()
    for ex in examples:
        table = tables[ex.table_id]
        if run.tracer is not None:
            run.tracer.next_root()
        start = time.perf_counter()
        try:
            query = harness.predict(model, ex.question, table, gaz)
        except Exception:   # a failed call is counted, and the loop goes on
            log(f"predict failed on {ex.question!r}:\n{traceback.format_exc()}")
            query = None
        end = time.perf_counter()
        spans.append((start, end))
        if end - last_probe >= PROBE_EVERY_S:
            last_probe = run.speed.probe()
        run.attempted += 1
        if query is None:
            run.failed += 1
            rendered.append("FAILED")
            continue
        preds.append((query, ex))
        rendered.append(render(query, table.header, table.id))
    run.speed.probe()
    start = time.perf_counter()
    scores = executor.evaluate_dataset([q for q, _ in preds], [ex.gold for _, ex in preds],
                                       [ex.table_id for _, ex in preds], tables)
    score_span = (start, time.perf_counter())
    run.speed.probe()
    return spans, rendered, scores, score_span


class Repeats:
    """How many served calls reuse a question text or a table seen earlier in the run."""

    def __init__(self):
        self.questions: set[str] = set()
        self.tables: set[int] = set()
        self.calls = self.question_repeats = self.table_repeats = 0

    def add(self, examples, tables):
        keys = {tid: hash((tuple(t.header), tuple(map(tuple, t.rows))))
                for tid, t in tables.items()}
        for ex in examples:
            self.calls += 1
            self.question_repeats += ex.question in self.questions
            self.table_repeats += keys[ex.table_id] in self.tables
            self.questions.add(ex.question)
            self.tables.add(keys[ex.table_id])

    def shares(self) -> dict:
        return {"repeated_question_share": self.question_repeats / self.calls,
                "repeated_table_share": self.table_repeats / self.calls}


def run_serve(run: Run, wide: bool) -> dict:
    emb_path = inputs.embeddings(run.cache)
    model_dir = inputs.serving_model(run.root, run.cache, emb_path, log)
    meta = json.loads((model_dir / "meta.json").read_text())
    gaz_path = inputs.narrow_corpus(run.cache, inputs.MODEL_SEED) / "gazetteer.tsv"

    def setup():
        emb = encoder.load_embeddings([emb_path])
        gaz = Gazetteer.from_tsv(gaz_path)
        model, store = harness.build_model(inputs.model_config(emb_path, meta["epochs"]), emb)
        store.load_state(K.load_checkpoint(model_dir / "model.tsq"))
        return model, gaz

    def pass_inputs(index):
        examples, tables = inputs.serve_pass(run.cache, run.seed, index, wide)
        inputs.check_coverage(examples)
        return examples, tables

    if run.tracer is not None:   # untraced first passes price the tracing
        model, gaz = setup()
        untraced, priced = [], 0
        while len(untraced) < PRICE_CALLS:
            untraced += _serve_pass(run, model, *pass_inputs(priced), gaz)[0]
            priced += 1
    run.trace()

    # Each pass loads the model afresh, so the setup times are spread over
    # the whole run rather than bunched at its start.
    passes, repeats = [], Repeats()
    started = time.perf_counter()
    while (repeats.calls < MIN_TIMED or len(passes) < SETUP_REPEATS
           or time.perf_counter() - started < run.seconds):
        model = gaz = None
        model, gaz = run.timed_setup(setup)
        examples, tables = pass_inputs(len(passes))
        repeats.add(examples, tables)
        passes.append(_serve_pass(run, model, examples, tables, gaz))
        del examples, tables
    # the passes every run makes, whatever the box's speed, fix the digest and accuracy
    fixed = passes[:math.ceil(MIN_TIMED / len(passes[0][0]))]
    n_fixed = sum(len(p[0]) for p in fixed)
    acc_qm = sum(p[2].qm for p in fixed) / n_fixed
    acc_ex = sum(p[2].ex for p in fixed) / n_fixed
    run.checks["acc_ex_floor"] = acc_ex >= ACC_EX_FLOOR[run.workload]
    run.check_digests(pred_digest=digest(line for p in fixed for line in p[1]))
    scaled = [[run.speed.scaled(*span) for span in p[0]] for p in passes]
    if run.tracer is not None:
        untraced_s = sum(run.speed.scaled(*span) for span in untraced)
        traced_s = sum(sum(calls) for calls in scaled[:priced])
        run.report["trace_overhead_share"] = traced_s / untraced_s - 1.0
    call_ms = 1000.0 * np.concatenate(scaled)
    score_ms = [1000.0 * run.speed.scaled(*p[3]) for p in passes]
    run.report.update({
        "passes": len(passes), "score_ms_per_pass": statistics.median(score_ms), "model": meta,
        **repeats.shares(), "acc_qm": acc_qm, "acc_ex": acc_ex})
    per_s = 1000.0 * call_ms.size / (call_ms.sum() + sum(score_ms))
    return _end_to_end(run, per_s, call_ms)


WORKLOADS = {
    "train": run_train,
    "serve": lambda run: run_serve(run, wide=False),
    "serve_wide": lambda run: run_serve(run, wide=True),
}


def main(root: Path, workload: str, seed: int, seconds: int, trace: bool):
    started = time.perf_counter()
    run = Run(root, workload, seed, seconds, trace)
    end_to_end = WORKLOADS[workload](run)
    result = run.finish(end_to_end)
    run.report["wall_s"] = time.perf_counter() - started
    print(json.dumps({"report": run.report}))
    print(json.dumps(result))
