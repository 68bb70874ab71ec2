"""Spans and counters recorded from outside the program.

`Tracer.install` replaces each traced function at the name its caller
looks it up by (module attribute or class method) with a wrapper that
opens a span; `Tracer.remove` puts the originals back. Spans nest on a
stack, so each span's self time is its duration minus its children's.
Every span carries the id of the root operation it belongs to: a query
in the serve workloads, an optimizer step in training.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from sketchsql import executor, harness, slots, tagger
from sketchsql import encoder as E
from sketchsql import kernel as K
from sketchsql.executor import ExecutionError
from sketchsql.tagger import COLUMN_VALUE

HEADS = ("select_scores", "cond_number_scores", "cond_col_scores", "agg_scores", "op_scores")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (root, parent, name, start, duration, self time)
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])   # name -> calls, seconds, self s
        self.counts = Counter()
        self.root = 0
        self._stack: list[list] = []   # [span index, name, parent, start, child seconds]
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        self._stack.append([len(self.spans) - 1, name, parent, time.perf_counter(), 0.0])

    def exit(self):
        end = time.perf_counter()
        index, name, parent, start, child = self._stack.pop()
        duration = end - start
        self.spans[index] = (self.root, parent, name, start, duration, duration - child)
        total = self.totals[name]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        if self._stack:
            self._stack[-1][4] += duration

    def next_root(self):
        self.root += 1

    def timed(self, fn, name: str, after=None, error=None):
        """fn wrapped in a span; after(result, *args) and error(exc) update counters."""
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if error is not None:
                    error(exc)
                raise
            finally:
                tracer.exit()
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return wrapper

    def patch(self, owner, attr: str, name: str, after=None, error=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.timed(original, name, after, error))

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- the program's layers -------------------------------------------------

    def install(self):
        """Wrap every traced seam of the program."""
        counts = self.counts
        original_node = K._node

        def node(data, parents, bwd):
            out = original_node(data, parents, bwd)
            if out.requires_grad:
                counts["tape_nodes"] += 1
            return out

        self._patches.append((K, "_node", original_node))
        K._node = node

        def after_sequence(out, xs, *args, **kwargs):
            counts["timesteps"] += xs.shape[0]
            if out._bwd is not None:
                out._bwd = self.timed(out._bwd, "kernel.bptt")

        def after_step(out, *args):
            self.next_root()

        def after_loss(out, *args, **kwargs):
            counts["examples_trained"] += 1

        self.patch(K, "lstm_sequence", "kernel.lstm_sequence", after_sequence)
        self.patch(K, "lstm_step", "kernel.lstm_step")
        self.patch(K, "backward", "kernel.backward")
        self.patch(K, "adam_step", "kernel.adam_step", after_step)
        self.patch(K, "save_checkpoint", "kernel.save_checkpoint")
        self.patch(K, "load_checkpoint", "kernel.load_checkpoint")

        def after_recognize(tq, *args, **kwargs):
            counts["tokens_tagged"] += len(tq.tokens)
            counts["value_tags"] += sum(tag.kind == COLUMN_VALUE for tag in tq.tags)

        def after_content(out, tq, table):
            counts["cells_indexed"] += len(table.rows) * len(table.header)

        self.patch(harness, "recognize", "tagger.recognize", after_recognize)
        self.patch(tagger, "tag_content", "tagger.tag_content", after_content)
        self.patch(E, "load_embeddings", "encoder.load_embeddings")

        def after_parts(out, model, tq, header):
            counts["question_tokens"] += len(tq.tokens)
            counts["oov_tokens"] += sum(tok not in model.emb for tok in tq.tokens)

        model = slots.SketchModel
        self.patch(model, "question_parts", "slots.question_parts", after_parts)
        self.patch(model, "question_input", "slots.question_input")
        self.patch(model, "encode", "slots.encode")
        self.patch(model, "attend", "slots.attend")
        self.patch(model, "predict_slots", "slots.predict_slots")
        for head in HEADS:
            self.patch(slots, head, "slots.heads")
        self.patch(slots, "pointer_context", "slots.pointer")
        self.patch(slots, "pointer_step", "slots.pointer_step")

        def after_decode(span, *args):
            max_len = args[4] if len(args) > 4 else 20
            counts["pointer_truncated"] += len(span) >= max_len

        self.patch(slots, "decode_cond_val", "slots.decode_cond_val", after_decode)

        def after_prepare(prep, *args, **kwargs):
            counts["gold_span_missing"] += sum(span is None for span in prep.gold_spans)

        self.patch(harness, "prepare_example", "harness.prepare_example", after_prepare)
        self.patch(harness, "total_loss", "harness.total_loss", after_loss)
        self.patch(harness, "evaluate_model", "harness.evaluate_model")

        def after_assemble(query, pred, tokens, *args):
            counts["duplicate_cond_cols"] += len(pred.cond_cols) - len(set(pred.cond_cols))

        def after_execute(result, query, table):
            counts["rows_scanned"] += len(table.rows)

        def on_exec_error(exc):
            if isinstance(exc, ExecutionError):
                counts["exec_errors"] += 1

        self.patch(harness, "assemble", "sketch.assemble", after_assemble)
        self.patch(executor, "render", "sketch.render")
        self.patch(executor, "canonical_equal", "sketch.canonical_equal")
        self.patch(executor, "execute", "executor.execute", after_execute, on_exec_error)
        self.patch(executor, "evaluate_dataset", "executor.evaluate_dataset")
        self.patch(harness, "evaluate_dataset", "executor.evaluate_dataset")

    # -- results --------------------------------------------------------------

    def per_layer(self) -> dict[str, float]:
        """Per-layer metric values, named as in BENCHMARK.json."""
        t, c = self.totals, self.counts

        def calls(name):
            return t[name][0] if name in t else 0

        def secs(name):
            return t[name][1] if name in t else 0.0

        def share(part, whole):
            return c[part] / c[whole] if c[whole] else 0.0

        return {
            "kernel.lstm_sequence.calls": calls("kernel.lstm_sequence"),
            "kernel.lstm_sequence.timesteps": c["timesteps"],
            "kernel.lstm_sequence.fwd_s": secs("kernel.lstm_sequence"),
            "kernel.lstm_sequence.bptt_s": secs("kernel.bptt"),
            "kernel.lstm_step.calls": calls("kernel.lstm_step"),
            "kernel.lstm_step.s": secs("kernel.lstm_step"),
            "kernel.backward.self_s": t["kernel.backward"][2] if "kernel.backward" in t else 0.0,
            "kernel.tape_nodes": share("tape_nodes", "examples_trained"),
            "kernel.adam_step.calls": calls("kernel.adam_step"),
            "kernel.adam_step.s": secs("kernel.adam_step"),
            "kernel.save_checkpoint.s": secs("kernel.save_checkpoint"),
            "kernel.load_checkpoint.s": secs("kernel.load_checkpoint"),
            "tagger.recognize.calls": calls("tagger.recognize"),
            "tagger.recognize.s": secs("tagger.recognize"),
            "tagger.tag_content.s": secs("tagger.tag_content"),
            "tagger.cells_indexed": c["cells_indexed"],
            "tagger.value_tag_share": share("value_tags", "tokens_tagged"),
            "encoder.load_embeddings.s": secs("encoder.load_embeddings"),
            "encoder.oov_share": share("oov_tokens", "question_tokens"),
            "slots.question_parts.s": secs("slots.question_parts"),
            "slots.question_input.calls": calls("slots.question_input"),
            "slots.encode.calls": calls("slots.encode"),
            "slots.encode.s": secs("slots.encode"),
            "slots.attend.s": secs("slots.attend"),
            "slots.heads.s": secs("slots.heads"),
            "slots.pointer.steps": calls("slots.pointer_step"),
            "slots.pointer.s": secs("slots.pointer") + secs("slots.pointer_step"),
            "slots.pointer.truncated": c["pointer_truncated"],
            "slots.predict_slots.s": secs("slots.predict_slots"),
            "harness.prepare_example.s": secs("harness.prepare_example"),
            "harness.total_loss.s": secs("harness.total_loss"),
            "harness.evaluate_model.s": secs("harness.evaluate_model"),
            "harness.gold_span_missing": c["gold_span_missing"],
            "sketch.assemble.s": secs("sketch.assemble"),
            "sketch.duplicate_cond_cols": c["duplicate_cond_cols"],
            "sketch.render.s": secs("sketch.render"),
            "sketch.canonical_equal.s": secs("sketch.canonical_equal"),
            "executor.execute.calls": calls("executor.execute"),
            "executor.execute.s": secs("executor.execute"),
            "executor.rows_scanned": c["rows_scanned"],
            "executor.exec_errors": c["exec_errors"],
            "executor.evaluate_dataset.s": secs("executor.evaluate_dataset"),
        }

    def write_spans(self, path):
        """One tab-separated line per span: root, parent, name, start, duration, self."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("root\tparent\tname\tstart_s\tduration_s\tself_s\n")
            for root, parent, name, start, duration, self_s in self.spans:
                fh.write(f"{root}\t{parent}\t{name}\t{start:.6f}\t{duration:.6f}\t{self_s:.6f}\n")
