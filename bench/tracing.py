"""In-memory spans around the calls into each `sid` layer.

A traced run swaps selected module attributes for wrappers that open a span
around the original function, so no program file changes. Spans are
(name, start, end, parent, op) rows kept in memory and written out once, when
the run ends. `op` is the index of the benchmark operation the span belongs
to, or -1 for set-up, so the spans of one operation share an identifier.
"""

import contextlib
import functools
import json
import time
from collections import defaultdict

SETUP_OP = -1


class Tracer:
    """Records spans when enabled; with tracing off every call is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self._stack: list[int] = []
        self.op = SETUP_OP
        self.counts: dict[str, int] = defaultdict(int)  # per boundary, operations only

    @contextlib.contextmanager
    def _record(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def span(self, name: str):
        return self._record(name) if self.enabled else contextlib.nullcontext()

    def wrap(self, name: str, fn, count=None):
        """`fn` inside a span; `count(args)` adds the work items of each call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None and self.op >= 0:
                self.counts[name] += count(args)
            with self._record(name):
                return fn(*args, **kwargs)

        return traced

    def write(self, path, record: dict) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "record": record,
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                },
                fh,
            )


def _layer_boundaries():
    """(owner, attribute, span name, counter) for every traced layer entry point.

    Owners are the modules or classes whose attribute the caller looks up, so
    a name imported into `pipeline` or `codegen` is patched there.
    """
    from sid import codegen, data, detection, machine, models, pipeline, training

    return [
        (data, "synth_user_sessions", "data.synth_user_sessions", None),
        (data, "hapt_write", "data.hapt_write", None),
        (data, "hapt_load", "data.hapt_load", None),
        (detection, "split_by_sequence", "detection.split_by_sequence", None),
        (pipeline, "split_by_sequence", "detection.split_by_sequence", None),
        (detection, "build_ped", "detection.build_ped", None),
        (detection, "format_report", "detection.format_report", None),
        (pipeline, "ks_statistic", "detection.ks_statistic", None),
        (pipeline, "run_lad", "pipeline.run_lad", None),
        (pipeline, "fit_lad_model", "pipeline.fit_lad_model", None),
        (pipeline, "evaluate_lad", "pipeline.evaluate_lad", None),
        (pipeline, "window_error_samples", "pipeline.window_error_samples",
         lambda args: len(args[1])),
        (pipeline, "batched_window_errors", "pipeline.batched_window_errors", None),
        (pipeline.LadModel, "decide", "pipeline.LadModel.decide", None),
        (pipeline, "train", "training.train", None),
        (pipeline, "train_ocsvm", "training.train_ocsvm", None),
        (training, "init_lstm", "training.init_lstm", None),
        (pipeline, "infer_ocsvm", "models.infer_ocsvm", None),
        (models, "load_bundle", "models.load_bundle", None),
        (models, "save_bundle", "models.save_bundle", None),
        (codegen, "compile_model", "codegen.compile_model", None),
        (codegen, "compile_ks_stage", "codegen.compile_ks_stage", None),
        (codegen, "fresh_state", "codegen.fresh_state", None),
        (codegen, "write_symbol", "codegen.write_symbol", None),
        (codegen, "read_symbol", "codegen.read_symbol", None),
        (codegen.StepRunner, "step", "codegen.StepRunner.step", None),
        (codegen, "run", "machine.run", None),
        (machine, "run", "machine.run", None),
    ]


@contextlib.contextmanager
def layer_spans(tracer: Tracer):
    """Wrap every layer boundary while the block runs; restore on exit."""
    if not tracer.enabled:
        yield
        return
    saved = []
    try:
        for owner, attr, name, count in _layer_boundaries():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class SpanTotals:
    """Inclusive and self seconds per span name over the spans whose op
    satisfies `keep`; `child_total[(parent, child)]` splits a span by callee."""

    def __init__(self, spans, keep):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.count = defaultdict(int)
        self.child_total = defaultdict(float)
        self.child_count = defaultdict(int)
        child_time = defaultdict(float)
        for name, start, end, parent, op in spans:
            if keep(op) and parent is not None:
                child_time[parent] += end - start
                self.child_total[(spans[parent][0], name)] += end - start
                self.child_count[(spans[parent][0], name)] += 1
        for index, (name, start, end, parent, op) in enumerate(spans):
            if keep(op):
                self.total[name] += end - start
                self.self_time[name] += end - start - child_time[index]
                self.count[name] += 1
