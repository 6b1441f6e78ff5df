"""In-memory span tracer for confmix, installed from outside the package.

`Tracer.install` wraps every public function of each confmix module, plus
a few methods, by replacing the attribute each caller resolves: a module
that did `from .experts import forward` is patched at `confmix.training.forward`,
one that calls `T.matmul` at `confmix.tensor.matmul`. Each wrapped call
records a span (name, start, end, parent span) in memory; `dump` writes
them out with the run id once the command has finished, and `uninstall`
puts every original back. Nothing in `confmix` itself changes.

`self_times` and `layer_metrics` turn dumped spans into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# the layers are the package's modules, in dependency order
LAYERS = ("tensor", "graphs", "experts", "confidence", "mixture", "training",
          "theory", "cli")

# methods traced as spans: (module, class, attribute)
METHODS = (("theory", "SimplexGrid", "build"),
           ("training", "TrainReport", "write_csvs"),
           ("theory", "SuiteReport", "write_csv"))

# the spans whose time `cli.write_outputs_s` sums: the artefact writers of
# train, infer and verify, wherever they are defined
OUTPUT_WRITERS = ("experts.save_expert", "training.TrainReport.write_csvs",
                  "mixture.write_predictions_csv", "theory.SuiteReport.write_csv")

SCAN_SPAN = "trace.const_grad_scan"


def _shape(x):
    return getattr(x, "values", x).shape


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans and counters of one command, recorded while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = []
        self._name_ids = {}
        self.spans = []          # [name id, start, end, parent span index]
        self.stack = []          # indices of open spans
        self.counters = Counter()
        self._patches = []       # (owner, attribute, original)
        self._tape = None
        self._gcn_nodes = None
        self._gcn_id = self._name_id("experts.gcn_forward")
        self._scan_id = self._name_id(SCAN_SPAN)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, before=None, after=None):
        """Return `fn` recording one span per call under `name`.

        `before(args, kwargs)` runs ahead of the span, `after(args,
        kwargs, result)` once it has closed.
        """
        nid = self._name_id(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # ---- counters taken at layer boundaries ----

    def _gcn_start(self, args, kwargs):
        self._gcn_nodes = _arg(args, kwargs, 1, "graph").num_nodes
        self.counters["gcn_forwards"] += 1

    def _matmul_done(self, args, kwargs, result):
        # only matmuls called directly by gcn_forward count as its work
        if not self.stack or self.spans[self.stack[-1]][0] != self._gcn_id:
            return
        a, b = _shape(_arg(args, kwargs, 0, "a")), _shape(_arg(args, kwargs, 1, "b"))
        macs = a[0] * a[1] * b[1]
        self.counters["gcn_macs"] += macs
        n = self._gcn_nodes
        if a == (n, n):
            self.counters["aggregation_dense_macs"] += macs
            self.counters["aggregation_columns"] += b[1]

    def _backward_done(self, args, kwargs, result):
        tape, self._tape = self._tape, None
        if tape is None:
            return
        span = [self._scan_id, time.perf_counter(), 0.0,
                self.stack[-1] if self.stack else -1]
        self.counters["tapes"] += 1
        self.counters["tape_nodes"] += len(tape.records)
        for leaf in tape.leaves():
            if leaf.grad is not None:
                self.counters["leaf_grad_bytes"] += leaf.grad.nbytes
                if not leaf.requires_grad:
                    self.counters["const_grad_bytes"] += leaf.grad.nbytes
        span[2] = time.perf_counter()
        self.spans.append(span)

    def _gate_done(self, args, kwargs, result):
        fired = result[1]
        self.counters["weak_fired"] += int(fired.sum())
        self.counters["gated_nodes"] += int(fired.size)

    def _group_min_done(self, args, kwargs, result):
        self.counters["grid_points"] += len(_arg(args, kwargs, 1, "grid").points)

    def _cost_done(self, args, kwargs, result):
        if _arg(args, kwargs, 3, "architecture") == "gcn":
            self.counters["cost_model_macs_per_node"] = result
            self.counters["cost_graph_nodes"] = _arg(args, kwargs, 0, "graph").num_nodes

    # ---- installation ----

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = {layer: importlib.import_module(f"confmix.{layer}") for layer in LAYERS}
        hooks = {
            "experts.gcn_forward": (self._gcn_start, None),
            "tensor.matmul": (None, self._matmul_done),
            "tensor.backward": (None, self._backward_done),
            "mixture.infer_stochastic": (None, self._gate_done),
            "theory.group_min": (None, self._group_min_done),
            "graphs.cost_estimate": (None, self._cost_done),
        }
        wrapped = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    span = f"{layer}.{name}"
                    wrapped[fn] = self.wrap(span, fn, *hooks.get(span, (None, None)))
        callers = [m for name, m in sorted(sys.modules.items())
                   if name == "confmix" or name.startswith("confmix.")]
        for mod in callers:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(mod, attr, wrapped[value])
        for layer, cls_name, attr in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = vars(cls)[attr]
            span = f"{layer}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self.wrap(span, raw.__func__)))
            else:
                self._set(cls, attr, self.wrap(span, raw))
        tensor = modules["tensor"]
        tape_backward = tensor.Tape.backward
        tensor_init = tensor.Tensor.__init__
        counters = self.counters

        def keep_tape(tape, out):
            self._tape = tape
            return tape_backward(tape, out)

        def counted_init(t, values, requires_grad=False):
            counters["tensors_created"] += 1
            tensor_init(t, values, requires_grad)

        self._set(tensor.Tape, "backward", functools.wraps(tape_backward)(keep_tape))
        self._set(tensor.Tensor, "__init__", functools.wraps(tensor_init)(counted_init))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        doc = {"run": self.run_id, "names": self.names, "spans": self.spans,
               "counters": dict(self.counters)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# ---- analysis ----

def self_times(spans):
    """Self time of each (start, end, parent index) span.

    Duration minus the part of the span's interval that its direct
    children cover, counting overlapping children once.
    """
    children = defaultdict(list)
    for i, (start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


class SpanTotals:
    """Total time, calls and self time per span name over several runs."""

    def __init__(self):
        self.total = Counter()
        self.calls = Counter()
        self.self_time = Counter()
        self.spans = 0

    def add(self, trace: dict):
        names, spans = trace["names"], trace["spans"]
        own = self_times([(s[1], s[2], s[3]) for s in spans])
        for (nid, start, end, _), st in zip(spans, own):
            name = names[nid]
            self.total[name] += end - start
            self.calls[name] += 1
            self.self_time[name] += st
        self.spans += len(spans)

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_time.items()
                   if name.split(".")[0] == layer)


# metric name -> span whose total time it reports
SPAN_TIMES = {
    "tensor.backward_s": "tensor.backward",
    **{f"tensor.{op}_s": f"tensor.{op}"
       for op in ("matmul", "add", "mul", "log", "softmax_rows", "take_rows")},
    "graphs.load_graph_s": "graphs.load_graph",
    "graphs.conv_coefficients_s": "graphs.conv_coefficients",
    "graphs.khop_sizes_s": "graphs.khop_sizes",
    "graphs.cost_estimate_s": "graphs.cost_estimate",
    "experts.weak_forward_s": "experts.weak_forward",
    "experts.gcn_forward_s": "experts.gcn_forward",
    "confidence.confidence_rows_s": "confidence.confidence_rows",
    "confidence.confidence_batch_s": "confidence.confidence_batch",
    "confidence.quasiconvexity_witness_search_s": "confidence.quasiconvexity_witness_search",
    "mixture.mixture_loss_s": "mixture.mixture_loss",
    "mixture.infer_stochastic_s": "mixture.infer_stochastic",
    "mixture.infer_expected_s": "mixture.infer_expected",
    "training.evaluate_s": "training.evaluate",
    "theory.run_theorem_suite_s": "theory.run_theorem_suite",
    "theory.verify_theorem_case_s": "theory.verify_theorem_case",
    "theory.group_min_s": "theory.group_min",
    "theory.simplex_grid_build_s": "theory.SimplexGrid.build",
    "theory.verify_tightness_s": "theory.verify_tightness",
    "theory.verify_binary_corollary_s": "theory.verify_binary_corollary",
    "theory.verify_blindspot_s": "theory.verify_blindspot",
}

# metric name -> span whose call count it reports
SPAN_CALLS = {
    "tensor.backward_calls": "tensor.backward",
    **{f"tensor.{op}_calls": f"tensor.{op}"
       for op in ("matmul", "add", "mul", "log", "softmax_rows", "take_rows")},
    "graphs.conv_coefficients_calls": "graphs.conv_coefficients",
    "experts.gcn_forward_calls": "experts.gcn_forward",
    "confidence.confidence_batch_calls": "confidence.confidence_batch",
    "theory.verify_theorem_case_calls": "theory.verify_theorem_case",
}


def _ratio(num, den):
    return num / den if den else float("nan")


def layer_metrics(traces: dict, graph_nodes: int, graph_nnz: int,
                  epochs: int) -> dict:
    """Per-layer metrics of one pipeline iteration, as {name: (value, unit)}.

    `traces` maps each command kind ("train", "infer", "cost", "verify")
    to the dumped traces of its runs in the iteration. `graph_nodes` and
    `graph_nnz` describe the workload's graph (nnz counts both directions
    of each edge); `epochs` is the train command's recorded epochs.
    """
    totals = SpanTotals()
    counters = defaultdict(Counter)
    for kind, runs in traces.items():
        for trace in runs:
            totals.add(trace)
            counters[kind].update(trace["counters"])
    every = sum(counters.values(), Counter())
    infer = counters["infer"]
    out = {}
    for metric, span in SPAN_TIMES.items():
        out[metric] = (totals.total[span], "s")
    for metric, span in SPAN_CALLS.items():
        out[metric] = (totals.calls[span], "count")

    out["tensor.tape_nodes"] = (_ratio(every["tape_nodes"], every["tapes"]), "count")
    out["tensor.tensors_created"] = (every["tensors_created"], "count")
    out["tensor.const_grad_bytes"] = (_ratio(every["const_grad_bytes"], every["tapes"]), "B")
    out["tensor.const_grad_share"] = (
        _ratio(every["const_grad_bytes"], every["leaf_grad_bytes"]), "ratio")

    out["graphs.coeff_bytes"] = (graph_nodes * graph_nodes * 8, "B")
    cost = counters["cost"]
    model = cost["cost_model_macs_per_node"] * cost["cost_graph_nodes"]
    out["graphs.cost_model_macs"] = (model, "MAC")

    measured = _ratio(infer["gcn_macs"], infer["gcn_forwards"])
    out["experts.gcn_macs"] = (measured, "MAC")
    out["experts.gcn_macs_over_model"] = (_ratio(measured, model), "ratio")
    sparse = (graph_nnz + graph_nodes) * infer["aggregation_columns"]
    out["experts.aggregation_waste_ratio"] = (
        _ratio(infer["aggregation_dense_macs"], sparse), "ratio")

    out["mixture.weak_fired_frac"] = (
        _ratio(infer["weak_fired"], infer["gated_nodes"]), "ratio")
    out["mixture.gated_nodes"] = (infer["gated_nodes"], "count")

    out["training.epochs"] = (epochs, "count")
    out["training.train_self_s"] = (totals.self_time["training.train"], "s")
    out["theory.grid_points"] = (every["grid_points"], "count")
    out["cli.write_outputs_s"] = (sum(totals.total[s] for s in OUTPUT_WRITERS), "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (totals.layer_self(layer), "s")
    out["trace.spans"] = (totals.spans, "count")
    out["trace.const_grad_scan_s"] = (totals.total[SCAN_SPAN], "s")
    return out


def median_metrics(samples: list) -> dict:
    """Median of each metric over several iterations' metric dicts."""
    out = {}
    for name in samples[0]:
        values = [s[name][0] for s in samples]
        out[name] = (statistics.median(values), samples[0][name][1])
    return out
