"""Span tracing of the lsgnn layers, applied from outside the package.

`Tracer.installed()` replaces every public function of the seven lsgnn
modules with a recording wrapper, wherever the function is looked up: in
its defining module and in every module that bound it with
`from .x import y`.  Three methods that carry the training and caching
work are wrapped on their classes as well.  Every attribute is restored
when the context exits, so a traced run leaves the package as it found it.

Spans are kept in memory.  A span's self time is its duration minus the
durations of its direct children; calls are single-threaded and nested, so
the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("harness", "graph", "propagation", "localsim", "model", "synthetic", "cli")

# (module, class, attribute) of the methods wrapped besides module functions.
METHODS = (
    ("model", "Adam", "step"),
    ("model", "ModelInputs", "build"),
    ("harness", "PropagationCache", "get_or_compute"),
)


def _modules():
    return {name: importlib.import_module(f"lsgnn.{name}") for name in LAYERS}


def _count_attrs(name, args, result):
    """Work counts recorded on a span, computed from its arguments or result."""
    if name == "graph.enhanced_filters":
        return {"nnz": result.low.nnz + result.high.nnz}
    if name == "propagation.propagate_layers":
        _, s, x, num_layers, _ = args
        return {"flops": 2 * s.nnz * x.shape[1] * num_layers}
    if name == "localsim.edge_sim_values":
        return {"entries": args[0].num_entries}
    if name == "propagation.save_bundle":
        return {"bytes": os.path.getsize(args[1])}
    if name == "harness.PropagationCache.get_or_compute":
        return {"hit": int(result[1])}
    return None


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    child_s: float = 0.0
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, parent=stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.duration
            span.attrs = _count_attrs(name, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    @contextmanager
    def installed(self):
        """Wrap every public lsgnn function and the METHODS; restore on exit."""
        modules = _modules()
        saved = []
        wrappers = {}
        try:
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if attr.startswith("_") or not inspect.isfunction(value):
                        continue
                    if not value.__module__.startswith("lsgnn."):
                        continue
                    if value not in wrappers:
                        layer = value.__module__.split(".", 1)[1]
                        wrappers[value] = self._wrap(f"{layer}.{value.__name__}", value)
                    saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
            for layer, cls_name, attr in METHODS:
                cls = getattr(modules[layer], cls_name)
                raw = cls.__dict__[attr]
                name = f"{layer}.{cls_name}.{attr}"
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                saved.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()


def snapshot_attributes() -> dict:
    """Every attribute of the seven modules and the wrapped classes, by
    identity, for checking that tracing restored them."""
    modules = _modules()
    snap = {}
    for layer, module in modules.items():
        for attr, value in vars(module).items():
            snap[(layer, attr)] = id(value)
    for layer, cls_name, _ in METHODS:
        cls = getattr(modules[layer], cls_name)
        for attr, value in vars(cls).items():
            snap[(layer, cls_name, attr)] = id(value)
    return snap


# --- per-layer metrics -----------------------------------------------------

# name -> unit; every per-layer metric the benchmark reports.
PER_LAYER_UNITS = {
    "model.loss_grad_ms_p50": "ms",
    "model.loss_grad_ms_p90": "ms",
    "model.epochs": "count",
    "model.train_s": "s",
    "model.train_calls": "count",
    "model.adam_step_ms_p50": "ms",
    "model.val_eval_ms_p50": "ms",
    "model.predict_s": "s",
    "model.checkpoint_load_s": "s",
    "model.checkpoint_save_s": "s",
    "model.inputs_build_self_s": "s",
    "model.train_linear_s": "s",
    "localsim.edge_sim_values_s": "s",
    "localsim.edge_entries": "count",
    "localsim.naive_localsim_s": "s",
    "harness.load_dataset_s": "s",
    "harness.cache_lookups": "count",
    "harness.cache_hits": "count",
    "harness.run_experiment_self_s": "s",
    "graph.read_edge_list_s": "s",
    "graph.build_graph_s": "s",
    "graph.enhanced_filters_s": "s",
    "graph.filter_nnz": "count",
    "propagation.propagate_s": "s",
    "propagation.row_normalize_s": "s",
    "propagation.spmm_flops": "flop",
    "propagation.feature_digest_calls": "count",
    "propagation.feature_digest_s": "s",
    "propagation.save_bundle_s": "s",
    "propagation.bundle_bytes": "bytes",
    "propagation.load_bundle_s": "s",
    "synthetic.generate_fsbm_s": "s",
    "synthetic.generate_fsbm_calls": "count",
    "synthetic.theory_check_self_s": "s",
    "synthetic.toy_study_self_s": "s",
    "cli.main_self_s": "s",
    "cli.commands": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.uncovered_s": "s",
    "trace.overhead_s": "s",
}

# Per-call timings pooled over every traced iteration, in milliseconds.
_CALL_PERCENTILES = {
    "model.loss_grad_ms_p50": ("model.loss_and_gradients", None, 50),
    "model.loss_grad_ms_p90": ("model.loss_and_gradients", None, 90),
    "model.adam_step_ms_p50": ("model.Adam.step", None, 50),
    "model.val_eval_ms_p50": ("model.evaluate", "model.train", 50),
}

# metric -> (span name, quantity); quantity is "total", "self", "calls" or
# an attrs key summed over the spans.
_ITERATION_SUMS = {
    "model.epochs": ("model.loss_and_gradients", "calls"),
    "model.train_s": ("model.train", "total"),
    "model.train_calls": ("model.train", "calls"),
    "model.checkpoint_load_s": ("model.load_checkpoint", "total"),
    "model.checkpoint_save_s": ("model.save_checkpoint", "total"),
    "model.inputs_build_self_s": ("model.ModelInputs.build", "self"),
    "model.train_linear_s": ("model.train_linear", "total"),
    "localsim.edge_sim_values_s": ("localsim.edge_sim_values", "total"),
    "localsim.edge_entries": ("localsim.edge_sim_values", "entries"),
    "localsim.naive_localsim_s": ("localsim.naive_localsim", "total"),
    "harness.load_dataset_s": ("harness.load_dataset", "self"),
    "harness.cache_lookups": ("harness.PropagationCache.get_or_compute", "calls"),
    "harness.cache_hits": ("harness.PropagationCache.get_or_compute", "hit"),
    "harness.run_experiment_self_s": ("harness.run_experiment", "self"),
    "graph.read_edge_list_s": ("graph.read_edge_list", "total"),
    "graph.build_graph_s": ("graph.build_graph", "total"),
    "graph.enhanced_filters_s": ("graph.enhanced_filters", "total"),
    "graph.filter_nnz": ("graph.enhanced_filters", "nnz"),
    "propagation.propagate_s": ("propagation.propagate_layers", "total"),
    "propagation.row_normalize_s": ("propagation.row_normalize", "total"),
    "propagation.spmm_flops": ("propagation.propagate_layers", "flops"),
    "propagation.feature_digest_calls": ("propagation.feature_digest", "calls"),
    "propagation.feature_digest_s": ("propagation.feature_digest", "total"),
    "propagation.save_bundle_s": ("propagation.save_bundle", "total"),
    "propagation.bundle_bytes": ("propagation.save_bundle", "bytes"),
    "propagation.load_bundle_s": ("propagation.load_bundle", "total"),
    "synthetic.generate_fsbm_s": ("synthetic.generate_fsbm", "total"),
    "synthetic.generate_fsbm_calls": ("synthetic.generate_fsbm", "calls"),
    "synthetic.theory_check_self_s": ("synthetic.theory_check", "self"),
    "synthetic.toy_study_self_s": ("synthetic.toy_study", "self"),
    "cli.main_self_s": ("cli.main", "self"),
    "cli.commands": ("cli.main", "calls"),
}


def _has_ancestor(spans, span, name) -> bool:
    while span.parent >= 0:
        span = spans[span.parent]
        if span.name == name:
            return True
    return False


def iteration_metrics(spans: list[Span], wall_s: float) -> dict:
    """Per-iteration layer totals from one traced iteration's spans."""
    out = {}
    for metric, (name, quantity) in _ITERATION_SUMS.items():
        chosen = [s for s in spans if s.name == name]
        if quantity == "total":
            out[metric] = sum(s.duration for s in chosen)
        elif quantity == "self":
            out[metric] = sum(s.self_s for s in chosen)
        elif quantity == "calls":
            out[metric] = len(chosen)
        else:
            out[metric] = sum(s.attrs[quantity] for s in chosen)
    out["model.predict_s"] = sum(
        s.duration
        for s in spans
        if s.name == "model.predict" and not _has_ancestor(spans, s, "model.train")
    )
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(s.self_s for s in spans if s.name.startswith(layer + "."))
    covered = sum(s.duration for s in spans if s.parent < 0)
    out["trace.wall_s"] = wall_s
    out["trace.uncovered_s"] = wall_s - covered
    return out


def call_durations_ms(spans: list[Span]) -> dict[str, list[float]]:
    """Per-call durations for the percentile metrics of one iteration."""
    out = {}
    for metric, (name, parent, _) in _CALL_PERCENTILES.items():
        out[metric] = [
            1e3 * s.duration
            for s in spans
            if s.name == name
            and (parent is None or (s.parent >= 0 and spans[s.parent].name == parent))
        ]
    return out


def percentile(values, q: int) -> float:
    """Inclusive-method percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer_metrics(iterations: list[dict], calls: dict[str, list[float]], overhead_s: float) -> dict:
    """Median over traced iterations of each per-iteration value, plus the
    pooled per-call percentiles and the tracing overhead."""
    out = {}
    for metric in PER_LAYER_UNITS:
        if metric in _CALL_PERCENTILES:
            out[metric] = percentile(calls[metric], _CALL_PERCENTILES[metric][2])
        elif metric == "trace.overhead_s":
            out[metric] = overhead_s
        else:
            out[metric] = statistics.median(it[metric] for it in iterations)
    return out
