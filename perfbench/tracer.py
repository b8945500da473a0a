"""Span tracing of the quantldpc layers from outside the package.

The layers are the package modules ``pmf``, ``quantizers``, ``evolution``,
``decoder``, ``sim`` and ``codes``.  :func:`install` replaces every public
function of those modules (and ``DecoderState.__init__``) with a wrapper
that records a span, and rebinds the wrapper at *every* module attribute
the original is bound to, so calls made through ``from .x import f`` names
inside the package are caught as well.  :func:`layer_metrics` turns the
spans and the counters gathered at the same boundaries into the per-layer
metrics of the benchmark.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("pmf", "quantizers", "evolution", "decoder", "sim", "codes")
PACKAGE = "quantldpc"
EVOLVE = ("evolution.cn_evolve_comp", "evolution.cn_evolve_min", "evolution.vn_evolve")
DECODERS = ("decoder.decode_batch", "decoder.omsq_decode_batch")


class Tracer:
    """In-memory span recorder: (id, name, start, end, parent id, run id).

    Spans nest strictly (one thread), so the open spans form a stack and
    the top of the stack is the parent of a new span.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.run_id = ""
        self._stack = []

    def open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][3] = time.perf_counter()
        if self._stack.pop() != sid:
            raise RuntimeError(f"span {self.spans[sid][1]} closed out of order")

    def span(self, name):
        return _Span(self, name)


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.sid = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.sid)
        return False


# ---------------------------------------------------------------------------
# counters recorded at the layer boundaries
# ---------------------------------------------------------------------------

def pruned_size(a, b, prune_tol, keep):
    """Folded symbols the DP partitions: the tail of joint mass at most
    ``prune_tol`` is folded away, and at least ``keep`` symbols survive."""
    if prune_tol <= 0.0:
        return int(a.size)
    above = np.nonzero(np.cumsum((a + b)[::-1])[::-1] > prune_tol)[0]
    last = int(above[-1]) if above.size else 0
    return min(int(a.size), max(last + 1, keep))


def _count_design_nonuniform(counts, args, kwargs, result):
    p = args[0]
    w = args[1] if len(args) > 1 else kwargs["w"]
    _, a, b = p.fold_positive()
    n = pruned_size(a, b, kwargs.get("prune_tol", 1e-12), 1 << (w - 1))
    counts["quantizers.design_nonuniform.symbols"] += int(p.alphabet.size)
    counts["quantizers.design_nonuniform.dp_cells"] += (n + 1) ** 2


def _count_design_uniform(counts, args, kwargs, result):
    grid = kwargs.get("delta_grid")
    steps = len(grid) if kwargs.get("rebuild") is not None else 1
    counts["quantizers.design_uniform.steps"] += steps


def _count_design_decoder(counts, args, kwargs, result):
    counts["evolution.design_decoder.iterations"] += len(result[1])


def _count_de_threshold(counts, args, kwargs, result):
    counts["evolution.de_threshold.probes"] += len(result.probes)


def _count_decode(name):
    def count(counts, args, kwargs, result):
        _, iters, ok = result
        frame_iterations = int(iters.sum())
        counts[f"{name}.frames"] += int(args[0].shape[0])
        counts[f"{name}.frame_iterations"] += frame_iterations
        counts[f"{name}.edge_updates"] += frame_iterations * args[1].n_edges
        counts["decoder.converged_frames"] += int(ok.sum())
    return count


COUNTERS = {
    "quantizers.design_nonuniform": _count_design_nonuniform,
    "quantizers.design_uniform": _count_design_uniform,
    "evolution.design_decoder": _count_design_decoder,
    "evolution.de_threshold": _count_de_threshold,
    "decoder.decode_batch": _count_decode("decoder.decode_batch"),
    "decoder.omsq_decode_batch": _count_decode("decoder.omsq_decode_batch"),
}

#: per-layer metrics of the benchmark: name -> unit.  Counts repeat exactly
#: across runs of one commit; the rest are times or ratios.
METRICS = {}
for _fn in ("awgn_llr_pmf", "apply_quantizer", "mutual_information", "symmetrize_vn_sum"):
    METRICS[f"pmf.{_fn}.calls"] = "count"
    METRICS[f"pmf.{_fn}.self_s"] = "s"
METRICS.update({
    "quantizers.design_nonuniform.calls": "count",
    "quantizers.design_nonuniform.self_s": "s",
    "quantizers.design_nonuniform.symbols": "count",
    "quantizers.design_nonuniform.dp_cells": "count",
    "quantizers.design_uniform.calls": "count",
    "quantizers.design_uniform.self_s": "s",
    "quantizers.design_uniform.steps": "count",
})
for _fn in ("build_translation_table", "design_channel_quantizer"):
    METRICS[f"quantizers.{_fn}.calls"] = "count"
    METRICS[f"quantizers.{_fn}.self_s"] = "s"
for _name in EVOLVE:
    METRICS[f"{_name}.calls"] = "count"
    METRICS[f"{_name}.self_s"] = "s"
METRICS.update({
    "evolution.evolve_per_step": "ratio",
    "evolution.design_decoder.calls": "count",
    "evolution.design_decoder.self_s": "s",
    "evolution.design_decoder.iterations": "count",
    "evolution.de_threshold.calls": "count",
    "evolution.de_threshold.total_s": "s",
    "evolution.de_threshold.probes": "count",
})
for _name in DECODERS:
    METRICS.update({
        f"{_name}.calls": "count",
        f"{_name}.self_s": "s",
        f"{_name}.frames": "count",
        f"{_name}.frame_iterations": "count",
        f"{_name}.edge_updates": "count",
        f"{_name}.edge_updates_per_s": "1/s",
    })
METRICS.update({
    "decoder.converged_frames": "count",
    "decoder.DecoderState.calls": "count",
    "decoder.DecoderState.self_s": "s",
    "codes.generate_regular_code.calls": "count",
    "codes.generate_regular_code.self_s": "s",
    "codes.bundled_code.calls": "count",
    "codes.bundled_code.self_s": "s",
    "sim.simulate_point.calls": "count",
    "sim.simulate_point.total_s": "s",
    "sim.simulate_point.self_s": "s",
})
for _layer in LAYERS:
    METRICS[f"layer.{_layer}.self_s"] = "s"
METRICS.update({
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead_s": "s",
})

#: counters that must repeat exactly across runs of one commit
DETERMINISTIC = tuple(m for m, unit in METRICS.items() if unit == "count")

# ---------------------------------------------------------------------------
# installing the wrappers
# ---------------------------------------------------------------------------

def _wrap(fn, name, tracer):
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if counter is not None:
            with tracer.span("trace.counters"):
                counter(tracer.counts, args, kwargs, result)
        return result

    return wrapper


def _targets():
    """(span name, original function) for every public layer function."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out.append((f"{layer}.{attr}", obj))
    return out


def install(tracer):
    """Wrap the layer functions; returns a callable that undoes it."""
    import quantldpc.decoder  # noqa: F401  (make sure every layer is loaded)

    targets = _targets()    # holds the functions, so their ids stay unique
    names = {id(fn): name for name, fn in targets}
    restore = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in names:
                setattr(mod, attr, _wrap(obj, names[id(obj)], tracer))
                restore.append((mod, attr, obj))

    state_cls = quantldpc.decoder.DecoderState
    init = state_cls.__init__
    state_cls.__init__ = _wrap(init, "decoder.DecoderState", tracer)
    restore.append((state_cls, "__init__", init))

    def uninstall():
        for owner, attr, obj in reversed(restore):
            setattr(owner, attr, obj)

    return uninstall


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans):
    """Per-span self time: duration minus the time its children cover."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for sid, _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _outermost(spans, name):
    """Durations of spans called ``name`` that have no ancestor of that name."""
    by_id = {s[0]: s for s in spans}
    total = 0.0
    for s in spans:
        if s[1] != name:
            continue
        p = s[4]
        while p >= 0 and by_id[p][1] != name:
            p = by_id[p][4]
        if p < 0:
            total += s[3] - s[2]
    return total


def layer_metrics(spans, counts, wall_s, overhead_s):
    """Every metric of :data:`METRICS` from one traced run."""
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for s in spans:
        calls[s[1]] += 1
        self_s[s[1]] += own[s[0]]

    out = {}
    for metric in METRICS:
        head, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls[head]
        elif field == "self_s" and not head.startswith("layer."):
            out[metric] = self_s[head]
        elif field == "total_s":
            out[metric] = _outermost(spans, head)
        elif metric in counts:
            out[metric] = counts[metric]
        else:
            out[metric] = 0
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
    for name in DECODERS:
        t = out[f"{name}.self_s"]
        out[f"{name}.edge_updates_per_s"] = out[f"{name}.edge_updates"] / t if t > 0 else 0.0

    by_id = {s[0]: s for s in spans}
    inner = sum(1 for s in spans if s[1] in EVOLVE and s[4] >= 0
                and by_id[s[4]][1] == "quantizers.design_uniform")
    steps = counts.get("quantizers.design_uniform.steps", 0)
    out["evolution.evolve_per_step"] = inner / steps if steps else 0.0

    out["trace.wall_s"] = wall_s
    out["trace.self_sum_s"] = sum(out[f"layer.{layer}.self_s"] for layer in LAYERS)
    out["trace.overhead_s"] = overhead_s
    return out
