"""Which program functions the traced run wraps, and the per-layer figures.

Each span name is ``<layer>.<function>``; the layer is the ``repro``
subpackage the function lives in.  ``README.md`` maps every layer to the
end-to-end metric it should move and the workload where it should move
it.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Tuple

#: (span name, defining module, function) — wrapped at the defining module
#: and at every ``repro.*`` module that bound it by name.
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("resilience.model_weight_bytes", "repro.resilience.footprint",
     "model_weight_bytes"),
    ("analyze.lint_model", "repro.analyze", "lint_model"),
    ("analyze.audit_cache_sites", "repro.analyze.provenance",
     "audit_cache_sites"),
    ("analyze.redundant_sync_edges", "repro.analyze.hb",
     "redundant_sync_edges"),
    ("data.make_sample", "repro.data.datasets", "make_sample"),
    ("sparse.build_kernel_map", "repro.sparse.kmap", "build_kernel_map"),
    ("kernels.trace_dataflow", "repro.kernels.registry", "trace_dataflow"),
    ("gpusim.estimate_trace_us", "repro.gpusim.engine", "estimate_trace_us"),
    ("opt.best_schedule", "repro.opt.schedule", "best_schedule"),
    ("opt.list_schedule", "repro.opt.schedule", "list_schedule"),
    ("tune.discover_groups", "repro.tune.groups", "discover_groups"),
)

#: (span name, module, class, method) — wrapped on the class.
METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("sparse.hash_query", "repro.sparse.hashmap", "CoordinateHashMap",
     "query"),
    ("serve.loop", "repro.serve.runtime", "ServingRuntime", "serve"),
    ("tune.tune", "repro.tune.tuner", "SparseAutotuner", "tune"),
    ("autotune.tune_model", "repro.autotune.online", "OnlineTuner",
     "tune_model"),
    ("autotune.surrogate_predict", "repro.autotune.surrogate",
     "SurrogateModel", "predict"),
    ("autotune.db.save", "repro.autotune.db", "TuningDatabase", "save"),
)

#: Span name of the top-level model object's call.
MODEL_CALL = "nn.forward"

#: Modules whose by-name bindings must exist before wrapping, so every
#: caller listed in the README sees the wrapper.
CALLERS = (
    "repro.serve",
    "repro.nn.conv",
    "repro.nn.context",
    "repro.tune.tuner",
    "repro.autotune.online",
    "repro.autotune",
    "repro.opt.schedule",
)

#: Layers the work of each workload was chosen to stress (by span name).
FOCUS: Dict[str, Tuple[str, ...]] = {
    "serve-flash": ("serve.loop", "resilience.model_weight_bytes"),
    "serve-streams": (
        "opt.best_schedule",
        "opt.list_schedule",
        "analyze.redundant_sync_edges",
        "nn.forward",
        "gpusim.estimate_trace_us",
    ),
    "tune-offline": (
        "kernels.trace_dataflow",
        "sparse.build_kernel_map",
        "sparse.hash_query",
    ),
}

#: Spans counted over the whole traced process: admission lint and audit
#: and fixture scenes are set-up work.  Every other span figure counts
#: the timed phase only.
WHOLE_RUN = frozenset(
    {"analyze.lint_model", "analyze.audit_cache_sites", "data.make_sample"}
)

#: Per-layer metrics, in report order; "<span>.calls" and "<span>.self_s"
#: come from the spans, the rest from program counters.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("serve.loop.self_s", "s"),
    ("serve.sims_per_request", "ratio"),
    ("serve.batches", "count"),
    ("serve.kmap_hit_rate", "ratio"),
    ("serve.retries", "count"),
    ("serve.sync_events", "count"),
    ("resilience.model_weight_bytes.calls", "count"),
    ("resilience.model_weight_bytes.self_s", "s"),
    ("analyze.lint_model.self_s", "s"),
    ("analyze.audit_cache_sites.calls", "count"),
    ("analyze.audit_cache_sites.self_s", "s"),
    ("analyze.redundant_sync_edges.calls", "count"),
    ("analyze.redundant_sync_edges.self_s", "s"),
    ("data.make_sample.calls", "count"),
    ("data.make_sample.self_s", "s"),
    ("sparse.build_kernel_map.calls", "count"),
    ("sparse.build_kernel_map.self_s", "s"),
    ("sparse.hash_query.calls", "count"),
    ("sparse.hash_query.self_s", "s"),
    ("nn.forward.calls", "count"),
    ("nn.forward.self_s", "s"),
    ("kernels.trace_dataflow.calls", "count"),
    ("kernels.trace_dataflow.self_s", "s"),
    ("gpusim.estimate_trace_us.calls", "count"),
    ("gpusim.estimate_trace_us.self_s", "s"),
    ("gpusim.trace_memo.hit_ratio", "ratio"),
    ("gpusim.trace_memo.evictions", "count"),
    ("opt.best_schedule.calls", "count"),
    ("opt.best_schedule.self_s", "s"),
    ("opt.list_schedule.calls", "count"),
    ("opt.list_schedule.self_s", "s"),
    ("tune.tune.self_s", "s"),
    ("tune.discover_groups.self_s", "s"),
    ("autotune.tune_model.self_s", "s"),
    ("autotune.surrogate_predict.calls", "count"),
    ("autotune.surrogate_predict.self_s", "s"),
    ("autotune.db.hits", "count"),
    ("autotune.db.misses", "count"),
    ("autotune.db.save_s", "s"),
    ("host.work_cpu_s", "s"),
    ("trace.work_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.focus_share", "ratio"),
)


def install(recorder) -> None:
    """Wrap every function and method in the tables above."""
    for module in CALLERS:
        importlib.import_module(module)
    for name, module, attr in FUNCTIONS:
        recorder.wrap_function(module, attr, name)
    for name, module, cls, attr in METHODS:
        recorder.wrap_method(
            getattr(importlib.import_module(module), cls), attr, name
        )


def phase_totals(recorder, phase: str) -> Dict[str, Tuple[int, float]]:
    """Span name -> (calls, self seconds) of the spans inside the root span
    named ``phase``; the phase's own residue is listed under ``phase``."""
    spans = recorder.spans
    own = recorder.self_times()
    root = next(i for i, s in enumerate(spans) if s[0] == phase and s[3] < 0)
    inside = [False] * len(spans)
    out: Dict[str, Tuple[int, float]] = {}
    for i in range(root, len(spans)):
        if i != root and not (spans[i][3] >= 0 and inside[spans[i][3]]):
            continue
        inside[i] = True
        calls, seconds = out.get(spans[i][0], (0, 0.0))
        out[spans[i][0]] = (calls + 1, seconds + own[i])
    return out


def layer_shares(
    totals: Dict[str, Tuple[int, float]]
) -> List[Tuple[str, float]]:
    """Self time summed per layer (first name component), largest first."""
    layers: Dict[str, float] = {}
    for name, (_, seconds) in totals.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
    return sorted(layers.items(), key=lambda kv: -kv[1])


def per_layer(
    workload: str,
    recorder,
    counters: Dict[str, float],
    memo: Dict[str, int],
) -> Dict[str, float]:
    """PER_LAYER figures of one traced run (0 where a layer is idle).

    ``host.work_cpu_s`` and ``trace.overhead_ratio`` need the untraced run
    of the same seed; the launcher fills them in.
    """
    everywhere = recorder.totals()
    work = phase_totals(recorder, "work")
    values: Dict[str, float] = {}
    for name, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field in ("calls", "self_s") and span:
            totals = everywhere if span in WHOLE_RUN else work
            calls, seconds = totals.get(span, (0, 0.0))
            values[name] = float(calls) if field == "calls" else seconds
        else:
            values[name] = float(counters.get(name, 0.0))
    values["autotune.db.save_s"] = work.get("autotune.db.save", (0, 0.0))[1]
    requests = counters.get("requests", 0.0)
    if requests:
        values["serve.sims_per_request"] = (
            work.get(MODEL_CALL, (0, 0.0))[0] / requests
        )
    lookups = memo["hits"] + memo["misses"]
    values["gpusim.trace_memo.hit_ratio"] = (
        memo["hits"] / lookups if lookups else 0.0
    )
    values["gpusim.trace_memo.evictions"] = float(memo["evictions"])
    traced_work_s = sum(seconds for _, seconds in work.values())
    values["trace.work_s"] = traced_work_s
    values["trace.focus_share"] = (
        sum(work.get(span, (0, 0.0))[1] for span in FOCUS[workload])
        / traced_work_s
    )
    return values

