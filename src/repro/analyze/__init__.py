"""Static analysis for sparse-convolution models (``python -m repro lint``).

Three layers:

* :mod:`repro.analyze.ir` — the model IR (coordinate strides, channel
  counts, kernel-map lineage, joins) recorded from one ``simulate_only``
  run of the model's real ``forward`` on a small synthetic scene; the same
  run yields the kernel trace for the trace-level rules;
* :mod:`repro.analyze.rules` — a pluggable lint-rule registry
  (severities info/warning/error) over that IR;
* :mod:`repro.analyze.tracecheck` — conservation invariants and a scatter
  write-race detector over :class:`~repro.gpusim.trace.KernelTrace`
  streams.

:func:`lint_model` / :func:`lint_workload` are the high-level entry points
used by the CLI, CI, and the serving runtime's admission controller.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.analyze.depgraph import (
    DepEdge,
    DependenceGraph,
    check_dependences,
    check_depgraph,
    check_latency_model,
    depgraph_report_json,
)
from repro.analyze.hb import (
    HappensBefore,
    SyncEvent,
    check_schedule,
    find_redundant_events,
    redundant_sync_edges,
)
from repro.analyze.ir import (
    ChannelMismatch,
    IRNode,
    IRTensor,
    JoinEvent,
    MapEvent,
    ModelIR,
    trace_model,
)
from repro.analyze.provenance import (
    Exemption,
    FuzzReport,
    KeyComponent,
    KeySchema,
    ReadLog,
    SiteAudit,
    audit_cache_site,
    audit_cache_sites,
    fuzz_all,
    fuzz_cache_site,
    provenance_findings,
    register_cache_site,
    wrap,
)
from repro.analyze.ranges import (
    LayerRange,
    RangeReport,
    ValueRange,
    model_range_report,
    precision_drop_veto,
    propagate_ranges,
)
from repro.analyze.rules import (
    RULES,
    Finding,
    LintContext,
    Severity,
    lint_rule,
    max_severity,
    run_rules,
    static_weight_bytes,
)
from repro.analyze.tracecheck import (
    TraceViolation,
    assert_trace_ok,
    check_conv_trace,
    check_scatter_races,
    check_trace,
    scatter_conflicts,
)
from repro.hw.specs import DeviceSpec
from repro.nn.module import Module
from repro.precision import Precision


def lint_model(
    model: Module,
    *,
    in_channels: int,
    device: "DeviceSpec | str" = "a100",
    precision: "Precision | str" = Precision.FP16,
    policy: Optional[Any] = None,
    ndim: int = 3,
    rules: Optional[Sequence[str]] = None,
    ir: Optional[ModelIR] = None,
) -> List[Finding]:
    """Lint one model for a deployment target.

    Walks ``model`` once (:func:`trace_model`) and runs the rules over the
    recorded IR and kernel trace; ``ir`` lints a walk the caller already
    made for the same target instead.  Returns findings sorted most severe
    first (empty list = clean).
    """
    from repro.hw import get_device

    if ir is None:
        ir = trace_model(
            model,
            in_channels=in_channels,
            ndim=ndim,
            device=device,
            precision=precision,
            policy=policy,
        )
    ctx = LintContext(
        ir=ir,
        device=get_device(device),
        precision=Precision.parse(precision),
        policy=policy,
    )
    return run_rules(ctx, rules=rules)


def lint_workload(
    workload_id: str,
    *,
    device: "DeviceSpec | str" = "a100",
    precision: "Precision | str" = Precision.FP16,
    policy: Optional[Any] = None,
    rules: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint a bundled workload's model with its dataset's input channels."""
    from repro.models import get_workload

    workload = get_workload(workload_id)
    model = workload.build_model()
    return lint_model(
        model,
        in_channels=workload.dataset_config.in_channels,
        device=device,
        precision=precision,
        policy=policy,
        rules=rules,
    )


__all__ = [
    "ChannelMismatch",
    "DepEdge",
    "DependenceGraph",
    "Exemption",
    "Finding",
    "FuzzReport",
    "KeyComponent",
    "KeySchema",
    "HappensBefore",
    "SyncEvent",
    "IRNode",
    "IRTensor",
    "JoinEvent",
    "LayerRange",
    "LintContext",
    "MapEvent",
    "ModelIR",
    "RULES",
    "RangeReport",
    "ReadLog",
    "Severity",
    "SiteAudit",
    "TraceViolation",
    "ValueRange",
    "assert_trace_ok",
    "audit_cache_site",
    "audit_cache_sites",
    "check_conv_trace",
    "check_dependences",
    "check_depgraph",
    "check_latency_model",
    "check_scatter_races",
    "check_schedule",
    "check_trace",
    "depgraph_report_json",
    "find_redundant_events",
    "fuzz_all",
    "fuzz_cache_site",
    "lint_model",
    "lint_rule",
    "lint_workload",
    "max_severity",
    "model_range_report",
    "precision_drop_veto",
    "propagate_ranges",
    "provenance_findings",
    "redundant_sync_edges",
    "register_cache_site",
    "run_rules",
    "scatter_conflicts",
    "static_weight_bytes",
    "trace_model",
    "wrap",
]
