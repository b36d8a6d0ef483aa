"""Pluggable lint rules over the static model IR.

Each rule is a function from a :class:`LintContext` to a list of
:class:`Finding`s, registered with the :func:`lint_rule` decorator.  Rules
never raise on bad models — they *report*; the CLI and the serving
admission controller decide what severity is fatal.

The built-in catalogue covers the statically decidable hazard classes of
the TorchSparse++ design space:

* ``stride-mismatch`` — join/skip operands on different coordinate strides;
* ``missing-forward-map`` — a transposed convolution whose matching
  downsample map is not in scope (a guaranteed ``MapError`` at runtime);
* ``channel-mismatch`` — layer fed a width it was not built for;
* ``tile-alignment`` — channel counts that pad badly against the 16-wide
  tensor-core tile granule, with the estimated padding-waste percentage
  (Figure 21);
* ``dataflow-precision`` — precision/schedule combinations that silently
  fall off the tensor-core path (e.g. FP32 on a tensor-core schedule);
* ``kmap-reuse`` — identical kernel-map keys built more than once because
  cache lineage was broken (missed ``MapCache`` reuse);
* ``dead-submodule`` — registered submodules the forward walk never
  reaches;
* ``peak-memory`` — the static lower bound on resident memory (every
  layer's weights at storage precision) against the target device's DRAM
  capacity: exceeding ``dram_gib`` is an error (no execution can fit, not
  even the bottom of the degradation ladder), exceeding 80% is a warning
  (features and workspace will contend for what remains).
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
)

if TYPE_CHECKING:
    from repro.opt.schedule import StreamSchedule

from repro.analyze.ir import ModelIR
from repro.analyze.tracecheck import TraceViolation
from repro.gpusim.trace import KernelTrace
from repro.hw.specs import DeviceSpec
from repro.nn.context import LayerConfig, Role
from repro.precision import Precision

#: Tensor-core tile granule along the channel dimensions (Figure 21: GEMM
#: tiles pad M/N/K to multiples of 16; misaligned channels waste the pad).
TILE_GRANULE = 16

#: Padding waste at or above this fraction is a warning (below: info).
WASTE_WARNING_THRESHOLD = 0.05

#: Static weight footprint above this fraction of device DRAM is a warning.
MEMORY_WARNING_FRACTION = 0.8

#: Stream count the schedule-verification lint rules analyze at (matches
#: the ``ServeConfig``/CLI ``gpu_streams`` default).
LINT_SCHEDULE_STREAMS = 4

#: Warn when sync overhead eats at least this fraction of the overlap win
#: a sync-free schedule would claim.  Healthy bundled workloads sit below
#: ~0.35 on every registered device.
SYNC_OVERHEAD_WARNING_FRACTION = 0.5


class Severity(enum.Enum):
    """Lint finding severity, ordered info < warning < error."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return {"info": 0, "warning": 1, "error": 2}[self.value]

    @classmethod
    def parse(cls, name: "str | Severity") -> "Severity":
        if isinstance(name, Severity):
            return name
        try:
            return cls(name.lower())
        except ValueError:
            valid = [s.value for s in cls]
            raise ValueError(
                f"unknown severity {name!r}; expected one of {valid}"
            ) from None


@dataclasses.dataclass(frozen=True)
class Finding:
    """One lint finding: what rule fired, where, and how bad."""

    rule: str
    severity: Severity
    path: str
    message: str
    data: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "message": self.message,
            "data": dict(self.data),
        }

    def format(self) -> str:
        return f"{self.severity.value:>7}  {self.rule:<20} {self.path}: {self.message}"


@dataclasses.dataclass
class LintContext:
    """Everything a rule may inspect: the IR plus the deployment target."""

    ir: ModelIR
    device: DeviceSpec
    precision: Precision
    #: Optional tuned policy (``FixedPolicy``/``GroupPolicy``); ``None``
    #: means the default layer configuration for every signature group.
    policy: Optional[Any] = None
    _trace_violations: Optional[List[TraceViolation]] = dataclasses.field(
        default=None, repr=False
    )
    _schedule: Optional["StreamSchedule"] = dataclasses.field(
        default=None, repr=False
    )

    @property
    def trace(self) -> Optional[KernelTrace]:
        """Kernel trace of the IR's walk; the dependence/liveness rules
        are skipped without one (a hazard stopped the walk)."""
        return self.ir.trace

    def layer_config(self, signature: Any) -> LayerConfig:
        if self.policy is None:
            return LayerConfig()
        return self.policy.config(signature, Role.FORWARD)

    def trace_violations(self) -> List[TraceViolation]:
        """Depgraph violations of ``trace`` (memoized; [] without one)."""
        if self.trace is None:
            return []
        if self._trace_violations is None:
            from repro.analyze.depgraph import check_depgraph

            self._trace_violations = check_depgraph(
                self.trace, device=self.device, precision=self.precision
            )
        return self._trace_violations

    def stream_schedule(self) -> Optional["StreamSchedule"]:
        """Sync-aware best schedule of ``trace`` at the lint stream count
        (memoized; ``None`` without a trace)."""
        if self.trace is None or len(self.trace) == 0:
            return None
        if self._schedule is None:
            from repro.opt.schedule import best_schedule

            self._schedule = best_schedule(
                self.trace,
                self.device,
                self.precision,
                LINT_SCHEDULE_STREAMS,
            )
        return self._schedule


RuleFunc = Callable[[LintContext], List[Finding]]


@dataclasses.dataclass(frozen=True)
class Rule:
    name: str
    description: str
    func: RuleFunc


#: Rule name -> rule, in registration order.
RULES: Dict[str, Rule] = {}


def lint_rule(
    name: str, description: str
) -> Callable[[RuleFunc], RuleFunc]:
    """Register a lint pass under ``name``."""

    def decorator(func: RuleFunc) -> RuleFunc:
        RULES[name] = Rule(name=name, description=description, func=func)
        return func

    return decorator


def run_rules(
    ctx: LintContext, rules: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Run the selected rules (default: all) and return findings sorted
    most severe first."""
    names = list(rules) if rules is not None else list(RULES)
    unknown = [n for n in names if n not in RULES]
    if unknown:
        raise ValueError(
            f"unknown lint rule(s) {unknown}; have {sorted(RULES)}"
        )
    findings: List[Finding] = []
    for name in names:
        findings.extend(RULES[name].func(ctx))
    findings.sort(key=lambda f: (-f.severity.rank, f.rule, f.path))
    return findings


def max_severity(findings: Sequence[Finding]) -> Optional[Severity]:
    if not findings:
        return None
    return max((f.severity for f in findings), key=lambda s: s.rank)


# ---------------------------------------------------------------------- #
# Built-in rules
# ---------------------------------------------------------------------- #
@lint_rule(
    "stride-mismatch",
    "join/skip operands must live on the same coordinate stride",
)
def _rule_stride_mismatch(ctx: LintContext) -> List[Finding]:
    findings: List[Finding] = []
    for join in ctx.ir.joins:
        if join.left_stride != join.right_stride:
            findings.append(
                Finding(
                    rule="stride-mismatch",
                    severity=Severity.ERROR,
                    path=join.path,
                    message=(
                        f"{join.kind} joins tensors on different coordinate "
                        f"strides {join.left_stride} vs {join.right_stride}; "
                        f"the operands index different coordinate sets"
                    ),
                    data={
                        "kind": join.kind,
                        "left_stride": list(join.left_stride),
                        "right_stride": list(join.right_stride),
                    },
                )
            )
    return findings


@lint_rule(
    "missing-forward-map",
    "transposed convolutions need the matching downsample map in scope",
)
def _rule_missing_forward_map(ctx: LintContext) -> List[Finding]:
    findings: List[Finding] = []
    for event in ctx.ir.map_events:
        if event.event == "missing_forward_map":
            stride, kernel, conv_stride, _ = event.key
            findings.append(
                Finding(
                    rule="missing-forward-map",
                    severity=Severity.ERROR,
                    path=event.path,
                    message=(
                        f"transposed convolution (stride {stride}, kernel "
                        f"{kernel}, upsample {conv_stride}) has no matching "
                        f"forward map in its cache scope; this raises "
                        f"MapError at runtime — run the matching downsample "
                        f"first or share the map cache"
                    ),
                    data={"key": repr(event.key)},
                )
            )
        elif event.event == "bad_upsample":
            stride, _, conv_stride, _ = event.key
            findings.append(
                Finding(
                    rule="missing-forward-map",
                    severity=Severity.ERROR,
                    path=event.path,
                    message=(
                        f"cannot upsample tensor stride {stride} by "
                        f"{conv_stride}: stride is not divisible"
                    ),
                    data={"key": repr(event.key)},
                )
            )
    return findings


@lint_rule(
    "channel-mismatch",
    "layers must receive the channel width they were built for",
)
def _rule_channel_mismatch(ctx: LintContext) -> List[Finding]:
    findings: List[Finding] = []
    for mismatch in ctx.ir.channel_mismatches:
        findings.append(
            Finding(
                rule="channel-mismatch",
                severity=Severity.ERROR,
                path=mismatch.path,
                message=(
                    f"layer expects {mismatch.expected} input channels but "
                    f"receives {mismatch.got}"
                ),
                data={"expected": mismatch.expected, "got": mismatch.got},
            )
        )
    for join in ctx.ir.joins:
        if (
            join.kind == "residual_add"
            and join.left_channels != join.right_channels
        ):
            findings.append(
                Finding(
                    rule="channel-mismatch",
                    severity=Severity.ERROR,
                    path=join.path,
                    message=(
                        f"residual add joins {join.left_channels} with "
                        f"{join.right_channels} channels"
                    ),
                    data={
                        "left": join.left_channels,
                        "right": join.right_channels,
                    },
                )
            )
    return findings


def _padding_waste(channels: int, granule: int = TILE_GRANULE) -> float:
    padded = math.ceil(channels / granule) * granule
    return (padded - channels) / padded


@lint_rule(
    "tile-alignment",
    "channel counts should fill 16-wide tensor-core tiles (Figure 21)",
)
def _rule_tile_alignment(ctx: LintContext) -> List[Finding]:
    if (
        ctx.device.fp16_tensor_tflops is None
        and ctx.device.tf32_tensor_tflops is None
    ):
        return []  # no tensor cores on this device
    findings: List[Finding] = []
    seen = set()
    for node in ctx.ir.conv_nodes():
        if not ctx.layer_config(node.signature).tensor_cores:
            continue
        sides = []
        if node.in_channels is not None:
            sides.append(("in_channels", node.in_channels, "input"))
        if node.out_channels is not None:
            sides.append(("out_channels", node.out_channels, "output"))
        for side, channels, fixed_when in sides:
            waste = _padding_waste(channels)
            if waste <= 0.0:
                continue
            key = (node.path, side)
            if key in seen:
                continue
            seen.add(key)
            # Network-boundary widths (dataset features, class counts) are
            # fixed by the task, not the architect: never above info.
            boundary = (
                fixed_when in node.boundary.split("+") if node.boundary else False
            )
            if boundary:
                severity = Severity.INFO
            elif waste >= WASTE_WARNING_THRESHOLD:
                severity = Severity.WARNING
            else:
                severity = Severity.INFO
            padded = math.ceil(channels / TILE_GRANULE) * TILE_GRANULE
            findings.append(
                Finding(
                    rule="tile-alignment",
                    severity=severity,
                    path=node.path,
                    message=(
                        f"{side}={channels} pads to {padded} on the "
                        f"{TILE_GRANULE}-wide tensor-core tile: "
                        f"{100 * waste:.1f}% of the tile MACs are padding "
                        f"waste (Figure 21)"
                        + (
                            "; width is fixed by the dataset/task"
                            if boundary
                            else ""
                        )
                    ),
                    data={
                        "side": side,
                        "channels": channels,
                        "padded": padded,
                        "waste_pct": round(100 * waste, 2),
                        "boundary": boundary,
                    },
                )
            )
    return findings


@lint_rule(
    "dataflow-precision",
    "precision must match the configured compute path",
)
def _rule_dataflow_precision(ctx: LintContext) -> List[Finding]:
    findings: List[Finding] = []
    has_fp16_tc = ctx.device.fp16_tensor_tflops is not None
    has_tf32_tc = ctx.device.tf32_tensor_tflops is not None
    for signature, group in sorted(
        ctx.ir.signature_groups().items(), key=lambda kv: kv[1][0].path
    ):
        config = ctx.layer_config(signature)
        if not config.tensor_cores:
            continue
        path = group[0].path
        layers = f"{len(group)} layer(s) in group"
        if ctx.precision is Precision.FP32 and (has_fp16_tc or has_tf32_tc):
            findings.append(
                Finding(
                    rule="dataflow-precision",
                    severity=Severity.WARNING,
                    path=path,
                    message=(
                        f"FP32 cannot execute on {ctx.device.name} tensor "
                        f"cores; the tensor-core schedule silently falls "
                        f"back to CUDA cores "
                        f"({ctx.device.tensor_to_cuda_ratio:.1f}x slower "
                        f"peak) — use fp16/tf32 or set tensor_cores=False "
                        f"({layers})"
                    ),
                    data={"signature": repr(signature), "group": len(group)},
                )
            )
        elif ctx.precision is Precision.TF32 and not has_tf32_tc:
            findings.append(
                Finding(
                    rule="dataflow-precision",
                    severity=Severity.WARNING,
                    path=path,
                    message=(
                        f"{ctx.device.name} has no TF32 tensor path; TF32 "
                        f"runs as FP32 on CUDA cores ({layers})"
                    ),
                    data={"signature": repr(signature), "group": len(group)},
                )
            )
        elif not has_fp16_tc and not has_tf32_tc:
            findings.append(
                Finding(
                    rule="dataflow-precision",
                    severity=Severity.INFO,
                    path=path,
                    message=(
                        f"tensor cores requested but {ctx.device.name} has "
                        f"none; schedule runs on CUDA cores ({layers})"
                    ),
                    data={"signature": repr(signature), "group": len(group)},
                )
            )
    return findings


@lint_rule(
    "kmap-reuse",
    "identical kernel maps should be built once and reused (MapCache)",
)
def _rule_kmap_reuse(ctx: LintContext) -> List[Finding]:
    findings: List[Finding] = []
    builds_by_key = sorted(
        ctx.ir.map_builds().items(), key=lambda kv: kv[1][0].path
    )
    for key, builds in builds_by_key:
        if len(builds) < 2:
            continue
        stride, kernel, conv_stride, _ = key
        paths = [b.path for b in builds]
        findings.append(
            Finding(
                rule="kmap-reuse",
                severity=Severity.WARNING,
                path=paths[0],
                message=(
                    f"kernel map (stride {stride}, kernel {kernel}, conv "
                    f"stride {conv_stride}) is built {len(builds)} times in "
                    f"separate cache scopes ({', '.join(paths[1:])} rebuild "
                    f"it); share one MapCache to pay the hash build once"
                ),
                data={"key": repr(key), "builds": paths},
            )
        )
    return findings


def static_weight_bytes(ir: ModelIR, precision: Precision) -> float:
    """Static lower bound on resident memory: conv weights at storage
    precision.

    A lower bound by construction — it ignores activations, workspace and
    non-conv parameters; anything the model actually executes only adds to
    it.  Shared submodules traced more than once count once (deduplicated
    by module path).
    """
    itemsize = float(precision.itemsize)
    seen: Set[str] = set()
    total = 0.0
    for node in ir.conv_nodes():
        if node.path in seen:
            continue
        if node.in_channels is None or node.out_channels is None:
            continue
        seen.add(node.path)
        volume = 1
        for k in node.kernel_size or (1,):
            volume *= int(k)
        total += itemsize * volume * node.in_channels * node.out_channels
    return total


@lint_rule(
    "peak-memory",
    "static weight footprint must fit the target device's DRAM",
)
def _rule_peak_memory(ctx: LintContext) -> List[Finding]:
    weights = static_weight_bytes(ctx.ir, ctx.precision)
    dram = ctx.device.dram_bytes
    if weights <= MEMORY_WARNING_FRACTION * dram:
        return []
    gib = float(1 << 30)
    data = {
        "weight_bytes": weights,
        "dram_bytes": dram,
        "fraction": round(weights / dram, 4),
    }
    if weights > dram:
        severity = Severity.ERROR
        message = (
            f"static weight footprint {weights / gib:.2f} GiB exceeds "
            f"{ctx.device.name}'s {ctx.device.dram_gib:g} GiB DRAM; no "
            f"execution can fit — not even the degradation ladder's "
            f"minimal-footprint dataflow"
        )
    else:
        severity = Severity.WARNING
        message = (
            f"static weight footprint {weights / gib:.2f} GiB is "
            f"{100 * weights / dram:.0f}% of {ctx.device.name}'s "
            f"{ctx.device.dram_gib:g} GiB DRAM; features and kernel "
            f"workspace will contend for the remainder"
        )
    return [
        Finding(
            rule="peak-memory",
            severity=severity,
            path=ctx.ir.model_type,
            message=message,
            data=data,
        )
    ]


@lint_rule(
    "dead-submodule",
    "registered submodules the forward walk never executes",
)
def _rule_dead_submodule(ctx: LintContext) -> List[Finding]:
    findings: List[Finding] = []
    for path in ctx.ir.unvisited_paths:
        findings.append(
            Finding(
                rule="dead-submodule",
                severity=Severity.WARNING,
                path=path,
                message=(
                    "submodule is registered (its parameters are trained "
                    "and checkpointed) but never reached by forward"
                ),
                data={},
            )
        )
    return findings


# ---------------------------------------------------------------------- #
# Trace-level dependence/liveness rules (need ``ctx.trace``)
# ---------------------------------------------------------------------- #
def _depgraph_findings(
    ctx: LintContext, rule: str, invariants: Sequence[str]
) -> List[Finding]:
    findings: List[Finding] = []
    for violation in ctx.trace_violations():
        if violation.invariant not in invariants:
            continue
        findings.append(
            Finding(
                rule=rule,
                severity=Severity.ERROR,
                path=violation.launch or "<trace>",
                message=violation.message,
                data={"invariant": violation.invariant},
            )
        )
    return findings


@lint_rule(
    "uninitialized-read",
    "workspace buffers must be written before any launch reads them",
)
def _rule_uninitialized_read(ctx: LintContext) -> List[Finding]:
    return _depgraph_findings(
        ctx, "uninitialized-read", ("uninitialized-read", "raw-order")
    )


@lint_rule(
    "workspace-lifetime",
    "workspace buffers must be consumed and covered by workspace_bytes",
)
def _rule_workspace_lifetime(ctx: LintContext) -> List[Finding]:
    return _depgraph_findings(ctx, "workspace-lifetime", ("workspace-lifetime",))


@lint_rule(
    "unordered-conflicting-writes",
    "plain writes to one buffer need a RAW/WAR path ordering them",
)
def _rule_unordered_writes(ctx: LintContext) -> List[Finding]:
    return _depgraph_findings(
        ctx, "unordered-conflicting-writes", ("unordered-conflicting-writes",)
    )


@lint_rule(
    "critical-path-bound",
    "serialized latency estimate must dominate the DAG critical path",
)
def _rule_critical_path_bound(ctx: LintContext) -> List[Finding]:
    return _depgraph_findings(
        ctx,
        "critical-path-bound",
        ("critical-path-bound", "scheduled-latency-bound"),
    )


#: Serialized-over-critical-path ratio at or above this reports untapped
#: launch parallelism (info): multi-stream scheduling could overlap work.
PARALLELISM_INFO_THRESHOLD = 1.5


@lint_rule(
    "launch-parallelism",
    "traces with a short critical path benefit from multi-stream overlap",
)
def _rule_launch_parallelism(ctx: LintContext) -> List[Finding]:
    if ctx.trace is None or len(ctx.trace) == 0:
        return []
    from repro.analyze.depgraph import DependenceGraph
    from repro.gpusim.engine import estimate_launch_us

    graph = DependenceGraph.build(ctx.trace)
    _, span = graph.critical_path(ctx.device, ctx.precision)
    if span <= 0.0:
        return []
    serialized = sum(
        estimate_launch_us(launch, ctx.device, ctx.precision)
        for launch in ctx.trace
    )
    parallelism = serialized / span
    if parallelism < PARALLELISM_INFO_THRESHOLD:
        return []
    return [
        Finding(
            rule="launch-parallelism",
            severity=Severity.INFO,
            path="<trace>",
            message=(
                f"dependence DAG exposes {parallelism:.2f}x available "
                f"launch parallelism (serialized {serialized:.0f} us vs "
                f"critical path {span:.0f} us); schedule onto multiple "
                f"streams (gpu_streams > 1, `repro depgraph --schedule`) "
                f"to overlap independent launches"
            ),
            data={
                "parallelism": round(parallelism, 3),
                "serialized_us": round(serialized, 3),
                "critical_path_us": round(span, 3),
            },
        )
    ]


# ---------------------------------------------------------------------- #
# Schedule-verification rules (need ``ctx.trace``)
# ---------------------------------------------------------------------- #
@lint_rule(
    "unsynchronized-cross-stream-dep",
    "every cross-stream dependence needs a happens-before sync event",
)
def _rule_unsynchronized_cross_stream(ctx: LintContext) -> List[Finding]:
    schedule = ctx.stream_schedule()
    if schedule is None:
        return []
    from repro.analyze.hb import check_schedule

    findings = _depgraph_findings(
        ctx,
        "unsynchronized-cross-stream-dep",
        (
            "unsynchronized-cross-stream-dep",
            "malformed-sync",
            "malformed-schedule",
        ),
    )
    seen = {(f.path, f.message) for f in findings}
    assert ctx.trace is not None
    for violation in check_schedule(ctx.trace, schedule):
        key = (violation.launch or "<schedule>", violation.message)
        if key in seen:
            continue
        seen.add(key)
        findings.append(
            Finding(
                rule="unsynchronized-cross-stream-dep",
                severity=Severity.ERROR,
                path=violation.launch or "<schedule>",
                message=violation.message,
                data={"invariant": violation.invariant},
            )
        )
    return findings


@lint_rule(
    "redundant-sync",
    "sync events already implied by happens-before are pure overhead",
)
def _rule_redundant_sync(ctx: LintContext) -> List[Finding]:
    schedule = ctx.stream_schedule()
    if schedule is None:
        return []
    from repro.analyze.hb import find_redundant_events

    findings: List[Finding] = []
    for event in find_redundant_events(schedule):
        findings.append(
            Finding(
                rule="redundant-sync",
                severity=Severity.INFO,
                path=schedule.assignments[event.wait_index].name,
                message=(
                    f"sync event {event.event_id} (launch "
                    f"{event.record_index} -> {event.wait_index}) is "
                    f"redundant: the ordering is already implied by stream "
                    f"program order and the remaining events — "
                    f"{ctx.device.sync_event_us:g} us of pure overhead"
                ),
                data={
                    "event": event.event_id,
                    "record": event.record_index,
                    "wait": event.wait_index,
                },
            )
        )
    removed = schedule.redundant_events_removed
    if removed > 0:
        saved_us = removed * ctx.device.sync_event_us
        findings.append(
            Finding(
                rule="redundant-sync",
                severity=Severity.INFO,
                path="<schedule>",
                message=(
                    f"sync-point inference kept {len(schedule.events)} of "
                    f"{len(schedule.events) + removed} candidate events: "
                    f"transitive reduction removed {removed} already "
                    f"implied by happens-before, saving {saved_us:.1f} us "
                    f"of sync overhead"
                ),
                data={
                    "kept": len(schedule.events),
                    "removed": schedule.redundant_events_removed,
                },
            )
        )
    return findings


@lint_rule(
    "sync-overhead-dominates",
    "multi-stream overlap must pay for its synchronization",
)
def _rule_sync_overhead_dominates(ctx: LintContext) -> List[Finding]:
    schedule = ctx.stream_schedule()
    if schedule is None:
        return []
    from repro.opt.schedule import best_schedule

    assert ctx.trace is not None
    free_device = dataclasses.replace(ctx.device, sync_event_us=0.0)
    ideal = best_schedule(
        ctx.trace, free_device, ctx.precision, LINT_SCHEDULE_STREAMS
    )
    win = ideal.serialized_us - ideal.makespan_us
    if win <= 0.0:
        return []  # no claimable overlap to begin with
    lost = schedule.makespan_us - ideal.makespan_us
    if lost < SYNC_OVERHEAD_WARNING_FRACTION * win:
        return []
    return [
        Finding(
            rule="sync-overhead-dominates",
            severity=Severity.WARNING,
            path="<trace>",
            message=(
                f"synchronization overhead ({ctx.device.sync_event_us:g} us "
                f"per event) eats {100 * lost / win:.0f}% of the "
                f"{win:.0f} us overlap win a sync-free schedule would claim "
                f"on {LINT_SCHEDULE_STREAMS} streams"
                + (
                    f"; the sync-aware scheduler falls back to "
                    f"{schedule.streams} stream(s)"
                    if schedule.streams < ideal.streams
                    else ""
                )
                + " — fuse launches or reduce cross-stream traffic"
            ),
            data={
                "overlap_win_us": round(win, 3),
                "sync_lost_us": round(lost, 3),
                "fraction": round(lost / win, 4),
                "sync_events": len(schedule.events),
            },
        )
    ]


# ---------------------------------------------------------------------- #
# Value-range rules (static, no trace needed)
# ---------------------------------------------------------------------- #
@lint_rule(
    "fp16-overflow",
    "propagated value ranges must fit fp16 at every layer boundary",
)
def _rule_fp16_overflow(ctx: LintContext) -> List[Finding]:
    from repro.analyze.ranges import FP16_MAX, propagate_ranges

    report = propagate_ranges(ctx.ir)
    fp16 = ctx.precision is Precision.FP16
    findings: List[Finding] = []
    for layer in report.overflowing():
        findings.append(
            Finding(
                rule="fp16-overflow",
                severity=Severity.ERROR if fp16 else Severity.WARNING,
                path=layer.path,
                message=(
                    f"expected output magnitude ~{layer.out_range.magnitude:.3g} "
                    f"exceeds fp16 max {FP16_MAX:.0f}: features "
                    + (
                        "overflow to inf at this precision"
                        if fp16
                        else "would overflow if storage precision drops to fp16"
                    )
                ),
                data={
                    "magnitude": layer.out_range.magnitude,
                    "abs_max": layer.out_range.abs_max,
                    "rms": layer.out_range.rms,
                },
            )
        )
    for layer in report.underflowing():
        findings.append(
            Finding(
                rule="fp16-overflow",
                severity=Severity.WARNING if fp16 else Severity.INFO,
                path=layer.path,
                message=(
                    f"expected output RMS {layer.out_range.rms:.3g} is below "
                    f"the fp16 normal range: features flush toward zero"
                ),
                data={"rms": layer.out_range.rms},
            )
        )
    return findings


#: Atomic accumulation over at least this many kernel offsets at fp16 is a
#: warning (the nondeterministic summation order compounds rounding error).
ACCUM_CHAIN_WARNING_VOLUME = 27


@lint_rule(
    "accum-order-nondeterminism",
    "atomic-accumulation dataflows sum in hardware-scheduled order",
)
def _rule_accum_order(ctx: LintContext) -> List[Finding]:
    from repro.kernels.registry import Dataflow

    atomic_dataflows = (
        Dataflow.FETCH_ON_DEMAND,
        Dataflow.FETCH_ON_DEMAND_UNFUSED,
        Dataflow.GATHER_SCATTER_FUSED,
    )
    findings: List[Finding] = []
    for signature, group in sorted(
        ctx.ir.signature_groups().items(), key=lambda kv: kv[1][0].path
    ):
        config = ctx.layer_config(signature)
        if config.dataflow not in atomic_dataflows:
            continue
        volume = 1
        for k in group[0].kernel_size or (1,):
            volume *= int(k)
        if volume <= 1:
            continue  # single offset: nothing to reorder
        long_chain = (
            ctx.precision is Precision.FP16
            and volume >= ACCUM_CHAIN_WARNING_VOLUME
        )
        findings.append(
            Finding(
                rule="accum-order-nondeterminism",
                severity=Severity.WARNING if long_chain else Severity.INFO,
                path=group[0].path,
                message=(
                    f"dataflow {config.dataflow.value} accumulates "
                    f"{volume} kernel offsets through hardware atomics in "
                    f"unsorted order: results are not bitwise reproducible "
                    f"run-to-run"
                    + (
                        f"; at fp16 the {volume}-term chain also compounds "
                        f"rounding error — prefer implicit_gemm or a sorted "
                        f"reduction"
                        if long_chain
                        else ""
                    )
                    + f" ({len(group)} layer(s) in group)"
                ),
                data={
                    "dataflow": config.dataflow.value,
                    "volume": volume,
                    "group": len(group),
                },
            )
        )
    return findings
