"""Cache-key soundness: read-set provenance audits of every memoization.

The framework's speed story is four generations of memoization — the
policy cache, each replica's kernel-map cache, the runtime's batch/sample
execution memos, the autotune database — plus the gpusim trace memo.
Every one is only as correct as its key: a key that misses an input the
cached computation actually *reads* produces stale or aliased hits that
silently corrupt every downstream latency number, and a key component the
computation never reads produces needless misses.

This module checks the keys mechanically:

* **Recording proxies** (:func:`wrap`) — an input object is wrapped in a
  dynamically created subclass whose ``__getattribute__`` records every
  attribute read as a dotted path (``"device.sms"``) into a
  :class:`ReadLog`, then delegates to the real object.  Because the proxy
  *is* a subclass, ``isinstance`` checks pass and inherited dunders
  (hashing, equality) work — their field reads are recorded too.
* **Key schemas** (:class:`KeySchema`) — each cache site declares, in one
  place, what its key covers: :class:`KeyComponent` entries map key parts
  to the read-path prefixes they determine, ``declared_reads`` names
  by-value inputs, and :class:`Exemption` entries document reads that are
  *deliberately* unkeyed (tune-once reuse, instance-pinned configuration,
  quantization buckets) with the reason.
* **Audits** (:func:`audit_cache_site`) — run the site's probe once,
  diff the recorded read set against the schema, and report
  ``unkeyed-read`` (error: read but not keyed, not exempted) and
  ``overkeyed-field`` (info: key component whose covered paths were never
  read).  Both surface via ``repro keycheck`` and the test suite's
  session audit.
* **Differential fuzzing** (:func:`fuzz_cache_site`) — a seeded fuzzer
  per site that perturbs *non-key* fields and asserts byte-identical
  cached results (and, for the trace memo, that key-field perturbations
  re-key instead of aliasing).  Run suite-wide from ``tests/conftest.py``
  like the trace sanitizer.

Audits are memoized per (site, schema object): the probes build tiny
scenes and runtimes, so the cost is paid once per process.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.analyze.rules import Finding, Severity
from repro.gpusim.engine import PRICING_FIELDS, SCHEDULE_FIELDS


# ---------------------------------------------------------------------- #
# Read-set recording proxies
# ---------------------------------------------------------------------- #
class ReadLog:
    """Set of dotted attribute paths recorded by :func:`wrap` proxies."""

    def __init__(self) -> None:
        self.paths: Set[str] = set()

    def add(self, path: str) -> None:
        self.paths.add(path)

    def sorted(self) -> Tuple[str, ...]:
        return tuple(sorted(self.paths))


_INTERNAL_ATTRS = ("_prov_target", "_prov_path", "_prov_log")

_PROXY_CLASSES: Dict[type, type] = {}


def _proxy_class(cls: type) -> type:
    """Recording subclass of ``cls`` (cached per class)."""
    cached = _PROXY_CLASSES.get(cls)
    if cached is not None:
        return cached

    def _getattribute(self: Any, name: str) -> Any:
        if name in _INTERNAL_ATTRS:
            return object.__getattribute__(self, name)
        try:
            target = object.__getattribute__(self, "_prov_target")
        except AttributeError:
            # A normally-constructed instance of the proxy class (e.g.
            # ``dataclasses.replace`` builds one): plain subclass behavior.
            return object.__getattribute__(self, name)
        if name.startswith("__") and name.endswith("__"):
            # Dunder lookups (``__class__``, ``__dict__``) are machinery,
            # not data reads; delegate without recording.
            return getattr(target, name)
        path = object.__getattribute__(self, "_prov_path")
        log = object.__getattribute__(self, "_prov_log")
        log.add(f"{path}.{name}")
        return getattr(target, name)

    proxy = type(
        f"{cls.__name__}ProvenanceProxy",
        (cls,),
        {"__getattribute__": _getattribute},
    )
    _PROXY_CLASSES[cls] = proxy
    return proxy


def wrap(obj: Any, name: str, log: ReadLog) -> Any:
    """Wrap ``obj`` so attribute reads are recorded as ``"{name}.{attr}"``.

    The wrapper is an ``object.__new__``-constructed instance of a
    recording subclass of ``type(obj)``: ``isinstance`` checks pass,
    methods resolve to bound methods of the real object (reads *inside* a
    method body are the target's own and are not re-recorded — auditing
    is field-granular at the wrapped object's surface).
    """
    proxy_cls = _proxy_class(type(obj))
    proxy = object.__new__(proxy_cls)
    object.__setattr__(proxy, "_prov_target", obj)
    object.__setattr__(proxy, "_prov_path", name)
    object.__setattr__(proxy, "_prov_log", log)
    return proxy


# ---------------------------------------------------------------------- #
# Key schemas
# ---------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class KeyComponent:
    """One part of a cache key and the read paths it determines.

    ``covers`` are dotted-path prefixes: a recorded read ``p`` is covered
    when ``p == c`` or ``p`` starts with ``c + "."`` for some cover ``c``.
    Components with empty ``covers`` document by-value key parts (flags,
    versions) that no proxied read maps to.  ``conditional`` components
    cover paths only read on some configurations (e.g. the multi-stream
    scheduling fields) and are never reported as overkeyed when the probe
    does not exercise them — the differential fuzzer checks them instead.
    """

    name: str
    covers: Tuple[str, ...] = ()
    note: str = ""
    conditional: bool = False


@dataclasses.dataclass(frozen=True)
class Exemption:
    """A read-path prefix that is deliberately not keyed, and why."""

    prefix: str
    reason: str


ProbeFunc = Callable[[], ReadLog]
FuzzFunc = Callable[[random.Random], Tuple[int, List[str]]]


@dataclasses.dataclass(frozen=True)
class KeySchema:
    """Declared key of one cache site plus its probe and fuzzer."""

    site: str
    description: str
    components: Tuple[KeyComponent, ...]
    declared_reads: Tuple[str, ...] = ()
    exemptions: Tuple[Exemption, ...] = ()
    probe: Optional[ProbeFunc] = None
    fuzz: Optional[FuzzFunc] = None


#: Site name -> schema, in registration order.
REGISTRY: Dict[str, KeySchema] = {}


def register_cache_site(schema: KeySchema) -> KeySchema:
    """Register (or replace) the key schema of one cache site."""
    REGISTRY[schema.site] = schema
    return schema


def _prefix_match(path: str, prefix: str) -> bool:
    return path == prefix or path.startswith(prefix + ".")


# ---------------------------------------------------------------------- #
# Audits
# ---------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class SiteAudit:
    """Outcome of diffing one site's recorded reads against its schema."""

    site: str
    reads: Tuple[str, ...]
    unkeyed: Tuple[str, ...]
    overkeyed: Tuple[str, ...]
    exempted: Tuple[Tuple[str, str], ...]

    @property
    def sound(self) -> bool:
        return not self.unkeyed

    def to_dict(self) -> Dict[str, Any]:
        return {
            "site": self.site,
            "reads": list(self.reads),
            "unkeyed": list(self.unkeyed),
            "overkeyed": list(self.overkeyed),
            "exempted": [list(pair) for pair in self.exempted],
            "sound": self.sound,
        }


#: site -> (schema identity at audit time, audit).  An audit is reused
#: only while the registered schema object is unchanged.
_AUDITS: Dict[str, Tuple[KeySchema, SiteAudit]] = {}


def _resolve_schema(site: "str | KeySchema") -> KeySchema:
    if isinstance(site, KeySchema):
        return site
    schema = REGISTRY.get(site)
    if schema is None:
        known = ", ".join(sorted(REGISTRY))
        raise ValueError(
            f"unknown cache site {site!r}; registered sites: {known}"
        )
    return schema


def audit_cache_site(site: "str | KeySchema") -> SiteAudit:
    """Probe one cache site and diff its read set against its schema."""
    schema = _resolve_schema(site)
    cached = _AUDITS.get(schema.site)
    if cached is not None and cached[0] is schema:
        return cached[1]
    if schema.probe is None:
        raise ValueError(f"cache site {schema.site!r} declares no probe")
    log = schema.probe()
    reads = log.sorted()
    covers: List[str] = list(schema.declared_reads)
    for component in schema.components:
        covers.extend(component.covers)
    unkeyed: List[str] = []
    exempted: List[Tuple[str, str]] = []
    for path in reads:
        if any(_prefix_match(path, c) for c in covers):
            continue
        reason = next(
            (
                e.reason
                for e in schema.exemptions
                if _prefix_match(path, e.prefix)
            ),
            None,
        )
        if reason is not None:
            exempted.append((path, reason))
        else:
            unkeyed.append(path)
    overkeyed = [
        component.name
        for component in schema.components
        if component.covers
        and not component.conditional
        and not any(
            _prefix_match(path, c)
            for path in reads
            for c in component.covers
        )
    ]
    audit = SiteAudit(
        site=schema.site,
        reads=reads,
        unkeyed=tuple(unkeyed),
        overkeyed=tuple(overkeyed),
        exempted=tuple(exempted),
    )
    _AUDITS[schema.site] = (schema, audit)
    return audit


def audit_cache_sites(
    sites: Optional[Tuple[str, ...]] = None,
) -> Dict[str, SiteAudit]:
    """Audit the selected sites (default: every registered site)."""
    names = list(sites) if sites is not None else sorted(REGISTRY)
    return {name: audit_cache_site(name) for name in names}


def provenance_findings() -> List[Finding]:
    """Audit every registered site and convert the diffs to findings."""
    findings: List[Finding] = []
    for site, audit in audit_cache_sites().items():
        schema = REGISTRY[site]
        key = ", ".join(c.name for c in schema.components)
        for path in audit.unkeyed:
            findings.append(
                Finding(
                    rule="unkeyed-read",
                    severity=Severity.ERROR,
                    path=site,
                    message=(
                        f"cached computation reads {path!r} but the key "
                        f"({key}) does not cover it and no exemption "
                        f"applies: a hit can replay a result computed "
                        f"from a different {path.split('.', 1)[0]}"
                    ),
                    data={"read": path, "components": key},
                )
            )
        for name in audit.overkeyed:
            findings.append(
                Finding(
                    rule="overkeyed-field",
                    severity=Severity.INFO,
                    path=site,
                    message=(
                        f"key component {name!r} covers paths the cached "
                        f"computation never read: every distinct value "
                        f"forces a needless miss"
                    ),
                    data={"component": name},
                )
            )
    return findings


# ---------------------------------------------------------------------- #
# Differential fuzzing
# ---------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class FuzzReport:
    """Outcome of one site's seeded differential fuzz run."""

    site: str
    trials: int
    failures: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        return {
            "site": self.site,
            "trials": self.trials,
            "failures": list(self.failures),
            "ok": self.ok,
        }


def fuzz_cache_site(site: "str | KeySchema", seed: int = 0) -> FuzzReport:
    """Run one site's seeded differential fuzzer.

    The fuzzer perturbs fields the schema declares as non-key and asserts
    the cached result is byte-identical; sites without a fuzzer report
    zero trials.
    """
    schema = _resolve_schema(site)
    if schema.fuzz is None:
        return FuzzReport(site=schema.site, trials=0, failures=())
    rng = random.Random(seed)
    trials, failures = schema.fuzz(rng)
    return FuzzReport(
        site=schema.site, trials=trials, failures=tuple(failures)
    )


def fuzz_all(seed: int = 0) -> Dict[str, FuzzReport]:
    """Fuzz every registered site with per-site derived seeds."""
    return {
        name: fuzz_cache_site(name, seed=seed + i)
        for i, name in enumerate(sorted(REGISTRY))
    }


# ---------------------------------------------------------------------- #
# Probe helpers (lazy imports: repro.serve imports repro.analyze)
# ---------------------------------------------------------------------- #
_PROBE_WORKLOAD = "SK-M-0.5"


def _probe_kmap(n: int = 160, seed: int = 0) -> Any:
    import numpy as np

    from repro.sparse.kmap import build_kernel_map

    rng = np.random.default_rng(seed)
    coords = np.unique(
        np.concatenate(
            [
                np.zeros((n, 1), np.int32),
                rng.integers(0, 12, (n, 3)).astype(np.int32),
            ],
            axis=1,
        ),
        axis=0,
    )
    return build_kernel_map(coords, kernel_size=3, stride=1)


def _probe_runtime() -> Any:
    from repro.serve.runtime import ServeConfig, ServingRuntime

    # Tiny scenes and no admission lint: the probes exercise the caches.
    return ServingRuntime(
        ServeConfig(
            device="a100", scene_scale=0.05, lint_admission=False
        )
    )


def _probe_requests(seeds: Tuple[int, ...]) -> List[Any]:
    from repro.serve.request import InferenceRequest

    return [
        InferenceRequest(
            request_id=i,
            workload_id=_PROBE_WORKLOAD,
            stream_id=0,
            frame_index=i,
            scene_seed=s,
            arrival_ms=0.0,
            deadline_ms=1000.0,
        )
        for i, s in enumerate(seeds)
    ]


def _priced_trace_us(
    trace: Any, device: Any, precision: Any
) -> float:
    """Serial pricing through the *unpatched* per-launch entry point.

    Calling the module-level ``estimate_trace_us`` under pytest would run
    the suite's trace sanitizer, whose checks legitimately read far more
    launch fields than pricing does and would pollute the probe read set.
    """
    from repro.gpusim.engine import estimate_launch_us

    return sum(
        estimate_launch_us(launch, device, precision) for launch in trace
    )


# ---------------------------------------------------------------------- #
# Built-in site registrations
# ---------------------------------------------------------------------- #
def _probe_trace_memo() -> ReadLog:
    from repro.hw.specs import get_device
    from repro.kernels.registry import Dataflow, trace_dataflow
    from repro.precision import Precision

    log = ReadLog()
    kmap = _probe_kmap()
    trace = trace_dataflow(
        Dataflow.IMPLICIT_GEMM, kmap, 16, 16, precision="fp16"
    )
    device = wrap(get_device("a100"), "device", log)
    launches = [wrap(launch, "launch", log) for launch in trace]
    total = _priced_trace_us(launches, device, Precision.FP16)
    assert total > 0.0
    return log


def _fuzz_trace_memo(rng: random.Random) -> Tuple[int, List[str]]:
    from repro.gpusim import engine
    from repro.gpusim.trace import KernelTrace
    from repro.hw.specs import get_device
    from repro.kernels.registry import Dataflow, trace_dataflow

    failures: List[str] = []
    device = get_device("a100")
    kmap = _probe_kmap()
    trace = trace_dataflow(
        Dataflow.IMPLICIT_GEMM, kmap, 16, 16, precision="fp16"
    )
    baseline = engine.estimate_trace_us(trace, device, "fp16", memoize=False)
    memoized = engine.estimate_trace_us(trace, device, "fp16")
    if memoized != baseline:
        failures.append(
            f"memoized miss-path result {memoized!r} != unmemoized "
            f"{baseline!r}"
        )
    if engine.estimate_trace_us(trace, device, "fp16") != baseline:
        failures.append("memoized hit-path result differs from unmemoized")
    trials = 2
    # Non-key (non-pricing) fields must not change the memoized result.
    for i in range(10):
        copies = [dataclasses.replace(launch) for launch in trace]
        mutated = KernelTrace(copies)
        victim = copies[rng.randrange(len(copies))]
        choice = rng.randrange(4)
        if choice == 0:
            victim.name = f"fuzzed/{i}"
        elif choice == 1:
            victim.fuse_group = f"fz{i}"
        elif choice == 2:
            victim.hoistable_scalar_ops = victim.scalar_ops * rng.random()
        else:
            victim.workspace_bytes = victim.workspace_bytes + rng.random()
        got = engine.estimate_trace_us(mutated, device, "fp16")
        trials += 1
        if got != baseline:
            failures.append(
                f"perturbing non-key field (choice {choice}) changed the "
                f"memoized estimate: {got!r} != {baseline!r}"
            )
    # Key-field perturbation must re-key: a trace differing in any priced
    # field gets a distinct signature, so the memo cannot alias it to the
    # baseline entry.  (The mutated trace is deliberately not priced — an
    # arbitrary flops change need not stay physically consistent with the
    # dependence-model invariants the suite sanitizer enforces.)
    for field in PRICING_FIELDS:
        if field in ("kind", "overlapped", "tensor_core_eligible"):
            continue
        perturbed = [dataclasses.replace(launch) for launch in trace]
        value = getattr(perturbed[0], field)
        setattr(perturbed[0], field, value * 2 + 1)
        trials += 1
        if engine.trace_signature(
            perturbed, device, "fp16"
        ) == engine.trace_signature(list(trace), device, "fp16"):
            failures.append(
                f"perturbing priced field {field!r} did not re-key the "
                f"trace memo"
            )
    return trials, failures


def _probe_policy_cache() -> ReadLog:
    from repro.hw.specs import get_device
    from repro.kernels.registry import Dataflow, trace_dataflow
    from repro.precision import Precision

    log = ReadLog()
    device = wrap(get_device("a100"), "device", log)
    scene = wrap(_probe_kmap(), "scene", log)
    best: Optional[Tuple[float, Any]] = None
    # The tune-once decision the policy cache memoizes: rank dataflows on
    # a sample scene and keep the winner.
    for dataflow in (Dataflow.IMPLICIT_GEMM, Dataflow.GATHER_SCATTER):
        trace = trace_dataflow(dataflow, scene, 16, 16, precision="fp16")
        us = _priced_trace_us(trace, device, Precision.FP16)
        if best is None or us < best[0]:
            best = (us, dataflow)
    assert best is not None
    return log


def _fuzz_policy_cache(rng: random.Random) -> Tuple[int, List[str]]:
    from repro.nn.context import GroupPolicy
    from repro.serve.cache import PolicyCache

    failures: List[str] = []
    cache = PolicyCache()
    policy = GroupPolicy({})
    key = PolicyCache.make_key(_PROBE_WORKLOAD, "A100", "fp16")
    cache.put(key, policy)
    trials = 0
    # Scene identity is deliberately not part of the key: any number of
    # distinct scenes must resolve to the same tuned policy object.
    for _ in range(8):
        rng.randrange(1 << 30)  # a fresh scene seed, irrelevant to the key
        again = PolicyCache.make_key(_PROBE_WORKLOAD, "A100", "fp16")
        trials += 1
        if again != key or cache.get(again) is not policy:
            failures.append("equal (model, device, precision) missed")
    for other in (
        PolicyCache.make_key(_PROBE_WORKLOAD, "A100", "fp32"),
        PolicyCache.make_key(_PROBE_WORKLOAD, "RTX 3090", "fp16"),
        PolicyCache.make_key("WM-C-1f", "A100", "fp16"),
    ):
        trials += 1
        if cache.get(other) is policy:
            failures.append(f"distinct key {other!r} aliased the entry")
    return trials, failures


def _batch_cost_key(cost: Any) -> Tuple[Any, ...]:
    """Canonical comparison form of a ``_BatchCost`` (charge order is
    batch-iteration order; the memo treats charges as a mapping)."""
    return (
        cost.service_ms,
        dict(cost.stages),
        sorted(cost.charges, key=lambda pair: pair[0]),
        cost.degraded,
        cost.oomed,
        cost.ladder,
        cost.sync_events,
    )


def _probe_batch_memo() -> ReadLog:
    from repro.models import get_workload
    from repro.nn.context import FixedPolicy
    from repro.serve.cache import KmapCache

    log = ReadLog()
    runtime = _probe_runtime()
    model = runtime.model(_PROBE_WORKLOAD)
    workload = get_workload(_PROBE_WORKLOAD)
    requests = _probe_requests((11, 11, 12))
    samples = [runtime.scenes.sample(workload, r) for r in requests]
    policy = FixedPolicy(runtime.default_config)
    spec = wrap(runtime.device, "device", log)
    runtime.device = spec
    runtime.config = wrap(runtime.config, "config", log)
    cost = runtime._compose_cost(
        [wrap(r, "request", log) for r in requests],
        [wrap(s, "sample", log) for s in samples],
        KmapCache(capacity=8),
        wrap(model, "model", log),
        _PROBE_WORKLOAD,
        wrap(policy, "policy", log),
        False,
        spec,
        False,
    )
    assert cost is not None
    return log


def _fuzz_batch_memo(rng: random.Random) -> Tuple[int, List[str]]:
    from repro.models import get_workload
    from repro.nn.context import FixedPolicy
    from repro.serve.cache import KmapCache

    failures: List[str] = []
    runtime = _probe_runtime()
    model = runtime.model(_PROBE_WORKLOAD)
    workload = get_workload(_PROBE_WORKLOAD)
    requests = _probe_requests((21, 22, 21))
    samples = [runtime.scenes.sample(workload, r) for r in requests]
    policy = FixedPolicy(runtime.default_config)
    cache = KmapCache(capacity=16)

    def compose(reqs: List[Any], samps: List[Any]) -> Any:
        return runtime._compose_cost(
            reqs, samps, cache, model, _PROBE_WORKLOAD, policy,
            False, runtime.device, False,
        )

    baseline = compose(requests, samples)
    if baseline is None:
        return 1, ["probe batch unexpectedly fell back to the cold path"]
    fingerprint = cache.batch_fingerprint(
        tuple(r.scene_key for r in requests)
    )
    trials = 1
    for i in range(6):
        order = list(range(len(requests)))
        rng.shuffle(order)
        # Perturb every non-key request field; leave (workload, seed)
        # — the scene key — alone.
        perturbed = [
            dataclasses.replace(
                requests[j],
                request_id=1000 + 10 * i + j,
                stream_id=rng.randrange(4),
                frame_index=rng.randrange(100),
                arrival_ms=rng.random() * 50.0,
                deadline_ms=500.0 + rng.random() * 500.0,
                tenant=rng.choice(("default", "gold")),
                priority=rng.randrange(3),
            )
            for j in order
        ]
        fp = cache.batch_fingerprint(
            tuple(r.scene_key for r in perturbed)
        )
        trials += 1
        if fp != fingerprint:
            failures.append(
                "batch fingerprint is not invariant under reordering + "
                "non-key request-field perturbation"
            )
        # Same order as the baseline: composition must be byte-identical.
        same_order = [
            dataclasses.replace(
                requests[j], request_id=2000 + 10 * i + j
            )
            for j in range(len(requests))
        ]
        got = compose(same_order, samples)
        trials += 1
        if got is None or _batch_cost_key(got) != _batch_cost_key(baseline):
            failures.append(
                "perturbing non-key request fields changed the composed "
                "batch cost"
            )
    return trials, failures


def _probe_sample_memo() -> ReadLog:
    from repro.models import get_workload
    from repro.nn.context import FixedPolicy

    log = ReadLog()
    runtime = _probe_runtime()
    model = runtime.model(_PROBE_WORKLOAD)
    workload = get_workload(_PROBE_WORKLOAD)
    request = _probe_requests((31,))[0]
    sample = runtime.scenes.sample(workload, request)
    runtime.device = wrap(runtime.device, "device", log)
    runtime.config = wrap(runtime.config, "config", log)
    cost = runtime._simulate_sample(
        wrap(sample, "sample", log),
        wrap(model, "model", log),
        wrap(FixedPolicy(runtime.default_config), "policy", log),
        False,
        None,
    )
    assert cost.latency_us > 0.0
    return log


def _fuzz_sample_memo(rng: random.Random) -> Tuple[int, List[str]]:
    from repro.models import get_workload
    from repro.nn.context import FixedPolicy
    from repro.serve.cache import scene_key

    failures: List[str] = []
    runtime = _probe_runtime()
    model = runtime.model(_PROBE_WORKLOAD)
    workload = get_workload(_PROBE_WORKLOAD)
    request = _probe_requests((41,))[0]
    sample = runtime.scenes.sample(workload, request)
    policy = FixedPolicy(runtime.default_config)
    cold = runtime._simulate_sample(sample, model, policy, False, None)
    trials = 1
    if runtime._simulate_sample(sample, model, policy, False, None) != cold:
        failures.append("cold per-sample simulation is not deterministic")
    # Warmth is a frozenset: construction order must not matter, and the
    # memo key must therefore be order-insensitive.
    charge = cold.charge
    warm = runtime._simulate_sample(sample, model, policy, False, charge)
    for _ in range(4):
        items = list(charge)
        rng.shuffle(items)
        reordered = frozenset(items)
        trials += 2
        if reordered != charge or hash(reordered) != hash(charge):
            failures.append("warmth frozenset is construction-order "
                            "sensitive")
        if (
            runtime._simulate_sample(sample, model, policy, False, reordered)
            != warm
        ):
            failures.append(
                "reordered warmth changed the warm per-sample cost"
            )
    # Non-key request fields must resolve to the same scene (and the
    # scene provider must return the identical sample object).
    for i in range(4):
        twin = dataclasses.replace(
            request,
            request_id=900 + i,
            frame_index=rng.randrange(100),
            arrival_ms=rng.random() * 10.0,
        )
        trials += 1
        if (
            twin.scene_key != scene_key(_PROBE_WORKLOAD, 41)
            or runtime.scenes.sample(workload, twin) is not sample
        ):
            failures.append(
                "non-key request fields perturbed the scene identity"
            )
    return trials, failures


def _probe_tuning_db() -> ReadLog:
    from repro.autotune.db import TuningKey
    from repro.hw.specs import get_device
    from repro.nn.context import LayerConfig, Role
    from repro.nn.conv import pass_trace
    from repro.precision import Precision

    log = ReadLog()
    device = wrap(get_device("a100"), "device", log)
    scene = wrap(_probe_kmap(), "scene", log)
    # The full cached transaction: derive the row's key from the scene's
    # sparsity statistics, then run the measurement a TuningEntry caches
    # (trace + price one candidate configuration on the kernel map).
    key = TuningKey.make(
        device,
        (1, 3, 1, False),
        16,
        16,
        "fp16",
        num_inputs=scene.num_inputs,
        num_outputs=scene.num_outputs,
        mean_neighbors=scene.mean_neighbors,
    )
    assert key.bucket
    trace = pass_trace(scene, 16, 16, LayerConfig(), Role.FORWARD, "fp16")
    us = _priced_trace_us(trace, device, Precision.FP16)
    assert us > 0.0
    return log


def _fuzz_tuning_db(rng: random.Random) -> Tuple[int, List[str]]:
    from repro.autotune.db import sparsity_bucket
    from repro.errors import ConfigError

    failures: List[str] = []
    trials = 0
    reference = sparsity_bucket(100_000, 100_000, 20.0)
    for _ in range(6):
        # Anything in [2^16, 2^17) shares 100k's floor-log2 bucket.
        n = rng.randrange(1 << 16, 1 << 17)
        d = 16.0 + rng.random() * 15.9  # [16, 32) shares 20's bucket
        trials += 1
        if sparsity_bucket(n, n, d) != reference:
            failures.append(
                f"same-bucket scene ({n}, {d:.2f}) got a different key"
            )
    for bad in (float("nan"), float("inf"), -1.0):
        trials += 1
        try:
            sparsity_bucket(100, 100, bad)
            failures.append(f"accepted mean_neighbors={bad!r}")
        except ConfigError:
            pass
    trials += 1
    if sparsity_bucket(0, 0, 0.0) == sparsity_bucket(1, 1, 1.0):
        failures.append(
            "zero-point scenes share a bucket with 1-point scenes"
        )
    return trials, failures


_PINNED_CONFIG = Exemption(
    "config",
    "ServeConfig is frozen for the runtime's lifetime and the memo dies "
    "with its runtime: config fields are instance-scoped, not key-scoped",
)
_PINNED_DEVICE = Exemption(
    "device",
    "every replica of one runtime serves the single configured device "
    "spec; the memo never crosses runtimes",
)


def _register_builtin_sites() -> None:
    register_cache_site(
        KeySchema(
            site="gpusim.trace-memo",
            description=(
                "estimate_trace_us memo keyed by (device, precision, "
                "streams, per-launch pricing signature)"
            ),
            components=(
                KeyComponent(
                    "launch_signature",
                    covers=tuple(f"launch.{f}" for f in PRICING_FIELDS),
                    note=(
                        "PRICING_FIELDS is the single source of truth: "
                        "the signature reads exactly the fields "
                        "estimate_launch_us prices"
                    ),
                ),
                KeyComponent(
                    "schedule_signature",
                    covers=tuple(f"launch.{f}" for f in SCHEDULE_FIELDS),
                    note=(
                        "streams > 1 additionally keys the dependence/"
                        "scheduling fields; exercised by the fuzzer, not "
                        "the single-stream probe"
                    ),
                    conditional=True,
                ),
                KeyComponent("device", covers=("device",)),
                KeyComponent(
                    "precision",
                    note="by value, unparsed (aliases duplicate, never "
                    "corrupt)",
                ),
                KeyComponent("streams", note="by value"),
            ),
            probe=_probe_trace_memo,
            fuzz=_fuzz_trace_memo,
        )
    )
    register_cache_site(
        KeySchema(
            site="serve.policy-cache",
            description=(
                "cluster-global tuned policies keyed by (model key, "
                "device, precision) — the tune-once/reuse-everywhere "
                "cache (Section 4.2)"
            ),
            components=(
                KeyComponent(
                    "model_key",
                    note="by value: workload/model identity determines "
                    "every layer signature the tuner prices",
                ),
                KeyComponent("device", covers=("device",)),
                KeyComponent("precision", note="by value"),
            ),
            exemptions=(
                Exemption(
                    "scene",
                    "tune-once/reuse-everywhere: a policy tuned on "
                    "sample scenes is deliberately reused for every "
                    "scene of the workload (Section 4.2)",
                ),
            ),
            probe=_probe_policy_cache,
            fuzz=_fuzz_policy_cache,
        )
    )
    register_cache_site(
        KeySchema(
            site="serve.kmap-batch-memo",
            description=(
                "per-runtime batch-execution memo keyed by (workload, "
                "KmapCache.batch_fingerprint over scene keys, policy "
                "version, degraded, forced_oom)"
            ),
            components=(
                KeyComponent(
                    "workload_id",
                    covers=("request.workload_id", "model"),
                    note="selects the model and dataset",
                ),
                KeyComponent(
                    "batch_fingerprint",
                    covers=("request.scene_key", "sample"),
                    note=(
                        "scene keys + per-scene warmth + cache capacity/"
                        "eviction context; a scene key determines its "
                        "generated sample bit-for-bit (seeded "
                        "make_sample at the runtime's pinned scale)"
                    ),
                ),
                KeyComponent(
                    "policy_version",
                    covers=("policy",),
                    note="the policy-cache content version pins the "
                    "resolved policy object within one runtime",
                ),
                KeyComponent("degraded", note="by value"),
                KeyComponent("forced_oom", note="by value"),
            ),
            declared_reads=("precision",),
            exemptions=(_PINNED_CONFIG, _PINNED_DEVICE),
            probe=_probe_batch_memo,
            fuzz=_fuzz_batch_memo,
        )
    )
    register_cache_site(
        KeySchema(
            site="serve.sample-memo",
            description=(
                "per-runtime _SampleCost memo keyed by (workload, "
                "scene_key, warmth, policy version, degraded)"
            ),
            components=(
                KeyComponent(
                    "scene_key",
                    covers=("sample",),
                    note=(
                        "(workload_id, scene_seed) determines the "
                        "generated sample bit-for-bit "
                        "(repro.serve.cache.scene_key)"
                    ),
                ),
                KeyComponent(
                    "workload_id",
                    covers=("model",),
                    note="selects the model the sample runs through",
                ),
                KeyComponent(
                    "warmth",
                    note="by value: frozenset of pre-charged map keys",
                ),
                KeyComponent(
                    "policy_version",
                    covers=("policy",),
                    note="pins the resolved policy within one runtime",
                ),
                KeyComponent(
                    "degraded",
                    note="by value: selects the default policy and "
                    "disables adaptive tiling",
                ),
            ),
            declared_reads=("precision",),
            exemptions=(_PINNED_CONFIG, _PINNED_DEVICE),
            probe=_probe_sample_memo,
            fuzz=_fuzz_sample_memo,
        )
    )
    register_cache_site(
        KeySchema(
            site="autotune.tuning-db",
            description=(
                "persistent TuningEntry store keyed by TuningKey "
                "(device, layer signature, sparsity bucket)"
            ),
            components=(
                KeyComponent("device", covers=("device",)),
                KeyComponent(
                    "layer",
                    note="by value: signature + channel pair + precision",
                ),
                KeyComponent(
                    "bucket",
                    covers=(
                        "scene.num_inputs",
                        "scene.num_outputs",
                        "scene.mean_neighbors",
                    ),
                    note="floor-log2 quantization of the scene statistics",
                ),
            ),
            exemptions=(
                Exemption(
                    "scene",
                    "the sparsity bucket deliberately quantizes scene "
                    "statistics (floor-log2): scenes in one bucket share "
                    "a tuned entry so the database stays per-scale, not "
                    "per-scene",
                ),
            ),
            probe=_probe_tuning_db,
            fuzz=_fuzz_tuning_db,
        )
    )


_register_builtin_sites()
