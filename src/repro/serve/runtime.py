"""The serving runtime: a deterministic, simulated-clock inference cluster.

Architecture (one `serve()` call = one serving run):

* a precomputed **request schedule** (from :mod:`repro.serve.arrivals`)
  drives a discrete-event loop — events are request arrivals, device
  completions, batching-window timers and retry re-admissions, all on one
  virtual clock;
* a bounded :class:`~repro.serve.admission.PriorityRequestQueue` applies
  admission control (overflowing arrivals are shed, lowest class first;
  optionally, queued requests older than ``timeout_ms`` are dropped), and a
  :class:`~repro.serve.batcher.DynamicBatcher` groups queued requests
  under a point budget and deadline window;
* **N device replicas** (:class:`DeviceReplica`) serve batches; a pluggable
  :class:`~repro.serve.balancer.LoadBalancer` decides which replica a batch
  lands on (round-robin, least-loaded, join-shortest-queue, or
  cache-affinity routing onto warm kernel-map state).  Each batch executes
  the workload's model through an
  :class:`~repro.nn.context.ExecutionContext` in ``simulate_only`` mode,
  and :mod:`repro.gpusim` turns the trace into the batch's service time;
* a deterministic **fault model** (:mod:`repro.serve.faults`) may stall
  replicas (they drain in-flight work and rejoin on recovery), fail
  batches transiently, and skew per-replica speed; failed requests are
  retried with exponential backoff up to ``max_retries`` and batches
  predicted to run long can be **hedged** onto a second replica, taking
  whichever copy finishes first;
* a cluster-global :class:`~repro.serve.cache.PolicyCache` holds tuned
  :class:`~repro.nn.context.GroupPolicy` objects (pre-warmed from
  ``python -m repro tune`` output or tuned inline), while each replica
  owns a private :class:`~repro.serve.cache.KmapCache` — warm map state
  lives in one device's memory, which is what cache-affinity routing
  exploits;
* when the policy cache misses **under deadline pressure** the batch is
  served with the untuned default :class:`LayerConfig` instead of waiting
  for a tuner run — graceful degradation, counted and reported.

Nothing reads a wall clock, and every fault decision is a seeded pure
function of the schedule: a fixed configuration yields bit-identical
metrics on every run, faults included.
"""

from __future__ import annotations

import dataclasses
import heapq
import random
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import AdmissionError, ConfigError, SimulatedOOMError
from repro.gpusim.engine import enforce_memory_budget, memory_budget_bytes
from repro.hw.specs import DeviceSpec, get_device
from repro.models.registry import Workload, get_workload
from repro.nn.context import ExecutionContext, FixedPolicy, GroupPolicy, LayerConfig
from repro.nn.module import Module
from repro.precision import Precision
from repro.serve.admission import (
    PriorityRequestQueue,
    RetryBudget,
    TenantSpec,
    TokenBucket,
)
from repro.serve.autoscale import AutoscalePolicy, Autoscaler
from repro.serve.balancer import BALANCERS, get_balancer
from repro.serve.batcher import DynamicBatcher
from repro.serve.breaker import CircuitBreaker
from repro.serve.cache import KmapCache, KmapEntry, PolicyCache, PolicyKey
from repro.serve.faults import NO_FAULTS, FaultInjector, FaultPlan
from repro.serve.metrics import ServingMetrics, compute_metrics
from repro.serve.request import InferenceRequest, RequestOutcome, RequestStatus
from repro.resilience import (
    DegradationLadder,
    ExecState,
    model_footprint,
    model_weight_bytes,
)
from repro.sparse.tensor import SparseTensor


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """Configuration of one serving runtime.

    Attributes:
        device / precision: the simulated GPU replicas and numeric
            precision every batch runs at.
        replicas: number of identical device replicas.
        balancer: replica-selection policy; one of
            :data:`repro.serve.balancer.BALANCERS` (``round_robin``,
            ``least_loaded``, ``jsq``, ``cache_affinity``).
        replica_queue_depth: in-flight batches one replica may hold; 1
            dispatches only to idle replicas, >1 lets load-aware balancers
            pipeline work behind busy replicas.
        queue_depth: admission-control bound; arrivals past it are shed.
        point_budget / max_batch_requests / batch_window_ms: dynamic
            batching knobs (see :class:`DynamicBatcher`).
        kmap_cache_size: LRU capacity of each replica's kernel-map reuse
            cache, in scenes.
        dispatch_overhead_us: fixed host-side cost per batch dispatch
            (scheduler decision, output routing).
        preprocess_us_per_point: per-request voxelization/feature cost,
            proportional to scene points.
        autotune_on_miss: tune inline on a policy-cache miss (paying
            ``tune_penalty_ms`` of simulated device time) instead of
            degrading to the default config.  Off by default: serving
            stacks pre-warm policies offline.
        tune_penalty_ms: simulated device occupancy of one inline tuner
            run.
        pressure_fraction: a request is under deadline pressure once it
            has waited this fraction of its deadline; pressured batches
            never wait for an inline tuner.
        scene_scale: azimuth-resolution scale of generated scenes — a
            wall-clock knob only (simulated numbers scale with it but
            stay internally consistent; comparisons hold at any scale).
        tune_scenes: sample scenes per inline/warmup tuner run.
        faults: injected failure model (:class:`FaultPlan`); None serves
            a healthy cluster.
        max_retries: re-dispatches granted to a request whose batch fails
            transiently; past it the request's status is ``FAILED``.
        retry_backoff_ms: base of the exponential retry backoff — attempt
            ``k`` waits ``retry_backoff_ms * 2**(k-1)`` after the failure.
        timeout_ms: drop queued requests older than this (``TIMED_OUT``);
            0 disables timeouts.  In-flight requests always resolve.
        hedge_ms: duplicate a batch onto a second replica when its
            predicted service time exceeds this (tail-latency hedging;
            the earlier copy wins); 0 disables hedging.
        tuning_db: path to a persistent :class:`repro.autotune`
            tuning database.  When set, policy-cache misses are resolved
            by the online tuner: a warm DB yields a tuned policy
            immediately (the surrogate only ranks, the DB supplies
            verified winners), while cold layers serve degraded and
            enqueue a background tuning job on the virtual clock.  The
            path need not exist yet (a cold replica starts empty); use
            :meth:`ServingRuntime.save_tuning_db` to persist what was
            learned.
        background_tune_ms: simulated latency of one background online
            tuning job (surrogate ranking + top-k trace verification on
            a worker thread); the tuned policy installs once the virtual
            clock passes it.
        lint_admission: statically lint every model at admission
            (:func:`repro.analyze.lint_model`) and reject models with
            error-level findings (:class:`~repro.errors.AdmissionError`)
            before any replica accepts traffic for them.
        gpu_streams: virtual GPU streams each replica overlaps
            independent kernel launches on; ``> 1`` prices every batch
            with the dependence-aware multi-stream scheduler
            (:mod:`repro.opt.schedule`) instead of serializing launches.
        mem_headroom: fraction of each replica's DRAM reserved for what
            the simulator does not trace (CUDA context, fragmentation);
            the usable budget is ``dram_bytes * (1 - mem_headroom)``.  A
            batch whose modeled peak exceeds its replica's budget raises
            a simulated OOM and is recovered in place via the degradation
            ladder (:mod:`repro.resilience`); admission rejects models
            whose static weight footprint alone exceeds the smallest
            replica budget.
        tenants: the tenant roster (:class:`TenantSpec`); empty serves a
            single implicit ``"default"`` tenant.  Tenants bring per-tenant
            quotas (token buckets), priority classes and retry budgets.
        priority_shedding: shed lowest-priority-first under queue
            pressure (an arriving higher-class request displaces the
            youngest worst-class queued request) instead of dropping
            arrivals FIFO-style.  Only matters when the schedule
            carries more than one priority class.
        retry_jitter: multiply every retry backoff by a seeded factor in
            ``[0.5, 1.5)`` so synchronized failures do not re-arrive as a
            synchronized retry wave.  Deterministic per (seed, request,
            attempt); disable for the legacy fixed-backoff behaviour.
        retry_budget: default retries-per-success ratio of every tenant
            that does not set its own; negative disables retry budgets.
        breaker_failures: consecutive batch failures that open a
            replica's circuit breaker (balancers then skip it for
            ``breaker_cooldown_ms``, after which one half-open probe
            decides re-close vs re-open); 0 disables breakers.
        breaker_cooldown_ms: OPEN-state duration before the probe.
        autoscale: SLO-driven autoscaling policy
            (:class:`~repro.serve.autoscale.AutoscalePolicy`); None keeps
            the fleet static at ``replicas``.
        slo_ms: latency target requests are judged against in the SLO
            attainment metrics (and by the autoscaler when active); 0
            judges each request against its own deadline.
        batch_memo: memoize the expensive model-execution portion of
            identical batches (same workload, scenes, cache-warmth
            pattern and policy-cache content).  Purely an evaluation-
            speed knob: memoized and unmemoized runs produce identical
            metrics, it only skips re-simulating work whose outcome is
            already known.  On by default; large traffic sweeps are
            infeasible without it.
    """

    device: str = "a100"
    precision: str = "fp16"
    replicas: int = 1
    balancer: str = "round_robin"
    replica_queue_depth: int = 1
    queue_depth: int = 32
    point_budget: int = 400_000
    max_batch_requests: int = 8
    batch_window_ms: float = 10.0
    kmap_cache_size: int = 16
    dispatch_overhead_us: float = 150.0
    preprocess_us_per_point: float = 0.002
    autotune_on_miss: bool = False
    tune_penalty_ms: float = 250.0
    pressure_fraction: float = 0.5
    scene_scale: float = 0.25
    tune_scenes: int = 1
    faults: Optional[FaultPlan] = None
    max_retries: int = 0
    retry_backoff_ms: float = 5.0
    timeout_ms: float = 0.0
    hedge_ms: float = 0.0
    tuning_db: Optional[str] = None
    background_tune_ms: float = 25.0
    lint_admission: bool = True
    mem_headroom: float = 0.1
    gpu_streams: int = 1
    tenants: Tuple[TenantSpec, ...] = ()
    priority_shedding: bool = True
    retry_jitter: bool = True
    retry_budget: float = -1.0
    breaker_failures: int = 0
    breaker_cooldown_ms: float = 250.0
    autoscale: Optional[AutoscalePolicy] = None
    slo_ms: float = 0.0
    batch_memo: bool = True

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ConfigError(f"replicas must be >= 1, got {self.replicas}")
        if self.gpu_streams < 1:
            raise ConfigError(
                f"gpu_streams must be >= 1, got {self.gpu_streams}"
            )
        if self.balancer not in BALANCERS:
            raise ConfigError(
                f"unknown balancer {self.balancer!r}; known balancers: "
                f"{', '.join(sorted(BALANCERS))}"
            )
        if self.replica_queue_depth < 1:
            raise ConfigError(
                f"replica_queue_depth must be >= 1, "
                f"got {self.replica_queue_depth}"
            )
        if not 0.0 < self.pressure_fraction <= 1.0:
            raise ConfigError(
                f"pressure_fraction must be in (0, 1], got {self.pressure_fraction}"
            )
        if self.dispatch_overhead_us < 0 or self.preprocess_us_per_point < 0:
            raise ConfigError("overheads must be non-negative")
        if self.tune_penalty_ms < 0:
            raise ConfigError("tune_penalty_ms must be non-negative")
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_backoff_ms < 0:
            raise ConfigError("retry_backoff_ms must be non-negative")
        if self.timeout_ms < 0 or self.hedge_ms < 0:
            raise ConfigError("timeout_ms / hedge_ms must be non-negative")
        if self.background_tune_ms < 0:
            raise ConfigError("background_tune_ms must be non-negative")
        if self.tuning_db is not None and not str(self.tuning_db).strip():
            raise ConfigError("tuning_db path must be non-empty when set")
        if not 0.0 <= self.mem_headroom < 1.0:
            raise ConfigError(
                f"mem_headroom must be in [0, 1), got {self.mem_headroom}"
            )
        names = [t.name for t in self.tenants]
        if len(names) != len(set(names)):
            raise ConfigError(f"duplicate tenant names in roster: {names}")
        if self.breaker_failures < 0:
            raise ConfigError(
                f"breaker_failures must be >= 0, got {self.breaker_failures}"
            )
        if self.breaker_cooldown_ms <= 0:
            raise ConfigError(
                f"breaker_cooldown_ms must be positive, "
                f"got {self.breaker_cooldown_ms}"
            )
        if self.slo_ms < 0:
            raise ConfigError(f"slo_ms must be >= 0, got {self.slo_ms}")


@dataclasses.dataclass
class DeviceReplica:
    """One simulated device with its own clock, queue and warm map cache.

    The lifecycle fields support autoscaling: ``provisioned_at_ms`` marks
    when the replica joined the fleet (0 for the static fleet), a
    draining replica accepts no new batches, and ``retired_at_ms`` is set
    once its in-flight work resolved and it left the fleet.  ``breaker``
    is the replica's circuit breaker when breakers are enabled.
    """

    index: int
    spec: DeviceSpec
    busy_ms: float = 0.0
    batches: int = 0
    inflight: int = 0
    free_at_ms: float = 0.0
    kmap_cache: Optional[KmapCache] = None
    failures: int = 0
    retries_served: int = 0
    hedges_served: int = 0
    ooms: int = 0
    breaker: Optional[CircuitBreaker] = None
    provisioned_at_ms: float = 0.0
    draining: bool = False
    retired_at_ms: Optional[float] = None

    @property
    def retired(self) -> bool:
        return self.retired_at_ms is not None


@dataclasses.dataclass(frozen=True)
class _BatchCost:
    """Memoized result of one batch's (simulated) model execution.

    Everything downstream of :meth:`ServingRuntime._execute`'s expensive
    portion — service time, stage breakdown, OOM/ladder outcome and the
    per-request kernel-map charge keys — as a pure value.  The memo key
    captures every input the execution depends on, so replaying a cached
    cost is byte-identical to re-simulating it.
    """

    service_ms: float  # model + ladder retry + preprocess (no dispatch)
    stages: Tuple[Tuple[str, float], ...]
    ladder: Tuple[str, ...]
    sync_events: int
    oomed: bool
    degraded: bool
    #: Charge keys of each scene the execution cold-filled, keyed by
    #: scene — not by batch position, so one memoized cost replays
    #: correctly for any batch ordering with the same fingerprint.
    charges: Tuple[Tuple[tuple, FrozenSet[tuple]], ...]


@dataclasses.dataclass(frozen=True)
class _SampleCost:
    """Memoized single-sample simulation at a fixed cache warmth.

    On one GPU stream the simulated trace serializes, so every batch
    quantity is a per-sample sum (latency, stage breakdown, preprocess,
    co-resident feature bytes) or max (liveness-aware peak workspace) —
    scene charge keys are per-kernel-map and disjoint across scenes, so
    a sample's cost is independent of its batchmates.  Batch costs
    compose from these (:meth:`ServingRuntime._compose_cost`), which
    collapses the memo space from "every distinct batch composition"
    to "every distinct (scene, warmth)".
    """

    latency_us: float
    stages: Tuple[Tuple[str, float], ...]
    preprocess_us: float
    feature_bytes: float
    peak_workspace_bytes: float
    charge: FrozenSet[tuple]  # keys a cold fill would record (empty if warm)


@dataclasses.dataclass
class _Attempt:
    """One dispatch of a batch onto one replica (primary or hedge copy)."""

    replica: DeviceReplica
    batch_id: int
    start_ms: float
    finish_ms: float
    service_ms: float
    failed: bool
    policy_hit: bool
    degraded: bool
    kmap_hits: List[bool]
    ladder: Tuple[str, ...] = ()


class SceneProvider:
    """Materialises (and memoises) request scenes.

    Frames of one stream share a ``scene_seed``, so they resolve to the
    *same* :class:`SparseTensor` — its ``MapCache`` then carries kernel
    maps across requests, mirroring an engine that keeps per-stream map
    state resident.
    """

    def __init__(self, scale: float):
        self.scale = scale
        self._samples: Dict[tuple, SparseTensor] = {}

    def sample(self, workload: Workload, request: InferenceRequest) -> SparseTensor:
        key = request.scene_key
        if key not in self._samples:
            from repro.data.datasets import make_sample

            self._samples[key] = make_sample(
                workload.dataset,
                frames=workload.frames,
                seed=request.scene_seed,
                scale=self.scale,
            )
        return self._samples[key]

    def points(self, workload: Workload, request: InferenceRequest) -> int:
        return self.sample(workload, request).num_points


@dataclasses.dataclass
class ServeResult:
    """Everything one serving run produced."""

    config: ServeConfig
    outcomes: List[RequestOutcome]
    metrics: ServingMetrics

    def describe(self) -> str:
        parts = [self.metrics.to_table(), self.metrics.stage_table()]
        if self.metrics.per_replica:
            parts.append(self.metrics.cluster_table())
        tenants = self.metrics.per_tenant
        if tenants and (
            len(tenants) > 1 or tenants[0].get("tenant") != "default"
        ):
            parts.append(self.metrics.tenant_table())
        return "\n\n".join(parts)


class ServingRuntime:
    """Request-driven serving over a cluster of simulated device replicas."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        policy_cache: Optional[PolicyCache] = None,
    ):
        self.config = config or ServeConfig()
        self.device = get_device(self.config.device)
        self.precision = Precision.parse(self.config.precision)
        self.policy_cache = policy_cache or PolicyCache()
        self.scenes = SceneProvider(scale=self.config.scene_scale)
        self.default_config = LayerConfig()
        self.ladder = DegradationLadder()
        self.memory_budget = memory_budget_bytes(
            self.device, self.config.mem_headroom
        )
        self._models: Dict[str, Module] = {}
        self._tuned_inline: set = set()
        #: Online-tuning state (active only when config.tuning_db is set).
        self.tuning_db = None
        self.online_tuner = None
        if self.config.tuning_db is not None:
            from repro.autotune import OnlineTuner, TuningDatabase

            self.tuning_db = TuningDatabase.load_or_create(
                self.config.tuning_db
            )
            self.online_tuner = OnlineTuner(self.tuning_db)
        #: Pending background tunes: policy key -> (completes_at_ms, policy).
        self._bg_tunes: Dict[PolicyKey, Tuple[float, GroupPolicy]] = {}
        self.background_tunes = 0
        #: Virtual time the first batch was served with a tuned policy.
        self.first_tuned_ms: Optional[float] = None
        #: Per-workload reason the degradation ladder must not drop
        #: storage precision (static value-range pass), None when safe.
        self._precision_vetoes: Dict[str, Optional[str]] = {}
        #: Batch-execution memo (active when ``config.batch_memo``): maps
        #: a full execution fingerprint to its :class:`_BatchCost`.  The
        #: key captures everything the simulated cost depends on, so a
        #: memo hit is indistinguishable from re-simulating the batch.
        self._batch_memo: Dict[tuple, _BatchCost] = {}
        #: Per-sample simulation memo backing :meth:`_compose_cost`:
        #: (workload, scene, warmth, policy version, degraded) ->
        #: :class:`_SampleCost`.
        self._sample_memo: Dict[tuple, _SampleCost] = {}

    # ------------------------------------------------------------------ #
    def _admit(self, workload_id: str, model: Module, in_channels: int) -> None:
        """Admission control: lint the model for this runtime's
        device/precision from one simulated walk of its forward and reject
        error-level findings, or a forward that raises, before any replica
        accepts traffic (a bad model should fail admission, not crash
        mid-batch).  Memory-aware admission is unconditional: a model
        whose static weight footprint — a lower bound on any execution's
        resident memory, before a single feature is allocated — already
        exceeds the smallest replica budget can never be served, not even
        by the bottom of the degradation ladder."""
        weights = model_weight_bytes(model, self.precision)
        if weights > self.memory_budget:
            raise AdmissionError(
                f"model for {workload_id!r} rejected at admission: static "
                f"weight footprint {weights / (1 << 30):.3f} GiB exceeds "
                f"the replica memory budget "
                f"{self.memory_budget / (1 << 30):.3f} GiB on "
                f"{self.device.name} (headroom "
                f"{self.config.mem_headroom:.0%})"
            )
        from repro.analyze import (
            Severity,
            lint_model,
            precision_drop_veto,
            trace_model,
        )

        # One walk of the real forward feeds both the value-range pass and
        # the lint rules.
        try:
            ir = trace_model(
                model,
                in_channels=in_channels,
                device=self.device,
                precision=self.precision,
            )
        except Exception as exc:
            raise AdmissionError(
                f"model for {workload_id!r} rejected at admission: forward "
                f"raised {type(exc).__name__}: {exc}"
            ) from exc
        # Static value-range pass: decide once, at admission, whether the
        # degradation ladder may ever take its precision-drop rung for
        # this model (an unsafe drop would overflow fp16 features and
        # break the degraded-results error bound).
        self._precision_vetoes[workload_id] = precision_drop_veto(ir)
        if not self.config.lint_admission:
            return
        findings = lint_model(
            model,
            in_channels=in_channels,
            device=self.device,
            precision=self.precision,
            ir=ir,
        )
        errors = [f for f in findings if f.severity is Severity.ERROR]
        if errors:
            details = "; ".join(
                f"{f.rule} at {f.path}: {f.message}" for f in errors[:3]
            )
            raise AdmissionError(
                f"model for {workload_id!r} rejected at admission with "
                f"{len(errors)} error-level lint finding(s): {details}"
            )

    def model(self, workload_id: str) -> Module:
        if workload_id not in self._models:
            workload = get_workload(workload_id)
            model = workload.build_model()
            model.eval()
            self._admit(
                workload_id, model, workload.dataset_config.in_channels
            )
            self._models[workload_id] = model
        return self._models[workload_id]

    def register_model(
        self, workload_id: str, model: Module, in_channels: int = 4
    ) -> Module:
        """Admit a caller-supplied model (serving stacks deploying custom
        networks); linted like any bundled workload."""
        model.eval()
        self._admit(workload_id, model, in_channels)
        self._models[workload_id] = model
        return model

    def policy_key(self, workload_id: str) -> PolicyKey:
        return PolicyCache.make_key(
            get_workload(workload_id).id, self.device.name, self.precision.value
        )

    def warm_policy(self, workload_id: str, seed_base: int = 9000) -> GroupPolicy:
        """Tune the workload's model now and install the policy (offline
        pre-warming — the ``python -m repro tune`` path, inlined)."""
        from repro.tune.tuner import SparseAutotuner

        workload = get_workload(workload_id)
        from repro.data.datasets import make_sample

        samples = [
            make_sample(
                workload.dataset,
                frames=workload.frames,
                seed=seed_base + i,
                scale=self.config.scene_scale,
            )
            for i in range(self.config.tune_scenes)
        ]
        policy, _ = SparseAutotuner().tune(
            self.model(workload_id), samples, self.device, self.precision
        )
        return self.policy_cache.put(self.policy_key(workload_id), policy)

    def warm_policy_from_file(self, workload_id: str, path) -> GroupPolicy:
        """Install a policy saved by ``python -m repro tune --output``."""
        return self.policy_cache.warm_from_file(self.policy_key(workload_id), path)

    def save_tuning_db(self, path=None) -> None:
        """Persist the online tuner's database (atomic write)."""
        if self.tuning_db is None:
            raise ConfigError(
                "no tuning database active; set ServeConfig.tuning_db"
            )
        target = path if path is not None else self.config.tuning_db
        self.tuning_db.save(target)

    def _tune_online(self, workload_id: str):
        """Run the online tuner for one workload; returns (policy, report).

        Uses a deterministic probe scene (the warm-policy seed) so DB keys
        are stable across runs and replicas."""
        from repro.data.datasets import make_sample

        workload = get_workload(workload_id)
        sample = make_sample(
            workload.dataset,
            frames=workload.frames,
            seed=9000,
            scale=self.config.scene_scale,
        )
        return self.online_tuner.tune_model(
            self.model(workload_id), sample, self.device, self.precision
        )

    # ------------------------------------------------------------------ #
    def _preprocess_us(self, sample: SparseTensor) -> float:
        return self.config.preprocess_us_per_point * sample.num_points

    def _under_pressure(self, batch: Sequence[InferenceRequest], now: float) -> bool:
        return any(
            now - r.arrival_ms > self.config.pressure_fraction * r.deadline_ms
            for r in batch
        )

    def _resolve_policy(
        self, batch: Sequence[InferenceRequest], now: float
    ) -> Tuple[object, bool, bool, float]:
        """Returns (policy, hit, degraded, extra_service_ms)."""
        workload_id = batch[0].workload_id
        key = self.policy_key(workload_id)
        # Background tunes whose virtual deadline has passed install first.
        for pending_key in list(self._bg_tunes):
            completes_at, tuned = self._bg_tunes[pending_key]
            if now >= completes_at:
                self.policy_cache.put(pending_key, tuned)
                del self._bg_tunes[pending_key]
        policy = self.policy_cache.get(key)
        if policy is not None:
            if self.first_tuned_ms is None:
                self.first_tuned_ms = now
            return policy, True, False, 0.0
        if self.online_tuner is not None and key not in self._bg_tunes:
            # Admission-time planning consults the surrogate + tuning DB
            # instead of tracing.  The search itself is cheap (that is the
            # point), so it runs here; only its *verification latency* is
            # modeled, and only for layers the DB could not answer.
            tuned, report = self._tune_online(workload_id)
            if report.db_misses == 0:
                # Fully warm: every group came out of the database — the
                # batch is served tuned with no tuning latency at all.
                self.policy_cache.put(key, tuned)
                if self.first_tuned_ms is None:
                    self.first_tuned_ms = now
                return tuned, False, False, 0.0
            # Cold layers needed real measurements: the tuned policy lands
            # after a background-tuning delay; this batch degrades.
            self.background_tunes += 1
            self._bg_tunes[key] = (
                now + self.config.background_tune_ms, tuned
            )
            return FixedPolicy(self.default_config), False, True, 0.0
        if (
            self.config.autotune_on_miss
            and key not in self._tuned_inline
            and not self._under_pressure(batch, now)
        ):
            # Inline tuning: the replica is occupied for the (simulated)
            # tuner run, then the batch is served with the fresh policy.
            self._tuned_inline.add(key)
            policy = self.warm_policy(workload_id)
            return policy, False, False, self.config.tune_penalty_ms
        # Graceful degradation: serve with the untuned default config.
        return FixedPolicy(self.default_config), False, True, 0.0

    def _execute(
        self,
        batch: Sequence[InferenceRequest],
        now: float,
        replica: DeviceReplica,
        forced_oom: bool = False,
    ) -> Tuple[float, bool, bool, List[bool], Dict[str, float], Tuple[str, ...]]:
        """Run one batch on ``replica``; returns (service_ms, policy_hit,
        degraded, per-request kmap hits, stage-breakdown in us, ladder
        rungs taken).

        Kernel-map reuse is against *the replica's own* cache: a stream's
        warm state helps only the replica that built it.

        Memory enforcement: the batch's modeled peak (resident weights and
        features plus the trace's liveness-aware peak workspace) is checked
        against the replica's budget.  On a simulated OOM — natural or
        injected via ``forced_oom`` — the batch is *recovered in place*:
        the degradation ladder plans a lower-footprint configuration
        (kernel maps stay warm across the retry) and the batch re-executes,
        its requests resolving DEGRADED instead of FAILED.
        """
        workload_id = batch[0].workload_id
        workload = get_workload(workload_id)
        model = self.model(workload_id)
        policy, policy_hit, degraded, extra_ms = self._resolve_policy(batch, now)
        kmap_cache = replica.kmap_cache
        if kmap_cache is None:  # replicas built outside serve(): no reuse
            kmap_cache = KmapCache(capacity=self.config.kmap_cache_size)
            replica.kmap_cache = kmap_cache
        samples = [self.scenes.sample(workload, r) for r in batch]
        scene_keys = tuple(r.scene_key for r in batch)
        # Execution fingerprint: workload + a summary of the scenes and
        # replica cache state the batch's interleaved get/put sequence
        # depends on, the policy-cache content version the resolved policy
        # came from, the degraded flag (selects the FixedPolicy-default
        # path and disables adaptive tiling) and whether an OOM is
        # injected.  On a single stream the scene summary is an unordered
        # multiset — per-scene costs are independent, so any ordering of
        # the same scenes re-simulates to the same totals; with multiple
        # streams launch order shifts sync placement, so the exact
        # sequence stays in the key.  Equal fingerprints provably
        # re-simulate to equal costs, so the memo is lossless.
        fingerprint = kmap_cache.batch_fingerprint(
            scene_keys, ordered=self.config.gpu_streams > 1
        )
        memo_key = (
            workload_id,
            fingerprint,
            self.policy_cache.version,
            degraded,
            forced_oom,
        )
        cost = (
            self._batch_memo.get(memo_key) if self.config.batch_memo else None
        )
        replay = cost is not None
        if (
            cost is None
            and self.config.batch_memo
            and fingerprint[0] == "multiset"
        ):
            # Unseen composition of (possibly) already-seen scenes: compose
            # the batch cost from per-sample memo entries instead of
            # re-simulating the whole batch.  Pure — cache accounting is
            # applied by the replay below, exactly as for a memo hit.
            cost = self._compose_cost(
                batch, samples, kmap_cache, model, workload_id, policy,
                degraded, replica.spec, forced_oom,
            )
            if cost is not None:
                self._batch_memo[memo_key] = cost
                replay = True
        if cost is None:
            cost, kmap_hits = self._execute_cold(
                batch, samples, kmap_cache, model, workload_id, policy,
                degraded, replica.spec, forced_oom,
            )
            if self.config.batch_memo:
                self._batch_memo[memo_key] = cost
        if replay:
            # Memo hit: replay the cold execution's cache sequence (same
            # gets, same fills from the recorded per-scene charge keys),
            # so cache accounting and future warmth are indistinguishable
            # from having re-simulated the batch.
            charge_by_scene = dict(cost.charges)
            kmap_hits = []
            for request, sample in zip(batch, samples):
                entry = kmap_cache.get(request.scene_key)
                hit = entry is not None
                kmap_hits.append(hit)
                if not hit:
                    kmap_cache.put(
                        request.scene_key,
                        KmapEntry(
                            sample=sample,
                            charge_keys=charge_by_scene.get(
                                request.scene_key, frozenset()
                            ),
                        ),
                    )
        if cost.oomed:
            replica.ooms += 1
        stages = dict(cost.stages)
        stages["host/dispatch"] = self.config.dispatch_overhead_us
        if extra_ms:
            stages["host/inline_tune"] = extra_ms * 1e3
        service_ms = (
            cost.service_ms
            + self.config.dispatch_overhead_us / 1e3
            + extra_ms
        )
        return (
            service_ms,
            policy_hit,
            cost.degraded,
            kmap_hits,
            stages,
            cost.ladder,
            cost.sync_events,
        )

    def _compose_cost(
        self,
        batch: Sequence[InferenceRequest],
        samples: List[SparseTensor],
        kmap_cache: KmapCache,
        model: Module,
        workload_id: str,
        policy: object,
        degraded: bool,
        spec: DeviceSpec,
        forced_oom: bool,
    ) -> Optional[_BatchCost]:
        """Compose a batch's :class:`_BatchCost` from per-sample memo
        entries (valid only for "multiset" fingerprints: one GPU stream,
        no eviction possible).  Pure — no cache mutation; the caller
        replays the get/put sequence.  Returns ``None`` when the batch
        needs the full path: an injected OOM, or a modeled peak over
        budget (the degradation ladder re-executes the whole batch).
        """
        if forced_oom:
            return None
        version = self.policy_cache.version
        filled: Dict[tuple, FrozenSet[tuple]] = {}
        charges: List[Tuple[tuple, FrozenSet[tuple]]] = []
        latency_us = 0.0
        stages: Dict[str, float] = {}
        preprocess_us = 0.0
        feature_bytes = 0.0
        peak_workspace = 0.0
        for request, sample in zip(batch, samples):
            key = request.scene_key
            entry = kmap_cache.peek(key)
            warmth = (
                entry.charge_keys if entry is not None else filled.get(key)
            )
            sample_key = (workload_id, key, warmth, version, degraded)
            cost = self._sample_memo.get(sample_key)
            if cost is None:
                cost = self._simulate_sample(
                    sample, model, policy, degraded, warmth
                )
                self._sample_memo[sample_key] = cost
            if entry is None and key not in filled:
                filled[key] = cost.charge
                charges.append((key, cost.charge))
            latency_us += cost.latency_us
            for stage, us in cost.stages:
                stages[stage] = stages.get(stage, 0.0) + us
            preprocess_us += cost.preprocess_us
            feature_bytes += cost.feature_bytes
            peak_workspace = max(peak_workspace, cost.peak_workspace_bytes)
        budget = memory_budget_bytes(spec, self.config.mem_headroom)
        resident = model_weight_bytes(model, self.precision) + feature_bytes
        if peak_workspace + resident > budget:
            return None
        stages["host/preprocess"] = preprocess_us
        return _BatchCost(
            service_ms=(latency_us + preprocess_us) / 1e3,
            stages=tuple(stages.items()),
            ladder=(),
            sync_events=0,
            oomed=False,
            degraded=degraded,
            charges=tuple(charges),
        )

    def _simulate_sample(
        self,
        sample: SparseTensor,
        model: Module,
        policy: object,
        degraded: bool,
        warmth: Optional[FrozenSet[tuple]],
    ) -> _SampleCost:
        """Simulate one sample in a fresh context at the given warmth.

        Scene charge keys are disjoint, so a fresh context pre-charged
        with the scene's own keys reproduces exactly the launches the
        sample would contribute to a shared batch context.
        """
        ctx = ExecutionContext(
            device=self.device,
            precision=self.precision,
            policy=policy,
            simulate_only=True,
            adaptive_tiling=not degraded,
            gpu_streams=self.config.gpu_streams,
        )
        if warmth:
            ctx.precharge(warmth)
        shapes: List[Tuple[int, int, int, int]] = []
        ctx.recorder = lambda signature=None, kmap=None, c_in=0, c_out=0, label="": (
            shapes.append((c_in, c_out, kmap.num_inputs, kmap.num_outputs))
        )
        model(sample, ctx)
        ctx.recorder = None
        itemsize = float(self.precision.itemsize)
        return _SampleCost(
            latency_us=ctx.latency_us(),
            stages=tuple(ctx.breakdown_us().items()),
            preprocess_us=self._preprocess_us(sample),
            feature_bytes=max(
                (itemsize * (ni * ci + no * co) for ci, co, ni, no in shapes),
                default=0.0,
            ),
            peak_workspace_bytes=ctx.trace.summary().peak_workspace_bytes,
            charge=(
                frozenset() if warmth is not None
                else frozenset(ctx.charged_keys())
            ),
        )

    def _execute_cold(
        self,
        batch: Sequence[InferenceRequest],
        samples: List[SparseTensor],
        kmap_cache: KmapCache,
        model: Module,
        workload_id: str,
        policy: object,
        degraded: bool,
        spec: DeviceSpec,
        forced_oom: bool,
    ) -> Tuple[_BatchCost, List[bool]]:
        """Actually simulate one batch; returns (:class:`_BatchCost`,
        per-request kmap hits)."""
        ctx = ExecutionContext(
            device=self.device,
            precision=self.precision,
            policy=policy,
            simulate_only=True,
            adaptive_tiling=not degraded,
            gpu_streams=self.config.gpu_streams,
        )
        charges: List[Tuple[tuple, FrozenSet[tuple]]] = []
        kmap_hits: List[bool] = []
        preprocess_us = 0.0
        feature_bytes = 0.0
        itemsize = float(self.precision.itemsize)
        for request, sample in zip(batch, samples):
            entry = kmap_cache.get(request.scene_key)
            hit = entry is not None
            kmap_hits.append(hit)
            if entry is not None:
                ctx.precharge(entry.charge_keys)
            before = ctx.charged_keys()
            shapes: List[Tuple[int, int, int, int]] = []
            ctx.recorder = lambda signature=None, kmap=None, c_in=0, c_out=0, label="": (
                shapes.append((c_in, c_out, kmap.num_inputs, kmap.num_outputs))
            )
            model(sample, ctx)
            ctx.recorder = None
            if not hit:
                charge = frozenset(ctx.charged_keys() - before)
                charges.append((request.scene_key, charge))
                kmap_cache.put(
                    request.scene_key,
                    KmapEntry(sample=sample, charge_keys=charge),
                )
            preprocess_us += self._preprocess_us(sample)
            # One sample's feature peak: the largest live (input + output)
            # activation pair along the network; batch members co-reside.
            feature_bytes += max(
                (itemsize * (ni * ci + no * co) for ci, co, ni, no in shapes),
                default=0.0,
            )

        budget = memory_budget_bytes(spec, self.config.mem_headroom)
        resident = model_weight_bytes(model, self.precision) + feature_bytes
        ladder_taken: Tuple[str, ...] = ()
        retry_us = 0.0
        retry_sync_events = 0
        oomed = False
        try:
            peak = enforce_memory_budget(
                ctx.trace, spec,
                resident_bytes=resident, budget_bytes=budget,
            )
            if forced_oom:
                raise SimulatedOOMError(
                    f"injected OOM on {spec.name}",
                    peak_bytes=peak, budget_bytes=budget,
                )
        except SimulatedOOMError:
            oomed = True
            memo: Dict[ExecState, float] = {}

            def footprint(state: ExecState) -> float:
                # Warm footprints: the retry reuses the kernel maps the
                # failed attempt already built, so one-shot map
                # construction is not part of any candidate's peak.
                if state not in memo:
                    memo[state] = model_footprint(
                        model,
                        samples,
                        device=spec,
                        precision=state.precision,
                        policy=FixedPolicy(state.config),
                        batch_chunks=state.batch_chunks,
                        warm=True,
                    ).total_bytes
                return memo[state]

            start = ExecState(
                config=self.default_config, precision=self.precision
            )
            effective = budget
            if forced_oom:
                # An injected fault must force real recovery even when the
                # true budget fits: cap it just under the start footprint
                # so at least one strictly-reducing rung is taken.
                effective = min(budget, footprint(start) * (1.0 - 1e-6))
            plan = self.ladder.plan(
                footprint,
                start,
                effective,
                precision_veto=self._precision_vetoes.get(workload_id),
            )
            ladder_taken = plan.taken
            retry = ExecutionContext(
                device=self.device,
                precision=plan.final.precision,
                policy=FixedPolicy(plan.final.config),
                simulate_only=True,
                gpu_streams=self.config.gpu_streams,
            )
            retry.precharge(ctx.charged_keys())  # maps survive the OOM
            for sample in samples:
                model(sample, retry)
            retry_us = retry.latency_us()
            retry_schedule = retry.stream_schedule()
            if retry_schedule is not None:
                retry_sync_events = len(retry_schedule.events)
            degraded = True

        stages = dict(ctx.breakdown_us())
        stages["host/preprocess"] = preprocess_us
        if retry_us:
            stages["resilience/ladder"] = retry_us
        service_ms = (ctx.latency_us() + retry_us + preprocess_us) / 1e3
        sync_events = retry_sync_events
        schedule = ctx.stream_schedule()
        if schedule is not None:
            sync_events += len(schedule.events)
        return (
            _BatchCost(
                service_ms=service_ms,
                stages=tuple(stages.items()),
                ladder=ladder_taken,
                sync_events=sync_events,
                oomed=oomed,
                degraded=degraded,
                charges=tuple(charges),
            ),
            kmap_hits,
        )

    # ------------------------------------------------------------------ #
    def serve(self, requests: Sequence[InferenceRequest]) -> ServeResult:
        """Run the discrete-event serving loop over ``requests``."""
        if not requests:
            raise ConfigError("serve() needs at least one request")
        config = self.config
        balancer = get_balancer(config.balancer)
        plan = config.faults or NO_FAULTS
        first_arrival_ms = min(r.arrival_ms for r in requests)

        def make_breaker() -> Optional[CircuitBreaker]:
            if config.breaker_failures > 0:
                return CircuitBreaker(
                    config.breaker_failures, config.breaker_cooldown_ms
                )
            return None

        autoscaler = (
            Autoscaler(config.autoscale)
            if config.autoscale is not None else None
        )
        initial_replicas = config.replicas
        if config.autoscale is not None:
            initial_replicas = min(
                max(initial_replicas, config.autoscale.min_replicas),
                config.autoscale.max_replicas,
            )
        injector = FaultInjector(plan, initial_replicas)
        replicas = [
            DeviceReplica(
                index=i,
                spec=self.device,
                kmap_cache=KmapCache(capacity=config.kmap_cache_size),
                breaker=make_breaker(),
                provisioned_at_ms=first_arrival_ms,
            )
            for i in range(initial_replicas)
        ]
        replicas_peak = initial_replicas

        # Tenant state: roster (configured tenants plus any tenant names
        # the schedule carries that the roster does not), per-tenant token
        # buckets (only for metered tenants) and retry budgets.
        tenant_specs: Dict[str, TenantSpec] = {
            t.name: t for t in config.tenants
        }
        for request in requests:
            if request.tenant not in tenant_specs:
                tenant_specs[request.tenant] = TenantSpec(
                    name=request.tenant, priority=request.priority
                )
        buckets: Dict[str, TokenBucket] = {
            name: TokenBucket(spec.quota_rps, spec.quota_burst)
            for name, spec in tenant_specs.items()
            if spec.quota_rps > 0
        }
        budgets: Dict[str, RetryBudget] = {
            name: RetryBudget(
                spec.retry_budget if spec.retry_budget >= 0
                else config.retry_budget
            )
            for name, spec in tenant_specs.items()
        }

        # Dispatch by (priority class, admission order); with one class
        # this is FIFO and sheds exactly as a plain bounded queue does.
        queue = PriorityRequestQueue(max_depth=config.queue_depth)
        shed_by_priority = config.priority_shedding
        workload_cache: Dict[str, Workload] = {}
        db_hits_before = self.tuning_db.hits if self.tuning_db else 0
        db_misses_before = self.tuning_db.misses if self.tuning_db else 0
        bg_tunes_before = self.background_tunes

        def scene_points(request: InferenceRequest) -> int:
            workload = workload_cache.setdefault(
                request.workload_id, get_workload(request.workload_id)
            )
            return self.scenes.points(workload, request)

        batcher = DynamicBatcher(
            point_budget=config.point_budget,
            max_batch_requests=config.max_batch_requests,
            window_ms=config.batch_window_ms,
            scene_points=scene_points,
        )

        outcomes: Dict[int, RequestOutcome] = {}
        attempts: Dict[int, int] = {}
        depth_samples: List[Tuple[float, int]] = []
        stage_totals: Dict[str, float] = {}
        events: List[Tuple[float, int, int, object]] = []
        timer_times: set = set()
        seq = 0
        ARRIVAL, FREE, TIMER, RETRY, SCALE = 0, 1, 2, 3, 4
        for request in sorted(requests, key=lambda r: (r.arrival_ms, r.request_id)):
            heapq.heappush(events, (request.arrival_ms, seq, ARRIVAL, request))
            seq += 1
        arrivals_pending = len(requests)
        retries_pending = 0
        batch_counter = 0
        oom_events = 0
        ladder_steps = 0
        sync_events_total = 0

        def push_event(at: float, kind: int, payload: object) -> None:
            nonlocal seq
            heapq.heappush(events, (at, seq, kind, payload))
            seq += 1

        def push_timer(at: float) -> None:
            if at not in timer_times:
                timer_times.add(at)
                push_event(at, TIMER, None)

        if autoscaler is not None:
            push_event(
                first_arrival_ms + config.autoscale.interval_ms, SCALE, None
            )

        def slo_missed(outcome: RequestOutcome) -> bool:
            """Did the request miss the run's latency target?"""
            if not outcome.completed or outcome.finish_ms is None:
                return True
            target = (
                config.slo_ms if config.slo_ms > 0
                else outcome.request.deadline_ms
            )
            return outcome.finish_ms - outcome.request.arrival_ms > target

        def resolve(outcome: RequestOutcome) -> None:
            """Record a terminal outcome; feeds the retry budget (each
            success accrues budget) and the autoscaler's window."""
            outcomes[outcome.request.request_id] = outcome
            if outcome.completed:
                budget = budgets.get(outcome.request.tenant)
                if budget is not None:
                    budget.record_success()
            if autoscaler is not None and outcome.finish_ms is not None:
                autoscaler.observe(
                    outcome.finish_ms,
                    outcome.finish_ms - outcome.request.arrival_ms,
                    outcome.request.priority,
                    slo_missed(outcome),
                )

        def candidates(now: float) -> Tuple[List[DeviceReplica], Optional[float]]:
            """Replicas a batch may be dispatched to, and — when none are
            available — the earliest recovery time to retry at (a stall
            window's end or an open breaker's half-open probe time)."""
            out: List[DeviceReplica] = []
            recover: Optional[float] = None
            for replica in replicas:
                if replica.retired or replica.draining:
                    continue
                until = injector.stalled_until(replica.index, now)
                if until is not None:  # draining: no new work until recovery
                    recover = until if recover is None else min(recover, until)
                    continue
                if replica.breaker is not None and not replica.breaker.allows(now):
                    probe_at = replica.breaker.next_probe_at_ms()
                    if probe_at is not None:
                        recover = (
                            probe_at if recover is None
                            else min(recover, probe_at)
                        )
                    continue
                if replica.inflight >= config.replica_queue_depth:
                    continue
                out.append(replica)
            return out, recover

        def expire_queue(now: float) -> None:
            if config.timeout_ms <= 0:
                return
            for request in queue.expire(now, config.timeout_ms):
                resolve(RequestOutcome(
                    request=request,
                    status=RequestStatus.TIMED_OUT,
                    attempts=attempts.get(request.request_id, 0),
                ))

        def run_attempt(
            batch: List[InferenceRequest], replica: DeviceReplica, now: float
        ) -> _Attempt:
            """Occupy ``replica`` with one copy of ``batch``."""
            nonlocal batch_counter, oom_events, ladder_steps
            nonlocal sync_events_total
            batch_id = batch_counter
            batch_counter += 1
            forced_oom = injector.batch_ooms(batch_id)
            ooms_before = replica.ooms
            (
                service_ms,
                policy_hit,
                degraded,
                kmap_hits,
                stages,
                ladder,
                batch_sync_events,
            ) = self._execute(batch, now, replica, forced_oom=forced_oom)
            sync_events_total += batch_sync_events
            if replica.ooms > ooms_before:
                oom_events += 1
                ladder_steps += len(ladder)
            service_ms *= injector.slow_factor(replica.index)
            failed = injector.batch_fails(batch_id)
            if failed:
                # The attempt errors out partway through; the replica still
                # burned a fraction of the batch's service time.
                service_ms *= plan.fail_cost_fraction
                replica.failures += 1
            start = max(now, replica.free_at_ms)
            finish = start + service_ms
            replica.free_at_ms = finish
            replica.busy_ms += service_ms
            replica.batches += 1
            replica.inflight += 1
            replica.retries_served += sum(
                1 for r in batch if attempts.get(r.request_id, 0) > 1
            )
            if replica.breaker is not None:
                replica.breaker.on_dispatch()
            for stage, us in stages.items():
                stage_totals[stage] = stage_totals.get(stage, 0.0) + us
            push_event(finish, FREE, (replica.index, failed))
            return _Attempt(
                replica=replica,
                batch_id=batch_id,
                start_ms=start,
                finish_ms=finish,
                service_ms=service_ms,
                failed=failed,
                policy_hit=policy_hit,
                degraded=degraded,
                kmap_hits=kmap_hits,
                ladder=ladder,
            )

        def dispatch(batch: List[InferenceRequest], now: float) -> None:
            """Balance, optionally hedge, then resolve or schedule retries."""
            nonlocal retries_pending
            for request in batch:
                attempts[request.request_id] = (
                    attempts.get(request.request_id, 0) + 1
                )
            cands, _ = candidates(now)
            primary = balancer.select(cands, batch, now)
            first = run_attempt(batch, primary, now)
            hedge: Optional[_Attempt] = None
            if config.hedge_ms > 0 and first.service_ms > config.hedge_ms:
                spare = [
                    r for r in cands
                    if r is not primary
                    and r.inflight < config.replica_queue_depth
                ]
                if spare:
                    second = min(
                        spare,
                        key=lambda r: (
                            max(r.free_at_ms - now, 0.0), r.busy_ms, r.index
                        ),
                    )
                    hedge = run_attempt(batch, second, now)
                    second.hedges_served += 1

            tries = [a for a in (first, hedge) if a is not None]
            winners = [a for a in tries if not a.failed]
            if winners:
                winner = min(winners, key=lambda a: (a.finish_ms, a.batch_id))
                for request, kmap_hit in zip(batch, winner.kmap_hits):
                    resolve(RequestOutcome(
                        request=request,
                        status=(
                            RequestStatus.DEGRADED
                            if winner.degraded
                            else RequestStatus.COMPLETED
                        ),
                        start_ms=winner.start_ms,
                        finish_ms=winner.finish_ms,
                        batch_id=winner.batch_id,
                        batch_size=len(batch),
                        replica=winner.replica.index,
                        policy_hit=winner.policy_hit,
                        kmap_hit=kmap_hit,
                        service_ms=winner.service_ms,
                        attempts=attempts[request.request_id],
                        hedged=hedge is not None,
                        hedge_won=hedge is not None and winner is hedge,
                        ladder=winner.ladder,
                    ))
                return
            # Every copy failed: the error surfaces once the last copy
            # resolves; retry after exponential backoff — if the tenant's
            # retry budget grants one — or give up.
            resolved = max(a.finish_ms for a in tries)
            last = max(tries, key=lambda a: (a.finish_ms, a.batch_id))
            for request in batch:
                tried = attempts[request.request_id]
                budget_denied = False
                if tried <= config.max_retries:
                    budget = budgets.get(request.tenant)
                    if budget is None or budget.allow():
                        backoff = config.retry_backoff_ms * (2 ** (tried - 1))
                        if config.retry_jitter:
                            # Seeded per (request, attempt): spreads a
                            # failure wave's retries over [0.5, 1.5) of the
                            # base backoff without losing determinism.
                            backoff *= 0.5 + random.Random(
                                f"{plan.seed}/retryjitter/"
                                f"{request.request_id}/{tried}"
                            ).random()
                        push_event(resolved + backoff, RETRY, request)
                        retries_pending += 1
                        continue
                    budget_denied = True
                resolve(RequestOutcome(
                    request=request,
                    status=RequestStatus.FAILED,
                    start_ms=last.start_ms,
                    finish_ms=resolved,
                    batch_id=last.batch_id,
                    batch_size=len(batch),
                    replica=last.replica.index,
                    service_ms=last.service_ms,
                    attempts=tried,
                    hedged=hedge is not None,
                    budget_exhausted=budget_denied,
                ))

        def try_dispatch(now: float) -> None:
            expire_queue(now)
            while queue:
                cands, recover = candidates(now)
                if not cands:
                    if recover is not None and not any(
                        r.inflight for r in replicas
                    ):
                        push_timer(recover)  # fully stalled: rejoin later
                    break
                more = (arrivals_pending + retries_pending) > 0
                if not batcher.ready(queue, now, more_arrivals=more):
                    break
                batch = batcher.form_batch(queue, now)
                if not batch:
                    break
                dispatch(batch, now)
                depth_samples.append((now, len(queue)))
            if queue and (arrivals_pending + retries_pending) > 0:
                decision = batcher.next_decision_ms(queue)
                if decision is not None and decision > now:
                    push_timer(decision)

        end_ms = first_arrival_ms
        while events:
            now, _, kind, payload = heapq.heappop(events)
            end_ms = max(end_ms, now)
            if kind == ARRIVAL:
                arrivals_pending -= 1
                request = payload
                bucket = buckets.get(request.tenant)
                if bucket is not None and not bucket.take(now):
                    # Over quota: shed at arrival, before queue admission.
                    resolve(RequestOutcome(
                        request=request,
                        status=RequestStatus.SHED,
                        attempts=0,
                        quota_denied=True,
                    ))
                elif shed_by_priority:
                    victim = queue.admit_displacing(request)
                    if victim is not None:
                        resolve(RequestOutcome(
                            request=victim,
                            status=RequestStatus.SHED,
                            attempts=attempts.get(victim.request_id, 0),
                        ))
                elif not queue.admit(request):
                    resolve(RequestOutcome(
                        request=request, status=RequestStatus.SHED, attempts=0
                    ))
                depth_samples.append((now, len(queue)))
            elif kind == FREE:
                replica_index, attempt_failed = payload
                freed = replicas[replica_index]
                freed.inflight -= 1
                if freed.breaker is not None:
                    # Breakers observe at batch *resolution* time — when
                    # the failure would actually surface to the router.
                    if attempt_failed:
                        freed.breaker.record_failure(now)
                    else:
                        freed.breaker.record_success(now)
                if freed.draining and freed.inflight == 0:
                    freed.draining = False
                    freed.retired_at_ms = now
            elif kind == RETRY:
                retries_pending -= 1
                request = payload
                if (
                    config.timeout_ms > 0
                    and now - request.arrival_ms >= config.timeout_ms
                ):
                    resolve(RequestOutcome(
                        request=request,
                        status=RequestStatus.TIMED_OUT,
                        attempts=attempts.get(request.request_id, 0),
                    ))
                else:
                    queue.requeue(request)
                depth_samples.append((now, len(queue)))
            elif kind == SCALE and autoscaler is not None:
                active = [
                    r for r in replicas if not r.retired and not r.draining
                ]
                busy = sum(
                    1 for r in active
                    if r.inflight > 0 or r.free_at_ms > now
                )
                utilization = busy / len(active) if active else 1.0
                action = autoscaler.decide(
                    now,
                    replicas=len(active),
                    queue_depth=len(queue),
                    utilization=utilization,
                    batch_capacity=config.max_batch_requests,
                )
                if action == "up":
                    # The new replica joins with cold kmap/policy warmth
                    # and is unavailable for warmup_ms (model load, CUDA
                    # context); its early batches pay cold-cache costs on
                    # top — warmup is real, not free capacity.
                    replicas.append(DeviceReplica(
                        index=len(replicas),
                        spec=self.device,
                        kmap_cache=KmapCache(
                            capacity=config.kmap_cache_size
                        ),
                        breaker=make_breaker(),
                        provisioned_at_ms=now,
                        free_at_ms=now + config.autoscale.warmup_ms,
                    ))
                    replicas_peak = max(replicas_peak, len(active) + 1)
                elif action == "down":
                    # Drain the youngest replica (coldest caches on
                    # average); it retires once in-flight work resolves.
                    victim = max(
                        active,
                        key=lambda r: (r.provisioned_at_ms, r.index),
                    )
                    if victim.inflight == 0:
                        victim.retired_at_ms = now
                    else:
                        victim.draining = True
                if (
                    arrivals_pending + retries_pending > 0
                    or len(queue) > 0
                    or any(r.inflight for r in replicas)
                ):
                    push_event(
                        now + config.autoscale.interval_ms, SCALE, None
                    )
            try_dispatch(now)

        ordered = [outcomes[r.request_id] for r in requests]
        kmap_hits = sum(r.kmap_cache.hits for r in replicas)
        kmap_total = kmap_hits + sum(r.kmap_cache.misses for r in replicas)
        autoscaled = autoscaler is not None
        spans = {
            r.index: max(
                (r.retired_at_ms if r.retired_at_ms is not None else end_ms)
                - r.provisioned_at_ms,
                0.0,
            )
            for r in replicas
        }
        per_replica = [
            {
                "replica": float(r.index),
                "batches": float(r.batches),
                "busy_ms": r.busy_ms,
                "kmap_hit_rate": r.kmap_cache.hit_rate,
                "stalls": float(injector.stalls_for(r.index)),
                "failures": float(r.failures),
                "ooms": float(r.ooms),
                "retries_served": float(r.retries_served),
                "hedges_served": float(r.hedges_served),
                "breaker_opens": float(
                    r.breaker.opens if r.breaker is not None else 0
                ),
                "breaker_closes": float(
                    r.breaker.closes if r.breaker is not None else 0
                ),
                "provisioned_ms": spans[r.index] if autoscaled else 0.0,
            }
            for r in replicas
        ]
        breakers = [r.breaker for r in replicas if r.breaker is not None]
        metrics = compute_metrics(
            ordered,
            depth_samples,
            policy_hit_rate=self.policy_cache.hit_rate,
            kmap_hit_rate=kmap_hits / kmap_total if kmap_total else 0.0,
            kmap_evictions=sum(r.kmap_cache.evictions for r in replicas),
            batches=batch_counter,
            replica_busy_ms=sum(r.busy_ms for r in replicas),
            replicas=sum(1 for r in replicas if not r.retired),
            stage_us_totals=stage_totals,
            replica_stalls=injector.stall_windows,
            batch_failures=injector.batch_failures,
            oom_events=oom_events,
            ladder_steps=ladder_steps,
            balancer=config.balancer,
            tuning_db_hits=(
                self.tuning_db.hits - db_hits_before if self.tuning_db else 0
            ),
            tuning_db_misses=(
                self.tuning_db.misses - db_misses_before
                if self.tuning_db else 0
            ),
            background_tunes=self.background_tunes - bg_tunes_before,
            time_to_first_tuned_ms=(
                self.first_tuned_ms if self.first_tuned_ms is not None
                else -1.0
            ),
            sync_events=sync_events_total,
            per_replica=per_replica,
            quota_denied=sum(b.denied for b in buckets.values()),
            retry_budget_exhausted=sum(
                b.exhausted for b in budgets.values()
            ),
            breaker_opens=sum(b.opens for b in breakers),
            breaker_closes=sum(b.closes for b in breakers),
            breaker_probes=sum(b.probes for b in breakers),
            scale_ups=autoscaler.scale_ups if autoscaler is not None else 0,
            scale_downs=(
                autoscaler.scale_downs if autoscaler is not None else 0
            ),
            replicas_peak=replicas_peak,
            provisioned_ms=sum(spans.values()) if autoscaled else 0.0,
            slo_ms=config.slo_ms,
        )
        return ServeResult(config=config, outcomes=ordered, metrics=metrics)
