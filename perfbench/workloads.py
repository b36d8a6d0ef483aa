"""The benchmark's three workloads: seeded inputs, timed work, checks.

Every workload runs SK-M-0.5 (MinkUNet, SemanticKITTI-style scenes) on a
simulated A100 at fp16.  The seed is the only input: it drives arrival
times, tenant assignment, fault draws and scene seeds, and the program
receives only what :meth:`Workload.setup` generates from it.  Why each
workload exists and which layers it is meant to stress is written down in
``perfbench/README.md``; the short form is on each class.

In one worker process a workload is set up once with ``setup(seed)``
(counted in ``setup_s``) and then timed several times.  Each repetition
is ``run(state)`` (timed, one ``work_s`` sample), then ``check(state,
output)``, which digests the simulated outputs and checks
seed-independent invariants, then ``again(state, seed)``, which gives the
next repetition a state in which it does exactly the same work.
Simulated-clock numbers (virtual latencies, SLO attainment, sync events,
tuned microseconds) are outputs the check digests; they are never
reported as performance.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

MODEL = "SK-M-0.5"
DEVICE = "a100"
PRECISION = "fp16"
SCENE_SCALE = 0.1

#: A generated obstacle whose footprint comes this close (metres, in the
#: ground plane) to the sensor overlaps the ego vehicle itself.  The scene
#: generator does not prevent that, and such a sweep returns almost no
#: points (about 1 draw in 10 at this scale), which would make a run's
#: work depend on how many of its scenes happen to be occluded.
EGO_CLEARANCE_M = 1.0


def _rng(seed: int, purpose: str) -> np.random.Generator:
    """Independent generator per (seed, purpose)."""
    salt = int.from_bytes(hashlib.sha256(purpose.encode()).digest()[:4], "big")
    return np.random.default_rng([seed, salt])


def _ego_clear(scene_seed: int) -> bool:
    from repro.data.lidar import Scene

    # make_sample draws its scene first from the generator seeded with
    # the scene seed, so this is the geometry the sweep will see.
    scene = Scene.generate(np.random.default_rng(scene_seed))
    for box in scene.boxes:
        gap = np.maximum(0.0, np.maximum(box.lo[:2], -box.hi[:2]))
        if float(np.hypot(*gap)) < EGO_CLEARANCE_M:
            return False
    return True


def scene_seeds(seed: int, count: int, purpose: str) -> List[int]:
    """``count`` distinct seeded scene seeds whose sweeps are not occluded."""
    rng = _rng(seed, purpose)
    chosen: List[int] = []
    while len(chosen) < count:
        candidate = int(rng.integers(1, 2**31 - 1))
        if candidate not in chosen and _ego_clear(candidate):
            chosen.append(candidate)
    return chosen


def digest(parts: Sequence[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


@dataclasses.dataclass
class Checked:
    """What the check made of one timed run's simulated outputs."""

    digest: str
    operations: int
    #: Operations that broke a seed-independent invariant.
    failed: int
    #: Program-reported counts (guards and per-layer figures).
    counters: Dict[str, float]
    problems: List[str]


class Workload:
    name = ""

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def run(self, state: Any) -> Any:
        raise NotImplementedError

    def check(self, state: Any, output: Any) -> Checked:
        raise NotImplementedError

    def model(self, state: Any) -> Any:
        """The top-level model object the timed phase calls."""
        raise NotImplementedError

    def again(self, state: Any, seed: int) -> Any:
        """State for the next repetition (untimed): fresh by default."""
        self.close(state)
        return self.setup(seed)

    def guards(self, counters: Dict[str, float]) -> List[str]:
        """Reasons this run no longer exercises what it was chosen for."""
        return []

    def close(self, state: Any) -> None:
        pass


# --------------------------------------------------------------------- #
@dataclasses.dataclass
class ServeState:
    runtime: Any
    requests: List[Any]
    #: serve-flash: digest of the set-up serve the repetitions replay.
    warmup: Optional[str] = None


class _Serving(Workload):
    """Serving workloads: one operation is one request."""

    def config_and_requests(self, seed: int) -> Tuple[Any, List[Any]]:
        raise NotImplementedError

    def _requests(self, seed, traffic, count, tenants) -> List[Any]:
        from repro.serve import generate_traffic_requests, parse_traffic

        requests = generate_traffic_requests(
            parse_traffic(traffic, seed=seed),
            count=count,
            tenants=tenants,
            default_workload=MODEL,
        )
        # One scene per (tenant, stream), drawn from the seed.
        streams = sorted({(r.tenant, r.stream_id) for r in requests})
        pool = dict(zip(streams, scene_seeds(seed, len(streams), "scenes")))
        return [
            dataclasses.replace(r, scene_seed=pool[(r.tenant, r.stream_id)])
            for r in requests
        ]

    def setup(self, seed: int) -> ServeState:
        from repro.serve import ServingRuntime

        config, requests = self.config_and_requests(seed)
        runtime = ServingRuntime(config)
        # Builds the model and runs admission: static lint, provenance
        # audit of the cache keys, weight-footprint check.
        runtime.model(MODEL)
        return ServeState(runtime=runtime, requests=requests)

    def run(self, state: ServeState) -> Any:
        return state.runtime.serve(state.requests)

    def model(self, state: ServeState) -> Any:
        return state.runtime.model(MODEL)

    def check(self, state: ServeState, output: Any) -> Checked:
        metrics = output.metrics
        resolved: Dict[int, int] = {}
        lines = [metrics.to_json()]
        for o in output.outcomes:
            rid = o.request.request_id
            resolved[rid] = resolved.get(rid, 0) + 1
            lines.append(
                f"{rid} {o.status.value} {o.start_ms!r} {o.finish_ms!r} "
                f"{o.replica!r} {o.attempts} {o.service_ms!r}"
            )
        failed = sum(
            1 for r in state.requests if resolved.get(r.request_id, 0) != 1
        )
        problems = []
        if failed:
            problems.append(f"{failed} requests did not resolve exactly once")
        extra = set(resolved) - {r.request_id for r in state.requests}
        if extra:
            problems.append(f"{len(extra)} outcomes for unknown requests")
            failed = len(state.requests)
        counters = {
            "requests": float(len(state.requests)),
            "serve.batches": float(metrics.batches),
            "serve.kmap_hit_rate": float(metrics.kmap_hit_rate),
            "serve.retries": float(metrics.retries),
            "serve.sync_events": float(metrics.sync_events),
        }
        return Checked(
            digest=digest(lines),
            operations=len(state.requests),
            failed=failed,
            counters=counters,
            problems=problems,
        )


class ServeFlash(_Serving):
    """Overload stack on one GPU stream: the serving path is the work.

    Two priority tenants on flash-crowd traffic, 4 scene streams each (8
    scenes), 5% transient batch faults with retries, circuit breakers and
    a 1-to-4 replica autoscaler.  Set-up serves the schedule once, which
    pays the one-off scene generation and sample simulations and fills
    the per-sample and batch memos.  Each timed repetition serves the
    same schedule again on that runtime (fresh replicas, warm memos), so
    the event loop, batcher, admission quotas, breakers, autoscaler and
    memo replay are the work.
    """

    name = "serve-flash"
    requests = 15000

    def setup(self, seed: int) -> ServeState:
        state = super().setup(seed)
        state.warmup = self.check(state, self.run(state)).digest
        return state

    def again(self, state: ServeState, seed: int) -> ServeState:
        return state

    def check(self, state: ServeState, output: Any) -> Checked:
        checked = super().check(state, output)
        if state.warmup is not None and checked.digest != state.warmup:
            checked.problems.append(
                "memo replay differs from the cold serve of the schedule"
            )
            checked.failed = checked.operations
        return checked

    def config_and_requests(self, seed: int) -> Tuple[Any, List[Any]]:
        from repro.serve import (
            AutoscalePolicy,
            FaultPlan,
            ServeConfig,
            TenantSpec,
        )

        tenants = (
            TenantSpec("gold", priority=0, share=3, streams=4, mix=(MODEL,)),
            TenantSpec("bronze", priority=2, share=1, streams=4, mix=(MODEL,)),
        )
        config = ServeConfig(
            device=DEVICE,
            precision=PRECISION,
            scene_scale=SCENE_SCALE,
            gpu_streams=1,
            tenants=tenants,
            max_batch_requests=4,
            queue_depth=24,
            faults=FaultPlan.parse("fail=0.05", seed=seed),
            max_retries=3,
            breaker_failures=4,
            autoscale=AutoscalePolicy(slo_ms=400.0, max_replicas=4),
            slo_ms=400.0,
        )
        return config, self._requests(seed, "flash", self.requests, tenants)

    def guards(self, counters: Dict[str, float]) -> List[str]:
        out = []
        if counters.get("serve.retries", 0) <= 0:
            out.append("no retries: the fault/retry path was not exercised")
        sims = counters.get("serve.sims_per_request")
        if sims is not None and sims > 0.05:
            out.append(
                f"serve.sims_per_request {sims:.3f} > 0.05: the sample "
                f"memo no longer answers nearly every batch"
            )
        if counters.get("opt.best_schedule.calls", 0) > 0:
            out.append("one GPU stream must never call best_schedule")
        return out


class ServeStreams(_Serving):
    """One tenant on 4 virtual GPU streams: the model path is the work.

    Multi-stream batches are keyed by their ordered scene sequence and are
    never composed from per-sample memo entries, so nearly every batch
    runs the model forward and the K-stream list scheduler with sync
    reduction.  The event loop is nearly idle.  Every repetition serves
    on a freshly admitted runtime.
    """

    name = "serve-streams"
    requests = 24

    def config_and_requests(self, seed: int) -> Tuple[Any, List[Any]]:
        from repro.serve import ServeConfig, TenantSpec

        tenants = (TenantSpec("solo", streams=4, mix=(MODEL,)),)
        config = ServeConfig(
            device=DEVICE,
            precision=PRECISION,
            scene_scale=SCENE_SCALE,
            gpu_streams=4,
            replicas=1,
            tenants=tenants,
        )
        return config, self._requests(seed, "steady", self.requests, tenants)

    def guards(self, counters: Dict[str, float]) -> List[str]:
        out = []
        if counters.get("serve.sync_events", 0) <= 0:
            out.append("0 sync events: the multi-stream schedule degenerated")
        best = counters.get("opt.best_schedule.calls")
        trials = counters.get("opt.list_schedule.calls")
        if best is not None and trials is not None and trials <= best:
            out.append(
                "opt.list_schedule.calls <= opt.best_schedule.calls: "
                "best_schedule no longer tries several stream counts"
            )
        return out


# --------------------------------------------------------------------- #
@dataclasses.dataclass
class TuneState:
    model: Any
    offline_scenes: List[Any]
    online_scenes: List[Any]
    directory: Path


@dataclasses.dataclass
class TuneOutput:
    policy: Any
    report: Any
    online: List[Any]
    db: Any


class TuneOffline(Workload):
    """The paper's offline autotuner, then the online tuner per scene.

    ``SparseAutotuner.tune`` traces every TorchSparse++ candidate per
    kernel map (bitmask sorting, trace-memo hits); ``OnlineTuner`` then
    tunes each scene into one fresh ``TuningDatabase`` (the first scene
    misses, later ones hit) and the database is saved to a temporary
    file.  No event loop, no stream scheduler.  Every repetition gets a
    fresh model and freshly generated scenes (kernel maps are cached on
    the scene objects).
    """

    name = "tune-offline"
    offline_scene_count = 1
    online_scene_count = 2

    def __init__(self, temp_root: Path):
        #: Where the temporary tuning-database directories go.
        self.temp_root = temp_root

    def setup(self, seed: int) -> TuneState:
        from repro.data.datasets import make_sample
        from repro.models.registry import get_workload

        workload = get_workload(MODEL)
        model = workload.build_model()
        model.eval()
        seeds = scene_seeds(
            seed, self.offline_scene_count + self.online_scene_count, "tune"
        )
        scenes = [
            make_sample(
                workload.dataset,
                frames=workload.frames,
                seed=s,
                scale=SCENE_SCALE,
            )
            for s in seeds
        ]
        self.temp_root.mkdir(parents=True, exist_ok=True)
        directory = Path(tempfile.mkdtemp(prefix="tune-", dir=self.temp_root))
        return TuneState(
            model=model,
            offline_scenes=scenes[: self.offline_scene_count],
            online_scenes=scenes[self.offline_scene_count:],
            directory=directory,
        )

    def run(self, state: TuneState) -> TuneOutput:
        from repro.autotune import OnlineTuner, TuningDatabase
        from repro.tune.tuner import SparseAutotuner

        policy, report = SparseAutotuner().tune(
            state.model, state.offline_scenes, DEVICE, PRECISION
        )
        db = TuningDatabase()
        tuner = OnlineTuner(db)
        online = [
            tuner.tune_model(state.model, scene, DEVICE, PRECISION)[1]
            for scene in state.online_scenes
        ]
        db.save(state.directory / "tuning_db.json")
        return TuneOutput(policy=policy, report=report, online=online, db=db)

    def model(self, state: TuneState) -> Any:
        return state.model

    def check(self, state: TuneState, output: TuneOutput) -> Checked:
        from repro.tune.cache import config_to_dict

        report = output.report
        lines = [f"{report.end_to_end_us!r} {report.default_us!r}"]
        for group in report.groups:
            lines.append(
                f"{group.signature!r} "
                f"{json.dumps(config_to_dict(group.chosen), sort_keys=True)} "
                f"{[repr(x) for x in group.candidate_latencies_us]}"
            )
        for online in output.online:
            for decision in online.decisions:
                lines.append(
                    f"{decision.key.flat()} {decision.source} "
                    f"{json.dumps(config_to_dict(decision.config), sort_keys=True)}"
                )
        saved = (state.directory / "tuning_db.json").read_text()
        lines.append(saved)
        operations = len(report.groups) + sum(
            len(o.decisions) for o in output.online
        )
        problems = []
        failed = 0
        if report.end_to_end_us > report.default_us:
            problems.append(
                f"tuned {report.end_to_end_us!r} us > default "
                f"{report.default_us!r} us"
            )
            failed += len(report.groups)
        if saved != output.db.to_json() + "\n":
            problems.append("saved tuning database differs from memory")
            failed = operations
        counters = {
            "autotune.db.hits": float(output.db.hits),
            "autotune.db.misses": float(output.db.misses),
        }
        return Checked(
            digest=digest(lines),
            operations=operations,
            failed=failed,
            counters=counters,
            problems=problems,
        )

    def guards(self, counters: Dict[str, float]) -> List[str]:
        out = []
        if counters.get("autotune.db.misses", 0) <= 0:
            out.append("tuning DB never missed: nothing was written")
        if counters.get("autotune.db.hits", 0) <= 0:
            out.append("tuning DB never hit: later scenes re-searched")
        if counters.get("opt.best_schedule.calls", 0) > 0:
            out.append("tuning must never call best_schedule")
        return out

    def close(self, state: TuneState) -> None:
        shutil.rmtree(state.directory, ignore_errors=True)


def make(name: str, temp_root: Path) -> Workload:
    if name == ServeFlash.name:
        return ServeFlash()
    if name == ServeStreams.name:
        return ServeStreams()
    if name == TuneOffline.name:
        return TuneOffline(temp_root)
    raise KeyError(name)


WORKLOADS = (ServeFlash.name, ServeStreams.name, TuneOffline.name)
