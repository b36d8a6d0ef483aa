"""Tests for the serving runtime: arrivals, batching, caches, scheduling,
admission control and the warm-vs-cold latency contract."""

import numpy as np
import pytest

from repro.serve import (
    BurstyArrivals,
    DynamicBatcher,
    InferenceRequest,
    KmapCache,
    KmapEntry,
    PoissonArrivals,
    PolicyCache,
    RequestQueue,
    RequestStatus,
    ServeConfig,
    ServingRuntime,
    generate_requests,
)
from repro.sparse.tensor import SparseTensor

WORKLOAD = "SK-M-0.5"
#: Tiny scenes keep the suite fast; simulated comparisons hold at any scale.
SCALE = 0.1


def make_request(i, arrival_ms, points_seed=0, workload=WORKLOAD,
                 deadline_ms=200.0):
    return InferenceRequest(
        request_id=i,
        workload_id=workload,
        stream_id=i % 2,
        frame_index=i // 2,
        scene_seed=points_seed,
        arrival_ms=arrival_ms,
        deadline_ms=deadline_ms,
    )


class TestArrivals:
    def test_poisson_deterministic_and_sorted(self):
        a = PoissonArrivals(rate_per_s=50, seed=3)
        t1, t2 = a.times_ms(100), a.times_ms(100)
        assert t1 == t2
        assert t1 == sorted(t1)

    def test_poisson_mean_rate(self):
        times = PoissonArrivals(rate_per_s=100, seed=0).times_ms(2000)
        mean_gap = times[-1] / len(times)
        assert mean_gap == pytest.approx(10.0, rel=0.1)  # 100/s = 10 ms

    def test_bursty_denser_in_burst_phase(self):
        a = BurstyArrivals(
            base_rate_per_s=20, burst_rate_per_s=400,
            period_ms=1000.0, burst_fraction=0.25, seed=1,
        )
        times = np.asarray(a.times_ms(800))
        phases = (times % 1000.0) / 1000.0
        in_burst = np.count_nonzero(phases < 0.25)
        # 25% of the time carries far more than 25% of the arrivals.
        assert in_burst > 0.5 * len(times)

    def test_generate_requests_streams_share_scene_seed(self):
        reqs = generate_requests(
            WORKLOAD, PoissonArrivals(rate_per_s=10, seed=0),
            count=12, num_streams=3,
        )
        assert len(reqs) == 12
        by_stream = {}
        for r in reqs:
            by_stream.setdefault(r.stream_id, set()).add(r.scene_seed)
        assert set(by_stream) == {0, 1, 2}
        for seeds in by_stream.values():
            assert len(seeds) == 1  # one geometry per stream
        assert [r.request_id for r in reqs] == list(range(12))

    def test_generate_requests_validation(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            generate_requests(WORKLOAD, PoissonArrivals(10), count=0)
        with pytest.raises(ConfigError):
            PoissonArrivals(rate_per_s=-1)


class TestCaches:
    def test_policy_cache_hit_miss_accounting(self):
        cache = PolicyCache()
        key = PolicyCache.make_key("SK-M-0.5", "RTX 3090", "fp16")
        assert cache.get(key) is None
        from repro.nn.context import GroupPolicy

        cache.put(key, GroupPolicy({}))
        assert cache.get(key) is not None
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_kmap_cache_lru_eviction(self):
        cache = KmapCache(capacity=2)
        sample = SparseTensor(
            np.zeros((1, 4), np.int32), np.zeros((1, 1), np.float32)
        )
        for key in ("a", "b", "c"):
            cache.put((key,), KmapEntry(sample=sample, charge_keys=frozenset()))
        assert cache.evictions == 1
        assert ("a",) not in cache and ("c",) in cache
        # Touching "b" makes "c" the LRU victim.
        assert cache.get(("b",)) is not None
        cache.put(("d",), KmapEntry(sample=sample, charge_keys=frozenset()))
        assert ("c",) not in cache and ("b",) in cache
        assert cache.get(("c",)) is None  # evicted -> miss
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)


class TestBatcher:
    def test_queue_sheds_when_full(self):
        queue = RequestQueue(max_depth=2)
        assert queue.admit(make_request(0, 0.0))
        assert queue.admit(make_request(1, 1.0))
        assert not queue.admit(make_request(2, 2.0))
        assert queue.shed_count == 1 and len(queue) == 2

    def test_batch_respects_point_budget(self):
        queue = RequestQueue(max_depth=8)
        for i in range(4):
            queue.admit(make_request(i, float(i)))
        batcher = DynamicBatcher(
            point_budget=250, max_batch_requests=8, window_ms=5.0,
            scene_points=lambda r: 100,
        )
        batch = batcher.form_batch(queue, now_ms=10.0)
        assert len(batch) == 2  # 3rd request would exceed 250 points
        assert len(queue) == 2

    def test_batch_respects_request_cap_and_single_oversized(self):
        queue = RequestQueue(max_depth=8)
        for i in range(5):
            queue.admit(make_request(i, float(i)))
        batcher = DynamicBatcher(
            point_budget=10**9, max_batch_requests=3, window_ms=5.0,
            scene_points=lambda r: 100,
        )
        assert len(batcher.form_batch(queue, 10.0)) == 3
        # A single scene above the budget still forms a batch of one.
        big = DynamicBatcher(point_budget=10, scene_points=lambda r: 999)
        assert len(big.form_batch(queue, 10.0)) == 1

    def test_batch_never_mixes_workloads(self):
        queue = RequestQueue(max_depth=8)
        queue.admit(make_request(0, 0.0))
        queue.admit(make_request(1, 1.0, workload="WM-C-1f"))
        queue.admit(make_request(2, 2.0))
        batcher = DynamicBatcher(scene_points=lambda r: 1)
        batch = batcher.form_batch(queue, 20.0)
        assert [r.request_id for r in batch] == [0, 2]
        assert [r.request_id for r in queue.peek()] == [1]

    def test_ready_waits_for_window_when_arrivals_pending(self):
        queue = RequestQueue(max_depth=8)
        queue.admit(make_request(0, 0.0))
        batcher = DynamicBatcher(window_ms=10.0, scene_points=lambda r: 1)
        assert not batcher.ready(queue, now_ms=5.0, more_arrivals=True)
        assert batcher.ready(queue, now_ms=10.0, more_arrivals=True)
        assert batcher.ready(queue, now_ms=5.0, more_arrivals=False)
        assert batcher.next_decision_ms(queue) == pytest.approx(10.0)


@pytest.fixture(scope="module")
def small_schedule():
    return generate_requests(
        WORKLOAD, PoissonArrivals(rate_per_s=40, seed=0),
        count=10, num_streams=2, deadline_ms=300.0,
    )


def small_config(**overrides):
    base = dict(
        device="rtx3090", precision="fp16", scene_scale=SCALE,
        queue_depth=16,
    )
    base.update(overrides)
    return ServeConfig(**base)


class TestRuntime:
    def test_serves_all_requests_deterministically(self, small_schedule):
        results = [
            ServingRuntime(small_config()).serve(small_schedule)
            for _ in range(2)
        ]
        for result in results:
            assert result.metrics.completed == len(small_schedule)
            assert result.metrics.shed == 0
            assert result.metrics.latency_p50_ms > 0
            for outcome in result.outcomes:
                assert outcome.completed
                assert outcome.finish_ms > outcome.start_ms
                assert outcome.start_ms >= outcome.request.arrival_ms
        assert results[0].metrics.to_json() == results[1].metrics.to_json()

    def test_kmap_cache_reuses_stream_geometry(self, small_schedule):
        result = ServingRuntime(small_config()).serve(small_schedule)
        # 2 streams -> 2 cold scenes, the other 8 requests hit.
        hits = sum(1 for o in result.outcomes if o.kmap_hit)
        assert hits == len(small_schedule) - 2
        assert result.metrics.kmap_hit_rate == pytest.approx(0.8)

    def test_kmap_hits_skip_mapping_charges(self, small_schedule):
        result = ServingRuntime(small_config()).serve(small_schedule)
        cold = [o for o in result.outcomes
                if not o.kmap_hit and o.batch_size == 1]
        warm = [o for o in result.outcomes
                if o.kmap_hit and o.batch_size == 1]
        if cold and warm:  # batching may group everything; guard, not skip
            assert min(o.service_ms for o in warm) < max(
                o.service_ms for o in cold
            )

    def test_cold_runs_degrade_warm_runs_do_not(self, small_schedule):
        cold = ServingRuntime(small_config()).serve(small_schedule)
        assert cold.metrics.degraded == len(small_schedule)
        assert all(
            o.status is RequestStatus.DEGRADED for o in cold.outcomes
        )
        runtime = ServingRuntime(small_config())
        runtime.warm_policy(WORKLOAD)
        warm = runtime.serve(small_schedule)
        assert warm.metrics.degraded == 0
        assert warm.metrics.policy_hit_rate == 1.0

    def test_warm_policy_p50_strictly_below_cold(self, small_schedule):
        cold = ServingRuntime(small_config()).serve(small_schedule)
        runtime = ServingRuntime(small_config())
        runtime.warm_policy(WORKLOAD)
        warm = runtime.serve(small_schedule)
        assert warm.metrics.latency_p50_ms < cold.metrics.latency_p50_ms

    def test_overload_sheds_and_bounds_queue(self):
        requests = generate_requests(
            WORKLOAD, PoissonArrivals(rate_per_s=2000, seed=1),
            count=40, num_streams=2, deadline_ms=100.0,
        )
        config = small_config(queue_depth=8)
        result = ServingRuntime(config).serve(requests)
        assert result.metrics.shed > 0
        assert result.metrics.queue_depth_max <= config.queue_depth
        assert result.metrics.shed + result.metrics.completed == 40

    def test_more_replicas_cut_tail_latency_under_load(self):
        requests = generate_requests(
            WORKLOAD, PoissonArrivals(rate_per_s=2000, seed=2),
            count=24, num_streams=2, deadline_ms=500.0,
        )
        one = ServingRuntime(
            small_config(queue_depth=64, replicas=1)
        ).serve(requests)
        four = ServingRuntime(
            small_config(queue_depth=64, replicas=4)
        ).serve(requests)
        assert four.metrics.latency_p95_ms < one.metrics.latency_p95_ms
        assert four.metrics.shed == 0

    def test_inline_autotune_on_miss(self, small_schedule):
        config = small_config(autotune_on_miss=True, tune_penalty_ms=50.0)
        result = ServingRuntime(config).serve(small_schedule)
        # The first batch tunes inline (not degraded); later batches hit.
        assert result.metrics.degraded == 0
        assert result.metrics.policy_hit_rate > 0
        assert "host/inline_tune" in result.metrics.stage_us_per_request

    def test_report_renders(self, small_schedule):
        result = ServingRuntime(small_config()).serve(small_schedule)
        text = result.describe()
        assert "throughput" in text and "latency p50" in text
        assert "stage" in text
        payload = result.metrics.to_json()
        import json

        data = json.loads(payload)
        assert data["completed"] == len(small_schedule)
        assert "latency_p99_ms" in data

    def test_empty_schedule_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            ServingRuntime(small_config()).serve([])


class TestLintAdmission:
    def test_broken_model_rejected_at_admission(self):
        from repro.errors import AdmissionError
        from tests.broken_models import BrokenSkipNet

        runtime = ServingRuntime(small_config())
        with pytest.raises(AdmissionError, match="stride-mismatch"):
            runtime.register_model("broken", BrokenSkipNet(), in_channels=4)
        assert "broken" not in runtime._models

    def test_admission_can_be_disabled(self):
        from tests.broken_models import BrokenSkipNet

        runtime = ServingRuntime(small_config(lint_admission=False))
        model = runtime.register_model(
            "broken", BrokenSkipNet(), in_channels=4
        )
        assert runtime.model("broken") is model

    def test_forward_error_rejected_at_admission(self):
        from repro.errors import AdmissionError
        from repro.nn.module import Module

        class Crashes(Module):
            def forward(self, x, ctx):
                raise RuntimeError("boom")

        # Rejected even with lint off: the value-range pass needs the walk.
        runtime = ServingRuntime(small_config(lint_admission=False))
        with pytest.raises(AdmissionError, match="RuntimeError: boom"):
            runtime.register_model("crash", Crashes(), in_channels=4)
        assert "crash" not in runtime._models

    def test_bundled_workload_admitted(self, small_schedule):
        # Admission runs on the lazy build path too; the bundled MinkUNet
        # must clear it and serving must proceed normally.
        result = ServingRuntime(small_config()).serve(small_schedule)
        assert result.metrics.completed == len(small_schedule)
