"""The seed is the benchmark's input: it must change what is generated."""

import workloads


def _schedule(seed):
    _, requests = workloads.ServeFlash().config_and_requests(seed)
    return [
        (r.arrival_ms, r.tenant, r.stream_id, r.scene_seed) for r in requests
    ]


def test_same_seed_same_serving_inputs():
    assert _schedule(3) == _schedule(3)


def test_seed_changes_arrivals_tenants_scenes_and_faults():
    first, second = _schedule(0), _schedule(1)
    assert [a for a, *_ in first] != [a for a, *_ in second]
    assert [t for _, t, *_ in first] != [t for _, t, *_ in second]
    assert {s for *_, s in first}.isdisjoint({s for *_, s in second})
    config0, _ = workloads.ServeFlash().config_and_requests(0)
    config1, _ = workloads.ServeFlash().config_and_requests(1)
    assert config0.faults.seed != config1.faults.seed


def test_every_stream_gets_its_own_unoccluded_scene():
    schedule = _schedule(5)
    streams = {(tenant, stream): scene for _, tenant, stream, scene in schedule}
    assert len(streams) == 8
    assert len(set(streams.values())) == 8
    assert all(workloads._ego_clear(scene) for scene in streams.values())


def test_tuning_scenes_follow_the_seed():
    count = (
        workloads.TuneOffline.offline_scene_count
        + workloads.TuneOffline.online_scene_count
    )
    assert workloads.scene_seeds(0, count, "tune") == workloads.scene_seeds(
        0, count, "tune"
    )
    assert workloads.scene_seeds(0, count, "tune") != workloads.scene_seeds(
        1, count, "tune"
    )
