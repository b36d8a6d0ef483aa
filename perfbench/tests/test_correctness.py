"""A wrong simulated output must cost success_rate, never pass silently."""

import dataclasses

import pytest

import run
import workloads


class SmallFlash(workloads.ServeFlash):
    requests = 40


@pytest.fixture(scope="module")
def served():
    workload = SmallFlash()
    state = workload.setup(0)
    output = workload.run(state)
    return workload, state, output


def _report(checked):
    return {
        "digests": [checked.digest],
        "operations": checked.operations,
        "failed": checked.failed,
        "problems": checked.problems,
    }


def _flip_one_latency(output):
    outcomes = list(output.outcomes)
    index = next(i for i, o in enumerate(outcomes) if o.finish_ms is not None)
    outcomes[index] = dataclasses.replace(
        outcomes[index], finish_ms=outcomes[index].finish_ms + 1.0
    )
    return dataclasses.replace(output, outcomes=outcomes)


def test_clean_run_succeeds_against_its_own_reference(served):
    workload, state, output = served
    checked = workload.check(state, output)
    verdict = run.judge([_report(checked)] * 2, expected=checked.digest)
    assert verdict["correct"]
    assert verdict["success_rate"] == 1.0


def test_one_flipped_latency_drops_success_rate(served):
    workload, state, output = served
    clean = workload.check(state, output)
    flipped = workload.check(state, _flip_one_latency(output))
    assert flipped.digest != clean.digest
    # Against the committed reference ...
    verdict = run.judge([_report(flipped)], expected=clean.digest)
    assert not verdict["correct"]
    assert verdict["success_rate"] < 1.0
    # ... and, with no reference for the seed, against the other run.
    verdict = run.judge([_report(clean), _report(flipped)], expected=None)
    assert not verdict["correct"]
    assert verdict["success_rate"] < 1.0


def test_replay_that_differs_from_the_cold_serve_fails_every_request(served):
    workload, state, output = served
    checked = workload.check(state, _flip_one_latency(output))
    assert checked.failed == checked.operations


def test_lost_request_is_a_failed_operation(served):
    workload, state, output = served
    # Without the replay comparison, only the lost request fails.
    state = dataclasses.replace(state, warmup=None)
    dropped = dataclasses.replace(output, outcomes=list(output.outcomes)[1:])
    checked = workload.check(state, dropped)
    assert checked.failed == 1
    verdict = run.judge([_report(checked)], expected=None)
    assert verdict["success_rate"] == pytest.approx(1 - 1 / SmallFlash.requests)
