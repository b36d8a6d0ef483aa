"""Suite-wide fixtures.

``sanitize_all_traces`` routes every latency estimate made anywhere in the
test suite through the trace sanitizer
(:func:`repro.analyze.tracecheck.check_trace`) *and* the launch-level
dependence/liveness analyzer (:func:`repro.analyze.depgraph.check_depgraph`):
any trace with a structurally invalid launch, a use-before-def, a leaked
or under-accounted workspace buffer, an unordered conflicting write, or a
serialized latency below its own dependence critical path fails the test
that produced it, no matter which subsystem (models, tuner, baselines,
serving) emitted it.

Multi-stream estimates are additionally verified by the happens-before
race detector (:func:`repro.analyze.hb.check_schedule`): the schedule
actually used at the requested stream count must order every dependence
edge via stream program order plus explicit sync events.
"""

from __future__ import annotations

import importlib

import pytest

from repro.analyze.depgraph import check_depgraph
from repro.analyze.hb import check_schedule
from repro.analyze.tracecheck import check_trace
from repro.gpusim import engine as _engine
from repro.opt.schedule import best_schedule
from repro.precision import Precision

#: Modules that import ``estimate_trace_us`` by name; each bound copy gets
#: wrapped so no trace escapes the sanitizer.
_PATCH_MODULES = (
    "repro.gpusim.engine",
    "repro.nn.context",
    "repro.graph.engines",
    "repro.tune.groups",
    "repro.baselines.flatformer",
    "repro.codegen.cost",
    "repro.codegen.tiling",
    "repro.apps.mae",
)

_real_estimate_trace_us = _engine.estimate_trace_us


def _checked_estimate_trace_us(trace, device, precision, streams=1, **kwargs):
    # ``estimate_trace_us`` accepts ``Precision | str`` and parses
    # internally; the analyzers take a parsed ``Precision``, so parse here
    # too — a raw string would silently mis-price tensor-core launches in
    # the cross-validation weights (``gemm_tflops`` compares by identity).
    parsed = Precision.parse(precision)
    violations = check_trace(trace)
    violations += check_depgraph(trace, device, parsed)
    if streams > 1 and len(list(trace)):
        schedule = best_schedule(trace, device, parsed, streams)
        violations += check_schedule(trace, schedule)
    if violations:
        details = "\n".join(f"  - {v}" for v in violations)
        raise AssertionError(
            f"trace sanitizer found {len(violations)} violation(s) in a "
            f"trace submitted for latency estimation:\n{details}"
        )
    return _real_estimate_trace_us(trace, device, precision, streams, **kwargs)


@pytest.fixture(autouse=True)
def sanitize_all_traces(monkeypatch):
    for module_name in _PATCH_MODULES:
        module = importlib.import_module(module_name)
        if getattr(module, "estimate_trace_us", None) is not None:
            monkeypatch.setattr(
                module, "estimate_trace_us", _checked_estimate_trace_us
            )
    yield


@pytest.fixture(scope="session", autouse=True)
def cache_key_soundness():
    """Audit + fuzz every registered cache site once per test session.

    Runs before any function-scoped monkeypatching exists (session scope),
    so the probes observe the real engine entry points; the audits are
    memoized inside :mod:`repro.analyze.provenance`, making later lint
    invocations (e.g. serving admission) reuse these results.
    """
    from repro.analyze.provenance import audit_cache_sites, fuzz_all

    audits = audit_cache_sites()
    unsound = {
        site: list(audit.unkeyed)
        for site, audit in audits.items()
        if audit.unkeyed
    }
    assert not unsound, f"unkeyed cache-site reads: {unsound}"
    reports = fuzz_all(seed=0)
    failed = {
        site: list(report.failures)
        for site, report in reports.items()
        if report.failures
    }
    assert not failed, f"cache differential fuzzing failed: {failed}"
    yield
