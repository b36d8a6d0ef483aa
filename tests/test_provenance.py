"""Cache-key soundness analyzer (repro.analyze.provenance)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.analyze import provenance
from repro.analyze.provenance import (
    Exemption,
    KeyComponent,
    KeySchema,
    ReadLog,
    audit_cache_site,
    fuzz_all,
    fuzz_cache_site,
    provenance_findings,
    register_cache_site,
    wrap,
)
from repro.analyze.rules import RULES, Severity
from repro.hw.specs import DeviceSpec, get_device


@dataclasses.dataclass
class _Cfg:
    alpha: int = 1
    beta: int = 2

    def doubled_alpha(self) -> int:
        return self.alpha * 2


@pytest.fixture
def clean_registry():
    """Snapshot/restore the site registry around tests that mutate it."""
    before = dict(provenance.REGISTRY)
    yield
    for site in set(provenance.REGISTRY) - set(before):
        provenance._AUDITS.pop(site, None)
    provenance.REGISTRY.clear()
    provenance.REGISTRY.update(before)


# ---------------------------------------------------------------------- #
# Recording proxies
# ---------------------------------------------------------------------- #
def test_wrap_records_attribute_reads():
    log = ReadLog()
    cfg = wrap(_Cfg(), "cfg", log)
    assert cfg.alpha == 1
    assert cfg.beta == 2
    assert log.sorted() == ("cfg.alpha", "cfg.beta")


def test_wrap_preserves_isinstance_and_class():
    log = ReadLog()
    cfg = wrap(_Cfg(), "cfg", log)
    assert isinstance(cfg, _Cfg)
    assert cfg.__class__ is not None
    # Dunder lookups are machinery, not data reads.
    assert "__class__" not in {p.split(".", 1)[1] for p in log.paths}


def test_wrap_method_reads_are_surface_granular():
    """A method resolves through the proxy (recorded by name) but runs
    bound to the target: its internal field reads are not re-recorded."""
    log = ReadLog()
    cfg = wrap(_Cfg(alpha=3), "cfg", log)
    assert cfg.doubled_alpha() == 6
    assert log.sorted() == ("cfg.doubled_alpha",)


def test_wrap_frozen_dataclass_and_properties():
    log = ReadLog()
    spec = wrap(get_device("a100"), "device", log)
    assert isinstance(spec, DeviceSpec)
    assert spec.sms == 108
    assert "device.sms" in log.paths


def test_wrap_distinct_names_share_one_log():
    log = ReadLog()
    a = wrap(_Cfg(), "a", log)
    b = wrap(_Cfg(), "b", log)
    assert a.alpha == 1 and b.beta == 2
    assert log.sorted() == ("a.alpha", "b.beta")


# ---------------------------------------------------------------------- #
# Schema coverage semantics
# ---------------------------------------------------------------------- #
def _schema(site, components, exemptions=(), probe=None, declared=()):
    return KeySchema(
        site=site,
        description="test schema",
        components=tuple(components),
        declared_reads=tuple(declared),
        exemptions=tuple(exemptions),
        probe=probe,
    )


def _probe_alpha_only():
    log = ReadLog()
    cfg = wrap(_Cfg(), "cfg", log)
    assert cfg.alpha == 1
    return log


def _probe_both():
    log = ReadLog()
    cfg = wrap(_Cfg(), "cfg", log)
    assert cfg.alpha == 1 and cfg.beta == 2
    return log


def test_audit_flags_unkeyed_read(clean_registry):
    register_cache_site(
        _schema(
            "test.unkeyed",
            [KeyComponent("alpha", covers=("cfg.alpha",))],
            probe=_probe_both,
        )
    )
    audit = audit_cache_site("test.unkeyed")
    assert audit.unkeyed == ("cfg.beta",)
    assert not audit.sound


def test_audit_flags_overkeyed_component(clean_registry):
    register_cache_site(
        _schema(
            "test.overkeyed",
            [
                KeyComponent("alpha", covers=("cfg.alpha",)),
                KeyComponent("beta", covers=("cfg.beta",)),
            ],
            probe=_probe_alpha_only,
        )
    )
    audit = audit_cache_site("test.overkeyed")
    assert audit.sound
    assert audit.overkeyed == ("beta",)


def test_conditional_component_is_never_overkeyed(clean_registry):
    register_cache_site(
        _schema(
            "test.conditional",
            [
                KeyComponent("alpha", covers=("cfg.alpha",)),
                KeyComponent(
                    "beta", covers=("cfg.beta",), conditional=True
                ),
            ],
            probe=_probe_alpha_only,
        )
    )
    assert audit_cache_site("test.conditional").overkeyed == ()


def test_exemption_downgrades_unkeyed_read(clean_registry):
    register_cache_site(
        _schema(
            "test.exempt",
            [KeyComponent("alpha", covers=("cfg.alpha",))],
            exemptions=[Exemption("cfg.beta", "deliberately unkeyed")],
            probe=_probe_both,
        )
    )
    audit = audit_cache_site("test.exempt")
    assert audit.sound
    assert audit.exempted == (("cfg.beta", "deliberately unkeyed"),)


def test_declared_reads_cover_by_value_inputs(clean_registry):
    register_cache_site(
        _schema(
            "test.declared",
            [KeyComponent("alpha", covers=("cfg.alpha",))],
            probe=_probe_both,
            declared=("cfg.beta",),
        )
    )
    assert audit_cache_site("test.declared").sound


def test_coverage_is_prefix_based_not_substring(clean_registry):
    def probe():
        log = ReadLog()
        log.add("cfg.alphabet")
        return log

    register_cache_site(
        _schema(
            "test.prefix",
            [KeyComponent("alpha", covers=("cfg.alpha",))],
            probe=probe,
        )
    )
    # "cfg.alphabet" is not "cfg.alpha" nor under "cfg.alpha." — unkeyed.
    assert audit_cache_site("test.prefix").unkeyed == ("cfg.alphabet",)


# ---------------------------------------------------------------------- #
# Audit memoization and registry
# ---------------------------------------------------------------------- #
def test_audits_memoized_per_schema_object(clean_registry):
    calls = []

    def probe():
        calls.append(1)
        return _probe_alpha_only()

    schema = _schema(
        "test.memo", [KeyComponent("alpha", covers=("cfg.alpha",))],
        probe=probe,
    )
    register_cache_site(schema)
    first = audit_cache_site("test.memo")
    assert audit_cache_site("test.memo") is first
    assert len(calls) == 1
    # Re-registering a new schema object invalidates the memo.
    register_cache_site(dataclasses.replace(schema))
    audit_cache_site("test.memo")
    assert len(calls) == 2


def test_unknown_site_is_a_usage_error():
    with pytest.raises(ValueError, match="unknown cache site"):
        audit_cache_site("test.no-such-site")


def test_probe_less_schema_rejected(clean_registry):
    register_cache_site(_schema("test.noprobe", [KeyComponent("k")]))
    with pytest.raises(ValueError, match="declares no probe"):
        audit_cache_site("test.noprobe")


# ---------------------------------------------------------------------- #
# Lint integration
# ---------------------------------------------------------------------- #
def test_provenance_is_not_a_lint_rule():
    # Key soundness is a property of the code: `repro keycheck` and the
    # session audit prove it, model lint and admission do not re-prove it.
    assert "unkeyed-read" not in RULES
    assert "overkeyed-field" not in RULES


def test_builtin_sites_audit_sound():
    for site in (
        "gpusim.trace-memo",
        "serve.policy-cache",
        "serve.kmap-batch-memo",
        "serve.sample-memo",
        "autotune.tuning-db",
    ):
        audit = audit_cache_site(site)
        assert audit.sound, f"{site}: {audit.unkeyed}"
        assert audit.overkeyed == (), f"{site}: {audit.overkeyed}"
        assert audit.reads  # a probe that read nothing proves nothing


def test_findings_surface_planted_unkeyed_read(clean_registry):
    from tests.broken_caches import SITE, register_unsound

    register_unsound()
    findings = [f for f in provenance_findings() if f.path == SITE]
    assert findings
    worst = findings[0]
    assert worst.rule == "unkeyed-read"
    assert worst.severity is Severity.ERROR
    assert worst.data["read"] == "launch.flops"


# ---------------------------------------------------------------------- #
# Differential fuzzing
# ---------------------------------------------------------------------- #
def test_fuzz_all_builtin_sites_pass():
    for site, report in fuzz_all(seed=3).items():
        assert report.ok, f"{site}: {report.failures}"
        assert report.trials > 0, f"{site} fuzzer ran no trials"


def test_fuzz_without_fuzzer_reports_zero_trials(clean_registry):
    register_cache_site(
        _schema(
            "test.nofuzz",
            [KeyComponent("alpha", covers=("cfg.alpha",))],
            probe=_probe_alpha_only,
        )
    )
    report = fuzz_cache_site("test.nofuzz", seed=0)
    assert report.ok and report.trials == 0


# ---------------------------------------------------------------------- #
# Shared scene-key canonicalization (satellite)
# ---------------------------------------------------------------------- #
def test_scene_key_single_derivation():
    from repro.serve.cache import scene_key
    from repro.serve.request import InferenceRequest

    request = InferenceRequest(
        request_id=0,
        workload_id="SK-M-0.5",
        stream_id=0,
        frame_index=0,
        scene_seed=7,
        arrival_ms=0.0,
        deadline_ms=100.0,
    )
    assert request.scene_key == scene_key("SK-M-0.5", 7) == ("SK-M-0.5", 7)
    # Canonicalization coerces, so np.int64 seeds cannot split the key.
    assert scene_key("SK-M-0.5", True) == ("SK-M-0.5", 1)


def test_device_spec_hash_is_cached_and_stable():
    spec = get_device("a100")
    first = hash(spec)
    assert hash(spec) == first
    clone = dataclasses.replace(spec)
    assert clone == spec and hash(clone) == first
