"""Static analyzer tests: the recorded IR and the lint-rule catalogue."""

import pytest

from repro.analyze import (
    LintContext,
    Severity,
    lint_model,
    lint_workload,
    max_severity,
    run_rules,
    trace_model,
)
from repro.hw import get_device
from repro.models import get_workload
from repro.models.minkunet import MinkUNet
from repro.nn.blocks import ConvBlock
from repro.nn.conv import SparseConv3d
from repro.nn.module import Module
from repro.nn.sequential import Sequential
from repro.precision import Precision
from repro.sparse.tensor import SparseTensor
from tests.broken_models import BrokenSkipNet


def _lint_ctx(model, in_channels=4, device="a100", precision="fp16",
              stride=None):
    ir = trace_model(model, in_channels=in_channels, stride=stride)
    return LintContext(
        ir=ir,
        device=get_device(device),
        precision=Precision.parse(precision),
        policy=None,
    )


class TestSymbolicPropagation:
    def test_minkunet_ir_shape(self):
        model = MinkUNet(in_channels=4, num_classes=19, width=0.5)
        ir = trace_model(model, in_channels=4)
        convs = ir.conv_nodes()
        # stem 2 + 4*(down + 2 res * (2 + maybe proj)) + 4*(up + ...) + head
        assert len(convs) == 50
        assert ir.output is not None
        assert ir.output.channels == 19
        # The decoder returns to the input stride.
        assert ir.output.stride == (1, 1, 1)
        # Deepest encoder stage reaches stride 16.
        assert max(n.out_stride for n in convs) == (16, 16, 16)
        assert not ir.unvisited_paths
        assert not ir.channel_mismatches

    def test_minkunet_transposed_convs_find_forward_maps(self):
        ir = trace_model(MinkUNet(width=0.5), in_channels=4)
        events = {e.event for e in ir.map_events}
        assert "transposed_reuse" in events
        assert "missing_forward_map" not in events
        assert "bad_upsample" not in events

    def test_minkunet_signature_groups_are_shared(self):
        ir = trace_model(MinkUNet(width=0.5), in_channels=4)
        groups = ir.signature_groups()
        # Submanifold k3s1 layers at stride 1 share one signature group.
        subm_s1 = groups[((1, 1, 1), (3, 3, 3), (1, 1, 1), False)]
        assert len(subm_s1) > 4

    def test_boundary_marking(self):
        ir = trace_model(MinkUNet(width=0.5), in_channels=4)
        convs = ir.conv_nodes()
        assert convs[0].boundary == "input"
        assert convs[-1].boundary == "output"
        assert all(n.boundary == "" for n in convs[1:-1])

    def test_channel_mismatch_recorded(self):
        model = Sequential(
            SparseConv3d(4, 8, 3, label="a"),
            SparseConv3d(16, 8, 3, label="b"),
        )
        ir = trace_model(model, in_channels=4)
        assert len(ir.channel_mismatches) == 1
        mismatch = ir.channel_mismatches[0]
        assert mismatch.expected == 16 and mismatch.got == 8

    def test_non_hazard_forward_error_propagates(self):
        class Mystery(Module):
            def __init__(self):
                super().__init__()
                self.inner = SparseConv3d(4, 8, 3, label="inner")

        with pytest.raises(NotImplementedError):
            trace_model(Mystery(), in_channels=4)

    def test_hazard_stops_walk_without_dead_submodules(self):
        ir = trace_model(BrokenSkipNet(), in_channels=4)
        assert [j.kind for j in ir.joins] == ["concat"]
        # The walk ended at the join: the head never ran, yet it is not
        # reported dead, and no trace feeds the trace rules.
        assert not any(n.path.endswith("head") for n in ir.nodes)
        assert ir.unvisited_paths == []
        assert ir.output is None and ir.trace is None

    def test_walk_records_execution_trace(self):
        ir = trace_model(MinkUNet(width=0.5), in_channels=4)
        assert ir.trace is not None and len(ir.trace) > 0


class TestLintRules:
    def test_bundled_workloads_lint_clean(self):
        for wid in ("SK-M-0.5", "SK-M-1.0", "WM-C-1f"):
            findings = lint_workload(wid, device="a100", precision="fp16")
            worst = max_severity(findings)
            assert worst is None or worst is Severity.INFO, (
                wid,
                [f.format() for f in findings],
            )

    def test_broken_model_reports_all_three_hazards(self):
        findings = lint_model(
            BrokenSkipNet(),
            in_channels=4,
            device="a100",
            precision="fp32",
        )
        # Findings are sorted most severe first; keep the worst per rule.
        by_rule = {}
        for f in findings:
            by_rule.setdefault(f.rule, f)
        assert by_rule["stride-mismatch"].severity is Severity.ERROR
        assert by_rule["tile-alignment"].severity is Severity.WARNING
        assert by_rule["dataflow-precision"].severity is Severity.WARNING
        assert max_severity(findings) is Severity.ERROR
        # Findings arrive most severe first.
        ranks = [f.severity.rank for f in findings]
        assert ranks == sorted(ranks, reverse=True)

    def test_tile_alignment_reports_padding_waste(self):
        findings = lint_model(
            BrokenSkipNet(), in_channels=4, device="a100", precision="fp16"
        )
        tile = [f for f in findings if f.rule == "tile-alignment"
                and f.severity is Severity.WARNING]
        assert tile, [f.format() for f in findings]
        # 100 channels pad to 112: 12/112 = 10.7% waste.
        assert tile[0].data["padded"] == 112
        assert tile[0].data["waste_pct"] == pytest.approx(10.71, abs=0.01)

    def test_boundary_channels_stay_info(self):
        findings = lint_workload("SK-M-0.5", precision="fp16")
        tile = [f for f in findings if f.rule == "tile-alignment"]
        assert tile and all(f.severity is Severity.INFO for f in tile)
        assert all(f.data["boundary"] for f in tile)

    def test_missing_forward_map_detected(self):
        model = Sequential(
            SparseConv3d(8, 8, 2, stride=2, transposed=True, label="up")
        )
        ctx = _lint_ctx(model, in_channels=8, stride=(2, 2, 2))
        findings = run_rules(ctx, rules=["missing-forward-map"])
        assert len(findings) == 1
        assert findings[0].severity is Severity.ERROR
        assert "no matching forward map" in findings[0].message

    def test_bad_upsample_detected(self):
        model = Sequential(
            SparseConv3d(8, 8, 2, stride=2, transposed=True, label="up")
        )
        ctx = _lint_ctx(model, in_channels=8)  # stride (1,1,1): indivisible
        findings = run_rules(ctx, rules=["missing-forward-map"])
        assert len(findings) == 1
        assert "cannot upsample" in findings[0].message

    def test_down_then_up_is_clean(self):
        model = Sequential(
            SparseConv3d(8, 8, 2, stride=2, label="down"),
            SparseConv3d(8, 8, 2, stride=2, transposed=True, label="up"),
        )
        ctx = _lint_ctx(model, in_channels=8)
        assert run_rules(ctx, rules=["missing-forward-map"]) == []

    def test_fp32_on_tensor_core_schedule_warns(self):
        model = Sequential(SparseConv3d(16, 16, 3, label="c"))
        findings = run_rules(
            _lint_ctx(model, in_channels=16, precision="fp32"),
            rules=["dataflow-precision"],
        )
        assert findings and findings[0].severity is Severity.WARNING
        assert "CUDA cores" in findings[0].message

    def test_tf32_without_tf32_path_warns(self):
        findings = run_rules(
            _lint_ctx(
                Sequential(SparseConv3d(16, 16, 3, label="c")),
                in_channels=16,
                device="rtx2080ti",
                precision="tf32",
            ),
            rules=["dataflow-precision"],
        )
        assert findings and findings[0].severity is Severity.WARNING

    def test_fp16_on_tensor_cores_is_clean(self):
        findings = run_rules(
            _lint_ctx(
                Sequential(SparseConv3d(16, 16, 3, label="c")),
                in_channels=16,
                precision="fp16",
            ),
            rules=["dataflow-precision"],
        )
        assert findings == []

    def test_kmap_reuse_across_broken_cache_lineage(self):
        class TwoCaches(Module):
            def __init__(self):
                super().__init__()
                self.a = SparseConv3d(4, 8, 3, label="a")
                self.b = SparseConv3d(4, 8, 3, label="b")

            def forward(self, x, ctx):
                xa = self.a(x, ctx)
                # Rebuilding the SparseTensor from raw coordinates drops
                # the shared cache: the same map is built again.
                self.b(SparseTensor(x.coords, x.feats, stride=x.stride), ctx)
                return xa

        findings = run_rules(
            _lint_ctx(TwoCaches(), in_channels=4), rules=["kmap-reuse"]
        )
        assert len(findings) == 1
        assert findings[0].severity is Severity.WARNING
        assert "built 2 times" in findings[0].message

    def test_shared_cache_has_no_kmap_reuse_finding(self):
        model = Sequential(
            SparseConv3d(4, 8, 3, label="a"), SparseConv3d(8, 8, 3, label="b")
        )
        assert run_rules(
            _lint_ctx(model, in_channels=4), rules=["kmap-reuse"]
        ) == []

    def test_dead_submodule_detected(self):
        class HasDead(Module):
            def __init__(self):
                super().__init__()
                self.used = SparseConv3d(4, 8, 3, label="used")
                self.unused = ConvBlock(8, 8, 3, label="unused")

            def forward(self, x, ctx):
                return self.used(x, ctx)

        findings = run_rules(
            _lint_ctx(HasDead(), in_channels=4), rules=["dead-submodule"]
        )
        # Only the top-most unvisited subtree is reported, not each child.
        assert len(findings) == 1
        assert findings[0].path == "unused"
        assert findings[0].severity is Severity.WARNING

    def test_unknown_rule_rejected(self):
        ctx = _lint_ctx(MinkUNet(width=0.5), in_channels=4)
        with pytest.raises(ValueError, match="unknown lint rule"):
            run_rules(ctx, rules=["no-such-rule"])

    def test_severity_parse(self):
        assert Severity.parse("error") is Severity.ERROR
        assert Severity.parse(Severity.INFO) is Severity.INFO
        with pytest.raises(ValueError, match="unknown severity"):
            Severity.parse("fatal")
        assert Severity.ERROR.rank > Severity.WARNING.rank > Severity.INFO.rank

    def test_finding_to_dict_round_trips(self):
        findings = lint_workload("SK-M-0.5", precision="fp16")
        for f in findings:
            d = f.to_dict()
            assert d["rule"] == f.rule
            assert d["severity"] in ("info", "warning", "error")
            assert isinstance(d["data"], dict)


class TestLintWorkloadEntryPoint:
    def test_uses_dataset_in_channels(self):
        workload = get_workload("WM-C-1f")
        assert workload.dataset_config.in_channels == 5
        findings = lint_workload("WM-C-1f", precision="fp16")
        assert all(f.rule != "channel-mismatch" for f in findings)

    def test_unknown_workload_raises_with_choices(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="unknown workload"):
            lint_workload("XX-nope")
