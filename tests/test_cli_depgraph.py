"""CLI contract tests for ``repro depgraph`` and ``repro memory --json``.

Locks down the machine-readable schemas (CI scripts ``cmp`` the JSON) and
the exit-code contract: 0 = clean, 1 = violations/findings, 2 = usage
error.
"""

import json

import pytest

from repro.cli import main

WORKLOAD = "SK-M-0.5"
FAST = ["--scale", "0.1", "--batch", "1"]


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestDepgraphCommand:
    def test_text_output_clean_exit_zero(self, capsys):
        rc, out, _ = run(capsys, ["depgraph", WORKLOAD, *FAST])
        assert rc == 0
        assert "launches" in out
        assert "critical path" in out
        assert "dependence/liveness invariants: clean" in out

    def test_json_schema(self, capsys):
        rc, out, _ = run(capsys, ["depgraph", WORKLOAD, *FAST, "--json"])
        assert rc == 0
        doc = json.loads(out)
        assert set(doc) >= {
            "device", "precision", "launches", "edges", "critical_path_us",
            "serialized_us", "parallelism", "critical_path", "violations",
        }
        assert doc["violations"] == []
        assert set(doc["edges"]) == {"RAW", "WAR", "WAW"}
        assert doc["launches"] > 0
        assert 0 < doc["critical_path_us"] <= doc["serialized_us"]
        assert doc["parallelism"] >= 1.0
        indices = [step["index"] for step in doc["critical_path"]]
        assert indices == sorted(indices)

    def test_json_is_deterministic(self, capsys):
        _, first, _ = run(capsys, ["depgraph", WORKLOAD, *FAST, "--json"])
        _, second, _ = run(capsys, ["depgraph", WORKLOAD, *FAST, "--json"])
        assert first == second

    def test_dot_output(self, capsys):
        rc, out, _ = run(capsys, ["depgraph", WORKLOAD, *FAST, "--dot"])
        assert rc == 0
        assert out.startswith("digraph depgraph {")
        assert out.rstrip().endswith("}")

    def test_unknown_workload_exits_two(self, capsys):
        rc, _, err = run(capsys, ["depgraph", "NOPE-0", *FAST])
        assert rc == 2
        assert "error:" in err

    def test_unknown_device_exits_two(self, capsys):
        rc, _, err = run(
            capsys, ["depgraph", WORKLOAD, *FAST, "--device", "tpu9"]
        )
        assert rc == 2
        assert "error:" in err


BROKEN_TRACES = {
    "tests.broken_traces:build_dropped_gather": "uninitialized-read",
    "tests.broken_traces:build_reordered_scatter": "uninitialized-read",
    "tests.broken_traces:build_leaked_staging": "workspace-lifetime",
}


class TestLintTraceRules:
    @pytest.mark.parametrize("spec,rule", sorted(BROKEN_TRACES.items()))
    def test_broken_trace_fixture_fails_lint(self, capsys, spec, rule):
        rc, out, _ = run(capsys, ["lint", spec, "--json"])
        assert rc == 1
        doc = json.loads(out)
        assert doc["failed"]
        assert any(f["rule"] == rule for f in doc["findings"]), doc


class TestMemoryJson:
    def test_schema_and_parse(self, capsys):
        rc, out, _ = run(capsys, ["memory", WORKLOAD, *FAST, "--json"])
        assert rc == 0
        doc = json.loads(out)
        assert set(doc) >= {
            "workload", "precision", "batch", "scale", "mem_headroom",
            "budget_cap_mib", "cold_mib", "precision_veto", "devices",
        }
        assert doc["workload"] == WORKLOAD
        assert set(doc["cold_mib"]) == {
            "weights", "features", "workspace", "total",
        }
        # Bundled models are fp16-safe: the rung is never vetoed.
        assert doc["precision_veto"] is None
        assert doc["devices"]
        for dev in doc["devices"]:
            assert set(dev) >= {
                "device", "dram_gib", "budget_mib", "steady_mib",
                "verdict", "ladder",
            }

    def test_json_is_deterministic(self, capsys):
        _, first, _ = run(capsys, ["memory", WORKLOAD, *FAST, "--json"])
        _, second, _ = run(capsys, ["memory", WORKLOAD, *FAST, "--json"])
        assert first == second

    def test_unknown_workload_exits_two(self, capsys):
        rc, _, err = run(capsys, ["memory", "NOPE-0", *FAST, "--json"])
        assert rc == 2
        assert "error:" in err
