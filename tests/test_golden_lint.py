"""Golden lint regression: ``repro lint <id> --json`` (a100, fp16,
defaults) on every bundled workload must match the committed fixture byte
for byte.

The fixture is the seven JSON documents printed back to back, in the order
of :data:`WORKLOADS`.  Regenerate (after an intentional analyzer change)
with:

    for w in SK-M-0.5 SK-M-1.0 NS-M-1f NS-M-3f NS-C-10f WM-C-1f WM-C-3f; do
        PYTHONPATH=src python -m repro lint "$w" --json
    done > tests/golden/lint_bundled.json
"""

from pathlib import Path

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden" / "lint_bundled.json"
WORKLOADS = (
    "SK-M-0.5", "SK-M-1.0", "NS-M-1f", "NS-M-3f", "NS-C-10f", "WM-C-1f",
    "WM-C-3f",
)


def test_bundled_lint_matches_golden(capsys):
    outputs = []
    for workload in WORKLOADS:
        assert main(["lint", workload, "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert "".join(outputs) == GOLDEN.read_text(), (
        "lint output drifted from the golden fixture; if intentional, "
        "regenerate per this module's docstring"
    )
