"""Golden tuner regression: the paper autotuner, the training tuner under
every binding scheme, and the online tuner's database must reproduce the
committed fixture byte for byte.

Every latency is recorded as its ``repr``, so a change in what a candidate
is charged, or in the order its costs are summed, shows up here.
Regenerate (after an intentional pricing change) with:

    PYTHONPATH=src:. python -m tests.test_golden_tuning \
        > tests/golden/tuning_bundled.json
"""

import json
from pathlib import Path

import numpy as np

from repro.autotune import OnlineTuner, TuningDatabase
from repro.models import MinkUNet
from repro.sparse import SparseTensor
from repro.tune import BindingScheme, SparseAutotuner, TrainingTuner
from repro.tune.cache import config_to_dict

GOLDEN = Path(__file__).parent / "golden" / "tuning_bundled.json"
SEEDS = (0, 1)


def cloud(seed, n=500, extent=20):
    rng = np.random.default_rng(seed)
    coords = np.unique(
        np.concatenate(
            [np.zeros((n, 1), np.int32),
             rng.integers(0, extent, (n, 3)).astype(np.int32)],
            axis=1,
        ),
        axis=0,
    )
    feats = rng.standard_normal((len(coords), 4)).astype(np.float32)
    return SparseTensor(coords, feats)


def _policy(policy):
    return {
        repr(sig): {
            role.value: config_to_dict(config)
            for role, config in by_role.items()
        }
        for sig, by_role in policy.items()
    }


def render() -> str:
    model = MinkUNet(in_channels=4, num_classes=5, width=0.25)
    clouds = [cloud(seed) for seed in SEEDS]

    entries = {}

    model.eval()
    runs = [(f"seed{seed}", [sample]) for seed, sample in zip(SEEDS, clouds)]
    runs.append(("both", clouds))
    for run, samples in runs:
        policy, report = SparseAutotuner().tune(model, samples, "a100", "fp16")
        name = f"autotuner/{run}"
        entries[name] = {
            "end_to_end_us": repr(report.end_to_end_us),
            "default_us": repr(report.default_us),
            "policy": _policy(policy),
        }
        for i, group in enumerate(report.groups):
            entries[f"{name}/group{i}"] = {
                "signature": repr(group.signature),
                "chosen": config_to_dict(group.chosen),
                "candidate_latencies_us": [
                    repr(x) for x in group.candidate_latencies_us
                ],
                "num_layers": group.num_layers,
            }

    model.train()
    for device in ("a100", "2080ti"):
        for scheme in BindingScheme:
            policy, report = TrainingTuner(scheme=scheme).tune(
                model, clouds, device, "fp16"
            )
            entries[f"training/{device}/{scheme.value}"] = {
                "policy": _policy(policy),
                "end_to_end_us": repr(report.end_to_end_us),
                "bound_all_us": repr(report.bound_all_us),
            }

    model.eval()
    db = TuningDatabase()
    tuner = OnlineTuner(db)
    for sample in clouds:
        tuner.tune_model(model, sample, "a100", "fp16")

    entries["online_db"] = json.loads(db.to_json())

    # One compact line per entry keeps the fixture's diffs readable.
    lines = [
        f" {json.dumps(name)}: {json.dumps(entry, sort_keys=True)}"
        for name, entry in entries.items()
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_tuners_match_golden():
    assert render() == GOLDEN.read_text(), (
        "tuner output drifted from the golden fixture; if intentional, "
        "regenerate per this module's docstring"
    )


if __name__ == "__main__":
    print(render(), end="")
