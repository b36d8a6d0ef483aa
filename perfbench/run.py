"""Benchmark launcher: seeded workloads, one process per timed run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-flash --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 0            # every workload in turn

``--trace 0`` starts two worker processes one after another.  Each sets
the workload up once and then times repetitions of it until it has half
of ``--seconds`` of timed work; the run reports the median set-up
time, the median repetition time and the median peak memory.
``--trace 1`` starts one untraced worker and one traced worker of the
same seed and reports the per-layer metrics of the traced one.  Either way the simulated outputs are checked: every worker of a
run must produce the same digest, equal to the committed reference when
``reference.json`` has one for the seed, and no operation may break an
invariant.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exits non-zero without a result when a worker fails, when a degeneracy
guard fires (exit 3) or when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
WORKERS = 2
WORKER_TIMEOUT_S = 170

#: End-to-end metrics and their units (BENCHMARK.json lists their bounds).
END_TO_END = (
    ("setup_s", "s"),
    ("work_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("success_rate", "ratio"),
)

#: One thread per numeric library, and stable string hashing, in every
#: worker: thread pools and hash-order changes are noise, not work.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchmarkError(RuntimeError):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(workload: str, seed: int, trace: bool, seconds: float = 0.0) -> dict:
    """Run one worker to completion and return its report."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--trace", str(int(trace)),
    ]
    if trace:
        command += ["--spans-out", str(OUT / f"spans-{workload}-{seed}.json")]
    command += ["--spawned-at", repr(time.monotonic())]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=worker_env(), capture_output=True,
            text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} worker timed out") from None
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise BenchmarkError(
            f"{workload} worker exited {done.returncode}", done.returncode
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def reference_digest(workload: str, seed: int) -> Optional[str]:
    """The committed digest of ``workload`` at ``seed``, if there is one."""
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


def judge(reports: List[dict], expected: Optional[str]) -> dict:
    """Correctness of one run from its workers' reports.

    Every worker must report the same digest, equal to ``expected`` when
    there is a reference; otherwise every operation of the run counts as
    failed.  Else the failed operations are those that broke an
    invariant.
    """
    digests = {d for r in reports for d in r["digests"]}
    problems: List[str] = [p for r in reports for p in r["problems"]]
    if len(digests) > 1:
        problems.append(f"workers disagree: {len(digests)} digests")
    if expected is not None and digests != {expected}:
        problems.append("digest differs from the reference")
    wrong = len(digests) > 1 or (expected is not None and digests != {expected})
    attempted = sum(r["operations"] for r in reports)
    failed = attempted if wrong else sum(r["failed"] for r in reports)
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "success_rate": (attempted - failed) / attempted,
        "problems": problems,
    }


def run_timed(workload: str, seed: int, seconds: float) -> dict:
    reports = [
        spawn(workload, seed, trace=False, seconds=seconds / WORKERS)
        for _ in range(WORKERS)
    ]
    verdict = judge(reports, reference_digest(workload, seed))
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "work_s": statistics.median(t for r in reports for t in r["work_s"]),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reports),
        "success_rate": verdict["success_rate"],
    }
    verdict["metrics"] = {
        name: {"value": values[name], "unit": unit} for name, unit in END_TO_END
    }
    verdict["detail"] = {
        "setup_s": " ".join(f"{r['setup_s']:.4f}" for r in reports),
        "work_s": " ".join(f"{t:.4f}" for r in reports for t in r["work_s"]),
    }
    return verdict


def run_traced(workload: str, seed: int) -> dict:
    plain = spawn(workload, seed, trace=False)
    traced = spawn(workload, seed, trace=True)
    verdict = judge([plain, traced], reference_digest(workload, seed))
    values = dict(traced["layers"])
    values["host.work_cpu_s"] = plain["work_cpu_s"][0]
    values["trace.overhead_ratio"] = traced["work_s"][0] / plain["work_s"][0]
    verdict["metrics"] = {
        name: {"value": values[name], "unit": unit}
        for name, unit in layers.PER_LAYER
    }
    verdict["detail"] = {
        "traced work self seconds by layer": " ".join(
            f"{layer}={seconds:.3f}" for layer, seconds in traced["layer_shares"]
        )
    }
    return verdict


def result_line(verdict: dict) -> str:
    return json.dumps(
        {key: verdict[key] for key in ("correct", "attempted", "failed", "metrics")}
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0,
                        help="timed work to accumulate per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    verdicts = []
    try:
        for name in names:
            if args.trace:
                verdict = run_traced(name, args.seed)
            else:
                verdict = run_timed(name, args.seed, args.seconds)
            for problem in verdict["problems"]:
                print(f"{name}: {problem}", file=sys.stderr)
            for key, line in verdict["detail"].items():
                print(f"{name} seed {args.seed} {key}: {line}", file=sys.stderr)
            if args.workload is None:
                print(f"{name}: {result_line(verdict)}")
            verdicts.append((name, verdict))
    except BenchmarkError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return error.code
    if args.workload is None:
        combined = {
            "correct": all(v["correct"] for _, v in verdicts),
            "attempted": sum(v["attempted"] for _, v in verdicts),
            "failed": sum(v["failed"] for _, v in verdicts),
            "metrics": {
                f"{name}/{metric}": value
                for name, v in verdicts
                for metric, value in v["metrics"].items()
            },
        }
        print(json.dumps(combined))
    else:
        print(result_line(verdicts[0][1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
