"""Set one workload up in this process, time it, report one JSON line.

Started by ``run.py``; not meant to be run by hand.  ``setup_s`` runs from
the launcher's ``--spawned-at`` (a ``time.monotonic()`` reading taken just
before this process was started) until the workload is ready to time, so
it covers interpreter start, imports and the workload's set-up.  The
worker then times repetitions of the workload until ``--seconds`` of
timed work have passed (at least one).  Before each repetition it empties
the process-wide gpusim trace memo and collects garbage, so every
repetition starts from the same state; the timed phase does no file I/O
apart from tune-offline's database save.  With ``--trace 1`` there is one
repetition: the span recorder is installed before set-up and removed
right after the timed phase, and the spans are written to ``--spans-out``.

Exit codes: 0 with a report on stdout, 3 when a degeneracy guard fired
(the reasons go to stderr), anything else on error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GUARD_EXIT = 3


def _load_program() -> None:
    import repro

    expected = ROOT / "src" / "repro"
    if Path(repro.__file__).resolve().parent != expected:
        raise SystemExit(
            f"imported repro from {repro.__file__}, expected {expected}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args(argv)

    _load_program()
    import layers
    import workloads
    from repro.gpusim.engine import clear_trace_memo, trace_memo_stats

    workload = workloads.make(args.workload, temp_root=ROOT / ".perfbench")
    recorder = None
    if args.trace:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        layers.install(recorder)
    phase = recorder.span if recorder else (lambda name: contextlib.nullcontext())

    with phase("setup"):
        state = workload.setup(args.seed)
    if recorder:
        recorder.wrap_call(workload.model(state), layers.MODEL_CALL)
    setup_s = time.monotonic() - args.spawned_at

    work, cpu, digests, problems = [], [], set(), []
    operations = failed = 0
    counters: dict = {}
    try:
        while True:
            clear_trace_memo()
            gc.collect()
            cpu0 = time.process_time()
            wall0 = time.perf_counter()
            with phase("work"):
                output = workload.run(state)
            work.append(time.perf_counter() - wall0)
            cpu.append(time.process_time() - cpu0)
            if recorder:
                recorder.restore()
                memo = trace_memo_stats()
            checked = workload.check(state, output)
            del output
            digests.add(checked.digest)
            operations += checked.operations
            failed += checked.failed
            problems.extend(checked.problems)
            counters = dict(checked.counters)
            if recorder or sum(work) >= args.seconds:
                break
            state = workload.again(state, args.seed)
    finally:
        workload.close(state)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "work_s": work,
        "work_cpu_s": cpu,
        "peak_rss_mib": peak_rss_mib,
        "digests": sorted(digests),
        "operations": operations,
        "failed": failed,
        "problems": problems,
    }
    if recorder:
        report["layers"] = layers.per_layer(
            args.workload, recorder, counters, memo
        )
        report["layer_shares"] = layers.layer_shares(
            layers.phase_totals(recorder, "work")
        )
        counters.update(report["layers"])
        if args.spans_out is not None:
            args.spans_out.parent.mkdir(parents=True, exist_ok=True)
            args.spans_out.write_text(
                json.dumps({"spans": recorder.spans}) + "\n"
            )

    reasons = workload.guards(counters)
    if reasons:
        for reason in reasons:
            print(f"{args.workload} seed {args.seed}: {reason}", file=sys.stderr)
        return GUARD_EXIT
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
