"""Rewrite ``reference.json``: the simulated-output digest of each workload
at each reference seed, from one untraced worker apiece.

    python3 perfbench/record_reference.py            # seeds 0-9
    python3 perfbench/record_reference.py --seeds 0 1 2

Only for a change that alters simulated outputs on purpose; say so in it.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    args = parser.parse_args(argv)
    reference = {}
    for workload in run.WORKLOADS:
        reference[workload] = {}
        for seed in args.seeds:
            report = run.spawn(workload, seed, trace=False)
            verdict = run.judge([report], expected=None)
            if not verdict["correct"]:
                print(f"{workload} seed {seed}: {verdict['problems']}",
                      file=sys.stderr)
                return 1
            (digest,) = report["digests"]
            reference[workload][str(seed)] = digest
            print(f"{workload} seed {seed}: {digest}", flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
