"""Same-host benchmark of the DisQ stack: cold query, scan, hot, durable.

Run from the repository root::

    python3 perfbench/run.py --workload cold_query --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced for half the time, re-runs the same epochs with span
shims on, checks that both produce the same report bytes, and prints
the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A failed
correctness check exits 1; a checkout without ``src/repro`` exits 2.

Seeds 1-99 are for tuning; seed 9001 is reserved for confirming a
claimed gain on inputs no change was tuned on.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads: the client is one closed
    # loop on one core, and on a two-core host OpenBLAS's threads make
    # the small eigh of every table build take 6 ms in one process and
    # 75 ms in the next, which would swamp the set-up time.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import measure
    from perfbench.stats import host_fingerprint
    from perfbench.workloads import WORKLOADS, CheckFailure

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    host = host_fingerprint()
    print(f"host: {json.dumps(host, sort_keys=True)}")
    try:
        outcome = measure(workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    except CheckFailure as failure:
        print(f"FAIL {args.workload} seed {args.seed}: {failure}", file=sys.stderr)
        return 1
    for name, (value, unit) in outcome["metrics"].items():
        print(f"  {name:<26} {value:>16.6f} {unit}")
    for key, value in outcome.items():
        if key not in ("metrics", "attempted", "failed"):
            print(f"  {key}: {json.dumps(value, sort_keys=True, default=str)}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        **{key: value for key, value in outcome.items() if key != "metrics"},
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome["metrics"].items()
        },
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    result_path = OUT_DIR / f"{args.workload}.trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": True,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
