"""Fitting benchmark entry point.

    python3 bench/run.py --workload tall --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Prints one line per metric (workload,
name, value, unit), then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs tall, wide and em in turn in this process and
prefixes each metric with its workload.  A traced run also writes its
spans, counters and run metadata to ``.bench_out/``.  Exits 1 when an
output check fails and 2 when the engine sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# BLAS and OpenMP read these when numpy loads.  One thread: the engine's
# matrices are at most 16 x 16, and a shared 2-core box adds noise, not speed.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("tall", "wide", "em", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "emmfit" / "optim.py").is_file():
        print(f"bench: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness

    names = harness.PER_LAYER_UNITS if args.trace else harness.END_TO_END_UNITS
    shown = {**harness.END_TO_END_UNITS, **harness.PER_LAYER_UNITS}
    workloads = list(harness.WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        record = harness.run(harness.WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        for problem in record["problems"]:
            print(f"{name}: CHECK FAILED: {problem}", file=sys.stderr)
        for metric, unit in shown.items():
            if metric in record["metrics"]:
                print(f"{name:<5} {metric:<44} {record['metrics'][metric]!r:>24} {unit}")
        if args.trace:
            print(f"{name:<5} trace written to {harness.write_trace(record, OUT_DIR)}")
        prefix = f"{name}." if args.workload == "all" else ""
        result["correct"] &= record["correct"]
        result["attempted"] += record["attempted"]
        result["failed"] += record["failed"]
        result["metrics"].update(
            {prefix + metric: {"value": record["metrics"][metric], "unit": unit}
             for metric, unit in names.items() if metric in record["metrics"]}
        )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
