"""Alternating benchmark pairs between two checkouts, metric by metric.

    python3 tools/bench_pairs.py PARENT CHANGE --workload all --pairs 10 --seed 1 --seconds 30

PARENT and CHANGE are the roots of two checkouts.  Each pair runs

    bench/run.py --workload W --seed S --seconds T --trace 0

once in each checkout, one process per workload and per run, for every
workload in turn; even pairs run the parent first, odd pairs the change.
For each workload and each end-to-end metric of CHANGE's
``BENCHMARK.json`` one row is printed:

    <workload> <metric>  parent <median> [<q1>, <q3>]  change <median> [<q1>, <q3>]
        wins <w>/<pairs> losses <l>  gap <gap> iqr <parent's q3 - q1>  <verdict>

A pair is a win when the change's value is better than the parent's in the
direction of ``better``; a tie counts for neither side.  ``gap`` is the
parent's median less the change's, signed so that a positive gap is a
gain.  ``bound`` is read as a share of the parent's median:

- ``unresolved``: either side's interquartile range exceeds the bound, so
  the runs spread too widely to tell;
- ``worse``: the change's median is worse than the parent's by more than
  the bound;
- ``better``: at least 9 of 10 pairs are wins and the gap exceeds the
  parent's interquartile range;
- ``same``: none of these.

Each side's summed ``attempted`` and ``failed`` fits and its count of
``correct`` runs follow per workload.  The runs write nothing into either
checkout: no bytecode, and no trace (``--trace 0``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("tall", "wide", "em")
SIDES = ("parent", "change")
# wins needed per pair for ``better``
WIN_SHARE = 0.9


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3), linear between order statistics, as
    ``numpy.percentile`` takes them."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent, change, better: str, bound: float) -> dict:
    """The row of one metric from the paired values parent[i], change[i]."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of values on each side")
    sign = 1.0 if better == "lower" else -1.0
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
    gap, iqr = sign * (pmed - cmed), p3 - p1
    allowed = bound * abs(pmed)
    if max(iqr, c3 - c1) > allowed:
        verdict = "unresolved"
    elif -gap > allowed:
        verdict = "worse"
    elif wins >= math.ceil(WIN_SHARE * len(gains)) and gap > iqr:
        verdict = "better"
    else:
        verdict = "same"
    return {
        "parent": (pmed, p1, p3),
        "change": (cmed, c1, c3),
        "wins": wins,
        "losses": losses,
        "pairs": len(gains),
        "gap": gap,
        "iqr": iqr,
        "verdict": verdict,
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON record that ``bench/run.py`` prints last, run in checkout."""
    cmd = [sys.executable, "-B", "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{checkout}: bench/run.py exited {done.returncode}:\n{done.stderr}") from None


def collect(checkouts: dict, workloads, pairs: int, seed: int, seconds: float, run=run_once) -> dict:
    """{workload: {side: [record of each pair]}}, the sides alternating which
    goes first from pair to pair."""
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for w in workloads:
            for side in order:
                runs[w][side].append(run(checkouts[side], w, seed, seconds))
    return runs


def report(runs: dict, end_to_end) -> list[str]:
    """The printed rows: one per workload and metric, then each side's
    counts per workload."""
    lines = []
    for w, sides in runs.items():
        for metric in end_to_end:
            name = metric["name"]
            parent, change = ([r["metrics"][name]["value"] for r in sides[s]] for s in SIDES)
            row = summarize(parent, change, metric["better"], metric["bound"])
            lines.append(
                f"{w:<5} {name:<12} parent {row['parent'][0]:.6g} [{row['parent'][1]:.6g}, {row['parent'][2]:.6g}]"
                f"  change {row['change'][0]:.6g} [{row['change'][1]:.6g}, {row['change'][2]:.6g}]"
                f"  wins {row['wins']}/{row['pairs']} losses {row['losses']}"
                f"  gap {row['gap']:.3g} iqr {row['iqr']:.3g}  {row['verdict']}"
            )
        for side in SIDES:
            records = sides[side]
            attempted = sum(r["attempted"] for r in records)
            failed = sum(r["failed"] for r in records)
            correct = sum(bool(r["correct"]) for r in records)
            lines.append(f"{w:<5} {side:<6} attempted {attempted} failed {failed} correct {correct}/{len(records)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    end_to_end = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = collect(checkouts, workloads, args.pairs, args.seed, args.seconds)
    print("\n".join(report(runs, end_to_end)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
