"""The starts table: how often each method reaches the truth from random starts.

    python3 tools/starts_table.py

Run from the root of a checkout; it takes several minutes, so no CI job
runs it.  Each cell fixes a dimension m in {2, 8} and a start strategy,
``kmeanspp-lite`` or ``random``, with k = 4 components and n = 5000 rows:

- datasets d = 0, 1: ``generate_synthetic(m, 4, 5000, 4.0, 3.0,
  default_rng(1000 + d))``;
- starts s = 1..8 on each: ``initialize(data, 4, gaussian(m), strategy,
  default_rng([d, s]))``, fitted with seed s;
- EM for up to 500 iterations, and ``dadam``, ``radam`` and ``vanilla`` at
  alpha = 0.03 for 1500 iterations, all from the same starts.

A fit succeeds when its final model is within d_u < 0.3 of the data's
generating mixture.  One line is printed per method and cell:

    <method> <strategy> m=<m>  <successes>/<fits>  median d_u <median>  failed <f>  floor events <e>

``floor events`` counts the weight-floor events of the cell's fits.  Like
``bench/run.py`` the script runs numpy on one BLAS thread.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
METHODS = ("em", "dadam", "radam", "vanilla")
CELLS = [(m, strategy) for m in (2, 8) for strategy in ("kmeanspp-lite", "random")]
TARGET = 0.3  # d_u below which a fit has reached the truth


def cell_fits(m: int, strategy: str, methods, datasets: int, starts: int, iters: int, em_iters: int) -> dict:
    """{method: [(d_u to the truth, failed, weight-floor events)]} over the
    cell's first datasets and starts, the manifold methods capped at iters
    iterations and EM at em_iters."""
    import numpy as np
    from emmfit import families, mixture, optim, transport

    rows = {method: [] for method in methods}
    for d in range(datasets):
        data = mixture.generate_synthetic(m, 4, 5000, 4.0, 3.0, np.random.default_rng(1000 + d))
        for s in range(1, starts + 1):
            model0 = optim.initialize(data, 4, families.gaussian(m), strategy, np.random.default_rng([d, s]))
            for method in methods:
                cap = em_iters if method == "em" else iters
                cfg = optim.OptimizerConfig(method=method, alpha=0.03, max_iters=cap, seed=s)
                report = optim.fit(model0, data, cfg)
                du, _ = transport.d_u(report.final_model, data.truth)
                floors = sum("weight floor" in event for event in report.events)
                rows[method].append((du, report.failed, floors))
    return rows


def summarize(rows) -> dict:
    """Successes, fits, median d_u, failed fits and weight-floor events."""
    du = [row[0] for row in rows]
    return {
        "successes": sum(value < TARGET for value in du),
        "fits": len(rows),
        "median_du": statistics.median(du),
        "failed": sum(row[1] for row in rows),
        "floor_events": sum(row[2] for row in rows),
    }


def line(method: str, m: int, strategy: str, summary: dict) -> str:
    return (
        f"{method:<7} {strategy:<13} m={m}  {summary['successes']:>2}/{summary['fits']:<2}"
        f"  median d_u {summary['median_du']:<9.3g}  failed {summary['failed']:<2}"
        f"  floor events {summary['floor_events']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.parse_args(argv)

    # read by BLAS when numpy loads
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src")]
    for m, strategy in CELLS:
        rows = cell_fits(m, strategy, METHODS, 2, 8, 1500, 500)
        for method in METHODS:
            print(line(method, m, strategy, summarize(rows[method])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
