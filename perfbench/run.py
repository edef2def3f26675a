"""Benchmark of record for hiem: train, serve and search workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

`--workload all` runs the three workloads one after another in this one
process.  With `--trace 0` the run reports the end-to-end metrics; with
`--trace 1` it runs round 0 once untraced and once traced, reports the
per-layer metrics of the traced pass and writes its spans to
`.perfbench-runs/trace-<workload>-seed<seed>.npz`.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

TIME_LIMIT_S = 150.0  # a workload that has not finished its rounds by then gives up


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", "train", "serve", "search"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    return ap.parse_args(argv)


def use_checkout_sources(root: Path) -> None:
    """Make `import hiem` load the checkout's own sources."""
    src = root / "src"
    if not (src / "hiem" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hiem sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    use_checkout_sources(root)
    # One BLAS thread: the nets multiply matrices of a few dozen rows, and a
    # second BLAS thread only spins against whatever else runs on the other
    # core.  Set before NumPy is first imported, below.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    from harness import end_to_end, report, run_timed, run_traced
    from measure import thread_count
    from workloads import WORKLOADS, CheckFailed

    out_dir = root / ".perfbench-runs"
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        workload = WORKLOADS[name](root, args.seed, out_dir)
        try:
            if args.trace:
                values, rounds = run_traced(workload, out_dir)
                info = {}
            else:
                setup_s, rounds = run_timed(workload, args.seconds,
                                            time.perf_counter() + TIME_LIMIT_S)
                values, info = end_to_end(workload, setup_s, rounds)
        except CheckFailed as e:
            print(f"perfbench: {name}: output check failed: {e}", file=sys.stderr)
            correct = False
            continue
        a, f = report(name, args.seed, rounds, values, info)
        attempted += a
        failed += f
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in values.items()})
    print(f"threads {thread_count()}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
