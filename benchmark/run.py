"""Benchmark of the gait screening package: trial screening, training and
cohort evaluation.

Run from the repository root:

    python3 benchmark/run.py --workload screen --seed 1 --seconds 8 --trace 0

It builds the workload's inputs from the seed (at least MIN_SETUPS times and
until set-up has taken SETUP_SECONDS, timing each set-up), runs the
workload's operation in a closed loop with one client for ``--seconds``
seconds, checks the outputs, and prints one JSON object as the last line of
standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
every layer boundary is timed and the metrics are the per-layer ones (the
spans are written to ``benchmark/out/``). The exit code is 1 when a check
or an operation failed. See benchmark/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the model's matrices are small, and a threaded BLAS that
# competes with any other process for the cores makes timings erratic.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import logging
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_SETUPS = 3
SETUP_SECONDS = 6.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        print("--seed must be nonnegative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import gaitmae
    except ImportError as exc:
        print(f"cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(gaitmae.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"gaitmae imported from {gaitmae.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    import layers
    from spans import Tracer
    from workloads import WORKLOADS, NullTracer

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    logging.getLogger("gaitmae").setLevel(logging.WARNING)

    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    tracer = Tracer() if args.trace else NullTracer()
    wl = WORKLOADS[args.workload](args.seed, out_dir, tracer)
    if args.trace:
        layers.install(tracer)

    setup_times = []
    while len(setup_times) < MIN_SETUPS or sum(setup_times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)

    if args.trace:
        spans_first, counts_first = len(tracer.spans), dict(tracer.counts)
    latencies = []
    items = attempted = failed = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            items += wl.run_op(attempted)
            latencies.append(time.perf_counter() - t0)
        except Exception:
            failed += 1
            traceback.print_exc()
        attempted += 1
        if time.perf_counter() - start >= args.seconds:
            break
    elapsed = time.perf_counter() - start
    if args.trace:
        loop_spans = (spans_first, len(tracer.spans))
        loop_counts = (counts_first, dict(tracer.counts))

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = wl.check()
    if args.trace:
        tracer.restore()
    getattr(wl, "close", lambda: None)()
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    if args.trace:
        metrics = layers.metrics(tracer, loop_spans, loop_counts, attempted,
                                 len(setup_times))
        tracer.write(OUT / f"{args.workload}-{args.seed}.trace.json")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "trials_per_s": {"value": items / elapsed, "unit": "trials/s"},
            "trial_latency_p50_s": {"value": statistics.median(latencies) if latencies
                                    else elapsed, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    info = {"workload": args.workload, "seed": args.seed, "operations": attempted,
            "trials": items, "elapsed_s": elapsed, "setup_runs_s": setup_times,
            "latencies_s": latencies}
    print(json.dumps(info), file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if errors or failed else 0


if __name__ == "__main__":
    sys.exit(main())
