"""Repeat runs of the benchmark and the run-to-run spread of each metric.

Run from the repository root:

    python3 benchmark/repeat.py --seeds 1-10
    python3 benchmark/repeat.py --seeds 1-5 --workload screen
    python3 benchmark/repeat.py --seeds 1-3 --trace 1

For every workload it runs the benchmark command of BENCHMARK.json once per
seed, one run at a time, and prints each metric's median and its spread: the
distance between the first and third quartiles (``statistics.quantiles``
with n=4) as a share of the median. An end-to-end metric whose spread is
above a third of its bound is marked. Every result line is appended to
benchmark/out/repeat.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"),
                   help="inclusive range such as 1-10")
    p.add_argument("--workload", action="append", help="repeatable; default all")
    p.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    seconds = args.seconds or bench["run_seconds"]
    log = ROOT / "benchmark" / "out" / "repeat.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    status = 0
    for wl in args.workload or [w["name"] for w in bench["workloads"]]:
        values = defaultdict(list)
        shares = set()
        for seed in args.seeds:
            cmd = [*bench["command"], "--workload", wl, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):  # no result printed
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            res = json.loads(lines[-1])
            with open(log, "a") as fh:
                fh.write(json.dumps({"workload": wl, "seed": seed, "trace": args.trace,
                                     **res}) + "\n")
            shares.add(res["failed"] / res["attempted"])
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
            for name, m in res["metrics"].items():
                values[name].append(m["value"])
            print(f"{wl} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        print(f"{wl}: failed share {sorted(shares)}")
        for m in metrics:
            xs = values.get(m["name"], [])
            if len(xs) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / q2 if q2 else float("nan")
            bound = m.get("bound")
            mark = ""
            if bound is not None and not spread < bound / 3:
                mark = "  <-- spread above a third of the bound"
            print(f"  {m['name']:28s} median {q2:.6g} {m['unit']:10s} spread {spread:.4f}"
                  + (f" (bound {bound})" if bound is not None else "") + mark)
    return status


if __name__ == "__main__":
    sys.exit(main())
