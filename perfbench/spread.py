#!/usr/bin/env python3
"""Run workloads on several seeds; report each metric's median, quartiles and spread.

    python3 perfbench/spread.py --workloads sweep,point,long_wire --seeds 1-10 \\
        --seconds 20 [--trace 0] [--out perfbench/results/BENCH_<label>.json]

Runs go one after another through run.py.  The spread of a metric is
(Q3 - Q1) / median, with the quartiles of ``statistics.quantiles(values, n=4)``;
the bounds in BENCHMARK.json are judged against it.  The share of failed
operations must be the same in every run of a workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("nan"),
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="sweep,point,long_wire")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run and the summary as JSON")
    args = parser.parse_args(argv)

    record = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
                + f", failed {result['failed']}/{result['attempted']}, correct {result['correct']}",
                flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        ok = ok and len(shares) == 1 and all(r["correct"] for r in runs)
        summary = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        record["workloads"][workload] = {"runs": runs, "summary": summary,
                                         "failed_shares": sorted(shares)}
        for name, s in summary.items():
            print(f"  {workload:9s} {name:34s} median {s['median']:.5g}  "
                  f"Q1 {s['q1']:.5g}  Q3 {s['q3']:.5g}  spread {s['spread']:.3f}")
        print(f"  {workload:9s} failed shares {sorted(shares)}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
