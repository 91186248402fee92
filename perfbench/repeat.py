"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workloads desk fisher --runs 10 --out perfbench/baseline.json

Runs perfbench/run.py once per (workload, seed), for seeds 1 to --runs,
one process at a time, from the current directory, with run_seconds
taken from BENCHMARK.json.
For each metric it reports the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, which is the
distance between the quartiles as a share of the median. With --trace it
runs each seed's traced run twice and requires the deterministic counts
to agree exactly; this is the benchmark's check that counts repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", action="store_true", help="traced runs, twice per seed")
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    ok = True
    for workload in args.workloads:
        results = []
        for seed in range(1, args.runs + 1):
            res = run_once(workload, seed, bench["run_seconds"], int(args.trace))
            if args.trace:
                again = run_once(workload, seed, bench["run_seconds"], 1)
                counts = {k: v["value"] for k, v in res["metrics"].items() if v["unit"] == "count"}
                again_counts = {k: v["value"] for k, v in again["metrics"].items() if v["unit"] == "count"}
                if counts != again_counts or not again["correct"]:
                    ok = False
                    print(f"{workload} seed {seed}: traced counts differ between runs", flush=True)
            ok &= res["correct"] and res["failed"] == 0
            results.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}", flush=True)
        summary[workload] = {}
        for name, first in results[0]["metrics"].items():
            stats = summarise([r["metrics"][name]["value"] for r in results])
            stats["unit"] = first["unit"]
            summary[workload][name] = stats
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and stats["spread"] > bound / 3:
                flag = f"  (spread above a third of the bound {bound})"
            print(f"  {name:32s} median {stats['median']:.6g} {stats['unit']}"
                  f"  q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {stats['spread']:.4f}{flag}",
                  flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
