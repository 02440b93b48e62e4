"""Measure a baseline: each workload on ten seeds with --trace 0 and on
one seed with --trace 1, one run at a time.

    python3 perfbench/baseline.py OUT.json [WORKLOAD ...]

For every end-to-end metric it records the ten values, their median and
the distance between the first and third quartiles as a share of the
median (the spread a later change is judged against).  For the traced
run it records every per-layer metric.  Takes about 25 minutes.
"""
from __future__ import annotations

import json
import platform
import statistics
import subprocess
import sys
import time

from run import HERE, ROOT
from workloads import WORKLOADS

SEEDS = range(1, 11)


def bench(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(out_path, names):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    seconds = spec["run_seconds"]
    doc = {"python": platform.python_version(),
           "run_seconds": seconds, "workloads": {}}
    for name in names or WORKLOADS:
        runs = []
        for seed in SEEDS:
            t0 = time.perf_counter()
            runs.append(bench(name, seed, seconds, 0))
            print(f"{name} seed {seed}: {time.perf_counter() - t0:.1f} s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v
                             in runs[-1]["metrics"].items()), flush=True)
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            summary[metric["name"]] = {
                "unit": metric["unit"], "median": med,
                "spread": (q3 - q1) / med, "values": values}
        traced = bench(name, SEEDS[0], seconds, 1)
        doc["workloads"][name] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": summary,
            "per_layer": {k: v["value"]
                          for k, v in traced["metrics"].items()}}
        print(name, json.dumps({k: round(v["spread"], 3)
                                for k, v in summary.items()}), flush=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
