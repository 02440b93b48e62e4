"""Self-check of the harness at tiny sizes (max_degree 4, one-second
windows), in a few seconds per workload.

    python3 perfbench/selfcheck.py

Checks that every workload passes its gate and prints every end-to-end
and per-layer metric of BENCHMARK.json by name with its unit, that a
job whose generated config is invalid, and one that dies with a Python
traceback, each count as a failed job without stopping the harness.
Exits 0 when every check holds.
"""
from __future__ import annotations

import contextlib
import json
import shutil
import sys

import run
from workloads import WORKLOADS

TINY = 4


def check(cond, what, problems):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        problems.append(what)


@contextlib.contextmanager
def workdir(name):
    path = run.HERE / "_work" / f"selfcheck-{name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def check_workload(workload, spec, problems):
    for trace in (0, 1):
        lines = []
        with workdir(f"{workload.name}-{trace}") as path:
            result = run.run(workload, 7, 1, trace, path, max_degree=TINY,
                             say=lines.append)
        label = f"{workload.name} trace {trace}"
        check(result["correct"] and result["failed"] == 0,
              f"{label}: correct, 0 of {result['attempted']} failed", problems)
        wanted = spec["per_layer" if trace else "end_to_end"]
        metric_lines = {line.split()[0]: line for line in lines
                        if line.startswith("  ")}
        printed = all(metric_lines.get(m["name"], "").endswith(" " + m["unit"])
                      for m in wanted)
        check(printed and set(result["metrics"]) == {m["name"]
                                                      for m in wanted},
              f"{label}: all {len(wanted)} metrics printed with units",
              problems)
        check(all(isinstance(m["value"], (int, float))
                  for m in result["metrics"].values()),
              f"{label}: every metric is a number", problems)


def check_failures_are_counted(problems):
    workload = WORKLOADS["ranks-q"]
    with workdir("failures") as path:
        bench = run.Bench(workload, 7, path, max_degree=TINY)
        bench.setup()
        bench.job()
        # an invalid generated config: unknown field and a degree-1
        # generator, which loopcoh rejects with exit code 2
        bad = dict(bench.doc, colour="red")
        bad["generators"] = [{"name": "a1", "degree": 1}]
        bench.config.write_text(json.dumps(bad), encoding="utf-8")
        bench.job()
        # a config that ends in an uncaught ResourceCapError traceback:
        # eight degree-2 generators put a 73728 x 32768 block at degree 5
        boom = {"ring": "F2", "bounds": {"max_degree": 5},
                "generators": [{"name": f"g{i}", "degree": 2}
                               for i in range(8)]}
        bench.config.write_text(json.dumps(boom), encoding="utf-8")
        bench.job()
        bench.config.write_text(json.dumps(bench.doc), encoding="utf-8")
        bench.job()
    oks = [j.ok for j in bench.jobs]
    check(oks == [True, False, False, True],
          "invalid config and traceback each count as one failed job",
          problems)
    check(len(bench.failures) == 2
          and "exit code 2" in bench.failures[0]
          and "ResourceCapError" in bench.failures[1],
          "failure reasons name the exit code and the exception", problems)


def main():
    problems = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json names the harness's workloads", problems)
    run.build()
    for workload in WORKLOADS.values():
        check_workload(workload, spec, problems)
    check_failures_are_counted(problems)
    print(f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
