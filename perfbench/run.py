"""loopcoh benchmark: seeded CLI jobs, timed one per fresh process, each
report checked; with --trace 1, also one traced job for per-layer times.

    python3 perfbench/run.py --workload ranks-q --seed 1 --seconds 25 --trace 0

Load is a closed loop with one client: the harness starts a job, waits
for it to exit, checks its report and starts the next, until the next job
would end mostly past --seconds.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the
metric names and units are those of BENCHMARK.json (end_to_end with
--trace 0, per_layer with --trace 1).  The lines before it are for people.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up is repeated at least SETUP_REPEATS times and for at least
# SETUP_SECONDS, and its median reported: a set-up of a few tens of
# milliseconds needs many samples to be steady on a shared host.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
# The traced job's self times cover its process from the first line of
# traced_job.py to the end of the CLI call; interpreter start-up before it
# and writing the trace after it are outside every span.  This is how much
# of the traced job's wall time may lie outside the spans.
TRACE_GAP_TOLERANCE_S = 0.25


class TraceError(Exception):
    pass


@dataclasses.dataclass
class Job:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stderr: str
    scale: float = 1.0  # see Bench.calibrated
    ok: bool = False    # passed the correctness gate

    @property
    def scaled(self):
        return self.wall * self.scale


def spawn(argv, cwd, env, stem):
    """Run one process to exit; wall time from spawn to exit, CPU and peak
    RSS from its rusage."""
    out_path, err_path = cwd / f"{stem}.out", cwd / f"{stem}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    return Job(wall, usage.ru_utime + usage.ru_stime,
               usage.ru_maxrss / 1024.0, proc.returncode, stderr)


class Bench:
    """One benchmark run of one workload: its config, set-up, timed jobs
    and the correctness gate applied to every report."""

    def __init__(self, workload, seed, workdir, max_degree=None):
        self.workload = workload
        self.doc = workload.config(seed, max_degree)
        self.workdir = workdir
        self.config = workdir / "config.json"
        self.cache = workdir / "cache" if workload.warm_cache else None
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.oracle = None
        self.first_report = None
        self.attempted = 0
        self.failures = []
        self.jobs = []
        self.setups = []  # (wall, scale)
        self.reference_times = []

    def cli_args(self, report):
        args = [self.workload.command, "--config", str(self.config),
                "--json", str(report)]
        if self.cache is not None:
            args += ["--cache-dir", str(self.cache)]
        return args

    def setup(self):
        """Write the config, import loopcoh and parse the config in a fresh
        process, and for a warm-cache workload fill the cache with one cold
        run.  Timed as a whole; returns the wall time."""
        t0 = time.perf_counter()
        self.config.write_text(json.dumps(self.doc, indent=1) + "\n",
                               encoding="utf-8")
        probe = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(self.config)],
            cwd=self.workdir, env=self.env, capture_output=True, text=True,
            check=False)
        if probe.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + probe.stderr)
        self.oracle = json.loads(probe.stdout)["oracle"]
        if self.cache is not None:
            shutil.rmtree(self.cache, ignore_errors=True)
            self.gated(self.run_cli("cold"), "cold")
        return time.perf_counter() - t0

    def calibrated(self, fn):
        """Call fn and return its result with the scale for the time it
        took: REFERENCE_S over the mean of the reference work's times right
        before and right after the call.  One reference run sits between
        two consecutive calls and serves both."""
        if not self.reference_times:
            self.reference_times.append(calibrate.reference_time())
        before = self.reference_times[-1]
        result = fn()
        self.reference_times.append(calibrate.reference_time())
        after = self.reference_times[-1]
        return result, calibrate.REFERENCE_S * 2 / (before + after)

    def run_cli(self, stem):
        report = self.workdir / f"{stem}.json"
        report.unlink(missing_ok=True)
        job = spawn([sys.executable, "-m", "loopcoh.cli"]
                    + self.cli_args(report), self.workdir, self.env, stem)
        return job

    def gate(self, job, stem):
        """Why a finished job failed the correctness gate, or None."""
        if "Traceback (most recent call last)" in job.stderr:
            return "traceback: " + job.stderr.strip().splitlines()[-1]
        if job.code != 0:
            return f"exit code {job.code}"
        try:
            data = (self.workdir / f"{stem}.json").read_bytes()
            report = json.loads(data)
        except (OSError, ValueError) as exc:
            return f"no readable report: {exc}"
        why = self.workload.check(report, self.oracle)
        if why:
            return why
        if self.first_report is None:
            self.first_report = data
        elif data != self.first_report:
            return "report bytes differ from the first report of the run"
        return None

    def gated(self, job, stem):
        self.attempted += 1
        why = self.gate(job, stem)
        if why is not None:
            self.failures.append(f"{stem}: {why}")
        return why is None

    def job(self):
        """One timed, gated job."""
        job, scale = self.calibrated(lambda: self.run_cli("job"))
        job.scale = scale
        job.ok = self.gated(job, "job")
        self.jobs.append(job)
        return job

    def traced(self):
        """One job under the tracer, gated like the others."""
        trace_path = self.workdir / "trace.json"
        trace_path.unlink(missing_ok=True)
        report = self.workdir / "traced.json"
        report.unlink(missing_ok=True)
        job, scale = self.calibrated(lambda: spawn(
            [sys.executable, str(HERE / "traced_job.py"), str(trace_path)]
            + self.cli_args(report), self.workdir, self.env, "traced"))
        job.scale = scale
        ok = self.gated(job, "traced")
        trace = None
        if ok:
            trace = json.loads(trace_path.read_text(encoding="utf-8"))
        return job, trace

    def cache_bytes(self):
        if self.cache is None or not self.cache.exists():
            return 0
        return sum(p.stat().st_size for p in self.cache.rglob("*")
                   if p.is_file())


def run_window(bench, seconds):
    """Closed loop, one client: run jobs back to back and stop once the
    next would end mostly past the window.  Returns the loop's wall time."""
    t0 = time.perf_counter()
    while True:
        bench.job()
        elapsed = time.perf_counter() - t0
        typical = statistics.median(j.wall for j in bench.jobs)
        if elapsed + typical / 2 >= seconds:
            return elapsed


def self_times(trace):
    """Seconds of self time per span name, after checking that spans
    nest and that no self time is negative; also the root's duration."""
    names, parents = trace["names"], trace["parents"]
    starts, ends = trace["starts"], trace["ends"]
    if not names or parents[0] != -1 or -1 in parents[1:]:
        raise TraceError("trace must have exactly one root span")
    child = [0] * len(names)
    for i, p in enumerate(parents):
        if ends[i] is None or ends[i] < starts[i]:
            raise TraceError(f"span {names[i]} has no valid end")
        if p >= 0:
            if not (starts[p] <= starts[i] and ends[i] <= ends[p]):
                raise TraceError(f"span {names[i]} is not inside "
                                 f"its parent {names[p]}")
            child[p] += ends[i] - starts[i]
    out = {}
    for i, name in enumerate(names):
        own = ends[i] - starts[i] - child[i]
        if own < 0:
            raise TraceError(f"span {name} has negative self time")
        out[name] = out.get(name, 0) + own
    return ({k: v / 1e9 for k, v in out.items()},
            (ends[0] - starts[0]) / 1e9)


# per-layer time metric -> the spans whose self times it sums
SPAN_METRICS = {
    "cli.cache_load_s": ["cli.cache_load"],
    "config.parse_s": ["config.parse"],
    "bar.basis_s": ["bar.basis"],
    "bar.differential_s": ["bar.differential"],
    "bar.product_s": ["bar.product"],
    "bar.chain_map_s": ["bar.chain_map"],
    "homology.assembly_s": ["homology.assembly"],
    "homology.ringtable_s": ["homology.ringtable", "homology.reduce"],
    "linalg.rank_s": ["linalg.rank"],
    "linalg.smith_s": ["linalg.smith"],
    "linalg.solve_s": ["linalg.solve"],
    "resolution.letters_s": ["resolution.letters"],
    "resolution.basis_s": ["resolution.basis"],
    "resolution.d_s": ["resolution.d"],
    "resolution.contraction_s": ["resolution.contraction"],
    "resolution.hexagon_s": ["resolution.hexagon"],
    "hirsch_ops.eval_s": ["hirsch_ops.eval"],
    "hirsch_ops.relations_s": ["hirsch_ops.relations"],
}

# per-layer count metrics taken as counted by the tracer
COUNT_METRICS = [
    "bar.basis_words", "bar.differential_calls", "bar.product_calls",
    "polynomial.mul_calls", "homology.blocks", "homology.block_max_dim",
    "homology.block_nnz", "homology.reduce_calls", "linalg.rank_calls",
    "linalg.smith_calls", "linalg.solve_calls", "resolution.letters",
    "resolution.basis_words", "resolution.d_calls",
    "resolution.contraction_iters", "hirsch_ops.eval_calls",
]


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(bench, traced_job, trace):
    own, root = self_times(trace)
    gap = traced_job.wall - sum(own.values())
    if not 0 <= gap <= TRACE_GAP_TOLERANCE_S:
        raise TraceError(f"self times sum to {sum(own.values()):.3f} s "
                         f"of a {traced_job.wall:.3f} s traced job")
    counts = trace["counts"]
    jobs = bench.jobs
    m = {name: sum(own.get(s, 0.0) for s in spans)
         for name, spans in SPAN_METRICS.items()}
    m.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    m["cli.cpu_s"] = statistics.median(j.cpu for j in jobs)
    m["cli.wait_s"] = statistics.median(j.wall - j.cpu for j in jobs)
    m["cli.cache_bytes"] = bench.cache_bytes()
    m["host.reference_s"] = statistics.median(bench.reference_times)
    m["linalg.smith_per_block"] = ratio(counts.get("linalg.smith_calls", 0),
                                        counts.get("homology.z_blocks", 0))
    m["linalg.solve_per_degree"] = ratio(
        counts.get("linalg.solve_calls", 0), trace["degrees_reduced"])
    m["trace.overhead_s"] = (traced_job.scaled
                             - statistics.median(j.scaled for j in jobs))
    return m, root


def tail_text(walls):
    """The highest percentile with at least ten samples beyond it."""
    n = len(walls)
    if n < 11:
        return f"n/a ({n} samples; needs 11)"
    value = sorted(walls)[n - 11]
    return f"p{100 * (n - 10) / n:.0f} {value:.4f} s ({n} samples)"


def run(workload, seed, seconds, trace, workdir, max_degree=None,
        say=print):
    """One benchmark run; returns the result object of the last line."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if trace else "end_to_end"]
    bench = Bench(workload, seed, workdir, max_degree)
    # warm-up: the first run of the reference work in a process is slower
    calibrate.reference_time()
    t0 = time.perf_counter()
    while (len(bench.setups) < SETUP_REPEATS
           or time.perf_counter() - t0 < SETUP_SECONDS):
        bench.setups.append(bench.calibrated(bench.setup))
    say(f"config: {json.dumps(bench.doc, sort_keys=True)}")
    loop_wall = run_window(bench, seconds)
    jobs = bench.jobs
    scaled = [j.scaled for j in jobs]
    job_s = statistics.median(scaled)
    reference = statistics.median(bench.reference_times)
    say(f"{len(jobs)} jobs in {loop_wall:.2f} s; scaled job time median "
        f"{job_s:.4f} s, tail {tail_text(scaled)}")
    say(f"raw job wall median {statistics.median(j.wall for j in jobs):.4f}"
        f" s; reference work median {reference:.4f} s, scaled to "
        f"{calibrate.REFERENCE_S} s")
    if trace:
        traced_job, spans = bench.traced()
        values = {}
        if spans is not None:
            try:
                values, root = layer_metrics(bench, traced_job, spans)
                say(f"traced job {traced_job.wall:.4f} s, root span "
                    f"{root:.4f} s")
            except TraceError as exc:
                bench.failures.append(f"trace: {exc}")
    else:
        values = {
            "setup_s": statistics.median(t * k for t, k in bench.setups),
            "job_s": job_s,
            # one client's throughput at the median job time, counting
            # only the jobs that passed the gate
            "jobs_per_min": (60.0 / job_s
                             * sum(j.ok for j in jobs) / len(jobs)),
            "peak_rss_mb": statistics.median(j.rss_mb for j in jobs),
        }
    failed = len(bench.failures)
    for why in bench.failures:
        say(f"FAILED {why}")
    say(f"failed_frac {failed / bench.attempted} "
        f"({failed} of {bench.attempted} jobs)")
    correct = failed == 0 and all(m["name"] in values for m in wanted)
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]} for m in wanted}
    for name, v in metrics.items():
        say(f"  {name} {v['value']} {v['unit']}")
    return {"correct": correct, "attempted": bench.attempted,
            "failed": failed, "metrics": metrics}


def build():
    """Byte-compile the program, so that no timed process pays for it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   check=True, stdout=subprocess.DEVNULL)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running job is killed and reaped and
    # the run directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "loopcoh" / "cli.py").is_file():
        print(f"loopcoh sources not found under {SRC}", file=sys.stderr)
        return 2
    build()
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
