"""bridgegp benchmark: end-to-end CLI rounds and a traced per-layer pass.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-light --seed 1 --seconds 44 --trace 0

The workload seed generates every config and data file into a scratch
directory inside the checkout (`.perfbench_work/`, removed afterwards);
the program sees only those files.

--trace 0  Closed loop, one client: this process runs one job
           at a time, each a fresh `python -m bridgegp.cli ...` subprocess
           with PYTHONPATH=src and the BLAS thread count the environment
           gives.  A round is one `import bridgegp` probe plus each job of
           the workload once.  After two rounds, another starts only if it
           would end within --seconds at the mean pace so far.
           Prints wall_s (median round wall time), cpu_s (median summed
           child user+sys from wait4), setup_s and setup_wall_s (median
           CPU and wall time of the import probe), peak_rss_mb (median of
           the largest child max-RSS per round) and failed_ratio with its
           counts; the result gates cpu_s, setup_s and peak_rss_mb.
--trace 1  The same jobs in-process through `bridgegp.cli.main(argv)`,
           once untraced and once with every public function wrapped
           (see inproc.py), plus one `-X importtime` probe; reports the
           per-layer metrics of layers.py and the tracing overhead.  For
           the jobs of grid-2d3d and calibrate-1d (also part of compute-mix)
           it also reports, without gating, a single-threaded pass
           (OPENBLAS_NUM_THREADS=1 on that child only).

Every artifact is checked by oracles.py; a nonzero exit, a timeout or a
failed check counts the job as failed.  The last line of stdout is the
JSON result; the lines before it are the human-readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

# Jobs and probes get the environment as it came; this process runs its
# own BLAS single-threaded so it never competes with a job for a core.
CHILD_ENV = dict(os.environ)
CHILD_ENV["PYTHONPATH"] = SRC + (os.pathsep + os.environ["PYTHONPATH"]
                                 if os.environ.get("PYTHONPATH") else "")
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import envinfo  # noqa: E402
import layers  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

JOB_TIMEOUT_S = 60.0
# No round may be planned to end later than this, so a run ends within 180 s.
ROUND_DEADLINE_S = 100.0
# Every run measures at least two rounds, and setup_s is the median of at
# least three import probes.
MIN_ROUNDS = 2
MIN_SETUP_PROBES = 3
# Jobs of these workloads also get a single-threaded BLAS pass when traced.
SINGLE_THREAD_PREFIXES = ("grid-2d3d/", "calibrate-1d/")

# Every end-to-end figure the report prints, with its unit.  setup_s is
# the import probe's CPU time (user+sys), setup_wall_s its wall time.
REPORTED_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "setup_wall_s": "s",
                  "peak_rss_mb": "MB"}
# The ones BENCHMARK.json gates.  Wall times are printed, not gated: on the
# shared VM, host steal moved the cli-light wall_s median by 27% between
# two sets of ten runs while cpu_s moved by 5%.
GATED = ("cpu_s", "setup_s", "peak_rss_mb")


class Child(NamedTuple):
    """Outcome of one subprocess: exit code, wall, CPU and max-RSS."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool


def run_child(argv: list[str], env: dict, log_path: str,
              timeout: float = JOB_TIMEOUT_S) -> Child:
    """Run argv to completion; rusage comes from wait4 on the child."""
    killed = threading.Event()
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=log)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, killed.is_set())


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Bench:
    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.workdir = workdir
        self.jobs = workloads.generate(workload, seed, workdir)
        self.oracle = oracles.Oracle()
        self.log = os.path.join(workdir, "children.log")
        self.failures: list[str] = []
        self.attempted = 0

    def check(self, jobs: list[dict], codes: dict[str, int]) -> int:
        """Oracle-check every job of one pass; returns the failure count."""
        failed = 0
        for job in jobs:
            self.attempted += 1
            reason = None
            if codes[job["id"]] != 0:
                reason = f"exit code {codes[job['id']]}"
            else:
                try:
                    self.oracle.check(job)
                except (oracles.OracleError, OSError, ValueError, KeyError, IndexError) as exc:
                    reason = f"oracle: {exc}"
            if reason is not None:
                failed += 1
                self.failures.append(f"{job['id']}: {reason}")
        for job in jobs:
            if os.path.exists(job["out"]):
                os.remove(job["out"])
        return failed

    # -- untraced end-to-end rounds ----------------------------------------

    def setup_probe(self) -> Child:
        """A fresh interpreter running `import bridgegp`."""
        probe = run_child([sys.executable, "-c", "import bridgegp"], CHILD_ENV, self.log)
        if probe.code != 0:
            raise RuntimeError("`import bridgegp` failed in a fresh interpreter")
        return probe

    def cli_round(self) -> dict:
        setup = self.setup_probe()
        children = {}
        for job in self.jobs:
            children[job["id"]] = run_child(
                [sys.executable, "-m", "bridgegp.cli", *job["argv"]], CHILD_ENV, self.log)
        codes = {jid: (-9 if c.timed_out else c.code) for jid, c in children.items()}
        failed = self.check(self.jobs, codes)
        return {
            "wall_s": sum(c.wall_s for c in children.values()),
            "cpu_s": sum(c.cpu_s for c in children.values()),
            "peak_rss_mb": max(c.rss_mb for c in children.values()),
            "setup": setup,
            "failed": failed,
            "jobs": {jid: [c.wall_s, c.cpu_s, c.rss_mb] for jid, c in children.items()},
        }

    def end_to_end(self, seconds: float) -> tuple[dict, list[str]]:
        start = time.perf_counter()
        rounds = [self.cli_round() for _ in range(MIN_ROUNDS)]
        # Start another round only if, at the mean pace so far, it ends
        # within `seconds`.
        while True:
            elapsed = time.perf_counter() - start
            if elapsed * (len(rounds) + 1) / len(rounds) > min(seconds, ROUND_DEADLINE_S):
                break
            rounds.append(self.cli_round())
        probes = [r["setup"] for r in rounds]
        while len(probes) < MIN_SETUP_PROBES:
            probes.append(self.setup_probe())
        samples = {name: [r[name] for r in rounds]
                   for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        samples["setup_s"] = [p.cpu_s for p in probes]
        samples["setup_wall_s"] = [p.wall_s for p in probes]
        metrics = {name: statistics.median(values) for name, values in samples.items()}
        lines = [f"closed loop, 1 client: {len(rounds)} round(s) x {len(self.jobs)} jobs,"
                 f" {len(probes)} import probes"]
        for name, unit in REPORTED_UNITS.items():
            q1, q3 = quartiles(samples[name])
            lines.append(f"{name:<13}{metrics[name]:12.4f} {unit:<3} "
                         f"(q1 {q1:.4f}, q3 {q3:.4f}, n={len(samples[name])})")
        failed = sum(r["failed"] for r in rounds)
        lines.append(f"{'failed_ratio':<13}{failed / self.attempted:12.4f} 1   "
                     f"({failed} failed / {self.attempted} attempted)")
        for job in self.jobs:
            walls = [r["jobs"][job["id"]][0] for r in rounds]
            rss = max(r["jobs"][job["id"]][2] for r in rounds)
            lines.append(f"  {job['id']:<32} wall {statistics.median(walls):8.3f} s"
                         f"  max-RSS {rss:8.1f} MB")
        return metrics, lines

    # -- traced per-layer pass ---------------------------------------------

    def inproc(self, tag: str, env: dict, traced: bool, jobs=None) -> dict:
        jobs = self.jobs if jobs is None else jobs
        jobs_path = os.path.join(self.workdir, f"{tag}.jobs.json")
        with open(jobs_path, "w", encoding="utf-8") as fh:
            json.dump(jobs, fh)
        out = os.path.join(self.workdir, f"{tag}.json")
        argv = [sys.executable, os.path.join(HERE, "inproc.py"), jobs_path, out]
        child = run_child(argv + (["--trace"] if traced else []), env, self.log,
                          timeout=3 * JOB_TIMEOUT_S)
        if child.code != 0:
            raise RuntimeError(f"in-process {tag} pass exited with {child.code}")
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        self.check(jobs, {r["id"]: r["code"] for r in result["jobs"]})
        result["wall_s"] = sum(r["wall_s"] for r in result["jobs"])
        return result

    def traced(self) -> tuple[dict, list[str]]:
        probe = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bridgegp"],
                               env=CHILD_ENV, cwd=ROOT, capture_output=True, text=True,
                               timeout=JOB_TIMEOUT_S, check=True)
        import_cum = layers.parse_importtime(probe.stderr)
        plain = self.inproc("plain", CHILD_ENV, traced=False)
        traced = self.inproc("traced", CHILD_ENV, traced=True)
        overhead = traced["wall_s"] - plain["wall_s"]
        metrics = layers.per_layer_metrics(traced["spans"], traced["counts"], import_cum,
                                           overhead)
        lines = [f"in-process pass: untraced {plain['wall_s']:.4f} s, traced "
                 f"{traced['wall_s']:.4f} s, {len(traced['spans'])} spans"]
        lines.append("largest self times (import = one `import bridgegp`):")
        lines += [f"  {name:<40}{value:10.4f} s"
                  for name, value in layers.ranking(traced["spans"], import_cum)]
        subset = [job for job in self.jobs if job["id"].startswith(SINGLE_THREAD_PREFIXES)]
        if subset:
            single = self.inproc("single", dict(CHILD_ENV, OPENBLAS_NUM_THREADS="1"),
                                 traced=False, jobs=subset)
            default = sum(r["wall_s"] for r in plain["jobs"]
                          if r["id"].startswith(SINGLE_THREAD_PREFIXES))
            lines.append(f"single-threaded BLAS pass over {len(subset)} jobs (reported, "
                         f"not gated): {single['wall_s']:.4f} s vs {default:.4f} s with "
                         f"default threads, ratio {single['wall_s'] / default:.3f}")
        return metrics, lines


def environment() -> dict:
    record = envinfo.host()
    probe = subprocess.run([sys.executable, os.path.join(HERE, "envinfo.py")],
                           env=CHILD_ENV, cwd=ROOT, capture_output=True, text=True,
                           timeout=JOB_TIMEOUT_S, check=True)
    record.update(json.loads(probe.stdout))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bridgegp", "cli.py")):
        print(f"no bridgegp sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    base = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(base, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        env = environment()
        import bridgegp  # noqa: F401  (the oracle's route; also warms .pyc files)

        bench = Bench(args.workload, args.seed, workdir)
        if args.trace:
            metrics, lines = bench.traced()
            units = layers.metric_units()
        else:
            metrics, lines = bench.end_to_end(args.seconds)
            units = {name: REPORTED_UNITS[name] for name in GATED}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    failed = len(bench.failures)
    print(f"bridgegp benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    for line in lines:
        print(line)
    for failure in bench.failures:
        print(f"FAILED {failure}")
    print("env: " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
