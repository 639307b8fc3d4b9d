"""ddse benchmark: end-to-end timings of the CLI and a per-layer trace.

Run from the root of a ddse checkout:

    python3 perfbench/run.py --workload estimate-w1 --seed 1 --seconds 42 --trace 0

Each repetition runs the workload's CLI calls through ``ddse.cli.main`` in a
process of its own, forked from a server (perfbench/child.py) that has
imported ddse from ``src``; the repetitions run one at a time.  ``setup_s``
is measured on fresh interpreters: the server's own start and set-up-only
processes spread over the run.  Repetitions start while the next one is
expected to end within ``--seconds`` of the start, and at least three run.
Every output is checked against an oracle the benchmark derives itself
(workloads.py, oracles.py); a call fails on an unexpected exit code, an
uncaught exception or an oracle mismatch.  A workload may also name calls
that run once, before the repetitions, and are checked but not timed.

``--trace 0`` reports the end-to-end metrics, from untraced repetitions
only.  ``wall_min_s`` sums, over the workload's calls, each call's fastest
time across the repetitions.  On a shared host a core switches between a
fast and a slow state from one second to the next, so the repetition times of one
run are spread between two levels and their median jumps between them from
run to run; the fastest repetition is steadier.  Both still follow the
host's slower drift over minutes.  ``setup_s`` is the median of the set-up
samples; ``peak_rss_mb`` the median peak RSS of the forked repetitions,
which counts the server's private pages but not shared-library pages a
repetition never touches.

``--trace 1`` alternates untraced and traced repetitions; the traced ones
wrap the layer functions (tracer.py) and report self times and counts, and
the difference in wall time between the two is the tracing overhead.

The next-to-last stdout line is a JSON ``info`` object (sample counts,
environment, computed sizes, failures); the last is the result:
``{"correct", "attempted", "failed", "metrics"}``.  Timings and memory cover
only the benchmark's own processes; nothing machine-wide is traced.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

WORK_ROOT = ".perfbench_work"
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
# Set-up samples per untraced run, spread evenly over it so that load from
# other tenants, which changes over seconds, evens out.
SETUPS = 6
MIN_REPS = 3
CHILD_TIMEOUT_S = 120
# Top-level spans must cover this share of every traced call's wall time.
MIN_COVERAGE = 0.95

END_TO_END = {"setup_s": "s", "wall_min_s": "s", "peak_rss_mb": "MB"}

_SELF_TIMES = (
    "cli.main", "cli.write_atomic",
    "integrand.quad_var", "integrand.quad_var_between", "integrand.novikov_check",
    "paths.sample_brownian", "paths.ito_integral", "paths.stoch_exp_exact",
    "paths.write_csv", "paths.write_binary", "paths.increments_checksum",
    "estimators.estimate_p_moment", "estimators.jackknife_mean_se", "estimators.det_sum",
    "estimators.martingale_increment_test", "estimators.submartingale_scan",
    "estimators.estimate_mean_z",
    "wick.enumerate_pairings", "wick.mgf_truncated", "wick.check_log_relation",
    "integrand", "paths", "estimators", "wick", "cli",
)
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in _SELF_TIMES},
    "paths.bundle_bytes_computed": "bytes",
    "paths.normals_drawn": "count",
    "paths.write_csv.bytes": "bytes",
    "paths.write_binary.bytes": "bytes",
    "estimators.jackknife_mean_se.calls": "count",
    "estimators.jackknife_mean_se.values_reduced": "count",
    "estimators.checks": "count",
    "estimators.checks_failed": "count",
    "wick.enumerate_pairings.calls": "count",
    "wick.pairings_built": "count",
    "integrand.quad_var.calls": "count",
    "cli.write_atomic.bytes": "bytes",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.top_level_coverage": "ratio",
    "trace.spans": "count",
}


class BenchError(RuntimeError):
    """The run cannot produce a valid result."""


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read().strip()


def environment() -> dict:
    env = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": None, "caches": {}}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None)
    except OSError:
        pass
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (_read(os.path.join(index, f)) for f in ("level", "type", "size"))
        except OSError:
            continue
        env["caches"][f"L{level}" + ("" if kind == "Unified" else kind[0].lower())] = size
    return env


class Runner:
    """Starts the benchmark's processes one at a time and collects their results.

    ``spawn`` runs a plan in a fresh interpreter; ``fork`` runs it in a
    process forked from the server that ``start_server`` starts.
    """

    def __init__(self, work: str):
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath("src"), os.environ.get("PYTHONPATH")) if p)
        self.count = 0
        self.server = None

    def _plan(self, calls, trace: bool, versions: bool):
        k = self.count
        self.count += 1
        plan = os.path.join(self.work, f"plan-{k}.json")
        with open(plan, "w") as fh:
            json.dump({"calls": calls, "trace": trace, "versions": versions,
                       "spans": os.path.join(self.work, f"spans-{k}.json")}, fh)
        return k, plan, os.path.join(self.work, f"result-{k}.json")

    @staticmethod
    def _load(result: str) -> dict:
        with open(result) as fh:
            doc = json.load(fh)
        doc["wall_s"] = sum(c["end_ns"] - c["start_ns"] for c in doc["calls"]) / 1e9
        return doc

    def spawn(self, calls, trace: bool, versions: bool = False):
        k, plan, result = self._plan(calls, trace, versions)
        started = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run([sys.executable, CHILD, plan, result], env=self.env,
                                  stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: repetition {k} killed after {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"perfbench: repetition {k} exited {proc.returncode}", file=sys.stderr)
            return None
        doc = self._load(result)
        doc["setup_s"] = doc["ready"] - started
        return doc

    def _reply(self):
        readable, _, _ = select.select([self.server.stdout], [], [], CHILD_TIMEOUT_S)
        return self.server.stdout.readline().strip() if readable else ""

    def start_server(self) -> float:
        """Starts the fork server and returns its set-up time."""
        started = time.clock_gettime(time.CLOCK_MONOTONIC)
        self.server = subprocess.Popen([sys.executable, CHILD, "--serve"], env=self.env,
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                       text=True, start_new_session=True)
        ready = self._reply()
        if not ready:
            raise BenchError("the fork server did not start")
        return float(ready) - started

    def fork(self, calls, trace: bool):
        k, plan, result = self._plan(calls, trace, False)
        self.server.stdin.write(f"{plan}\t{result}\n")
        self.server.stdin.flush()
        code = self._reply()
        if not code:
            raise BenchError(f"repetition {k} did not end within {CHILD_TIMEOUT_S} s")
        if code != "0":
            print(f"perfbench: repetition {k} exited {code}", file=sys.stderr)
            return None
        return self._load(result)

    def close(self):
        """Stops the server and any repetition still running under it."""
        if self.server is None:
            return
        server, self.server = self.server, None
        try:
            server.stdin.close()
            server.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            # the server and its forked repetition share a process group
            os.killpg(server.pid, signal.SIGKILL)
            server.wait()
            give_up = time.monotonic() + 10
            while time.monotonic() < give_up:
                try:
                    os.killpg(server.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
        server.stdout.close()


def fastest_calls_s(reps: list) -> float:
    """Sum over the calls of each call's fastest time across ``reps``."""
    per_call = zip(*([c["end_ns"] - c["start_ns"] for c in r["calls"]] for r in reps))
    return sum(min(times) for times in per_call) / 1e9


def _failures(wl, rep, n_calls: int) -> list[str]:
    """Checks one repetition's outputs; one entry per failed call."""
    if rep is None:
        return ["repetition process failed"] * n_calls
    try:
        problems = wl.check(rep["calls"])
    except Exception as exc:  # malformed output must count, not end the run
        problems = [[f"oracle raised {type(exc).__name__}: {exc}"]] * n_calls
    # unlink outputs before the next repetition, so that their writeback
    # does not run during it
    for path in wl.outputs:
        shutil.rmtree(path, ignore_errors=True)
    found = []
    for call, problem in zip(rep["calls"], problems):
        if call["error"]:
            problem = [call["error"], *problem]
        if problem:
            found.append(f"{call['argv'][0]}: {'; '.join(problem)}")
    return found


def _summary(values) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values)}


def run(args) -> tuple[dict, dict]:
    if not os.path.isfile(os.path.join("src", "ddse", "__init__.py")):
        raise BenchError("src/ddse not found: run from the root of a ddse checkout")
    wl = workloads.make_workloads()[args.workload]
    work = os.path.join(WORK_ROOT, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl.prepare(args.seed, work)
    runner = Runner(work)
    try:
        return measure(args, wl, runner)
    finally:
        runner.close()


def measure(args, wl, runner: Runner) -> tuple[dict, dict]:
    begun = time.monotonic()
    deadline = begun + args.seconds
    # warm-up: writes bytecode and fills the page cache, which users do not
    # pay on every run; not counted
    warm = runner.spawn([], False, versions=True)
    if warm is None:
        raise BenchError("a set-up-only process failed")
    setups = [runner.start_server()]
    failures = []
    if wl.untimed:
        failures += _failures(wl, runner.fork(wl.untimed, False), len(wl.untimed))
    attempted = len(wl.untimed)
    plain, traced, cycles = [], [], []
    while True:
        done = len(plain) + len(traced)
        if done >= MIN_REPS and time.monotonic() + max(cycles) > deadline:
            break
        cycle_start = time.monotonic()
        tracing = bool(args.trace) and done % 2 == 1
        if not args.trace and len(setups) <= SETUPS * (cycle_start - begun) / args.seconds:
            sample = runner.spawn([], False)
            if sample is None:
                raise BenchError("a set-up-only process failed")
            setups.append(sample["setup_s"])
        rep = runner.fork(wl.calls, tracing)
        attempted += len(wl.calls)
        failures += _failures(wl, rep, len(wl.calls))
        if rep is None:
            if tracing:
                raise BenchError("a traced repetition failed; see the error above")
            cycles.append(time.monotonic() - cycle_start)
            continue
        if tracing:
            low = min(rep["coverage"])
            if low < MIN_COVERAGE:
                raise BenchError(f"top-level spans cover only {low:.3f} of a traced call")
            traced.append(rep)
        else:
            plain.append(rep)
        cycles.append(time.monotonic() - cycle_start)
    if not plain:
        raise BenchError("no untraced repetition completed")
    failed = len(failures)

    walls = [r["wall_s"] for r in plain]
    rss = [r["peak_rss_kb"] * 1024 / 1e6 for r in plain]
    if args.trace:
        metrics = layer_metrics(wl, traced, statistics.median(walls))
    else:
        metrics = {"setup_s": statistics.median(setups), "wall_min_s": fastest_calls_s(plain),
                   "peak_rss_mb": statistics.median(rss)}
    units = PER_LAYER if args.trace else END_TO_END

    info = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "path_seed": getattr(wl, "path_seed", None),
        "default_seed": workloads.DEFAULT_SEED,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "calls": wl.calls,
        "untimed_calls": wl.untimed,
        "samples": {"setup_s": _summary(setups), "wall_s": _summary(walls),
                    "wall_min_s": fastest_calls_s(plain),
                    "peak_rss_mb": _summary(rss), "traced_repetitions": len(traced)},
        "error_rate": failed / attempted,
        "failures": failures[:10],
        "computed_bundle_bytes": wl.computed_bytes,
        "environment": {**environment(), **warm["versions"]},
        "scope": "timings, RSS and spans cover only this benchmark's own processes;"
                 " nothing machine-wide was traced",
    }
    if wl.untimed:
        info["report_sha256"] = wl.digests[-1] if wl.digests else None
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return info, result


def layer_metrics(wl, traced: list, untraced_wall: float) -> dict:
    if not traced:
        raise BenchError("no traced repetition completed")
    metrics = {name: statistics.median(r["layers"].get(name, 0) for r in traced)
               for name in PER_LAYER}
    verdicts = getattr(wl, "verdicts", [])
    metrics["estimators.checks"] = len(verdicts)
    metrics["estimators.checks_failed"] = verdicts.count(False)
    metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    metrics["trace.top_level_coverage"] = min(min(r["coverage"]) for r in traced)
    metrics["trace.spans"] = statistics.median(r["spans"] for r in traced)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.make_workloads()))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        info, result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
