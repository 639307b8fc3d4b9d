"""One repetition of a workload, in a fresh process.

Usage: ``python3 child.py PLAN RESULT`` runs one plan in this interpreter;
``python3 child.py --serve`` imports ddse once, prints the monotonic time at
which that finished, then reads ``PLAN<TAB>RESULT`` lines on stdin and runs
each plan in a process forked for it, answering each line with the forked
process's exit code.  A forked process starts in the state a CLI process is
in once ``import ddse.cli`` has finished, so repetitions do not pay the
interpreter start-up (``setup_s`` measures that from fresh interpreters);
whatever a call imports or builds lazily it still pays itself.

PLAN is a JSON file written by run.py: ``{"calls": [argv, ...], "trace":
bool, "spans": path, "versions": bool}``; with no calls the process only
measures set-up.  RESULT receives the monotonic time at which ``import
ddse.cli`` finished, each call's exit code, stdout and wall time, and the
process's peak RSS.  The caller puts ``src`` on PYTHONPATH.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import ddse.cli

READY = time.clock_gettime(time.CLOCK_MONOTONIC)


def run_call(main, argv) -> dict:
    out = io.StringIO()
    error = None
    with contextlib.redirect_stdout(out):
        start = time.perf_counter_ns()
        try:
            code = main(argv)
        except Exception as exc:
            code = None
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        end = time.perf_counter_ns()
    return {"argv": argv, "exit": code, "error": error, "stdout": out.getvalue(),
            "start_ns": start, "end_ns": end}


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(ddse.__file__).startswith(src + os.sep):
        print(f"ddse was imported from {ddse.__file__}, not from {src}", file=sys.stderr)
        return 3
    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(ddse)
    outcomes = [run_call(ddse.cli.main, argv) for argv in plan["calls"]]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"ready": READY, "calls": outcomes, "peak_rss_kb": peak_kb}
    if plan.get("versions"):
        import numpy
        import scipy

        result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                              "scipy": scipy.__version__,
                              "ddse": getattr(ddse, "__version__", None)}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["coverage"] = [
            tracer.top_level_ns(c["start_ns"], c["end_ns"]) / max(c["end_ns"] - c["start_ns"], 1)
            for c in outcomes
        ]
        result["spans"] = len(tracer.spans)
        with open(plan["spans"], "w") as fh:
            json.dump([s._asdict() for s in tracer.spans], fh)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


def serve() -> int:
    print(READY, flush=True)
    while line := sys.stdin.readline():
        plan_path, result_path = line.rstrip("\n").split("\t")
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.dup2(2, 1)  # stdout carries the replies to run.py
                code = main(plan_path, result_path)
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stderr.flush()
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        print(os.waitstatus_to_exitcode(status), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(serve() if sys.argv[1:] == ["--serve"] else main(*sys.argv[1:]))
