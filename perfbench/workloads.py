"""The benchmark's workloads: the CLI calls each one makes and their oracles.

``--seed`` derives every input: the 64-bit path seed handed to the sampler
and the values of the 257-knot tabulated integrand.  The program only ever
sees the config files written here.  Everything in this module is standard
library, so checking outputs never goes through the code under test.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import oracles

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 1
#: Kept out of all tuning; a claimed gain must also hold on this seed.
HELD_OUT_SEED = 7919

INTEGRAND = {"kind": "exponential_decay", "params": [1.0, 0.5]}
HORIZON = 1.0
STEPS = 32
P_VALUES = ("2", "3")
# Workload sizes (TAB_KNOTS here, n_paths and the wick order below) keep each
# repetition near a second, so that a run holds many of them.
TAB_KNOTS = 257

# The estimate report embeds config.output_dir, so the calls with one and
# two workers must write to this same string for their digests to match.
ESTIMATE_OUT = ".perfbench_work/estimate-out"


def derived_inputs(seed: int):
    """(path seed, tabulated knots) for a workload seed."""
    rng = random.Random(seed)
    path_seed = rng.getrandbits(64)
    knots = [[k / (TAB_KNOTS - 1), 0.5 + rng.random()] for k in range(TAB_KNOTS)]
    return path_seed, knots


def _write_config(work: str, name: str, doc: dict) -> str:
    path = os.path.join(work, name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _bundle_bytes(n_paths: int) -> int:
    # increments (n x steps) plus ito and z (n x nodes), float64
    return 8 * n_paths * (STEPS + 2 * (STEPS + 1))


class Estimate:
    """``estimate`` with one worker, timed; with two workers once per run, untimed.

    The two-worker call switches on the thread-pool branches of sampling and
    ``det_sum``; its report must be byte-identical to the one-worker report.
    It is not timed: its two threads fill both cores of the small hosts this
    benchmark runs on, and the time it would take is worth more as longer
    runs of the other workloads.
    """

    name = "estimate-w1"
    why = ("sampling (paths) and verdicts (estimators) on three full 250k x 33 matrices"
           " (0.2 GB, twice the L3), a streaming pipeline's target; an untimed --workers 2"
           " call must give the same report")
    n_paths = 250_000

    def prepare(self, seed: int, work: str):
        self.path_seed, _ = derived_inputs(seed)
        config = {
            "psi": INTEGRAND,
            "horizon": HORIZON,
            "steps": STEPS,
            "n_paths": self.n_paths,
            "seed": self.path_seed,
            "scheme": "exact",
        }
        config_path = _write_config(work, "estimate.json", config)
        argv = ["estimate", "--config", config_path, "--out", ESTIMATE_OUT]
        for p in P_VALUES:
            argv += ["--p", p]
        # checked first, so every timed report is compared with this one
        self.untimed = [argv + ["--workers", "2"]]
        self.calls = [argv + ["--workers", "1"]]
        self.outputs = [ESTIMATE_OUT]
        self.digests = []
        self.verdicts = []  # of the last correct report
        self.computed_bytes = _bundle_bytes(self.n_paths)

    def check(self, outcomes) -> list[list[str]]:
        (outcome,) = outcomes
        problems = []
        if outcome["exit"] not in (0, 1):
            return [[f"estimate exited {outcome['exit']}, expected 0 or 1"]]
        with open(os.path.join(ESTIMATE_OUT, "report.json"), "rb") as fh:
            blob = fh.read()
        digest = hashlib.sha256(blob).hexdigest()
        problems += oracles.check_estimate_report(
            blob.decode(), outcome["exit"], INTEGRAND["params"], HORIZON, STEPS,
            [float(p) for p in P_VALUES],
        )
        if self.digests and digest != self.digests[0]:
            problems.append("report.json differs from the first call's (--workers 2)")
        self.digests.append(digest)
        if not problems:
            self.verdicts = oracles.estimate_verdicts(blob.decode())
        return [problems]


class Simulate:
    name = "simulate-csv"
    n_paths = 5_000
    why = ("write side of paths: a per-row Python CSV loop (11.8 MB) plus a 3.9 MB binary;"
           " sampling is ~1% of it, so a sampler change should not move it")

    def prepare(self, seed: int, work: str):
        self.path_seed, _ = derived_inputs(seed)
        config = {
            "psi": INTEGRAND,
            "horizon": HORIZON,
            "steps": STEPS,
            "n_paths": self.n_paths,
            "seed": self.path_seed,
            "scheme": "exact",
        }
        self.untimed = []
        self.out = os.path.join(work, "out")
        self.calls = [["simulate", "--config", _write_config(work, "simulate.json", config),
                       "--out", self.out]]
        self.outputs = [self.out]
        self.digests = []
        self.computed_bytes = _bundle_bytes(self.n_paths)

    def check(self, outcomes) -> list[list[str]]:
        (outcome,) = outcomes
        if outcome["exit"] != 0:
            return [[f"simulate exited {outcome['exit']}, expected 0"]]
        problems, digest = oracles.check_simulate_outputs(self.out, self.n_paths, STEPS)
        if self.digests and digest != self.digests[0]:
            problems.append("simulate outputs differ from the first repetition")
        self.digests.append(digest)
        return [problems]


class ClosedForms:
    name = "closed-forms"
    why = ("no sampling: pairing enumeration in wick --order 12 and 257-knot tabulated"
           " quadrature in integrand, plus the Novikov gate on all five kinds")

    kinds = (
        ("constant", {"kind": "constant", "params": [1.0]}, 0),
        ("polynomial", {"kind": "polynomial", "params": [0.5, -1.0, 2.0]}, 0),
        ("exponential_decay", INTEGRAND, 0),
        ("tabulated", None, 0),
        # T* = 0.8 lies before the horizon, so the gate must report divergence
        ("inverse_sqrt_blowup", {"kind": "inverse_sqrt_blowup", "params": [1.0],
                                 "blowup_time": 0.8}, 2),
    )
    order = 12

    def prepare(self, seed: int, work: str):
        _, self.knots = derived_inputs(seed)
        self.untimed = []
        self.calls = []
        self.expected = []
        for kind, psi, code in self.kinds:
            if psi is None:
                psi = {"kind": "tabulated", "params": [], "table": self.knots}
            path = _write_config(work, f"{kind}.json", {"psi": psi, "horizon": HORIZON})
            self.calls.append(["novikov", "--config", path])
            self.expected.append((kind, code))
        tab_config = os.path.join(work, "tabulated.json")
        self.calls.append(["wick", "--config", tab_config, "--order", str(self.order)])
        self.outputs = []
        self.computed_bytes = 0

    def check(self, outcomes) -> list[list[str]]:
        exact_half_qv = 0.5 * oracles.piecewise_linear_qv(self.knots)
        results = []
        for (kind, code), outcome in zip(self.expected, outcomes):
            results.append(
                oracles.check_novikov(outcome, kind, code, exact_half_qv if kind == "tabulated" else None)
            )
        results.append(oracles.check_wick(outcomes[-1], self.order, exact_half_qv))
        return results


def make_workloads() -> dict:
    """Fresh workload objects by name; each keeps the digests of one run."""
    return {
        w.name: w
        for w in (
            Estimate(),
            Simulate(),
            ClosedForms(),
        )
    }
