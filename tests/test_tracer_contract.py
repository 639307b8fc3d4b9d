"""The benchmark's tracer must still find and wrap every layer function it names.

``perfbench/tracer.py`` wraps module-level functions by name and reads some
of their arguments by parameter name; a rename or move in ``ddse`` would
otherwise surface only as a failed traced benchmark run.  The calls below
include the shapes of the benchmark's ``closed-forms`` workload: ``novikov``
on a 257-knot table and on a pole before the horizon, and ``wick --order 12``
on the table.  Both sampling schemes run too: the bundle-size counter reads
the increments, Ito sums and z of the bundle ``stoch_exp_em`` returns, so a
change to that bundle or to a row block shows here first.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = r"""
import json, os, sys
import ddse, ddse.cli
from tracer import Tracer

tracer = Tracer()
tracer.install(ddse)
out = sys.argv[1]


def write(name, doc):
    path = os.path.join(out, name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def qv_calls():
    return tracer.layer_metrics().get("integrand.quad_var_between.calls", 0)


def bundle_bytes():
    return tracer.layer_metrics().get("paths.bundle_bytes_computed", 0)


config = write("c.json", {"psi": {"kind": "exponential_decay", "params": [1.0, 0.5]}, "steps": 4, "seed": 7})
table = [[k / 256, 0.5 + (37 * k % 29) / 29] for k in range(257)]
tabulated = write("tab.json", {"psi": {"kind": "tabulated", "params": [], "table": table}, "horizon": 1.0})
pole = write("pole.json", {"psi": {"kind": "inverse_sqrt_blowup", "params": [1.0], "blowup_time": 0.8},
                           "horizon": 1.0})
codes = {
    "novikov": ddse.cli.main(["novikov"]),
    "wick": ddse.cli.main(["wick", "--order", "4"]),
    "simulate": ddse.cli.main(["simulate", "--config", config, "--n-paths", "300", "--out", out]),
    "estimate": ddse.cli.main(["estimate", "--config", config, "--n-paths", "200", "--p", "2", "--out", out]),
}
csv_bytes = tracer.layer_metrics().get("paths.write_csv.bytes")
em_bytes = bundle_bytes()
codes["simulate-em"] = ddse.cli.main(
    ["simulate", "--config", config, "--scheme", "em", "--n-paths", "300", "--out", os.path.join(out, "em")]
)
em_bytes = bundle_bytes() - em_bytes
codes["estimate-em"] = ddse.cli.main(
    ["estimate", "--config", config, "--scheme", "em", "--n-paths", "200", "--p", "2", "--out", out]
)
before = qv_calls()
codes["novikov-tabulated"] = ddse.cli.main(["novikov", "--config", tabulated])
codes["novikov-pole"] = ddse.cli.main(["novikov", "--config", pole])
codes["wick-tabulated"] = ddse.cli.main(["wick", "--config", tabulated, "--order", "12"])
metrics = tracer.layer_metrics()
print(json.dumps({
    "codes": codes,
    "csv_bytes": csv_bytes,
    "em_calls": metrics.get("paths.stoch_exp_em.calls"),
    "em_bundle_bytes": em_bytes,
    "closed_form_qv_calls": qv_calls() - before,
}))
"""


def test_tracer_wraps_every_required_function(tmp_path):
    path = os.pathsep.join([os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    codes = result["codes"]
    assert (codes["novikov"], codes["wick"], codes["simulate"]) == (0, 0, 0)
    assert codes["estimate"] in (0, 1)
    assert codes["simulate-em"] == 0 and codes["estimate-em"] in (0, 1)
    # one bundle, from simulate (estimate streams row blocks): 300 paths of
    # 4 steps, with increments, then Ito sums and z at 5 nodes each
    n, steps, nodes = 300, 4, 5
    assert result["em_calls"] == 1
    assert result["em_bundle_bytes"] == 8 * n * (steps + 2 * nodes)
    assert (codes["novikov-tabulated"], codes["novikov-pole"], codes["wick-tabulated"]) == (0, 2, 0)
    assert result["closed_form_qv_calls"] > 0
    assert result["csv_bytes"] == os.path.getsize(tmp_path / "paths.csv")
