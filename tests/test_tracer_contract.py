"""The benchmark's tracer must still find and wrap every layer function it names.

``perfbench/tracer.py`` wraps module-level functions by name and reads some
of their arguments by parameter name; a rename or move in ``ddse`` would
otherwise surface only as a failed traced benchmark run.
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
config = os.path.join(out, "c.json")
with open(config, "w") as fh:
    json.dump({"psi": {"kind": "exponential_decay", "params": [1.0, 0.5]}, "steps": 4, "seed": 7}, fh)
codes = {
    "novikov": ddse.cli.main(["novikov"]),
    "wick": ddse.cli.main(["wick", "--order", "4"]),
    "simulate": ddse.cli.main(["simulate", "--config", config, "--n-paths", "300", "--out", out]),
    "estimate": ddse.cli.main(["estimate", "--config", config, "--n-paths", "200", "--p", "2", "--out", out]),
}
metrics = tracer.layer_metrics()
print(json.dumps({"codes": codes, "csv_bytes": metrics.get("paths.write_csv.bytes")}))
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
    assert result["csv_bytes"] == os.path.getsize(tmp_path / "paths.csv")
