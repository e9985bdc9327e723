"""The benchmark's traced call sites all exist and yield every per-layer metric.

perfbench/tracing.py times each layer by replacing module attributes of the
package (for example `didsens.cli.read_quadruples_csv`).  A renamed or
lazily imported function leaves its span with no call site, and its metrics
then drop out of the benchmark result; a call that bypasses the patched
attribute leaves the metric at 0.  This test runs a small traced study and
simulation in a fresh interpreter, as the benchmark does, and checks which
spans the simulation reaches.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = r"""
import contextlib, io, json, sys
from pathlib import Path

import numpy as np
import yaml

sys.path.insert(0, sys.argv[1])
import tracing
import workloads

tracer = tracing.Tracer()
absent = tracer.install()
import didsens.cli

tmp = Path(sys.argv[2])
params = dict(workloads.WORKLOADS["study_rank"]["params"], n_treated=30, n_control=60)
workloads._write_study_csv(tmp / "data.csv", params, np.random.default_rng(3))
study = tmp / "study.yaml"
study.write_text(yaml.safe_dump(workloads._study_config(params, tmp / "data.csv", tmp / "study", 7)))
sim = tmp / "sim.yaml"
sim.write_text(yaml.safe_dump({
    "output_dir": str(tmp / "sim"),
    "seed": 5,
    "alpha": 0.05,
    "simulate": {
        "design": "binary",
        "reps": 3,
        "params": {"n_quadruples": 200, "mu_sd": 0.0, "alpha_sd": 0.0, "beta_sd": 0.0},
        "plan": {"test": "mcnemar", "mcnemar_budget": 20},
    },
}))
with contextlib.redirect_stdout(io.StringIO()):
    codes = [didsens.cli.main([verb, "--config", str(study)]) for verb in ("match", "test", "sens")]
    codes.append(didsens.cli.main(["simulate", "--config", str(sim)]))
metrics = tracing.layer_metrics(tracer.spans, absent)
expected = [name for name in tracing.METRIC_UNITS if not name.startswith("trace.")]
by_id = {span["id"]: span for span in tracer.spans}


def under_simulate(span):
    parent = span["parent"]
    while parent is not None and by_id[parent]["name"] != "cli.simulate":
        parent = by_id[parent]["parent"]
    return parent is not None


simulate_spans = sorted({span["name"] for span in tracer.spans if under_simulate(span)})
print(json.dumps({"codes": codes, "absent": absent, "metrics": metrics, "expected": expected,
                  "simulate_spans": simulate_spans}, allow_nan=False))
"""


def test_every_traced_call_site_exists(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "perfbench"), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == [0, 0, 0, 0]
    assert out["absent"] == []
    assert [name for name in out["expected"] if name not in out["metrics"]] == []
    # A metric exists even when no call reaches its site: the simulation must reach these.
    fired = {"simulate.generate", "simulate.quadruples_from_records", "binary.eligibility_report",
             "sensitivity.worst_case_pvalue"}
    assert fired <= set(out["simulate_spans"]), out["simulate_spans"]
