"""Every artifact of the benchmark workloads and the verbs beside them keeps its bytes.

The inputs are perfbench's `study_rank`, `study_balance` and `mc_null`
workloads at one seed, plus a seeded binary study written here.  The runs
are each workload's verbs, `match --objective minimize_total_distance` on
`study_rank`'s inputs, the binary study's `match`, then `test` and `sens`
one-sided and two-sided, `simulate` on the small plans in SIMULATE_PLANS,
`amplify --json` and `patterns`.
`tests/golden/manifest.json` records the sha256, size and per-line digests
of each file they write, with the Python, numpy and scipy versions that
produced it.  Floating-point bytes may differ on other versions, so a
version mismatch fails and names the versions.

A change that moves an artifact on purpose rewrites the manifest, and
lists the files whose hashes changed, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np
import scipy
import yaml

from didsens.cli import main

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden" / "manifest.json"
SEED = 91
# Hex digits of each line's sha256 kept in the manifest, enough to locate the first change.
LINE_DIGEST = 8

_spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def _run(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main([str(a) for a in argv])
    assert rc == 0, f"{' '.join(map(str, argv))} exited {rc}"


def _write_binary_study(inputs: Path) -> Path:
    """A seeded 0/1-outcome study, 200 treated and 400 controls per period; returns its config.

    Outcomes follow a logit in x with a treated post-period shift, and the
    matching carries a 0.1 SD cap on x and fine balance on cat.
    """
    rng = np.random.default_rng(SEED)
    rows = []
    for period in (1, 2):
        for z, count in ((1, 200), (0, 400)):
            x = rng.normal(0.25 * z, 1.0, count)
            cat = rng.choice(["c1", "c2", "c3"], size=count, p=[0.5, 0.3, 0.2] if z else None)
            y = rng.random(count) < 1.0 / (1.0 + np.exp(0.2 - 0.5 * x - 2.5 * z * (period - 1)))
            rows += [[period, z, int(y[k]), repr(float(x[k])), str(cat[k])] for k in range(count)]
    inputs.mkdir(parents=True)
    data = inputs / "data.csv"
    with data.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit", "period", "z", "y", "x", "cat"])
        writer.writerows([f"u{i}", *row] for i, row in enumerate(rows))
    config = inputs / "binary.yaml"
    config.write_text(yaml.safe_dump({
        "input": str(data),
        "seed": SEED,
        "outcome": {"column": "y", "kind": "binary"},
        "id": {"column": "unit"},
        "covariates": {
            "x": {"role": "continuous", "threshold": 0.1},
            "cat": {"role": "nominal", "balance": "fine"},
        },
        "test": "mcnemar",
        "gammas": [1.0, 1.1, 1.25, 1.5],
        "amplification_lambdas": [2.0],
    }), encoding="utf-8")
    return config


# Small `simulate` sections covering the plan options the mc_null workload leaves out.
SIMULATE_PLANS = {
    "sate_changepoint": {
        "design": "continuous",
        "reps": 6,
        "params": {"n_quadruples": 40, "tau": 0.5},
        "plan": {"test": "sate", "compute_changepoint": True},
    },
    "permutational_t_two_sided": {
        "design": "continuous",
        "reps": 6,
        "params": {"n_quadruples": 30, "tau": 1.5, "residual": "lognormal"},
        "plan": {"test": "permutational_t", "sided": "two_sided", "compute_hl": True,
                 "estimate_gamma": 1.2, "compute_changepoint": True},
    },
    "signed_rank_tilted": {
        "design": "continuous",
        "reps": 6,
        "params": {"n_quadruples": 40, "tau": 0.8, "lambda2": 1.0, "delta2": 1.0},
        "plan": {"test": "signed_rank", "gamma": 1.5},
    },
    "mcnemar_budget": {
        "design": "binary",
        "reps": 6,
        "params": {"n_quadruples": 300, "tau_logit": 1.0},
        "plan": {"test": "mcnemar", "mcnemar_budget": 40, "compute_hl": True,
                 "estimate_gamma": 1.2, "compute_changepoint": True},
    },
}


def _write_simulate_configs(inputs: Path, outputs: Path) -> list[Path]:
    inputs.mkdir(parents=True)
    configs = []
    for k, (name, section) in enumerate(SIMULATE_PLANS.items()):
        configs.append(inputs / f"{name}.yaml")
        configs[-1].write_text(yaml.safe_dump({
            "output_dir": str(outputs / name), "seed": SEED + k, "simulate": section,
        }), encoding="utf-8")
    return configs


def regenerate(root: Path) -> dict[str, bytes]:
    """Run every verb above under `root`; return each artifact's bytes by relative path."""
    for name in workloads.WORKLOADS:
        for config in workloads.write_inputs(name, SEED, root / name / "in", root / name / "out"):
            for verb in workloads.verb_sequence(name):
                _run(verb, "--config", config)
    _run("match", "--config", root / "study_rank" / "in" / "study0.yaml",
         "--objective", "minimize_total_distance", "--output-dir", root / "study_rank_min_distance" / "out")
    config = _write_binary_study(root / "binary_study" / "in")
    out = root / "binary_study" / "out"
    _run("match", "--config", config, "--output-dir", out / "match")
    for sided in ("one_sided_greater", "two_sided"):
        for verb in ("test", "sens"):
            _run(verb, "--config", config, "--quadruples", out / "match" / "quadruples.csv",
                 "--sided", sided, "--output-dir", out / sided)
    for config in _write_simulate_configs(root / "simulate_plans" / "in", root / "simulate_plans" / "out"):
        _run("simulate", "--config", config)
    (root / "amplify" / "out").mkdir(parents=True)
    _run("amplify", "--gamma", "2", "--lambdas", "3,4", "--json", root / "amplify" / "out" / "amplify.json")
    _run("patterns", "--outdir", root / "patterns" / "out")
    return {
        path.relative_to(root).as_posix().replace("/out/", "/", 1): path.read_bytes()
        for path in sorted(root.glob("*/out/**/*"))
        if path.is_file()
    }


def _line_digests(data: bytes) -> list[str]:
    return [hashlib.sha256(line).hexdigest()[:LINE_DIGEST] for line in data.splitlines()]


def manifest_of(files: dict[str, bytes]) -> dict:
    return {
        "seed": SEED,
        "versions": versions(),
        "files": {
            name: {
                "sha256": hashlib.sha256(data).hexdigest(),
                "size": len(data),
                "lines": "".join(_line_digests(data)),
            }
            for name, data in files.items()
        },
    }


def _first_difference(name: str, data: bytes, recorded: dict) -> str:
    old = recorded["lines"]
    old = [old[i : i + LINE_DIGEST] for i in range(0, len(old), LINE_DIGEST)]
    new = _line_digests(data)
    k = next((i for i, (a, b) in enumerate(zip(new, old)) if a != b), min(len(new), len(old)))
    if len(new) == len(old) == k:
        return f"{name}: same lines, different bytes (size {len(data)}, recorded {recorded['size']})"
    lines = data.splitlines()
    shown = lines[k].decode(errors="replace") if k < len(lines) else "<end of file>"
    return f"{name}: first differing line {k + 1}: {shown}"


def test_artifacts_match_the_golden_manifest(tmp_path):
    recorded = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert recorded["versions"] == versions(), (
        f"manifest written with {recorded['versions']}, running {versions()}: "
        "check the artifacts by hand, then rewrite the manifest"
    )
    files = regenerate(tmp_path)
    problems = [f"{name}: missing" for name in recorded["files"] if name not in files]
    problems += [f"{name}: not in the manifest" for name in files if name not in recorded["files"]]
    for name, data in files.items():
        entry = recorded["files"].get(name)
        if entry is not None and hashlib.sha256(data).hexdigest() != entry["sha256"]:
            problems.append(_first_difference(name, data, entry))
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        manifest = manifest_of(regenerate(Path(tmp)))
    old = json.loads(MANIFEST.read_text(encoding="utf-8"))["files"] if MANIFEST.exists() else {}
    new = manifest["files"]
    for name in sorted(old.keys() | new.keys()):
        if old.get(name, {}).get("sha256") != new.get(name, {}).get("sha256"):
            status = "removed" if name not in new else "added" if name not in old else "changed"
            print(f"{status}: {name}")
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST} ({len(manifest['files'])} files)", file=sys.stderr)
