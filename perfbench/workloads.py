"""Workload definitions and seeded input generation.

Each workload is a fixed analysis plan plus a generator that turns a seed
into the files the program reads: one CSV and one YAML config per verb
sequence.  The program never sees the seed directly, only these files.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
import yaml

GAMMAS = [1.0, 1.1, 1.25, 1.5, 2.0]
LAMBDAS = [2.0, 3.0]
ALPHA = 0.05

# Per-workload stream tag, so two workloads never share draws for one seed.
_STREAM = {"study_rank": 1, "study_balance": 2, "mc_null": 3}

# "yardstick" names the hostspeed.py yardstick like the code the workload spends
# its time in: vectorised numpy for study_rank's DP, the interpreter otherwise.
WORKLOADS = {
    "study_rank": {
        "why": (
            "signed-rank study with no side constraints: the exact sign-flip DP "
            "(kernels.signflip_pmf, called from invert_ci and the sens grid) dominates"
        ),
        "kind": "study",
        "yardstick": "vector",
        "params": {
            "studies": 1,
            "n_treated": 450,
            "n_control": 900,
            "shift": 0.6,
            "covariates": {
                "x1": {"role": "continuous"},
                "x2": {"role": "continuous"},
            },
            "test": "signed_rank",
        },
    },
    "study_balance": {
        "why": (
            "criterion-08 constraint set (two 0.1 SD caps, fine and exact balance), "
            "two studies of 300 x 600 units per period: matching dominates, inference "
            "takes the normal route with no DP calls"
        ),
        "kind": "study",
        "yardstick": "interpreter",
        "params": {
            "studies": 2,
            "n_treated": 300,
            "n_control": 600,
            "shift": 0.5,
            "covariates": {
                "x1": {"role": "continuous", "threshold": 0.1},
                "x2": {"role": "continuous", "threshold": 0.1},
                "cat": {"role": "nominal", "balance": "fine"},
                "flag": {"role": "nominal", "balance": "exact"},
            },
            "test": "permutational_t",
        },
    },
    "mc_null": {
        "why": (
            "simulate on criterion-06 null designs: many small fresh analyses, "
            "dominated by per-replication record and quadruple construction"
        ),
        "kind": "simulate",
        "yardstick": "interpreter",
        "params": {
            "designs": {
                "binary": {
                    "design": "binary",
                    "reps": 20,
                    "params": {"n_quadruples": 1200, "mu_sd": 0.0, "alpha_sd": 0.0, "beta_sd": 0.0},
                    "plan": {"test": "mcnemar", "mcnemar_budget": 100},
                },
                "continuous": {
                    "design": "continuous",
                    "reps": 150,
                    "params": {"n_quadruples": 100},
                    "plan": {"test": "signed_rank"},
                },
            },
        },
    },
}

CATEGORIES = ["c1", "c2", "c3", "c4"]
TREATED_CATEGORY_PROBS = [0.4, 0.3, 0.2, 0.1]


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _STREAM[workload]]))


def _write_study_csv(path: Path, params: dict, rng: np.random.Generator) -> None:
    """Two-period unit records in the shape of acceptance criterion 08's data.

    Treated units differ from controls in x1, x2 and the category mix; the
    treated post-period outcome carries a constant shift.
    """
    rows = []
    uid = 0
    for period in (1, 2):
        for z, count in ((1, params["n_treated"]), (0, params["n_control"])):
            x1 = rng.normal(0.25 * z, 1.0, size=count)
            x2 = rng.normal(0.1 - 0.2 * z, 1.0, size=count)
            cat = rng.choice(CATEGORIES, size=count, p=TREATED_CATEGORY_PROBS if z else None)
            flag = rng.choice(["yes", "no"], size=count)
            y = rng.normal(params["shift"] * z * (period - 1), 1.0, size=count) + 0.4 * x1
            for k in range(count):
                rows.append(
                    [f"u{uid}", period, z, repr(float(y[k])), repr(float(x1[k])),
                     repr(float(x2[k])), str(cat[k]), str(flag[k])]
                )
                uid += 1
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit", "period", "z", "y", "x1", "x2", "cat", "flag"])
        writer.writerows(rows)


def _study_config(params: dict, data: Path, out: Path, seed: int) -> dict:
    return {
        "input": str(data),
        "output_dir": str(out),
        "seed": seed,
        "outcome": {"column": "y", "kind": "continuous"},
        "period": {"column": "period"},
        "treatment": {"column": "z"},
        "id": {"column": "unit"},
        "covariates": params["covariates"],
        "matching": {"objective": "maximize_pairs"},
        "test": params["test"],
        "alpha": ALPHA,
        "gammas": GAMMAS,
        "amplification_lambdas": LAMBDAS,
    }


def write_inputs(workload: str, seed: int, inputs: Path, outputs: Path) -> list[Path]:
    """Generate the workload's input files under `inputs`; return the config paths.

    Reports written by the program go under `outputs` (named in the
    configs).  The same (workload, seed) always yields the same bytes.
    """
    spec = WORKLOADS[workload]
    params = spec["params"]
    rng = _rng(workload, seed)
    inputs.mkdir(parents=True, exist_ok=True)
    configs = []
    if spec["kind"] == "study":
        for k in range(params["studies"]):
            data = inputs / f"data{k}.csv"
            _write_study_csv(data, params, rng)
            cfg = _study_config(params, data, outputs / f"study{k}", int(rng.integers(2**31)))
            configs.append(inputs / f"study{k}.yaml")
            configs[-1].write_text(yaml.safe_dump(cfg, sort_keys=True), encoding="utf-8")
    else:
        for name, design in params["designs"].items():
            cfg = {
                "output_dir": str(outputs / name),
                "seed": int(rng.integers(2**31)),
                "alpha": ALPHA,
                "simulate": design,
            }
            configs.append(inputs / f"{name}.yaml")
            configs[-1].write_text(yaml.safe_dump(cfg, sort_keys=True), encoding="utf-8")
    return configs


def verb_sequence(workload: str) -> list[str]:
    """The verbs one pass runs against each config, in order."""
    return ["match", "test", "sens"] if WORKLOADS[workload]["kind"] == "study" else ["simulate"]
