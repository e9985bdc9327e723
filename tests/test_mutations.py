"""Random single-field mutations of valid inputs, run through `cli.main`.

Each example changes one field of a valid config file, input CSV or
quadruples CSV, or deletes it, and runs one verb on the result.  Whatever
the field holds, the verb must end with a documented exit code (0, 2, 3 or
4), with no traceback and no RuntimeWarning.
"""

import contextlib
import csv
import io
import math
import os
import tempfile
import warnings
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from didsens import cli

from test_cli import write_config, write_dataset

DELETE = object()  # a mutation that removes the field
# YAML values of every kind a hand-edited config can hold.
CONFIG_VALUES = [
    DELETE, None, "", "abc", True, -1, 0, 1, 2, 0.5, -0.5, 1e308, -1e308,
    math.nan, math.inf, -math.inf, [], [1.0, "x"], {}, {"a": 1},
]
# A count is drawn from these: a huge one is a valid request for a long run.
COUNT_VALUES = [DELETE, None, "", "abc", True, -1, 0, 1, 2, 0.5, math.nan, math.inf, -math.inf, [], {}]
CELL_VALUES = ["", " ", "abc", "nan", "inf", "-inf", "1e308", "-1e308", "-1", "0", "1", "2", "0.5", "u0", "a"]

CONFIG_KEYS = [
    "input", "output_dir", "seed", "outcome", "outcome.column", "outcome.kind", "period",
    "period.column", "period.labels", "treatment", "treatment.column", "id", "id.column",
    "covariates", "covariates.x", "covariates.x.role", "covariates.x.threshold",
    "covariates.site", "covariates.site.role", "covariates.site.balance", "covariates.site.k",
    "matching", "matching.objective", "matching.caliper", "test", "alpha", "tau0", "sided",
    "gammas", "amplification_lambdas",
]
SIMULATE_KEYS = [
    "simulate", "simulate.design", "simulate.reps", "simulate.params", "simulate.params.n_quadruples",
    "simulate.params.tau", "simulate.params.mu_sd", "simulate.params.residual",
    "simulate.params.residual_scale", "simulate.params.lambda1", "simulate.params.delta2",
    "simulate.params.u_dist", "simulate.plan", "simulate.plan.test", "simulate.plan.gamma",
    "simulate.plan.alpha", "simulate.plan.tau0", "simulate.plan.sided", "simulate.plan.compute_hl",
    "simulate.plan.estimate_gamma", "simulate.plan.compute_changepoint", "seed",
]
COUNT_KEYS = {"simulate.reps", "simulate.params.n_quadruples"}
SIMULATE = {
    "design": "continuous",
    "reps": 2,
    "params": {"n_quadruples": 12, "tau": 0.5},
    "plan": {"test": "signed_rank", "compute_hl": True, "estimate_gamma": 1.2, "compute_changepoint": True},
}


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A valid data.csv, its config (with a simulate section) and the quadruples.csv that match writes."""
    root = tmp_path_factory.mktemp("mutations")
    data = root / "data.csv"
    write_dataset(data)
    config = write_config(root / "config.yaml", data, root / "out", simulate=SIMULATE)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["match", "--config", str(config)]) == 0
    return {
        "config": yaml.safe_load(config.read_text()),
        "data": _read_csv(data),
        "quadruples": _read_csv(root / "out" / "quadruples.csv"),
    }


def _read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _write_csv(path: Path, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _set_field(mapping: dict, key: str, value) -> None:
    *parents, last = key.split(".")
    for name in parents:
        if not isinstance(mapping.get(name), dict):
            mapping[name] = {}
        mapping = mapping[name]
    if value is DELETE:
        mapping.pop(last, None)
    else:
        mapping[last] = value


@st.composite
def mutations(draw):
    """(verb, (config key, value) or None, "data" or "quadruples" or None, (row, column, cell) or None)."""
    target = draw(st.sampled_from(["config", "simulate", "data", "quadruples"]))
    if target in ("config", "simulate"):
        key = draw(st.sampled_from(CONFIG_KEYS if target == "config" else SIMULATE_KEYS))
        value = draw(st.sampled_from(COUNT_VALUES if key in COUNT_KEYS else CONFIG_VALUES))
        verb = draw(st.sampled_from(["match", "test", "sens"])) if target == "config" else "simulate"
        return verb, (key, value), None, None
    rows_key = "data" if target == "data" else "quadruples"
    verb = "match" if target == "data" else draw(st.sampled_from(["test", "sens"]))
    return verb, None, rows_key, (draw(st.integers(0, 10**6)), draw(st.integers(0, 10**6)),
                                   draw(st.sampled_from(CELL_VALUES)))


def _run(base, verb, field_change, rows_key, cell_change):
    """Exit code, stderr and warnings of one verb on the mutated inputs, in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        files = {"data": root / "data.csv", "quadruples": root / "quadruples.csv"}
        for key, path in files.items():
            rows = [list(r) for r in base[key]]
            if key == rows_key:
                row, col, value = cell_change
                line = rows[1 + row % (len(rows) - 1)]
                line[col % len(line)] = value
            _write_csv(path, rows)
        config = dict(base["config"], input=str(files["data"]), output_dir=str(root / "out"))
        config = yaml.safe_load(yaml.safe_dump(config))  # a deep copy
        if field_change is not None:
            _set_field(config, *field_change)
        (root / "config.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
        argv = [verb, "--config", str(root / "config.yaml")]
        if verb in ("test", "sens"):
            argv += ["--quadruples", str(files["quadruples"])]
        err = io.StringIO()
        cwd = os.getcwd()
        os.chdir(root)  # a mutated output_dir is created here
        try:
            with (warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(io.StringIO()),
                  contextlib.redirect_stderr(err)):
                warnings.simplefilter("always")
                code = cli.main(argv)
        finally:
            os.chdir(cwd)
    return code, err.getvalue(), caught


@settings(max_examples=80, deadline=None)
@given(mutation=mutations())
def test_single_field_mutations_exit_with_a_documented_code(base, mutation):
    code, err, caught = _run(base, *mutation)
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], [str(w.message) for w in caught]
