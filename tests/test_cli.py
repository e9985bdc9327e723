import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import yaml

from didsens import binary, cli, matching
from didsens.cli import read_quadruples_csv
from didsens.sensitivity import SHARP_NULL_RULE, changepoint_gamma, sate_pvalue, upper_pvalues
from didsens.simulate import AnalysisPlan

from conftest import binary_quadset

SCHEMA = json.loads(
    (Path(cli.__file__).parent / "schemas" / "report.schema.json").read_text()
)


def _validate(report):
    jsonschema.validate(report, SCHEMA)


def write_dataset(path, n_treated=14, n_control=20, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    uid = 0
    for period in (1, 2):
        for z, count in ((1, n_treated), (0, n_control)):
            for _ in range(count):
                x = float(rng.normal(0.3 * z, 1.0))
                site = str(rng.choice(["a", "b"]))
                y = float(rng.normal(0.8 * z * (period - 1), 1.0) + 0.5 * x)
                rows.append([f"u{uid}", period, z, round(y, 4), round(x, 4), site])
                uid += 1
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["unit", "period", "z", "y", "x", "site"])
        w.writerows(rows)


def write_config(path, data_path, out_dir, **overrides):
    cfg = {
        "input": str(data_path),
        "output_dir": str(out_dir),
        "seed": 7,
        "outcome": {"column": "y", "kind": "continuous"},
        "period": {"column": "period"},
        "treatment": {"column": "z"},
        "id": {"column": "unit"},
        "covariates": {
            "x": {"role": "continuous", "threshold": 0.2},
            "site": {"role": "nominal", "balance": "fine"},
        },
        "test": "signed_rank",
        "alpha": 0.05,
        "gammas": [1.0, 1.3, 1.6, 2.0],
        "amplification_lambdas": [3.0],
    }
    cfg.update(overrides)
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return path


@pytest.fixture
def matched(tmp_path):
    data = tmp_path / "data.csv"
    write_dataset(data)
    out = tmp_path / "out"
    config = write_config(tmp_path / "config.yaml", data, out)
    assert cli.main(["match", "--config", str(config)]) == 0
    return config, out


def test_match_writes_all_artifacts(matched):
    _, out = matched
    for name in ("pairs_pre.csv", "pairs_post.csv", "quadruples.csv", "balance.csv"):
        assert (out / name).exists()
    with (out / "quadruples.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) >= 5
    for row in rows:
        post_diff = float(row["post_treated_outcome"]) - float(row["post_control_outcome"])
        pre_diff = float(row["pre_treated_outcome"]) - float(row["pre_control_outcome"])
        assert float(row["d"]) == post_diff - pre_diff
    with (out / "balance.csv").open(newline="") as fh:
        stages = {r["stage"] for r in csv.DictReader(fh)}
    assert stages == {"period1", "period2", "cross"}


def test_match_is_byte_deterministic(tmp_path):
    data = tmp_path / "data.csv"
    write_dataset(data)
    outs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        config = write_config(tmp_path / f"c_{tag}.yaml", data, out)
        assert cli.main(["match", "--config", str(config)]) == 0
        outs.append(out)
    for name in ("pairs_pre.csv", "pairs_post.csv", "quadruples.csv", "balance.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_match_balance_reports_read_one_stream_each(tmp_path, monkeypatch):
    # Both periods have 14 treated and 20 controls, so reports that shared a
    # seed would share their permutation draws.
    seeds = []
    default_rng = np.random.default_rng

    def spy(seed):
        seeds.append(seed)
        return default_rng(seed)

    data = tmp_path / "data.csv"
    write_dataset(data)
    config = write_config(tmp_path / "config.yaml", data, tmp_path / "out")
    monkeypatch.setattr(matching.np.random, "default_rng", spy)
    assert cli.main(["match", "--config", str(config)]) == 0
    assert len(seeds) == len(set(seeds)) == 6  # before and after of three stages


@pytest.mark.parametrize("site", [{"role": "nominal"}, {"role": "nominal", "balance": "none"}])
def test_match_with_balance_none_reports_site_in_period_rows_only(tmp_path, site):
    data = tmp_path / "data.csv"
    write_dataset(data)
    out = tmp_path / "out"
    config = write_config(
        tmp_path / "config.yaml", data, out,
        covariates={"x": {"role": "continuous"}, "site": site},
    )
    assert cli.main(["match", "--config", str(config)]) == 0
    with (out / "balance.csv").open(newline="") as fh:
        site_stages = sorted(r["stage"] for r in csv.DictReader(fh) if r["covariate"] == "site")
    assert site_stages == ["period1", "period2"]


def test_quadruples_csv_round_trips(matched):
    _, out = matched
    quads = read_quadruples_csv(str(out / "quadruples.csv"), "continuous")
    with (out / "quadruples.csv").open(newline="") as fh:
        stored = [float(r["d"]) for r in csv.DictReader(fh)]
    assert quads.d_values().tolist() == stored


def test_test_command_report_validates(matched):
    config, out = matched
    assert cli.main(["test", "--config", str(config)]) == 0
    report = json.loads((out / "test_report.json").read_text())
    _validate(report)
    assert report["command"] == "test"
    assert report["test"] == "signed_rank"
    assert 0.0 <= report["p_value"] <= 1.0
    assert report["method"].startswith("wilcoxon:")
    assert "hl_estimate" in report and "ci" in report


def test_tau0_override_is_reflected(matched):
    config, out = matched
    assert cli.main(["test", "--config", str(config), "--tau0", "0.5"]) == 0
    report = json.loads((out / "test_report.json").read_text())
    assert report["tau0"] == 0.5
    _validate(report)


def test_sens_report_grid_monotone_and_validates(matched):
    config, out = matched
    assert cli.main(["sens", "--config", str(config)]) == 0
    report = json.loads((out / "sens_report.json").read_text())
    _validate(report)
    gammas = [row["gamma"] for row in report["grid"]]
    assert gammas == sorted(gammas) == [1.0, 1.3, 1.6, 2.0]
    ps = [row["p_upper"] for row in report["grid"]]
    assert all(b >= a - 1e-15 for a, b in zip(ps, ps[1:]))
    los = [row["bound_lower"] for row in report["grid"]]
    his = [row["bound_upper"] for row in report["grid"]]
    assert all(b <= a + 1e-9 for a, b in zip(los, los[1:]))
    assert all(b >= a - 1e-9 for a, b in zip(his, his[1:]))
    for row in report["grid"]:
        for amp in row["amplification"]:
            assert amp["lam"] > row["gamma"] or row["gamma"] == 1.0


def test_sens_gamma_override(matched):
    config, out = matched
    assert cli.main(["sens", "--config", str(config), "--gammas", "1.5,1.1"]) == 0
    report = json.loads((out / "sens_report.json").read_text())
    assert [row["gamma"] for row in report["grid"]] == [1.1, 1.5]


def test_sens_at_huge_gamma_bounds_estimates_by_the_range_of_d(matched):
    # gamma^2 / (1 + gamma^2) rounds to 1 at gamma = 1e9.
    config, out = matched
    assert cli.main(["sens", "--config", str(config), "--gammas", "1e9"]) == 0
    report = json.loads((out / "sens_report.json").read_text())
    _validate(report)
    d = read_quadruples_csv(str(out / "quadruples.csv"), "continuous").d_values()
    [row] = report["grid"]
    assert (row["bound_lower"], row["bound_upper"]) == (float(d.min()), float(d.max()))


def test_sate_sens_changepoint_brackets_alpha(matched):
    config, out = matched
    assert cli.main(["sens", "--config", str(config), "--test", "sate"]) == 0
    report = json.loads((out / "sens_report.json").read_text())
    _validate(report)
    quads = read_quadruples_csv(str(out / "quadruples.csv"), "continuous")
    gamma = report["changepoint"]["gamma"]

    def p_at(g):
        return sate_pvalue(quads, gamma=g).p_value

    assert p_at(gamma) <= 0.05 < p_at(gamma + 1.01e-4)
    assert changepoint_gamma(upper_pvalues(quads, "sate")) == gamma


def test_amplify_command_values(tmp_path, capsys):
    json_path = tmp_path / "amp.json"
    assert cli.main(["amplify", "--gamma", "2", "--lambdas", "3", "--json", str(json_path)]) == 0
    report = json.loads(json_path.read_text())
    _validate(report)
    row = report["rows"][0]
    assert row["lam"] == 3.0
    assert row["delta_did"] == pytest.approx(math.sqrt(7.0), abs=1e-9)
    assert row["delta_paired"] == pytest.approx(5.0, abs=1e-9)
    capsys.readouterr()
    assert cli.main(["amplify", "--gamma", "2", "--lambdas", "1.5"]) == 2
    assert "asymptote" in capsys.readouterr().err


@pytest.mark.parametrize(
    "gamma, lambdas, message",
    [("nan", "3", "--gamma must be finite, got nan"), ("inf", "3", "--gamma must be finite, got inf"),
     ("2", "3,nan", "--lambdas must be finite, got nan")],
)
def test_amplify_refuses_non_finite_values_by_name(tmp_path, capsys, gamma, lambdas, message):
    json_path = tmp_path / "amp.json"
    assert cli.main(["amplify", "--gamma", gamma, "--lambdas", lambdas, "--json", str(json_path)]) == 2
    assert message in capsys.readouterr().err
    assert not json_path.exists()


def test_exit_2_on_missing_column(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_dataset(data)
    out = tmp_path / "out"
    config = write_config(tmp_path / "config.yaml", data, out, outcome={"column": "wage"})
    assert cli.main(["match", "--config", str(config)]) == 2
    assert "missing column 'wage'" in capsys.readouterr().err


def test_exit_3_on_infeasible_match(tmp_path, capsys):
    data = tmp_path / "data.csv"
    rows = []
    for period in (1, 2):
        for i in range(4):
            rows.append([f"t{period}{i}", period, 1, 1.0 + i, 0.1 * i, "a"])
            rows.append([f"c{period}{i}", period, 0, 1.0 + i, 0.1 * i, "b"])
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["unit", "period", "z", "y", "x", "site"])
        w.writerows(rows)
    out = tmp_path / "out"
    config = write_config(
        tmp_path / "config.yaml", data, out,
        covariates={
            "x": {"role": "continuous"},
            "site": {"role": "nominal", "balance": "exact"},
        },
    )
    assert cli.main(["match", "--config", str(config)]) == 3
    assert "infeasible" in capsys.readouterr().err


def test_exit_4_on_unparseable_data(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("unit,period,z,y,x,site\nu1,1,1,not_a_number,0.5,a\n")
    out = tmp_path / "out"
    config = write_config(tmp_path / "config.yaml", data, out)
    assert cli.main(["match", "--config", str(config)]) == 4
    assert "line 2" in capsys.readouterr().err


def test_exit_4_on_invalid_dataset_lists_five_problems(tmp_path, capsys):
    data = tmp_path / "data.csv"
    rows = ["unit,period,z,y,x,site"] + [f"dup,1,{i % 2},1.0,0.5,a" for i in range(8)]
    data.write_text("\n".join(rows) + "\n")
    config = write_config(tmp_path / "config.yaml", data, tmp_path / "out")
    assert cli.main(["match", "--config", str(config)]) == 4
    shown = "; ".join(["record 'dup': duplicate id"] * 5)
    assert capsys.readouterr().err == f"data error: invalid dataset: {shown}; and 2 more\n"


@pytest.mark.parametrize(
    "bad, message",
    [
        ("nan", "record 'u14': covariate 'x' is not finite"),
        ("inf", "record 'u14': covariate 'x' is not finite"),
        # finite, but its square is not: the pooled SD would overflow
        ("1.5e308", "covariate 'x': its spread overflows float64"),
    ],
    ids=["nan", "inf", "1.5e308"],
)
def test_exit_4_on_non_finite_covariate(tmp_path, capsys, bad, message):
    data = tmp_path / "data.csv"
    write_dataset(data)
    lines = data.read_text().splitlines()
    fields = lines[15].split(",")  # u14, the first period-1 control
    fields[4] = bad
    lines[15] = ",".join(fields)
    data.write_text("\n".join(lines) + "\n")
    config = write_config(tmp_path / "config.yaml", data, tmp_path / "out")
    assert cli.main(["match", "--config", str(config)]) == 4
    err = capsys.readouterr().err
    assert message in err and "Warning" not in err


# (mutation, verb) -> (exit code, substring of stderr); a dict mutates the
# config file, a list is appended to the command line.
BAD_SETTINGS = [
    ({"gammas": [math.nan]}, "match", 2, "gammas must be finite and >= 1, got nan"),
    ({"gammas": [math.nan]}, "sens", 2, "gammas must be finite and >= 1, got nan"),
    ({"gammas": [1.0, math.inf]}, "sens", 2, "gammas must be finite and >= 1, got inf"),
    (["--gammas", "1.5,nan"], "sens", 2, "gammas must be finite and >= 1, got nan"),
    (["--gammas", "inf"], "sens", 2, "gammas must be finite and >= 1, got inf"),
    ({"tau0": math.nan}, "test", 2, "tau0 must be finite, got nan"),
    ({"tau0": math.nan}, "sens", 2, "tau0 must be finite, got nan"),
    (["--tau0", "nan"], "test", 2, "tau0 must be finite, got nan"),
    ({"amplification_lambdas": [math.nan]}, "sens", 2, "amplification_lambdas must be finite and exceed 1, got nan"),
    (["--lambdas", "3,inf"], "sens", 2, "amplification_lambdas must be finite and exceed 1, got inf"),
    ({"seed": -1}, "match", 2, "seed must be a nonnegative integer, got -1"),
    (["--seed", "-1"], "match", 2, "seed must be a nonnegative integer, got -1"),
    # one outcome/test rule for test, sens and simulate
    ({"outcome": {"column": "y", "kind": "binary"}}, "test", 2, "outcome.kind binary does not take test signed_rank"),
    (["--test", "mcnemar"], "sens", 2, "outcome.kind continuous does not take test mcnemar"),
    *[
        ({"simulate": {"design": kind, "reps": 2, "params": {"n_quadruples": 20}, "plan": {"test": test}}},
         "simulate", 2, f"simulate.design {kind} does not take simulate.plan.test {test}")
        for kind, test in (("binary", "signed_rank"), ("binary", "sate"), ("continuous", "mcnemar"))
    ],
    # finite, but the sum of squares of d - tau0 overflows float64
    *[({"tau0": 1e200, "test": test}, verb, 2, "tau0 = 1e+200 is too far from the contrasts")
      for test in ("sate", "permutational_t", "signed_rank") for verb in ("test", "sens")],
]


@pytest.mark.parametrize("mutation, verb, code, message", BAD_SETTINGS)
def test_bad_settings_exit_with_the_key_named(matched, capsys, mutation, verb, code, message):
    config, out = matched
    argv = [verb, "--config", str(config)]
    if isinstance(mutation, dict):
        config = write_config(config.with_name("bad.yaml"), config.with_name("data.csv"), out, **mutation)
        argv[2] = str(config)
    else:
        argv += mutation
    capsys.readouterr()
    assert cli.main(argv) == code
    assert message in capsys.readouterr().err


def test_importing_the_package_writes_nothing_to_stdout():
    # A benchmark run's last stdout line must be its result, so imports stay silent.
    # The package also keeps scipy.stats, the largest import it could pull in, off its path.
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, didsens, didsens.cli; assert 'scipy.stats' not in sys.modules"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


def test_exit_2_on_zero_reps(tmp_path, capsys):
    config = write_config(
        tmp_path / "config.yaml", tmp_path / "unused.csv", tmp_path / "out",
        simulate={"design": "continuous", "reps": 0, "params": {"n_quadruples": 10}},
    )
    assert cli.main(["simulate", "--config", str(config)]) == 2
    assert "reps" in capsys.readouterr().err


def test_simulate_writes_deterministic_csv(tmp_path):
    sims = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        config = write_config(
            tmp_path / f"c_{tag}.yaml", tmp_path / "unused.csv", out,
            simulate={
                "design": "continuous",
                "reps": 4,
                "params": {"n_quadruples": 20, "tau": 1.0},
                "plan": {"test": "signed_rank", "compute_hl": True},
            },
        )
        assert cli.main(["simulate", "--config", str(config)]) == 0
        sims.append(out / "simulation.csv")
    assert sims[0].read_bytes() == sims[1].read_bytes()
    with sims[0].open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "rep"
    assert rows[-1][0] == "summary"
    assert len(rows) == 1 + 4 + 1


def test_simulate_mcnemar_with_tau0_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    config = write_config(
        tmp_path / "config.yaml", tmp_path / "unused.csv", out,
        simulate={
            "design": "binary",
            "reps": 3,
            "params": {"n_quadruples": 50},
            "plan": {"test": "mcnemar", "tau0": 0.5},
        },
    )
    assert cli.main(["simulate", "--config", str(config)]) == 2
    assert "tau0" in capsys.readouterr().err
    assert not (out / "simulation.csv").exists()


def _write_binary_quadruples(path, n_pos, n_neg, n_flat=0):
    header = [
        "quad", "pre_treated_id", "pre_control_id", "post_treated_id", "post_control_id",
        "pre_treated_outcome", "pre_control_outcome", "post_treated_outcome",
        "post_control_outcome", "d",
    ]
    rows = []
    patterns = [(0, 1, 1, 0)] * n_pos + [(1, 0, 0, 1)] * n_neg + [(1, 1, 1, 1)] * n_flat
    for i, (a, b, c, d) in enumerate(patterns):
        contrast = (c - d) - (a - b)
        rows.append(
            [i, f"q{i}pt", f"q{i}pc", f"q{i}ot", f"q{i}oc",
             repr(float(a)), repr(float(b)), repr(float(c)), repr(float(d)), repr(float(contrast))]
        )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _sharp_null_error(entry, tmp_path, capsys):
    """The message with which entry refuses a McNemar analysis at tau0 = 0.5."""
    if entry == "upper_pvalues":
        with pytest.raises(ValueError) as exc:
            upper_pvalues(binary_quadset([(0, 1, 1, 0)]), "mcnemar", tau0=0.5)
        return str(exc.value)
    if entry == "AnalysisPlan":
        with pytest.raises(ValueError) as exc:
            AnalysisPlan(test="mcnemar", tau0=0.5)
        return str(exc.value)
    quads = tmp_path / "quadruples.csv"
    _write_binary_quadruples(quads, n_pos=3, n_neg=1)
    config = write_config(
        tmp_path / "config.yaml", tmp_path / "unused.csv", tmp_path / "out",
        outcome={"column": "y", "kind": "binary"}, test="mcnemar", tau0=0.5,
    )
    assert cli.main([entry, "--config", str(config), "--quadruples", str(quads)]) == 2
    return capsys.readouterr().err.removeprefix("config error: ").rstrip("\n")


@pytest.mark.parametrize("entry", ["test", "sens", "upper_pvalues", "AnalysisPlan"])
def test_mcnemar_sharp_null_rule_reads_the_same_everywhere(tmp_path, capsys, entry):
    assert _sharp_null_error(entry, tmp_path, capsys) == SHARP_NULL_RULE


def test_binary_test_command(tmp_path):
    quads = tmp_path / "quadruples.csv"
    _write_binary_quadruples(quads, n_pos=9, n_neg=3, n_flat=4)
    out = tmp_path / "out"
    config = write_config(
        tmp_path / "config.yaml", tmp_path / "unused.csv", out,
        outcome={"column": "y", "kind": "binary"}, test="mcnemar",
    )
    assert cli.main(["test", "--config", str(config), "--quadruples", str(quads)]) == 0
    report = json.loads((out / "test_report.json").read_text())
    _validate(report)
    assert report["statistic"] == 9.0
    assert report["eligibility"]["n_eligible"] == 12
    assert report["eligibility"]["n_total"] == 16


@pytest.mark.parametrize("verb", ["test", "sens"])
def test_binary_verbs_filter_eligibility_once(tmp_path, monkeypatch, verb):
    calls = []
    report = binary.eligibility_report

    def counted(quads):
        calls.append(len(quads))
        return report(quads)

    monkeypatch.setattr(binary, "eligibility_report", counted)
    monkeypatch.setattr(cli, "eligibility_report", counted)
    quads = tmp_path / "quadruples.csv"
    _write_binary_quadruples(quads, n_pos=11, n_neg=2, n_flat=3)
    config = write_config(
        tmp_path / "config.yaml", tmp_path / "unused.csv", tmp_path / "out",
        outcome={"column": "y", "kind": "binary"}, test="mcnemar",
    )
    assert cli.main([verb, "--config", str(config), "--quadruples", str(quads)]) == 0
    assert calls == [16]


def test_binary_outcome_other_than_0_or_1_exits_4_naming_the_record(tmp_path, capsys):
    quads = tmp_path / "quadruples.csv"
    _write_binary_quadruples(quads, n_pos=5, n_neg=2)
    lines = quads.read_text().splitlines()
    cells = lines[3].split(",")
    cells[6] = "0.5"  # pre_control_outcome of quadruple 2
    lines[3] = ",".join(cells)
    quads.write_text("\n".join(lines) + "\n")
    config = write_config(
        tmp_path / "config.yaml", tmp_path / "unused.csv", tmp_path / "out",
        outcome={"column": "y", "kind": "binary"}, test="mcnemar",
    )
    assert cli.main(["test", "--config", str(config), "--quadruples", str(quads)]) == 4
    assert "record 'q2pc': binary outcome must be 0 or 1" in capsys.readouterr().err


def test_binary_without_eligible_quadruples_exits_4(tmp_path, capsys):
    quads = tmp_path / "quadruples.csv"
    _write_binary_quadruples(quads, n_pos=0, n_neg=0, n_flat=6)
    config = write_config(
        tmp_path / "config.yaml", tmp_path / "unused.csv", tmp_path / "out",
        outcome={"column": "y", "kind": "binary"}, test="mcnemar",
    )
    assert cli.main(["test", "--config", str(config), "--quadruples", str(quads)]) == 4
    assert "no informative quadruples" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_quadruple_outcome_exits_4(tmp_path, capsys, bad):
    quads = tmp_path / "quadruples.csv"
    _write_binary_quadruples(quads, n_pos=20, n_neg=10)
    lines = quads.read_text().splitlines()
    cells = lines[3].split(",")
    cells[6] = bad
    lines[3] = ",".join(cells)
    quads.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    config = write_config(tmp_path / "config.yaml", tmp_path / "unused.csv", out)
    for verb in ("test", "sens"):
        assert cli.main([verb, "--config", str(config), "--quadruples", str(quads)]) == 4
        err = capsys.readouterr().err
        assert "line 4" in err and "finite" in err
    assert not out.exists()


def test_kind_test_mismatch_exits_2(matched, capsys):
    config, _ = matched
    assert cli.main(["test", "--config", str(config), "--test", "mcnemar"]) == 2
    assert "mcnemar" in capsys.readouterr().err


def test_binary_sens_report(tmp_path):
    quads = tmp_path / "quadruples.csv"
    _write_binary_quadruples(quads, n_pos=11, n_neg=2)
    out = tmp_path / "out"
    config = write_config(
        tmp_path / "config.yaml", tmp_path / "unused.csv", out,
        outcome={"column": "y", "kind": "binary"}, test="mcnemar",
    )
    assert cli.main(["sens", "--config", str(config), "--quadruples", str(quads)]) == 0
    report = json.loads((out / "sens_report.json").read_text())
    _validate(report)
    assert report["outcome_kind"] == "binary"
    for row in report["grid"]:
        assert row["bound_lower"] is None and row["bound_upper"] is None
    ps = [row["p_upper"] for row in report["grid"]]
    assert all(b >= a - 1e-15 for a, b in zip(ps, ps[1:]))


def test_patterns_command(tmp_path):
    assert cli.main(["patterns", "--outdir", str(tmp_path / "svg")]) == 0
    assert len(list((tmp_path / "svg").glob("pattern_*.svg"))) == 8
