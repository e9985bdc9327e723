"""Correctness checks on the program's outputs.

Every check is one operation of the run: it passes or it counts as failed.
The matching recheck reads only the raw input CSV and the emitted pair
files, with its own arithmetic (acceptance criterion 08's logic); the
p-value checks call the package's public functions at points chosen from
the reports, and compare small cases with the brute-force oracle.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import yaml
from scipy.stats import binom, rankdata

CI_TOL = 1e-6  # invert_ci's default bisection tolerance
CHANGEPOINT_TOL = 1e-4  # changepoint_gamma's default tolerance
ORACLE_N = 16
ORACLE_ATOL = 1e-12
BAND_TAIL = 1e-6  # each tail of the binomial band for Monte Carlo rejection counts


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _result(name: str, problems: list[str]) -> dict:
    return {"check": name, "ok": not problems, "detail": "; ".join(problems) or "ok"}


def _guarded(name: str, fn, *args) -> dict:
    """Run one check; an exception inside it is a failed check."""
    try:
        return _result(name, fn(*args))
    except Exception as exc:  # noqa: BLE001 - the check failed, record why
        return _result(name, [f"{type(exc).__name__}: {exc}"])


# ---------------------------------------------------------------------------
# study workloads


def _schema_problems(report_path: Path) -> list[str]:
    import jsonschema

    import didsens

    schema_path = Path(didsens.__file__).parent / "schemas" / "report.schema.json"
    schema = json.loads(schema_path.read_text(encoding="utf-8"))
    try:
        jsonschema.validate(json.loads(report_path.read_text(encoding="utf-8")), schema)
    except jsonschema.ValidationError as exc:
        return [f"{report_path.name}: {exc.message}"]
    return []


def _period_problems(rows: list[dict], pairs_path: Path, period: int, covariates: dict) -> list[str]:
    """Recompute one period's pairing contract from raw files."""
    recs = {r["unit"]: r for r in rows if r["period"] == str(period)}
    pairs = _read_csv(pairs_path)
    t_ids = [p["treated_id"] for p in pairs]
    c_ids = [p["control_id"] for p in pairs]
    problems = []
    if not pairs:
        problems.append(f"period{period}: no pairs")
    if len(set(t_ids) | set(c_ids)) != 2 * len(pairs):
        problems.append(f"period{period}: a unit is used twice")
    if any(recs.get(i, {}).get("z") != "1" for i in t_ids) or any(recs.get(i, {}).get("z") != "0" for i in c_ids):
        problems.append(f"period{period}: a pair member is missing or has the wrong arm")
        return problems
    for name, decl in covariates.items():
        if decl["role"] == "continuous" and decl.get("threshold") is not None:
            full_t = np.array([float(r[name]) for r in recs.values() if r["z"] == "1"])
            full_c = np.array([float(r[name]) for r in recs.values() if r["z"] == "0"])
            scale = math.sqrt(0.5 * (full_t.var(ddof=1) + full_c.var(ddof=1)))
            tm = float(np.mean([float(recs[i][name]) for i in t_ids]))
            cm = float(np.mean([float(recs[i][name]) for i in c_ids]))
            sd = (tm - cm) / scale
            if abs(sd) > decl["threshold"] + 1e-12:
                problems.append(f"period{period} {name}: std diff {sd:+.4f} over cap {decl['threshold']}")
        elif decl.get("balance") == "fine":
            if Counter(recs[i][name] for i in t_ids) != Counter(recs[i][name] for i in c_ids):
                problems.append(f"period{period} {name}: fine balance violated")
        elif decl.get("balance") == "exact":
            if any(recs[t][name] != recs[c][name] for t, c in zip(t_ids, c_ids)):
                problems.append(f"period{period} {name}: exact match violated")
    return problems


def _quadruple_problems(rows: list[dict], out: Path, covariates: dict) -> list[str]:
    """Quadruples join emitted pairs, carry the right contrast, keep exact covariates constant."""
    recs = {(r["period"], r["unit"]): r for r in rows}
    pre = {(p["treated_id"], p["control_id"]) for p in _read_csv(out / "pairs_pre.csv")}
    post = {(p["treated_id"], p["control_id"]) for p in _read_csv(out / "pairs_post.csv")}
    exact = [n for n, d in covariates.items() if d.get("balance") == "exact"]
    problems = []
    quads = _read_csv(out / "quadruples.csv")
    if not quads:
        problems.append("no quadruples")
    for q in quads:
        members = [("1", q["pre_treated_id"]), ("1", q["pre_control_id"]),
                   ("2", q["post_treated_id"]), ("2", q["post_control_id"])]
        if (q["pre_treated_id"], q["pre_control_id"]) not in pre or (
            q["post_treated_id"], q["post_control_id"]) not in post:
            problems.append(f"quad {q['quad']}: not built from emitted pairs")
            break
        y = [float(recs[m]["y"]) for m in members]
        d = (y[2] - y[3]) - (y[0] - y[1])
        if abs(d - float(q["d"])) > 1e-12 * max(1.0, abs(d)):
            problems.append(f"quad {q['quad']}: d {q['d']} != recomputed {d!r}")
            break
        if any(len({recs[m][name] for m in members}) != 1 for name in exact):
            problems.append(f"quad {q['quad']}: exact covariate not constant")
            break
    return problems


def _scores(d: np.ndarray, test: str) -> np.ndarray:
    a = np.abs(d)
    if test != "signed_rank":
        return a
    q = np.zeros_like(a)
    q[a > 0] = rankdata(a[a > 0], method="average")
    return q


def _oracle_problems(quad_path: Path, test: str) -> list[str]:
    """The first ORACLE_N quadruples, read back through the CLI's reader, against full enumeration."""
    from didsens.cli import read_quadruples_csv
    from didsens.inference import ScoreFunction, randomization_pvalue
    from didsens.oracles import exact_null_distribution

    lines = quad_path.read_text(encoding="utf-8").splitlines(keepends=True)
    subset = quad_path.with_name("oracle_subset.csv")
    subset.write_text("".join(lines[: ORACLE_N + 1]), encoding="utf-8")
    score = ScoreFunction.wilcoxon() if test == "signed_rank" else ScoreFunction.absolute_value()
    got = randomization_pvalue(read_quadruples_csv(str(subset), "continuous"), score=score,
                               sided="one_sided_greater").p_value
    d = np.array([float(r["d"]) for r in _read_csv(subset)])
    q = _scores(d, test)
    want = exact_null_distribution(q[q > 0]).tail_geq(float(q[d > 0].sum()))
    if abs(got - want) > ORACLE_ATOL:
        return [f"p {got!r} vs oracle {want!r} on the first {ORACLE_N} quadruples"]
    return []


def _ci_problems(quad_path: Path, report_path: Path) -> list[str]:
    from didsens.cli import read_quadruples_csv
    from didsens.inference import ScoreFunction, randomization_pvalue

    quads = read_quadruples_csv(str(quad_path), "continuous")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    alpha = report["ci"]["alpha"]
    lo, hi, hl = report["ci"]["lower"], report["ci"]["upper"], report["hl_estimate"]
    if lo is None or hi is None:
        return [f"CI [{lo}, {hi}] is not finite"]

    def p_two(tau: float) -> float:
        return randomization_pvalue(quads, tau0=tau, score=ScoreFunction.wilcoxon(), sided="two_sided").p_value

    problems = []
    if not lo <= hl <= hi:
        problems.append(f"HL {hl!r} outside CI [{lo!r}, {hi!r}]")
    for end, inside, outside in (("lower", lo + CI_TOL, lo - CI_TOL), ("upper", hi - CI_TOL, hi + CI_TOL)):
        p_in, p_out = p_two(inside), p_two(outside)
        if not (p_in > alpha >= p_out):
            problems.append(f"{end} endpoint: p inside {p_in:.6g}, outside {p_out:.6g}, alpha {alpha}")
    return problems


def _changepoint_problems(quad_path: Path, report_path: Path) -> list[str]:
    from didsens.cli import read_quadruples_csv
    from didsens.inference import ScoreFunction
    from didsens.sensitivity import worst_case_pvalue

    quads = read_quadruples_csv(str(quad_path), "continuous")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    alpha = report["alpha"]

    def p_at(gamma: float) -> float:
        return worst_case_pvalue(quads, tau0=report["tau0"], score=ScoreFunction.wilcoxon(),
                                 gamma=gamma, sided=report["sided"]).p_value

    cp = report["changepoint"]
    if cp is None:
        p1 = p_at(1.0)
        return [] if p1 > alpha else [f"no changepoint reported but p(1) = {p1:.6g} <= alpha"]
    if cp["unbounded"]:
        return [f"unbounded changepoint: no gamma loses significance (alpha {alpha})"]
    below, above = p_at(cp["gamma"]), p_at(cp["gamma"] + 1.01 * CHANGEPOINT_TOL)
    if not (below <= alpha < above):
        return [f"changepoint {cp['gamma']!r}: p at it {below:.6g}, just above {above:.6g}, alpha {alpha}"]
    return []


def study_checks(config_path: Path) -> list[dict]:
    cfg = yaml.safe_load(config_path.read_text(encoding="utf-8"))
    out = Path(cfg["output_dir"])
    covariates = cfg["covariates"]
    results = [_guarded(f"schema:{name}", _schema_problems, out / name)
               for name in ("test_report.json", "sens_report.json")]
    rows = _read_csv(Path(cfg["input"]))
    for period, name in ((1, "pairs_pre.csv"), (2, "pairs_post.csv")):
        results.append(_guarded(f"matching:period{period}", _period_problems, rows, out / name, period, covariates))
    results.append(_guarded("matching:quadruples", _quadruple_problems, rows, out, covariates))
    results.append(_guarded("oracle:subset", _oracle_problems, out / "quadruples.csv", cfg["test"]))
    if cfg["test"] == "signed_rank":
        quad_path = out / "quadruples.csv"
        results.append(_guarded("inference:ci_brackets_alpha", _ci_problems, quad_path, out / "test_report.json"))
        results.append(_guarded("sensitivity:changepoint_brackets_alpha", _changepoint_problems,
                                quad_path, out / "sens_report.json"))
    return results


# ---------------------------------------------------------------------------
# simulate workload


def _band_problems(config_path: Path) -> list[str]:
    cfg = yaml.safe_load(config_path.read_text(encoding="utf-8"))
    reps = int(cfg["simulate"]["reps"])
    alpha = float(cfg["simulate"]["plan"].get("alpha", 0.05))
    rows = _read_csv(Path(cfg["output_dir"]) / "simulation.csv")
    reps_rows = [r for r in rows if r["rep"] != "summary"]
    summary = rows[-1]
    problems = []
    if len(reps_rows) != reps or int(float(summary["summary_reps"])) != reps:
        problems.append(f"{len(reps_rows)} replication rows for {reps} reps")
    rejects = sum(float(r["p_value"]) <= alpha for r in reps_rows)
    if any(int(r["reject"]) != (float(r["p_value"]) <= alpha) for r in reps_rows):
        problems.append("a reject flag disagrees with its p-value")
    if abs(float(summary["summary_rejection_rate"]) - rejects / max(len(reps_rows), 1)) > 1e-12:
        problems.append("summary rejection rate disagrees with the rows")
    lo, hi = binom.ppf(BAND_TAIL, reps, alpha), binom.isf(BAND_TAIL, reps, alpha)
    if not lo <= rejects <= hi:
        problems.append(f"{rejects} rejections in {reps} reps outside [{lo:.0f}, {hi:.0f}] at alpha {alpha}")
    return problems


def simulate_checks(config_paths: list[Path]) -> list[dict]:
    return [_guarded(f"simulate:{p.stem}:null_band", _band_problems, p) for p in config_paths]
