"""Command-line front end: match, test, sens, amplify, simulate, patterns.

Analyses are declared in a YAML config file; most keys can be overridden
by command-line flags.  Input is CSV with a header row, one record per
(unit, period).  Reports are written as JSON with full-precision numbers
(validating against schemas/report.schema.json) while the human-readable
summary prints 4 significant digits.  Every command is deterministic
given input bytes, config, and seed.

Exit codes: 0 success, 2 usage or config error, 3 matching infeasibility,
4 data error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import yaml

from .binary import eligibility_report
from .core import SLOTS, VALID_OUTCOME_KINDS, MatchedPair, QuadrupleSet, UnitRecord, validate_dataset
from .errors import ConfigError, DataError, InfeasibleMatchError
from .inference import SIDES, hodges_lehmann, invert_ci, randomization_pvalue
from .matching import (
    OBJECTIVES,
    BalanceRow,
    BalanceSpec,
    NominalRule,
    balance_report,
    cross_balance_report,
    cross_period_match,
    within_period_match,
)
from .patterns import write_pattern_svgs
from .sensitivity import (
    SCORE_TESTS,
    SHARP_NULL_RULE,
    TESTS,
    amplify_did,
    amplify_paired,
    changepoint_gamma,
    estimate_bounds,
    outcome_takes_test,
    score_for,
    upper_pvalues,
)
from .simulate import AnalysisPlan, BinaryDesign, ContinuousDesign, level_power_study

SCHEMA_VERSION = 1
ROLES = ("continuous", "nominal")


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class AnalysisConfig:
    """Validated analysis configuration (see README for the YAML layout)."""

    input: str | None = None
    output_dir: str = "."
    seed: int = 0
    outcome_column: str | None = None
    outcome_kind: str = "continuous"
    period_column: str = "period"
    period_labels: dict | None = None
    treatment_column: str = "z"
    id_column: str | None = None
    covariates: dict = field(default_factory=dict)
    objective: str = "maximize_pairs"
    caliper: float | None = None
    test: str = "signed_rank"
    alpha: float = 0.05
    tau0: float = 0.0
    sided: str = "one_sided_greater"
    gammas: tuple = (1.0,)
    amplification_lambdas: tuple = ()
    simulate: dict | None = None

    def __post_init__(self) -> None:
        names = {"input": self.input, "outcome.column": self.outcome_column,
                 "period.column": self.period_column, "treatment.column": self.treatment_column,
                 "id.column": self.id_column}
        for key, value in names.items():
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"{key} must be a string, got {value!r}")
        if self.outcome_kind not in VALID_OUTCOME_KINDS:
            raise ConfigError(f"outcome.kind must be one of {VALID_OUTCOME_KINDS}, got {self.outcome_kind!r}")
        if self.test not in TESTS:
            raise ConfigError(f"test must be one of {TESTS}, got {self.test!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed}")
        if not math.isfinite(self.tau0):
            raise ConfigError(f"tau0 must be finite, got {self.tau0}")
        for g in self.gammas:
            if not 1.0 <= g < math.inf:
                raise ConfigError(f"gammas must be finite and >= 1, got {g}")
            if not math.isfinite(g * g):
                raise ConfigError(f"gammas must have a finite square, got {g}")
        for lam in self.amplification_lambdas:
            if not 1.0 < lam < math.inf:
                raise ConfigError(f"amplification_lambdas must be finite and exceed 1, got {lam}")


def _as_float_tuple(value, key: str) -> tuple:
    if isinstance(value, (int, float)):
        value = [value]
    if isinstance(value, str):
        value = [v for v in value.split(",") if v.strip()]
    try:
        return tuple(float(v) for v in value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a list of numbers") from None


def _section(raw: dict, key: str) -> dict:
    """raw[key], a mapping; absent or empty gives {}."""
    value = raw.get(key) or {}
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a mapping, got {value!r}")
    return value


def _number(value, key: str, kind=float):
    """value as a float, or as an int when kind is int; otherwise a ConfigError naming key."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {noun}, got {value!r}") from None


def _parse_covariates(section: dict) -> dict:
    """Covariate name -> its cap on |std diff| (math.inf for none) if continuous, else its NominalRule."""
    out = {}
    for name, decl in section.items():
        if not isinstance(decl, dict) or "role" not in decl:
            raise ConfigError(f"covariate {name!r} needs a mapping with a 'role' key")
        role = decl["role"]
        if role not in ROLES:
            raise ConfigError(f"covariate {name!r}: role must be one of {ROLES}")
        threshold = decl.get("threshold")
        if threshold is not None and role != "continuous":
            raise ConfigError(f"covariate {name!r}: threshold applies to continuous covariates")
        balance = decl.get("balance", "none")
        k = _number(decl.get("k", 0), f"covariates.{name}.k", int)
        if role == "nominal":
            out[str(name)] = NominalRule(kind=balance, k=k)
        elif balance != "none":
            raise ConfigError(f"covariate {name!r}: balance rules apply to nominal covariates")
        elif threshold is None:
            out[str(name)] = math.inf
        else:
            out[str(name)] = _number(threshold, f"covariates.{name}.threshold")
    return out


# libyaml's safe loader, when PyYAML is built with it: the same constructor and resolver as
# yaml.safe_load, so the same objects, parsed in C.
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load_config(path: str) -> AnalysisConfig:
    """Load and validate a YAML config file."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.load(p.read_text(encoding="utf-8"), Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error: {exc}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    return config_from_mapping(raw)


def config_from_mapping(raw: dict) -> AnalysisConfig:
    outcome, period, treatment, ident, matching = (
        _section(raw, key) for key in ("outcome", "period", "treatment", "id", "matching")
    )
    labels = period.get("labels")
    if labels is not None:
        try:
            labels = {str(k): int(v) for k, v in labels.items()}
        except (AttributeError, TypeError, ValueError):
            raise ConfigError("period.labels must map raw period values to 1 or 2") from None
        if not set(labels.values()) <= {1, 2}:
            raise ConfigError("period.labels values must be 1 or 2")
    caliper = matching.get("caliper")
    return AnalysisConfig(
        input=raw.get("input"),
        output_dir=str(raw.get("output_dir", ".")),
        seed=_number(raw.get("seed", 0), "seed", int),
        outcome_column=outcome.get("column"),
        outcome_kind=outcome.get("kind", "continuous"),
        period_column=period.get("column", "period"),
        period_labels=labels,
        treatment_column=treatment.get("column", "z"),
        id_column=ident.get("column"),
        covariates=_parse_covariates(_section(raw, "covariates")),
        objective=matching.get("objective", "maximize_pairs"),
        caliper=None if caliper is None else _number(caliper, "matching.caliper"),
        test=raw.get("test", "signed_rank"),
        alpha=_number(raw.get("alpha", 0.05), "alpha"),
        tau0=_number(raw.get("tau0", 0.0), "tau0"),
        sided=raw.get("sided", "one_sided_greater"),
        gammas=tuple(sorted(_as_float_tuple(raw.get("gammas", [1.0]), "gammas"))),
        amplification_lambdas=_as_float_tuple(
            raw.get("amplification_lambdas", []), "amplification_lambdas"
        ),
        simulate=_section(raw, "simulate") or None,
    )


def _config_with_overrides(args) -> AnalysisConfig:
    """The config file's settings, each overridden by the flag of the same name when one is given."""
    cfg = load_config(args.config)
    flags = {f.name: getattr(args, f.name, None) for f in fields(cfg)}
    updates = {name: value for name, value in flags.items() if value is not None}
    if "gammas" in updates:
        updates["gammas"] = tuple(sorted(_as_float_tuple(args.gammas, "gammas")))
    if getattr(args, "lambdas", None) is not None:
        updates["amplification_lambdas"] = _as_float_tuple(args.lambdas, "lambdas")
    return replace(cfg, **updates) if updates else cfg


# ---------------------------------------------------------------------------
# CSV ingestion


def _require_columns(fieldnames, needed: list[str], path: str) -> None:
    present = set(fieldnames or [])
    for col in needed:
        if col not in present:
            raise ConfigError(f"{path}: missing column {col!r}")


def read_unit_records(path: str, cfg: AnalysisConfig) -> list[UnitRecord]:
    """Parse the input CSV into UnitRecords; errors carry line numbers."""
    if cfg.outcome_column is None:
        raise ConfigError("outcome.column is required")
    p = Path(path)
    if not p.is_file():
        raise DataError(f"input file not found: {path}")
    records = []
    with p.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        needed = [cfg.outcome_column, cfg.period_column, cfg.treatment_column]
        if cfg.id_column:
            needed.append(cfg.id_column)
        needed.extend(cfg.covariates)
        _require_columns(reader.fieldnames, needed, path)
        for lineno, row in enumerate(reader, start=2):
            records.append(_parse_row(row, lineno, cfg))
    if not records:
        raise DataError(f"{path}: no data rows")
    return records


def _parse_row(row: dict, lineno: int, cfg: AnalysisConfig) -> UnitRecord:
    def fail(msg: str):
        raise DataError(f"line {lineno}: {msg}") from None

    raw_period = row[cfg.period_column]
    if cfg.period_labels is not None:
        if str(raw_period) not in cfg.period_labels:
            fail(f"period value {raw_period!r} not in period.labels")
        period = cfg.period_labels[str(raw_period)]
    else:
        try:
            period = int(raw_period)
        except (TypeError, ValueError):
            fail(f"period value {raw_period!r} is not an integer (declare period.labels?)")
        if period not in (1, 2):
            fail(f"period must be 1 or 2, got {period}")
    if row[cfg.treatment_column] not in ("0", "1", 0, 1):
        fail(f"treatment value {row[cfg.treatment_column]!r} must be 0 or 1")
    z = int(row[cfg.treatment_column])
    try:
        outcome = float(row[cfg.outcome_column])
    except (TypeError, ValueError):
        fail(f"outcome value {row[cfg.outcome_column]!r} is not a number")
    covariates = {}
    for name, rule in cfg.covariates.items():
        value = row[name]
        if isinstance(rule, NominalRule):
            covariates[name] = str(value)
            continue
        try:
            covariates[name] = float(value)
        except (TypeError, ValueError):
            fail(f"covariate {name!r} value {value!r} is not a number")
    unit_id = row[cfg.id_column] if cfg.id_column else f"row{lineno}"
    return UnitRecord(id=unit_id, period=period, z=z, outcome=outcome, covariates=covariates)


def _balance_spec(cfg: AnalysisConfig) -> BalanceSpec:
    nominal = {name: rule for name, rule in cfg.covariates.items() if isinstance(rule, NominalRule)}
    continuous = {name: cap for name, cap in cfg.covariates.items() if name not in nominal}
    return BalanceSpec(continuous=continuous, nominal=nominal, caliper=cfg.caliper, objective=cfg.objective)


# ---------------------------------------------------------------------------
# artifact writers


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_pairs_csv(path: Path, pairs: list[MatchedPair]) -> None:
    rows = [
        [i, p.treated.id, p.control.id, repr(float(p.treated.outcome)), repr(float(p.control.outcome))]
        for i, p in enumerate(pairs)
    ]
    _write_csv(path, ["pair", "treated_id", "control_id", "treated_outcome", "control_outcome"], rows)


def _write_quadruples_csv(path: Path, quads: QuadrupleSet) -> None:
    header = ["quad", *(f"{slot}_id" for slot in SLOTS), *(f"{slot}_outcome" for slot in SLOTS), "d"]
    rows = [
        [i, *ids, *map(repr, outcomes), repr(d)]
        for i, (ids, outcomes, d) in enumerate(
            zip(quads.ids.tolist(), quads.outcomes.tolist(), quads.d_values().tolist())
        )
    ]
    _write_csv(path, header, rows)


def _write_balance_csv(path: Path, reports: list) -> None:
    """One row per (stage, covariate): the stage, the BalanceRow fields, then the stage counts."""
    columns = [f.name for f in fields(BalanceRow)]
    counts = ("n_treated_before", "n_control_before", "n_matched")
    rows = [
        [rep.stage, *(_csv_cell(getattr(r, c)) for c in columns), *(getattr(rep, c) for c in counts)]
        for rep in reports
        for r in rep.rows
    ]
    _write_csv(path, ["stage", *columns, *counts], rows)


def read_quadruples_csv(path: str, outcome_kind: str) -> QuadrupleSet:
    """Rebuild a QuadrupleSet from a quadruples.csv written by cmd_match."""
    p = Path(path)
    if not p.is_file():
        raise DataError(f"quadruples file not found: {path}")
    id_columns = [f"{slot}_id" for slot in SLOTS]
    outcome_columns = [f"{slot}_outcome" for slot in SLOTS]
    ids, outcomes = [], []
    with p.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader.fieldnames, id_columns + outcome_columns, path)
        for lineno, row in enumerate(reader, start=2):
            try:
                values = [float(row[col]) for col in outcome_columns]
            except (TypeError, ValueError):
                raise DataError(f"line {lineno}: outcome values must be numbers") from None
            if not all(map(math.isfinite, values)):
                raise DataError(f"line {lineno}: outcome values must be finite")
            outcomes.append(values)
            ids.append([row[col] for col in id_columns])
    if not ids:
        raise DataError(f"{path}: no quadruples")
    return QuadrupleSet(ids, outcomes, outcome_kind)


def _output_dir(cfg: AnalysisConfig) -> Path:
    """cfg.output_dir, created if missing."""
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _write_json_report(path: Path, report: dict) -> None:
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


def _sig4(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.4g}"


# ---------------------------------------------------------------------------
# commands


def cmd_match(cfg: AnalysisConfig) -> int:
    if cfg.input is None:
        raise ConfigError("input is required for match")
    records = read_unit_records(cfg.input, cfg)
    validate_dataset(records, outcome_kind=cfg.outcome_kind)
    spec = _balance_spec(cfg)
    pre = [r for r in records if r.period == 1]
    post = [r for r in records if r.period == 2]
    pre_pairs = within_period_match(pre, spec)
    post_pairs = within_period_match(post, spec)
    quads, details = cross_period_match(pre_pairs, post_pairs, spec, outcome_kind=cfg.outcome_kind)
    reports = [
        balance_report(pre, pre_pairs, seed=cfg.seed),
        balance_report(post, post_pairs, seed=cfg.seed),
        cross_balance_report(details, seed=cfg.seed),
    ]
    outdir = _output_dir(cfg)
    _write_pairs_csv(outdir / "pairs_pre.csv", pre_pairs)
    _write_pairs_csv(outdir / "pairs_post.csv", post_pairs)
    _write_quadruples_csv(outdir / "quadruples.csv", quads)
    _write_balance_csv(outdir / "balance.csv", reports)
    print(f"period 1: {len(pre_pairs)} pairs from {len(pre)} records")
    print(f"period 2: {len(post_pairs)} pairs from {len(post)} records")
    print(f"quadruples: {len(quads)}")
    for rep in reports:
        finite = [abs(r.std_diff_after) for r in rep.rows if math.isfinite(r.std_diff_after)]
        worst = max(finite) if finite else float("nan")
        print(f"balance[{rep.stage}]: worst |std diff| after = {_sig4(worst)}")
    print(f"wrote pairs_pre.csv pairs_post.csv quadruples.csv balance.csv in {outdir}")
    return 0


def _check_kind_test(outcome_kind: str, test: str, kind_key="outcome.kind", test_key="test") -> None:
    """`outcome_takes_test` for every verb, as a ConfigError naming the config keys."""
    if not outcome_takes_test(outcome_kind, test):
        raise ConfigError(f"{kind_key} {outcome_kind} does not take {test_key} {test}: "
                          "binary outcomes take mcnemar, and only they do")


def _load_quadruples(cfg: AnalysisConfig, quad_path: str):
    """(quadruples, eligibility report or None) for cmd_test and cmd_sens.

    A binary set must test the sharp null and hold an informative quadruple."""
    _check_kind_test(cfg.outcome_kind, cfg.test)
    quads = read_quadruples_csv(quad_path, cfg.outcome_kind)
    if cfg.outcome_kind != "binary":
        return quads, None
    if cfg.tau0 != 0.0:
        raise ConfigError(SHARP_NULL_RULE)
    elig = eligibility_report(quads)
    if not elig.eligible:
        histogram = ", ".join(f"{k}={v}" for k, v in sorted(elig.reasons.items()))
        raise DataError(
            f"no informative quadruples among {elig.n_total} "
            f"(exclusion counts, not mutually exclusive: {histogram})"
        )
    return quads, elig


def _report_head(command: str, cfg: AnalysisConfig, quads: QuadrupleSet, **settings) -> dict:
    """The keys that open the test and sens reports, with settings before n_quadruples."""
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "outcome_kind": cfg.outcome_kind,
        "test": cfg.test,
        "sided": cfg.sided,
        "tau0": cfg.tau0,
        **settings,
        "n_quadruples": len(quads),
    }


def cmd_test(cfg: AnalysisConfig, quad_path: str) -> int:
    quads, elig = _load_quadruples(cfg, quad_path)
    report = _report_head("test", cfg, quads)
    if elig is not None:
        report["eligibility"] = {
            "n_total": elig.n_total,
            "n_eligible": len(elig.eligible),
            "reasons": dict(sorted(elig.reasons.items())),
        }
    rank_test = cfg.test in SCORE_TESTS
    if rank_test:
        res = randomization_pvalue(quads, tau0=cfg.tau0, score=score_for(cfg.test), sided=cfg.sided)
    else:
        res = upper_pvalues(quads, cfg.test, cfg.tau0, cfg.sided)(1.0)
    report.update(
        {
            "statistic": res.statistic,
            "p_value": res.p_value,
            "method": res.method,
            "n_effective": res.n_effective,
        }
    )
    if rank_test:
        lo, hi = invert_ci(quads, alpha=cfg.alpha, score=score_for(cfg.test))
        report["hl_estimate"] = hodges_lehmann(quads)
        report["ci"] = {"lower": _json_num(lo), "upper": _json_num(hi), "alpha": cfg.alpha}
    outdir = _output_dir(cfg)
    _write_json_report(outdir / "test_report.json", report)
    print(f"test: {cfg.test} ({cfg.sided}), n = {report['n_quadruples']}")
    if "eligibility" in report:
        e = report["eligibility"]
        print(f"informative quadruples: {e['n_eligible']} of {e['n_total']}")
    print(f"statistic = {_sig4(res.statistic)}")
    print(f"p-value at tau0 = {_sig4(cfg.tau0)}: {_sig4(res.p_value)}")
    if "hl_estimate" in report:
        ci = report["ci"]
        lo_s = "-inf" if ci["lower"] is None else _sig4(ci["lower"])
        hi_s = "inf" if ci["upper"] is None else _sig4(ci["upper"])
        print(
            f"shift estimate = {_sig4(report['hl_estimate'])}, "
            f"{(1 - cfg.alpha) * 100:.4g}% CI [{lo_s}, {hi_s}]"
        )
    print(f"wrote {outdir / 'test_report.json'}")
    return 0


def _json_num(x: float):
    """JSON-safe number: infinities become null."""
    if x is None or not math.isfinite(x):
        return None
    return float(x)


def _amplification_rows(gamma: float, lambdas) -> list[dict]:
    """One row per lambda; outside the curves' domain amplify_did raises ValueError (exit 2)."""
    return [
        {"lam": lam, "delta_did": amplify_did(gamma, lam), "delta_paired": amplify_paired(gamma, lam)}
        for lam in lambdas
    ]


def cmd_sens(cfg: AnalysisConfig, quad_path: str) -> int:
    quads, _ = _load_quadruples(cfg, quad_path)
    rank_test = cfg.test in SCORE_TESTS
    pvalue = upper_pvalues(quads, cfg.test, cfg.tau0, cfg.sided)
    grid = []
    for gamma in cfg.gammas:
        res = pvalue(gamma)
        lo, hi = estimate_bounds(quads, gamma=gamma, score=score_for(cfg.test)) if rank_test else (None, None)
        grid.append(
            {
                "gamma": gamma,
                "gamma_squared": gamma * gamma,
                "p_upper": res.p_value,
                "bound_lower": _json_num(lo),
                "bound_upper": _json_num(hi),
                # lambdas at or below gamma > 1 lie past the asymptote at lam = gamma
                "amplification": _amplification_rows(
                    gamma, [lam for lam in cfg.amplification_lambdas if gamma == 1.0 or lam > gamma]
                ),
            }
        )
    cp = changepoint_gamma(pvalue, cfg.alpha)
    if cp is None:
        changepoint = None
    else:
        changepoint = {
            "gamma": _json_num(cp),
            "gamma_squared": _json_num(cp * cp) if math.isfinite(cp) else None,
            "unbounded": not math.isfinite(cp),
        }
    report = {**_report_head("sens", cfg, quads, alpha=cfg.alpha), "grid": grid, "changepoint": changepoint}
    outdir = _output_dir(cfg)
    _write_json_report(outdir / "sens_report.json", report)
    print(f"sensitivity analysis: {cfg.test} ({cfg.sided}), n = {report['n_quadruples']}")
    header = "gamma    gamma^2  p_upper"
    if rank_test:
        header += "  est_lower  est_upper"
    print(header)
    for row in grid:
        line = f"{row['gamma']:<8.4g} {row['gamma_squared']:<8.4g} {_sig4(row['p_upper'])}"
        if rank_test:
            line += f"    {_sig4(row['bound_lower'])}      {_sig4(row['bound_upper'])}"
        print(line)
    if changepoint is None:
        print(f"changepoint: none (p > {_sig4(cfg.alpha)} already at gamma = 1)")
    elif changepoint["unbounded"]:
        print("changepoint: unbounded (significant at every probed gamma)")
    else:
        print(
            f"changepoint gamma* = {_sig4(changepoint['gamma'])} "
            f"(internal gamma^2 = {_sig4(changepoint['gamma_squared'])})"
        )
    for row in grid:
        for amp in row["amplification"]:
            print(
                f"amplify gamma={_sig4(row['gamma'])}: lambda={_sig4(amp['lam'])} -> "
                f"delta={_sig4(amp['delta_did'])} (paired design: {_sig4(amp['delta_paired'])})"
            )
    print(f"wrote {outdir / 'sens_report.json'}")
    return 0


def cmd_amplify(gamma: float, lambdas, json_path: str | None) -> int:
    if not lambdas:
        raise ConfigError("at least one lambda is required")
    for key, value in (("--gamma", gamma), *(("--lambdas", lam) for lam in lambdas)):
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
    rows = _amplification_rows(gamma, lambdas)
    print(f"amplification of gamma = {_sig4(gamma)} (did gamma^2 = {_sig4(gamma * gamma)})")
    print("lambda   delta_did  delta_paired")
    for row in rows:
        print(f"{row['lam']:<8.4g} {_sig4(row['delta_did']):<10} {_sig4(row['delta_paired'])}")
    if json_path:
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": "amplify",
            "gamma": gamma,
            "gamma_squared": gamma * gamma,
            "rows": rows,
        }
        _write_json_report(Path(json_path), report)
        print(f"wrote {json_path}")
    return 0


def cmd_simulate(cfg: AnalysisConfig) -> int:
    section = cfg.simulate
    if not section:
        raise ConfigError("config needs a 'simulate' section")
    kind = section.get("design", "continuous")
    if kind not in VALID_OUTCOME_KINDS:
        raise ConfigError(f"simulate.design must be one of {VALID_OUTCOME_KINDS}")
    reps = _number(section.get("reps", 0), "simulate.reps", int)
    if reps < 1:
        raise ConfigError("simulate.reps must be >= 1")
    params = section.get("params", {}) or {}
    plan_params = section.get("plan", {}) or {}
    try:
        design = (BinaryDesign if kind == "binary" else ContinuousDesign)(**params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"simulate.params: {exc}") from None
    try:
        plan = AnalysisPlan(**plan_params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"simulate.plan: {exc}") from None
    _check_kind_test(kind, plan.test, "simulate.design", "simulate.plan.test")
    try:
        result = level_power_study(design, plan, reps=reps, seed=cfg.seed)
    except DataError as exc:  # the data come from simulate.params, so they are at fault
        raise ConfigError(f"simulate.params: {exc}") from None
    outdir = _output_dir(cfg)
    path = outdir / "simulation.csv"
    rep_cols = []
    for row in result.rows:
        for key in row:
            if key not in rep_cols:
                rep_cols.append(key)
    sum_cols = [f"summary_{k}" for k in result.summary]
    rows = []
    for row in result.rows:
        rows.append([_csv_cell(row.get(c)) for c in rep_cols] + [""] * len(sum_cols))
    rows.append(
        ["summary"] + [""] * (len(rep_cols) - 1) + [_csv_cell(v) for v in result.summary.values()]
    )
    _write_csv(path, rep_cols + sum_cols, rows)
    print(f"{reps} replications of {kind} design, test = {plan.test}, gamma = {_sig4(plan.gamma)}")
    print(f"rejection rate at alpha = {_sig4(plan.alpha)}: {_sig4(result.summary['rejection_rate'])}")
    print(f"wrote {path}")
    return 0


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))
    return v


def cmd_patterns(outdir: str) -> int:
    paths = write_pattern_svgs(outdir)
    print(f"wrote {len(paths)} schematic panels in {Path(outdir)}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _add_config_parser(sub, name: str, help: str):
    """A subcommand that reads a config file, with the overrides every such subcommand takes."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--config", required=True, help="YAML config file")
    p.add_argument("--input", help="input CSV (overrides config)")
    p.add_argument("--output-dir", dest="output_dir", help="output directory (overrides config)")
    p.add_argument("--seed", type=int, help="seed (overrides config)")
    return p


def _add_analysis_parser(sub, name: str, help: str):
    """The subcommand for test or sens, with the options the two share."""
    p = _add_config_parser(sub, name, help)
    p.add_argument("--quadruples", help="quadruples.csv from match (default: <output_dir>/quadruples.csv)")
    p.add_argument("--test", choices=TESTS)
    p.add_argument("--alpha", type=float)
    p.add_argument("--tau0", type=float)
    p.add_argument("--sided", choices=SIDES)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="didsens",
        description="Matched differences-in-differences analysis with sensitivity bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_config_parser(sub, "match", "three-stage matching into quadruples")
    p.add_argument("--objective", choices=OBJECTIVES)
    p.add_argument("--caliper", type=float)

    _add_analysis_parser(sub, "test", "randomization test on matched quadruples")

    p = _add_analysis_parser(sub, "sens", "worst-case p-values over a gamma grid")
    p.add_argument("--gammas", help="comma-separated gamma grid (overrides config)")
    p.add_argument("--lambdas", help="comma-separated lambdas for amplification tables")

    p = sub.add_parser("amplify", help="gamma <-> (lambda, delta) amplification table")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--lambdas", required=True, help="comma-separated lambda values")
    p.add_argument("--json", dest="json_path", help="also write a JSON report here")

    _add_config_parser(sub, "simulate", "Monte Carlo level/power study")

    p = sub.add_parser("patterns", help="schematic before/after response panels")
    p.add_argument("--outdir", default=".", help="directory for the SVG files")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "amplify":
            return cmd_amplify(args.gamma, _as_float_tuple(args.lambdas, "lambdas"), args.json_path)
        if args.command == "patterns":
            return cmd_patterns(args.outdir)
        cfg = _config_with_overrides(args)
        if args.command == "match":
            return cmd_match(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        quad_path = getattr(args, "quadruples", None) or str(Path(cfg.output_dir) / "quadruples.csv")
        if args.command == "test":
            return cmd_test(cfg, quad_path)
        return cmd_sens(cfg, quad_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleMatchError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
