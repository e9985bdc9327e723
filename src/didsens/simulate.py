"""Synthetic data generators and Monte Carlo study driver.

Both generators build quadruples from a latent two-period model with unit
fixed effects, a common period shift, and an unobserved binary trait per
unit whose assignment-side and outcome-side influence is controlled by
log-odds coefficients (lambda1, lambda2 and delta1, delta2).  With all
four coefficients at zero the designs are randomized: signs are fair
coins and the worst-case tests reduce to their nominal levels.

The continuous generator works on the observed scale.  Fixed effects and
period shifts cancel exactly in the contrast; what remains is the
treatment effect plus a residual contrast whose sign the hidden trait may
tilt.  The generator draws that latent contrast, retilts only its sign,
and reconstructs one post-period residual so the emitted outcomes remain
ordinary per-unit outcomes.  The binary generator needs no such device: the
hidden trait sits directly in the outcome logit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np
from scipy.special import expit

from .binary import eligible_quadruples
from .core import QuadrupleSet
from .errors import StructuralError
from .inference import ScoreFunction, TestResult, hodges_lehmann
from .sensitivity import (
    SHARP_NULL_RULE,
    TESTS,
    changepoint_gamma,
    estimate_bounds,
    outcome_takes_test,
    score_for,
    upper_pvalues,
    worst_case_pvalue,
)

RESIDUALS = ("normal", "lognormal")
U_DISTS = ("bernoulli", "uniform")
# Replications per engine call in `level_power_study`: a batch shares its DPs, and its size bounds its memory.
BATCH_REPS = 32


@dataclass(frozen=True)
class ContinuousDesign:
    """Continuous-outcome generator configuration.

    tau is the constant treatment effect; tau_heterogeneity_sd adds
    unit-level normal noise around it.  residual selects the unit noise
    law ("lognormal" gives a long right tail).  u_dist draws the hidden
    trait at the {0,1} corners ("bernoulli") or uniformly in [0,1].
    """

    n_quadruples: int
    tau: float = 0.0
    tau_heterogeneity_sd: float = 0.0
    mu_sd: float = 1.0
    alpha_sd: float = 1.0
    beta_sd: float = 1.0
    residual: str = "normal"
    residual_scale: float = 1.0
    lambda1: float = 0.0
    lambda2: float = 0.0
    delta1: float = 0.0
    delta2: float = 0.0
    u_dist: str = "bernoulli"

    def __post_init__(self) -> None:
        _check_numbers(self)
        if self.n_quadruples < 1:
            raise ValueError("n_quadruples must be >= 1")
        if self.residual not in RESIDUALS:
            raise ValueError(f"residual must be one of {RESIDUALS}")
        if self.u_dist not in U_DISTS:
            raise ValueError(f"u_dist must be one of {U_DISTS}")


@dataclass(frozen=True)
class BinaryDesign:
    """Binary-outcome generator configuration.

    Outcomes are Bernoulli draws from a logit with unit effects, a period
    shift, the hidden trait scaled by delta1/delta2, and tau_logit added
    for treated period-2 units.  mu_mean shifts the base rate (large
    negative values produce rare events and few informative quadruples).
    """

    n_quadruples: int
    tau_logit: float = 0.0
    mu_mean: float = 0.0
    mu_sd: float = 1.0
    alpha_sd: float = 0.5
    beta_sd: float = 0.5
    lambda1: float = 0.0
    lambda2: float = 0.0
    delta1: float = 0.0
    delta2: float = 0.0
    u_dist: str = "bernoulli"

    def __post_init__(self) -> None:
        _check_numbers(self)
        if self.n_quadruples < 1:
            raise ValueError("n_quadruples must be >= 1")
        if self.u_dist not in U_DISTS:
            raise ValueError(f"u_dist must be one of {U_DISTS}")


def _check_numbers(spec) -> None:
    """Each int field of a design or plan holds an integer and each float field a finite number.

    A field typed "... | None" may also hold None.  A spread (a field named *_sd or
    *_scale) must be >= 0.
    """
    for f in fields(spec):
        value, kind = getattr(spec, f.name), f.type.removesuffix(" | None")
        if kind not in ("int", "float") or (value is None and kind != f.type):
            continue
        number, noun = (Integral, "an integer") if kind == "int" else (Real, "a finite number")
        if isinstance(value, bool) or not isinstance(value, number) or not math.isfinite(value):
            raise ValueError(f"{f.name} must be {noun}, got {value!r}")
        if f.name.endswith(("_sd", "_scale")) and value < 0:
            raise ValueError(f"{f.name} must be >= 0, got {value!r}")


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def _draw_u(rng: np.random.Generator, dist: str, shape) -> np.ndarray:
    if dist == "bernoulli":
        return rng.integers(0, 2, size=shape).astype(np.float64)
    return rng.random(shape)


def _draw_units(rng: np.random.Generator, design, mu_mean: float) -> tuple[np.ndarray, ...]:
    """(mu, alpha, beta, b, u, du1, du2), the draws both generators open with, in stream order.

    du1 and du2 are the within-pair differences of u in periods 1 and 2."""
    n = design.n_quadruples
    mu = rng.normal(mu_mean, design.mu_sd, n)
    alpha = rng.normal(0.0, design.alpha_sd, n)
    beta = rng.normal(0.0, design.beta_sd, n)
    b = 2 * rng.integers(0, 2, n) - 1
    u = _draw_u(rng, design.u_dist, (n, 2, 2))
    return mu, alpha, beta, b, u, u[:, 0, 0] - u[:, 0, 1], u[:, 1, 0] - u[:, 1, 1]


def _draw_assignment(
    rng: np.random.Generator, design, du1: np.ndarray, du2: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Period assignment contrasts (v1, v2), v2 tilted by the lambdas."""
    rho = expit(design.lambda2 * du2 + b * design.lambda1 * du1)
    v2 = np.where(rng.random(du1.size) < rho, 1, -1)
    return v2 * b, v2


def _slot_z(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Treatment indicators by (quadruple, period, slot); slot 0 treated iff v=+1."""
    v = np.stack([v1, v2], axis=1)
    z = np.empty((v.shape[0], 2, 2), dtype=np.int64)
    z[:, :, 0] = v == 1
    z[:, :, 1] = v == -1
    return z


def generate_continuous(design: ContinuousDesign, seed=None) -> tuple[np.ndarray, np.ndarray]:
    """Draw (z, outcomes) from the continuous model.

    Both arrays are (n_quadruples, 2, 2), indexed by quadruple, period and
    member; z is 1 for the member treated in that period.
    """
    rng = _rng(seed)
    n = design.n_quadruples
    mu, alpha, beta, b, u, du1, du2 = _draw_units(rng, design, 0.0)
    if design.residual == "normal":
        eps = rng.normal(0.0, design.residual_scale, (n, 2, 2))
    else:
        eps = rng.lognormal(0.0, design.residual_scale, (n, 2, 2))
    # Latent contrast of residuals; retilt its sign, keep its magnitude.
    y_raw = (eps[:, 1, 0] - eps[:, 1, 1]) - b * (eps[:, 0, 0] - eps[:, 0, 1])
    eta = expit(design.delta2 * du2 - b * design.delta1 * du1)
    sign = np.where(rng.random(n) < eta, 1.0, -1.0)
    y = sign * np.abs(y_raw)
    eps[:, 1, 0] = y + eps[:, 1, 1] + b * (eps[:, 0, 0] - eps[:, 0, 1])
    v1, v2 = _draw_assignment(rng, design, du1, du2, b)
    tau_units = design.tau + (
        rng.normal(0.0, design.tau_heterogeneity_sd, (n, 2))
        if design.tau_heterogeneity_sd > 0
        else np.zeros((n, 2))
    )
    z = _slot_z(v1, v2)
    post = np.array([0.0, 1.0])[None, :, None]
    outcomes = (
        mu[:, None, None]
        + beta[:, None, None] * z
        + eps
        + post * (alpha[:, None, None] + tau_units[:, None, :] * z)
    )
    return z, outcomes


def generate_binary(design: BinaryDesign, seed=None) -> tuple[np.ndarray, np.ndarray]:
    """Draw (z, outcomes) from the binary logit model, shaped as in generate_continuous."""
    rng = _rng(seed)
    n = design.n_quadruples
    mu, alpha, beta, b, u, du1, du2 = _draw_units(rng, design, design.mu_mean)
    v1, v2 = _draw_assignment(rng, design, du1, du2, b)
    z = _slot_z(v1, v2)
    deltas = np.array([design.delta1, design.delta2])[None, :, None]
    post = np.array([0.0, 1.0])[None, :, None]
    logits = (
        mu[:, None, None]
        + beta[:, None, None] * z
        + deltas * u
        + post * (alpha[:, None, None] + design.tau_logit * z)
    )
    outcomes = (rng.random((n, 2, 2)) < expit(logits)).astype(np.float64)
    return z, outcomes


@functools.lru_cache(maxsize=1)
def _unit_ids(n: int) -> np.ndarray:
    """Read-only (n, 2, 2) unit ids "q{i:05d}-p{t}-{a|b}", built once per size."""
    ids = np.array([f"q{i:05d}-p{t}-{m}" for i in range(n) for t in (1, 2) for m in "ab"]).reshape(n, 2, 2)
    ids.flags.writeable = False
    return ids


def quadruples_from_records(
    units: tuple[np.ndarray, np.ndarray], outcome_kind: str = "continuous"
) -> QuadrupleSet:
    """Place generator output (z, outcomes) into quadruple slots.

    Member j of quadruple i in period t gets the unit id
    "q{i:05d}-p{t}-{a|b}"; each period's treated member fills the treated
    slot of that period.  Each (quadruple, period) puts its two members into
    two slots, so the units are distinct without a check, and the ids are
    built when first read.
    """
    z, outcomes = (np.asarray(a) for a in units)
    if z.ndim != 3 or z.shape[1:] != (2, 2) or outcomes.shape != z.shape:
        raise StructuralError(
            f"expected (n, 2, 2) treatment and outcome arrays, got {z.shape} and {outcomes.shape}"
        )
    a, b = z[:, :, 0], z[:, :, 1]
    with np.errstate(over="ignore", invalid="ignore"):  # inf or huge flags are reported as bad below
        bad = np.argwhere((a + b != 1) | (a * b != 0))
    if bad.size:
        i, t = bad[0]
        raise StructuralError(f"quadruple 'q{i:05d}' period {t + 1} is not a treated-control pair")
    n = z.shape[0]
    a_treated = z[:, :, :1] == 1

    def slots(by_member: np.ndarray) -> np.ndarray:
        """(n, 4) rows in SLOTS order from (n, 2, 2) values by quadruple, period and member."""
        return np.where(a_treated, by_member, by_member[:, :, ::-1]).reshape(n, 4)

    return QuadrupleSet._of_distinct_units(
        ids=lambda: slots(_unit_ids(n)),
        outcomes=slots(outcomes).astype(np.float64, copy=False),
        outcome_kind=outcome_kind,
    )


@dataclass(frozen=True)
class AnalysisPlan:
    """What to run on each replication.

    test is one of `sensitivity.TESTS`.  Worst-case (upper) p-values are
    computed at `gamma`.  estimate_gamma, when set, also computes estimate
    bounds at that cap, with the test's score, and records whether they
    cover the design's true effect.  A mcnemar plan analyses each
    replication's informative (eligible) quadruples only: the p-value, the
    Hodges-Lehmann estimate and the bounds alike.  mcnemar_budget, when set,
    caps that set at its first that many quadruples, fixing the effective
    sample size across replications; a budget that cuts nothing changes
    nothing.
    """

    test: str = "signed_rank"
    gamma: float = 1.0
    alpha: float = 0.05
    tau0: float = 0.0
    sided: str = "one_sided_greater"
    compute_hl: bool = False
    estimate_gamma: float | None = None
    compute_changepoint: bool = False
    mcnemar_budget: int | None = None

    def __post_init__(self) -> None:
        _check_numbers(self)
        if self.test not in TESTS:
            raise ValueError(f"unknown test {self.test!r}")
        if self.test == "mcnemar" and self.tau0 != 0.0:
            raise ValueError(SHARP_NULL_RULE)
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        for name in ("gamma", "estimate_gamma"):
            gamma = getattr(self, name)
            if gamma is not None and not (gamma >= 1.0 and math.isfinite(gamma * gamma)):
                raise ValueError(f"{name} must be >= 1 with a finite square, got {gamma!r}")
        if self.mcnemar_budget is not None and self.mcnemar_budget < 1:
            raise ValueError("mcnemar_budget must be >= 1")


@dataclass(frozen=True)
class StudyResult:
    """Per-replication rows plus a summary dict."""

    rows: tuple[dict, ...]
    summary: dict


def _uninformative_row(plan: AnalysisPlan) -> dict:
    """Row of a McNemar replication with no informative quadruple.

    Its p-value is 1, so it has no changepoint; it has no estimate or
    bounds either, and covers nothing.
    """
    row = {"statistic": np.nan, "p_value": 1.0, "n_effective": 0}
    if plan.compute_hl:
        row["hl"] = np.nan
    if plan.estimate_gamma is not None:
        row.update(bound_lower=np.nan, bound_upper=np.nan, covered=0)
    if plan.compute_changepoint:
        row["changepoint"] = np.nan
    return row


def _replication_set(design, plan: AnalysisPlan, kind: str, seed: np.random.SeedSequence) -> QuadrupleSet:
    """The set one replication analyses: its quadruples, or for McNemar the eligible ones within budget."""
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):  # outcomes that overflow fail the contrast check
        units = generate_binary(design, rng) if kind == "binary" else generate_continuous(design, rng)
    quads = quadruples_from_records(units, outcome_kind=kind)
    return eligible_quadruples(quads).subset(slice(plan.mcnemar_budget)) if plan.test == "mcnemar" else quads


def _analyze_one(quads: QuadrupleSet, res: TestResult, plan: AnalysisPlan, true_tau: float) -> dict:
    """Row of one replication's analysed set, whose p-value at plan.gamma is res."""
    row = {"statistic": res.statistic, "p_value": res.p_value, "n_effective": res.n_effective}
    if plan.compute_hl:
        row["hl"] = hodges_lehmann(quads)
    if plan.estimate_gamma is not None:
        lo, hi = estimate_bounds(quads, gamma=plan.estimate_gamma, score=score_for(plan.test))
        row["bound_lower"] = lo
        row["bound_upper"] = hi
        row["covered"] = int(lo - 1e-9 <= true_tau <= hi + 1e-9)
    if plan.compute_changepoint:
        cp = changepoint_gamma(upper_pvalues(quads, plan.test, plan.tau0, plan.sided), plan.alpha)
        row["changepoint"] = np.nan if cp is None else cp
    return row


def level_power_study(
    design: ContinuousDesign | BinaryDesign,
    plan: AnalysisPlan,
    reps: int,
    seed: int = 0,
) -> StudyResult:
    """Run `reps` generate-analyze replications with spawned seeds.

    Seeds are spawned per replication from the base seed, so results do
    not depend on execution order and are reproducible bit for bit.  The
    sign-score tests take the p-values of up to BATCH_REPS replications from
    one `worst_case_pvalue` batch; sate, HL, estimate bounds and changepoints
    go set by set.  A design and plan that break `outcome_takes_test` raise
    ValueError.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    binary = isinstance(design, BinaryDesign)
    kind = "binary" if binary else "continuous"
    if not outcome_takes_test(kind, plan.test):
        raise ValueError(f"a {kind} design does not take test {plan.test}: "
                         "binary outcomes take mcnemar, and only they do")
    true_tau = design.tau_logit if binary else design.tau
    children = np.random.SeedSequence(seed).spawn(reps)
    rows: list[dict] = []
    for start in range(0, reps, BATCH_REPS):
        sets = [_replication_set(design, plan, kind, child) for child in children[start : start + BATCH_REPS]]
        informative = [quads for quads in sets if quads]  # only a McNemar set can be empty
        if plan.test == "sate":
            results = [upper_pvalues(quads, plan.test, plan.tau0, plan.sided)(plan.gamma) for quads in informative]
        else:
            score = ScoreFunction.mcnemar() if plan.test == "mcnemar" else score_for(plan.test)
            results = worst_case_pvalue(informative, plan.tau0, score, plan.gamma, "upper", plan.sided)
        results = iter(results)
        for quads in sets:
            row = {"rep": len(rows)}
            row.update(_analyze_one(quads, next(results), plan, true_tau) if quads else _uninformative_row(plan))
            row["reject"] = int(row["p_value"] <= plan.alpha)
            rows.append(row)
    n = len(rows)
    rate = sum(r["reject"] for r in rows) / n
    summary = {
        "reps": n,
        "rejection_rate": rate,
        "mc_se": float(np.sqrt(rate * (1.0 - rate) / n)),
        "mean_p": float(np.mean([r["p_value"] for r in rows])),
    }
    if plan.compute_hl:
        hls = np.array([r["hl"] for r in rows], dtype=np.float64)
        hls = hls[~np.isnan(hls)]
        summary["hl_mean"] = float(hls.mean()) if hls.size else float("nan")
        summary["hl_rmse"] = float(np.sqrt(np.mean((hls - true_tau) ** 2))) if hls.size else float("nan")
    if plan.estimate_gamma is not None:
        summary["coverage_rate"] = float(np.mean([r["covered"] for r in rows]))
    if plan.compute_changepoint:
        cps = np.array([r["changepoint"] for r in rows], dtype=np.float64)
        summary["changepoint_median"] = float(np.nanmedian(cps)) if np.isfinite(cps).any() else float("nan")
    return StudyResult(rows=tuple(rows), summary=summary)
