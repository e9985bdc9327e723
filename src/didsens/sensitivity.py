"""Sensitivity analysis for matched difference-in-differences designs.

Two routes are provided.  The two-parameter route caps the assignment-side
and outcome-side influence of an unobserved covariate separately (lam and
delta, both >= 1 on the odds scale) and yields sharp bounds on the
probability that a quadruple's signed contrast is positive.  The
one-parameter route caps a single sign-probability odds at gamma^2, so the
classical paired worst-case machinery applies with gamma^2 in place of
gamma.  Amplification maps translate a one-parameter cap into the frontier
of two-parameter explanations with the same worst case.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr

from .core import QuadrupleSet
from .errors import DegenerateDataError, StructuralError
from .inference import (
    ScoreFunction,
    TestResult,
    _bisect,
    _check_tau0,
    _signscore_pvalue,
)

DIRECTIONS = ("upper", "lower")
# Sign-score tests, which also give a shift estimate, an interval and estimate bounds.
SCORE_TESTS = ("signed_rank", "permutational_t")
TESTS = SCORE_TESTS + ("sate", "mcnemar")
# The McNemar rule for tau0, raised by every entry point that meets it.
SHARP_NULL_RULE = "mcnemar tests the sharp null; tau0 must be 0"
# Width of the probed bracket that changepoint_gamma returns the lower end of.
CHANGEPOINT_TOL = 1e-4


def outcome_takes_test(outcome_kind: str, test: str) -> bool:
    """The outcome/test rule: binary outcomes take mcnemar, and only they do."""
    return (outcome_kind == "binary") == (test == "mcnemar")


def _check_direction(direction: str) -> None:
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")


@dataclass(frozen=True)
class SignProbabilityBounds:
    """Sharp bounds on P(positive signed contrast) for one quadruple."""

    lower: float
    upper: float
    lam: float
    delta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.lower <= self.upper <= 1.0:
            raise ValueError("bounds must satisfy 0 <= lower <= upper <= 1")


def two_param_bounds(lam: float, delta: float) -> SignProbabilityBounds:
    """Sharp sign-probability bounds under separate caps lam and delta.

    Closed forms:
        lower = (delta^2 + lam^2) / ((1 + lam^2) (1 + delta^2))
        upper = ((lam delta)^2 + 1) / ((1 + lam^2) (1 + delta^2))
    which satisfy lower + upper = 1.
    """
    if lam < 1 or delta < 1:
        raise ValueError("lam and delta must be >= 1")
    l2 = lam * lam
    d2 = delta * delta
    denom = (1.0 + l2) * (1.0 + d2)
    return SignProbabilityBounds(
        lower=(d2 + l2) / denom,
        upper=(l2 * d2 + 1.0) / denom,
        lam=lam,
        delta=delta,
    )


def one_param_bounds(gamma: float) -> tuple[float, float]:
    """Sign-probability bounds under the single cap: odds at most gamma^2."""
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    g2 = gamma * gamma
    return (1.0 / (1.0 + g2), g2 / (1.0 + g2))


def _tilt(gamma: float, direction: str) -> tuple[float, float]:
    """Sign probabilities for the (greater, less) tails at cap gamma.

    The worst case ("upper") puts the largest sign probability on the
    greater tail and the smallest on the less tail; "lower" swaps them.
    """
    p_lo, p_hi = one_param_bounds(gamma)
    _check_direction(direction)
    return (p_hi, p_lo) if direction == "upper" else (p_lo, p_hi)


def did_gamma_from(lam: float, delta: float) -> float:
    """One-parameter cap whose worst case equals the two-parameter one.

    gamma^2 = (lam^2 delta^2 + 1) / (lam^2 + delta^2).
    """
    if lam < 1 or delta < 1:
        raise ValueError("lam and delta must be >= 1")
    l2 = lam * lam
    d2 = delta * delta
    return math.sqrt((l2 * d2 + 1.0) / (l2 + d2))


def paired_gamma_from(lam: float, delta: float) -> float:
    """Classical single-period correspondence: gamma = (lam delta + 1) / (lam + delta)."""
    if lam < 1 or delta < 1:
        raise ValueError("lam and delta must be >= 1")
    return (lam * delta + 1.0) / (lam + delta)


def _check_amplification(gamma: float, lam: float) -> None:
    """Both caps at least 1 (NaN is not), and lam > gamma unless gamma = 1."""
    if not gamma >= 1:
        raise ValueError("gamma must be >= 1")
    if not lam >= 1:
        raise ValueError("lam must be >= 1")
    if gamma != 1.0 and lam <= gamma:
        raise ValueError(
            f"amplification needs lam > gamma (asymptote at lam = gamma): got lam={lam}, gamma={gamma}"
        )


def amplify_did(gamma: float, lam: float) -> float:
    """Outcome-side cap delta matching (gamma, lam) in this design.

    Inverts gamma^2 = (lam^2 delta^2 + 1)/(lam^2 + delta^2):
        delta = sqrt((gamma^2 lam^2 - 1) / (lam^2 - gamma^2)).
    Requires lam > gamma (the curve has a vertical asymptote at lam =
    gamma: no finite outcome-side cap suffices at or below it).
    """
    _check_amplification(gamma, lam)
    if gamma == 1.0:
        return 1.0
    g2 = gamma * gamma
    l2 = lam * lam
    return math.sqrt((g2 * l2 - 1.0) / (l2 - g2))


def amplify_paired(gamma: float, lam: float) -> float:
    """Classical single-period amplification: delta = (gamma lam - 1)/(lam - gamma)."""
    _check_amplification(gamma, lam)
    if gamma == 1.0:
        return 1.0
    return (gamma * lam - 1.0) / (lam - gamma)


def worst_case_pvalue(
    quads: QuadrupleSet | list[QuadrupleSet],
    tau0: float = 0.0,
    score: ScoreFunction | None = None,
    gamma: float = 1.0,
    direction: str = "upper",
    sided: str = "one_sided_greater",
) -> TestResult | list[TestResult]:
    """Bound on the sign-score p-value when sign odds may reach gamma^2.

    direction="upper" gives the worst case (the reportable bound);
    "lower" the best case.  At gamma=1 both reduce to the randomization
    test, through the identical code path.  Two-sided upper bounds combine
    the two one-sided worst cases (conservative); two-sided lower bounds
    are exact.  Given a list of sets, a batch, it returns one result per
    set from one engine call, each equal to that set's own result.
    """
    p_greater_tail, p_less_tail = _tilt(gamma, direction)
    score = score or ScoreFunction.wilcoxon()
    one = isinstance(quads, QuadrupleSet)
    ds = [q.d_values() for q in ([quads] if one else quads)]
    for d in ds:
        _check_tau0(d - tau0, tau0)
    results = [
        TestResult(statistic=t_obs, p_value=p, sided=sided,
                   method=f"{score.kind}:{route}:gamma={gamma:g}:{direction}", n_effective=n_eff)
        for t_obs, p, route, n_eff in _signscore_pvalue(ds, tau0, score, p_greater_tail, p_less_tail, sided)
    ]
    return results[0] if one else results


def estimate_bounds(
    quads: QuadrupleSet,
    gamma: float = 1.0,
    score: ScoreFunction | None = None,
    tol: float = 1e-6,
) -> tuple[float, float]:
    """Range of score-equation estimates compatible with sign odds gamma^2.

    tau_min solves the score equation against the most positive-leaning
    null expectation, tau_max against the most negative-leaning one, both
    in closed form by `ScoreFunction.estimate`.  At gamma = 1 both collapse
    to the score's own estimate: Hodges-Lehmann for ranks, the mean for
    absolute values.  tol has no effect; acceptance criterion 05 passes it.
    """
    p_lo, p_hi = one_param_bounds(gamma)
    score = score or ScoreFunction.wilcoxon()
    d = quads.d_values()
    if d.size and not p_hi < 1.0:
        # gamma^2 / (1 + gamma^2) rounds to 1 above gamma ~ 1e8: both closed
        # forms have reached their limits, min d and max d.
        return (float(d.min()), float(d.max()))
    tau_min, tau_max = score.estimates(d, (p_hi, p_lo))
    # On all-equal d the two roots differ only by rounding, in either order.
    return (min(tau_min, tau_max), max(tau_min, tau_max))


def _deviate(w_sum, w_sqsum, n: int) -> np.ndarray:
    """Studentized means from running sums, elementwise; at zero spread
    +/-inf by the sign of the mean, and 0 for a zero mean."""
    mean = w_sum / n
    var = (w_sqsum - n * mean * mean) / (n - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = mean / np.sqrt(var / n)
    flat = np.where(mean > 0, math.inf, np.where(mean < 0, -math.inf, 0.0))
    return np.where(var <= 0, flat, dev)


def _extreme_deviate(lo: np.ndarray, hi: np.ndarray, minimize: bool) -> float:
    """Extremize the studentized mean over a box, coordinates at endpoints.

    The extremum over the rectangle is attained at a vertex; candidate
    vertices are the prefix/suffix assignments in the sorted coordinate
    order, all evaluated at once from cumulative sums.
    """
    if not minimize:
        return -_extreme_deviate(-hi, -lo, minimize=True)
    n = lo.size
    order = np.argsort(hi)
    lo_s, hi_s = lo[order], hi[order]

    def cum(x: np.ndarray) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(x)])

    k = np.arange(n + 1)
    # Suffix family: top-k coordinates (largest hi) at the upper endpoint.
    suffix = _deviate(
        cum(lo_s)[n - k] + cum(hi_s[::-1])[k], cum(lo_s**2)[n - k] + cum(hi_s[::-1] ** 2)[k], n
    )
    # Prefix family: bottom-k coordinates at the upper endpoint (covers the
    # negative-mean regime of the optimality condition).
    prefix = _deviate(
        cum(hi_s)[k] + cum(lo_s[::-1])[n - k], cum(hi_s**2)[k] + cum(lo_s[::-1] ** 2)[n - k], n
    )
    return float(min(suffix.min(), prefix.min()))


def _sate_upper_tail(a: np.ndarray, kappa: float, direction: str) -> float:
    """Bound on P(deviate as large as observed) for the greater alternative."""
    if kappa == 0.0:
        # degenerate box: evaluate the single vertex directly so both
        # directions share one rounding path and collapse exactly
        dev = _deviate(float(a.sum()), float((a * a).sum()), int(a.size))
    else:
        # A vertex's squares reach 4 a^2.  Where that could pass float64, a quarter of
        # a has the same deviate, bit for bit: scaling by a power of two is exact.
        if not math.isfinite(4.0 * float(a @ a)):
            a = 0.25 * a
        lo = a - kappa * np.abs(a)
        hi = a + kappa * np.abs(a)
        dev = _extreme_deviate(lo, hi, minimize=(direction == "upper"))
    return float(ndtr(-dev))


def sate_pvalue(
    quads: QuadrupleSet,
    tau0: float = 0.0,
    gamma: float = 1.0,
    direction: str = "upper",
    sided: str = "one_sided_greater",
) -> TestResult:
    """Sensitivity bound for the sample-average effect, studentized.

    Tests H0: average effect = tau0 allowing effect heterogeneity.  The
    worst-case null expectation of each adjusted contrast lies in a box of
    halfwidth kappa |d_i - tau0| with kappa = (gamma^2 - 1)/(gamma^2 + 1);
    the studentized deviate is extremized over the box and referred to a
    normal reference.  At gamma = 1 this is the z-test on the contrast
    mean.
    """
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    _check_direction(direction)
    a = quads.d_values() - tau0
    _check_tau0(a, tau0)
    if a.size < 2:
        raise DegenerateDataError("the studentized procedure needs at least 2 quadruples")
    g2 = gamma * gamma
    kappa = (g2 - 1.0) / (g2 + 1.0)
    if sided == "two_sided":  # the smaller tail doubled, capped at 1
        p = min(1.0, 2.0 * min(_sate_upper_tail(a, kappa, direction), _sate_upper_tail(-a, kappa, direction)))
    else:  # TestResult refuses any other sided
        p = _sate_upper_tail(a if sided == "one_sided_greater" else -a, kappa, direction)
    statistic = float(a.mean() / (a.std(ddof=1) / math.sqrt(a.size))) if a.std(ddof=1) > 0 else 0.0
    return TestResult(
        statistic=statistic,
        p_value=p,
        sided=sided,
        method=f"sate:normal:gamma={gamma:g}:{direction}",
        n_effective=int(a.size),
    )


def score_for(test: str) -> ScoreFunction:
    """Score function of a test name: absolute values for permutational_t, else ranks."""
    return ScoreFunction.absolute_value() if test == "permutational_t" else ScoreFunction.wilcoxon()


def upper_pvalues(
    quads: QuadrupleSet,
    test: str,
    tau0: float = 0.0,
    sided: str = "one_sided_greater",
    known: tuple[float, TestResult] | None = None,
) -> Callable[[float], TestResult]:
    """Worst-case (upper) p-value of the named test, as a memoised function of gamma.

    The one place a test name picks its engine for one set: sate runs
    `sate_pvalue`, the others `worst_case_pvalue` on the quadruples given,
    with `score_for(test)` or, for mcnemar, `ScoreFunction.mcnemar()`, which
    scores uninformative quadruples 0.  `level_power_study` makes the same
    choice for its batch of sets.  Each gamma is computed once per curve;
    known, a (gamma, result) pair that this curve would compute, such as a
    batch's result for this set, answers its gamma without a computation.
    The curve's `approx(gamma)` is a float p-value that only steers
    `changepoint_gamma`: the saddlepoint tail on the DP route, elsewhere the
    curve's own value from the same memo.
    """
    if test not in TESTS:
        raise ValueError(f"test must be one of {TESTS}, got {test!r}")

    def memoised(engine: Callable[[float], TestResult]) -> Callable[[float], TestResult]:
        return functools.cache(lambda gamma: known[1] if known is not None and gamma == known[0] else engine(gamma))

    if test == "sate":
        curve = memoised(lambda gamma: sate_pvalue(quads, tau0, gamma, "upper", sided))
        curve.approx = lambda gamma: curve(gamma).p_value
        return curve
    score = score_for(test)
    if test == "mcnemar":
        if tau0 != 0.0:
            raise ValueError(SHARP_NULL_RULE)
        if quads.outcome_kind != "binary":
            raise StructuralError("test mcnemar requires outcome_kind='binary'")
        score = ScoreFunction.mcnemar()
    curve = memoised(lambda gamma: worst_case_pvalue(quads, tau0, score, gamma, "upper", sided))
    d = quads.d_values()
    saddlepoint = functools.cache(
        lambda gamma: _signscore_pvalue([d], tau0, score, *_tilt(gamma, "upper"), sided, approx=True)[0][1]
    )

    def approx(gamma: float) -> float:
        # The route does not depend on gamma; off the DP route the curve's own memo answers.
        return saddlepoint(gamma) if curve(1.0).method.split(":")[1] == "dp" else curve(gamma).p_value

    curve.approx = approx
    return curve


def changepoint_gamma(pvalue: Callable[[float], TestResult], alpha: float = 0.05) -> float | None:
    """Largest gamma at which a worst-case p-value curve from `upper_pvalues` meets alpha.

    Finds the root on the curve's approximation `pvalue.approx`: doubles gamma
    from 1 to bracket it, then runs Brent's method on sqrt(-2 log alpha) -
    sqrt(-2 log p), nearly linear in gamma.  Then certifies it on the exact
    curve: probes a, b = root -/+ CHANGEPOINT_TOL/2 and returns a when p(a) <=
    alpha < p(b).  Otherwise it steps outward from the failing end with exact
    probes, doubling the step, until they bracket alpha, and bisects that
    bracket to CHANGEPOINT_TOL.  The probes do not depend on what the curve was
    asked before; its memo answers repeats.  None when the exact test fails at
    gamma = 1, inf when an exact probe past 1e6 still meets alpha.
    """
    # Not at module level: that reorders the package's imports and adds 0.4 MB to forked processes.
    from scipy.optimize import brentq
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")

    def p(gamma: float) -> float:
        return pvalue(gamma).p_value

    if p(1.0) > alpha:
        return None
    target = math.sqrt(-2.0 * math.log(alpha))

    def gap(gamma: float) -> float:
        # <= 0 exactly where the approximation meets alpha
        return target - math.sqrt(-2.0 * math.log(max(pvalue.approx(gamma), math.ulp(0.0))))

    lo, hi = 1.0, 2.0
    while hi <= 1e6 and gap(hi) <= 0.0:
        lo, hi = hi, 2.0 * hi
    # No crossing below 1e6, or one below gamma = 1, puts the root at that end.
    root = hi if hi > 1e6 else lo if gap(lo) > 0.0 else brentq(gap, lo, hi, xtol=CHANGEPOINT_TOL / 4)
    a = max(root - CHANGEPOINT_TOL / 2, 1.0)
    b, step = a + CHANGEPOINT_TOL, CHANGEPOINT_TOL
    while p(a) > alpha:  # the crossing lies below a
        a, b, step = max(a - step, 1.0), a, 2.0 * step
    while p(b) <= alpha:  # the crossing lies above b
        if b > 1e6:
            return math.inf
        a, b, step = b, b + step, 2.0 * step
    if step == CHANGEPOINT_TOL:  # certified on the first try
        return a
    return _bisect(lambda g: p(g) > alpha, a, b, CHANGEPOINT_TOL)[0]
