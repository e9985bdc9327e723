"""Randomization inference for matched difference-in-differences contrasts.

Tests are sign-score tests: under the null that the adjusted contrasts are
symmetric, each quadruple's sign is an independent fair coin given the
magnitudes, and the positive-sign score sum has an exactly computable
reference distribution.  The same machinery, run with a tilted sign
probability, powers the sensitivity module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import kernels
from .core import QuadrupleSet
from .errors import DegenerateDataError

SIDES = ("one_sided_greater", "one_sided_less", "two_sided")

# Cutoffs for the exact-computation routes.
DP_MAX_TOTAL = 1_000_000
ENUM_MAX_N = 20
_INT_SCALES = (1, 2)
# Width of the bisection bracket around each confidence-interval endpoint.
CI_TOL = 1e-6


def average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-d array; ties share their mean rank, a multiple of 0.5."""
    order = np.argsort(a, kind="stable")
    s = np.asarray(a)[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    counts = np.diff(starts, append=s.size)
    ranks = np.empty(s.size)
    ranks[order] = np.repeat(starts + 0.5 * (counts + 1), counts)
    return ranks


@dataclass(frozen=True)
class ScoreFunction:
    """Maps contrast magnitudes to nonnegative scores.

    Scores must be 0 wherever the magnitude is 0 (zero contrasts carry no
    sign information and are dropped).
    """

    kind: str

    @staticmethod
    def wilcoxon() -> "ScoreFunction":
        """Signed-rank scores: average ranks of the nonzero magnitudes."""
        return ScoreFunction(kind="wilcoxon")

    @staticmethod
    def absolute_value() -> "ScoreFunction":
        """Identity scores; the statistic is a permutational t variant."""
        return ScoreFunction(kind="absolute_value")

    def scores(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.float64)
        if np.any(a < 0):
            raise ValueError("magnitudes must be nonnegative")
        if self.kind == "wilcoxon":
            q = np.zeros_like(a)
            nonzero = a > 0
            q[nonzero] = average_ranks(a[nonzero])
            return q
        if self.kind == "absolute_value":
            return a.copy()
        raise ValueError(f"unknown score kind {self.kind!r}")

    def estimate(self, d: np.ndarray, p: float) -> float:
        """Root in tau of: positive-sign score sum of d - tau = p * total score.

        Wilcoxon: that sum counts the N Walsh averages (d_i + d_j)/2, i <= j,
        above tau, so the root is the midpoint of their order statistics at
        0-based ranks N - ceil(pN) and N - floor(pN) - 1 (Hodges-Lehmann at
        p = 1/2).  Absolute values: the expectile tau = mean + c * sum((d -
        tau)+), c = (1 - 2p)/(p n) (Newey & Powell 1987), d.mean() at p = 1/2.
        """
        if d.size == 0:
            raise DegenerateDataError("no quadruples")
        if not 0.0 < p < 1.0:
            raise ValueError("p must lie in (0, 1)")
        if self.kind == "wilcoxon":
            walsh = ((d[:, None] + d) / 2.0)[np.tri(d.size, dtype=bool)]
            t = p * walsh.size
            lo, hi = walsh.size - math.ceil(t), walsh.size - math.floor(t) - 1
            walsh = np.partition(walsh, (hi, lo))
            return float(0.5 * (walsh[lo] + walsh[hi]))
        if self.kind == "absolute_value":
            n, mean = d.size, d.mean()
            c = (1.0 - 2.0 * p) / (p * n)
            s = np.sort(d)[::-1]
            top = np.concatenate([[0.0], np.cumsum(s)])
            # The root lies below the k largest d and at or above the rest.
            k = int(np.count_nonzero(s - mean - c * (top[:-1] - np.arange(n) * s) > 0))
            return float(mean + c * (top[k] - k * mean) / (1.0 + c * k))
        raise ValueError(f"unknown score kind {self.kind!r}")


@dataclass(frozen=True)
class TestResult:
    """A test statistic with its p-value and bookkeeping.

    p_value is a float; under a sensitivity analysis it is the bound for
    the requested direction.  method records score kind, computation route,
    and any tilt, e.g. "wilcoxon:dp" or "wilcoxon:dp:gamma=1.25:upper".
    """

    statistic: float
    p_value: float
    sided: str
    method: str
    n_effective: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p_value must lie in [0, 1]")
        if self.sided not in SIDES:
            raise ValueError(f"sided must be one of {SIDES}")


def _sided_pvalue(greater, less, sided: str) -> float:
    """Combine the two tails by the sided rule; each tail is a thunk.

    Two-sided doubles the smaller tail and caps at 1.  The greater tail is
    always evaluated first, so engines with a memo see one call order.
    """
    if sided not in SIDES:
        raise ValueError(f"sided must be one of {SIDES}, got {sided!r}")
    if sided == "one_sided_greater":
        return greater()
    if sided == "one_sided_less":
        return less()
    return min(1.0, 2.0 * min(greater(), less()))


def _integer_scaled(q: np.ndarray) -> tuple[np.ndarray, int] | None:
    """Try to express the scores as small integers; returns (ints, scale)."""
    for scale in _INT_SCALES:
        x = q * scale
        r = np.round(x)
        if np.max(np.abs(x - r)) <= 1e-8:
            ints = r.astype(np.int64)
            if ints.sum() <= DP_MAX_TOTAL:
                return ints, scale
            return None
    return None


# The last DP result, as ((sorted integer scores, p_plus), read-only pmf).
_last_pmf: tuple[tuple[bytes, float], np.ndarray] | None = None


def _null_pmf(ints: np.ndarray, p_plus: float) -> np.ndarray:
    """Read-only pmf of the positive-sign sum of integer scores `ints`.

    The DP runs over the scores in ascending order, so the result depends
    only on the score multiset, not on row order, and the running support
    grows as slowly as it can.  The last pmf is kept and served again while
    (multiset, p_plus) is unchanged: without ties or zeros the signed-rank
    scores are 1..n at every tau, so a CI inversion or a run of simulation
    replications needs one DP.
    """
    global _last_pmf
    ordered = np.sort(ints)
    key = (ordered.tobytes(), float(p_plus))
    # One read of the shared slot: the pmf returned always matches `key`.
    entry = _last_pmf
    if entry is None or entry[0] != key:
        pmf = kernels.signflip_pmf(ordered, p_plus)
        pmf.flags.writeable = False
        entry = _last_pmf = (key, pmf)
    return entry[1]


def _tail_pvalue(q_active: np.ndarray, t_obs: float, p_plus: float, greater: bool) -> tuple[float, str]:
    """One tail of the null distribution of the positive-sign score sum.

    Routes: exact DP over integer-scaled scores, exhaustive enumeration for
    n <= ENUM_MAX_N (O(2**n) memory), else a normal approximation without
    continuity correction.
    The DP runs once per (score multiset, p_plus), in ascending score order
    (see `_null_pmf`).
    """
    n = q_active.size
    scaled = _integer_scaled(q_active)
    if scaled is not None:
        ints, scale = scaled
        pmf = _null_pmf(ints, p_plus)
        if greater:
            k = int(np.ceil(t_obs * scale - 1e-9))
            p = float(pmf[max(k, 0):].sum())
        else:
            k = int(np.floor(t_obs * scale + 1e-9))
            p = float(pmf[: min(k, len(pmf) - 1) + 1].sum()) if k >= 0 else 0.0
        return min(p, 1.0), "dp"
    if n <= ENUM_MAX_N:
        # All 2**n subset sums and their probabilities, doubled one score at a time.
        vals, probs = np.zeros(1), np.ones(1)
        for q in q_active:
            vals = np.concatenate([vals, vals + q])
            probs = np.concatenate([probs * (1.0 - p_plus), probs * p_plus])
        if greater:
            p = float(probs[vals >= t_obs - 1e-9].sum())
        else:
            p = float(probs[vals <= t_obs + 1e-9].sum())
        return min(p, 1.0), "enumeration"
    total = q_active.sum()
    mu = p_plus * total
    sigma = np.sqrt(p_plus * (1.0 - p_plus) * np.square(q_active).sum())
    z = (t_obs - mu) / sigma
    p = float(ndtr(-z)) if greater else float(ndtr(z))
    return p, "normal"


def _signscore_pvalue(
    d: np.ndarray,
    tau0: float,
    score: ScoreFunction,
    p_greater_tail: float,
    p_less_tail: float,
    sided: str,
) -> tuple[float, float, str, int]:
    """Shared p-value engine.

    p_greater_tail / p_less_tail are the sign probabilities used for the
    upper and lower tails (they differ only under a sensitivity tilt; both
    are 0.5 for the randomization test).  Returns (statistic, p, route,
    n_effective).
    """
    shifted = d - tau0
    q = score.scores(np.abs(shifted))
    t_obs = float(q[shifted > 0].sum())
    q_active = q[q > 0]
    if q_active.size == 0:
        raise DegenerateDataError("all adjusted contrasts are zero; no sign information")
    routes = []

    def tail(p_plus: float, greater: bool) -> float:
        p, route = _tail_pvalue(q_active, t_obs, p_plus, greater)
        routes.append(route)
        return p

    p = _sided_pvalue(lambda: tail(p_greater_tail, True), lambda: tail(p_less_tail, False), sided)
    return t_obs, p, routes[0], int(q_active.size)


def randomization_pvalue(
    quads: QuadrupleSet,
    tau0: float = 0.0,
    score: ScoreFunction | None = None,
    sided: str = "one_sided_greater",
) -> TestResult:
    """Exact randomization test of the constant-shift null d ~ tau0 + symmetric.

    Parameters
    ----------
    quads : QuadrupleSet
    tau0 : float
        Hypothesized constant effect.
    score : ScoreFunction
        Defaults to signed-rank scores.
    sided : str
        "one_sided_greater", "one_sided_less", or "two_sided"
        (two-sided doubles the smaller tail and caps at 1).
    """
    score = score or ScoreFunction.wilcoxon()
    t_obs, p, route, n_eff = _signscore_pvalue(quads.d_values(), tau0, score, 0.5, 0.5, sided)
    return TestResult(
        statistic=t_obs,
        p_value=p,
        sided=sided,
        method=f"{score.kind}:{route}",
        n_effective=n_eff,
    )


def hodges_lehmann(quads: QuadrupleSet) -> float:
    """Median of the pairwise Walsh averages (d_i + d_j)/2, i <= j."""
    return ScoreFunction.wilcoxon().estimate(quads.d_values(), 0.5)


def _bisect(predicate, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Bracket of width <= tol around the boundary of a monotone predicate.

    The predicate is False at lo and True at hi; both ends keep that
    property while the bracket is halved.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def invert_ci(
    quads: QuadrupleSet,
    alpha: float = 0.05,
    score: ScoreFunction | None = None,
) -> tuple[float, float]:
    """Confidence interval by inverting the two-sided randomization test.

    Returns the set {tau : two-sided p-value at tau > alpha} as an
    interval, endpoints located by bisection to CI_TOL.  Endpoints are
    +/-inf when even extreme shifts are not rejected (tiny samples).
    Both bisections start at the score's own estimate, where the two-sided
    p-value is 1: Hodges-Lehmann for ranks, the mean for absolute values.
    On the DP route the null distribution is computed once per (score
    multiset, p_plus), in ascending score order, and shared by every probe
    that sees the same multiset.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    score = score or ScoreFunction.wilcoxon()
    d = quads.d_values()

    def p_two(tau: float) -> float:
        # A shift that zeroes every contrast is maximally compatible.
        try:
            return _signscore_pvalue(d, tau, score, 0.5, 0.5, "two_sided")[1]
        except DegenerateDataError:
            return 1.0

    center = score.estimate(d, 0.5)
    # Shifts far enough outside the contrasts to bracket either endpoint.
    span = float(d.max() - d.min()) + 1.0
    lo0, hi0 = float(d.min()) - span, float(d.max()) + span
    lower = -np.inf if p_two(lo0) > alpha else 0.5 * sum(_bisect(lambda t: p_two(t) > alpha, lo0, center, CI_TOL))
    upper = np.inf if p_two(hi0) > alpha else -0.5 * sum(
        _bisect(lambda t: p_two(-t) > alpha, -hi0, -center, CI_TOL)
    )
    return (lower, upper)

