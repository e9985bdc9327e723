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
from scipy.special import expit, ndtr

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
    """1-based ranks along the last axis; ties share their mean rank, a multiple of 0.5."""
    order = np.argsort(a, axis=-1, kind="stable")
    s = np.take_along_axis(np.asarray(a), order, axis=-1)
    # Each run of equal values in a row, from its first to its last position.
    starts, ends = np.ones(s.shape, dtype=bool), np.ones(s.shape, dtype=bool)
    starts[..., 1:] = ends[..., :-1] = s[..., 1:] != s[..., :-1]
    first, last = np.nonzero(starts)[-1], np.nonzero(ends)[-1]
    ranks = np.empty(s.shape)
    np.put_along_axis(ranks, order, np.repeat(1.0 + 0.5 * (first + last), last - first + 1).reshape(s.shape), axis=-1)
    return ranks


@dataclass(frozen=True)
class ScoreFunction:
    """Maps contrast magnitudes to nonnegative scores.

    Scores must be 0 wherever the magnitude is 0; contrasts scored 0 carry
    no sign information and are dropped.
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

    @staticmethod
    def mcnemar() -> "ScoreFunction":
        """1 where the magnitude is 2 (0/1 pairs discordant in opposite directions), else 0."""
        return ScoreFunction(kind="mcnemar")

    def scores(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.float64)
        if np.any(a < 0):
            raise ValueError("magnitudes must be nonnegative")
        if self.kind == "wilcoxon":
            # Zeros rank below every nonzero magnitude; less their count, the rest rank among themselves.
            return np.where(a > 0, average_ranks(a) - np.count_nonzero(a == 0, axis=-1, keepdims=True), 0.0)
        if self.kind == "absolute_value":
            return a.copy()
        if self.kind == "mcnemar":
            return (a == 2.0).astype(np.float64)
        raise ValueError(f"unknown score kind {self.kind!r}")

    def estimate(self, d: np.ndarray, p: float) -> float:
        """Root in tau of: positive-sign score sum of d - tau = p * total score."""
        return self.estimates(d, (p,))[0]

    def estimates(self, d: np.ndarray, ps) -> list[float]:
        """`estimate` at each p in ps, from one pass over the contrasts.

        Wilcoxon: that sum counts the N Walsh averages (d_i + d_j)/2, i <= j,
        above tau, so the root is the midpoint of their order statistics at
        0-based ranks N - ceil(pN) and N - floor(pN) - 1 (Hodges-Lehmann at
        p = 1/2); one partition selects them for every p.  Absolute values:
        the expectile tau = mean + c * sum((d - tau)+), c = (1 - 2p)/(p n)
        (Newey & Powell 1987), d.mean() at p = 1/2.
        """
        if d.size == 0:
            raise DegenerateDataError("no quadruples")
        if not all(0.0 < p < 1.0 for p in ps):
            raise ValueError("p must lie in (0, 1)")
        if self.kind == "wilcoxon":
            walsh = ((d[:, None] + d) / 2.0)[np.tri(d.size, dtype=bool)]
            ranks = [(walsh.size - math.ceil(p * walsh.size), walsh.size - math.floor(p * walsh.size) - 1)
                     for p in ps]
            walsh = np.partition(walsh, sorted({k for pair in ranks for k in pair}))
            return [float(0.5 * (walsh[lo] + walsh[hi])) for lo, hi in ranks]
        if self.kind == "absolute_value":
            n, mean = d.size, d.mean()
            s = np.sort(d)[::-1]
            top = np.concatenate([[0.0], np.cumsum(s)])
            out = []
            for p in ps:
                c = (1.0 - 2.0 * p) / (p * n)
                # The root lies below the k largest d and at or above the rest.
                k = int(np.count_nonzero(s - mean - c * (top[:-1] - np.arange(n) * s) > 0))
                out.append(float(mean + c * (top[k] - k * mean) / (1.0 + c * k)))
            return out
        if self.kind == "mcnemar":
            raise ValueError("McNemar scores define no shift estimate")
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


def _integer_scaled(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scores as small integers along the last axis: (ints, scale), scale the first of
    _INT_SCALES at which they are within 1e-8 of integers, or 0 (ints 0) where there is
    none or their sum passes DP_MAX_TOTAL."""
    ints, scale = np.zeros(q.shape, dtype=np.int64), np.zeros(q.shape[:-1], dtype=np.int64)
    unfit = np.ones(q.shape[:-1], dtype=bool)
    for s in _INT_SCALES:
        if not unfit.any():
            break
        x = q * s
        r = np.round(x)
        fits = unfit & (np.abs(x - r).max(axis=-1, initial=0.0) <= 1e-8)
        if fits.any():
            # The sum is checked before the cast, which would overflow int64 on huge scores.
            small = fits & (r.sum(axis=-1) <= DP_MAX_TOTAL)
            ints[small], scale[small] = r[small], s
            unfit &= ~fits
    return ints, scale


def _check_tau0(shifted: np.ndarray, tau0: float) -> None:
    """Refuse, by name, a tau0 that puts the sum of squares of shifted = d - tau0 past float64."""
    with np.errstate(over="ignore"):
        if math.isfinite(float(shifted @ shifted)):
            return
    raise ValueError(f"tau0 = {tau0!r} is too far from the contrasts: "
                     "the sum of squares of d - tau0 overflows float64")


# The last DP result, as ((sorted integer scores, p_plus), lo, read-only pmf from lo).
_last_pmf: tuple[tuple[bytes, float], int, np.ndarray] | None = None


def _null_pmf(ints: np.ndarray, p_plus: float, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Read-only P(T = t), t = lo..min(hi, total), T the positive-sign sum of `ints`.

    The DP runs over the sorted scores and builds only the window asked for.
    The last result is reused while (multiset, p_plus) and its window cover
    the request; a second, uncovered request for that key, or any at p_plus
    = 0.5, builds the whole pmf, so a tie-free CI inversion costs one DP.
    """
    global _last_pmf
    ordered = np.sort(ints)
    key = (ordered.tobytes(), float(p_plus))
    total = int(ordered.sum())
    hi = total if hi is None else min(hi, total)
    # One read of the shared slot: the pmf returned always matches `key`.
    entry = _last_pmf
    if entry is None or entry[0] != key or not entry[1] <= lo <= hi < entry[1] + entry[2].size:
        start, stop = (0, total) if p_plus == 0.5 or (entry and entry[0] == key) else (lo, hi)
        pmf = kernels.signflip_pmf(ordered, p_plus, start, stop)
        pmf.flags.writeable = False
        entry = _last_pmf = (key, start, pmf)
    return entry[2][lo - entry[1] : hi - entry[1] + 1]


def _saddlepoint_tail(ints: np.ndarray, t: int, p_plus: float) -> float:
    """Saddlepoint approximation of P(T >= t), T = sum(eps_i * ints_i), eps_i iid Bernoulli(p_plus).

    Lugannani & Rice (1980) with the second continuity correction for lattice
    variables (Daniels 1987), in units of the lattice span gcd(ints): the
    saddlepoint s solves K'(s) = x = t - 1/2 for K(s) = sum(log(1 - p + p e^(s q_i))),
    and P ~ 1 - Phi(w) + phi(w) (1/u - 1/w), with w = sign(s) sqrt(2 (s x - K(s)))
    and u = 2 sinh(s/2) sqrt(K''(s)).  Near s = 0, 1/u - 1/w takes its limit
    -K'''(s)/(6 K''(s)^1.5).
    """
    # Not at module level, like changepoint_gamma's: only the changepoint search asks for it.
    from scipy.optimize import brentq

    span = int(np.gcd.reduce(ints))
    q = ints[ints > 0] / span
    t = -(-t // span)
    if t <= 0:
        return 1.0
    if t > q.sum():
        return 0.0
    if p_plus in (0.0, 1.0):
        return p_plus
    if t == q.sum():  # every sign positive: exact, where the approximation is poorest
        return math.exp(q.size * math.log(p_plus))
    x, logit = t - 0.5, math.log(p_plus) - math.log1p(-p_plus)

    def k1(s: float) -> float:
        return float(q @ expit(s * q + logit))

    lo, hi = -1.0, 1.0
    while k1(lo) > x:
        lo *= 2.0
    while k1(hi) < x:
        hi *= 2.0
    s = brentq(lambda v: k1(v) - x, lo, hi, xtol=1e-15)
    shift = s * q
    pi, rest = expit(shift + logit), expit(-shift - logit)
    # s x - K(s) as a sum of nonnegative terms (Bernoulli divergences), which keeps
    # its precision near s = 0; each term of K is safe from overflow.
    log_mgf = np.where(shift > 1.0, np.logaddexp(math.log1p(-p_plus), math.log(p_plus) + shift),
                       np.log1p(p_plus * np.expm1(np.minimum(shift, 1.0))))
    w = math.copysign(math.sqrt(2.0 * max(float((pi * shift - log_mgf).sum()), 0.0)), s)
    k2 = float(np.square(q) @ (pi * rest))
    if abs(w) < 1e-4:  # 1/u - 1/w cancels here
        gap = -float((q**3) @ (pi * rest * (rest - pi))) / k2**1.5 / 6.0
    else:
        gap = 1.0 / (2.0 * math.sinh(s / 2.0) * math.sqrt(k2)) - 1.0 / w
    p = float(ndtr(-w)) + math.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi) * gap
    return min(max(p, 0.0), 1.0)


def _tail_pvalue(
    q: np.ndarray, t_obs: np.ndarray, p_plus: float, greater: bool, approx: bool = False
) -> list[tuple[float, str]]:
    """(p, route) of one tail of the positive-sign score sum's null distribution, per row.

    A row of q holds one set's scores (zeros carry no sign) and t_obs its
    observed sum.  Routes: exact DP over integer-scaled scores, building
    only the tail (`_null_pmf`); DP rows with one integer multiset share one
    window, and each sums the same entries, with the same bits, as in its
    own.  Else exhaustive enumeration for n <= ENUM_MAX_N (O(2**n) memory),
    else a normal approximation without continuity correction.  With approx,
    the DP route gives `_saddlepoint_tail` instead (the less tail is the
    greater tail of total - T at 1 - p_plus).
    """
    all_ints, scale = _integer_scaled(q)
    k = (np.ceil(t_obs * scale - 1e-9) if greater else np.floor(t_obs * scale + 1e-9)).astype(np.int64)
    out: list = [None] * len(q)
    shared: dict[bytes, tuple[np.ndarray, list[int]]] = {}
    for i, (row, ints) in enumerate(zip(q, all_ints)):
        ints, q_active = ints[ints > 0], None if scale[i] else row[row > 0]
        if scale[i] and approx:
            out[i] = (_saddlepoint_tail(ints, int(k[i]), p_plus) if greater
                      else _saddlepoint_tail(ints, int(ints.sum() - k[i]), 1.0 - p_plus)), "saddlepoint"
        elif scale[i]:
            multiset = np.sort(ints)
            shared.setdefault(multiset.tobytes(), (multiset, []))[1].append(i)
        elif q_active.size <= ENUM_MAX_N:
            # All 2**n subset sums and their probabilities, doubled one score at a time.
            vals, probs = np.zeros(1), np.ones(1)
            for qi in q_active:
                vals = np.concatenate([vals, vals + qi])
                probs = np.concatenate([probs * (1.0 - p_plus), probs * p_plus])
            tail = vals >= t_obs[i] - 1e-9 if greater else vals <= t_obs[i] + 1e-9
            out[i] = min(float(probs[tail].sum()), 1.0), "enumeration"
        else:
            mu = p_plus * q_active.sum()
            sigma = np.sqrt(p_plus * (1.0 - p_plus) * np.square(q_active).sum())
            z = (t_obs[i] - mu) / sigma
            out[i] = float(ndtr(-z)) if greater else float(ndtr(z)), "normal"
    for multiset, rows in shared.values():
        if greater:
            lo = max(int(k[rows].min()), 0)
            pmf = _null_pmf(multiset, p_plus, lo=lo)
            for i in rows:
                out[i] = min(float(pmf[max(k[i], 0) - lo :].sum()), 1.0), "dp"
        else:
            hi = int(k[rows].max())
            pmf = _null_pmf(multiset, p_plus, hi=hi) if hi >= 0 else None
            for i in rows:
                out[i] = min(float(pmf[: k[i] + 1].sum()), 1.0) if k[i] >= 0 else 0.0, "dp"
    return out


def _signscore_pvalue(
    ds: list[np.ndarray],
    tau0: float,
    score: ScoreFunction,
    p_greater_tail: float,
    p_less_tail: float,
    sided: str,
    approx: bool = False,
) -> list[tuple[float, float, str, int]]:
    """Shared p-value engine over a batch, ds holding each set's contrasts.

    p_greater_tail / p_less_tail are the sign probabilities used for the
    upper and lower tails (they differ only under a sensitivity tilt; both
    are 0.5 for the randomization test).  The contrasts, zero-padded to one
    length, are scored in one call and each tail comes from one
    `_tail_pvalue` call (approx passes to it), greater tails first.
    Returns (statistic, p, route, n_effective) per set.
    """
    if sided not in SIDES:
        raise ValueError(f"sided must be one of {SIDES}, got {sided!r}")
    shifted = np.zeros((len(ds), max((d.size for d in ds), default=0)))
    for row, d in zip(shifted, ds):
        row[: d.size] = d - tau0
    q = score.scores(np.abs(shifted))
    t_obs = np.array([float(row_q[row > 0].sum()) for row_q, row in zip(q, shifted)])
    n_active = np.count_nonzero(q > 0, axis=-1)
    if (n_active == 0).any():
        raise DegenerateDataError("all adjusted contrasts are zero; no sign information")

    def tails(p_plus: float, greater: bool, rows=slice(None)) -> list[tuple[float, str]]:
        return _tail_pvalue(q[rows], t_obs[rows], p_plus, greater, approx)

    found = tails(p_less_tail, False) if sided == "one_sided_less" else tails(p_greater_tail, True)
    if sided == "two_sided":
        # Two-sided doubles the smaller tail and caps at 1.  With p_less_tail <=
        # p_greater_tail, less >= 1 - greater: a greater tail below 1/2, by more
        # than rounding, is the smaller one, and the less tail is never built.
        need = [i for i, (g, _) in enumerate(found) if p_less_tail > p_greater_tail or not g < 0.5 - 1e-9]
        less = dict(zip(need, (p for p, _ in tails(p_less_tail, False, need)))) if need else {}
        found = [(min(1.0, 2.0 * min(g, less.get(i, g))), route) for i, (g, route) in enumerate(found)]
    return [(float(t), p, route, int(n)) for t, (p, route), n in zip(t_obs, found, n_active)]


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
    _check_tau0(quads.d_values() - tau0, tau0)
    t_obs, p, route, n_eff = _signscore_pvalue([quads.d_values()], tau0, score, 0.5, 0.5, sided)[0]
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
    On the DP route every probe that sees the same score multiset shares
    one null distribution (see `_null_pmf`).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    score = score or ScoreFunction.wilcoxon()
    d = quads.d_values()

    def p_two(tau: float) -> float:
        # A shift that zeroes every contrast is maximally compatible.
        try:
            return _signscore_pvalue([d], tau, score, 0.5, 0.5, "two_sided")[0][1]
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

