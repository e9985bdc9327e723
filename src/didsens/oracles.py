"""Slow, transparent reference implementations.

These exist to cross-check the closed forms and fast algorithms elsewhere in
the package and are deliberately written in the most literal way possible:
grid search over the full parameter box, exhaustive enumeration of sign
patterns, exact rational binomial tails.  Nothing here shares code with the
paths it validates.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InfeasibleMatchError


@dataclass(frozen=True)
class BruteForceResult:
    """Extremal sign probability and one grid configuration attaining it."""

    value: float
    at: dict


def brute_force_bound(
    lam: float,
    delta: float,
    objective: str = "max",
    aligned: bool = False,
    du_points: int = 21,
    coef_points: int = 9,
) -> BruteForceResult:
    """Extremize the one-quadruple sign probability by grid search.

    The probability that the signed contrast is positive, given magnitudes,
    is a composition of two logistic terms: the assignment-side term with
    per-period coefficients bounded by log(lam), and the outcome-side term
    with coefficients bounded by log(delta).  This routine evaluates that
    composition on a full grid over the two latent differences (each in
    [-1, 1], including the corners), the four coefficients (including the
    interval endpoints), and the cross-period agreement flag, and returns
    the max or min.

    Parameters
    ----------
    lam, delta : float
        Caps, both >= 1.
    objective : str
        "max" or "min".
    aligned : bool
        If True, restrict to coefficient pairs with matching signs across
        periods (lam1*lam2 >= 0 and delta1*delta2 >= 0).
    du_points, coef_points : int
        Grid resolutions.  Defaults include all corner configurations.

    Returns
    -------
    BruteForceResult

    Notes
    -----
    One sweep locates both extremes and is memoized, so asking for "min"
    and "max" at the same parameters costs a single grid evaluation.
    """
    if lam < 1 or delta < 1:
        raise ValueError("lam and delta must be >= 1")
    if objective not in ("max", "min"):
        raise ValueError("objective must be 'max' or 'min'")
    lo, hi = _grid_extremes(
        float(lam), float(delta), bool(aligned), int(du_points), int(coef_points)
    )
    value, at = lo if objective == "min" else hi
    return BruteForceResult(value=value, at=dict(at))


@lru_cache(maxsize=64)
def _grid_extremes(
    lam: float, delta: float, aligned: bool, du_points: int, coef_points: int
) -> tuple[tuple[float, tuple], tuple[float, tuple]]:
    """Scan the full configuration grid once, returning (min, max) entries."""
    du = np.linspace(-1.0, 1.0, du_points)
    lgrid = np.linspace(-math.log(lam), math.log(lam), coef_points)
    dgrid = np.linspace(-math.log(delta), math.log(delta), coef_points)

    # For one configuration the agreement probability is
    #     rho*eta + (1 - rho)*(1 - eta) = (1 + tanh(a/2)*tanh(c/2)) / 2
    # with rho = expit(a), eta = expit(c); the map is increasing in the tanh
    # product, so extremizing the product extremizes the probability.  The
    # grid is swept one du1 slice at a time to keep temporaries in cache.
    du2 = du[:, None, None, None, None]
    l1 = lgrid[None, :, None, None, None]
    l2 = lgrid[None, None, :, None, None]
    g1 = dgrid[None, None, None, :, None]
    g2 = dgrid[None, None, None, None, :]
    slice_shape = (du_points, coef_points, coef_points, coef_points, coef_points)
    if aligned:
        mask = np.broadcast_to((l1 * l2 >= 0) & (g1 * g2 >= 0), slice_shape)

    best_lo = None
    best_hi = None
    for b in (-1.0, 1.0):
        for i1, du1 in enumerate(du):
            r = np.tanh(0.5 * (l2 * du2 + b * l1 * du1))
            e = np.tanh(0.5 * (g2 * du2 - b * g1 * du1))
            c = r * e
            if aligned:
                c = np.where(mask, c, np.nan)
                flat_hi = int(np.nanargmax(c))
                flat_lo = int(np.nanargmin(c))
            else:
                flat_hi = int(c.argmax())
                flat_lo = int(c.argmin())
            c_flat = c.reshape(-1)
            v_hi = 0.5 * (1.0 + float(c_flat[flat_hi]))
            v_lo = 0.5 * (1.0 + float(c_flat[flat_lo]))
            if best_hi is None or v_hi > best_hi[0]:
                best_hi = (v_hi, (i1, *np.unravel_index(flat_hi, c.shape)), b)
            if best_lo is None or v_lo < best_lo[0]:
                best_lo = (v_lo, (i1, *np.unravel_index(flat_lo, c.shape)), b)

    def pack(entry: tuple) -> tuple[float, tuple]:
        value, idx, b = entry
        i1, i2, j1, j2, k1, k2 = idx
        at = (
            ("du1", float(du[i1])),
            ("du2", float(du[i2])),
            ("lam1", float(lgrid[j1])),
            ("lam2", float(lgrid[j2])),
            ("delta1", float(dgrid[k1])),
            ("delta2", float(dgrid[k2])),
            ("b", b),
        )
        return value, at

    return pack(best_lo), pack(best_hi)


@dataclass(frozen=True)
class ExactNullDistribution:
    """All 2^n sign patterns of a score vector with their probabilities."""

    values: np.ndarray
    probs: np.ndarray

    def tail_geq(self, t: float, tol: float = 1e-9) -> float:
        return float(self.probs[self.values >= t - tol].sum())

    def tail_leq(self, t: float, tol: float = 1e-9) -> float:
        return float(self.probs[self.values <= t + tol].sum())

    def pmf(self, decimals: int = 9) -> dict[float, float]:
        table: dict[float, float] = {}
        for v, p in zip(np.round(self.values, decimals), self.probs):
            table[float(v)] = table.get(float(v), 0.0) + float(p)
        return table


def exact_null_distribution(scores, p_plus: float = 0.5) -> ExactNullDistribution:
    """Exhaustively enumerate the sign-flip null distribution.

    Each of the n scores independently enters the sum with probability
    p_plus.  Limited to n <= 20; intended for validation, not production.
    """
    q = [float(v) for v in scores]
    n = len(q)
    if n > 20:
        raise ValueError("exhaustive enumeration is limited to 20 scores")
    if any(v < 0 for v in q):
        raise ValueError("scores must be nonnegative")
    if not 0.0 <= p_plus <= 1.0:
        raise ValueError("p_plus must lie in [0, 1]")
    values = []
    probs = []
    for pattern in itertools.product((0, 1), repeat=n):
        k = sum(pattern)
        values.append(sum(v for v, bit in zip(q, pattern) if bit))
        probs.append(p_plus**k * (1.0 - p_plus) ** (n - k))
    return ExactNullDistribution(values=np.array(values), probs=np.array(probs))


def binomial_tail_exact(n: int, t: int, p: Fraction, upper: bool = True) -> Fraction:
    """Exact rational binomial tail P(X >= t) (or P(X <= t))."""
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    p = Fraction(p)
    ks = range(t, n + 1) if upper else range(0, t + 1)
    total = Fraction(0)
    for k in ks:
        if 0 <= k <= n:
            total += math.comb(n, k) * p**k * (1 - p) ** (n - k)
    return total


def mcnemar_tail_exact(
    n_informative: int,
    statistic: int,
    gamma_squared: Fraction,
    direction: str = "upper",
    sided: str = "greater",
) -> Fraction:
    """Exact rational bound on the binomial-tail p-value.

    The sign probability ranges over [1/(1+g), g/(1+g)]; "upper"/"lower"
    selects the worst/best case for the tail named by `sided`.
    """
    g = Fraction(gamma_squared)
    if g < 1:
        raise ValueError("gamma_squared must be >= 1")
    if direction not in ("upper", "lower"):
        raise ValueError("direction must be 'upper' or 'lower'")
    if sided not in ("greater", "less"):
        raise ValueError("sided must be 'greater' or 'less'")
    p_hi = g / (1 + g)
    p_lo = 1 / (1 + g)
    # P(X >= t) grows with p; P(X <= t) shrinks with p.
    if sided == "greater":
        p = p_hi if direction == "upper" else p_lo
        return binomial_tail_exact(n_informative, statistic, p, upper=True)
    p = p_lo if direction == "upper" else p_hi
    return binomial_tail_exact(n_informative, statistic, p, upper=False)


def permutation_balance_pvalues(
    columns, kinds, ia, ib, seed: int, draws: int, scale_groups=None, settle_hits: int = 20
) -> dict[str, tuple[float, int]]:
    """Two-sample permutation p-values of a balance report, one draw at a time.

    The pooled units are ia followed by ib.  Draw d reads rng.random(n) from
    default_rng(seed) and takes the units at np.argsort(row)[:len(ia)] as
    treated.  A continuous covariate's statistic is |mean_a - mean_b|.  A
    nominal covariate's is the max, over categories whose indicator has a
    positive pooled SD over scale_groups (default (ia, ib)), of the
    indicator's |mean_a - mean_b| / that SD; with no such category it is 0.
    A draw hits when its statistic is >= observed - 1e-12.  Returns name ->
    (p-value, draws read): a covariate stops at the draw L of its
    settle_hits-th hit with p-value settle_hits / L; otherwise it reads all
    draws and takes the add-one (1 + hits) / (draws + 1).
    """

    def variance(values):
        if len(values) < 2:
            return 0.0
        m = sum(values) / len(values)
        return sum((v - m) ** 2 for v in values) / (len(values) - 1)

    sa, sb = scale_groups if scale_groups is not None else (ia, ib)
    pool = [int(i) for i in ia] + [int(i) for i in ib]
    n_a = len(ia)
    features = {}
    for name, column in columns.items():
        if kinds[name] == "continuous":
            features[name] = [([float(column[i]) for i in pool], 1.0)]
            continue
        features[name] = []
        for cat in sorted(set(column)):
            ind = [1.0 if label == cat else 0.0 for label in column]
            sd = math.sqrt(0.5 * (variance([ind[i] for i in sa]) + variance([ind[i] for i in sb])))
            if sd > 0:
                features[name].append(([ind[i] for i in pool], sd))

    def statistic(values, treated):
        rest = [v for k, v in enumerate(values) if k not in treated]
        chosen = [values[k] for k in treated]
        return abs(sum(chosen) / len(chosen) - sum(rest) / len(rest))

    def max_statistic(name, treated):
        return max((statistic(v, treated) / sd for v, sd in features[name]), default=0.0)

    observed = {name: max_statistic(name, set(range(n_a))) for name in features}
    hits = dict.fromkeys(features, 0)
    result = {}
    rng = np.random.default_rng(seed)
    for d in range(1, draws + 1):
        if len(result) == len(features):
            break
        treated = set(np.argsort(rng.random(len(pool)))[:n_a].tolist())
        for name in features:
            if name not in result and max_statistic(name, treated) >= observed[name] - 1e-12:
                hits[name] += 1
                if hits[name] == settle_hits:
                    result[name] = (settle_hits / d, d)
    for name in features:
        result.setdefault(name, ((1 + hits[name]) / (draws + 1), draws))
    return {name: result[name] for name in features}


def repair_and_augment_reference(stage, pairs):
    """The maximize_pairs constraint repair, every check recomputed from the pair list.

    stage is a matching._StageData (spec, dist, fine_t/fine_c labels, x_t/x_c
    covariates, scales) and pairs the stage's maximum-cardinality matching.
    Nominal repair drops the pair that most reduces the violated one-sided
    deviations (ties: larger distance, then earlier pair); cap repair drops
    the pair whose removal leaves the smallest cap excess total, evaluating
    every trial list from scratch; re-augmentation walks the free feasible
    edges by (distance, treated, control) and keeps each one whose trial
    list satisfies every constraint, rebuilt with Counters and means over
    all pairs.  Returns the sorted pairs or raises InfeasibleMatchError.
    """

    def one_sided_deviation(t_labels, c_labels):
        """Sum over categories of max(treated count - control count, 0)."""
        ct = Counter(t_labels)
        cc = Counter(c_labels)
        return sum(max(v - cc.get(cat, 0), 0) for cat, v in ct.items())

    def nominal_excesses(pairs):
        out = {}
        for name in stage.spec.fine_like:
            t_labels = [stage.fine_t[name][t] for t, _ in pairs]
            c_labels = [stage.fine_c[name][c] for _, c in pairs]
            dev = one_sided_deviation(t_labels, c_labels)
            out[name] = dev - stage.spec.budget(name)
        return out

    def continuous_excesses(pairs):
        out = {}
        if not pairs:
            return {name: 0.0 for name in stage.spec.continuous if math.isfinite(stage.spec.continuous[name])}
        t_idx = np.array([t for t, _ in pairs])
        c_idx = np.array([c for _, c in pairs])
        for name, threshold in stage.spec.continuous.items():
            if not math.isfinite(threshold):
                continue
            j = stage.cont_names.index(name)
            mt = stage.x_t[t_idx, j].mean()
            mc = stage.x_c[c_idx, j].mean()
            scale = stage.scales[name]
            if scale == 0.0:
                sd = 0.0 if mt == mc else math.inf
            else:
                sd = (mt - mc) / scale
            out[name] = max(abs(sd) - threshold, 0.0)
        return out

    def satisfied(pairs):
        if any(v > 0 for v in nominal_excesses(pairs).values()):
            return False
        return not any(v > 1e-12 for v in continuous_excesses(pairs).values())

    pairs = sorted(pairs)
    last_binding = None

    def remove_for_nominal() -> None:
        nonlocal pairs, last_binding
        names = stage.spec.fine_like
        if not names:
            return
        # Removing one pair shifts two label counts by one, so the deviation
        # change is an O(1) integer update; recomputing marginals per
        # candidate would make the repair quadratic in the pair count.
        count_t = {n: Counter(stage.fine_t[n][t] for t, _ in pairs) for n in names}
        count_c = {n: Counter(stage.fine_c[n][c] for _, c in pairs) for n in names}
        dev = {
            n: sum(max(v - count_c[n][cat], 0) for cat, v in count_t[n].items())
            for n in names
        }
        while True:
            excesses = {n: dev[n] - stage.spec.budget(n) for n in names}
            violated = [n for n, e in excesses.items() if e > 0]
            if not violated:
                return
            last_binding = max(violated, key=lambda n: excesses[n])
            best = None
            for idx, (t, c) in enumerate(pairs):
                reduction = 0
                same = True
                for n in violated:
                    lt = stage.fine_t[n][t]
                    lc = stage.fine_c[n][c]
                    if lt == lc:
                        continue
                    same = False
                    if count_t[n][lt] > count_c[n][lt]:
                        reduction += 1
                    if count_t[n][lc] >= count_c[n][lc]:
                        reduction -= 1
                if same:
                    continue
                key = (-reduction, -stage.dist[t, c], idx)
                if best is None or key < best[0]:
                    best = (key, idx)
            if best is None:
                raise InfeasibleMatchError(
                    f"cannot satisfy fine balance on {last_binding!r}: no removable pair"
                )
            t, c = pairs.pop(best[1])
            for n in names:
                lt = stage.fine_t[n][t]
                lc = stage.fine_c[n][c]
                if lt != lc:
                    if count_t[n][lt] > count_c[n][lt]:
                        dev[n] -= 1
                    if count_t[n][lc] >= count_c[n][lc]:
                        dev[n] += 1
                count_t[n][lt] -= 1
                count_c[n][lc] -= 1
            if not pairs:
                raise InfeasibleMatchError(
                    f"fine balance on {last_binding!r} eliminated every pair"
                )

    def remove_one_for_continuous() -> bool:
        nonlocal pairs, last_binding
        excesses = continuous_excesses(pairs)
        total = sum(excesses.values())
        if total <= 1e-12:
            return False
        last_binding = max(excesses, key=lambda n: excesses[n])
        best = None
        for idx, (t, c) in enumerate(pairs):
            trial = pairs[:idx] + pairs[idx + 1:]
            trial_total = sum(continuous_excesses(trial).values())
            key = (trial_total, -stage.dist[t, c], idx)
            if best is None or key < best[0]:
                best = (key, idx)
        pairs.pop(best[1])
        if not pairs:
            raise InfeasibleMatchError(
                f"standardized-difference cap on {last_binding!r} eliminated every pair"
            )
        return True

    while True:
        remove_for_nominal()
        if not remove_one_for_continuous():
            break

    # Greedy re-augmentation among dropped units, constraint-preserving.
    feas = stage.feasible_matrix(hard_caliper=True)
    used_t = {t for t, _ in pairs}
    used_c = {c for _, c in pairs}
    candidates = [
        (stage.dist[t, c], t, c)
        for t in range(feas.shape[0])
        if t not in used_t
        for c in range(feas.shape[1])
        if c not in used_c and feas[t, c]
    ]
    for _, t, c in sorted(candidates):
        if t in used_t or c in used_c:
            continue
        trial = sorted(pairs + [(t, c)])
        if satisfied(trial):
            pairs = trial
            used_t.add(t)
            used_c.add(c)
    if not pairs:
        raise InfeasibleMatchError(
            f"no pairs satisfy the declared constraints (binding: {last_binding!r})"
        )
    return sorted(pairs)
