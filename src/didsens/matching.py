"""Three-stage matching for two-period group comparisons.

Stage 1 pairs treated to control units within period 1, stage 2 within
period 2, and stage 3 matches period-1 pairs to period-2 pairs on
pair-level summaries, yielding the quadruples that inference consumes.

Each stage is one column table (_StageData) over its treated-role units
and then its control-role units: a continuous covariate is a float64
column, a nominal one integer codes into its sorted labels.  The solver,
the constraint repair and the balance engine (_report, which derives a
report's standardized differences and permutation p-values from one set of
feature columns) all read these columns.

Distances are rank-based Mahalanobis distances over the continuous
covariates.  Balance constraints come in three flavors: per-covariate
caps on the absolute standardized difference, exact agreement on nominal
covariates, and (near-)fine balance, which constrains the matched
control group's category histogram rather than individual pairs.

Pair solvers are built on the exact rectangular assignment solver from
scipy.  objective="minimize_total_distance" matches every treated unit at
minimal total distance, with fine balance enforced through restricted
dummy columns; it cannot drop pairs, so standardized-difference caps
cannot be enforced there.  objective="maximize_pairs" (the default)
first finds a maximum-cardinality minimum-distance matching, then repairs
constraint violations by removing the least useful pairs and greedily
re-augments.  The repair sequence is a heuristic: the returned matching
satisfies every declared constraint, but among all constraint-satisfying
matchings it may not have maximal size or minimal distance.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .core import MatchedPair, QuadrupleSet, UnitRecord, validate_dataset
from .errors import ConfigError, InfeasibleMatchError, StructuralError
from .inference import average_ranks

OBJECTIVES = ("maximize_pairs", "minimize_total_distance")
NOMINAL_RULES = ("exact", "fine", "near_fine", "none")


@dataclass(frozen=True)
class NominalRule:
    """Handling rule for one nominal covariate."""

    kind: str
    k: int = 0

    def __post_init__(self) -> None:
        if self.kind not in NOMINAL_RULES:
            raise ConfigError(f"nominal rule must be one of {NOMINAL_RULES}, got {self.kind!r}")
        if self.kind == "near_fine" and self.k < 1:
            raise ConfigError("near_fine needs a deviation budget k >= 1")
        if self.kind != "near_fine" and self.k != 0:
            raise ConfigError(f"rule {self.kind!r} takes no budget")


@dataclass(frozen=True)
class BalanceSpec:
    """Declared balance constraints and solver options for one stage.

    continuous maps covariate name to the largest tolerated absolute
    standardized difference (math.inf leaves it distance-only).  nominal
    maps covariate name to a NominalRule.  The caliper is a cap on the
    rank-based Mahalanobis distance: a hard edge filter under
    maximize_pairs, a large additive penalty under
    minimize_total_distance.
    """

    continuous: Mapping[str, float] = field(default_factory=dict)
    nominal: Mapping[str, NominalRule] = field(default_factory=dict)
    caliper: float | None = None
    objective: str = "maximize_pairs"

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        for name, threshold in self.continuous.items():
            if threshold <= 0:
                raise ConfigError(f"threshold for {name!r} must be positive")
        if self.caliper is not None and self.caliper <= 0:
            raise ConfigError("caliper must be positive")

    @property
    def exact_names(self) -> tuple[str, ...]:
        return tuple(sorted(n for n, r in self.nominal.items() if r.kind == "exact"))

    @property
    def fine_like(self) -> tuple[str, ...]:
        return tuple(sorted(n for n, r in self.nominal.items() if r.kind in ("fine", "near_fine")))

    def budget(self, name: str) -> int:
        rule = self.nominal[name]
        return rule.k if rule.kind == "near_fine" else 0


@dataclass(frozen=True)
class BalanceRow:
    covariate: str
    std_diff_before: float
    p_before: float
    std_diff_after: float
    p_after: float
    draws_before: int
    draws_after: int
    note: str = ""


@dataclass(frozen=True)
class BalanceReport:
    """Before/after balance for one matching stage."""

    stage: str
    rows: tuple[BalanceRow, ...]
    n_treated_before: int
    n_control_before: int
    n_matched: int


# ---------------------------------------------------------------------------
# standardized differences and distances


def pooled_sd(column: np.ndarray, group_a: np.ndarray, group_b: np.ndarray) -> float:
    """Square root of the average of the two group variances."""
    xa = column[group_a]
    xb = column[group_b]
    va = xa.var(ddof=1) if xa.size > 1 else 0.0
    vb = xb.var(ddof=1) if xb.size > 1 else 0.0
    return float(np.sqrt(0.5 * (va + vb)))


def _std_diff(diff: float, scale: float) -> float:
    """diff / scale for a difference of means; at zero scale 0/0 gives 0 and d/0 gives +inf."""
    if scale == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / scale


def _rank_mahalanobis(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Rank-based Mahalanobis distances between two row sets."""
    na = xa.shape[0]
    p = xa.shape[1]
    if p == 0:
        return np.zeros((na, xb.shape[0]))
    pooled = np.vstack([xa, xb])
    ranks = np.ascontiguousarray(average_ranks(pooled.T).T)
    cov = np.atleast_2d(np.cov(ranks, rowvar=False))
    cov = cov + np.eye(p) * (1e-8 * max(np.trace(cov), 1.0))
    transform = np.linalg.cholesky(np.linalg.inv(cov))
    y = ranks @ transform
    return cdist(y[:na], y[na:])


# ---------------------------------------------------------------------------
# solver internals


def _assignment_match(
    dist: np.ndarray,
    feasible: np.ndarray,
    compound_t: list[tuple] | None,
    compound_c: list[tuple] | None,
    budget: int,
    caliper: float | None,
) -> list[tuple[int, int]]:
    """Minimum total distance, every treated unit matched.

    Fine balance on the compound category is enforced with restricted
    dummy columns; a near-fine budget adds wildcard columns.
    """
    n_t, n_c = dist.shape
    if n_t > n_c:
        raise InfeasibleMatchError(
            f"{n_t} treated units but only {n_c} controls; "
            "minimize_total_distance must match every treated unit"
        )
    dmax = float(dist.max())
    cost_dist = dist.copy()
    if caliper is not None:
        cost_dist = cost_dist + (dist > caliper) * (1000.0 * (dmax + 1.0))
        dmax = float(cost_dist.max())

    surplus: dict[tuple, int] = {}
    n_wild = 0
    if compound_t is not None:
        counts_t = Counter(compound_t)
        counts_c = Counter(compound_c)
        deficit = {cat: n - counts_c.get(cat, 0) for cat, n in counts_t.items() if n > counts_c.get(cat, 0)}
        total_deficit = sum(deficit.values())
        if total_deficit > budget:
            worst = max(deficit, key=lambda cat: deficit[cat])
            raise InfeasibleMatchError(
                f"fine balance infeasible: category {worst!r} has "
                f"{counts_t[worst]} treated but {counts_c.get(worst, 0)} controls "
                f"(total deficit {total_deficit} exceeds budget {budget})"
            )
        surplus = {cat: max(n - counts_t.get(cat, 0), 0) for cat, n in counts_c.items()}
        n_wild = budget - total_deficit

    n_extra = sum(surplus.values()) + n_wild
    n_cols = n_t + n_extra
    big_m = (n_c + n_extra + 1) * (dmax + 1.0)
    eps = (dmax + 1.0) * 1e-6
    cost = np.full((n_c, n_cols), big_m)
    cost[:, :n_t] = np.where(feasible.T, cost_dist.T - big_m, big_m)
    # Per control category, its surplus dummy columns (free to its
    # controls), then the wildcard columns (eps to every control).
    col = n_t
    if surplus:
        code = {cat: k for k, cat in enumerate(surplus)}
        code_c = np.array([code[cat] for cat in compound_c])
        for k, n in enumerate(surplus.values()):
            cost[code_c == k, col:col + n] = 0.0
            col += n
    cost[:, col:] = eps
    rows, cols = linear_sum_assignment(cost)
    assigned = {c: r for r, c in zip(rows, cols)}
    pairs: list[tuple[int, int]] = []
    for t in range(n_t):
        if t not in assigned or not feasible[t, assigned[t]]:
            raise InfeasibleMatchError(
                "no admissible control for every treated unit under the exact "
                "matching and fine balance constraints"
            )
        pairs.append((t, assigned[t]))
    return pairs


def _max_cardinality_match(dist: np.ndarray, feasible: np.ndarray) -> list[tuple[int, int]]:
    """Maximum-cardinality matching, minimum total distance among those."""
    n_t, n_c = dist.shape
    if not feasible.any():
        return []
    dmax = float(dist[feasible].max())
    unmatched = (min(n_t, n_c) + 1) * (dmax + 1.0)
    big = 10.0 * (n_t + n_c + 2) * unmatched
    cost = np.full((n_t, n_c + n_t), big)
    cost[:, :n_c] = np.where(feasible, dist, big)
    cost[np.arange(n_t), n_c + np.arange(n_t)] = unmatched
    rows, cols = linear_sum_assignment(cost)
    return [(int(t), int(c)) for t, c in zip(rows, cols) if c < n_c and feasible[t, c]]


class _StageData:
    """One matching stage as a column table.

    Units are the treated-role units, then the control-role units.  Each
    covariate is one column over them: continuous covariates are the
    float64 columns of x, in cont_names order (x_t and x_c are its two
    row blocks); a nominal covariate is codes[name], integer codes into
    its sorted labels[name].  The solver, the repair and the balance report all read
    these columns.  Rank distances are computed on first use, so a stage
    built only for a balance report never computes them.
    """

    def __init__(
        self,
        rows_t: Sequence[Mapping[str, float | str]],
        rows_c: Sequence[Mapping[str, float | str]],
        kinds: Mapping[str, str],
        spec: BalanceSpec,
    ) -> None:
        for name in list(spec.continuous) + list(spec.nominal):
            if name not in kinds:
                raise ConfigError(f"constraint names unknown covariate {name!r}")
        for name in spec.continuous:
            if kinds[name] != "continuous":
                raise ConfigError(f"continuous threshold declared for nominal covariate {name!r}")
        for name in spec.nominal:
            if kinds[name] != "nominal":
                raise ConfigError(f"nominal rule declared for continuous covariate {name!r}")
        self.spec = spec
        self.kinds = kinds
        self.n_t = len(rows_t)
        rows = [*rows_t, *rows_c]
        self.cont_names = tuple(sorted(n for n, k in kinds.items() if k == "continuous"))
        self.x = np.array([[float(r[n]) for n in self.cont_names] for r in rows], dtype=np.float64)
        self.x_t, self.x_c = self.x[: self.n_t], self.x[self.n_t:]
        self.labels: dict[str, np.ndarray] = {}
        self.codes: dict[str, np.ndarray] = {}
        for name in sorted(n for n, k in kinds.items() if k == "nominal"):
            self.labels[name], self.codes[name] = np.unique([str(r[name]) for r in rows], return_inverse=True)
        # Full-sample pooled SDs, fixed once per stage.  One that overflows would
        # turn every standardized difference into 0, so it is rejected by name.
        ga, gb = np.arange(self.n_t), np.arange(self.n_t, len(rows))
        with np.errstate(over="ignore", invalid="ignore"):
            self.scales = {name: pooled_sd(self.x[:, j], ga, gb) for j, name in enumerate(self.cont_names)}
        for name, sd in self.scales.items():
            if not math.isfinite(sd):
                raise StructuralError(f"covariate {name!r}: its spread overflows float64; rescale it")

    @cached_property
    def dist(self) -> np.ndarray:
        return _rank_mahalanobis(self.x_t, self.x_c)

    def feasible_matrix(self, hard_caliper: bool) -> np.ndarray:
        feas = np.ones(self.dist.shape, dtype=bool)
        for name in self.spec.exact_names:
            code = self.codes[name]
            feas &= code[: self.n_t, None] == code[None, self.n_t:]
        if hard_caliper and self.spec.caliper is not None:
            feas &= self.dist <= self.spec.caliper
        return feas

    def continuous_excesses(self, pairs: list[tuple[int, int]]) -> dict[str, float]:
        caps = {name: t for name, t in self.spec.continuous.items() if math.isfinite(t)}
        if not pairs:
            return dict.fromkeys(caps, 0.0)
        t_idx = np.array([t for t, _ in pairs])
        c_idx = np.array([c for _, c in pairs]) + self.n_t
        x = {n: self.x[:, self.cont_names.index(n)] for n in caps}
        sds = {n: _std_diff(float(x[n][t_idx].mean() - x[n][c_idx].mean()), self.scales[n]) for n in caps}
        return {name: max(abs(sds[name]) - threshold, 0.0) for name, threshold in caps.items()}


# A cap decision from running sums counts only when its margin lies farther
# than this from 0, in units of max(1, largest |value| / pooled SD) of the
# covariate; running sums and np.mean differ only in the last bits, far
# inside the band.  Nearer to 0, or for a covariate with zero pooled SD,
# _StageData.continuous_excesses on the pair list decides.
_CAP_GUARD = 1e-9


class _Tally:
    """Constraint state of one pair set, updated one pair at a time.

    Per fine or near-fine covariate: treated and control counts per label
    code and the one-sided deviation sum(max(count_t - count_c, 0)).  Per
    finite cap: running treated and control sums and a guard band.  Adding
    or removing a pair costs O(#constraints).
    """

    def __init__(self, stage: _StageData, pairs: list[tuple[int, int]]) -> None:
        spec = stage.spec
        t_idx = np.array([t for t, _ in pairs], dtype=np.intp)
        c_idx = np.array([c for _, c in pairs], dtype=np.intp)
        self.n = len(pairs)
        self.fine_names = spec.fine_like
        self.budgets = [spec.budget(name) for name in self.fine_names]
        self.codes = [(stage.codes[n][: stage.n_t], stage.codes[n][stage.n_t:]) for n in self.fine_names]
        self.code_lists = [(ct.tolist(), cc.tolist()) for ct, cc in self.codes]
        self.count_t, self.count_c, self.dev = [], [], []
        for name, (code_t, code_c) in zip(self.fine_names, self.codes):
            k = stage.labels[name].size
            ct = np.bincount(code_t[t_idx], minlength=k)
            cc = np.bincount(code_c[c_idx], minlength=k)
            self.count_t.append(ct.tolist())
            self.count_c.append(cc.tolist())
            self.dev.append(int(np.maximum(ct - cc, 0).sum()))
        cols, self.caps = [], []  # caps: (threshold, scale, guard)
        for name, threshold in spec.continuous.items():
            if math.isfinite(threshold):
                j = stage.cont_names.index(name)
                scale = stage.scales[name]
                top = np.abs(stage.x[:, j]).max()
                guard = _CAP_GUARD * max(1.0, top / scale) if scale > 0 else math.inf
                cols.append(j)
                self.caps.append((threshold, scale or 1.0, guard))
        self.x_t, self.x_c = stage.x_t[:, cols], stage.x_c[:, cols]
        self.rows_t, self.rows_c = self.x_t.tolist(), self.x_c.tolist()
        self.sum_t = self.x_t[t_idx].sum(axis=0).tolist()
        self.sum_c = self.x_c[c_idx].sum(axis=0).tolist()

    def move(self, t: int, c: int, sign: int) -> None:
        """Add (sign 1) or remove (sign -1) the pair (t, c)."""
        for i, (code_t, code_c) in enumerate(self.code_lists):
            lt, lc = code_t[t], code_c[c]
            ct, cc = self.count_t[i], self.count_c[i]
            if lt != lc:
                if sign > 0:
                    self.dev[i] += (ct[lt] >= cc[lt]) - (ct[lc] > cc[lc])
                else:
                    self.dev[i] += (ct[lc] >= cc[lc]) - (ct[lt] > cc[lt])
            ct[lt] += sign
            cc[lc] += sign
        for j, (xt, xc) in enumerate(zip(self.rows_t[t], self.rows_c[c])):
            self.sum_t[j] += sign * xt
            self.sum_c[j] += sign * xc
        self.n += sign

    def nominal_scores(self, violated: list[int], t: np.ndarray, c: np.ndarray):
        """Per pair: deviation reduction over the violated covariates, and
        whether any of them labels the pair's two units differently."""
        reduction = np.zeros(t.size, dtype=np.int64)
        differs = np.zeros(t.size, dtype=bool)
        for i in violated:
            ct, cc = np.array(self.count_t[i]), np.array(self.count_c[i])
            lt, lc = self.codes[i][0][t], self.codes[i][1][c]
            d = lt != lc
            differs |= d
            reduction += d & (ct[lt] > cc[lt])
            reduction -= d & (ct[lc] >= cc[lc])
        return reduction, differs

    def removal_totals(self, t: np.ndarray, c: np.ndarray):
        """Per pair: the cap excess total with that pair removed, from the
        running sums; whether every cap's excess is certainly 0; and a bound
        on how far the total may lie from the exact one."""
        threshold, scale, guard = (np.array(v).reshape(1, -1) for v in zip(*self.caps))
        m = self.n - 1
        sd = ((np.array(self.sum_t) - self.x_t[t]) / m - (np.array(self.sum_c) - self.x_c[c]) / m) / scale
        margin = np.abs(sd) - threshold
        return np.maximum(margin, 0.0).sum(axis=1), (margin < -guard).all(axis=1), guard.sum()

    def admits(self, t: int, c: int) -> bool | None:
        """Whether adding (t, c) keeps every constraint; None when a cap
        margin lies inside its guard band and no constraint certainly fails."""
        for i, (code_t, code_c) in enumerate(self.code_lists):
            lt, lc = code_t[t], code_c[c]
            if lt != lc:
                ct, cc = self.count_t[i], self.count_c[i]
                if self.dev[i] + (ct[lt] >= cc[lt]) - (ct[lc] > cc[lc]) > self.budgets[i]:
                    return False
        n = self.n + 1
        verdict: bool | None = True
        rows = zip(self.sum_t, self.sum_c, self.rows_t[t], self.rows_c[c], self.caps)
        for st, sc, xt, xc, (threshold, scale, guard) in rows:
            margin = abs(((st + xt) / n - (sc + xc) / n) / scale) - threshold - 1e-12
            if margin > guard:
                return False
            if margin >= -guard:
                verdict = None
        return verdict


def _pick(mask: np.ndarray, score: np.ndarray, dist: np.ndarray) -> int:
    """First index in mask with the largest score, ties to the largest dist."""
    best = mask & (score == score[mask].max())
    best &= dist == dist[best].max()
    return int(np.flatnonzero(best)[0])


def _repair_and_augment(
    stage: _StageData, pairs: list[tuple[int, int]], feas: np.ndarray
) -> list[tuple[int, int]]:
    """Remove pairs until all constraints hold, then greedily re-augment.

    feas is the stage's feasible_matrix(hard_caliper=True).  Nominal
    repair removes the pair that most reduces the violated deviations
    (ties: larger distance, then earlier pair); cap repair removes the pair
    whose removal leaves the smallest cap excess total (same ties).
    Re-augmentation walks the free feasible edges by (distance, treated,
    control) and keeps each one that preserves every constraint.

    One _Tally of the current pair set, built once and updated by one pair
    at a time, decides each check: label counts decide (near-)fine balance
    exactly, and running sums decide a cap whenever its margin lies outside
    the _CAP_GUARD band.  Inside the band, or when a capped covariate has
    zero pooled SD, the exact expression (stage.continuous_excesses on the
    trial pair list) decides.  Pairs and errors equal those of
    oracles.repair_and_augment_reference, which recomputes every check from
    the whole pair list.
    """
    pairs = sorted(pairs)
    arr = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    tally = _Tally(stage, pairs)
    last_binding = None

    def remove(k: int) -> None:
        nonlocal arr
        t, c = pairs.pop(k)
        arr = np.delete(arr, k, axis=0)
        tally.move(t, c, -1)

    def remove_for_nominal() -> None:
        nonlocal last_binding
        while True:
            excesses = [d - b for d, b in zip(tally.dev, tally.budgets)]
            violated = [i for i, e in enumerate(excesses) if e > 0]
            if not violated:
                return
            last_binding = tally.fine_names[max(violated, key=lambda i: excesses[i])]
            t, c = arr[:, 0], arr[:, 1]
            reduction, differs = tally.nominal_scores(violated, t, c)
            if not differs.any():
                raise InfeasibleMatchError(
                    f"cannot satisfy fine balance on {last_binding!r}: no removable pair"
                )
            remove(_pick(differs, reduction, stage.dist[t, c]))
            if not pairs:
                raise InfeasibleMatchError(
                    f"fine balance on {last_binding!r} eliminated every pair"
                )

    def remove_one_for_continuous() -> bool:
        nonlocal last_binding
        excesses = stage.continuous_excesses(pairs)
        total = sum(excesses.values())
        if total <= 1e-12:
            return False
        last_binding = max(excesses, key=lambda n: excesses[n])
        if len(pairs) == 1:
            remove(0)
        else:
            t, c = arr[:, 0], arr[:, 1]
            fast, zero, slack = tally.removal_totals(t, c)
            # Only candidates within twice the slack of the fast minimum can
            # hold the exact minimum; settle those exactly.
            near = fast <= fast.min() + 2.0 * slack
            exact = np.full(len(pairs), math.inf)
            for k in np.flatnonzero(near & ~zero):
                exact[k] = sum(stage.continuous_excesses(pairs[:k] + pairs[k + 1:]).values())
            exact[near & zero] = 0.0
            remove(_pick(near, -exact, stage.dist[t, c]))
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
    used_t = np.zeros(feas.shape[0], dtype=bool)
    used_c = np.zeros(feas.shape[1], dtype=bool)
    used_t[arr[:, 0]] = True
    used_c[arr[:, 1]] = True
    free_t, free_c = np.flatnonzero(~used_t), np.flatnonzero(~used_c)
    ti, ci = np.nonzero(feas[np.ix_(free_t, free_c)])
    ti, ci = free_t[ti], free_c[ci]
    order = np.lexsort((ci, ti, stage.dist[ti, ci]))
    used_t, used_c = used_t.tolist(), used_c.tolist()
    for t, c in zip(ti[order].tolist(), ci[order].tolist()):
        if used_t[t] or used_c[c]:
            continue
        ok = tally.admits(t, c)
        if ok is None:
            trial = pairs.copy()
            bisect.insort(trial, (t, c))
            ok = not any(v > 1e-12 for v in stage.continuous_excesses(trial).values())
        if ok:
            bisect.insort(pairs, (t, c))
            tally.move(t, c, 1)
            used_t[t] = used_c[c] = True
    if not pairs:
        raise InfeasibleMatchError(
            f"no pairs satisfy the declared constraints (binding: {last_binding!r})"
        )
    return pairs


def _match_stage(stage: _StageData) -> list[tuple[int, int]]:
    spec = stage.spec
    if spec.objective == "minimize_total_distance":
        if spec.fine_like:
            names = spec.fine_like
            compound = list(zip(*(stage.labels[n][stage.codes[n]].tolist() for n in names)))
            compound_t, compound_c = compound[: stage.n_t], compound[stage.n_t:]
            if any(spec.nominal[n].kind == "fine" for n in names):
                budget = 0
            else:
                budget = min(spec.budget(n) for n in names)
        else:
            compound_t = compound_c = None
            budget = 0
        pairs = _assignment_match(
            stage.dist,
            stage.feasible_matrix(hard_caliper=False),
            compound_t,
            compound_c,
            budget,
            spec.caliper,
        )
        excess = stage.continuous_excesses(pairs)
        bad = [n for n, e in excess.items() if e > 1e-12]
        if bad:
            raise InfeasibleMatchError(
                f"standardized-difference caps on {bad} cannot be enforced under "
                "minimize_total_distance (every treated unit must be matched); "
                "use objective='maximize_pairs'"
            )
        return sorted(pairs)
    feas = stage.feasible_matrix(hard_caliper=True)
    if not feas.any():
        reason = "caliper" if stage.spec.caliper is not None else "exact matching constraints"
        raise InfeasibleMatchError(f"no admissible treated-control edges (binding: {reason})")
    pairs = _max_cardinality_match(stage.dist, feas)
    return _repair_and_augment(stage, pairs, feas)


# ---------------------------------------------------------------------------
# public matching operations


def _period_stage(
    records: Sequence[UnitRecord], spec: BalanceSpec
) -> tuple[list[UnitRecord], list[UnitRecord], _StageData]:
    """Treated records, control records and their stage, for one period's records."""
    records = list(records)
    if not records:
        raise StructuralError("no records")
    periods = {r.period for r in records}
    if len(periods) != 1:
        raise StructuralError(f"records span periods {sorted(periods)}; expected one period")
    kinds = validate_dataset(records)
    treated = [r for r in records if r.z == 1]
    controls = [r for r in records if r.z == 0]
    if not treated or not controls:
        raise InfeasibleMatchError("need at least one treated and one control unit")
    stage = _StageData([r.covariates for r in treated], [r.covariates for r in controls], kinds, spec)
    return treated, controls, stage


def within_period_match(records: Sequence[UnitRecord], spec: BalanceSpec) -> list[MatchedPair]:
    """Pair treated to control units from one period under a BalanceSpec.

    The solver is deterministic.
    """
    treated, controls, stage = _period_stage(records, spec)
    pairs = _match_stage(stage)
    return [MatchedPair(treated=treated[t], control=controls[c]) for t, c in pairs]


def pair_summaries(pairs: Sequence[MatchedPair], spec: BalanceSpec) -> list[dict[str, float | str]]:
    """Pair-level features for cross-period matching, one mapping per pair.

    Continuous covariates become within-pair means.  A nominal covariate
    keeps its label when the two units share it; otherwise its rule in
    spec decides: "fine" and "near_fine" give the unordered compound label
    "a|b", "exact" raises, and an undeclared covariate raises an error
    asking for a handling rule.  Covariates with rule "none" are dropped.
    A continuous covariate without a finite pair mean raises StructuralError.
    """
    out: list[dict[str, float | str]] = []
    for pair in pairs:
        features: dict[str, float | str] = {}
        for name, value in pair.treated.covariates.items():
            if name not in pair.control.covariates:
                raise StructuralError(
                    f"pair ({pair.treated.id!r}, {pair.control.id!r}): covariate {name!r} "
                    "missing on the control side"
                )
            other = pair.control.covariates[name]
            if not isinstance(value, str):
                features[name] = 0.5 * (float(value) + float(other))
                if not math.isfinite(features[name]):
                    raise StructuralError(
                        f"pair ({pair.treated.id!r}, {pair.control.id!r}): covariate {name!r} has no finite mean"
                    )
                continue
            rule = spec.nominal.get(name)
            kind = rule.kind if rule is not None else None
            if kind == "none":
                continue
            if value == other:
                features[name] = value
            elif kind in ("fine", "near_fine"):
                features[name] = "|".join(sorted((value, str(other))))
            elif kind == "exact":
                raise StructuralError(
                    f"pair ({pair.treated.id!r}, {pair.control.id!r}) violates exact "
                    f"matching on {name!r}"
                )
            else:
                raise StructuralError(
                    f"nominal covariate {name!r} differs within pair "
                    f"({pair.treated.id!r}, {pair.control.id!r}) and has no handling rule; "
                    "declare it exact, fine, near_fine, or none in the BalanceSpec"
                )
        out.append(features)
    return out


def _feature_kinds(rows: Sequence[Mapping[str, float | str]]) -> dict[str, str]:
    """Covariate kind per feature name: nominal for labels, else continuous."""
    kinds: dict[str, str] = {}
    for row in rows:
        for name, value in row.items():
            kind = "nominal" if isinstance(value, str) else "continuous"
            if kinds.setdefault(name, kind) != kind:
                raise StructuralError(f"feature {name!r} mixes continuous and nominal values")
    return kinds


@dataclass(frozen=True)
class CrossMatchDetails:
    """Pair features and index pairs behind a cross-period match."""

    pre_features: tuple[Mapping[str, float | str], ...]
    post_features: tuple[Mapping[str, float | str], ...]
    index_pairs: tuple[tuple[int, int], ...]


def cross_period_match(
    pre_pairs: Sequence[MatchedPair],
    post_pairs: Sequence[MatchedPair],
    spec: BalanceSpec,
    outcome_kind: str = "continuous",
) -> tuple[QuadrupleSet, CrossMatchDetails]:
    """Match period-1 pairs to period-2 pairs on pair-level features.

    spec builds the features (see pair_summaries) and constrains them;
    covariates with rule "none" have no feature and so no constraint.
    Returns the QuadrupleSet and the CrossMatchDetails behind it.  Under
    minimize_total_distance the longer side takes the control role, and an
    infeasible stage is reported with the period whose pairs were treated.
    """
    if not pre_pairs or not post_pairs:
        raise InfeasibleMatchError("need at least one pair on each side")
    pre = pair_summaries(pre_pairs, spec)
    post = pair_summaries(post_pairs, spec)
    kinds = _feature_kinds(pre + post)
    nominal = {name: rule for name, rule in spec.nominal.items() if rule.kind != "none"}
    stage_spec = replace(spec, nominal=nominal)
    swap = len(pre) > len(post) and spec.objective == "minimize_total_distance"
    stage = _StageData(post if swap else pre, pre if swap else post, kinds, stage_spec)
    try:
        index_pairs = _match_stage(stage)
    except InfeasibleMatchError as exc:
        treated, control = (2, 1) if swap else (1, 2)
        roles = f"period-{treated} pairs as treated units, period-{control} pairs as controls"
        raise InfeasibleMatchError(f"cross-period stage ({roles}): {exc}") from None
    if swap:
        index_pairs = sorted((b, a) for a, b in index_pairs)
    quad_set = QuadrupleSet.from_pairs(
        [pre_pairs[i] for i, _ in index_pairs], [post_pairs[j] for _, j in index_pairs], outcome_kind
    )
    details = CrossMatchDetails(
        pre_features=tuple(pre),
        post_features=tuple(post),
        index_pairs=tuple((int(i), int(j)) for i, j in index_pairs),
    )
    return quad_set, details


# ---------------------------------------------------------------------------
# balance reporting


# Uniforms per block of permutation draws (512 KiB of float64 per buffer).
_BLOCK_VALUES = 1 << 16
# Seeded permutation draws behind every balance p-value, at most.
PERMUTATION_DRAWS = 10_000
# Hits that settle a balance p-value before PERMUTATION_DRAWS.
_SETTLE_HITS = 20


def _treated_sums(r: np.ndarray, n_a: int, x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row d: column sums of x over the n_a smallest entries of r[d].

    A linear-time partition of a copy of r in mask (a buffer of r's shape)
    selects; mask then holds the 0/1 selection, so one matrix product gives
    every sum.  x's last column must be ones: it counts each row's units,
    and a row with a tie at its n_a-th value (chance about n * 2**-53 for
    uniform draws) is selected again with argpartition, so every row takes
    exactly n_a units.
    """
    np.copyto(mask, r)
    mask.partition(n_a - 1, axis=1)
    kth = mask[:, n_a - 1, None].copy()
    np.less_equal(r, kth, out=mask, casting="unsafe")
    sums = mask @ x
    for d in np.flatnonzero(sums[:, -1] != n_a):
        mask[d] = 0.0
        mask[d, np.argpartition(r[d], n_a - 1)[:n_a]] = 1.0
        sums[d] = mask[d] @ x
    return sums


def _report(
    stage: _StageData,
    index_pairs: Sequence[tuple[int, int]],
    seed: int,
    name: str,
    draws: int = PERMUTATION_DRAWS,
) -> BalanceReport:
    """Balance of the stage's treated-role units (arm a) against its
    control-role units (arm b) before matching, and of the matched units
    (index pairs) after.

    Feature columns come from the stage once: a continuous covariate is its
    column with divisor 1, a nominal one an indicator per label code whose
    pooled SD over the "before" arms is positive, with that SD as divisor.
    A covariate's statistic is the max over its columns of |mean_a - mean_b|
    / divisor, 0 with no column.  Each comparison computes each column's
    mean difference once; it gives the observed statistic and the
    standardized difference.  For a nominal covariate the two are the same
    number; a continuous one divides its signed difference by
    stage.scales[name] (see _std_diff; +inf is noted "zero pooled SD").

    P-values are two-sample permutation tests.  Each comparison reads its
    own stream, default_rng of a seed spawned from seed and the stage name,
    as draws x n uniforms over the pooled units (arm a, then arm b), and
    draw d's arm a is the n_a smallest entries of row d.  The stream is read
    in blocks of at most _BLOCK_VALUES uniforms into two buffers made once
    per comparison, so memory use stays small and does not depend on the
    allocator's history; the block size does not change the draws.  All
    arm-a sums of a block come from one matrix product.  A draw hits when
    its statistic is >= observed - 1e-12.  Sequential stop (Besag & Clifford
    1991): at the draw L that brings a covariate's hits to _SETTLE_HITS its
    p-value is _SETTLE_HITS / L; a covariate that never gets there reads all
    draws and takes the add-one (1 + hits) / (draws + 1).  Reading stops
    after the block in which the last covariate settles.
    """
    if not index_pairs:
        raise StructuralError(f"balance report for stage {name!r}: no matched pairs")
    n_t, n = stage.n_t, stage.x.shape[0]
    before = (np.arange(n_t), np.arange(n_t, n))
    after = (np.array([i for i, _ in index_pairs]), np.array([n_t + j for _, j in index_pairs]))
    names = sorted(stage.kinds)
    cols: list[np.ndarray] = []
    divisors: list[float] = []
    spans: list[slice] = []
    for cov in names:
        start = len(cols)
        if stage.kinds[cov] == "continuous":
            cols.append(stage.x[:, stage.cont_names.index(cov)])
            divisors.append(1.0)
        else:
            for code in range(stage.labels[cov].size):
                indicator = (stage.codes[cov] == code).astype(np.float64)
                sd = pooled_sd(indicator, *before)
                if sd > 0:
                    cols.append(indicator)
                    divisors.append(sd)
        spans.append(slice(start, len(cols)))
    divisor = np.array(divisors)
    scales = [stage.scales.get(cov) for cov in names]  # None for a nominal covariate
    # Each stage reads its own stream, so equal pooled sizes never share draws.
    stage_seed = int(np.random.SeedSequence(seed, spawn_key=tuple(name.encode())).generate_state(1)[0])
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(stage_seed).spawn(2)]

    sides = []  # per comparison: (standardized difference, p-value, draws) per covariate
    for (ia, ib), comparison_seed in zip((before, after), seeds):
        pool = np.concatenate([ia, ib])
        n_a, m = ia.size, pool.size
        pooled = [col[pool] for col in cols]
        diff = np.array([col[:n_a].mean() - col[n_a:].mean() for col in pooled])
        observed = np.abs(diff) / divisor
        obs = [observed[span].max(initial=0.0) for span in spans]
        total = np.array([col.sum() for col in pooled])
        x = np.column_stack(pooled + [np.ones(m)])
        rng = np.random.default_rng(comparison_seed)
        block_rows = max(1, _BLOCK_VALUES // m)
        r = np.empty((min(block_rows, draws), m))
        mask = np.empty_like(r)
        hits = [0] * len(names)
        settled: dict[int, tuple[float, int]] = {}
        done = 0
        while done < draws and len(settled) < len(names):
            b = min(block_rows, draws - done)
            rng.random(out=r[:b])
            s_a = _treated_sums(r[:b], n_a, x, mask[:b])[:, :-1]
            stats = np.abs(s_a / n_a - (total - s_a) / (m - n_a)) / divisor
            for k, span in enumerate(spans):
                if k in settled:
                    continue
                running = hits[k] + np.cumsum(stats[:, span].max(axis=1, initial=0.0) >= obs[k] - 1e-12)
                hits[k] = int(running[-1])
                if hits[k] >= _SETTLE_HITS:
                    stop = done + int(np.argmax(running >= _SETTLE_HITS)) + 1
                    settled[k] = (_SETTLE_HITS / stop, stop)
            done += b
        sides.append([
            (float(o) if scale is None else _std_diff(float(diff[span.start]), scale),
             *settled.get(k, ((1 + hits[k]) / (draws + 1), draws)))
            for k, (o, scale, span) in enumerate(zip(obs, scales, spans))
        ])
    rows = tuple(
        BalanceRow(cov, sd_b, p_b, sd_a, p_a, draws_b, draws_a,
                   "zero pooled SD" if scale == 0.0 and math.inf in (sd_b, sd_a) else "")
        for cov, scale, (sd_b, p_b, draws_b), (sd_a, p_a, draws_a) in zip(names, scales, *sides)
    )
    return BalanceReport(name, rows, n_t, n - n_t, len(index_pairs))


def balance_report(
    records: Sequence[UnitRecord],
    pairs: Sequence[MatchedPair],
    seed: int = 0,
) -> BalanceReport:
    """Before/after balance for a within-period stage, named "period<t>".

    records are checked and split as within_period_match does, and pairs
    must use each unit of them at most once.  "Before" compares all treated
    to all control records; "after" compares the matched units.
    Standardized differences use the full-sample pooled SD throughout;
    p-values are two-sample permutation tests on a stream seeded by seed
    and the stage name.  Each stops once it has _SETTLE_HITS hits, else at
    PERMUTATION_DRAWS draws; draws_before and draws_after record where.
    """
    treated, controls, stage = _period_stage(records, BalanceSpec())
    t_pos = {r.id: i for i, r in enumerate(treated)}
    c_pos = {r.id: j for j, r in enumerate(controls)}
    used: set[str] = set()
    for p in pairs:
        for uid, pos, role in ((p.treated.id, t_pos, "treated"), (p.control.id, c_pos, "control")):
            if uid not in pos:
                raise StructuralError(f"paired unit {uid!r} is not a {role} record of the stage")
            if uid in used:
                raise StructuralError(f"unit {uid!r} appears in more than one pair")
            used.add(uid)
    index_pairs = [(t_pos[p.treated.id], c_pos[p.control.id]) for p in pairs]
    return _report(stage, index_pairs, seed, f"period{treated[0].period}")


def cross_balance_report(details: CrossMatchDetails, seed: int = 0) -> BalanceReport:
    """Balance of pair-level features across the two periods, stage "cross"."""
    rows_a, rows_b = details.pre_features, details.post_features
    stage = _StageData(rows_a, rows_b, _feature_kinds(rows_a + rows_b), BalanceSpec())
    return _report(stage, details.index_pairs, seed, "cross")
