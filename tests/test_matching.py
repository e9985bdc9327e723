import itertools
import math
from collections import Counter

import numpy as np
import pytest

from didsens import oracles
from didsens.core import MatchedPair
from didsens.errors import ConfigError, InfeasibleMatchError, StructuralError
from didsens.matching import (
    BalanceSpec,
    NominalRule,
    PERMUTATION_DRAWS,
    _BLOCK_VALUES,
    _SETTLE_HITS,
    _StageData,
    _balance_rows,
    _max_cardinality_match,
    _permutation_pvalues,
    _rank_mahalanobis,
    _repair_and_augment,
    _treated_sums,
    balance_report,
    cross_balance_report,
    cross_period_match,
    pair_summaries,
    pooled_sd,
    standardized_difference,
    within_period_match,
)

from conftest import unit


def test_pooled_sd_hand_example():
    col = np.array([0.0, 2.0, 10.0, 14.0])
    # group variances 2 and 8, so the pooled SD is sqrt(5)
    assert pooled_sd(col, np.array([0, 1]), np.array([2, 3])) == pytest.approx(math.sqrt(5.0))


def test_standardized_difference_hand_example():
    col = np.array([1.0, 2.0, 5.0, 7.0])
    sd = standardized_difference(col, np.array([0, 1]), np.array([2, 3]), scale=2.25)
    assert sd == pytest.approx(-2.0)


def test_standardized_difference_zero_scale_sentinel():
    col = np.array([1.0, 1.0, 2.0, 2.0])
    with pytest.warns(UserWarning, match="zero pooled SD"):
        sd = standardized_difference(col, np.array([0, 1]), np.array([2, 3]), scale=0.0)
    assert sd == math.inf
    same = standardized_difference(col, np.array([0, 1]), np.array([0, 1]), scale=0.0)
    assert same == 0.0


def test_spec_validation():
    with pytest.raises(ConfigError):
        BalanceSpec(objective="fastest")
    with pytest.raises(ConfigError):
        BalanceSpec(continuous={"x": 0.0})
    with pytest.raises(ConfigError):
        BalanceSpec(caliper=-1.0)
    with pytest.raises(ConfigError):
        NominalRule("nearest")
    with pytest.raises(ConfigError):
        NominalRule("near_fine", k=0)
    with pytest.raises(ConfigError):
        NominalRule("fine", k=2)


def _period1(units):
    return [unit(f"t{i}", 1, 1, 0.0, **cov) if z else unit(f"c{i}", 1, 0, 0.0, **cov)
            for i, (z, cov) in enumerate(units)]


def test_two_by_two_unique_optimum():
    records = _period1([
        (1, {"x": 0.0}),
        (1, {"x": 10.0}),
        (0, {"x": 0.1}),
        (0, {"x": 10.1}),
    ])
    for objective in ("maximize_pairs", "minimize_total_distance"):
        pairs = within_period_match(records, BalanceSpec(objective=objective))
        got = sorted((p.treated.covariates["x"], p.control.covariates["x"]) for p in pairs)
        assert got == [(0.0, 0.1), (10.0, 10.1)]


def test_exact_rule_pairs_within_category():
    records = _period1([
        (1, {"site": "a", "x": 1.0}),
        (1, {"site": "b", "x": 2.0}),
        (0, {"site": "b", "x": 1.0}),
        (0, {"site": "a", "x": 2.0}),
    ])
    spec = BalanceSpec(nominal={"site": NominalRule("exact")})
    pairs = within_period_match(records, spec)
    assert len(pairs) == 2
    for p in pairs:
        assert p.treated.covariates["site"] == p.control.covariates["site"]


def test_exact_rule_infeasible_when_categories_disjoint():
    records = _period1([(1, {"site": "a"}), (0, {"site": "b"})])
    spec = BalanceSpec(nominal={"site": NominalRule("exact")})
    with pytest.raises(InfeasibleMatchError, match="exact matching"):
        within_period_match(records, spec)


def _one_sided_dev(pairs, name):
    ct = Counter(p.treated.covariates[name] for p in pairs)
    cc = Counter(p.control.covariates[name] for p in pairs)
    return sum(max(v - cc.get(cat, 0), 0) for cat, v in ct.items())


_FINE_UNITS = [
    (1, {"site": "a", "x": 1.0}),
    (1, {"site": "a", "x": 2.0}),
    (1, {"site": "b", "x": 3.0}),
    (0, {"site": "a", "x": 1.1}),
    (0, {"site": "b", "x": 2.1}),
    (0, {"site": "b", "x": 3.1}),
]


def test_fine_balance_drops_a_pair_to_fix_marginals():
    records = _period1(_FINE_UNITS)
    spec = BalanceSpec(nominal={"site": NominalRule("fine")})
    pairs = within_period_match(records, spec)
    assert len(pairs) == 2
    assert _one_sided_dev(pairs, "site") == 0


def test_near_fine_budget_keeps_all_pairs():
    records = _period1(_FINE_UNITS)
    spec = BalanceSpec(nominal={"site": NominalRule("near_fine", k=1)})
    pairs = within_period_match(records, spec)
    assert len(pairs) == 3
    assert _one_sided_dev(pairs, "site") <= 1


def test_fine_balance_under_min_distance_uses_dummy_columns():
    records = _period1(_FINE_UNITS)
    ok = BalanceSpec(
        nominal={"site": NominalRule("near_fine", k=1)}, objective="minimize_total_distance"
    )
    pairs = within_period_match(records, ok)
    assert len(pairs) == 3
    strict = BalanceSpec(nominal={"site": NominalRule("fine")}, objective="minimize_total_distance")
    with pytest.raises(InfeasibleMatchError, match="fine balance infeasible"):
        within_period_match(records, strict)


def test_fine_balance_impossible_eliminates_every_pair():
    records = _period1([(1, {"site": "a"}), (1, {"site": "a"}), (0, {"site": "b"}), (0, {"site": "b"})])
    spec = BalanceSpec(nominal={"site": NominalRule("fine")})
    with pytest.raises(InfeasibleMatchError, match="site"):
        within_period_match(records, spec)


def test_maximize_pairs_enforces_std_diff_cap():
    records = _period1([
        (1, {"x": 0.0}), (1, {"x": 0.0}), (1, {"x": 0.0}), (1, {"x": 10.0}),
        (0, {"x": 0.0}), (0, {"x": 0.0}), (0, {"x": 0.0}), (0, {"x": 0.0}),
    ])
    spec = BalanceSpec(continuous={"x": 0.1})
    pairs = within_period_match(records, spec)
    assert len(pairs) == 3
    assert all(p.treated.covariates["x"] == 0.0 for p in pairs)
    # verify against the stage scale: full-sample pooled SD of x
    col = np.array([r.covariates["x"] for r in records], dtype=np.float64)
    scale = pooled_sd(col, np.arange(4), np.arange(4, 8))
    mt = np.mean([p.treated.covariates["x"] for p in pairs])
    mc = np.mean([p.control.covariates["x"] for p in pairs])
    assert abs((mt - mc) / scale) <= 0.1 + 1e-12


def test_min_distance_rejects_std_diff_caps_it_cannot_honor():
    records = _period1([
        (1, {"x": 0.0}), (1, {"x": 10.0}),
        (0, {"x": 0.0}), (0, {"x": 0.0}),
    ])
    spec = BalanceSpec(continuous={"x": 0.1}, objective="minimize_total_distance")
    with pytest.raises(InfeasibleMatchError, match="maximize_pairs"):
        within_period_match(records, spec)


def test_min_distance_needs_enough_controls():
    records = _period1([(1, {"x": 1.0}), (1, {"x": 2.0}), (0, {"x": 1.0})])
    with pytest.raises(InfeasibleMatchError, match="every treated unit"):
        within_period_match(records, BalanceSpec(objective="minimize_total_distance"))


def test_caliper_can_exclude_every_edge():
    records = _period1([(1, {"x": 0.0}), (0, {"x": 100.0})])
    spec = BalanceSpec(caliper=1e-6)
    with pytest.raises(InfeasibleMatchError, match="caliper"):
        within_period_match(records, spec)


def test_caliper_is_a_penalty_under_min_distance():
    # Every rank distance is at least 1 / sqrt(2.5) = 0.632, above the caliper:
    # maximize_pairs has no edge left, minimize_total_distance still matches
    # every treated unit, as the BalanceSpec docstring allows.
    records = _period1([(1, {"x": 0.0}), (1, {"x": 10.0}), (0, {"x": 0.1}), (0, {"x": 0.2}), (0, {"x": 0.3})])
    with pytest.raises(InfeasibleMatchError, match=r"no admissible treated-control edges \(binding: caliper\)"):
        within_period_match(records, BalanceSpec(caliper=0.5))
    pairs = within_period_match(records, BalanceSpec(caliper=0.5, objective="minimize_total_distance"))
    assert [(p.treated.id, p.control.id) for p in pairs] == [("t0", "c2"), ("t1", "c4")]
    dist = _rank_mahalanobis(np.array([[0.0], [10.0]]), np.array([[0.1], [0.2], [0.3]]))
    assert dist[0, 0] == pytest.approx(0.632, abs=1e-3) and dist[1, 2] == pytest.approx(0.632, abs=1e-3)


def test_min_distance_is_optimal_against_enumeration(rng):
    n_t, n_c = 4, 6
    covs = [{"x": float(v[0]), "y": float(v[1])} for v in rng.normal(0, 1, (n_t + n_c, 2))]
    records = _period1([(1, covs[i]) for i in range(n_t)] + [(0, covs[n_t + i]) for i in range(n_c)])
    pairs = within_period_match(records, BalanceSpec(objective="minimize_total_distance"))
    x_t = np.array([[c["x"], c["y"]] for c in covs[:n_t]])
    x_c = np.array([[c["x"], c["y"]] for c in covs[n_t:]])
    dist = _rank_mahalanobis(x_t, x_c)
    t_idx = {f"t{i}": i for i in range(n_t)}
    c_idx = {f"c{n_t + i}": i for i in range(n_c)}
    got = sum(dist[t_idx[p.treated.id], c_idx[p.control.id]] for p in pairs)
    best = min(
        sum(dist[i, perm[i]] for i in range(n_t))
        for perm in itertools.permutations(range(n_c), n_t)
    )
    assert got == pytest.approx(best, abs=1e-10)


def test_within_period_match_input_errors():
    with pytest.raises(StructuralError, match="no records"):
        within_period_match([], BalanceSpec())
    mixed = [unit("a", 1, 1, 0.0, x=1.0), unit("b", 2, 0, 0.0, x=1.0)]
    with pytest.raises(StructuralError, match="period"):
        within_period_match(mixed, BalanceSpec())
    ctrl_only = [unit("a", 1, 0, 0.0, x=1.0), unit("b", 1, 0, 0.0, x=2.0)]
    with pytest.raises(InfeasibleMatchError):
        within_period_match(ctrl_only, BalanceSpec())


def test_constraint_names_are_checked_against_kinds():
    records = _period1([(1, {"x": 1.0, "site": "a"}), (0, {"x": 2.0, "site": "a"})])
    with pytest.raises(ConfigError, match="unknown covariate"):
        within_period_match(records, BalanceSpec(continuous={"age": 0.1}))
    with pytest.raises(ConfigError, match="nominal"):
        within_period_match(records, BalanceSpec(continuous={"site": 0.1}))
    with pytest.raises(ConfigError, match="continuous"):
        within_period_match(records, BalanceSpec(nominal={"x": NominalRule("exact")}))


def test_matching_is_deterministic(rng):
    covs = [{"x": float(x), "y": float(y)} for x, y in rng.normal(0, 1, (30, 2))]
    records = _period1([(1 if i < 12 else 0, covs[i]) for i in range(30)])
    spec = BalanceSpec(continuous={"x": 0.5})
    a = within_period_match(records, spec)
    b = within_period_match(records, spec)
    assert [(p.treated.id, p.control.id) for p in a] == [(p.treated.id, p.control.id) for p in b]


def _random_repair_stage(seed):
    """A small stage with random caps, fine/near-fine/exact rules and caliper."""
    g = np.random.default_rng([seed, 9])
    n_t, n_c = int(g.integers(2, 41)), int(g.integers(2, 71))
    # Rounded values tie distances (0 decimals) or give equal means whose
    # float sums still depend on the order of summation (1 decimal).
    decimals = g.choice([-1, 0, 1], p=[0.3, 0.2, 0.5])
    const = g.choice(["none", "same", "differs"], p=[0.75, 0.2, 0.05])

    def rows(n, z):
        x = g.normal(0.3 * z, 1.0 if decimals < 1 else 0.4, (n, 2))
        if decimals >= 0:
            x = np.round(x, decimals)
        cat = g.choice(list("abcd"), n, p=[0.4, 0.3, 0.2, 0.1] if z else None)
        cat2 = g.choice(list("uvw"), n)
        flag = g.choice(["y", "n"], n, p=[0.7, 0.3])
        k = 0.2 if const == "differs" and z else 0.1
        return [{"x1": float(a), "x2": float(b), "k": k, "cat": str(c), "cat2": str(d),
                 "flag": str(f)} for (a, b), c, d, f in zip(x, cat, cat2, flag)]

    rows_t, rows_c = rows(n_t, 1), rows(n_c, 0)
    kinds = {"x1": "continuous", "x2": "continuous", "k": "continuous",
             "cat": "nominal", "cat2": "nominal", "flag": "nominal"}
    caps = {"x1": float(g.uniform(0.02, 0.3)),
            "x2": math.inf if g.random() < 0.3 else float(g.uniform(0.02, 0.3))}
    if const != "none":
        caps["k"] = float(g.uniform(0.02, 0.3))
    rules = [NominalRule("fine"), NominalRule("near_fine", k=1), NominalRule("near_fine", k=2)]
    nominal = {}
    for name, pick in (("cat", g.integers(4)), ("cat2", g.integers(3))):
        if pick < 3 and g.random() < 0.8:
            nominal[name] = rules[pick]
    if g.random() < 0.5:
        nominal["flag"] = NominalRule("exact")
    caliper = float(g.uniform(0.5, 2.5)) if g.random() < 0.3 else None
    stage = _StageData(rows_t, rows_c, kinds, BalanceSpec(caps, nominal, caliper))
    feas = stage.feasible_matrix(hard_caliper=True)
    start = _max_cardinality_match(stage.dist, feas)
    if start and g.random() < 0.5:
        # Cap x1 at the starting pairs' own |std diff| less 1e-12: the
        # repair then meets trials right at the cap's boundary.
        t, c = np.array(start).T
        j = stage.cont_names.index("x1")
        sd = (stage.x_t[t, j].mean() - stage.x_c[c, j].mean()) / stage.scales["x1"]
        if abs(sd) > 0.01:
            caps["x1"] = abs(sd) - 1e-12
            stage = _StageData(rows_t, rows_c, kinds, BalanceSpec(caps, nominal, caliper))
    return stage, feas, start


def test_repair_equals_recompute_everything_reference():
    outcomes = Counter()
    for seed in range(240):
        stage, feas, start = _random_repair_stage(seed)
        results = []
        for repair, args in ((_repair_and_augment, (feas,)),
                             (oracles.repair_and_augment_reference, ())):
            try:
                results.append(repair(stage, list(start), *args))
            except InfeasibleMatchError as exc:
                results.append(str(exc))
        assert results[0] == results[1], f"stage seed {seed}"
        got = results[0]
        outcomes["error" if isinstance(got, str) else "kept" if got == sorted(start) else "changed"] += 1
    assert min(outcomes.values()) >= 5, outcomes


def _pair(i, period, region, x_t, x_c, y_t=0.0, y_c=0.0):
    t = unit(f"p{period}t{i}", period, 1, y_t, region=region, x=x_t)
    c = unit(f"p{period}c{i}", period, 0, y_c, region=region, x=x_c)
    return MatchedPair(treated=t, control=c)


def test_pair_summaries_features():
    pairs = [_pair(0, 1, "north", 2.0, 4.0)]
    assert pair_summaries(pairs, BalanceSpec())[0] == {"region": "north", "x": 3.0}
    # differing labels need a declared rule
    t = unit("t", 1, 1, 0.0, region="north", x=1.0)
    c = unit("c", 1, 0, 0.0, region="south", x=1.0)
    odd = [MatchedPair(treated=t, control=c)]
    with pytest.raises(StructuralError, match="handling rule"):
        pair_summaries(odd, BalanceSpec())
    spec = BalanceSpec(nominal={"region": NominalRule("fine")})
    assert pair_summaries(odd, spec)[0]["region"] == "north|south"
    drop = BalanceSpec(nominal={"region": NominalRule("none")})
    assert "region" not in pair_summaries(odd, drop)[0]
    strict = BalanceSpec(nominal={"region": NominalRule("exact")})
    with pytest.raises(StructuralError, match="exact"):
        pair_summaries(odd, strict)


def test_pair_summaries_missing_covariate():
    t = unit("t", 1, 1, 0.0, x=1.0, extra=2.0)
    c = unit("c", 1, 0, 0.0, x=1.0)
    with pytest.raises(StructuralError, match="extra"):
        pair_summaries([MatchedPair(treated=t, control=c)], BalanceSpec())


def test_cross_period_match_exact_region_and_contrasts():
    pre = [
        _pair(0, 1, "north", 1.0, 1.2),
        _pair(1, 1, "north", 2.0, 2.1),
        _pair(2, 1, "south", 3.0, 3.2),
    ]
    post = [
        _pair(0, 2, "south", 3.1, 3.0, y_t=5.0, y_c=1.0),
        _pair(1, 2, "north", 1.1, 1.0, y_t=4.0, y_c=2.0),
    ]
    spec = BalanceSpec(nominal={"region": NominalRule("exact")})
    quads, details = cross_period_match(pre, post, spec)
    assert len(quads) == 2
    units = {u.id: u for p in pre + post for u in (p.treated, p.control)}
    for (i, j), ids, d in zip(details.index_pairs, quads.ids.tolist(), quads.d_values().tolist()):
        a, b = pre[i], post[j]
        assert ids == [a.treated.id, a.control.id, b.treated.id, b.control.id]
        assert len({units[uid].covariates["region"] for uid in ids}) == 1
        assert d == (b.treated.outcome - b.control.outcome) - (a.treated.outcome - a.control.outcome)


def test_cross_period_match_honours_declared_fine_rule():
    # Pair features follow spec: differing regions under "fine" become a compound label.
    pre = [_pair(0, 1, "north", 1.0, 1.2), _pair(1, 1, "south", 2.0, 2.1)]
    post = [_pair(0, 2, "north", 1.1, 1.0), _pair(1, 2, "south", 2.2, 2.0)]
    t = unit("p1t2", 1, 1, 0.0, region="north", x=3.0)
    c = unit("p1c2", 1, 0, 0.0, region="south", x=3.1)
    pre.append(MatchedPair(treated=t, control=c))
    spec = BalanceSpec(nominal={"region": NominalRule("fine")})
    quads, details = cross_period_match(pre, post, spec)
    assert details.pre_features[2]["region"] == "north|south"
    assert len(quads) == len(details.index_pairs) > 0


@pytest.mark.parametrize("rule", ["exact", "fine"])
@pytest.mark.parametrize("pre_labels, treated, control, short_label", [
    ("yes yes no", 1, 2, "yes"),
    ("yes yes yes no", 2, 1, "no"),  # more period-1 pairs: the roles swap
])
def test_cross_stage_infeasibility_names_the_stage(rule, pre_labels, treated, control, short_label):
    # Every pair of the treated side must be matched under minimize_total_distance,
    # and the label counts of the two periods' pairs differ.
    pre = [_pair(i, 1, label, float(i), float(i)) for i, label in enumerate(pre_labels.split())]
    post = [_pair(i, 2, label, float(i), float(i)) for i, label in enumerate("yes no no".split())]
    spec = BalanceSpec(nominal={"region": NominalRule(rule)}, objective="minimize_total_distance")
    with pytest.raises(InfeasibleMatchError) as info:
        cross_period_match(pre, post, spec)
    cause = {
        "exact": "no admissible control for every treated unit under the exact matching and "
                 "fine balance constraints",
        "fine": f"fine balance infeasible: category ('{short_label}',) has 2 treated but 1 controls "
                "(total deficit 1 exceeds budget 0)",
    }[rule]
    assert str(info.value) == (
        f"cross-period stage (period-{treated} pairs as treated units, "
        f"period-{control} pairs as controls): {cause}"
    )


def test_cross_period_match_swaps_roles_under_min_distance():
    # Three period-1 pairs, two period-2 pairs: the period-2 pairs take the
    # treated role, and the index pairs come back as (period-1, period-2).
    pre = [_pair(i, 1, "north", x, x) for i, x in enumerate([1.0, 2.0, 3.0])]
    post = [_pair(i, 2, "north", x, x) for i, x in enumerate([1.2, 1.1])]
    quads, details = cross_period_match(pre, post, BalanceSpec(objective="minimize_total_distance"))
    assert details.index_pairs == ((0, 1), (1, 0))
    assert quads.ids[:, 0].tolist() == ["p1t0", "p1t1"]
    assert quads.ids[:, 2].tolist() == ["p2t1", "p2t0"]


def test_cross_period_match_needs_pairs():
    with pytest.raises(InfeasibleMatchError):
        cross_period_match([], [_pair(0, 2, "north", 1.0, 1.0)], BalanceSpec())


def test_balance_report_shape_and_determinism():
    records = _period1([
        (1, {"x": 0.2, "site": "a"}),
        (1, {"x": 1.4, "site": "b"}),
        (1, {"x": 2.0, "site": "a"}),
        (0, {"x": 0.1, "site": "a"}),
        (0, {"x": 1.1, "site": "b"}),
        (0, {"x": 2.3, "site": "a"}),
        (0, {"x": 5.0, "site": "b"}),
    ])
    pairs = within_period_match(records, BalanceSpec())
    rep = balance_report(records, pairs, seed=3)
    assert [r.covariate for r in rep.rows] == ["site", "x"]
    assert rep.n_treated_before == 3
    assert rep.n_control_before == 4
    assert rep.n_matched == len(pairs)
    for row in rep.rows:
        assert 0.0 <= row.p_before <= 1.0
        assert 0.0 <= row.p_after <= 1.0
    rep2 = balance_report(records, pairs, seed=3)
    assert rep2 == rep


def test_balance_report_notes_zero_pooled_sd():
    # "k" is constant within each arm but differs between the arms.
    records = _period1([
        (1, {"k": 1.0, "x": 0.2}),
        (1, {"k": 1.0, "x": 1.4}),
        (0, {"k": 2.0, "x": 0.1}),
        (0, {"k": 2.0, "x": 1.1}),
        (0, {"k": 2.0, "x": 2.5}),
    ])
    pairs = within_period_match(records, BalanceSpec())
    rows = {r.covariate: r for r in balance_report(records, pairs, seed=2).rows}
    assert rows["k"].note == "zero pooled SD"
    assert rows["k"].std_diff_before == rows["k"].std_diff_after == math.inf
    assert rows["x"].note == ""


def test_balance_report_rejects_two_periods():
    records = [unit("a", 1, 1, 0.0, x=1.0), unit("b", 1, 0, 0.0, x=2.0), unit("c", 2, 0, 0.0, x=3.0)]
    with pytest.raises(StructuralError, match="period"):
        balance_report(records, [])


def test_balance_report_rejects_an_empty_arm():
    records = [unit("a", 1, 0, 0.0, x=1.0), unit("b", 1, 0, 0.0, x=2.0)]
    with pytest.raises(InfeasibleMatchError, match="need at least one treated and one control unit"):
        balance_report(records, [])


def test_cross_balance_report_uses_pair_features():
    pre = [_pair(0, 1, "north", 1.0, 1.2), _pair(1, 1, "south", 2.0, 2.1)]
    post = [_pair(0, 2, "north", 1.1, 1.0), _pair(1, 2, "south", 2.2, 2.0)]
    spec = BalanceSpec(nominal={"region": NominalRule("exact")})
    quads, details = cross_period_match(pre, post, spec)
    rep = cross_balance_report(details, seed=1)
    assert rep.stage == "cross"
    assert {r.covariate for r in rep.rows} == {"region", "x"}
    assert rep.n_matched == len(quads)


def test_balance_reports_compute_no_distances(monkeypatch):
    from didsens import matching

    def refuse(*args):
        raise AssertionError("a balance report computed rank distances")

    pre = [_pair(0, 1, "north", 1.0, 1.2), _pair(1, 1, "south", 2.0, 2.1)]
    post = [_pair(0, 2, "north", 1.1, 1.0), _pair(1, 2, "south", 2.2, 2.0)]
    _, details = cross_period_match(pre, post, BalanceSpec(nominal={"region": NominalRule("exact")}))
    records = [p.treated for p in pre] + [p.control for p in pre]
    monkeypatch.setattr(matching, "_rank_mahalanobis", refuse)
    assert balance_report(records, pre, seed=1).n_matched == 2
    assert cross_balance_report(details, seed=1).n_matched == 2


def _balance_case(n_a, n_b):
    """Columns, kinds and before/after index sets for the reference checks.

    "w" has tied values, "zone" has a category with zero pooled SD, "const" a
    single label; "far" is shifted too far to settle within 2300 draws, and
    at n_a = 15, n_b = 25 "mid" settles "before" at draw 2072, past the first
    block of 1638 rows.
    """
    g = np.random.default_rng(n_a * 100 + n_b)
    n = n_a + n_b
    columns = {
        "x": g.normal(size=n),
        "w": np.round(g.normal(size=n), 1),
        "site": np.array(g.choice(["a", "b", "c"], size=n), dtype=object),
        "zone": np.array(["v" if i % 2 else "w" for i in range(n_a)] + ["u"] * n_b, dtype=object),
        "const": np.array(["k"] * n, dtype=object),
    }
    shift = (np.arange(n) < n_a).astype(float)
    columns["far"] = g.normal(size=n) + 2.0 * shift
    columns["mid"] = g.normal(size=n) + 0.97 * shift
    kinds = {name: "nominal" if col.dtype == object else "continuous" for name, col in columns.items()}
    ia0 = np.arange(n_a)
    ib0 = np.arange(n_a, n)
    return columns, kinds, (ia0, ib0), (ia0[: max(1, 3 * n_a // 4)], ib0[::2])


def _balance_rows_and_reference(n_a, n_b, draws):
    columns, kinds, before, after = _balance_case(n_a, n_b)
    rows = _balance_rows(columns, kinds, *before, *after, seed=11, draws=draws)
    s0, s1 = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(11).spawn(2)]
    ref0 = oracles.permutation_balance_pvalues(
        columns, kinds, *before, s0, draws, settle_hits=_SETTLE_HITS
    )
    ref1 = oracles.permutation_balance_pvalues(
        columns, kinds, *after, s1, draws, scale_groups=before, settle_hits=_SETTLE_HITS
    )
    return {r.covariate: r for r in rows}, ref0, ref1


@pytest.mark.parametrize("n_a, n_b, draws", [(15, 25, 2300), (1, 19, 400), (19, 1, 400), (8, 30, 400)])
def test_balance_pvalues_equal_one_draw_at_a_time_reference(n_a, n_b, draws):
    # 2300 draws cross a block boundary (1638 rows at n = 40).
    rows, ref0, ref1 = _balance_rows_and_reference(n_a, n_b, draws)
    assert {name: (r.p_before, r.draws_before) for name, r in rows.items()} == ref0
    assert {name: (r.p_after, r.draws_after) for name, r in rows.items()} == ref1
    assert ref0["const"] == ref1["const"] == (1.0, _SETTLE_HITS)
    if draws == 2300:
        block = _BLOCK_VALUES // (n_a + n_b)
        assert rows["x"].draws_before <= block < rows["mid"].draws_before < draws
        assert rows["far"].draws_before == rows["far"].draws_after == draws


def test_balance_pvalue_settled_on_the_last_draw():
    # Cap the draws at the one where "mid" settles: its p-value is h / L, not
    # the add-one p-value of a covariate that ran to the cap.
    last = _balance_rows_and_reference(15, 25, 2300)[0]["mid"].draws_before
    rows, ref0, _ = _balance_rows_and_reference(15, 25, last)
    assert (rows["mid"].p_before, rows["mid"].draws_before) == ref0["mid"] == (_SETTLE_HITS / last, last)
    assert rows["far"].draws_before == last
    assert {name: (r.p_before, r.draws_before) for name, r in rows.items()} == ref0


@pytest.mark.parametrize("n_a", [1, 3, 5])
def test_treated_sums_select_exactly_n_a_under_ties(n_a):
    g = np.random.default_rng(n_a)
    n = 6
    tied = np.arange(n) / n
    tied[n_a] = tied[n_a - 1]  # a tie exactly at the n_a-th smallest value
    r = np.vstack([g.random((4, n)), g.permutation(tied), np.full(n, 0.25)])
    sums = _treated_sums(r, n_a, np.column_stack([np.eye(n), np.ones(n)]), np.empty_like(r))
    mask = sums[:, :n]
    assert set(np.unique(mask)) <= {0.0, 1.0}
    assert (sums[:, n] == n_a).all() and (mask.sum(axis=1) == n_a).all()
    for d in range(4):
        assert set(np.flatnonzero(mask[d])) == set(np.argsort(r[d])[:n_a])
    for d in (4, 5):
        assert r[d][mask[d] == 1].max() <= r[d][mask[d] == 0].min()


def test_sequential_balance_pvalues_are_valid_under_random_labels():
    # 1000 datasets of 20 vs 30 units with random labels.  Rejection counts at
    # alpha = 0.05 and 0.2 must lie in the two-sided binomial band at tail 1e-4;
    # tied statistics make the binary indicator conservative, so only its upper
    # end is checked.
    from scipy.stats import binom

    g = np.random.default_rng(2024)
    reps, alphas = 1000, (0.05, 0.2)
    rejections = {"x": Counter(), "b": Counter()}
    for rep in range(reps):
        order = g.permutation(50)
        ia, ib = np.sort(order[:20]), np.sort(order[20:])
        features = {"x": [(g.normal(size=50), 1.0)], "b": [((g.random(50) < 0.3).astype(float), 1.0)]}
        for name, (p, _) in _permutation_pvalues(features, ia, ib, rep, PERMUTATION_DRAWS).items():
            rejections[name].update(alpha for alpha in alphas if p <= alpha)
    for alpha in alphas:
        lo, hi = binom.ppf(1e-4, reps, alpha), binom.isf(1e-4, reps, alpha)
        assert lo <= rejections["x"][alpha] <= hi
        assert rejections["b"][alpha] <= hi
