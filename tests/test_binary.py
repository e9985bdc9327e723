import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from didsens.binary import (
    binary_two_param_bounds,
    eligibility_report,
    eligible_quadruples,
    mcnemar_sensitivity_pvalue,
)
from didsens.errors import DegenerateDataError, StructuralError
from didsens.inference import SIDES, ScoreFunction, _signscore_pvalue
from didsens.oracles import mcnemar_tail_exact
from didsens.sensitivity import (
    DIRECTIONS,
    _tilt,
    changepoint_gamma,
    two_param_bounds,
    upper_pvalues,
    worst_case_pvalue,
)

from conftest import binary_quadset, quadset_from_d


# the four informative patterns (pre_t, pre_c, post_t, post_c) and the rest
POSITIVE = (0, 1, 1, 0)   # d = +2
NEGATIVE = (1, 0, 0, 1)   # d = -2
PRE_TIED = (1, 1, 1, 0)
POST_TIED = (0, 1, 1, 1)
SAME_DIR = (1, 0, 1, 0)   # both pairs favor treated, d = 0


def test_eligibility_filter_and_reasons():
    qs = binary_quadset([POSITIVE, NEGATIVE, PRE_TIED, POST_TIED, SAME_DIR, (0, 0, 1, 1)])
    rep = eligibility_report(qs)
    assert rep.n_total == 6
    assert rep.n_ineligible == 4
    assert rep.eligible.d_values().tolist() == [2.0, -2.0]
    assert rep.eligible.ids[:, 0].tolist() == ["b0pt", "b1pt"]
    assert rep.reasons["pre_concordant"] == 2
    assert rep.reasons["post_concordant"] == 2
    assert rep.reasons["same_direction"] == 1


def test_informative_rule_agrees_on_all_16_binary_patterns():
    # both pairs discordant in opposite directions <=> |d| = 2 <=> McNemar score 1
    patterns = list(itertools.product((0, 1), repeat=4))
    qs = binary_quadset(patterns)
    rep = eligibility_report(qs)
    scores = ScoreFunction.mcnemar().scores(np.abs(qs.d_values()))
    opposite = [(pt - pc) * (ot - oc) == -1 for pt, pc, ot, oc in patterns]
    assert [p for p, o in zip(patterns, opposite) if o] == [POSITIVE, NEGATIVE]
    assert scores.tolist() == [float(o) for o in opposite]
    assert (np.abs(qs.d_values()) == 2).tolist() == opposite
    assert rep.eligible.ids.tolist() == qs.ids[opposite].tolist()
    assert rep.n_ineligible == 14
    assert rep.reasons == {
        "pre_concordant": sum(pt == pc for pt, pc, _, _ in patterns),
        "post_concordant": sum(ot == oc for _, _, ot, oc in patterns),
        "same_direction": sum((pt - pc) * (ot - oc) == 1 for pt, pc, ot, oc in patterns),
    } == {"pre_concordant": 8, "post_concordant": 8, "same_direction": 2}


def test_eligible_signs_match_contrasts():
    qs = binary_quadset([POSITIVE, NEGATIVE, POSITIVE])
    els = eligible_quadruples(qs)
    assert els.d_values().tolist() == [2.0, -2.0, 2.0]
    assert mcnemar_sensitivity_pvalue(els).statistic == 2


def test_binary_guard_rejects_continuous_sets():
    with pytest.raises(StructuralError):
        eligibility_report(quadset_from_d([1.0, -1.0]))
    with pytest.raises(StructuralError, match="requires outcome_kind='binary'"):
        upper_pvalues(quadset_from_d([2.0, -2.0, 2.0]), "mcnemar")
    # a non-0/1 outcome is reported by the first offending unit id
    with pytest.raises(StructuralError, match="'b1pc': binary outcome must be 0 or 1"):
        eligibility_report(binary_quadset([POSITIVE, (1, 0.5, 0, 2)]))


def _eligible_with_statistic(n, t):
    return eligible_quadruples(binary_quadset([POSITIVE] * t + [NEGATIVE] * (n - t)))


def test_mcnemar_exact_values():
    els = _eligible_with_statistic(10, 8)
    res1 = mcnemar_sensitivity_pvalue(els, gamma=1.0)
    assert res1.statistic == 8.0
    assert res1.p_value == pytest.approx(float(Fraction(56, 1024)), abs=1e-14)
    res2 = mcnemar_sensitivity_pvalue(els, gamma=math.sqrt(2.0))
    assert res2.p_value == pytest.approx(float(Fraction(17664, 59049)), abs=1e-13)


def test_mcnemar_matches_fraction_oracle_on_random_cases():
    # rational gamma^2 keeps the oracle exact; the implementation squares a
    # float sqrt, so agreement is to rounding
    rng = np.random.default_rng(5)
    for rep in range(25):
        n = int(rng.integers(1, 26))
        t = int(rng.integers(0, n + 1))
        den = int(rng.integers(1, 8))
        g2 = Fraction(den + int(rng.integers(0, 50)), den)
        gamma = math.sqrt(float(g2))
        els = _eligible_with_statistic(n, t)
        for direction in ("upper", "lower"):
            for sided, oracle_sided in (("one_sided_greater", "greater"), ("one_sided_less", "less")):
                got = mcnemar_sensitivity_pvalue(els, gamma=gamma, direction=direction, sided=sided)
                want = mcnemar_tail_exact(n, t, gamma_squared=g2, direction=direction, sided=oracle_sided)
                assert got.p_value == pytest.approx(float(want), abs=1e-12)


def test_mcnemar_tails_match_scipy_binomial():
    # On n unit scores the sign-flip DP is the Binomial(n, p) pmf.
    from scipy.stats import binom

    for n in (1, 2, 9, 25, 100, 417, 1200):
        sets = {t: _eligible_with_statistic(n, t) for t in {0, 1, n // 3, n // 2, (2 * n) // 3, n - 1, n}}
        for gamma in (1.0, 1.3, 2.5):
            p_hi = gamma**2 / (1.0 + gamma**2)
            for direction, p_g, p_l in (("upper", p_hi, 1.0 - p_hi), ("lower", 1.0 - p_hi, p_hi)):
                for sided in ("one_sided_greater", "one_sided_less", "two_sided"):
                    for t, els in sets.items():
                        got = mcnemar_sensitivity_pvalue(els, gamma=gamma, direction=direction, sided=sided)
                        greater, less = binom.sf(t - 1, n, p_g), binom.cdf(t, n, p_l)
                        want = {"one_sided_greater": greater, "one_sided_less": less}.get(
                            sided, min(1.0, 2.0 * min(greater, less))
                        )
                        assert got.method == f"mcnemar:dp:gamma={gamma:g}:{direction}"
                        if want >= 1e-300:
                            assert abs(got.p_value - want) <= 1e-12 * want, (n, t, gamma, direction, sided)
                        else:
                            assert got.p_value < 1e-290


@pytest.mark.parametrize("sided", SIDES)
def test_mcnemar_is_the_sign_score_test_on_full_and_eligible_sets(sided):
    # One engine: the curve on the whole set, the curve on its eligible rows and
    # mcnemar_sensitivity_pvalue give the same result, equal to the unit-score
    # sign test on sign(d) of the eligible rows.
    rng = np.random.default_rng(23)
    full = binary_quadset([tuple(row) for row in rng.integers(0, 2, (300, 4))])
    eligible = eligible_quadruples(full)
    curves = [upper_pvalues(full, "mcnemar", sided=sided), upper_pvalues(eligible, "mcnemar", sided=sided)]
    for gamma in (1.0, 1.25, 2.0):
        for direction in DIRECTIONS:
            got = mcnemar_sensitivity_pvalue(eligible, gamma, direction, sided)
            [(t, p, route, n)] = _signscore_pvalue(
                [np.sign(eligible.d_values())], 0.0, ScoreFunction.absolute_value(), *_tilt(gamma, direction), sided
            )
            assert (got.statistic, got.p_value, got.method, got.n_effective) == (
                t, p, f"mcnemar:{route}:gamma={gamma:g}:{direction}", n
            )
            same = [worst_case_pvalue(full, 0.0, ScoreFunction.mcnemar(), gamma, direction, sided)]
            if direction == "upper":
                same += [curve(gamma) for curve in curves]
            for res in same:
                assert (res.statistic, res.p_value, res.method, res.n_effective) == (
                    got.statistic, got.p_value, got.method, got.n_effective
                )
    with pytest.raises(ValueError, match="no shift estimate"):
        ScoreFunction.mcnemar().estimate(eligible.d_values(), 0.5)


def test_mcnemar_two_sided_cap():
    els = _eligible_with_statistic(6, 3)
    res = mcnemar_sensitivity_pvalue(els, gamma=1.0, sided="two_sided")
    assert res.p_value == 1.0


def test_mcnemar_direction_orders_bounds():
    els = _eligible_with_statistic(12, 9)
    for g in (1.3, 2.0):
        up = mcnemar_sensitivity_pvalue(els, gamma=g, direction="upper").p_value
        lo = mcnemar_sensitivity_pvalue(els, gamma=g, direction="lower").p_value
        base = mcnemar_sensitivity_pvalue(els, gamma=1.0).p_value
        assert lo <= base <= up


def test_mcnemar_degenerate_and_validation():
    with pytest.raises(DegenerateDataError):
        mcnemar_sensitivity_pvalue([])
    els = _eligible_with_statistic(4, 3)
    with pytest.raises(ValueError):
        mcnemar_sensitivity_pvalue(els, gamma=0.9)
    with pytest.raises(ValueError):
        mcnemar_sensitivity_pvalue(els, direction="middle")
    with pytest.raises(ValueError):
        mcnemar_sensitivity_pvalue(els, sided="three_sided")


def test_binary_changepoint_routes_through_exact_binomial():
    # 14 of 15 positive is significant at gamma 1; the changepoint solves
    # the worst-case binomial tail equal to alpha
    qs = binary_quadset([POSITIVE] * 14 + [NEGATIVE])
    g = changepoint_gamma(upper_pvalues(qs, "mcnemar"), alpha=0.05)
    assert g is not None
    els = eligible_quadruples(qs)
    assert mcnemar_sensitivity_pvalue(els, gamma=g).p_value <= 0.05
    assert mcnemar_sensitivity_pvalue(els, gamma=g + 0.01).p_value > 0.05
    with pytest.raises(ValueError, match="tau0"):
        upper_pvalues(qs, "mcnemar", tau0=0.5)


def test_binary_bounds_are_the_shared_closed_form():
    for lam in (1.0, 1.5, 2.0, 3.5, 5.0):
        for delta in (1.0, 2.0, 4.0):
            ours = binary_two_param_bounds(lam, delta)
            cont = two_param_bounds(lam, delta)
            assert ours.lower == cont.lower
            assert ours.upper == cont.upper
    assert binary_two_param_bounds(2.0, 2.0).lower == pytest.approx(0.32)
    with pytest.raises(ValueError):
        binary_two_param_bounds(0.9, 2.0)
