import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from didsens import inference, kernels, sensitivity
from didsens.binary import eligible_quadruples
from didsens.inference import SIDES, ScoreFunction, _bisect, hodges_lehmann, randomization_pvalue
from didsens.oracles import brute_force_bound
from didsens.sensitivity import (
    CHANGEPOINT_TOL,
    DIRECTIONS,
    TESTS,
    SignProbabilityBounds,
    _extreme_deviate,
    amplify_did,
    amplify_paired,
    changepoint_gamma,
    did_gamma_from,
    estimate_bounds,
    one_param_bounds,
    paired_gamma_from,
    sate_pvalue,
    two_param_bounds,
    upper_pvalues,
    worst_case_pvalue,
)

from conftest import binary_quadset, quadset_from_d


def test_two_param_bounds_known_values():
    b = two_param_bounds(2.0, 2.0)
    assert b.lower == pytest.approx(0.32, abs=1e-12)
    assert b.upper == pytest.approx(0.68, abs=1e-12)
    # delta = 1 leaves the sign probability unconstrained by the outcome side
    b = two_param_bounds(3.0, 1.0)
    assert (b.lower, b.upper) == (0.5, 0.5)
    b = two_param_bounds(1.0, 1.0)
    assert (b.lower, b.upper) == (0.5, 0.5)


def test_two_param_reduces_to_one_param_through_gamma():
    for lam in np.linspace(1.0, 5.0, 5):
        for delta in np.linspace(1.0, 5.0, 5):
            b = two_param_bounds(lam, delta)
            lo, hi = one_param_bounds(did_gamma_from(lam, delta))
            assert b.lower == pytest.approx(lo, abs=1e-12)
            assert b.upper == pytest.approx(hi, abs=1e-12)
            assert b.lower + b.upper == pytest.approx(1.0, abs=1e-12)


def test_closed_form_matches_brute_force():
    for lam in (1.0, 2.0, 4.5):
        for delta in (1.0, 3.0, 5.0):
            b = two_param_bounds(lam, delta)
            lo = brute_force_bound(lam, delta, objective="min").value
            hi = brute_force_bound(lam, delta, objective="max").value
            assert b.lower == pytest.approx(lo, abs=1e-12)
            assert b.upper == pytest.approx(hi, abs=1e-12)


def test_bounds_validation():
    with pytest.raises(ValueError):
        two_param_bounds(0.9, 1.0)
    with pytest.raises(ValueError):
        one_param_bounds(0.5)
    with pytest.raises(ValueError):
        SignProbabilityBounds(lower=0.7, upper=0.3, lam=1.0, delta=1.0)


def test_amplification_known_values():
    assert amplify_paired(2.0, 3.0) == 5.0
    assert amplify_did(2.0, 3.0) == pytest.approx(math.sqrt(7.0), abs=1e-12)
    assert amplify_did(1.0, 4.0) == 1.0
    assert amplify_paired(1.0, 4.0) == 1.0


def test_amplification_round_trips():
    for gamma in (1.1, 1.5, 2.0):
        for lam in (2.5, 4.0, 9.0):
            if lam <= gamma:
                continue
            d_did = amplify_did(gamma, lam)
            assert did_gamma_from(lam, d_did) == pytest.approx(gamma, abs=1e-10)
            d_pair = amplify_paired(gamma, lam)
            assert paired_gamma_from(lam, d_pair) == pytest.approx(gamma, abs=1e-10)


def test_amplification_domain_errors():
    with pytest.raises(ValueError, match="asymptote"):
        amplify_did(2.0, 2.0)
    with pytest.raises(ValueError, match="asymptote"):
        amplify_paired(3.0, 2.5)
    with pytest.raises(ValueError):
        amplify_did(0.5, 3.0)
    with pytest.raises(ValueError):
        amplify_paired(2.0, 0.5)


def test_worst_case_at_gamma_one_is_the_randomization_test():
    rng = np.random.default_rng(7)
    scores = (ScoreFunction.wilcoxon(), ScoreFunction.absolute_value())
    for rep in range(20):
        n = int(rng.integers(3, 13))
        qs = quadset_from_d(np.round(rng.normal(0.3, 1.0, n), 3).tolist())
        for sided in ("one_sided_greater", "one_sided_less", "two_sided"):
            for score in scores:
                base = randomization_pvalue(qs, score=score, sided=sided)
                for direction in ("upper", "lower"):
                    sens = worst_case_pvalue(
                        qs, score=score, gamma=1.0, direction=direction, sided=sided
                    )
                    assert sens.p_value == base.p_value
                    assert sens.statistic == base.statistic
                    assert sens.n_effective == base.n_effective


def test_worst_case_monotone_in_gamma():
    qs = quadset_from_d([2.0, -0.5, 1.5, 3.0, 0.7, -1.2, 2.4])
    for sided in ("one_sided_greater", "two_sided"):
        uppers = [
            worst_case_pvalue(qs, gamma=g, direction="upper", sided=sided).p_value
            for g in (1.0, 1.2, 1.5, 2.0, 3.0)
        ]
        lowers = [
            worst_case_pvalue(qs, gamma=g, direction="lower", sided=sided).p_value
            for g in (1.0, 1.2, 1.5, 2.0, 3.0)
        ]
        assert all(b >= a - 1e-15 for a, b in zip(uppers, uppers[1:]))
        assert all(b <= a + 1e-15 for a, b in zip(lowers, lowers[1:]))


def test_worst_case_exact_small_case():
    # all three contrasts positive, t_obs is the maximum rank sum, so the
    # tail is p+^3 with p+ = gamma^2/(1+gamma^2) = 2/3 at gamma = sqrt(2)
    qs = quadset_from_d([3.0, 1.0, 2.0])
    up = worst_case_pvalue(qs, gamma=math.sqrt(2.0), direction="upper")
    lo = worst_case_pvalue(qs, gamma=math.sqrt(2.0), direction="lower")
    assert up.p_value == pytest.approx(float(Fraction(8, 27)), abs=1e-12)
    assert lo.p_value == pytest.approx(float(Fraction(1, 27)), abs=1e-12)


def test_worst_case_validation():
    qs = quadset_from_d([1.0, -2.0, 3.0])
    with pytest.raises(ValueError):
        worst_case_pvalue(qs, gamma=0.8)
    with pytest.raises(ValueError, match="direction"):
        worst_case_pvalue(qs, direction="sideways")


def test_estimate_bounds_collapse_and_nesting():
    rng = np.random.default_rng(11)
    d = np.round(rng.normal(1.0, 2.0, 9), 2).tolist()
    qs = quadset_from_d(d)
    lo1, hi1 = estimate_bounds(qs, gamma=1.0, tol=1e-7)
    hl = hodges_lehmann(qs)
    assert lo1 == hi1 == hl
    prev = (lo1, hi1)
    for g in (1.2, 1.5, 2.0):
        lo, hi = estimate_bounds(qs, gamma=g)
        assert lo <= hi
        assert lo <= prev[0] + 1e-9 and hi >= prev[1] - 1e-9
        prev = (lo, hi)


def test_permutational_t_estimate_bounds_collapse_to_the_mean():
    rng = np.random.default_rng(12)
    for d in (rng.normal(1.0, 2.0, 9), rng.lognormal(size=40), np.full(7, 0.1), np.array([-2.5])):
        qs = quadset_from_d(d.tolist())
        mean = float(qs.d_values().mean())
        assert estimate_bounds(qs, gamma=1.0, score=ScoreFunction.absolute_value()) == (mean, mean)


def _rank_gap(d, tau, p):
    """Positive-sign rank sum of d - tau minus p times the total, as the score equation has it."""
    q = ScoreFunction.wilcoxon().scores(np.abs(d - tau))
    return q[d - tau > 0].sum() - p * q.sum()


def _expectile_gap(d, tau, p):
    return np.maximum(d - tau, 0.0).sum() - p * np.abs(d - tau).sum()


_ESTIMATE_DATA = {
    "single": np.array([0.7]),
    "all_equal": np.full(12, 0.3),
    "rounded": np.round(np.random.default_rng(5).normal(1.0, 2.0, 40)),
    "with_zeros": np.r_[np.zeros(6), np.round(np.random.default_rng(6).normal(0.5, 1.0, 25), 1)],
    "lognormal": np.random.default_rng(7).lognormal(size=33),
}


@pytest.mark.parametrize("name", sorted(_ESTIMATE_DATA))
@pytest.mark.parametrize("gamma", [1.0, 1.1, 1.5, 3.0])
def test_estimate_bounds_equal_brute_force_closed_forms(name, gamma):
    qs = quadset_from_d(_ESTIMATE_DATA[name].tolist())
    d = qs.d_values()
    p_lo, p_hi = one_param_bounds(gamma)
    i, j = np.triu_indices(d.size)
    walsh = np.sort((d[i] + d[j]) / 2.0)
    n_walsh = walsh.size
    spread = float(d.max() - d.min()) + 1.0
    expectiles = []
    for p in (p_hi, p_lo):
        # Signed rank: the midpoint of two Walsh order statistics ...
        t = p * n_walsh
        a, b = walsh[n_walsh - math.ceil(t)], walsh[n_walsh - math.floor(t) - 1]
        assert ScoreFunction.wilcoxon().estimate(d, p) == 0.5 * (a + b)
        # ... that bracket the sign change of the rank-score equation.
        below, above = walsh[walsh < a], walsh[walsh > b]
        below = below[-1] if below.size else a - 1.0
        above = above[0] if above.size else b + 1.0
        assert _rank_gap(d, 0.5 * (below + a), p) >= 0 >= _rank_gap(d, 0.5 * (b + above), p)
        if a < b:
            assert _rank_gap(d, 0.5 * (a + b), p) == 0
        # Absolute values: the root of the expectile equation.
        tau = ScoreFunction.absolute_value().estimate(d, p)
        step = 1e-9 * spread
        assert _expectile_gap(d, tau - step, p) > 0 > _expectile_gap(d, tau + step, p)
        assert abs(_expectile_gap(d, tau, p)) <= 1e-12 * np.abs(d).sum() * d.size
        expectiles.append(tau)
    wilcoxon_bounds = sorted(ScoreFunction.wilcoxon().estimate(d, p) for p in (p_hi, p_lo))
    assert estimate_bounds(qs, gamma) == tuple(wilcoxon_bounds)
    assert estimate_bounds(qs, gamma, ScoreFunction.absolute_value()) == (min(expectiles), max(expectiles))


@pytest.mark.parametrize("gamma", [1e8, 1e9, 1e200])
def test_estimate_bounds_at_huge_gamma_are_the_range_of_d(gamma):
    # The upper sign probability rounds to 1 here; both closed forms tend to
    # (min d, max d) as gamma grows, and reach it exactly by gamma = 1e7.
    d = _ESTIMATE_DATA["rounded"]
    qs = quadset_from_d(d.tolist())
    for score in (ScoreFunction.wilcoxon(), ScoreFunction.absolute_value()):
        assert estimate_bounds(qs, gamma, score) == (d.min(), d.max())
    assert estimate_bounds(qs, 1e7) == (d.min(), d.max())
    with pytest.raises(ValueError, match="p must lie"):
        ScoreFunction.wilcoxon().estimate(d, one_param_bounds(gamma)[1])


def test_changepoint_all_positive_closed_form():
    # with every contrast positive the worst-case tail is p+^n, so the
    # changepoint solves p+^10 = alpha
    qs = quadset_from_d([float(k) for k in range(1, 11)])
    g = changepoint_gamma(upper_pvalues(qs, "signed_rank"), alpha=0.05)
    p_star = 0.05 ** (1.0 / 10.0)
    expected = math.sqrt(p_star / (1.0 - p_star))
    assert g == pytest.approx(expected, abs=1e-3)


def test_changepoint_none_without_significance():
    qs = quadset_from_d([-1.0, 2.0, -3.0, 1.0, -2.0])
    assert changepoint_gamma(upper_pvalues(qs, "signed_rank"), alpha=0.05) is None


def test_sate_gamma_one_is_the_z_test():
    rng = np.random.default_rng(3)
    d = rng.normal(0.8, 1.0, 30)
    qs = quadset_from_d(d.tolist())
    a = d - 0.3
    t = a.mean() / (a.std(ddof=1) / math.sqrt(a.size))
    res = sate_pvalue(qs, tau0=0.3)
    assert res.p_value == pytest.approx(float(norm.sf(t)), abs=1e-12)
    res_less = sate_pvalue(qs, tau0=0.3, sided="one_sided_less")
    assert res_less.p_value == pytest.approx(float(norm.cdf(t)), abs=1e-12)
    res_two = sate_pvalue(qs, tau0=0.3, sided="two_sided")
    assert res_two.p_value == pytest.approx(
        min(1.0, 2.0 * min(norm.sf(t), norm.cdf(t))), abs=1e-12
    )


def test_sate_monotone_and_validated():
    qs = quadset_from_d([1.0, 2.0, -0.5, 3.0, 1.5, 0.2, 2.2, -0.1])
    ps = [sate_pvalue(qs, gamma=g).p_value for g in (1.0, 1.3, 1.8, 2.5)]
    assert all(b >= a - 1e-15 for a, b in zip(ps, ps[1:]))
    with pytest.raises(ValueError):
        sate_pvalue(qs, gamma=0.9)
    with pytest.raises(ValueError):
        sate_pvalue(qs, sided="both")


# One set's contrasts: small integers halved, so magnitudes tie and hit zero, or
# times sqrt(2)/2, where permutational t leaves the DP for enumeration (n <= 20)
# or the normal route.  For McNemar the integers pick 0/1 outcome patterns, 0 and 3
# the informative ones.
_ROWS = st.lists(
    st.tuples(st.lists(st.integers(-6, 6), min_size=1, max_size=26), st.booleans()), min_size=1, max_size=6
)


@settings(max_examples=120, deadline=None)
@given(
    rows=_ROWS,
    score=st.sampled_from([ScoreFunction.wilcoxon(), ScoreFunction.absolute_value(), ScoreFunction.mcnemar()]),
    tau0=st.sampled_from([0.0, 0.5]),
    budget=st.sampled_from([None, 1, 4]),
    gamma=st.sampled_from([1.0, 1.3]),
    direction=st.sampled_from(DIRECTIONS),
    sided=st.sampled_from(SIDES),
)
@example(  # permutational t on the normal route, the DP and enumeration in one batch
    rows=[([k % 13 - 6 for k in range(25)], True), ([-2, 0, 1, 1, 3], False), ([1, -2, 4], True)],
    score=ScoreFunction.absolute_value(), tau0=0.0, budget=None, gamma=1.3, direction="upper", sided="two_sided",
)
def test_a_batch_equals_its_sets_one_at_a_time(rows, score, tau0, budget, gamma, direction, sided):
    if score.kind == "mcnemar":
        tau0 = 0.0
        patterns = [[tuple((k + 6) >> b & 1 for b in range(4)) for k in ks] for ks, _ in rows]
        sets = [eligible_quadruples(binary_quadset(p)).subset(slice(budget)) for p in patterns]
        sets = [quads for quads in sets if quads]
    else:
        sets = [quadset_from_d([k * (math.sqrt(0.5) if off_grid else 0.5) for k in ks]) for ks, off_grid in rows]
        sets = [quads for quads in sets if np.any(quads.d_values() != tau0)]
    assume(sets)
    batch = worst_case_pvalue(sets, tau0, score, gamma, direction, sided)
    alone = [worst_case_pvalue(quads, tau0, score, gamma, direction, sided) for quads in sets]
    assert [repr((r.statistic, r.p_value, r.n_effective, r.method)) for r in batch] == [
        repr((r.statistic, r.p_value, r.n_effective, r.method)) for r in alone
    ]


def test_sate_box_past_the_float64_limit_is_scaled_exactly():
    # The contrasts' sum of squares fits float64, but at gamma = 2 their box's does not.
    d = np.array([9e153, -9e153, 1e153])
    for gamma, direction, sided in itertools.product((1.0, 2.0), DIRECTIONS, SIDES):
        big = sate_pvalue(quadset_from_d(d.tolist()), gamma=gamma, direction=direction, sided=sided)
        small = sate_pvalue(quadset_from_d((d * 2.0**-600).tolist()), gamma=gamma, direction=direction, sided=sided)
        assert (big.statistic, big.p_value) == (small.statistic, small.p_value)


def _studentized(w: np.ndarray) -> float:
    sd = w.std(ddof=1)
    if sd == 0:
        return math.inf if w.mean() > 0 else (-math.inf if w.mean() < 0 else 0.0)
    return float(w.mean() / (sd / math.sqrt(w.size)))


def test_extreme_deviate_matches_corner_enumeration():
    # the scan visits prefix and suffix vertex families; the optimum over
    # the whole box must agree with exhaustive vertex enumeration
    rng = np.random.default_rng(17)
    for rep in range(6):
        n = 7
        a = rng.normal(0.4, 1.0, n)
        kappa = float(rng.uniform(0.1, 0.8))
        lo = a - kappa * np.abs(a)
        hi = a + kappa * np.abs(a)
        corners = [
            _studentized(np.where(np.array(bits, dtype=bool), hi, lo))
            for bits in itertools.product((0, 1), repeat=n)
        ]
        assert _extreme_deviate(lo, hi, minimize=True) == pytest.approx(
            min(corners), rel=1e-9, abs=1e-9
        )
        assert _extreme_deviate(lo, hi, minimize=False) == pytest.approx(
            max(corners), rel=1e-9, abs=1e-9
        )


def _changepoint_case(test, ties, seed):
    """Seeded data with a finite changepoint; ties give tied magnitudes and zeros."""
    rng = np.random.default_rng(seed)
    if test == "mcnemar":
        informative = [(0, 1, 1, 0)] * 45 + [(1, 0, 0, 1)] * 15
        # ineligible quadruples (tied pre or post pair) are dropped by the test
        return binary_quadset(informative + ([(1, 1, 1, 0), (1, 0, 1, 0)] * 5 if ties else []))
    d = rng.normal(0.5, 1.0, 80)
    if ties:
        # integer contrasts keep permutational_t on the DP route
        d = np.round(d * 3) if test == "permutational_t" else np.round(d * 2) / 2
    return quadset_from_d(d.tolist())


def _reference_changepoint(quads, test, alpha, sided):
    """Doubling then bisection to CHANGEPOINT_TOL on the exact p-value."""
    pvalue = upper_pvalues(quads, test, 0.0, sided)

    def lost(gamma):
        return pvalue(gamma).p_value > alpha

    if lost(1.0):
        return None
    lo, hi = 1.0, 2.0
    while not lost(hi):
        lo, hi = hi, 2.0 * hi
        if hi > 1e6:
            return math.inf
    return _bisect(lost, lo, hi, CHANGEPOINT_TOL)[0]


def _brackets_alpha(quads, test, alpha, sided, gamma):
    pvalue = upper_pvalues(quads, test, 0.0, sided)
    return pvalue(gamma).p_value <= alpha < pvalue(gamma + 1.01 * CHANGEPOINT_TOL).p_value


@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("sided", ["one_sided_greater", "two_sided"])
@pytest.mark.parametrize("test", TESTS)
def test_changepoint_brackets_alpha_near_the_bisection(test, sided, ties):
    quads = _changepoint_case(test, ties, seed=41)
    gamma = changepoint_gamma(upper_pvalues(quads, test, 0.0, sided), alpha=0.05)
    assert 1.0 < gamma < math.inf
    assert _brackets_alpha(quads, test, 0.05, sided, gamma)
    assert abs(gamma - _reference_changepoint(quads, test, 0.05, sided)) < CHANGEPOINT_TOL
    # a curve that has already answered a grid gives the same changepoint
    asked = upper_pvalues(quads, test, 0.0, sided)
    for g in (1.0, 1.1, 1.25, 1.5, 2.0, 3.0):
        asked(g)
    assert changepoint_gamma(asked, alpha=0.05) == gamma


def test_changepoint_none_unbounded_and_at_one():
    no_signal = quadset_from_d([-1.0, 2.0, -3.0, 1.0, -2.0])
    for test in TESTS[:3]:
        assert changepoint_gamma(upper_pvalues(no_signal, test), alpha=0.05) is None
    one = quadset_from_d([1.0])
    # p(gamma) = gamma^2 / (1 + gamma^2): 1 - 1e-12 at gamma = 1e6, still below alpha
    assert changepoint_gamma(upper_pvalues(one, "signed_rank"), alpha=1.0 - 1e-13) == math.inf
    # p(1) equals alpha exactly, so the root is gamma = 1 itself
    assert changepoint_gamma(upper_pvalues(one, "signed_rank"), alpha=0.5) == 1.0


def test_changepoint_when_the_untilted_pvalue_underflows():
    # all contrasts positive: p(gamma) = p+^n, which is 2^-1100 = 0.0 at gamma = 1
    n = 1100
    quads = quadset_from_d([float(k) for k in range(1, n + 1)])
    assert worst_case_pvalue(quads).p_value == 0.0
    gamma = changepoint_gamma(upper_pvalues(quads, "signed_rank"), alpha=0.05)
    p_star = 0.05 ** (1.0 / n)
    assert abs(gamma - math.sqrt(p_star / (1.0 - p_star))) < CHANGEPOINT_TOL
    assert _brackets_alpha(quads, "signed_rank", 0.05, "one_sided_greater", gamma)


def _counted_kernel(monkeypatch) -> list:
    """Record the sign probability of every sign-flip DP from here on, with an empty memo."""
    calls = []
    kernel = kernels.signflip_pmf

    def counted(scores, p_plus, *args, **kwargs):
        calls.append(p_plus)
        return kernel(scores, p_plus, *args, **kwargs)

    monkeypatch.setattr(inference, "_last_pmf", None)
    monkeypatch.setattr(kernels, "signflip_pmf", counted)
    return calls


def test_sens_grid_and_changepoint_stay_within_a_dp_budget(monkeypatch):
    # n = 200 without ties: 5 grid DPs, then 2 more for the changepoint on the
    # grid's curve, which answers gamma = 1 from its memo and certifies the
    # saddlepoint root with one exact probe on each side
    quads = quadset_from_d(np.random.default_rng(0).normal(0.3, 1.0, 200).tolist())
    calls = _counted_kernel(monkeypatch)
    pvalue = upper_pvalues(quads, "signed_rank")
    for gamma in (1.0, 1.1, 1.25, 1.5, 2.0):
        pvalue(gamma)
    assert len(calls) == 5
    assert changepoint_gamma(pvalue, alpha=0.05) > 1.0
    assert len(calls) == 7
    assert len(set(calls)) == len(calls)


def test_changepoint_on_a_fresh_curve_at_n_1000_takes_at_most_4_dps(monkeypatch):
    # p(1) decides None, then one exact probe on each side of the saddlepoint root
    quads = quadset_from_d(np.random.default_rng(1).normal(0.3, 1.0, 1000).tolist())
    calls = _counted_kernel(monkeypatch)
    gamma = changepoint_gamma(upper_pvalues(quads, "signed_rank"), alpha=0.05)
    assert len(calls) <= 4
    assert _brackets_alpha(quads, "signed_rank", 0.05, "one_sided_greater", gamma)


def test_approximation_off_the_dp_route_reads_the_curve_memo(monkeypatch):
    # permutational t on 12 irrational contrasts enumerates all 2^12 sign vectors
    quads = quadset_from_d(np.random.default_rng(5).normal(1.0, 1.0, 12).tolist())
    tilts = []
    engine = sensitivity._signscore_pvalue

    def counted(d, tau0, score, p_greater_tail, p_less_tail, *args, **kwargs):
        tilts.append(p_greater_tail)
        return engine(d, tau0, score, p_greater_tail, p_less_tail, *args, **kwargs)

    monkeypatch.setattr(sensitivity, "_signscore_pvalue", counted)
    curve = upper_pvalues(quads, "permutational_t")
    assert curve(1.0).method.startswith("absolute_value:enumeration:")
    gamma = changepoint_gamma(curve, alpha=0.05)
    assert 1.0 < gamma < math.inf
    assert curve.approx(gamma) == curve(gamma).p_value
    assert len(tilts) == len(set(tilts))


# Largest relative error of the saddlepoint p-value against the exact DP, per n;
# each is about 2.5x the largest seen on these seeded contrasts.
SADDLEPOINT_RTOL = {30: 2e-3, 100: 3e-4, 450: 7e-5}


@pytest.mark.parametrize("sided", SIDES)
@pytest.mark.parametrize("n", sorted(SADDLEPOINT_RTOL))
def test_saddlepoint_approximation_tracks_the_exact_dp(n, sided):
    quads = quadset_from_d(np.random.default_rng(n).normal(0.3, 1.0, n).tolist())
    curve = upper_pvalues(quads, "signed_rank", sided=sided)
    for gamma in (1.0, 1.25, 1.5):
        assert curve.approx(gamma) == pytest.approx(curve(gamma).p_value, rel=SADDLEPOINT_RTOL[n])


def test_saddlepoint_tail_is_exact_at_the_ends_of_the_support():
    ints = np.arange(1, 11)
    for p in (0.0, 0.3, 0.5, 1.0):
        assert inference._saddlepoint_tail(ints, 0, p) == 1.0
        assert inference._saddlepoint_tail(ints, 56, p) == 0.0
        assert inference._saddlepoint_tail(ints, 55, p) == pytest.approx(p**10, rel=1e-12)
    # a lattice of span 2 is read in its own units: T >= 3 is T >= 4
    assert inference._saddlepoint_tail(2 * ints, 3, 0.4) == inference._saddlepoint_tail(2 * ints, 4, 0.4)


@pytest.mark.parametrize("shift", ["earlier", "later", "never_significant", "always_significant"])
@pytest.mark.parametrize("test", ["signed_rank", "sate"])
def test_changepoint_falls_back_when_the_approximation_misleads(monkeypatch, test, shift):
    quads = _changepoint_case(test, ties=False, seed=41)
    curve = upper_pvalues(quads, test)
    honest = curve.approx
    misleading = {
        "earlier": lambda g: honest(g + 0.05),
        "later": lambda g: honest(max(g - 0.05, 1.0)),
        "never_significant": lambda g: 1.0,
        "always_significant": lambda g: 0.0,
    }[shift]
    monkeypatch.setattr(curve, "approx", misleading)
    gamma = changepoint_gamma(curve, alpha=0.05)
    assert _brackets_alpha(quads, test, 0.05, "one_sided_greater", gamma)
    assert abs(gamma - _reference_changepoint(quads, test, 0.05, "one_sided_greater")) < CHANGEPOINT_TOL
