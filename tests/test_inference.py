import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from didsens import inference, kernels
from didsens.errors import DegenerateDataError
from didsens.inference import (
    CI_TOL,
    ScoreFunction,
    _integer_scaled,
    _null_pmf,
    average_ranks,
    hodges_lehmann,
    invert_ci,
    randomization_pvalue,
)
from didsens.oracles import exact_null_distribution
from didsens.sensitivity import one_param_bounds, worst_case_pvalue

from conftest import quadset_from_d


# scores() receives magnitudes |d - tau0|; zeros mark dropped quadruples


def test_wilcoxon_scores_average_tied_ranks():
    score = ScoreFunction.wilcoxon()
    q = score.scores(np.array([1.0, 1.0, 2.0]))
    assert q.tolist() == [1.5, 1.5, 3.0]


def test_wilcoxon_scores_drop_zeros():
    score = ScoreFunction.wilcoxon()
    q = score.scores(np.array([0.0, 3.0, 1.0]))
    assert q.tolist() == [0.0, 2.0, 1.0]


def test_average_ranks_equal_scipy_rankdata():
    from scipy.stats import rankdata

    rng = np.random.default_rng(11)
    vectors = [np.full(7, 2.5), np.array([4.0]), rng.integers(0, 4, 50), np.round(rng.normal(size=200), 1)]
    for x in vectors:
        got, want = average_ranks(x), rankdata(x, method="average")
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_absolute_value_scores_are_magnitudes():
    score = ScoreFunction.absolute_value()
    assert score.scores(np.array([2.0, 0.5, 0.0])).tolist() == [2.0, 0.5, 0.0]


def test_statistic_sums_scores_of_positive_contrasts():
    qs = quadset_from_d([3.0, -1.0, 2.0])
    t = randomization_pvalue(qs, tau0=0.0, score=ScoreFunction.wilcoxon()).statistic
    assert t == 3.0 + 2.0  # ranks of |3| and |2| among (1, 2, 3)
    # shifted contrasts (0.5, -3.5, -0.5): magnitudes tie at 0.5 -> ranks 1.5
    t0 = randomization_pvalue(qs, tau0=2.5, score=ScoreFunction.wilcoxon()).statistic
    assert t0 == 1.5


def test_all_positive_smallest_tail():
    qs = quadset_from_d([3.0, 1.0, 2.0])
    res = randomization_pvalue(qs)
    assert res.statistic == 6.0
    assert res.p_value == pytest.approx(1.0 / 8.0, abs=1e-15)
    assert res.method.startswith("wilcoxon:")
    assert res.n_effective == 3


def test_single_quadruple_half():
    res = randomization_pvalue(quadset_from_d([1.0]))
    assert res.p_value == pytest.approx(0.5, abs=1e-15)


def test_two_sided_with_perfect_tie():
    res = randomization_pvalue(quadset_from_d([2.0, -2.0]), sided="two_sided")
    assert res.p_value == 1.0


def test_zero_contrasts_are_uninformative():
    res = randomization_pvalue(quadset_from_d([0.0, 3.0, 1.0, 2.0]))
    assert res.n_effective == 3
    assert res.p_value == pytest.approx(1.0 / 8.0, abs=1e-15)
    with pytest.raises(DegenerateDataError):
        randomization_pvalue(quadset_from_d([0.0, 0.0]))


def test_dp_agrees_with_enumeration_all_tails():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        d = np.round(rng.normal(0.0, 2.0, n), 1)
        if np.all(np.abs(d) < 1e-12):
            continue
        qs = quadset_from_d(d.tolist())
        for score in (ScoreFunction.wilcoxon(), ScoreFunction.absolute_value()):
            q = score.scores(np.abs(d))
            active = q[np.abs(d) > 0]
            t = float(np.sum(q[d > 0]))
            dist = exact_null_distribution(active, 0.5)
            res_g = randomization_pvalue(qs, score=score, sided="one_sided_greater")
            res_l = randomization_pvalue(qs, score=score, sided="one_sided_less")
            res_2 = randomization_pvalue(qs, score=score, sided="two_sided")
            assert res_g.p_value == pytest.approx(dist.tail_geq(t), abs=1e-12)
            assert res_l.p_value == pytest.approx(dist.tail_leq(t), abs=1e-12)
            expect2 = min(1.0, 2.0 * min(dist.tail_geq(t), dist.tail_leq(t)))
            assert res_2.p_value == pytest.approx(expect2, abs=1e-12)


def test_integer_rescaling_handles_half_ranks():
    # tied magnitudes produce .5 ranks; the integer route must still apply
    qs = quadset_from_d([1.0, -1.0, 2.0, 3.0])
    res = randomization_pvalue(qs)
    assert res.method == "wilcoxon:dp"


def test_irrational_scores_fall_back_to_enumeration():
    d = [math.sqrt(2.0), -math.pi / 3.0, math.e / 2.0]
    res = randomization_pvalue(quadset_from_d(d), score=ScoreFunction.absolute_value())
    assert res.method == "absolute_value:enumeration"
    q = np.abs(d)
    t = q[0] + q[2]
    dist = exact_null_distribution(q, 0.5)
    assert res.p_value == pytest.approx(dist.tail_geq(t), abs=1e-12)


def test_integer_scores_past_the_dp_cap_use_normal_approximation():
    # 1500 distinct magnitudes: the signed ranks sum to 1,125,750 > DP_MAX_TOTAL.
    d = np.arange(1, 1501, dtype=float) * np.where(np.arange(1500) % 3, 1.0, -1.0)
    assert np.arange(1, 1501).sum() > inference.DP_MAX_TOTAL
    res = randomization_pvalue(quadset_from_d(d.tolist()))
    assert res.method == "wilcoxon:normal"
    q = np.arange(1, 1501, dtype=float)
    t = float(q[d > 0].sum())
    z = (t - 0.5 * q.sum()) / math.sqrt(0.25 * np.sum(q**2))
    assert res.statistic == t
    assert res.p_value == pytest.approx(0.5 * math.erfc(z / math.sqrt(2.0)), rel=1e-9)


@pytest.mark.parametrize("p_plus", [0.5, 0.8])
def test_enumeration_tails_equal_the_oracle(p_plus):
    rng = np.random.default_rng(17)
    for n in range(1, 13):
        q = rng.uniform(0.1, 3.0, n) + math.sqrt(2.0) * 1e-3
        t = float(q[rng.random(n) < 0.5].sum())
        dist = exact_null_distribution(q, p_plus)
        for greater, expect in ((True, dist.tail_geq(t)), (False, dist.tail_leq(t))):
            got, route = inference._tail_pvalue(q, t, p_plus, greater)
            assert route == "enumeration"
            assert got == pytest.approx(expect, rel=1e-12, abs=0.0)


def test_enumeration_memory_at_the_largest_n():
    import tracemalloc

    q = np.random.default_rng(3).uniform(0.1, 3.0, inference.ENUM_MAX_N) + 1e-7
    tracemalloc.start()
    try:
        p, route = inference._tail_pvalue(q, float(q[::2].sum()), 0.5, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert route == "enumeration" and 0.0 < p < 1.0
    assert peak < 64 * 2**20


def test_large_irrational_scores_use_normal_approximation():
    rng = np.random.default_rng(5)
    d = (rng.normal(0.3, 1.0, 60) + rng.uniform(0, 1e-9, 60)).tolist()
    res = randomization_pvalue(quadset_from_d(d), score=ScoreFunction.absolute_value())
    assert res.method == "absolute_value:normal"
    q = np.abs(d)
    t = float(np.sum(q[np.array(d) > 0]))
    mu = 0.5 * q.sum()
    sd = math.sqrt(0.25 * np.sum(q**2))
    from scipy.stats import norm

    assert res.p_value == pytest.approx(norm.sf((t - mu) / sd), abs=1e-12)


def test_hodges_lehmann_walsh_median():
    assert hodges_lehmann(quadset_from_d([1.0, 3.0])) == 2.0
    # walsh averages of (1, 2, 4): 1, 1.5, 2, 2.5, 3, 4 -> median 2.25
    assert hodges_lehmann(quadset_from_d([1.0, 2.0, 4.0])) == 2.25
    assert hodges_lehmann(quadset_from_d([5.0])) == 5.0


def test_ci_brackets_by_exhaustive_probe():
    rng = np.random.default_rng(9)
    d = np.round(rng.normal(1.0, 1.5, 9), 2).tolist()
    qs = quadset_from_d(d)
    lo, hi = invert_ci(qs, alpha=0.10)
    assert lo < hi

    def p_two(tau):
        return randomization_pvalue(qs, tau0=tau, sided="two_sided").p_value

    # interval endpoints split accept (p > alpha) from reject
    assert p_two(lo + 1e-4) > 0.10
    assert p_two(hi - 1e-4) > 0.10
    assert p_two(lo - 0.05) <= 0.10 or lo < min(d)
    assert p_two(hi + 0.05) <= 0.10 or hi > max(d)
    point = hodges_lehmann(qs)
    assert lo <= point <= hi


def test_absolute_value_ci_endpoints_bracket_alpha_on_skewed_data():
    # The permutational-t test already rejects at the Hodges-Lehmann point of
    # these lognormal contrasts, so a search started there returns it as the
    # lower endpoint.
    d = np.random.default_rng(51).lognormal(size=46)
    qs = quadset_from_d(d.tolist())
    score = ScoreFunction.absolute_value()
    lo, hi = invert_ci(qs, alpha=0.05, score=score)

    def p_two(tau):
        return randomization_pvalue(qs, tau0=tau, score=score, sided="two_sided").p_value

    assert p_two(lo + CI_TOL) > 0.05 >= p_two(lo - CI_TOL)
    assert p_two(hi - CI_TOL) > 0.05 >= p_two(hi + CI_TOL)


@pytest.mark.parametrize("kind", ["wilcoxon", "absolute_value"])
def test_empty_set_has_no_estimate_or_interval(kind):
    empty = quadset_from_d([])
    with pytest.raises(DegenerateDataError, match="^no quadruples$"):
        invert_ci(empty, score=ScoreFunction(kind))
    with pytest.raises(DegenerateDataError, match="^no quadruples$"):
        ScoreFunction(kind).estimate(empty.d_values(), 0.5)
    with pytest.raises(DegenerateDataError, match="^no quadruples$"):
        hodges_lehmann(empty)


@pytest.mark.parametrize("p", [0.0, 1.0, math.nan])
def test_estimate_needs_p_strictly_between_zero_and_one(p):
    # gamma above about 1e8 rounds the upper sign probability to 1.0
    with pytest.raises(ValueError, match="p must lie"):
        ScoreFunction.wilcoxon().estimate(np.array([1.0, 2.0]), p)


def test_ci_unbounded_when_too_few_quadruples():
    lo, hi = invert_ci(quadset_from_d([1.0, 2.0]), alpha=0.05)
    assert lo == -math.inf
    assert hi == math.inf


def test_hl_lies_inside_inverted_ci():
    qs = quadset_from_d([1.0, 2.0, 4.0, 0.5, 3.0, 2.5, 1.5])
    lo, hi = invert_ci(qs, alpha=0.05)
    assert lo <= hodges_lehmann(qs) <= hi


_grid = st.integers(min_value=-50000, max_value=50000).map(lambda k: k / 1000.0)


@settings(max_examples=40, deadline=None)
@given(
    d=st.lists(_grid, min_size=3, max_size=10, unique=True),
    shift=st.integers(min_value=-20000, max_value=20000).map(lambda k: k / 1000.0),
)
def test_shift_equivariance(d, shift):
    # well-separated adjusted magnitudes keep sign and rank structure
    # stable under the shift despite float rounding
    mags = sorted(abs(x - 1.0) for x in d)
    assume(mags[0] > 1e-3)
    assume(all(b - a > 1e-3 for a, b in zip(mags, mags[1:])))
    qs = quadset_from_d(d)
    moved = quadset_from_d([x + shift for x in d])
    assert hodges_lehmann(moved) == pytest.approx(hodges_lehmann(qs) + shift, abs=1e-9)
    p_base = randomization_pvalue(qs, tau0=1.0).p_value
    p_moved = randomization_pvalue(moved, tau0=1.0 + shift).p_value
    assert p_moved == pytest.approx(p_base, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(d=st.lists(_grid.filter(lambda x: abs(x) > 1e-3), min_size=2, max_size=10))
def test_negation_swaps_tails(d):
    # sign flips are exact in floats, so tie structure is preserved
    qs = quadset_from_d(d)
    neg = quadset_from_d([-x for x in d])
    pg = randomization_pvalue(qs, sided="one_sided_greater").p_value
    pl = randomization_pvalue(neg, sided="one_sided_less").p_value
    assert pg == pytest.approx(pl, abs=1e-12)


def test_invert_ci_runs_one_dp_without_ties_or_zeros(monkeypatch):
    # tie-free, zero-free contrasts score 1..n at every probed tau
    d = np.random.default_rng(31).normal(0.8, 1.0, 60)
    qs = quadset_from_d(d.tolist())
    calls = []
    kernel = kernels.signflip_pmf

    def counted(scores, p_plus):
        calls.append(p_plus)
        return kernel(scores, p_plus)

    monkeypatch.setattr(inference, "_last_pmf", None)
    monkeypatch.setattr(kernels, "signflip_pmf", counted)
    lo, hi = invert_ci(qs, alpha=0.05)
    assert lo < hodges_lehmann(qs) < hi
    assert calls == [0.5]


def test_dp_results_do_not_depend_on_row_order():
    # one-decimal contrasts tie often: half ranks, the scale-2 DP route
    rng = np.random.default_rng(37)
    d = np.round(rng.normal(0.3, 1.0, 300), 1)
    d[:5] = 0.0

    def results(values):
        qs = quadset_from_d(values.tolist())
        pvals = [randomization_pvalue(qs, sided=sided).p_value for sided in inference.SIDES]
        pvals += [worst_case_pvalue(qs, gamma=gamma).p_value for gamma in (1.0, 1.5)]
        return pvals, invert_ci(qs, alpha=0.05)

    base = results(d)
    assert randomization_pvalue(quadset_from_d(d.tolist())).method == "wilcoxon:dp"
    for _ in range(3):
        assert results(rng.permutation(d)) == base


def test_null_pmf_memo_is_never_stale():
    wilcoxon = ScoreFunction.wilcoxon()
    # tied magnitudes give half ranks (scale 2); zero contrasts are dropped
    d_tied = np.array([1.0, -1.0, 2.0, 0.0, 3.0, -3.0, 0.0, 4.0, -5.0])
    d_plain = np.array([2.0, -1.0, 3.0, 4.0, -5.0, 6.0, 7.0])
    multisets = []
    for d, expected_scale in ((d_tied, 2), (d_plain, 1)):
        q = wilcoxon.scores(np.abs(d))
        ints, scale = _integer_scaled(q[q > 0])
        assert scale == expected_scale
        multisets.append((d, ints, scale))
    sequence = [(0, 1.0), (0, 2.0), (1, 2.0), (1, 1.0), (0, 1.0), (0, 1.0), (1, 2.0), (0, 2.0)]
    for which, gamma in sequence:
        d, ints, scale = multisets[which]
        p_plus = one_param_bounds(gamma)[1]
        got = _null_pmf(ints[::-1], p_plus)
        fresh = kernels.signflip_pmf(np.sort(ints), p_plus)
        assert np.array_equal(got, fresh)
        assert not got.flags.writeable
        # the public engine reads the same pmf
        t_obs = float(wilcoxon.scores(np.abs(d))[d > 0].sum())
        res = worst_case_pvalue(quadset_from_d(d.tolist()), gamma=gamma)
        assert res.method.startswith("wilcoxon:dp")
        assert res.p_value == min(1.0, float(fresh[int(np.ceil(t_obs * scale - 1e-9)):].sum()))
