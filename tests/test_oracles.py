import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from didsens.oracles import (
    binomial_tail_exact,
    brute_force_bound,
    exact_null_distribution,
    mcnemar_tail_exact,
)


def closed_form_bounds(lam, delta):
    lower = (delta**2 + lam**2) / ((1 + lam**2) * (1 + delta**2))
    return lower, 1.0 - lower


def test_no_bias_gives_half():
    for objective in ("max", "min"):
        res = brute_force_bound(1.0, 1.0, objective)
        assert res.value == pytest.approx(0.5, abs=1e-12)


def test_symmetric_bias_two_two():
    assert brute_force_bound(2.0, 2.0, "max").value == pytest.approx(0.68, abs=1e-12)
    assert brute_force_bound(2.0, 2.0, "min").value == pytest.approx(0.32, abs=1e-12)


def test_grid_matches_closed_form_with_corner_extrema():
    start = time.perf_counter()
    for lam in np.linspace(1.0, 5.0, 5):
        for delta in np.linspace(1.0, 5.0, 5):
            lo, hi = closed_form_bounds(lam, delta)
            res_max = brute_force_bound(lam, delta, "max")
            res_min = brute_force_bound(lam, delta, "min")
            assert abs(res_max.value - hi) <= 1e-12
            assert abs(res_min.value - lo) <= 1e-12
            for res in (res_max, res_min):
                # extremes sit at corner values of the latent differences
                assert abs(res.at["du1"]) == 1.0
                assert abs(res.at["du2"]) == 1.0
    assert time.perf_counter() - start < 5.0


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        brute_force_bound(0.5, 2.0)
    with pytest.raises(ValueError):
        brute_force_bound(2.0, 0.5)
    with pytest.raises(ValueError):
        brute_force_bound(2.0, 2.0, "widest")


def test_enumeration_single_score():
    dist = exact_null_distribution([1.0], 0.5)
    assert dist.pmf() == {0.0: 0.5, 1.0: 0.5}


def test_enumeration_two_scores_uniform():
    dist = exact_null_distribution([1.0, 2.0], 0.5)
    assert dist.pmf() == {0.0: 0.25, 1.0: 0.25, 2.0: 0.25, 3.0: 0.25}


def test_enumeration_tail_two_thirds():
    dist = exact_null_distribution([1.0, 2.0, 3.0], 2.0 / 3.0)
    assert dist.tail_geq(6.0) == pytest.approx(8.0 / 27.0, abs=1e-12)
    assert dist.tail_leq(0.0) == pytest.approx(1.0 / 27.0, abs=1e-12)


def test_enumeration_masses_sum_to_one():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 13))
        scores = rng.uniform(0.0, 5.0, n)
        p = float(rng.uniform(0.0, 1.0))
        dist = exact_null_distribution(scores, p)
        assert abs(float(dist.probs.sum()) - 1.0) <= 1e-12
        total = float(np.sum(scores))
        assert dist.tail_geq(-1.0) == pytest.approx(1.0, abs=1e-12)
        assert dist.tail_leq(total + 1.0) == pytest.approx(1.0, abs=1e-12)


def test_enumeration_size_cap():
    with pytest.raises(ValueError):
        exact_null_distribution(list(range(1, 22)), 0.5)


def test_enumeration_agrees_with_direct_product():
    scores = [0.5, 1.5, 2.0]
    p = 0.3
    dist = exact_null_distribution(scores, p)
    table = {}
    for signs in itertools.product([0, 1], repeat=3):
        t = sum(q for q, s in zip(scores, signs) if s)
        prob = np.prod([p if s else 1 - p for s in signs])
        table[round(t, 9)] = table.get(round(t, 9), 0.0) + prob
    got = dist.pmf()
    assert set(got) == set(table)
    for key, value in table.items():
        assert got[key] == pytest.approx(value, abs=1e-12)


def test_binomial_tail_exact_values():
    assert binomial_tail_exact(10, 8, Fraction(1, 2), upper=True) == Fraction(56, 1024)
    assert binomial_tail_exact(10, 8, Fraction(2, 3), upper=True) == Fraction(17664, 59049)
    assert binomial_tail_exact(3, 1, Fraction(1, 2), upper=False) == Fraction(4, 8)
    total = sum(
        binomial_tail_exact(4, t, Fraction(1, 3), upper=True)
        - binomial_tail_exact(4, t + 1, Fraction(1, 3), upper=True)
        for t in range(5)
    )
    assert total == 1


def test_mcnemar_tail_exact_directions():
    # P(X >= t) grows with the success probability, so the upper bound for
    # the greater tail sits at the large p and the lower bound at the small.
    up = mcnemar_tail_exact(10, 8, Fraction(2), direction="upper", sided="greater")
    lo = mcnemar_tail_exact(10, 8, Fraction(2), direction="lower", sided="greater")
    assert up == Fraction(17664, 59049)
    assert lo == binomial_tail_exact(10, 8, Fraction(1, 3), upper=True)
    assert lo < up
    up_less = mcnemar_tail_exact(10, 2, Fraction(2), direction="upper", sided="less")
    assert up_less == binomial_tail_exact(10, 2, Fraction(1, 3), upper=False)
    at_one = mcnemar_tail_exact(10, 8, Fraction(1), direction="upper", sided="greater")
    assert at_one == Fraction(56, 1024)
