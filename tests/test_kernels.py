import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from didsens import inference
from didsens.kernels import BACKEND, signflip_pmf
from didsens.oracles import exact_null_distribution


def test_backend_reported():
    assert BACKEND in ("cython", "python")


def test_matches_enumeration_oracle():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(1, 13))
        scores = rng.integers(0, 9, n).astype(np.int64)
        p = float(rng.uniform(0.05, 0.95))
        pmf = signflip_pmf(scores, p)
        dist = exact_null_distribution(scores.astype(float), p)
        dense = np.zeros(int(scores.sum()) + 1)
        for value, prob in zip(dist.values, dist.probs):
            dense[int(round(value))] += prob
        assert np.max(np.abs(pmf - dense)) <= 1e-12


def test_distribution_identities():
    scores = np.arange(1, 26, dtype=np.int64)
    p = 0.37
    pmf = signflip_pmf(scores, p)
    assert pmf.size == scores.sum() + 1
    assert np.all(pmf >= 0)
    assert abs(pmf.sum() - 1.0) <= 1e-12
    mean = float(np.arange(pmf.size) @ pmf)
    assert mean == pytest.approx(p * scores.sum(), rel=1e-10)


def test_degenerate_inputs():
    assert signflip_pmf(np.array([], dtype=np.int64), 0.5).tolist() == [1.0]
    assert signflip_pmf(np.array([0, 0], dtype=np.int64), 0.9).tolist() == [1.0]
    one = signflip_pmf(np.array([3], dtype=np.int64), 1.0)
    assert one[3] == 1.0 and one[0] == 0.0


def test_input_validation():
    with pytest.raises(ValueError):
        signflip_pmf(np.array([1, 2], dtype=np.int64), 1.5)
    with pytest.raises(ValueError):
        signflip_pmf(np.array([1, 2], dtype=np.int64), -0.1)
    with pytest.raises(ValueError):
        signflip_pmf(np.array([-1, 2], dtype=np.int64), 0.5)


@settings(max_examples=60, deadline=None)
@given(
    scores=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=14),
    p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_pmf_properties(scores, p):
    q = np.array(scores, dtype=np.int64)
    pmf = signflip_pmf(q, p)
    assert pmf.size == q.sum() + 1
    assert np.all(pmf >= -1e-15)
    assert abs(pmf.sum() - 1.0) <= 1e-9
    mean = float(np.arange(pmf.size) @ pmf)
    assert mean == pytest.approx(p * q.sum(), abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(
    scores=st.lists(st.integers(min_value=0, max_value=12), min_size=0, max_size=14),
    p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    lo=st.integers(min_value=0, max_value=180),
    hi=st.integers(min_value=-2, max_value=180),
)
def test_window_equals_the_whole_pmf_on_it(scores, p, lo, hi):
    q = np.array(scores, dtype=np.int64)
    whole = signflip_pmf(q, p)
    assert np.array_equal(signflip_pmf(q, p, lo, hi), whole[lo : max(hi + 1, 0)])
    assert np.array_equal(signflip_pmf(q, p, lo), whole[lo:])
    assert np.array_equal(signflip_pmf(q, p, hi=hi), whole[: max(hi + 1, 0)])
    # single-cell windows
    t = min(lo, whole.size - 1)
    assert np.array_equal(signflip_pmf(q, p, t, t), whole[t : t + 1])


@settings(max_examples=150, deadline=None)
@given(
    scores=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=14).filter(any),
    p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    t_obs=st.integers(min_value=-1, max_value=180),
    less_first=st.booleans(),
)
def test_tail_pvalues_equal_the_whole_pmf_sums(scores, p, t_obs, less_first):
    # whatever the memo holds, each tail sums the same entries as the whole pmf
    q = np.array(scores, dtype=np.float64)
    q = q[q > 0]
    whole = signflip_pmf(np.sort(q.astype(np.int64)), p)
    expected = {
        True: min(float(whole[max(t_obs, 0):].sum()), 1.0),
        False: min(float(whole[: t_obs + 1].sum()), 1.0) if t_obs >= 0 else 0.0,
    }
    for greater in (not less_first, less_first):
        assert inference._tail_pvalue(q[None], np.array([t_obs], dtype=float), p, greater) == [(expected[greater], "dp")]
