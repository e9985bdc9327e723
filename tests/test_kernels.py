import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
