"""Shared builders for quadruple fixtures."""

import numpy as np
import pytest

from didsens.core import QuadrupleSet, UnitRecord


def unit(uid, period, z, outcome, **covariates):
    return UnitRecord(id=uid, period=period, z=z, outcome=float(outcome), covariates=covariates)


def quadset_from_d(ds, outcome_kind="continuous"):
    """Continuous quadruples whose contrasts equal ds (every outcome 0 but post treated)."""
    return QuadrupleSet(
        ids=[[f"q{i}pt", f"q{i}pc", f"q{i}ot", f"q{i}oc"] for i in range(len(ds))],
        outcomes=[[0.0, 0.0, float(d), 0.0] for d in ds],
        outcome_kind=outcome_kind,
    )


def binary_quadset(patterns):
    """patterns: list of (pre_t, pre_c, post_t, post_c) 0/1 tuples."""
    return QuadrupleSet(
        ids=[[f"b{i}pt", f"b{i}pc", f"b{i}ot", f"b{i}oc"] for i in range(len(patterns))],
        outcomes=[[float(y) for y in p] for p in patterns],
        outcome_kind="binary",
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
