import math

import pytest

from didsens.core import (
    MatchedPair,
    Quadruple,
    QuadrupleSet,
    UnitRecord,
    build_quadruple,
    did_contrast,
    validate_dataset,
)
from didsens.errors import StructuralError

from conftest import binary_quadset, quad_from_d, quadset_from_d, unit


def test_unit_record_validates_period_and_group():
    unit("u1", 1, 0, 3.0)
    unit("u2", 2, 1, -1.5)
    with pytest.raises(StructuralError, match="period"):
        unit("u3", 3, 0, 0.0)
    with pytest.raises(StructuralError, match="z must be"):
        unit("u4", 1, 2, 0.0)


def test_matched_pair_roles_and_period():
    t = unit("t", 1, 1, 4.0)
    c = unit("c", 1, 0, 1.0)
    pair = MatchedPair(treated=t, control=c)
    assert pair.period == 1
    assert pair.outcome_diff == 3.0
    with pytest.raises(StructuralError, match="treated slot"):
        MatchedPair(treated=c, control=t)
    with pytest.raises(StructuralError, match="periods differ"):
        MatchedPair(treated=t, control=unit("c2", 2, 0, 1.0))
    with pytest.raises(StructuralError, match="reuses"):
        MatchedPair(treated=t, control=unit("t", 1, 0, 1.0))


def test_did_contrast_subtracts_pair_differences():
    pre = MatchedPair(treated=unit("a", 1, 1, 2.0), control=unit("b", 1, 0, 1.0))
    post = MatchedPair(treated=unit("c", 2, 1, 5.0), control=unit("d", 2, 0, 2.0))
    assert did_contrast(pre, post) == (5.0 - 2.0) - (2.0 - 1.0)
    with pytest.raises(StructuralError, match="expected 1"):
        did_contrast(post, post)
    with pytest.raises(StructuralError, match="expected 2"):
        did_contrast(pre, pre)


def test_build_quadruple_derives_sign_and_magnitude():
    q = quad_from_d(0, -2.5)
    assert q.d == -2.5
    assert q.s == -1
    assert q.a == 2.5
    z = quad_from_d(1, 0.0)
    assert z.s == 0 and z.a == 0.0


def test_quadruple_consistency_guard():
    q = quad_from_d(0, 1.0)
    with pytest.raises(StructuralError, match="s \\* a != d"):
        Quadruple(pre=q.pre, post=q.post, d=1.0, s=-1, a=1.0)
    with pytest.raises(StructuralError, match="nonnegative"):
        Quadruple(pre=q.pre, post=q.post, d=1.0, s=1, a=-1.0)


def test_quadruple_set_rejects_shared_units():
    q = quad_from_d(0, 1.0)
    with pytest.raises(StructuralError, match="more than one slot"):
        QuadrupleSet(quads=(q, q))
    with pytest.raises(StructuralError, match="outcome_kind"):
        QuadrupleSet(quads=(q,), outcome_kind="ternary")


def test_d_values_order_preserved():
    qs = quadset_from_d([3.0, -1.0, 0.5])
    assert qs.d_values().tolist() == [3.0, -1.0, 0.5]
    assert len(qs) == 3
    assert [q.d for q in qs] == [3.0, -1.0, 0.5]


def test_validate_dataset_flags_problems():
    good = [
        unit("a", 1, 1, 1.0, age=30.0, sector="mfg"),
        unit("b", 1, 0, 2.0, age=31.0, sector="svc"),
    ]
    rep = validate_dataset(good)
    assert rep.ok
    assert rep.covariate_kinds == {"age": "continuous", "sector": "nominal"}

    dup = good + [unit("a", 2, 1, 1.0, age=30.0, sector="mfg")]
    assert not validate_dataset(dup).ok

    nonfinite = [unit("n", 1, 1, math.inf)]
    assert any("finite" in p for p in validate_dataset(nonfinite).problems)

    mixed_schema = good + [unit("c", 1, 0, 1.0, age=40.0)]
    assert any("covariate names" in p for p in validate_dataset(mixed_schema).problems)

    mixed_kind = good + [unit("d", 1, 0, 1.0, age="old", sector="mfg")]
    assert any("elsewhere" in p for p in validate_dataset(mixed_kind).problems)

    boolean = [unit("e", 1, 1, 1.0, flag=True)]
    assert any("unsupported" in p for p in validate_dataset(boolean).problems)

    assert not validate_dataset([]).ok


def test_validate_dataset_binary_outcomes():
    ok = [unit("a", 1, 1, 1.0), unit("b", 1, 0, 0.0)]
    assert validate_dataset(ok, outcome_kind="binary").ok
    bad = [unit("c", 1, 1, 0.5)]
    assert not validate_dataset(bad, outcome_kind="binary").ok
    with pytest.raises(ValueError):
        validate_dataset(ok, outcome_kind="count")


def test_binary_quadset_contrasts():
    qs = binary_quadset([(1, 0, 0, 1), (0, 1, 1, 0)])
    assert qs.d_values().tolist() == [(0 - 1) - (1 - 0), (1 - 0) - (0 - 1)]
