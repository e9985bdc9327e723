import math

import numpy as np
import pytest

from didsens.core import MatchedPair, QuadrupleSet, validate_dataset
from didsens.errors import DataError, StructuralError

from conftest import binary_quadset, quadset_from_d, unit


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
    with pytest.raises(StructuralError, match="treated slot"):
        MatchedPair(treated=c, control=t)
    with pytest.raises(StructuralError, match="periods differ"):
        MatchedPair(treated=t, control=unit("c2", 2, 0, 1.0))
    with pytest.raises(StructuralError, match="reuses"):
        MatchedPair(treated=t, control=unit("t", 1, 0, 1.0))


def test_from_pairs_subtracts_pair_differences():
    pre = MatchedPair(treated=unit("a", 1, 1, 2.0), control=unit("b", 1, 0, 1.0))
    post = MatchedPair(treated=unit("c", 2, 1, 5.0), control=unit("d", 2, 0, 2.0))
    qs = QuadrupleSet.from_pairs([pre], [post])
    assert qs.d_values().tolist() == [(5.0 - 2.0) - (2.0 - 1.0)]
    assert qs.ids.tolist() == [["a", "b", "c", "d"]]
    assert qs.outcomes.tolist() == [[2.0, 1.0, 5.0, 2.0]]
    with pytest.raises(StructuralError, match="expected 1"):
        QuadrupleSet.from_pairs([post], [post])
    with pytest.raises(StructuralError, match="expected 2"):
        QuadrupleSet.from_pairs([pre], [pre])
    with pytest.raises(ValueError):
        QuadrupleSet.from_pairs([pre], [])


def test_quadruple_set_rejects_shared_units():
    with pytest.raises(StructuralError, match="'u' appears in more than one slot"):
        QuadrupleSet(ids=[["a", "b", "c", "u"], ["u", "e", "f", "g"]], outcomes=np.zeros((2, 4)))
    with pytest.raises(StructuralError, match="more than one slot"):
        QuadrupleSet(ids=[["a", "b", "a", "d"]], outcomes=np.zeros((1, 4)))
    with pytest.raises(StructuralError, match="outcome_kind"):
        QuadrupleSet(ids=[["a", "b", "c", "d"]], outcomes=np.zeros((1, 4)), outcome_kind="ternary")
    with pytest.raises(StructuralError, match="shape"):
        QuadrupleSet(ids=[["a", "b", "c"]], outcomes=np.zeros((1, 3)))
    with pytest.raises(StructuralError, match="rows"):
        QuadrupleSet(ids=[["a", "b", "c", "d"]], outcomes=np.zeros((2, 4)))


def test_d_values_order_preserved():
    qs = quadset_from_d([3.0, -1.0, 0.5])
    assert qs.d_values().tolist() == [3.0, -1.0, 0.5]
    assert len(qs) == 3


def test_quadruple_set_arrays_are_read_only():
    source = [[0.0, 1.0, 4.0, 2.0]]
    qs = QuadrupleSet(ids=[["a", "b", "c", "d"]], outcomes=source)
    for arr in (qs.d_values(), qs.ids, qs.outcomes):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]
    source[0][2] = 9.0  # the set keeps its own copy
    assert qs.d_values().tolist() == [3.0]


def test_subset_keeps_order_and_kind():
    qs = binary_quadset([(0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 1, 1), (0, 1, 1, 0)])
    mask = qs.subset(np.array([True, False, True, True]))
    assert mask.ids[:, 0].tolist() == ["b0pt", "b2pt", "b3pt"]
    assert mask.d_values().tolist() == [2.0, 0.0, 2.0]
    assert mask.outcome_kind == "binary"
    head = qs.subset(slice(2))
    assert head.ids[:, 0].tolist() == ["b0pt", "b1pt"]
    assert qs.subset([3, 1]).d_values().tolist() == [2.0, -2.0]
    assert len(qs.subset(slice(0))) == 0


def test_validate_dataset_flags_problems():
    good = [
        unit("a", 1, 1, 1.0, age=30.0, sector="mfg"),
        unit("b", 1, 0, 2.0, age=31.0, sector="svc"),
    ]
    assert validate_dataset(good) == {"age": "continuous", "sector": "nominal"}

    dup = good + [unit("a", 2, 1, 1.0, age=30.0, sector="mfg")]
    with pytest.raises(StructuralError, match="duplicate id"):
        validate_dataset(dup)

    nonfinite = [unit("n", 1, 1, math.inf)]
    with pytest.raises(StructuralError, match="finite"):
        validate_dataset(nonfinite)

    mixed_schema = good + [unit("c", 1, 0, 1.0, age=40.0)]
    with pytest.raises(StructuralError, match="covariate names"):
        validate_dataset(mixed_schema)

    mixed_kind = good + [unit("d", 1, 0, 1.0, age="old", sector="mfg")]
    with pytest.raises(StructuralError, match="elsewhere"):
        validate_dataset(mixed_kind)

    boolean = [unit("e", 1, 1, 1.0, flag=True)]
    with pytest.raises(StructuralError, match="unsupported"):
        validate_dataset(boolean)

    with pytest.raises(StructuralError, match="^invalid dataset: dataset is empty$"):
        validate_dataset([])

    many = [unit(f"u{i}", 1, 1, math.nan) for i in range(7)]
    with pytest.raises(StructuralError, match=r"^invalid dataset: record 'u0'.*'u4'[^;]*; and 2 more$"):
        validate_dataset(many)


def test_validate_dataset_binary_outcomes():
    ok = [unit("a", 1, 1, 1.0), unit("b", 1, 0, 0.0)]
    assert validate_dataset(ok, outcome_kind="binary") == {}
    bad = [unit("c", 1, 1, 0.5)]
    with pytest.raises(StructuralError, match="binary outcome must be 0 or 1"):
        validate_dataset(bad, outcome_kind="binary")
    with pytest.raises(ValueError):
        validate_dataset(ok, outcome_kind="count")


def test_binary_quadset_contrasts():
    qs = binary_quadset([(1, 0, 0, 1), (0, 1, 1, 0)])
    assert qs.d_values().tolist() == [(0 - 1) - (1 - 0), (1 - 0) - (0 - 1)]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_quadruple_set_rejects_non_finite_contrasts(bad):
    # A non-finite contrast would leave invert_ci bisecting an infinite span.
    with pytest.raises(DataError, match="quadruple row 2: contrast d = .* is not finite"):
        quadset_from_d([1.0, 2.0, bad, 3.0, 0.5])


def test_quadruple_set_overflow_raises_data_error_without_a_warning():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DataError, match="quadruple row 0: contrast d = .* is not finite"):
            QuadrupleSet(ids=[["a", "b", "c", "d"]], outcomes=[[1e308, -1e308, 0.0, 0.0]])
