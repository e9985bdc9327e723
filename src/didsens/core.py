"""Core data structures for matched two-period group comparisons.

A study unit is observed in a single period with a binary group flag and an
outcome.  Within-period matching yields treated-control pairs; matching a
period-1 pair to a period-2 pair yields a quadruple, the unit of inference
for the difference-in-differences contrast.  A QuadrupleSet stores its
quadruples as columns: unit ids and outcomes by slot, and the contrasts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, StructuralError

VALID_OUTCOME_KINDS = ("continuous", "binary")


@dataclass(frozen=True)
class UnitRecord:
    """One unit observed in one period.

    Parameters
    ----------
    id : str
        Unique unit identifier.
    period : int
        Observation period, 1 or 2.
    z : int
        Group flag: 1 for the exposed (treated-period-2 style) group, 0 for
        the comparison group.
    outcome : float
        Observed response.
    covariates : mapping
        Covariate name to value.  Numeric values are treated as continuous
        covariates, strings as nominal ones.  Treat as read-only.
    """

    id: str
    period: int
    z: int
    outcome: float
    covariates: Mapping[str, float | str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.period not in (1, 2):
            raise StructuralError(f"record {self.id!r}: period must be 1 or 2, got {self.period!r}")
        if self.z not in (0, 1):
            raise StructuralError(f"record {self.id!r}: z must be 0 or 1, got {self.z!r}")


@dataclass(frozen=True)
class MatchedPair:
    """A treated-control pair from a single period, treated stored first."""

    treated: UnitRecord
    control: UnitRecord

    def __post_init__(self) -> None:
        if self.treated.z != 1 or self.control.z != 0:
            raise StructuralError(
                f"pair ({self.treated.id!r}, {self.control.id!r}): "
                "treated slot must have z=1 and control slot z=0"
            )
        if self.treated.period != self.control.period:
            raise StructuralError(
                f"pair ({self.treated.id!r}, {self.control.id!r}): periods differ"
            )
        if self.treated.id == self.control.id:
            raise StructuralError(f"pair reuses unit {self.treated.id!r}")

    @property
    def period(self) -> int:
        return self.treated.period


SLOTS = ("pre_treated", "pre_control", "post_treated", "post_control")


def _quad_rows(values, dtype) -> np.ndarray:
    """A read-only (n, 4) copy of values; an empty input gives n = 0."""
    rows = np.array(values, dtype=dtype)
    if rows.size == 0:
        rows = rows.reshape(0, 4)
    if rows.ndim != 2 or rows.shape[1] != 4:
        raise StructuralError(f"quadruple arrays must have shape (n, 4), got {rows.shape}")
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True, eq=False)
class QuadrupleSet:
    """Quadruples over disjoint units, one row per quadruple.

    ids and outcomes are (n, 4) arrays whose columns follow SLOTS; d holds
    each row's contrast (post treated - post control) - (pre treated - pre
    control), which must be finite.  All three are read-only.
    """

    ids: np.ndarray
    outcomes: np.ndarray
    outcome_kind: str = "continuous"
    d: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.outcome_kind not in VALID_OUTCOME_KINDS:
            raise StructuralError(
                f"outcome_kind must be one of {VALID_OUTCOME_KINDS}, got {self.outcome_kind!r}"
            )
        ids = _quad_rows(self.ids, str)
        y = _quad_rows(self.outcomes, np.float64)
        if ids.shape != y.shape:
            raise StructuralError(f"{ids.shape[0]} id rows but {y.shape[0]} outcome rows")
        units, counts = np.unique(ids, return_counts=True)
        if (counts > 1).any():
            raise StructuralError(f"unit {str(units[counts > 1][0])!r} appears in more than one slot")
        with np.errstate(over="ignore", invalid="ignore"):  # reported as DataError below
            d = (y[:, 2] - y[:, 3]) - (y[:, 0] - y[:, 1])
        if not np.isfinite(d).all():
            row = int(np.flatnonzero(~np.isfinite(d))[0])
            raise DataError(f"quadruple row {row}: contrast d = {float(d[row])} is not finite")
        d.flags.writeable = False
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "outcomes", y)
        object.__setattr__(self, "d", d)

    @classmethod
    def from_pairs(
        cls, pre: Sequence[MatchedPair], post: Sequence[MatchedPair], outcome_kind: str = "continuous"
    ) -> QuadrupleSet:
        """Join pre[k], a period-1 pair, and post[k], a period-2 pair, into row k."""
        units = []
        for a, b in zip(pre, post, strict=True):
            for side, pair, period in (("pre", a, 1), ("post", b, 2)):
                if pair.period != period:
                    raise StructuralError(
                        f"{side} pair ({pair.treated.id!r}, {pair.control.id!r}) "
                        f"is from period {pair.period}, expected {period}"
                    )
            units.append((a.treated, a.control, b.treated, b.control))
        return cls(
            ids=[[u.id for u in row] for row in units],
            outcomes=[[u.outcome for u in row] for row in units],
            outcome_kind=outcome_kind,
        )

    def __len__(self) -> int:
        return self.d.size

    def d_values(self) -> np.ndarray:
        return self.d

    def subset(self, rows) -> QuadrupleSet:
        """The quadruples at rows (indices, a boolean mask or a slice), in that order."""
        return QuadrupleSet(self.ids[rows], self.outcomes[rows], self.outcome_kind)


def _value_kind(value: object) -> str | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float, np.integer, np.floating)):
        return "continuous"
    if isinstance(value, str):
        return "nominal"
    return None


def validate_dataset(records: list[UnitRecord], outcome_kind: str = "continuous") -> dict[str, str]:
    """Covariate name -> "continuous" or "nominal" for a valid record list.

    Checks unique ids, finite outcomes (0/1 when outcome_kind is "binary"),
    a shared covariate name set, and per-covariate value kinds consistent
    across records.  Otherwise raises StructuralError("invalid dataset:
    ...") with the first five problems and the count of the rest.
    """
    if outcome_kind not in VALID_OUTCOME_KINDS:
        raise ValueError(f"outcome_kind must be one of {VALID_OUTCOME_KINDS}")
    if not records:
        raise StructuralError("invalid dataset: dataset is empty")
    problems: list[str] = []
    seen_ids: set[str] = set()
    schema = sorted(records[0].covariates)
    kinds: dict[str, str] = {}
    for rec in records:
        if rec.id in seen_ids:
            problems.append(f"record {rec.id!r}: duplicate id")
        seen_ids.add(rec.id)
        if not np.isfinite(rec.outcome):
            problems.append(f"record {rec.id!r}: outcome is not finite")
        elif outcome_kind == "binary" and rec.outcome not in (0, 1):
            problems.append(f"record {rec.id!r}: binary outcome must be 0 or 1, got {rec.outcome!r}")
        names = sorted(rec.covariates)
        if names != schema:
            problems.append(
                f"record {rec.id!r}: covariate names {names} differ from {schema}"
            )
            continue
        for name, value in rec.covariates.items():
            kind = _value_kind(value)
            if kind is None:
                problems.append(
                    f"record {rec.id!r}: covariate {name!r} has unsupported value {value!r}"
                )
            elif name not in kinds:
                kinds[name] = kind
            elif kinds[name] != kind:
                problems.append(
                    f"record {rec.id!r}: covariate {name!r} is {kind} here but {kinds[name]} elsewhere"
                )
    if problems:
        shown = "; ".join(problems[:5])
        if len(problems) > 5:
            shown += f"; and {len(problems) - 5} more"
        raise StructuralError(f"invalid dataset: {shown}")
    return kinds
