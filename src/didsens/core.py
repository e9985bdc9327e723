"""Core data structures for matched two-period group comparisons.

A study unit is observed in a single period with a binary group flag and an
outcome.  Within-period matching yields treated-control pairs; matching a
period-1 pair to a period-2 pair yields a quadruple, the unit of inference
for the difference-in-differences contrast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from .errors import StructuralError

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

    @property
    def outcome_diff(self) -> float:
        return self.treated.outcome - self.control.outcome


def did_contrast(pre: MatchedPair, post: MatchedPair) -> float:
    """Difference-in-differences contrast of a period-1 and a period-2 pair.

    Returns (treated - control in period 2) - (treated - control in period 1).
    """
    if pre.period != 1:
        raise StructuralError(
            f"pre pair ({pre.treated.id!r}, {pre.control.id!r}) is from period {pre.period}, expected 1"
        )
    if post.period != 2:
        raise StructuralError(
            f"post pair ({post.treated.id!r}, {post.control.id!r}) is from period {post.period}, expected 2"
        )
    return post.outcome_diff - pre.outcome_diff


@dataclass(frozen=True)
class Quadruple:
    """A matched period-1 pair and period-2 pair with derived contrasts.

    ``d = s * a`` always holds: s is the sign of the contrast, a its
    magnitude.
    """

    pre: MatchedPair
    post: MatchedPair
    d: float
    s: int = 0
    a: float = 0.0

    def __post_init__(self) -> None:
        if self.s not in (-1, 0, 1):
            raise StructuralError("s must be -1, 0, or +1")
        if self.a < 0:
            raise StructuralError("a must be nonnegative")
        if abs(self.s * self.a - self.d) > 1e-12 * max(1.0, abs(self.d)):
            raise StructuralError("inconsistent quadruple: s * a != d")

    @property
    def unit_ids(self) -> tuple[str, str, str, str]:
        return (self.pre.treated.id, self.pre.control.id, self.post.treated.id, self.post.control.id)


def build_quadruple(pre: MatchedPair, post: MatchedPair) -> Quadruple:
    """Assemble a quadruple, deriving d, sign, and magnitude."""
    d = did_contrast(pre, post)
    s = int(np.sign(d))
    return Quadruple(pre=pre, post=post, d=d, s=s, a=abs(d))


@dataclass(frozen=True)
class QuadrupleSet:
    """An ordered collection of quadruples over disjoint units."""

    quads: tuple[Quadruple, ...]
    outcome_kind: str = "continuous"

    def __post_init__(self) -> None:
        if self.outcome_kind not in VALID_OUTCOME_KINDS:
            raise StructuralError(
                f"outcome_kind must be one of {VALID_OUTCOME_KINDS}, got {self.outcome_kind!r}"
            )
        seen: set[str] = set()
        for quad in self.quads:
            for uid in quad.unit_ids:
                if uid in seen:
                    raise StructuralError(f"unit {uid!r} appears in more than one slot")
                seen.add(uid)

    def __len__(self) -> int:
        return len(self.quads)

    def __iter__(self) -> Iterator[Quadruple]:
        return iter(self.quads)

    def d_values(self) -> np.ndarray:
        return np.array([q.d for q in self.quads], dtype=np.float64)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_dataset: overall flag, problem list, inferred schema."""

    ok: bool
    problems: tuple[str, ...]
    covariate_kinds: Mapping[str, str]


def _value_kind(value: object) -> str | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float, np.integer, np.floating)):
        return "continuous"
    if isinstance(value, str):
        return "nominal"
    return None


def validate_dataset(records: list[UnitRecord], outcome_kind: str = "continuous") -> ValidationReport:
    """Check a record list for structural problems.

    Verifies unique ids, finite outcomes (0/1 when outcome_kind is
    "binary"), a shared covariate name set, and per-covariate value kinds
    consistent across records.

    Parameters
    ----------
    records : list of UnitRecord
    outcome_kind : str
        "continuous" or "binary".

    Returns
    -------
    ValidationReport
    """
    if outcome_kind not in VALID_OUTCOME_KINDS:
        raise ValueError(f"outcome_kind must be one of {VALID_OUTCOME_KINDS}")
    problems: list[str] = []
    if not records:
        return ValidationReport(ok=False, problems=("dataset is empty",), covariate_kinds={})

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
    return ValidationReport(ok=not problems, problems=tuple(problems), covariate_kinds=kinds)
