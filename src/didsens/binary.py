"""Binary-outcome path: eligibility filtering and exact binomial tests.

With 0/1 outcomes, only quadruples whose pairs are discordant in opposite
directions carry sign information; their contrasts are +/-2.  The count of
positive signs among the eligible quadruples is a McNemar-style statistic
whose null and worst-case reference distributions are binomial, with sign
probability gamma^2/(1 + gamma^2) in the worst case.
"""

from __future__ import annotations

from dataclasses import dataclass

from scipy.stats import binom

from .core import Quadruple, QuadrupleSet
from .errors import DegenerateDataError, StructuralError
from .inference import TestResult, _sided_pvalue
from .sensitivity import SignProbabilityBounds, _tilt, two_param_bounds


@dataclass(frozen=True)
class EligibleQuadruple:
    """An informative binary quadruple and its sign s = d/2."""

    quad: Quadruple
    s: int

    def __post_init__(self) -> None:
        if self.s not in (-1, 1):
            raise StructuralError("eligible quadruples have sign -1 or +1")


_REASONS = ("pre_concordant", "post_concordant", "same_direction")


@dataclass(frozen=True)
class EligibilityReport:
    """Eligible quadruples plus an accounting of the exclusions.

    Reason counts are not mutually exclusive; a quadruple failing several
    conditions increments each.
    """

    eligible: tuple[EligibleQuadruple, ...]
    n_total: int
    n_ineligible: int
    reasons: dict[str, int]


def _check_binary(quads: QuadrupleSet) -> None:
    if quads.outcome_kind != "binary":
        raise StructuralError("eligibility filtering requires outcome_kind='binary'")
    for quad in quads:
        for rec in (quad.pre.treated, quad.pre.control, quad.post.treated, quad.post.control):
            if rec.outcome not in (0, 1):
                raise StructuralError(f"record {rec.id!r}: binary outcome must be 0 or 1")


def eligibility_report(quads: QuadrupleSet) -> EligibilityReport:
    """Filter to informative quadruples, preserving input order."""
    _check_binary(quads)
    eligible: list[EligibleQuadruple] = []
    reasons = dict.fromkeys(_REASONS, 0)
    n_bad = 0
    for quad in quads:
        pre_disc = quad.pre.treated.outcome != quad.pre.control.outcome
        post_disc = quad.post.treated.outcome != quad.post.control.outcome
        opposite = quad.pre.treated.outcome + quad.post.treated.outcome == 1
        if pre_disc and post_disc and opposite:
            eligible.append(EligibleQuadruple(quad=quad, s=int(quad.d / 2)))
            continue
        n_bad += 1
        if not pre_disc:
            reasons["pre_concordant"] += 1
        if not post_disc:
            reasons["post_concordant"] += 1
        if pre_disc and post_disc and not opposite:
            reasons["same_direction"] += 1
    return EligibilityReport(
        eligible=tuple(eligible), n_total=len(quads), n_ineligible=n_bad, reasons=reasons
    )


def eligible_quadruples(quads: QuadrupleSet) -> list[EligibleQuadruple]:
    """The informative quadruples: both pairs discordant, in opposite ways."""
    return list(eligibility_report(quads).eligible)


def mcnemar_statistic(eligible: list[EligibleQuadruple]) -> int:
    """Count of positive signs among the eligible quadruples."""
    return sum(1 for e in eligible if e.s == 1)


def mcnemar_sensitivity_pvalue(
    eligible: list[EligibleQuadruple],
    gamma: float = 1.0,
    direction: str = "upper",
    sided: str = "one_sided_greater",
) -> TestResult:
    """Exact binomial bound on the sign-count p-value at sign odds gamma^2.

    At gamma = 1 this is the exact McNemar-style randomization test.
    """
    p_greater_tail, p_less_tail = _tilt(gamma, direction)
    n = len(eligible)
    if n == 0:
        raise DegenerateDataError("no eligible quadruples; the binary design carries no information")
    t = mcnemar_statistic(eligible)
    p_val = _sided_pvalue(
        lambda: float(binom.sf(t - 1, n, p_greater_tail)), lambda: float(binom.cdf(t, n, p_less_tail)), sided
    )
    return TestResult(
        statistic=float(t),
        p_value=min(p_val, 1.0),
        sided=sided,
        method=f"mcnemar:binomial:gamma={gamma:g}:{direction}",
        n_effective=n,
    )


def binary_two_param_bounds(lam: float, delta: float) -> SignProbabilityBounds:
    """Sign-probability bounds for eligible binary quadruples.

    Same closed form as the continuous path; once a quadruple passes the
    eligibility filter its sign odds factor exactly as in the continuous
    derivation, so the bounds carry over unchanged.
    """
    return two_param_bounds(lam, delta)
