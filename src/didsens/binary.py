"""Binary-outcome path: eligibility filtering and McNemar's test.

With 0/1 outcomes, only quadruples whose pairs are discordant in opposite
directions carry sign information; their contrasts are +/-2.  The count of
positive signs among them is the sign-score statistic with unit scores, so
it runs through the same sign-flip DP, whose pmf is then Binomial(n, p),
p = gamma^2/(1 + gamma^2) in the worst case ("mcnemar:dp:gamma=..." in `method`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import QuadrupleSet
from .errors import DegenerateDataError, StructuralError
from .inference import ScoreFunction, TestResult, _signscore_pvalue
from .sensitivity import SignProbabilityBounds, _tilt, two_param_bounds


@dataclass(frozen=True)
class EligibilityReport:
    """Eligible quadruples plus an accounting of the exclusions.

    Reason counts are not mutually exclusive; a quadruple failing several
    conditions increments each.
    """

    eligible: QuadrupleSet
    n_total: int
    n_ineligible: int
    reasons: dict[str, int]


def eligibility_report(quads: QuadrupleSet) -> EligibilityReport:
    """Filter to informative quadruples, preserving input order."""
    if quads.outcome_kind != "binary":
        raise StructuralError("eligibility filtering requires outcome_kind='binary'")
    y = quads.outcomes
    not_binary = (y != 0) & (y != 1)
    if not_binary.any():
        raise StructuralError(f"record {str(quads.ids[not_binary][0])!r}: binary outcome must be 0 or 1")
    pre_disc = y[:, 0] != y[:, 1]
    post_disc = y[:, 2] != y[:, 3]
    opposite = y[:, 0] + y[:, 2] == 1
    eligible = pre_disc & post_disc & opposite
    reasons = {
        "pre_concordant": int((~pre_disc).sum()),
        "post_concordant": int((~post_disc).sum()),
        "same_direction": int((pre_disc & post_disc & ~opposite).sum()),
    }
    return EligibilityReport(
        eligible=quads.subset(eligible),
        n_total=len(quads),
        n_ineligible=int((~eligible).sum()),
        reasons=reasons,
    )


def eligible_quadruples(quads: QuadrupleSet) -> QuadrupleSet:
    """The informative quadruples: both pairs discordant, in opposite ways."""
    return eligibility_report(quads).eligible


def mcnemar_statistic(eligible: QuadrupleSet) -> int:
    """Count of positive contrasts (d = +2) among the eligible quadruples."""
    return int((eligible.d_values() > 0).sum())


def mcnemar_sensitivity_pvalue(
    eligible: QuadrupleSet,
    gamma: float = 1.0,
    direction: str = "upper",
    sided: str = "one_sided_greater",
) -> TestResult:
    """Exact binomial bound on the sign-count p-value at sign odds gamma^2.

    At gamma = 1 this is the exact McNemar-style randomization test.
    """
    p_greater_tail, p_less_tail = _tilt(gamma, direction)
    if len(eligible) == 0:
        raise DegenerateDataError("no eligible quadruples; the binary design carries no information")
    t, p_val, route, n = _signscore_pvalue(
        np.sign(eligible.d_values()), 0.0, ScoreFunction.absolute_value(), p_greater_tail, p_less_tail, sided
    )
    return TestResult(
        statistic=t,
        p_value=p_val,
        sided=sided,
        method=f"mcnemar:{route}:gamma={gamma:g}:{direction}",
        n_effective=n,
    )


def binary_two_param_bounds(lam: float, delta: float) -> SignProbabilityBounds:
    """Sign-probability bounds for eligible binary quadruples.

    Same closed form as the continuous path; once a quadruple passes the
    eligibility filter its sign odds factor exactly as in the continuous
    derivation, so the bounds carry over unchanged.
    """
    return two_param_bounds(lam, delta)
