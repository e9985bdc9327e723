"""Binary-outcome path: eligibility filtering and McNemar's test.

With 0/1 outcomes, only quadruples whose pairs are discordant in opposite
directions carry sign information; their contrasts are +/-2.  McNemar's
count of +2s is the sign-score statistic with `ScoreFunction.mcnemar()`
(1 where |d| = 2, else 0, the one definition of "informative"), so it runs
through the same sign-flip DP, whose pmf is then Binomial(n, p),
p = gamma^2/(1 + gamma^2) in the worst case ("mcnemar:dp:gamma=..." in `method`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import QuadrupleSet
from .errors import DegenerateDataError, StructuralError
from .inference import ScoreFunction, TestResult
from .sensitivity import SignProbabilityBounds, two_param_bounds, worst_case_pvalue


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
    eligible = ScoreFunction.mcnemar().scores(abs(quads.d_values())) > 0
    y = quads.outcomes
    pre_disc = y[:, 0] != y[:, 1]
    post_disc = y[:, 2] != y[:, 3]
    reasons = {
        "pre_concordant": int((~pre_disc).sum()),
        "post_concordant": int((~post_disc).sum()),
        "same_direction": int((pre_disc & post_disc & ~eligible).sum()),
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


def mcnemar_sensitivity_pvalue(
    eligible: QuadrupleSet,
    gamma: float = 1.0,
    direction: str = "upper",
    sided: str = "one_sided_greater",
) -> TestResult:
    """Exact binomial bound on the sign-count p-value at sign odds gamma^2.

    At gamma = 1 this is the exact McNemar-style randomization test.
    """
    if len(eligible) == 0:
        raise DegenerateDataError("no eligible quadruples; the binary design carries no information")
    return worst_case_pvalue(eligible, 0.0, ScoreFunction.mcnemar(), gamma, direction, sided)


def binary_two_param_bounds(lam: float, delta: float) -> SignProbabilityBounds:
    """Sign-probability bounds for eligible binary quadruples.

    Same closed form as the continuous path; once a quadruple passes the
    eligibility filter its sign odds factor exactly as in the continuous
    derivation, so the bounds carry over unchanged.
    """
    return two_param_bounds(lam, delta)
