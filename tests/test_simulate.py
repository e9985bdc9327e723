import math

import numpy as np
import pytest

from didsens.binary import eligibility_report, eligible_quadruples, mcnemar_statistic
from didsens.errors import StructuralError
from didsens.simulate import (
    AnalysisPlan,
    BinaryDesign,
    ContinuousDesign,
    generate_binary,
    generate_continuous,
    level_power_study,
    quadruples_from_records,
)


def _equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


def test_generators_are_reproducible_bit_for_bit():
    c = ContinuousDesign(n_quadruples=40, tau=1.0)
    assert _equal(generate_continuous(c, seed=5), generate_continuous(c, seed=5))
    b = BinaryDesign(n_quadruples=40)
    assert _equal(generate_binary(b, seed=5), generate_binary(b, seed=5))
    assert not _equal(generate_continuous(c, seed=5), generate_continuous(c, seed=6))


def test_uniform_hidden_trait_is_continuous():
    # With assignment and outcome signs both following du2 steeply, a contrast
    # is positive unless du2 is near 0: almost always under uniform u, but at
    # the Bernoulli corners du2 = 0 for half the quadruples.
    def positive_share(u_dist):
        design = ContinuousDesign(n_quadruples=400, lambda2=200.0, delta2=200.0, u_dist=u_dist)
        return float((quadruples_from_records(generate_continuous(design, seed=1)).d_values() > 0).mean())

    uniform = ContinuousDesign(n_quadruples=40, u_dist="uniform")
    assert _equal(generate_continuous(uniform, seed=5), generate_continuous(uniform, seed=5))
    assert positive_share("uniform") > 0.95
    assert 0.6 < positive_share("bernoulli") < 0.9


def test_record_structure_round_trips():
    design = ContinuousDesign(n_quadruples=25, tau=0.5)
    z, outcomes = generate_continuous(design, seed=2)
    assert z.shape == outcomes.shape == (25, 2, 2)
    quads = quadruples_from_records((z, outcomes))
    assert len(quads) == 25
    assert quads.outcome_kind == "continuous"
    periods = np.char.partition(quads.ids, "-")[:, :, 2]
    assert np.all(np.char.startswith(periods[:, :2], "p1-"))
    assert np.all(np.char.startswith(periods[:, 2:], "p2-"))


def test_quadruples_from_records_places_treated_units():
    # quadruple 0: member a treated in period 1, member b in period 2; quadruple 1 the reverse
    z = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
    outcomes = np.array([[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]])
    quads = quadruples_from_records((z, outcomes), outcome_kind="binary")
    assert quads.ids.tolist() == [
        ["q00000-p1-a", "q00000-p1-b", "q00000-p2-b", "q00000-p2-a"],
        ["q00001-p1-b", "q00001-p1-a", "q00001-p2-a", "q00001-p2-b"],
    ]
    assert quads.outcomes.tolist() == [[1.0, 2.0, 4.0, 3.0], [6.0, 5.0, 7.0, 8.0]]
    assert quads.d_values().tolist() == [(4.0 - 3.0) - (1.0 - 2.0), (7.0 - 8.0) - (6.0 - 5.0)]
    assert quads.outcome_kind == "binary"


def test_tau_heterogeneity_moves_only_the_post_treated_outcome():
    # The heterogeneity draw is the generator's last, so one seed gives the same
    # assignment and outcomes with and without it, except where the effect enters.
    n = 2000
    flat = quadruples_from_records(generate_continuous(ContinuousDesign(n_quadruples=n, tau=0.3), seed=4))
    spread = quadruples_from_records(
        generate_continuous(ContinuousDesign(n_quadruples=n, tau=0.3, tau_heterogeneity_sd=0.5), seed=4)
    )
    assert np.array_equal(flat.ids, spread.ids)
    moved = flat.outcomes != spread.outcomes
    assert moved[:, 2].all() and not moved[:, [0, 1, 3]].any()
    # The contrast gains one N(0, 0.5^2) draw per quadruple; the SD of 2000 draws
    # has standard error 0.5 / sqrt(2 * 1999) = 0.008, and the band is 5 of them.
    assert abs(np.std(spread.d - flat.d, ddof=1) - 0.5) < 0.04


def test_unit_effects_cancel_in_the_contrast():
    # huge unit, role, and period effects must vanish from d exactly
    design = ContinuousDesign(n_quadruples=10_000, mu_sd=50.0, alpha_sd=50.0, beta_sd=50.0)
    quads = quadruples_from_records(generate_continuous(design, seed=11))
    d = quads.d_values()
    assert abs(d.mean()) < 4.5 * 2.0 / math.sqrt(d.size)
    assert d.std() < 4.0


def test_constant_effect_shifts_the_contrast_mean():
    design = ContinuousDesign(n_quadruples=4000, tau=2.0, residual_scale=0.5)
    quads = quadruples_from_records(generate_continuous(design, seed=3))
    assert quads.d_values().mean() == pytest.approx(2.0, abs=0.08)


def test_latent_tilt_biases_the_sign():
    # with both tilts on, assignment and noise sign correlate through u
    design = ContinuousDesign(n_quadruples=3000, lambda2=5.0, delta2=5.0)
    quads = quadruples_from_records(generate_continuous(design, seed=7))
    assert np.sign(quads.d_values()).mean() > 0.3
    # with tilts off the sign is symmetric
    null = ContinuousDesign(n_quadruples=3000)
    quads0 = quadruples_from_records(generate_continuous(null, seed=7))
    assert abs(np.sign(quads0.d_values()).mean()) < 0.06


def test_design_validation():
    with pytest.raises(ValueError):
        ContinuousDesign(n_quadruples=0)
    with pytest.raises(ValueError):
        ContinuousDesign(n_quadruples=5, residual="cauchy")
    with pytest.raises(ValueError):
        ContinuousDesign(n_quadruples=5, u_dist="beta")
    with pytest.raises(ValueError):
        BinaryDesign(n_quadruples=5, u_dist="beta")


def test_binary_flat_design_rates():
    design = BinaryDesign(n_quadruples=4000, mu_sd=0.0, alpha_sd=0.0, beta_sd=0.0)
    z, outcomes = generate_binary(design, seed=13)
    assert set(outcomes.ravel().tolist()) <= {0.0, 1.0}
    assert outcomes.mean() == pytest.approx(0.5, abs=0.02)
    quads = quadruples_from_records((z, outcomes), outcome_kind="binary")
    rep = eligibility_report(quads)
    assert rep.n_total == 4000
    assert len(rep.eligible) / 4000 == pytest.approx(1.0 / 8.0, abs=0.02)


def test_binary_rare_events_starve_eligibility():
    design = BinaryDesign(n_quadruples=800, mu_mean=-8.0, mu_sd=0.5)
    quads = quadruples_from_records(generate_binary(design, seed=1), outcome_kind="binary")
    assert len(eligible_quadruples(quads)) < 40


def test_binary_positive_effect_raises_the_statistic():
    design = BinaryDesign(n_quadruples=3000, tau_logit=1.5, mu_sd=0.0, alpha_sd=0.0, beta_sd=0.0)
    quads = quadruples_from_records(generate_binary(design, seed=9), outcome_kind="binary")
    els = eligible_quadruples(quads)
    assert mcnemar_statistic(els) > 0.6 * len(els)


def test_level_power_study_rows_and_summary():
    design = ContinuousDesign(n_quadruples=30, tau=1.0, residual_scale=0.8)
    plan = AnalysisPlan(
        test="signed_rank",
        compute_hl=True,
        estimate_gamma=1.2,
        compute_changepoint=True,
    )
    res = level_power_study(design, plan, reps=8, seed=3)
    assert len(res.rows) == 8
    for r, row in enumerate(res.rows):
        assert row["rep"] == r
        assert 0.0 <= row["p_value"] <= 1.0
        assert row["reject"] in (0, 1)
        assert row["bound_lower"] <= row["bound_upper"]
        assert row["covered"] in (0, 1)
        assert "hl" in row and "changepoint" in row
    s = res.summary
    assert s["reps"] == 8
    rate = s["rejection_rate"]
    assert s["mc_se"] == pytest.approx(math.sqrt(rate * (1 - rate) / 8))
    assert {"mean_p", "hl_mean", "hl_rmse", "coverage_rate", "changepoint_median"} <= set(s)


def test_level_power_study_is_deterministic():
    design = ContinuousDesign(n_quadruples=20)
    plan = AnalysisPlan(test="sate")
    a = level_power_study(design, plan, reps=5, seed=42)
    b = level_power_study(design, plan, reps=5, seed=42)
    assert a == b


def test_mcnemar_budget_pins_the_effective_size():
    design = BinaryDesign(n_quadruples=400, mu_sd=0.0, alpha_sd=0.0, beta_sd=0.0)
    plan = AnalysisPlan(test="mcnemar", mcnemar_budget=20)
    res = level_power_study(design, plan, reps=6, seed=8)
    assert all(row["n_effective"] == 20 for row in res.rows)


@pytest.mark.parametrize(
    "design, plan, seed",
    [
        (ContinuousDesign(n_quadruples=30, tau=0.4, residual="lognormal"),
         AnalysisPlan(test="sate", compute_changepoint=True), 1),
        (ContinuousDesign(n_quadruples=30, tau=0.4, residual="lognormal"),
         AnalysisPlan(test="permutational_t", compute_changepoint=True), 1),
        (BinaryDesign(n_quadruples=600, tau_logit=0.5),
         AnalysisPlan(test="mcnemar", mcnemar_budget=40, compute_changepoint=True), 0),
    ],
    ids=["sate", "permutational_t", "mcnemar_budget"],
)
def test_changepoint_exists_exactly_when_the_test_rejects(design, plan, seed):
    # at gamma = 1 the p-value and the changepoint come from one test on the
    # same quadruples, so a changepoint (finite or inf) exists iff p <= alpha
    res = level_power_study(design, plan, reps=10, seed=seed)
    for row in res.rows:
        assert (row["p_value"] <= plan.alpha) == (not math.isnan(row["changepoint"]))


def test_plan_and_study_validation():
    with pytest.raises(ValueError):
        AnalysisPlan(test="t_test")
    with pytest.raises(ValueError):
        AnalysisPlan(alpha=0.0)
    with pytest.raises(ValueError):
        AnalysisPlan(mcnemar_budget=0)
    with pytest.raises(ValueError):
        level_power_study(ContinuousDesign(n_quadruples=5), AnalysisPlan(), reps=0)


def test_quadruples_from_records_structural_errors():
    z, outcomes = generate_continuous(ContinuousDesign(n_quadruples=3), seed=4)
    with pytest.raises(StructuralError, match="expected \\(n, 2, 2\\)"):
        quadruples_from_records((z[:, :1], outcomes[:, :1]))
    with pytest.raises(StructuralError, match="expected \\(n, 2, 2\\)"):
        quadruples_from_records((z, outcomes[:-1]))
    broken = z.copy()
    broken[0, 0] = 1
    with pytest.raises(StructuralError, match="'q00000' period 1 is not a treated-control pair"):
        quadruples_from_records((broken, outcomes))


@pytest.mark.parametrize(
    "flags",
    [{"compute_changepoint": True}, {"compute_hl": True}, {"estimate_gamma": 1.2}],
    ids=["changepoint", "hl", "estimate_gamma"],
)
def test_replications_without_informative_quadruples_fill_every_column(flags):
    # rare events leave 5 of these 8 replications with no informative quadruple
    design = BinaryDesign(n_quadruples=8, mu_mean=-2.0)
    res = level_power_study(design, AnalysisPlan(test="mcnemar", **flags), reps=8, seed=1)
    empty = [row for row in res.rows if row["n_effective"] == 0]
    informative = [row for row in res.rows if row["n_effective"] > 0]
    assert empty and informative
    for row in empty:
        assert row["p_value"] == 1.0 and row["reject"] == 0
        assert list(row) == list(informative[0])
        for key in ("changepoint", "hl", "bound_lower", "bound_upper"):
            assert math.isnan(row.get(key, math.nan))
        assert row.get("covered", 0) == 0
    if "compute_hl" in flags:
        hls = np.array([row["hl"] for row in informative])
        assert res.summary["hl_mean"] == float(hls.mean())
        assert res.summary["hl_rmse"] == float(np.sqrt(np.mean(hls**2)))
