import copy
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from didsens import binary, simulate
from didsens.binary import eligibility_report, eligible_quadruples, mcnemar_sensitivity_pvalue
from didsens.errors import StructuralError
from didsens.inference import SIDES
from didsens.sensitivity import TESTS, outcome_takes_test
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
    # 0/1 outcomes; each row's slot order differs from the members' order
    outcomes = np.array([[[1.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 1.0]]])
    quads = quadruples_from_records((z, outcomes), outcome_kind="binary")
    assert quads.ids.tolist() == [
        ["q00000-p1-a", "q00000-p1-b", "q00000-p2-b", "q00000-p2-a"],
        ["q00001-p1-b", "q00001-p1-a", "q00001-p2-a", "q00001-p2-b"],
    ]
    assert quads.outcomes.tolist() == [[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 1.0, 1.0]]
    assert quads.d_values().tolist() == [(0.0 - 1.0) - (1.0 - 0.0), (1.0 - 1.0) - (1.0 - 0.0)]
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
    assert binary.mcnemar_sensitivity_pvalue(els).statistic > 0.6 * len(els)


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


@pytest.mark.parametrize("budget", [None, 20])
def test_each_mcnemar_replication_filters_eligibility_once(monkeypatch, budget):
    calls = []

    def counted(quads):
        calls.append(len(quads))
        return eligibility_report(quads)

    monkeypatch.setattr(binary, "eligibility_report", counted)
    design = BinaryDesign(n_quadruples=400, mu_sd=0.0, alpha_sd=0.0, beta_sd=0.0)
    plan = AnalysisPlan(test="mcnemar", mcnemar_budget=budget, compute_changepoint=True)
    level_power_study(design, plan, reps=3, seed=8)
    assert calls == [400, 400, 400]


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


@pytest.mark.parametrize("pair", [(1, 1), (0, 0), (2, -1), (np.nan, 1), (1, np.nan), (np.inf, -np.inf), (1e200, 1e200)])
def test_treatment_flags_other_than_one_treated_and_one_control_are_rejected(pair):
    z, outcomes = generate_continuous(ContinuousDesign(n_quadruples=4), seed=4)
    z = z.astype(np.float64)
    z[2, 1] = pair
    z[3, 0] = pair  # a later bad pair; the error names the first
    with pytest.raises(StructuralError, match="^quadruple 'q00002' period 2 is not a treated-control pair$"):
        quadruples_from_records((z, outcomes))


def test_simulated_ids_are_built_only_when_read(monkeypatch):
    def refuse(n):
        raise AssertionError("unit ids built")

    with monkeypatch.context() as patch:
        patch.setattr(simulate, "_unit_ids", refuse)
        plans = [
            (BinaryDesign(n_quadruples=200, tau_logit=1.0),
             AnalysisPlan(test="mcnemar", mcnemar_budget=30, compute_hl=True, estimate_gamma=1.2,
                          compute_changepoint=True)),
            (BinaryDesign(n_quadruples=200), AnalysisPlan(test="mcnemar")),
            (ContinuousDesign(n_quadruples=30, tau=1.0),
             AnalysisPlan(test="permutational_t", compute_hl=True, estimate_gamma=1.2, compute_changepoint=True)),
            (ContinuousDesign(n_quadruples=30), AnalysisPlan(test="sate")),
        ]
        for design, plan in plans:
            assert len(level_power_study(design, plan, reps=3, seed=2).rows) == 3
        quads = quadruples_from_records(generate_binary(BinaryDesign(n_quadruples=300), seed=5), "binary")
        eligible = eligible_quadruples(quads).subset(slice(5))
    z, _ = generate_binary(BinaryDesign(n_quadruples=300), seed=5)
    # each period's treated member, a or b, fills that period's treated slot
    expected = [
        [f"q{i:05d}-p{t + 1}-{m}" for t in (0, 1) for m in ("ab" if z[i, t, 0] == 1 else "ba")]
        for i in range(300)
    ]
    assert quads.ids.tolist() == expected
    assert not quads.ids.flags.writeable
    rows = np.flatnonzero(np.abs(quads.d_values()) == 2)[:5]
    assert eligible.ids.tolist() == [expected[i] for i in rows]


def test_simulated_sets_pickle_and_copy_with_their_ids():
    quads = quadruples_from_records(generate_binary(BinaryDesign(n_quadruples=30), seed=5), "binary")
    eligible = eligible_quadruples(quads)
    for source, twin in ((eligible, pickle.loads(pickle.dumps(eligible))), (quads, copy.deepcopy(quads))):
        assert twin.ids.tolist() == source.ids.tolist()
        assert np.array_equal(twin.outcomes, source.outcomes) and np.array_equal(twin.d, source.d)
        assert twin.outcome_kind == "binary"


@pytest.mark.parametrize("n", [4, 25])
def test_subset_of_a_simulated_set_with_a_repeated_row_names_the_unit(n):
    qs = quadruples_from_records(generate_continuous(ContinuousDesign(n_quadruples=n), seed=3))
    with pytest.raises(StructuralError, match=f"^unit 'q{n - 1:05d}-p1-a' appears in more than one slot$"):
        qs.subset([-1, n - 1])


def test_mcnemar_plans_analyse_the_eligible_set_with_or_without_a_budget():
    design = BinaryDesign(400, tau_logit=1.0, mu_sd=0, alpha_sd=0, beta_sd=0)
    rows = {
        budget: level_power_study(
            design, AnalysisPlan(test="mcnemar", compute_hl=True, estimate_gamma=1.0, mcnemar_budget=budget),
            reps=3, seed=1,
        ).rows
        for budget in (None, 10000)
    }
    assert rows[None] == rows[10000]
    # every eligible contrast is +/-2, so the estimates are too
    assert {row["hl"] for row in rows[None]} <= {-2.0, 0.0, 2.0}
    assert rows[None][0]["hl"] == 2.0


@pytest.mark.parametrize("test", TESTS)
@pytest.mark.parametrize("design", [BinaryDesign(50), ContinuousDesign(50)], ids=["binary", "continuous"])
def test_level_power_study_keeps_the_outcome_test_rule(design, test):
    kind = "binary" if isinstance(design, BinaryDesign) else "continuous"
    plan = AnalysisPlan(test=test)
    assert outcome_takes_test(kind, test) == ((kind == "binary") == (test == "mcnemar"))
    if outcome_takes_test(kind, test):
        assert len(level_power_study(design, plan, reps=2).rows) == 2
    else:
        with pytest.raises(ValueError, match=f"a {kind} design does not take test {test}: binary outcomes take mcnemar"):
            level_power_study(design, plan, reps=2)


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


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    budget=st.sampled_from([None, 1, 2]),
    gamma=st.sampled_from([1.0, 1.3]),
    sided=st.sampled_from(SIDES),
)
def test_a_simulated_mcnemar_batch_equals_its_replications_one_at_a_time(seed, budget, gamma, sided):
    # rare events: some replications have no informative quadruple, others more than the budget
    design = BinaryDesign(n_quadruples=10, mu_mean=-1.5)
    plan = AnalysisPlan(test="mcnemar", gamma=gamma, sided=sided, mcnemar_budget=budget)
    rows = level_power_study(design, plan, reps=8, seed=seed).rows
    for row, child in zip(rows, np.random.SeedSequence(seed).spawn(8), strict=True):
        units = generate_binary(design, np.random.default_rng(child))
        quads = eligible_quadruples(quadruples_from_records(units, "binary")).subset(slice(budget))
        res = mcnemar_sensitivity_pvalue(quads, gamma, "upper", sided) if quads else None
        want = (res.statistic, res.p_value, res.n_effective) if res else (math.nan, 1.0, 0)
        assert repr((row["statistic"], row["p_value"], row["n_effective"])) == repr(want)


@pytest.mark.parametrize(
    "design, plan",
    [
        (ContinuousDesign(30), AnalysisPlan(test="signed_rank", gamma=1.3, sided="two_sided", compute_hl=True)),
        (BinaryDesign(10, mu_mean=-1.5), AnalysisPlan(test="mcnemar", mcnemar_budget=2, estimate_gamma=1.1)),
        (ContinuousDesign(30), AnalysisPlan(test="sate", compute_changepoint=True)),
        (ContinuousDesign(25, tau=0.3, tau_heterogeneity_sd=0.5, residual="lognormal", residual_scale=0.8,
                          lambda1=0.6, lambda2=-0.9, delta1=0.4, delta2=1.1, u_dist="uniform"),
         AnalysisPlan(test="permutational_t", compute_hl=True, estimate_gamma=1.2, compute_changepoint=True)),
        (BinaryDesign(40, tau_logit=0.7, lambda1=-0.5, lambda2=0.8, delta1=1.2, delta2=-0.6, u_dist="uniform"),
         AnalysisPlan(test="mcnemar", compute_hl=True, compute_changepoint=True)),
    ],
    ids=["signed_rank", "mcnemar", "sate", "continuous_all_fields", "binary_all_fields"],
)
def test_rows_do_not_depend_on_the_batch_size(monkeypatch, design, plan):
    whole = level_power_study(design, plan, reps=7, seed=4)
    monkeypatch.setattr(simulate, "BATCH_REPS", 3)
    for per_chunk in (1, 3):
        monkeypatch.setattr(simulate, "CHUNK_VALUES", 4 * design.n_quadruples * per_chunk)
        assert repr(level_power_study(design, plan, reps=7, seed=4)) == repr(whole)


@settings(max_examples=30, deadline=None)
@given(
    binary=st.booleans(),
    n=st.integers(1, 12),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    fields=st.fixed_dictionaries({
        "lambda1": st.sampled_from([0.0, 0.7]),
        "lambda2": st.sampled_from([0.0, -1.3]),
        "delta1": st.sampled_from([0.0, 0.9]),
        "delta2": st.sampled_from([0.0, 2.0]),
        "u_dist": st.sampled_from(simulate.U_DISTS),
    }),
    continuous=st.fixed_dictionaries({
        "residual": st.sampled_from(simulate.RESIDUALS),
        "tau_heterogeneity_sd": st.sampled_from([0.0, 0.4]),
    }),
)
def test_a_generated_chunk_equals_its_replications_one_seed_at_a_time(binary, n, k, seed, fields, continuous):
    if binary:
        design, generate, kind = BinaryDesign(n, tau_logit=0.5, mu_mean=-0.3, **fields), generate_binary, "binary"
    else:
        design, generate, kind = ContinuousDesign(n, tau=0.2, **fields, **continuous), generate_continuous, "continuous"
    seeds = np.random.SeedSequence(seed).spawn(k)
    chunk = generate(design, [np.random.default_rng(s) for s in seeds])
    alone = [generate(design, s) for s in seeds]
    for batched, one in zip(chunk, zip(*alone), strict=True):
        stacked = np.stack(one)
        assert batched.dtype == stacked.dtype and batched.shape == stacked.shape == (k, n, 2, 2)
        assert batched.tobytes() == stacked.tobytes()
    for quads, units in zip(quadruples_from_records(chunk, kind), alone, strict=True):
        own = quadruples_from_records(units, kind)
        assert quads.outcomes.tobytes() == own.outcomes.tobytes()
        assert quads.ids.tolist() == own.ids.tolist() and quads.outcome_kind == own.outcome_kind


def test_batched_records_name_the_set_of_a_bad_pair():
    z, outcomes = generate_continuous(ContinuousDesign(n_quadruples=4), seed=[1, 2, 3])
    z[1, 2, 1] = (1, 1)
    z[2, 0, 0] = (0, 0)  # a later bad set; the error names the first
    with pytest.raises(StructuralError, match="^set 1 quadruple 'q00002' period 2 is not a treated-control pair$"):
        quadruples_from_records((z, outcomes))
    with pytest.raises(StructuralError, match="expected \\(n, 2, 2\\) or \\(B, n, 2, 2\\)"):
        quadruples_from_records((z[None], outcomes[None]))


def test_a_simulation_batch_takes_little_more_memory_than_one_replication():
    # Chunks bound the generator's arrays: a whole 32-replication batch of n = 1,200 generated at once
    # peaks near 28 times the one-replication peak under tracemalloc, a chunk cap of three replications
    # near 4 times, one replication per chunk near 2 times.
    design, plan = BinaryDesign(n_quadruples=1200), AnalysisPlan(test="mcnemar", mcnemar_budget=100)
    level_power_study(design, plan, reps=1)  # lazy imports and caches

    def peak(reps):
        tracemalloc.start()
        try:
            level_power_study(design, plan, reps=reps, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(simulate.BATCH_REPS) <= 3 * peak(1)
