import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from majlat.errors import DegenerateBranch, RankDeficit
from majlat.lattice import join, meet, meet_many
from majlat.ladder import p_max, ratio_ladder
from majlat.protocols import (
    ConversionPlan,
    KrausDiagonals,
    PlanStep,
    StepKind,
    apply_two_outcome,
    kraus_diagonals,
    multi_source_to_dict,
    multi_target_to_dict,
    plan_from_dict,
    plan_greedy,
    plan_multi_source,
    plan_multi_target,
    plan_thrifty,
    plan_to_dict,
    plan_to_dot,
    plan_vidal,
    step_monotone_slack,
    validate_plan,
)
from majlat.sampling import random_incomparable_pairs, random_prob_vecs
from majlat.schmidt import (
    MajOrder,
    canonicalize,
    compare,
    effective_rank,
    majorizes_margin,
)

from conftest import prob_vec_pairs, rngs

APPROX = dict(abs=1e-9)
SQRT5_OVER_3 = math.sqrt(5.0) / 3.0


class TestKrausDiagonals:
    def test_worked_pair(self, worked_pair):
        kraus = kraus_diagonals(ratio_ladder(*worked_pair))
        assert kraus.m_diag == pytest.approx((2 / 3, 2 / 3, 1.0), **APPROX)
        assert kraus.n_diag == pytest.approx(
            (SQRT5_OVER_3, SQRT5_OVER_3, 0.0), **APPROX
        )
        assert kraus.n_diag[-1] == 0.0  # exact zero on the first ladder block

    def test_trivial_ladder(self, worked_pair):
        p, _ = worked_pair
        kraus = kraus_diagonals(ratio_ladder(p, p))
        assert kraus.m_diag == (1.0, 1.0, 1.0)
        assert kraus.n_diag == (0.0, 0.0, 0.0)

    @given(prob_vec_pairs())
    def test_completeness_and_monotonicity(self, pair):
        kraus = kraus_diagonals(ratio_ladder(*pair))
        m = np.asarray(kraus.m_diag)
        n = np.asarray(kraus.n_diag)
        assert np.max(np.abs(m**2 + n**2 - 1.0)) <= 1e-12
        assert np.all(np.diff(m) >= -1e-15)  # non-decreasing


class TestApplyTwoOutcome:
    def test_success_branch_hits_target(self, worked_pair):
        p, q = worked_pair
        kraus = kraus_diagonals(ratio_ladder(p, q))
        chi = canonicalize([0.675, 0.225, 0.1])
        result = apply_two_outcome(chi, kraus)
        assert result.success_prob == pytest.approx(0.5, **APPROX)
        assert result.success_state.entries == pytest.approx((0.6, 0.2, 0.2), **APPROX)
        assert result.failure_state.entries == pytest.approx((0.75, 0.25, 0.0), **APPROX)

    def test_thrifty_branches(self, worked_pair):
        p, q = worked_pair
        kraus = kraus_diagonals(ratio_ladder(p, q))
        zeta = canonicalize([0.5625, 0.3375, 0.1])
        result = apply_two_outcome(zeta, kraus)
        assert result.success_prob == pytest.approx(0.5, **APPROX)
        assert result.success_state.entries == pytest.approx((0.5, 0.3, 0.2), **APPROX)
        assert result.failure_state.entries == pytest.approx((0.625, 0.375, 0.0), **APPROX)

    def test_identity_kraus(self, worked_pair):
        p, _ = worked_pair
        kraus = kraus_diagonals(ratio_ladder(p, p))
        result = apply_two_outcome(p, kraus)
        assert result.success_prob == pytest.approx(1.0, abs=1e-15)
        assert result.success_state == p
        assert result.failure_state is None
        with pytest.raises(DegenerateBranch):
            result.require_failure()


class TestPlanVidal:
    def test_worked_pair(self, worked_pair):
        plan = plan_vidal(*worked_pair)
        validate_plan(plan)
        assert plan.success_prob == pytest.approx(0.5, **APPROX)
        assert plan.residual.entries == pytest.approx((0.75, 0.25, 0.0), **APPROX)
        assert [s.kind for s in plan.steps] == [
            StepKind.DETERMINISTIC,
            StepKind.PROBABILISTIC,
        ]
        assert plan.steps[0].to_state.entries == pytest.approx(
            (0.675, 0.225, 0.1), **APPROX
        )

    def test_comparable_is_single_deterministic_step(self, worked_pair):
        p, _ = worked_pair
        target = canonicalize([0.7, 0.2, 0.1])
        plan = plan_vidal(p, target)
        validate_plan(plan)
        assert plan.success_prob == 1.0
        assert len(plan.steps) == 1
        assert plan.steps[0].kind is StepKind.DETERMINISTIC
        assert plan.residual is None

    def test_identity_is_trivial(self, worked_pair):
        p, _ = worked_pair
        plan = plan_vidal(p, p)
        assert plan.success_prob == 1.0
        assert len(plan.steps) == 1

    def test_rank_deficit(self):
        with pytest.raises(RankDeficit):
            plan_vidal(canonicalize([1.0, 0.0]), canonicalize([0.5, 0.5]))


class TestPlanGreedy:
    def test_worked_pair_passes_through_common_product(self, worked_pair):
        plan = plan_greedy(*worked_pair)
        validate_plan(plan)
        assert plan.protocol == "greedy"
        assert plan.steps[0].to_name == "common_product"
        assert plan.steps[0].to_state.entries == pytest.approx((0.6, 0.3, 0.1), **APPROX)
        assert plan.steps[1].to_state.entries == pytest.approx(
            (0.675, 0.225, 0.1), **APPROX
        )
        assert plan.success_prob == pytest.approx(0.5, **APPROX)
        assert plan.residual.entries == pytest.approx((0.75, 0.25, 0.0), **APPROX)

    def test_comparable_delegates_to_vidal(self, worked_pair):
        p, _ = worked_pair
        plan = plan_greedy(p, canonicalize([0.7, 0.2, 0.1]))
        assert plan.protocol == "vidal"

    @given(st.integers(3, 6), rngs())
    def test_join_majorizes_source(self, dim, rng):
        p, q = random_incomparable_pairs(dim, 1, rng)[0]
        plan = plan_greedy(p, q)
        assert compare(plan.steps[0].from_state, plan.steps[0].to_state) is MajOrder.PRECEDES


class TestPlanThrifty:
    def test_worked_pair(self, worked_pair):
        plan = plan_thrifty(*worked_pair)
        validate_plan(plan)
        assert plan.protocol == "thrifty"
        assert plan.steps[0].to_state.entries == pytest.approx(
            (0.5625, 0.3375, 0.1), **APPROX
        )
        assert plan.steps[1].to_state.entries == pytest.approx((0.5, 0.3, 0.2), **APPROX)
        assert plan.success_prob == pytest.approx(0.5, **APPROX)
        assert plan.residual.entries == pytest.approx((0.625, 0.375, 0.0), **APPROX)

    def test_comparable_delegates_to_vidal(self, worked_pair):
        p, _ = worked_pair
        assert plan_thrifty(p, p).protocol == "vidal"

    def test_residual_majorized_by_greedy_residual(self, worked_pair):
        p, q = worked_pair
        nu = plan_thrifty(p, q).residual
        xi = plan_greedy(p, q).residual
        assert compare(nu, xi) is MajOrder.PRECEDES


class TestMultiTarget:
    def test_singleton_reduces_to_thrifty_first_phase(self, worked_pair):
        p, q = worked_pair
        plan = plan_multi_target(p, [q])
        assert plan.success_prob == pytest.approx(p_max(p, q), abs=1e-12)
        assert len(plan.tails) == 1
        assert plan.core.steps[-1].to_state.entries == pytest.approx(
            meet(p, q).entries, **APPROX
        )

    def test_worked_ensemble(self, worked_pair):
        p, q = worked_pair
        plan = plan_multi_target(p, [q, canonicalize([0.7, 0.2, 0.1])])
        validate_plan(plan.core)
        assert plan.success_prob == pytest.approx(0.5, **APPROX)
        for tail in plan.tails:
            assert tail.kind is StepKind.DETERMINISTIC
            assert compare(tail.from_state, tail.to_state) in (
                MajOrder.PRECEDES,
                MajOrder.EQUIVALENT,
            )

    def test_rank_deficit_names_target(self):
        source = canonicalize([0.6, 0.4, 0.0])
        bad = canonicalize([0.5, 0.3, 0.2])
        with pytest.raises(RankDeficit, match="target #1"):
            plan_multi_target(source, [canonicalize([0.7, 0.3, 0.0]), bad])

    @given(st.integers(3, 6), st.integers(2, 4), rngs())
    def test_probability_is_worst_case(self, dim, m, rng):
        source, *targets = random_prob_vecs(dim, 1 + m, rng)
        plan = plan_multi_target(source, targets)
        expected = min(p_max(source, t) for t in targets)
        assert plan.success_prob == pytest.approx(expected, abs=1e-12)
        assert p_max(source, meet_many([source, *targets])) == pytest.approx(
            expected, abs=1e-12
        )


class TestMultiSource:
    def test_singleton(self, worked_pair):
        p, q = worked_pair
        plan = plan_multi_source([p], q)
        assert plan.success_prob == pytest.approx(p_max(p, q), abs=1e-12)
        assert len(plan.heads) == 1
        assert plan.heads[0].to_state.entries == pytest.approx(
            join(p, q).entries, **APPROX
        )

    def test_rank_deficit_names_source(self):
        target = canonicalize([0.5, 0.3, 0.2])
        with pytest.raises(RankDeficit, match="source #0"):
            plan_multi_source([canonicalize([0.6, 0.4, 0.0])], target)

    @given(st.integers(3, 6), st.integers(2, 4), rngs())
    def test_probability_is_worst_case(self, dim, m, rng):
        *sources, target = random_prob_vecs(dim, m + 1, rng)
        plan = plan_multi_source(sources, target)
        expected = min(p_max(s, target) for s in sources)
        assert plan.success_prob == pytest.approx(expected, abs=1e-12)
        for head in plan.heads:
            assert compare(head.from_state, head.to_state) in (
                MajOrder.PRECEDES,
                MajOrder.EQUIVALENT,
            )


# --- cross-protocol properties ---------------------------------------------


@given(st.integers(3, 8), rngs())
def test_protocols_agree_on_success_probability(dim, rng):
    p, q = random_incomparable_pairs(dim, 1, rng)[0]
    pv = plan_vidal(p, q)
    pg = plan_greedy(p, q)
    pt = plan_thrifty(p, q)
    assert pg.success_prob == pytest.approx(pv.success_prob, abs=1e-12)
    assert pt.success_prob == pytest.approx(pv.success_prob, abs=1e-12)
    # greedy shares Vidal's intermediate state and residual
    assert pg.steps[1].to_state.entries == pytest.approx(
        pv.steps[0].to_state.entries, abs=1e-12
    )
    assert pg.residual.entries == pytest.approx(pv.residual.entries, abs=1e-12)


@given(st.integers(3, 8), rngs())
def test_thrifty_keeps_more_entanglement_on_failure(dim, rng):
    p, q = random_incomparable_pairs(dim, 1, rng)[0]
    greedy = plan_greedy(p, q)
    thrifty = plan_thrifty(p, q)
    assert majorizes_margin(thrifty.residual, greedy.residual) >= -1e-9
    zeta = thrifty.steps[0].to_state
    chi = greedy.steps[1].to_state
    assert majorizes_margin(zeta, chi) >= -1e-9


@given(st.integers(3, 8), rngs())
def test_residual_rank_drop(dim, rng):
    p, q = random_incomparable_pairs(dim, 1, rng)[0]
    greedy = plan_greedy(p, q)
    thrifty = plan_thrifty(p, q)
    assert effective_rank(greedy.residual) < effective_rank(q)
    assert effective_rank(thrifty.residual) < effective_rank(meet(p, q))


@given(st.integers(3, 6), rngs())
def test_every_step_is_monotone_sound(dim, rng):
    p, q = random_incomparable_pairs(dim, 1, rng)[0]
    for plan in (plan_vidal(p, q), plan_greedy(p, q), plan_thrifty(p, q)):
        validate_plan(plan)
        for step in plan.steps:
            assert step_monotone_slack(step) >= -1e-9


# --- serialization ----------------------------------------------------------


def test_plan_json_round_trip(worked_pair):
    plan = plan_thrifty(*worked_pair)
    doc = plan_to_dict(plan)
    restored = plan_from_dict(json.loads(json.dumps(doc)))
    validate_plan(restored)
    assert plan_to_dict(restored) == doc
    assert restored.success_prob == plan.success_prob
    assert restored.residual == plan.residual


def test_multi_plan_dicts(worked_pair):
    p, q = worked_pair
    mt = multi_target_to_dict(plan_multi_target(p, [q]))
    assert mt["protocol"] == "multi-target"
    assert len(mt["tails"]) == 1
    ms = multi_source_to_dict(plan_multi_source([p], q))
    assert ms["protocol"] == "multi-source"
    assert len(ms["heads"]) == 1


def test_dot_output_styles(worked_pair):
    dot = plan_to_dot(plan_thrifty(*worked_pair))
    assert dot.startswith("digraph")
    assert "style=bold" in dot
    assert "style=dashed" in dot
    assert '"residual"' in dot


def test_validate_plan_rejects_bad_deterministic_step(worked_pair):
    p, q = worked_pair
    plan = plan_vidal(p, canonicalize([0.7, 0.2, 0.1]))
    broken = plan_from_dict(
        {
            **plan_to_dict(plan),
            "steps": [
                {
                    "kind": "deterministic",
                    "from": {"name": "source", "state": [0.7, 0.2, 0.1]},
                    "to": {"name": "target", "state": [0.5, 0.4, 0.1]},
                }
            ],
        }
    )
    with pytest.raises(ValueError):
        validate_plan(broken)


def test_validate_plan_rejects_negative_entries():
    # both states sum to 1, are sorted, and the step climbs the order
    doc = {"protocol": "vidal", "success_prob": 1.0, "steps": [{
        "kind": "deterministic",
        "from": {"name": "source", "state": [0.6, 0.6, -0.2]},
        "to": {"name": "target", "state": [1.1, 0.1, -0.2]},
    }]}
    with pytest.raises(ValueError, match="non-canonical"):
        validate_plan(plan_from_dict(doc))


def test_validate_plan_rejects_an_empty_plan(worked_pair):
    plan = dataclasses.replace(plan_thrifty(*worked_pair), steps=())
    with pytest.raises(ValueError, match="no steps"):
        validate_plan(plan)


def test_validate_plan_rejects_steps_that_do_not_chain(worked_pair):
    plan = plan_thrifty(*worked_pair)
    validate_plan(plan)
    reordered = dataclasses.replace(plan, steps=plan.steps[-1:] + plan.steps[:-1])
    with pytest.raises(ValueError, match="does not lead to"):
        validate_plan(reordered)


def _claim_probability_09(doc):
    doc["success_prob"] = doc["steps"][1]["success_prob"] = 0.9  # the Kraus operators give 0.5


def _claim_pure_failure_state(doc):
    doc["steps"][1]["failure"]["state"] = [1.0, 0.0, 0.0]


def _nan_kraus_entry(doc):
    doc["steps"][1]["kraus"]["m_diag"][0] = math.nan


@pytest.mark.parametrize("tamper", [_claim_probability_09, _claim_pure_failure_state, _nan_kraus_entry])
def test_validate_plan_reapplies_the_measurement(worked_pair, tamper):
    doc = plan_to_dict(plan_thrifty(*worked_pair))
    validate_plan(plan_from_dict(doc))
    tamper(doc)
    with pytest.raises(ValueError):
        validate_plan(plan_from_dict(doc))


def test_validate_plan_rejects_a_failure_state_of_a_branch_that_never_happens(worked_pair):
    _, q = worked_pair
    step = PlanStep(StepKind.PROBABILISTIC, "q", q, "q", q,
                    kraus=KrausDiagonals((1.0,) * 3, (0.0,) * 3), success_prob=1.0,
                    failure_name="residual", failure_state=canonicalize([0.5, 0.5, 0.0]))
    plan = ConversionPlan("vidal", (step,), 1.0)
    validate_plan(dataclasses.replace(plan, steps=(dataclasses.replace(step, failure_state=None),)))
    with pytest.raises(ValueError, match="probability ~0"):
        validate_plan(plan)


@pytest.mark.parametrize("doc", [[1, 2], "plan", 3, None])
def test_plan_from_dict_rejects_a_document_that_is_not_an_object(doc):
    with pytest.raises(ValueError, match="JSON object"):
        plan_from_dict(doc)


def test_planners_share_one_analysis_per_pair(monkeypatch):
    """vidal + greedy + thrifty on one incomparable pair: at most 4 rank checks and 4 compares."""
    import majlat.ladder
    import majlat.protocols

    p, q = random_incomparable_pairs(5, 1, np.random.default_rng(4))[0]
    calls = {"rank": 0, "compare": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (majlat.ladder, majlat.protocols):
        monkeypatch.setattr(module, "_check_ranks", counted("rank", module._check_ranks))
    monkeypatch.setattr(majlat.protocols, "compare", counted("compare", compare))
    plan_vidal(p, q)
    plan_greedy(p, q)
    plan_thrifty(p, q)
    assert calls["rank"] <= 4
    assert calls["compare"] <= 4
