import copy
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from majlat.config import get_epsilon
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
    multi_plan_to_dict,
    plan_from_dict,
    plan_greedy,
    plan_multi_source,
    plan_multi_target,
    plan_thrifty,
    plan_to_dict,
    plan_to_dot,
    plan_vidal,
    step_monotone_slacks,
    step_outcomes,
    validate_plan,
    _numbers,
)
from majlat.sampling import random_incomparable_pairs, random_prob_vecs
from majlat.schmidt import (
    MajOrder,
    ProbVec,
    canonicalize,
    compare,
    effective_rank,
    majorizes_margin,
    pad_pair,
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
        assert kraus.m_diag.tolist() == [1.0, 1.0, 1.0]
        assert kraus.n_diag.tolist() == [0.0, 0.0, 0.0]

    @given(prob_vec_pairs())
    def test_completeness_and_monotonicity(self, pair):
        kraus = kraus_diagonals(ratio_ladder(*pair))
        m = np.asarray(kraus.m_diag)
        n = np.asarray(kraus.n_diag)
        assert np.max(np.abs(m**2 + n**2 - 1.0)) <= 1e-12
        assert np.all(np.diff(m) >= -1e-15)  # non-decreasing

    def test_diagonals_are_copied_read_only_arrays(self):
        m, n = np.array([1.0, 0.6]), np.array([0.0, 0.8])
        kraus = KrausDiagonals(m, n)
        m[0], n[0] = 0.5, 0.5
        assert kraus.m_diag.tolist() == [1.0, 0.6] and kraus.n_diag.tolist() == [0.0, 0.8]
        for diag in (kraus.m_diag, kraus.n_diag):
            assert diag.dtype == np.float64 and not diag.flags.writeable
            with pytest.raises(ValueError):
                diag[0] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            kraus.m_diag = m

    def test_equality_and_hash_follow_the_entries(self):
        a = KrausDiagonals((1.0, 0.6), (0.0, 0.8))
        b = KrausDiagonals(np.array([1.0, 0.6]), [0.0, 0.8])
        assert a == b and hash(a) == hash(b)
        assert a != KrausDiagonals((1.0, 0.8), (0.0, 0.6))
        assert a != KrausDiagonals((1.0, 0.6, 1.0), (0.0, 0.8, 0.0))
        assert a != ((1.0, 0.6), (0.0, 0.8))

    def test_pickle_round_trip(self, worked_pair):
        kraus = kraus_diagonals(ratio_ladder(*worked_pair))
        back = pickle.loads(pickle.dumps(kraus))
        assert back == kraus and hash(back) == hash(kraus)
        assert not back.m_diag.flags.writeable and not back.n_diag.flags.writeable


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
        assert plan.success_prob == plan.core.success_prob
        assert plan.heads == () and len(plan.tails) == m
        assert plan.steps == plan.core.steps + plan.tails
        paths = plan.paths()
        assert [path.steps for path in paths] == [plan.core.steps + (t,) for t in plan.tails]
        for path in paths:
            validate_plan(path)


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
        assert plan.success_prob == plan.core.success_prob
        assert plan.tails == () and len(plan.heads) == m
        assert plan.steps == plan.heads + plan.core.steps
        paths = plan.paths()
        assert [path.steps for path in paths] == [(h,) + plan.core.steps for h in plan.heads]
        for path in paths:
            validate_plan(path)
        for head in plan.heads:
            assert compare(head.from_state, head.to_state) in (
                MajOrder.PRECEDES,
                MajOrder.EQUIVALENT,
            )


@pytest.mark.parametrize("build, field, name", [
    (lambda vs: plan_multi_target(vs[0], vs[1:]), "tails", "common_resource->target_0"),
    (lambda vs: plan_multi_source(vs[:-1], vs[-1]), "heads", "source_0->common_product"),
])
def test_multi_state_path_with_unreachable_end_fails_validation(worked_pair, build, field, name):
    plan = build([*worked_pair, canonicalize([0.7, 0.2, 0.1])])
    for path in plan.paths():
        validate_plan(path)
    first, *rest = getattr(plan, field)
    # a tail cannot end in, and a head cannot start from, a state that breaks majorization
    end = "to_state" if field == "tails" else "from_state"
    bad = canonicalize([0.34, 0.33, 0.33] if field == "tails" else [1.0, 0.0, 0.0])
    tampered = dataclasses.replace(plan, **{field: (dataclasses.replace(first, **{end: bad}), *rest)})
    with pytest.raises(ValueError, match=f"deterministic step {name} is not allowed"):
        validate_plan(tampered.paths()[0])


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
        assert min(step_monotone_slacks(plan.steps)) >= -1e-9


def _step_slack_reference(step) -> float:
    """One step's monotone slack, computed on its own."""
    d = max([step.from_state.dim] + [out.dim for _, out in step_outcomes(step)])

    def suffix(state):
        return np.cumsum(state.padded(d).as_array()[::-1])[::-1]

    e_avg = sum(prob * suffix(out) for prob, out in step_outcomes(step))
    return float((suffix(step.from_state) - e_avg).min())


def test_step_slacks_of_mixed_steps_equal_one_step_at_a_time():
    rng = np.random.default_rng(61)
    steps = []
    for d in (3, 5, 8, 64):
        for p, q in random_incomparable_pairs(d, 4, rng):
            for plan in (plan_vidal(p, q), plan_greedy(p, q), plan_thrifty(p, q)):
                steps += plan.steps
    # a state shorter than the step's other states, and a measurement without a failure branch
    short = dataclasses.replace(steps[0], to_state=ProbVec(steps[0].to_state.as_array()[:-1]))
    measured = next(s for s in steps if s.failure_state is not None)
    steps += [short, dataclasses.replace(measured, failure_state=None)]
    rng.shuffle(steps)
    assert step_monotone_slacks(steps) == [_step_slack_reference(s) for s in steps]


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
    mt = multi_plan_to_dict(plan_multi_target(p, [q]))
    assert mt["protocol"] == "multi-target"
    assert len(mt["tails"]) == 1
    ms = multi_plan_to_dict(plan_multi_source([p], q))
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
            "ladder": None,  # the plan's ladder, from p, is not one of these steps'
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
    plan = ConversionPlan("vidal", (step,))
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


# --- validate_plan against the per-step reference ---------------------------


def _reference_apply_two_outcome(state, kraus):
    lam = state.as_array()
    if lam.size != kraus.dim:
        raise ValueError(f"state dimension {lam.size} != Kraus dimension {kraus.dim}")
    m_sq = np.asarray(kraus.m_diag) ** 2
    p = float(m_sq @ lam)

    def branch(op_sq, prob):
        if prob <= get_epsilon():
            return None
        return ProbVec(tuple(np.sort(op_sq * lam / prob)[::-1].tolist()))

    return p, branch(m_sq, p), branch(np.asarray(kraus.n_diag) ** 2, 1.0 - p)


def _reference_deviation(p, q):
    return float(np.max(np.abs(np.subtract(*pad_pair(p, q)))))


def reference_validate_plan(plan):
    """validate_plan as it was before the stacked-array rewrite: one state and one
    step at a time through compare, apply_two_outcome and pad_pair."""
    eps = get_epsilon()
    if not plan.steps:
        raise ValueError("plan has no steps")
    for step, after in zip(plan.steps, plan.steps[1:]):
        if not _reference_deviation(step.to_state, after.from_state) <= eps:
            raise ValueError(f"step to {step.to_name} does not lead to step from {after.from_name}")
    for step in plan.steps:
        name = f"{step.from_name}->{step.to_name}"
        for state in (step.from_state, step.to_state):
            arr = state.as_array()
            if not (abs(arr.sum() - 1.0) <= eps and np.diff(arr).max(initial=0.0) <= eps
                    and arr.min() >= -eps):
                raise ValueError(f"non-canonical state in step {name}")
        if step.kind is StepKind.DETERMINISTIC:
            if compare(step.from_state, step.to_state) not in (MajOrder.PRECEDES, MajOrder.EQUIVALENT):
                raise ValueError(f"deterministic step {name} is not allowed")
            continue
        if step.kraus is None or step.success_prob is None:
            raise ValueError("probabilistic step lacks Kraus data or probability")
        if not (0.0 < step.success_prob <= 1.0):
            raise ValueError(f"success probability {step.success_prob} outside (0, 1]")
        m_sq, n_sq = np.square(step.kraus.m_diag), np.square(step.kraus.n_diag)
        if not np.max(np.abs(m_sq + n_sq - 1.0)) <= eps:
            raise ValueError("Kraus diagonals violate completeness")
        p, success, failure = _reference_apply_two_outcome(step.from_state, step.kraus)
        if not abs(p - step.success_prob) <= eps:
            raise ValueError(f"step {name} claims success probability {step.success_prob}, "
                             f"its Kraus operators give {p}")
        for branch, claimed, derived in (("success", step.to_state, success),
                                         ("failure", step.failure_state, failure)):
            if claimed is not None and (derived is None or not _reference_deviation(claimed, derived) <= eps):
                given = "a branch of probability ~0" if derived is None else derived
                raise ValueError(f"step {name} claims the {branch} state {claimed}, "
                                 f"its Kraus operators give {given}")


def _outcome(validate, plan):
    """None for an accepted plan, else the exception's type and message."""
    try:
        validate(plan)
    except Exception as exc:  # the type is part of the outcome being compared
        return type(exc), str(exc)
    return None


def _reference_outcome(plan):
    with np.errstate(all="ignore"):  # the reference warns on infinite entries
        return _outcome(reference_validate_plan, plan)


def _prob_steps(doc):
    return [s for s in doc["steps"] if s["kind"] == "probabilistic"]


def _state_lists(doc):
    """Every state list of a plan document: from, to and failure states."""
    lists = []
    for step in doc["steps"]:
        lists += [step["from"]["state"], step["to"]["state"]]
        if "failure" in step:
            lists.append(step["failure"]["state"])
    return lists


def _pick(rng, seq):
    return seq[rng.integers(len(seq))]


def _tamper_entry(value):
    """Set one entry, or the same entry of two states (inf - inf is NaN), to ``value``."""
    def tamper(doc, rng):
        states = _state_lists(doc)
        index = rng.integers(8)
        for i in rng.choice(len(states), size=min(len(states), rng.integers(1, 3)), replace=False):
            states[i][min(index, len(states[i]) - 1)] = value
    return tamper


def _tamper_negative(doc, rng):
    state = _pick(rng, _state_lists(doc))
    neg = _pick(rng, [-0.5, -2.0, -1e6]) * get_epsilon()
    state[0] += state[-1] - neg  # keeps the sum
    state[-1] = neg


def _tamper_sum(doc, rng):
    state = _pick(rng, _state_lists(doc))
    state[rng.integers(len(state))] += _pick(rng, [0.5, -0.5, 2.0, -2.0]) * get_epsilon()


def _tamper_order_of_steps(doc, rng):
    doc["steps"] = [doc["steps"][i] for i in rng.permutation(len(doc["steps"]))]


def _tamper_probability(doc, rng):
    delta = _pick(rng, [0.5, -0.5, 2.0, -2.0, 1e6]) * get_epsilon()
    holders = _prob_steps(doc) + [doc]
    _pick(rng, holders)["success_prob"] += delta


def _tamper_branch_state(doc, rng):
    prob = _prob_steps(doc)
    if not prob:
        return
    step = _pick(rng, prob)
    state = step["to"]["state"] if "failure" not in step or rng.random() < 0.5 else step["failure"]["state"]
    delta = _pick(rng, [0.5, 2.0, 1e6]) * get_epsilon()
    state[0] += delta
    state[-1] -= delta


def _tamper_longer_failure(doc, rng):
    for step in _prob_steps(doc):
        step["failure"]["state"].append(_pick(rng, [0.0, 0.5 * get_epsilon(), 0.01]))


def _tamper_mixed_dimension(doc, rng):
    state = _pick(rng, _state_lists(doc))
    if rng.random() < 0.3 and len(state) > 1 and state[-1] <= get_epsilon():
        del state[-1]
    else:
        state.extend([0.0] * int(_pick(rng, [1, 3, 6, 60])))


def _tamper_kraus_lengths(doc, rng):
    prob = _prob_steps(doc)
    if not prob:
        return
    kraus = _pick(rng, prob)["kraus"]
    key = _pick(rng, ["m_diag", "n_diag"])
    kraus[key] = kraus[key][:1] if rng.random() < 0.5 else kraus[key][:-1]


def _tamper_kraus_dimension(doc, rng):
    prob = _prob_steps(doc)
    if not prob:
        return
    kraus = _pick(rng, prob)["kraus"]
    if rng.random() < 0.5 or len(kraus["m_diag"]) == 1:
        kraus["m_diag"].append(1.0)
        kraus["n_diag"].append(0.0)
    else:
        kraus["m_diag"].pop()
        kraus["n_diag"].pop()


TAMPERS = {
    "nan": _tamper_entry(math.nan),
    "+inf": _tamper_entry(math.inf),
    "-inf": _tamper_entry(-math.inf),
    "negative": _tamper_negative,
    "sum": _tamper_sum,
    "step-order": _tamper_order_of_steps,
    "probability": _tamper_probability,
    "branch-state": _tamper_branch_state,
    "longer-failure": _tamper_longer_failure,
    "mixed-dimension": _tamper_mixed_dimension,
    "kraus-lengths": _tamper_kraus_lengths,
    "kraus-dimension": _tamper_kraus_dimension,
}


def _consistent_summary(doc):
    """Make the document's summary agree with its tampered steps, so that plan_from_dict
    reads it and validate_plan meets the tampering: the success probability becomes the
    product of the step claims, and the residual and ladder claims are dropped (no
    residual claim lies within epsilon of a failure state with a NaN entry)."""
    doc["success_prob"] = math.prod((s["success_prob"] for s in _prob_steps(doc)), start=1.0)
    doc["residual"] = doc["ladder"] = None


def _seeded_plans(dim, rng):
    pairs = list(zip(*[iter(random_prob_vecs(dim, 8, rng))] * 2))
    if dim >= 3:
        pairs += random_incomparable_pairs(dim, 4, rng)
    return [planner(p, q) for p, q in pairs for planner in (plan_vidal, plan_greedy, plan_thrifty)]


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 8, 64])
def test_validate_plan_matches_the_reference(dim):
    rng = np.random.default_rng(700 + dim)
    outcomes = []
    for plan in _seeded_plans(dim, rng):
        doc = plan_to_dict(plan)
        cases = [("untampered", doc)]
        for label, tamper in TAMPERS.items():
            tampered = copy.deepcopy(doc)
            tamper(tampered, rng)
            _consistent_summary(tampered)
            cases.append((label, tampered))
        for label, case in cases:
            restored = plan_from_dict(case)
            expected = _reference_outcome(restored)
            assert _outcome(validate_plan, restored) == expected, (label, case)
            outcomes.append(expected)
    assert outcomes[0] is None
    assert 0 < sum(o is not None for o in outcomes) < len(outcomes)


def _deterministic_plan(*states):
    return plan_from_dict({"protocol": "vidal", "success_prob": 1.0, "steps": [
        {"kind": "deterministic", "from": {"name": f"s{i}", "state": a},
         "to": {"name": f"s{i + 1}", "state": b}}
        for i, (a, b) in enumerate(zip(states, states[1:]))]})


@pytest.mark.parametrize("wider", [False, True])
def test_a_step_margin_stops_at_its_own_dimension(wider):
    eps = get_epsilon()
    source = [0.6, 0.3, 0.1 + 0.9 * eps]  # sums to 1 + 0.9 eps
    if wider:  # a 3 -> 3 step in a plan five entries wide
        plan = _deterministic_plan(source, [0.6, 0.3, 0.1 - 0.9 * eps], [1.0, 0.0, 0.0, 0.0, 0.0])
    else:      # a 3 -> 5 step to a state summing to 1 - 0.9 eps
        plan = _deterministic_plan(source, [0.6, 0.3, 0.1 - 0.05 * eps, 0.0, -0.85 * eps])
    validate_plan(plan)  # the margin over all entries of the 3 -> n step is -1.8 eps
    assert _reference_outcome(plan) is None


def test_each_state_is_summed_at_its_own_length():
    """Zero padding changes numpy's pairwise sum, so the canonical check may not
    sum a state as part of a wider row: find a 5-entry state whose sum check
    flips when it is padded to 9 entries, and put it in a 9-wide plan."""
    eps = get_epsilon()
    rng = np.random.default_rng(0)
    straddling = []
    while not straddling:
        x = np.sort(rng.dirichlet(np.ones(5)))[::-1] * (1.0 + eps)
        nudged = [x[:-1].tolist() + [x[-1] + k * np.spacing(x[-1])] for k in range(-40, 41)]
        straddling = [s for s in nudged
                      if (abs(np.sum(s) - 1.0) <= eps) != (abs(np.sum(s + [0.0] * 4) - 1.0) <= eps)]
    plan = _deterministic_plan(straddling[0], [1.0] + [0.0] * 8)
    assert _outcome(validate_plan, plan) == _reference_outcome(plan)


def test_the_probability_message_carries_the_one_dimensional_dot(worked_pair):
    plan = plan_thrifty(*worked_pair)
    first, step, last = plan.steps
    wrong = dataclasses.replace(plan, steps=(first, dataclasses.replace(step, success_prob=0.9), last))
    derived = float(np.square(step.kraus.m_diag) @ step.from_state.as_array())
    with pytest.raises(ValueError, match="its Kraus operators give") as info:
        validate_plan(wrong)
    assert str(info.value).endswith(f"its Kraus operators give {derived!r}")
    assert (ValueError, str(info.value)) == _reference_outcome(wrong)


@pytest.mark.parametrize("residual", [[1.0, 0.0, 0.0], [0.3, 0.3], [0.625, 0.375, 0.5]])
def test_plan_from_dict_rejects_a_residual_that_is_not_the_failure_state(worked_pair, residual):
    doc = plan_to_dict(plan_thrifty(*worked_pair))
    doc["residual"] = None  # not claimed
    assert _reference_outcome(plan_from_dict(doc)) is None  # the per-step checks all pass
    doc["residual"] = residual
    with pytest.raises(ValueError, match="residual .* is not the failure state of step"):
        plan_from_dict(doc)


def test_plan_from_dict_rejects_a_residual_without_a_probabilistic_step(worked_pair):
    p, _ = worked_pair
    doc = plan_to_dict(plan_vidal(p, canonicalize([0.7, 0.2, 0.1])))
    validate_plan(plan_from_dict(doc))
    doc["residual"] = p.as_array().tolist()
    with pytest.raises(ValueError, match="residual but no probabilistic step"):
        plan_from_dict(doc)


def test_plan_from_dict_compares_the_residual_after_zero_padding(worked_pair):
    doc = plan_to_dict(plan_thrifty(*worked_pair))
    eps = get_epsilon()
    near = [x + 0.5 * eps for x in doc["residual"][:2]]
    doc["residual"] = near
    plan_from_dict(doc)
    doc["residual"] = near + [2 * eps]
    with pytest.raises(ValueError, match="not the failure state"):
        plan_from_dict(doc)


@pytest.mark.parametrize("delta", [2.0, -2.0, math.nan])
def test_plan_from_dict_rejects_a_success_prob_that_is_not_the_product(worked_pair, delta):
    doc = plan_to_dict(plan_thrifty(*worked_pair))
    doc["success_prob"] += 0.5 * get_epsilon()
    plan_from_dict(doc)
    doc["success_prob"] += delta * get_epsilon()
    with pytest.raises(ValueError, match="plan success probability != product"):
        plan_from_dict(doc)


LADDER_TAMPERS = {  # name -> (ladder field, its new value given the emitted ladder)
    "nan-ratio": ("ratios", lambda ladder: [math.nan] + ladder["ratios"][1:]),
    "ratio-off": ("ratios", lambda ladder: ladder["ratios"][:-1]
                  + [ladder["ratios"][-1] + 2 * get_epsilon()]),
    "extra-ratio": ("ratios", lambda ladder: ladder["ratios"] + ladder["ratios"][-1:]),
    "float-indices": ("indices", lambda ladder: [float(i) for i in ladder["indices"]]),
    "wrong-index": ("indices", lambda ladder: [ladder["indices"][0] + 1] + ladder["indices"][1:]),
    "string-l0": ("l0", lambda ladder: "x"),
    "l0-off": ("l0", lambda ladder: ladder["l0"] + 1),
    "unrelated-source": ("source", lambda ladder: [0.9, 0.05, 0.05]),
    "unrelated-target": ("target", lambda ladder: [0.4, 0.3, 0.3]),
    "rank-deficit": ("source", lambda ladder: [1.0, 0.0, 0.0]),
}


@pytest.mark.parametrize("tamper", LADDER_TAMPERS)
def test_plan_from_dict_checks_the_ladder(worked_pair, tamper):
    doc = plan_to_dict(plan_thrifty(*worked_pair))
    if tamper == "rank-deficit":  # the plan starts where the ladder does, a state of rank 1
        doc["steps"][0]["from"]["state"] = [1.0, 0.0, 0.0]
    field, value = LADDER_TAMPERS[tamper]
    doc["ladder"][field] = value(doc["ladder"])
    with pytest.raises(ValueError, match="malformed plan document: .*ladder"):
        plan_from_dict(doc)


def test_the_ladder_target_may_be_any_steps_to_state(worked_pair):
    """A thrifty plan whose core comes out deterministic has its ladder's target,
    the common resource, at step 0, and a deterministic step after it."""
    p, _ = worked_pair
    target = canonicalize([0.7, 0.2, 0.1])
    plan = ConversionPlan("thrifty", (
        PlanStep(StepKind.DETERMINISTIC, "source", p, "common_resource", p),
        PlanStep(StepKind.DETERMINISTIC, "common_resource", p, "target", target),
    ), ratio_ladder(p, p))
    validate_plan(plan)
    assert plan.steps[-1].to_state != plan.ladder.target
    assert plan_from_dict(plan_to_dict(plan)) == plan


def _emitted_plans(dim, rng):
    """Single plans of each protocol, and the cores of multi-state plans, on seeded spectra."""
    vecs = random_prob_vecs(dim, 6, rng)
    pairs = list(zip(vecs[0::2], vecs[1::2]))
    if dim >= 3:
        pairs += random_incomparable_pairs(dim, 2, rng)
    plans = [planner(p, q) for p, q in pairs for planner in (plan_vidal, plan_greedy, plan_thrifty)]
    smaller = random_prob_vecs(max(dim - 1, 1), 1, rng)[0]  # a mixed-dimension pair
    plans += [plan_vidal(vecs[0], smaller), plan_thrifty(vecs[0], smaller)]
    plans += [plan_multi_target(vecs[0], vecs[1:3]).core, plan_multi_source(vecs[:2], vecs[2]).core]
    return plans


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 8, 64, 512])
def test_emitted_plans_round_trip_through_the_checked_reader(dim):
    for plan in _emitted_plans(dim, np.random.default_rng(900 + dim)):
        doc = plan_to_dict(plan)
        restored = plan_from_dict(json.loads(json.dumps(doc)))
        assert restored == plan
        assert plan_to_dict(restored) == doc


@pytest.mark.parametrize("raw", [
    [True], [0.5, False], ["0.5"], [None], [[0.5]], [np.float64(0.5)], [np.bool_(True)],
    [0.5, 1], [1, 2, 3], [], [0.5, np.float64(0.3), 2], [math.nan], [{}], "0.5", None,
])
def test_a_number_array_is_checked_as_by_each_entry(raw):
    """The verdict on a JSON array is the one an entry-by-entry check gives."""
    by_entry = isinstance(raw, list) and all(
        isinstance(x, (int, float)) and type(x) is not bool for x in raw)
    if by_entry:
        assert _numbers(raw, "v") is raw
    else:
        with pytest.raises(ValueError, match="^v must be finite JSON numbers$"):
            _numbers(raw, "v")
