import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from majlat.ladder import ratio_ladder
from majlat.oracle import (
    BipartiteState,
    branch_probabilities,
    embed,
    measure,
    run_plan,
    schmidt_spectrum,
)
from majlat.protocols import apply_two_outcome, kraus_diagonals, plan_thrifty, plan_vidal
from majlat.sampling import random_incomparable_pair
from majlat.schmidt import canonicalize
from majlat.sweep import run_sweep

from conftest import prob_vecs, rngs

APPROX = dict(abs=1e-9)


class TestEmbed:
    def test_trivial(self):
        assert embed(canonicalize([1.0])).amplitudes == pytest.approx(np.array([[1.0]]))

    def test_bell_state(self):
        amps = embed(canonicalize([0.5, 0.5])).amplitudes
        assert amps == pytest.approx(np.diag([np.sqrt(0.5), np.sqrt(0.5)]))

    @given(prob_vecs())
    def test_round_trip(self, p):
        state = embed(p)
        assert state.norm() == pytest.approx(1.0, **APPROX)
        assert schmidt_spectrum(state).entries == pytest.approx(p.entries, **APPROX)


class TestSchmidtSpectrum:
    def test_product_state_is_rank_one(self):
        a = np.array([0.6, 0.8, 0.0])
        b = np.array([1.0, 0.0, 0.0])
        state = BipartiteState(np.outer(a, b))
        assert schmidt_spectrum(state).entries == pytest.approx((1.0, 0.0, 0.0), **APPROX)

    def test_success_branch_recovers_target(self, worked_pair):
        p, q = worked_pair
        kraus = kraus_diagonals(ratio_ladder(p, q))
        chi = embed(canonicalize([0.675, 0.225, 0.1]))
        post = np.diag(kraus.m_diag) @ chi.amplitudes
        post = post / np.linalg.norm(post)
        assert schmidt_spectrum(BipartiteState(post)).entries == pytest.approx(
            (0.6, 0.2, 0.2), **APPROX
        )

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            BipartiteState(np.ones((2, 3)))


class TestMeasure:
    def test_worked_pair_probabilities(self, worked_pair):
        p, q = worked_pair
        kraus = kraus_diagonals(ratio_ladder(p, q))
        state = embed(canonicalize([0.675, 0.225, 0.1]))
        result = measure(state, kraus, rng=0)
        assert result.probabilities[0] == pytest.approx(0.5, **APPROX)
        assert result.probabilities[1] == pytest.approx(0.5, **APPROX)

    def test_identity_kraus_always_succeeds(self, worked_pair):
        p, _ = worked_pair
        kraus = kraus_diagonals(ratio_ladder(p, p))
        result = measure(embed(p), kraus, rng=1)
        assert result.outcome == "success"
        assert result.probabilities[0] == pytest.approx(1.0, abs=1e-15)

    def test_failure_branch_spectrum(self, worked_pair):
        p, q = worked_pair
        kraus = kraus_diagonals(ratio_ladder(p, q))
        state = embed(canonicalize([0.675, 0.225, 0.1]))
        rng = np.random.default_rng(0)
        while True:  # sample until the failure branch comes up
            result = measure(state, kraus, rng)
            if result.outcome == "failure":
                break
        assert schmidt_spectrum(result.post).entries == pytest.approx(
            (0.75, 0.25, 0.0), **APPROX
        )

    def test_seeded_determinism(self, worked_pair):
        p, q = worked_pair
        kraus = kraus_diagonals(ratio_ladder(p, q))
        state = embed(canonicalize([0.675, 0.225, 0.1]))
        first = measure(state, kraus, rng=33)
        second = measure(state, kraus, rng=33)
        assert first.outcome == second.outcome
        assert first.post.amplitudes == pytest.approx(second.post.amplitudes)


@given(st.integers(3, 8), rngs())
def test_oracle_matches_analytic_measurement(dim, rng):
    source, target = random_incomparable_pair(dim, rng)
    ladder = ratio_ladder(source, target)
    kraus = kraus_diagonals(ladder)
    chi = plan_vidal(source, target).steps[0].to_state
    analytic = apply_two_outcome(chi, kraus)
    state = embed(chi)
    p_m, p_n = branch_probabilities(state, kraus)
    assert p_m == pytest.approx(analytic.success_prob, abs=1e-9)
    assert p_m + p_n == pytest.approx(1.0, abs=1e-9)
    succ = schmidt_spectrum(
        BipartiteState(np.diag(kraus.m_diag) @ state.amplitudes / np.sqrt(p_m))
    )
    assert succ.entries == pytest.approx(analytic.success_state.entries, abs=1e-9)
    fail = schmidt_spectrum(
        BipartiteState(np.diag(kraus.n_diag) @ state.amplitudes / np.sqrt(p_n))
    )
    assert fail.entries == pytest.approx(analytic.failure_state.entries, abs=1e-9)


class TestRunPlan:
    def test_deterministic_plan_always_succeeds(self, worked_pair):
        p, _ = worked_pair
        plan = plan_vidal(p, canonicalize([0.7, 0.2, 0.1]))
        stats = run_plan(plan, shots=500, seed=3)
        assert stats.successes == 500
        assert stats.empirical_rate == 1.0
        assert stats.residual_mean is None

    def test_single_shot(self, worked_pair):
        plan = plan_thrifty(*worked_pair)
        stats = run_plan(plan, shots=1, seed=9)
        assert stats.successes in (0, 1)

    def test_rate_within_binomial_bound(self, worked_pair):
        plan = plan_thrifty(*worked_pair)
        shots = 20_000
        stats = run_plan(plan, shots=shots, seed=123)
        bound = 4.0 * np.sqrt(0.5 * 0.5 / shots)
        assert abs(stats.empirical_rate - 0.5) <= bound
        assert stats.residual_mean == pytest.approx((0.625, 0.375, 0.0), **APPROX)

    def test_seed_reproducibility(self, worked_pair):
        plan = plan_thrifty(*worked_pair)
        a = run_plan(plan, shots=2_000, seed=77)
        b = run_plan(plan, shots=2_000, seed=77)
        assert a.to_dict() == b.to_dict()

    def test_rejects_zero_shots(self, worked_pair):
        plan = plan_thrifty(*worked_pair)
        with pytest.raises(ValueError):
            run_plan(plan, shots=0)


def test_numpy_integer_seeds_are_reported(worked_pair):
    stats = run_plan(plan_thrifty(*worked_pair), shots=10, seed=np.int64(3))
    assert stats.to_dict()["seed"] == 3
    assert type(stats.seed) is int
    report = run_sweep(3, 2, seed=np.int64(3), properties=["axioms"])
    assert report.to_dict()["seed"] == 3
    assert type(report.seed) is int
    assert run_plan(plan_thrifty(*worked_pair), shots=10, seed=np.random.default_rng(3)).seed is None
