import json
import tracemalloc
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from majlat import config, oracle
from majlat.errors import NotNormalized
from majlat.ladder import p_max, ratio_ladder
from majlat.oracle import (
    RNG_ALGORITHM,
    BipartiteState,
    branch_probabilities,
    embed,
    run_plan,
    schmidt_spectrum,
)
from majlat.protocols import (
    ConversionPlan,
    KrausDiagonals,
    PlanStep,
    StepKind,
    apply_two_outcome,
    kraus_diagonals,
    plan_greedy,
    plan_multi_source,
    plan_multi_target,
    plan_thrifty,
    plan_vidal,
    validate_plan,
)
from majlat.sampling import random_incomparable_pairs, random_prob_vecs
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

    @pytest.mark.parametrize("amplitudes", [
        np.array([[1, 0], [0, 1]], dtype=object),
        np.eye(2, dtype=bool),
        np.array([["0.6", "0"], ["0", "0.8"]]),
    ], ids=["object", "bool", "string"])
    def test_rejects_non_numeric_amplitudes(self, amplitudes):
        with pytest.raises(ValueError, match="real or complex numbers"):
            BipartiteState(amplitudes)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.5, np.nan)])
    def test_rejects_non_finite_amplitudes(self, bad):
        amps = np.diag([0.6, 0.8]).astype(type(bad))
        amps[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            BipartiteState(amps)

    @pytest.mark.parametrize("dtype", [float, complex, int])
    def test_rejects_the_zero_matrix(self, dtype):
        with pytest.raises(ValueError, match="zero"):
            BipartiteState(np.zeros((3, 3), dtype=dtype))

    @pytest.mark.parametrize("amplitudes", [
        np.diag([0.6, 0.8]),
        np.diag([0.6, 0.8j]),
        np.array([[3, 0], [0, 4]]),
    ], ids=["real", "complex", "integer"])
    def test_accepts_real_and_complex_amplitudes(self, amplitudes):
        assert schmidt_spectrum(BipartiteState(amplitudes)).entries == pytest.approx(
            (0.64, 0.36), abs=1e-15
        )

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 2.0])
    @pytest.mark.parametrize("unit", [1.0, 1j], ids=["real", "complex"])
    def test_spectrum_is_right_at_any_scale(self, scale, unit):
        state = BipartiteState(np.diag([0.6, 0.8 * unit]) * scale)
        assert schmidt_spectrum(state).entries == pytest.approx((0.64, 0.36), abs=1e-15)

    def test_a_power_of_two_scale_keeps_the_spectrum_bit_for_bit(self):
        x = np.sqrt([0.5, 0.3, 0.2])
        want = schmidt_spectrum(BipartiteState(np.diag(x))).as_array()
        for k in (-1000, -600, -65, 65, 600, 1000):
            state = BipartiteState(np.diag(np.ldexp(x, k)))
            assert state.exponent == k
            assert np.array_equal(schmidt_spectrum(state).as_array(), want)
        assert BipartiteState(np.diag(np.ldexp(x, 64))).exponent == 0

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 8, 64, 512])
    def test_diagonal_state_gives_its_normalized_squares_exactly(self, dim):
        rng = np.random.default_rng(dim)
        for i in range(4 if dim == 512 else 40):
            p = rng.random(dim)
            p[dim - i % (dim // 2 + 1):] = 0.0  # up to half the entries trail as zeros
            x = np.sqrt(p / p.sum())  # the amplitudes embed builds
            sq = np.sort(x * x)[::-1]
            got = schmidt_spectrum(BipartiteState(np.diag(x))).as_array()
            assert np.array_equal(got, sq / sq.sum())

    @pytest.mark.parametrize("dim", [2, 3, 8, 64, 128])
    @pytest.mark.parametrize("field", [float, complex])
    def test_spectrum_is_invariant_under_local_rotations(self, dim, field):
        rng = np.random.default_rng(dim)

        def haar():
            g = rng.standard_normal((dim, dim))
            if field is complex:
                g = g + 1j * rng.standard_normal((dim, dim))
            return np.linalg.qr(g)[0]

        for rank in sorted({1, max(1, dim // 2), dim}):
            x = np.zeros(dim)
            x[:rank] = np.sqrt(rng.dirichlet(np.ones(rank)))
            want = schmidt_spectrum(BipartiteState(np.diag(x))).as_array()
            got = schmidt_spectrum(BipartiteState(haar() @ np.diag(x) @ haar().T)).as_array()
            assert np.abs(got - want).max() <= 1e-12
            assert (got >= 0.0).all()

    @pytest.mark.parametrize("amplitudes, want", [
        (np.diag([2**40, 2**40]), (0.5, 0.5)),
        (np.diag([2**33, 3 * 2**32]), (9 / 13, 4 / 13)),
        (np.diag(np.array([2**40, 2**40], dtype=np.uint64)), (0.5, 0.5)),
        (np.diag(np.array([100, 50], dtype=np.int8)), (0.8, 0.2)),
        (np.outer([2**32, 3 * 2**31, 0], [4, 2, 0]), (1.0, 0.0, 0.0)),
    ], ids=["diag-2**40", "diag-2**33", "uint64", "int8", "product"])
    def test_integer_amplitudes_are_squared_in_floating_point(self, amplitudes, want):
        # the integer squares or Gram entries overflow their dtype
        assert amplitudes.dtype.kind in "iu"
        got = schmidt_spectrum(BipartiteState(amplitudes)).entries
        assert got == pytest.approx(want, abs=1e-15)


def _eigensolver_spectrum(a):
    """The spectrum by the Gram matrix and the symmetric eigensolver, right for any state."""
    lam = np.maximum(np.linalg.eigvalsh(a @ a.conj().T), 0.0)[::-1]
    return lam / lam.sum()


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 64, 512])
def test_a_diagonal_spectrum_has_the_eigensolvers_bits(dim):
    rng = np.random.default_rng(100 + dim)
    for i in range(4 if dim == 512 else 20):
        p = rng.random(dim)
        p[dim - i % (dim // 2 + 1):] = 0.0  # up to half the entries trail as zeros
        state = embed(canonicalize(p / p.sum()))
        assert (schmidt_spectrum(state).as_array().tobytes()
                == _eigensolver_spectrum(state.amplitudes).tobytes())
        kraus = np.sqrt(rng.random(dim))
        prob = float(np.linalg.norm(kraus[:, None] * state.amplitudes) ** 2)
        branch = kraus[:, None] * state.amplitudes / np.sqrt(prob)
        assert (oracle._branch_spectrum(state, kraus, prob).as_array().tobytes()
                == _eigensolver_spectrum(branch).tobytes())


def _disjoint_rows(rng, dim, field):
    """A dim x dim matrix whose rows own disjoint random sets of columns, some none."""
    owner = rng.integers(0, dim + 1, size=dim)  # dim: the column is zero
    a = np.zeros((dim, dim), dtype=field)
    nonzero = owner < dim
    a[owner[nonzero], np.flatnonzero(nonzero)] = rng.standard_normal(nonzero.sum())
    if field is complex:
        a *= np.exp(2j * np.pi * rng.random((dim, dim)))
    if not a.any():
        a[rng.integers(dim), rng.integers(dim)] = 1.0
    return a


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 64, 256])
@pytest.mark.parametrize("field", [float, complex])
def test_a_spectrum_of_rows_with_disjoint_supports_is_the_eigensolvers(dim, field):
    rng = np.random.default_rng(dim)
    x = np.sqrt(rng.dirichlet(np.ones(dim)))
    phases = np.exp(2j * np.pi * rng.random(dim)) if field is complex else np.ones(dim)
    states = [np.diag(x * phases)[rng.permutation(dim)],  # permuted diagonals
              np.diag(x * phases)[:, rng.permutation(dim)]]
    states += [_disjoint_rows(rng, dim, field) for _ in range(10)]
    for a in states:
        got = schmidt_spectrum(BipartiteState(a)).as_array()
        assert np.abs(got - _eigensolver_spectrum(a)).max() <= 1e-15
        assert not np.signbit(got).any()  # no negative entry, not even -0.0


def test_the_eigensolver_runs_only_where_row_supports_overlap(worked_pair, monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
    p, q = worked_pair
    state = embed(p)
    kraus = kraus_diagonals(ratio_ladder(p, q))
    p_m, p_n = branch_probabilities(state, kraus)
    schmidt_spectrum(state)
    oracle._branch_spectrum(state, kraus.m_diag, p_m)
    oracle._branch_spectrum(state, kraus.n_diag, p_n)
    run_plan(plan_thrifty(p, q), 1000, seed=1)
    run_sweep(dim=8, count=16, seed=7, properties=["oracle-match"])
    assert calls == []
    rotation = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
    schmidt_spectrum(BipartiteState(rotation @ state.amplitudes))
    schmidt_spectrum(BipartiteState(np.outer([0.6, 0.8, 0.0], [1.0, 1.0, 0.0])))
    assert calls == [(3, 3), (3, 3)]


class TestBranchProbabilities:
    def test_worked_pair_probabilities(self, worked_pair):
        p, q = worked_pair
        kraus = kraus_diagonals(ratio_ladder(p, q))
        state = embed(canonicalize([0.675, 0.225, 0.1]))
        assert branch_probabilities(state, kraus) == pytest.approx((0.5, 0.5), **APPROX)

    def test_identity_kraus_always_succeeds(self, worked_pair):
        p, _ = worked_pair
        kraus = kraus_diagonals(ratio_ladder(p, p))
        assert branch_probabilities(embed(p), kraus)[0] == pytest.approx(1.0, abs=1e-15)

    def test_rejects_kraus_diagonals_of_another_dimension(self, worked_pair):
        p, q = worked_pair
        kraus = kraus_diagonals(ratio_ladder(p, q))
        with pytest.raises(ValueError, match="state dimension 4 != Kraus dimension 3"):
            branch_probabilities(embed(p.padded(4)), kraus)

    @pytest.mark.parametrize("m_diag, n_diag, message", [
        ([1.0, 0.8, 0.5], [0.0], "Kraus m_diag dimension 3 != n_diag dimension 1"),
        ([[1.0, 0.8, 0.5]], [[0.0, 0.6, 0.75 ** 0.5]], r"state dimension 3 != Kraus dimension \(1, 3\)"),
    ], ids=["unequal-lengths", "2-d"])
    def test_rejects_kraus_diagonals_that_do_not_fit_the_state(self, m_diag, n_diag, message):
        with pytest.raises(ValueError, match=message):
            branch_probabilities(embed(canonicalize([0.5, 0.3, 0.2])),
                                 KrausDiagonals(m_diag, n_diag))

    @pytest.mark.parametrize("scale", [2.0, 0.5, 1e-200, 1e160])
    def test_rejects_a_state_that_is_not_normalized(self, worked_pair, scale):
        p, q = worked_pair
        kraus = kraus_diagonals(ratio_ladder(p, q))
        state = BipartiteState(embed(canonicalize([0.675, 0.225, 0.1])).amplitudes * scale)
        with pytest.raises(NotNormalized, match="not normalized"):
            branch_probabilities(state, kraus)

    def test_failure_branch_spectrum(self, worked_pair):
        p, q = worked_pair
        kraus = kraus_diagonals(ratio_ladder(p, q))
        state = embed(canonicalize([0.675, 0.225, 0.1]))
        _, p_n = branch_probabilities(state, kraus)
        post = np.diag(kraus.n_diag) @ state.amplitudes / np.sqrt(p_n)
        assert schmidt_spectrum(BipartiteState(post)).entries == pytest.approx(
            (0.75, 0.25, 0.0), **APPROX
        )


@given(st.integers(3, 8), rngs())
def test_oracle_matches_analytic_measurement(dim, rng):
    source, target = random_incomparable_pairs(dim, 1, rng)[0]
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


def per_shot_run_plan(plan, shots, seed=None):
    """Reference Monte Carlo: one scalar draw per probabilistic step reached, one shot at a time."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    validate_plan(plan)
    records = []
    state = embed(plan.steps[0].from_state)
    for step in plan.steps:
        if step.kind is StepKind.DETERMINISTIC:
            state = embed(step.to_state)
            continue
        p_m, p_n = branch_probabilities(state, step.kraus)
        failure_spec = None
        if p_n > config.get_epsilon():
            post = np.diag(step.kraus.n_diag) @ state.amplitudes / np.sqrt(p_n)
            failure_spec = schmidt_spectrum(BipartiteState(post))
        records.append((p_m, failure_spec))
        if p_m <= config.get_epsilon():
            break
        post = np.diag(step.kraus.m_diag) @ state.amplitudes / np.sqrt(p_m)
        state = embed(schmidt_spectrum(BipartiteState(post)))
    rng = np.random.default_rng(seed)
    counts = [0] * len(records)
    for _ in range(shots):
        for k, (p_success, _) in enumerate(records):
            if rng.random() >= p_success:
                counts[k] += 1
                break
    failed = [(n, spec.as_array()) for n, (_, spec) in zip(counts, records)
              if n and spec is not None]
    failures = sum(n for n, _ in failed)
    successes = shots - failures
    residual_mean = None
    if failed:  # sum_k (n_k / N) * f_k, from the first term as it is
        residual_mean = [float(x) for x in reduce(np.add, [n / failures * spec
                                                          for n, spec in failed])]
    return {"shots": shots, "successes": successes, "empirical_rate": successes / shots,
            "residual_mean": residual_mean,
            "seed": int(seed) if isinstance(seed, (int, np.integer)) else None,
            "rng_algorithm": RNG_ALGORITHM}


BLOCK = 8192  # draws per block in run_plan
SHOT_COUNTS = (1, 7, BLOCK - 1, BLOCK, BLOCK + 1, 15_000)


def _chain(*plans):
    """One plan that runs the steps of ``plans`` one after another."""
    steps = tuple(s for plan in plans for s in plan.steps)
    return ConversionPlan("chain", steps)


def _assert_same_as_reference(plan, shots, seed):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    assert run_plan(plan, shots, seed=ours).to_dict() == per_shot_run_plan(plan, shots, theirs)
    assert ours.random() == theirs.random()  # both drew the same number of uniforms


@pytest.mark.parametrize("dim", [3, 4, 5, 6, 7, 8, 64, 512])
def test_run_plan_is_identical_to_the_per_shot_reference(dim):
    rng = np.random.default_rng(1000 + dim)
    p, q = random_incomparable_pairs(dim, 1, rng)[0]
    for planner in (plan_vidal, plan_greedy, plan_thrifty):
        plan = planner(p, q)
        for shots in SHOT_COUNTS:
            _assert_same_as_reference(plan, shots, int(rng.integers(2**31)))


def test_run_plan_matches_the_reference_on_hand_built_plans(worked_pair):
    p, q = worked_pair
    for shots in SHOT_COUNTS:
        _assert_same_as_reference(plan_vidal(p, canonicalize([0.7, 0.2, 0.1])), shots, shots)
        _assert_same_as_reference(_chain(plan_vidal(p, q), plan_vidal(q, p)), shots, shots)
    rng = np.random.default_rng(8)
    for dim in (3, 8, 64):
        p, q = random_incomparable_pairs(dim, 1, rng)[0]
        for shots in SHOT_COUNTS:
            _assert_same_as_reference(_chain(plan_vidal(p, q), plan_vidal(q, p)), shots, shots)


@pytest.mark.parametrize("links", [2, 3])
@pytest.mark.parametrize("shots", [2, BLOCK // 2, BLOCK - 2, 2 * BLOCK - 1, 2 * BLOCK,
                                   2 * BLOCK + 1, 3 * BLOCK])
def test_run_plan_matches_the_reference_on_chains_of_measurements(worked_pair, links, shots):
    """Two or three measurements in a row: a block of draws ends inside a shot."""
    p, q = worked_pair
    there, back = plan_vidal(p, q), plan_vidal(q, p)
    plan = _chain(*[(there, back)[i % 2] for i in range(links)])
    _assert_same_as_reference(plan, shots, 1000 * links + shots)


def test_run_plan_counts_a_failure_of_probability_below_epsilon_as_success(worked_pair):
    p, q = worked_pair
    vidal = plan_vidal(p, q)
    config.set_epsilon(0.1)
    n_diag = np.full(3, 0.3)  # failure probability 0.09 <= epsilon: no failure branch
    kraus = KrausDiagonals(tuple(np.sqrt(1.0 - n_diag**2)), tuple(n_diag))
    step = PlanStep(StepKind.PROBABILISTIC, "a", p, "b", p, kraus, 0.91)
    assert run_plan(ConversionPlan("h", (step,)), 2_000, seed=4).successes == 2_000
    for shots in SHOT_COUNTS:
        _assert_same_as_reference(ConversionPlan("h", (step,)), shots, shots)
        _assert_same_as_reference(_chain(ConversionPlan("h", (step,)), vidal), shots, shots)


def test_the_walk_stops_at_a_measurement_that_succeeds_with_probability_below_epsilon(
        worked_pair):
    """A later measurement of a chain is never reached when an earlier one succeeds with
    probability <= epsilon, so each shot draws one uniform.  Such a step passes
    ``validate_plan`` only where its Born-rule probability rounds above epsilon and the
    dense simulator's rounds to it, so epsilon is set to the dense one."""
    p, q = worked_pair
    lam = p.as_array()
    for t in np.linspace(0.05, 0.3, 200):
        m_diag = np.sqrt(t * np.array([0.5, 1.0, 1.5]))
        kraus = KrausDiagonals(m_diag, np.sqrt(1.0 - m_diag**2))
        p_born = float(np.square(kraus.m_diag) @ lam)
        p_dense, _ = branch_probabilities(embed(p), kraus)
        if p_born > p_dense:
            break
    else:
        pytest.fail("no diagonal rounds the two probabilities apart")
    outcome = apply_two_outcome(p, kraus)
    step = PlanStep(StepKind.PROBABILISTIC, "a", p, "b", outcome.success_state, kraus, p_born,
                    "residual", outcome.failure_state)
    plan = _chain(ConversionPlan("h", (step,)), plan_vidal(outcome.success_state, q))
    config.set_epsilon(p_dense)
    validate_plan(plan)
    for shots in SHOT_COUNTS:
        _assert_same_as_reference(plan, shots, shots)
        ours, draws = np.random.default_rng(shots), np.random.default_rng(shots).random(shots + 1)
        assert run_plan(plan, shots, seed=ours).successes == np.count_nonzero(draws[:-1] < p_dense)
        assert ours.random() == draws[-1]  # one uniform per shot


@pytest.mark.parametrize("build", [
    lambda vs: plan_multi_target(vs[0], vs[1:]),
    lambda vs: plan_multi_source(vs[:-1], vs[-1]),
], ids=["multi-target", "multi-source"])
@pytest.mark.parametrize("members", [2, 3, 4])
def test_run_plan_runs_a_multi_state_plan_as_its_core(build, members):
    """Heads and tails only set the spectrum, so walking all of ``plan.steps`` gives the
    core's records, bit for bit, and a multi-state plan reports what its core does."""
    for dim in (3, 5, 8):
        plan = build(random_prob_vecs(dim, members + 1, np.random.default_rng(dim * members)))
        ours, core = oracle._walk_plan(plan), oracle._walk_plan(plan.core)
        assert len(ours) == len(core)
        for (p, f), (p_core, f_core) in zip(ours, core):
            assert p == p_core
            assert (f is None and f_core is None) or f.tobytes() == f_core.tobytes()
        for shots in (1, BLOCK + 1, 15_000):
            assert (run_plan(plan, shots, seed=shots).to_dict()
                    == run_plan(plan.core, shots, seed=shots).to_dict())


def _counting(monkeypatch, *names):
    """Count the calls the oracle makes to each of ``names``."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _f=getattr(oracle, name)):
            counts[_name] += 1
            return _f(*args)
        monkeypatch.setattr(oracle, name, counted)
    return counts


def test_the_walk_builds_a_dense_state_only_where_a_measurement_acts(worked_pair, monkeypatch):
    plan = plan_thrifty(*worked_pair)
    counts = _counting(monkeypatch, "embed", "_branch_spectrum")
    oracle._walk_plan(plan)
    assert counts == {"embed": 1, "_branch_spectrum": 1}  # failure branch only


def test_the_walk_builds_a_success_branch_only_where_a_measurement_follows(worked_pair,
                                                                            monkeypatch):
    p = worked_pair[0]
    kraus = KrausDiagonals(np.sqrt([1.0, 0.8, 0.6]), np.sqrt([0.0, 0.2, 0.4]))
    one_step_plans, state = [], p
    for _ in range(2):  # two measurements with no step between them
        out = apply_two_outcome(state, kraus)
        one_step_plans.append(ConversionPlan("h", (PlanStep(
            StepKind.PROBABILISTIC, "a", state, "b", out.success_state, kraus, out.success_prob,
            "residual", out.failure_state),)))
        state = out.success_state
    plan = _chain(*one_step_plans)
    validate_plan(plan)
    counts = _counting(monkeypatch, "embed", "_branch_spectrum")
    records = oracle._walk_plan(plan)
    assert counts == {"embed": 2, "_branch_spectrum": 3}  # two failure branches, one success
    assert [prob for prob, _ in records] == pytest.approx(
        [step.success_prob for step in plan.steps], abs=1e-12)
    for shots in SHOT_COUNTS:
        _assert_same_as_reference(plan, shots, shots)


def test_run_plan_pads_failure_spectra_of_different_dimensions(worked_pair):
    """A deterministic step may pad the state; the reference cannot add the
    3- and 4-entry failure spectra, run_plan reports their padded mean."""
    p, q = worked_pair
    q4, r4 = q.padded(4), canonicalize([0.55, 0.35, 0.1, 0.0])
    pad = PlanStep(StepKind.DETERMINISTIC, "q", q, "q4", q4)
    plan = _chain(plan_vidal(p, q), ConversionPlan("pad", (pad,)), plan_vidal(q4, r4))
    _assert_same_as_reference(plan, 1, 1)  # one shot fails at the first step only
    with pytest.raises(ValueError):
        per_shot_run_plan(plan, 100, 1)
    stats = run_plan(plan, 100, seed=1)
    assert len(stats.residual_mean) == 4
    assert sum(stats.residual_mean) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dim", [3, 64])
def test_run_plan_matches_the_reference_when_almost_every_shot_fails(dim):
    rng = np.random.default_rng(2000 + dim)
    p, q = next((p, q) for p, q in random_incomparable_pairs(dim, 64, rng) if p_max(p, q) < 0.1)
    _assert_same_as_reference(plan_thrifty(p, q), 100_000, dim)


@pytest.mark.parametrize("shots", [2.5, 10.0, np.float64(5.0), True, np.bool_(True), "10", None, 0, -3])
def test_run_plan_rejects_a_shot_count_it_cannot_honour(worked_pair, shots):
    p, q = worked_pair
    for plan in (plan_vidal(p, canonicalize([0.7, 0.2, 0.1])), plan_thrifty(p, q)):
        with pytest.raises(ValueError, match="shots must be an integer >= 1"):
            run_plan(plan, shots, seed=1)


def test_run_plan_reports_numpy_integer_shots_as_int(worked_pair):
    plan = plan_thrifty(*worked_pair)
    stats = run_plan(plan, np.int64(5), seed=1)
    assert type(stats.shots) is int and type(stats.successes) is int
    assert json.loads(json.dumps(stats.to_dict())) == run_plan(plan, 5, seed=1).to_dict()


@pytest.mark.parametrize("dim", [3, 8, 64])
def test_residual_mean_is_the_count_weighted_mean_of_the_failure_spectra(dim):
    """Exact referee: one measurement reports its failure spectrum bit for bit, and k
    measurements lie within (k + 1) * 2**-53 of sum_k n_k f_k / N taken in rationals."""
    rng = np.random.default_rng(3000 + dim)
    p, q = random_incomparable_pairs(dim, 1, rng)[0]
    there, back = plan_vidal(p, q), plan_vidal(q, p)
    plans = [planner(p, q) for planner in (plan_vidal, plan_greedy, plan_thrifty)]
    plans += [_chain(there, back), _chain(there, back, there)]
    for plan in plans:
        seed = int(rng.integers(2**31))
        records = oracle._walk_plan(plan)
        mean = run_plan(plan, 15_000, seed=seed).residual_mean
        if len(records) == 1:
            assert np.array(mean).tobytes() == records[0][1].tobytes()
            continue
        counts = oracle._failure_counts([prob for prob, _ in records], 15_000,
                                        np.random.default_rng(seed))
        assert all(f is not None and f.size == dim for _, f in records)
        failures = sum(counts)
        exact = [sum(n * Fraction(f[i]) for n, (_, f) in zip(counts, records)) / failures
                 for i in range(dim)]
        bound = Fraction(len(records) + 1, 2**53)
        assert all(abs(Fraction(got) - want) <= bound for got, want in zip(mean, exact))


def test_a_lone_failure_spectrum_is_reported_with_its_bits(worked_pair, monkeypatch):
    spectrum = np.array([0.5, 0.5, -0.0])  # a zero of either sign is kept as it is
    monkeypatch.setattr(oracle, "_walk_plan", lambda plan: [(0.5, spectrum)])
    mean = run_plan(plan_thrifty(*worked_pair), 1_000, seed=1).residual_mean
    assert np.array(mean).tobytes() == spectrum.tobytes()


def test_run_plan_memory_does_not_grow_with_shots():
    """One measurement is counted a block at a time, a chain of two draw by draw."""
    p, q = random_incomparable_pairs(64, 1, np.random.default_rng(64))[0]
    for plan in (plan_thrifty(p, q), _chain(plan_vidal(p, q), plan_vidal(q, p))):
        tracemalloc.start()
        try:
            run_plan(plan, 10**6, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
