import copy
import dataclasses
import hashlib
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from majlat import config, sampling
from majlat.errors import NegativeEntry, NotNormalized
from majlat.ladder import intermediate_state, ratio_ladder
from majlat.lattice import join, join_many, meet, meet_many
from majlat.oracle import BipartiteState, embed, schmidt_spectrum
from majlat.protocols import KrausDiagonals, apply_two_outcome, kraus_diagonals
from majlat.sampling import random_incomparable_pairs, random_prob_vecs, random_tied_rows
from majlat.schmidt import (
    MajOrder,
    ProbVec,
    canonicalize,
    compare,
    effective_rank,
    stack_rows,
    uniform,
)

from conftest import prob_vec_pairs, prob_vecs, rngs


class TestCanonicalize:
    def test_sorts_descending(self):
        assert canonicalize([0.1, 0.5, 0.4]).entries == (0.5, 0.4, 0.1)

    def test_single_entry(self):
        assert canonicalize([1.0]).entries == (1.0,)

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            canonicalize([0.3, 0.3, 0.3])

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry):
            canonicalize([1.1, -0.1])

    def test_clamps_tiny_negatives(self):
        vec = canonicalize([1.0 + 1e-12, -1e-12])
        assert vec.entries[-1] == 0.0

    def test_clamps_negative_zero_to_positive_zero(self):
        vec = canonicalize([1.0, -0.0])
        assert not np.signbit(vec.as_array()).any()

    def test_leaves_the_callers_array_alone(self):
        raw = np.array([0.1, 0.5, -1e-12, 0.4 + 1e-12])
        kept = raw.copy()
        assert canonicalize(raw).entries == (0.5, 0.4 + 1e-12, 0.1, 0.0)
        assert np.array_equal(raw, kept)

    def test_pad_to_dimension(self):
        vec = canonicalize([0.6, 0.4]).padded(4)
        assert vec.entries == (0.6, 0.4, 0.0, 0.0)
        with pytest.raises(ValueError):
            canonicalize([0.6, 0.4]).padded(1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            canonicalize([])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            canonicalize([bad, 1.0])


class TestCompare:
    def test_worked_pair_incomparable(self, worked_pair):
        p, q = worked_pair
        assert compare(p, q) is MajOrder.INCOMPARABLE

    def test_reflexive(self, worked_pair):
        p, _ = worked_pair
        assert compare(p, p) is MajOrder.EQUIVALENT

    def test_uniform_is_bottom(self, worked_pair):
        p, _ = worked_pair
        assert compare(uniform(3), p) is MajOrder.PRECEDES
        assert compare(p, uniform(3)) is MajOrder.SUCCEEDS

    @pytest.mark.parametrize("dim", [0, -1])
    def test_uniform_needs_a_positive_dimension(self, dim):
        with pytest.raises(ValueError, match="dimension must be positive"):
            uniform(dim)

    def test_peaked_is_top(self, worked_pair):
        p, _ = worked_pair
        top = canonicalize([1.0, 0.0, 0.0])
        assert compare(p, top) is MajOrder.PRECEDES


@pytest.mark.parametrize(
    "entries,rank",
    [([0.75, 0.25, 0.0], 2), ([1.0], 1), ([0.5, 0.3, 0.2], 3)],
)
def test_effective_rank(entries, rank):
    assert effective_rank(canonicalize(entries)) == rank


@given(prob_vec_pairs(), st.integers(1, 4))
def test_padding_neutrality(pair, extra):
    p, q = pair
    assert compare(p.padded(p.dim + extra), q.padded(q.dim + extra)) is compare(p, q)


def _robin_hood(p: ProbVec, rng, steps: int) -> ProbVec:
    """``p`` after ``steps`` random transfers, each moving at most half the gap between
    two neighbouring entries from the larger to the smaller, so it stays sorted and
    majorized by ``p``."""
    out = p.as_array().copy()
    for _ in range(steps):
        i, u = int(rng.integers(p.dim - 1)), rng.random()
        delta = u * (out[i] - out[i + 1]) / 2.0
        out[i] -= delta
        out[i + 1] += delta
    return ProbVec(out)


@given(prob_vecs(min_dim=2), rngs())
def test_transitivity_along_disorder_chain(p, rng):
    mid = _robin_hood(p, rng, 2)
    low = _robin_hood(mid, rng, 2)
    assert compare(mid, p) in (MajOrder.PRECEDES, MajOrder.EQUIVALENT)
    assert compare(low, mid) in (MajOrder.PRECEDES, MajOrder.EQUIVALENT)
    assert compare(low, p) in (MajOrder.PRECEDES, MajOrder.EQUIVALENT)


@given(prob_vecs(min_dim=2), rngs())
def test_equivalence_is_entrywise_equality(p, rng):
    shuffled = canonicalize(rng.permutation(p.as_array()))
    assert compare(p, shuffled) is MajOrder.EQUIVALENT
    assert np.max(np.abs(p.as_array() - shuffled.as_array())) <= 2 * config.get_epsilon()


@given(prob_vecs())
def test_bottom_and_top_bound_everything(p):
    assert compare(uniform(p.dim), p) in (MajOrder.PRECEDES, MajOrder.EQUIVALENT)
    top = ProbVec((1.0,) + (0.0,) * (p.dim - 1))
    assert compare(p, top) in (MajOrder.PRECEDES, MajOrder.EQUIVALENT)


class TestProbVecStorage:
    def test_source_array_is_copied(self):
        src = np.array([0.5, 0.3, 0.2])
        vec = ProbVec(src)
        src[0] = 0.9
        assert vec.entries == (0.5, 0.3, 0.2)

    def test_as_array_is_the_stored_read_only_array(self):
        vec = ProbVec([0.5, 0.3, 0.2])
        arr = vec.as_array()
        assert vec.as_array() is arr
        assert arr.dtype == np.float64 and arr.flags.c_contiguous
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.9
        assert vec.entries == (0.5, 0.3, 0.2)

    def test_attributes_cannot_be_set(self):
        vec = ProbVec([0.5, 0.5])
        with pytest.raises(AttributeError):
            vec.entries = (1.0,)
        with pytest.raises(AttributeError):
            vec._array = np.array([1.0])
        assert vec.entries == (0.5, 0.5)

    def test_attributes_cannot_be_deleted(self):
        vec = ProbVec([0.5, 0.5])
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field '_array'"):
            del vec._array
        assert vec.entries == (0.5, 0.5)

    def test_repr_shows_the_entries(self):
        assert repr(ProbVec([0.5, 0.25, 0.25])) == "ProbVec(entries=(0.5, 0.25, 0.25))"

    def test_entries_is_a_tuple_of_python_floats(self):
        entries = ProbVec(np.array([0.5, 0.3, 0.2])).entries
        assert type(entries) is tuple
        assert all(type(x) is float for x in entries)

    def test_equality_and_hash_follow_the_entries_tuple(self):
        a, b = ProbVec([1.0, 0.0]), ProbVec([1.0, -0.0])
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash(a) == hash(ProbVec([1.0, 0.0]))
        assert ProbVec([1.0, 0.0]) != ProbVec([1.0, 0.0, 0.0])
        assert ProbVec([0.6, 0.4]) != ProbVec([0.4, 0.6])
        assert ProbVec([1.0]) != (1.0,)

    @pytest.mark.parametrize("bad", [[[0.5, 0.5]], np.ones((2, 2)) / 4, 1.0])
    def test_non_1d_input_rejected(self, bad):
        with pytest.raises(ValueError):
            ProbVec(bad)

    def test_str_and_padding_unchanged(self):
        vec = ProbVec([0.5, 0.25, 0.25])
        assert str(vec) == "(0.5, 0.25, 0.25)"
        assert vec.padded(3) is vec
        assert vec.padded(5).entries == (0.5, 0.25, 0.25, 0.0, 0.0)


# The types that hold read-only arrays, with equality, hashing and pickling by their
# entries: name -> (a value, another one, the arrays a value holds, its hash key).
VALUES = {
    "ProbVec": (lambda: ProbVec([0.5, 0.3, 0.2]), lambda: ProbVec([0.5, 0.2, 0.3]),
                lambda v: [v.as_array()], lambda v: (v.entries,)),
    "KrausDiagonals": (lambda: KrausDiagonals((1.0, 0.6), (0.0, 0.8)),
                       lambda: KrausDiagonals((1.0, 0.8), (0.0, 0.6)),
                       lambda v: [v.m_diag, v.n_diag],
                       lambda v: (tuple(v.m_diag.tolist()), tuple(v.n_diag.tolist()))),
    "BipartiteState": (lambda: BipartiteState(np.array([[0.6, 0.0], [0.0, 0.8j]])),
                       lambda: BipartiteState(np.array([[0.6, 0.0], [0.0, 0.8]])),
                       lambda v: [v.amplitudes],
                       lambda v: (tuple(v.amplitudes.ravel().tolist()),)),
}


@pytest.mark.parametrize("kind", list(VALUES))
def test_values_are_equal_and_hash_alike_by_their_entries(kind):
    build, build_other, _, key = VALUES[kind]
    a, b, other = build(), build(), build_other()
    assert a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != other and not a == other
    assert a in [b] and b in {a} and len({a, b, other}) == 2
    assert hash(a) == hash(key(a))  # the hash of each array's entries, in order
    assert a != key(a)  # a value is not equal to anything of another type


@pytest.mark.parametrize("kind", list(VALUES))
def test_copies_are_equal_and_read_only(kind):
    build, _, arrays, _ = VALUES[kind]
    value = build()
    for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(back) is type(value)
        assert back == value and hash(back) == hash(value)
        for arr in arrays(back):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.5


def test_bipartite_states_compare_their_amplitudes_entrywise():
    state = BipartiteState(np.diag([0.6, 0.8j]))
    assert state != BipartiteState(np.diag([0.6, -0.8j]))  # same Schmidt spectrum
    assert state != BipartiteState(np.diag([0.6, 0.8j, 0.0]))
    integers, floats = BipartiteState(np.diag([3, 4])), BipartiteState(np.diag([3.0, 4.0]))
    assert integers == floats and hash(integers) == hash(floats)


@pytest.mark.parametrize("power", [-600, 0, 600])
def test_a_copied_bipartite_state_rebuilds_its_exponent(power):
    state = BipartiteState(np.diag([0.6, 0.8j]) * 2.0**power)
    for back in (pickle.loads(pickle.dumps(state)), copy.deepcopy(state)):
        assert back == state and back.exponent == state.exponent
        assert schmidt_spectrum(back) == schmidt_spectrum(state)


def test_sampled_vectors_hold_one_array_each():
    """1,000 spectra at d = 512 hold about 4 MiB (8 bytes an entry), not a tuple of floats each."""
    tracemalloc.start()
    try:
        vecs = random_prob_vecs(512, 1000, np.random.default_rng(1))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(vecs) == 1000
    assert held < 6 * 2**20


def _producers():
    p, q = canonicalize([0.5, 0.4, 0.1]), canonicalize([0.6, 0.2, 0.2])
    ladder = ratio_ladder(p, q)
    outcome = apply_two_outcome(p, kraus_diagonals(ladder))
    x, y, _ = random_tied_rows(5, 3)
    return {
        "canonicalize": canonicalize([0.2, 0.8]),
        "uniform": uniform(4),
        "padded": p.padded(5),
        "meet": meet(p, q),
        "join": join(p, q),
        "meet_many": meet_many([p, q, uniform(3)]),
        "join_many": join_many([p, q, uniform(3)]),
        "ladder_source": ladder.source,
        "ladder_target": ratio_ladder(p, canonicalize([0.7, 0.3])).target,
        "intermediate_state": intermediate_state(p, q),
        "success_branch": outcome.success_state,
        "failure_branch": outcome.failure_state,
        "random_prob_vecs": random_prob_vecs(4, 1, 0)[0],
        "random_incomparable_pairs": random_incomparable_pairs(4, 1, 0)[0][1],
        "random_tied_majorization_x": ProbVec(x),  # y is a reversed view; ProbVec copies it
        "random_tied_majorization_y": ProbVec(y),
        "schmidt_spectrum": schmidt_spectrum(embed(q)),
    }


PRODUCERS = _producers()


@pytest.mark.parametrize("name", list(PRODUCERS))
def test_every_producer_returns_a_read_only_float64_array(name):
    arr = PRODUCERS[name].as_array()
    assert arr.dtype == np.float64 and arr.ndim == 1 and arr.flags.c_contiguous
    assert not arr.flags.writeable


def test_stack_rows_zero_pads_each_vector_into_a_fresh_writable_row():
    vs = [canonicalize([0.5, 0.3, 0.2]), canonicalize([1.0]), canonicalize([0.4, 0.4, 0.1, 0.1])]
    rows = stack_rows(vs)
    assert rows.dtype == np.float64 and rows.shape == (3, 4)
    assert rows.tolist() == [[0.5, 0.3, 0.2, 0.0], [1.0, 0.0, 0.0, 0.0], [0.4, 0.4, 0.1, 0.1]]
    assert rows.flags.writeable and rows.flags.c_contiguous
    rows[0, 0] = 9.0  # the rows are copies: the vectors keep their entries
    assert vs[0].entries == (0.5, 0.3, 0.2)
    assert not np.shares_memory(rows, vs[0].as_array())


# sha256 of the pairs' entries, and the generator's next uniform, recorded before
# the sampler drew through ``random_prob_rows`` and filtered by ``margin_rows``
INCOMPARABLE_PAIRS_PINNED = {
    3: ("936af15e205e8d701274f64ba4c6f8e8617def9aaa401d8efc18302060762755", 0.3848144107112571),
    8: ("d3033c427ae93b08e17817cfe47aa6c77d50216ea6bd0c051c9063581b435289", 0.15715394347792333),
    64: ("e42504e7dc2a7e3265278c67be2b7061eb9298dae92207c92eb69cc13e47db96", 0.048738100874211154),
    512: ("daf7d340ccfe633727d5d5873c401da531224782d6577be7c8e578311c3935d1", 0.7540030235690361),
}


@pytest.mark.parametrize("dim", list(INCOMPARABLE_PAIRS_PINNED))
def test_random_incomparable_pairs_keep_their_bits_and_their_draws(dim):
    rng = np.random.default_rng(19)
    digest = hashlib.sha256()
    for p, q in random_incomparable_pairs(dim, 300, rng):
        digest.update(p.as_array().tobytes())
        digest.update(q.as_array().tobytes())
    assert (digest.hexdigest(), rng.random()) == INCOMPARABLE_PAIRS_PINNED[dim]


def test_random_incomparable_pairs_skip_a_pair_that_compare_orders(monkeypatch):
    # margins -1e-12 and 0.1: one of each sign, yet p precedes q within epsilon
    p, q = np.array([0.5, 0.3, 0.2]), np.array([0.5 - 1e-12, 0.4, 0.1 + 1e-12])
    assert compare(ProbVec(p), ProbVec(q)) is MajOrder.PRECEDES
    draw, crafted = sampling.random_prob_rows, iter([p, q])

    def first_rows_crafted(dim, count, rng):
        rows = draw(dim, count, rng)
        rows[0] = next(crafted, rows[0])
        return rows

    monkeypatch.setattr(sampling, "random_prob_rows", first_rows_crafted)
    (pair,) = sampling.random_incomparable_pairs(3, 1, 0)
    assert compare(*pair) is MajOrder.INCOMPARABLE


@given(st.integers(3, 12), st.sampled_from([1e-9, 1e-3, 0.05]), rngs())
def test_random_incomparable_pairs_are_incomparable_by_compare(dim, eps, rng):
    config.set_epsilon(eps)
    for p, q in random_incomparable_pairs(dim, 20, rng):
        assert compare(p, q) is MajOrder.INCOMPARABLE


@pytest.mark.parametrize("dim, eps", [(1, 1e-9), (2, 1e-9), (3, 0.5), (64, 0.2)])
def test_random_incomparable_pairs_give_up_where_epsilon_leaves_none(dim, eps):
    config.set_epsilon(eps)  # every sorted pair of dimension <= 2 is comparable at any epsilon
    with pytest.raises(ValueError, match=f"no incomparable pair of dimension {dim} within"):
        random_incomparable_pairs(dim, 1, 0)
