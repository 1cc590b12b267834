import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from majlat import config
from majlat.errors import NegativeEntry, NotNormalized
from majlat.sampling import robin_hood_transfer
from majlat.schmidt import (
    MajOrder,
    ProbVec,
    canonicalize,
    compare,
    effective_rank,
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

    def test_pad_to_dimension(self):
        vec = canonicalize([0.6, 0.4], dim=4)
        assert vec.entries == (0.6, 0.4, 0.0, 0.0)
        with pytest.raises(ValueError):
            canonicalize([0.6, 0.4], dim=1)

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


@given(prob_vecs(min_dim=2), rngs())
def test_transitivity_along_disorder_chain(p, rng):
    mid = robin_hood_transfer(p, rng, steps=2)
    low = robin_hood_transfer(mid, rng, steps=2)
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
