import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from majlat.errors import EmptyCollection
from majlat.lattice import (
    cumulative_sums,
    join,
    join_many,
    least_concave_majorant,
    meet,
    meet_many,
)
from majlat.sampling import random_prob_vecs, robin_hood_transfer, sharpening_transfer
from majlat.schmidt import MajOrder, canonicalize, compare, majorizes_margin, uniform

from conftest import prob_vec_pairs, prob_vecs, rngs

APPROX = dict(abs=1e-9)


def test_meet_worked_pair(worked_pair):
    p, q = worked_pair
    assert meet(p, q).entries == pytest.approx((0.5, 0.3, 0.2), **APPROX)


def test_meet_idempotent(worked_pair):
    p, _ = worked_pair
    assert meet(p, p).entries == pytest.approx(p.entries, **APPROX)


def test_meet_degenerate():
    top = canonicalize([1.0, 0.0])
    assert meet(top, top).entries == (1.0, 0.0)


def test_join_worked_pair(worked_pair):
    p, q = worked_pair
    assert join(p, q).entries == pytest.approx((0.6, 0.3, 0.1), **APPROX)


def test_join_idempotent(worked_pair):
    _, q = worked_pair
    assert join(q, q).entries == pytest.approx(q.entries, **APPROX)


def test_join_with_bottom(worked_pair):
    p, _ = worked_pair
    assert join(uniform(3), p).entries == pytest.approx(p.entries, **APPROX)


def test_cumulative_sums(worked_pair):
    p, q = worked_pair
    assert cumulative_sums(meet(p, q)) == pytest.approx((0.0, 0.5, 0.8, 1.0), **APPROX)


def test_meet_many_reductions(worked_pair):
    p, q = worked_pair
    r = canonicalize([0.7, 0.2, 0.1])
    assert meet_many([p]) == p
    assert meet_many([p, q]).entries == pytest.approx(meet(p, q).entries, **APPROX)
    assert meet_many([p, q, r]).entries == pytest.approx(
        meet(meet(p, q), r).entries, **APPROX
    )
    assert join_many([q]) == q
    with pytest.raises(EmptyCollection):
        meet_many([])
    with pytest.raises(EmptyCollection):
        join_many([])


class TestLeastConcaveMajorant:
    def test_concave_input_unchanged(self):
        vals = [0.0, 0.6, 0.9, 1.0]
        assert least_concave_majorant(vals) == pytest.approx(vals)

    def test_repairs_convex_dip(self):
        env = least_concave_majorant([0.0, 0.2, 0.9, 1.0])
        assert env == pytest.approx([0.0, 0.45, 0.9, 1.0])
        assert np.all(np.diff(np.diff(env)) <= 1e-12)

    @given(rngs(), st.integers(2, 10))
    def test_envelope_properties(self, rng, n):
        vals = np.sort(rng.random(n + 1))
        vals[0] = 0.0
        env = least_concave_majorant(vals)
        assert np.all(env >= vals - 1e-12)
        assert env[0] == vals[0] and env[-1] == vals[-1]
        assert np.all(np.diff(np.diff(env)) <= 1e-12)  # concavity
        assert np.min(np.abs(env - vals)) <= 1e-12  # touches the input


# --- defining properties --------------------------------------------------

BOUNDED = (MajOrder.PRECEDES, MajOrder.EQUIVALENT)


@given(prob_vec_pairs(), rngs())
def test_meet_is_greater_than_common_lower_bounds(pair, rng):
    p, q = pair
    m = meet(p, q)
    assert compare(m, p) in BOUNDED and compare(m, q) in BOUNDED
    witness = robin_hood_transfer(m, rng, steps=3)
    assert compare(witness, p) in BOUNDED and compare(witness, q) in BOUNDED
    assert compare(witness, m) in BOUNDED
    probe = random_prob_vecs(p.dim, 1, rng)[0]
    if compare(probe, p) in BOUNDED and compare(probe, q) in BOUNDED:
        assert compare(probe, m) in BOUNDED


@given(prob_vec_pairs(), rngs())
def test_join_is_less_than_common_upper_bounds(pair, rng):
    p, q = pair
    j = join(p, q)
    assert compare(p, j) in BOUNDED and compare(q, j) in BOUNDED
    witness = sharpening_transfer(j, rng, steps=3)
    assert compare(p, witness) in BOUNDED and compare(q, witness) in BOUNDED
    assert compare(j, witness) in BOUNDED
    probe = random_prob_vecs(p.dim, 1, rng)[0]
    if compare(p, probe) in BOUNDED and compare(q, probe) in BOUNDED:
        assert compare(j, probe) in BOUNDED


@given(prob_vec_pairs())
def test_absorption(pair):
    p, q = pair
    assert meet(p, join(p, q)).entries == pytest.approx(p.entries, **APPROX)
    assert join(p, meet(p, q)).entries == pytest.approx(p.entries, **APPROX)


@given(prob_vec_pairs())
def test_cumsum_characterization(pair):
    p, q = pair
    cp, cq = np.cumsum(p.as_array()), np.cumsum(q.as_array())
    cm = np.cumsum(meet(p, q).as_array())
    assert cm == pytest.approx(np.minimum(cp, cq), abs=1e-12)
    cj = np.cumsum(join(p, q).as_array())
    upper = np.maximum(cp, cq)
    assert np.all(cj >= upper - 1e-12)
    assert np.min(np.abs(cj - upper)) <= 1e-12


@given(st.lists(prob_vecs(min_dim=3, max_dim=5), min_size=2, max_size=4), rngs())
def test_fold_order_independence(vs, rng):
    shuffled = [vs[i] for i in rng.permutation(len(vs))]
    assert meet_many(vs).entries == pytest.approx(meet_many(shuffled).entries, abs=1e-12)
    assert join_many(vs).entries == pytest.approx(join_many(shuffled).entries, abs=1e-12)


@given(prob_vec_pairs())
def test_comparable_pairs_collapse(pair):
    p, q = pair
    order = compare(p, q)
    if order is MajOrder.PRECEDES:
        assert meet(p, q).entries == pytest.approx(p.entries, **APPROX)
        assert join(p, q).entries == pytest.approx(q.entries, **APPROX)
    elif order is MajOrder.SUCCEEDS:
        assert meet(p, q).entries == pytest.approx(q.entries, **APPROX)
        assert join(p, q).entries == pytest.approx(p.entries, **APPROX)


@given(prob_vec_pairs(), rngs())
def test_results_are_canonical(pair, rng):
    p, q = pair
    for res in (meet(p, q), join(p, q)):
        arr = res.as_array()
        assert np.all(np.diff(arr) <= 1e-15)
        assert arr.sum() == pytest.approx(1.0, **APPROX)
        assert majorizes_margin(meet(p, q), res) >= -1e-9
