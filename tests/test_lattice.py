import itertools

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from majlat.errors import EmptyCollection
from majlat.lattice import (
    _lower_hull,
    _stacked,
    _suffix_sums,
    cumulative_sums,
    join,
    join_many,
    least_concave_majorant,
    meet,
    meet_many,
)
from majlat.sampling import (
    random_prob_vecs,
    random_tied_majorization,
    robin_hood_transfer,
    sharpening_transfer,
)
from majlat.schmidt import MajOrder, ProbVec, canonicalize, compare, majorizes_margin, uniform

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


# --- n-ary operations against the left fold of the binary ones -------------

def fold_reference(op, vs) -> ProbVec:
    """The k - 1 binary steps that meet_many/join_many replace by one pass."""
    vs = list(vs)
    d = max(v.dim for v in vs)
    acc = vs[0].padded(d)
    for v in vs[1:]:
        acc = op(acc, v.padded(d))
    return acc


def _collection(d: int, k: int, rng) -> list[ProbVec]:
    """k seeded vectors of dimension at most d, some short, some with ties or zeros."""
    vs = []
    for _ in range(k):
        dim = d if rng.random() < 0.6 else int(rng.integers(1, d + 1))
        kind = rng.integers(3)
        if kind == 0:
            vs.append(random_prob_vecs(dim, 1, rng)[0])
        elif kind == 1:  # small integer weights: repeated entries and zeros
            counts = rng.integers(0, 4, size=dim).astype(float)
            counts[0] += 1.0
            vs.append(canonicalize(counts / counts.sum()))
        else:  # block averages: ties
            vs.append(random_tied_majorization(dim, rng)[0])
    return vs


NARY_DIMS = list(range(2, 11)) + [64, 512]


@pytest.mark.parametrize("d", NARY_DIMS)
def test_n_ary_operations_agree_with_the_fold(d):
    rng = np.random.default_rng(1000 + d)
    for k in range(3, 9):
        for _ in range(6 if d <= 10 else 1):
            vs = _collection(d, k, rng)
            for many, op in ((meet_many, meet), (join_many, join)):
                got, ref = many(vs), fold_reference(op, vs)
                assert got.dim == max(v.dim for v in vs)
                assert np.max(np.abs(got.as_array() - ref.as_array())) <= 1e-15


@pytest.mark.parametrize("d", NARY_DIMS)
def test_n_ary_operations_equal_the_fold_for_one_and_two_inputs(d):
    rng = np.random.default_rng(2000 + d)
    for _ in range(6):
        vs = _collection(d, 2, rng)
        assert meet_many(vs[:1]) == fold_reference(meet, vs[:1]) == vs[0]
        assert join_many(vs[:1]) == fold_reference(join, vs[:1]) == vs[0]
        assert meet_many(vs) == fold_reference(meet, vs) == meet(*vs)
        assert join_many(vs) == fold_reference(join, vs) == join(*vs)


def test_every_join_is_exactly_sorted_and_constant_on_each_hull_edge():
    rng = np.random.default_rng(3000)
    for d, k in itertools.product((3, 8, 64, 512), (2, 4, 8)):
        for _ in range(20 if d <= 64 else 4):
            vs = _collection(d, k, rng)
            lower = np.minimum.reduce(_suffix_sums(_stacked(vs)))
            hull = _lower_hull(range(lower.size), lower.tolist())
            results = [join_many(vs)] + ([join(*vs)] if k == 2 else [])
            for res in results:
                arr = res.as_array()
                assert np.all(np.diff(arr) <= 0.0), (d, k)
                for a, b in zip(hull, hull[1:]):
                    assert np.all(arr[a:b] == arr[a]), (d, k, a, b)


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
    assert meet_many(vs) == meet_many(shuffled)
    assert join_many(vs) == join_many(shuffled)


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
