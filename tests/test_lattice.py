import itertools

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from majlat import lattice
from majlat.errors import EmptyCollection
from majlat.lattice import (
    _REPLAY_WIDTH,
    _lower_hull,
    _popping_points,
    _row_hulls,
    _suffix_sums,
    join,
    join_many,
    least_concave_majorant,
    meet,
    join_rows,
    meet_many,
)
from majlat.sampling import random_prob_rows, random_prob_vecs, random_tied_rows
from majlat.schmidt import (MajOrder, ProbVec, canonicalize, compare, majorizes_margin, stack_rows,
                            uniform)

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
            vs.append(ProbVec(random_tied_rows(dim, rng)[0]))
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
            lower = np.minimum.reduce(_suffix_sums(stack_rows(vs)))
            hull = _lower_hull(range(lower.size), lower.tolist())
            results = [join_many(vs)] + ([join(*vs)] if k == 2 else [])
            for res in results:
                arr = res.as_array()
                assert np.all(np.diff(arr) <= 0.0), (d, k)
                for a, b in zip(hull, hull[1:]):
                    assert np.all(arr[a:b] == arr[a]), (d, k, a, b)


# --- the run-table replay against the plain monotone chain -----------------

def reference_hull(x, y) -> list[int]:
    """Andrew's monotone chain, one point at a time: the loop the replay must equal."""
    hull = [0]
    for k in range(1, len(x)):
        while len(hull) >= 2:
            i, j = hull[-2], hull[-1]
            if (y[j] - y[i]) * (x[k] - x[j]) >= (y[k] - y[j]) * (x[j] - x[i]):
                hull.pop()
            else:
                break
        hull.append(k)
    return hull


def _tie_heavy_groups(d: int, rng) -> list[np.ndarray]:
    """``(k, d)`` groups whose envelopes have collinear runs, equal slopes and ties."""
    groups = []
    for k in (2, 3, 5):
        units = 2 ** int(rng.integers(2, 12))  # dyadic entries: every sum is exact
        groups.append(-np.sort(-rng.multinomial(units, np.ones(d) / d, size=k), axis=1) / units)
        groups.append(np.array([random_tied_rows(d, rng)[0] for _ in range(k)]))
        tails = random_prob_rows(d, k, rng)
        for row in tails:  # zero tails, renormalised
            row[int(rng.integers(1, d + 1)):] = 0.0
            row /= row.sum()
        groups.append(tails)
        member = random_prob_rows(d, 1, rng)
        groups.append(np.concatenate([member, member, random_prob_rows(d, k - 1, rng)]))
        groups.append(np.full((k, d), 1.0 / d))  # one collinear run
    return groups


def _envelope(group: np.ndarray) -> np.ndarray:
    return np.minimum.reduce(_suffix_sums(group), axis=-2)


def _replay_cases():
    rng = np.random.default_rng(4000)
    for d in (64, 512, 1024):
        for k in range(2, 9):
            for _ in range(3):
                yield random_prob_rows(d, k, rng)
    for d in (3, 8, 64, _REPLAY_WIDTH - 2, _REPLAY_WIDTH - 1, 512):
        yield from _tie_heavy_groups(d, rng)


REPLAY_CASES = list(_replay_cases())


def test_the_replayed_chain_is_the_reference_chain():
    for group in REPLAY_CASES:
        for y in (_envelope(group), -np.cumsum(group[0])):  # a join's points; a concave curve's
            x = np.arange(y.size, dtype=float).tolist()
            ref = reference_hull(range(y.size), y.tolist())
            assert _lower_hull(x, y.tolist()) == ref
            assert _lower_hull(x, y.tolist(), _popping_points(y[None])[0]) == ref, group.shape
            assert _row_hulls(y[None]) == [ref]


def _reference_join_rows(stack, monkeypatch) -> np.ndarray:
    """``join_rows`` with every hull taken by the reference chain."""
    with monkeypatch.context() as m:
        m.setattr(lattice, "_lower_hull", lambda x, y, pops=None: reference_hull(range(len(x)), y))
        return join_rows(stack)


@pytest.mark.parametrize("d", [3, 8, 64, _REPLAY_WIDTH - 2, _REPLAY_WIDTH - 1, 512])
def test_join_rows_keeps_the_reference_chains_bits_on_both_sides_of_the_cut_off(d, monkeypatch):
    """Rows of d + 1 points: ``_REPLAY_WIDTH - 2`` is the widest plain chain."""
    rng = np.random.default_rng(5000 + d)
    stacks = [random_prob_rows(d, 16 * k, rng).reshape(16, k, d) for k in (2, 4, 8)]
    ties = [g for g in _tie_heavy_groups(d, rng) if len(g) == 3]
    stacks.append(np.array(ties))
    for stack in stacks:
        got = join_rows(stack)
        assert np.array_equal(got, _reference_join_rows(stack, monkeypatch))
        for group, row in zip(stack, got):
            assert np.array_equal(join_rows(group), row)
    for group in REPLAY_CASES:
        if group.shape[-1] == d:
            assert np.array_equal(join_rows(group), _reference_join_rows(group, monkeypatch))


class TestLeastConcaveMajorant:
    def test_concave_input_unchanged(self):
        vals = [0.0, 0.6, 0.9, 1.0]
        assert least_concave_majorant(vals) == pytest.approx(vals)

    def test_repairs_convex_dip(self):
        env = least_concave_majorant([0.0, 0.2, 0.9, 1.0])
        assert env == pytest.approx([0.0, 0.45, 0.9, 1.0])
        assert np.all(np.diff(np.diff(env)) <= 1e-12)

    @pytest.mark.parametrize("values", [[0.7], [0.2, 0.9], [0.9, 0.2], []])
    def test_two_or_fewer_values_are_their_own_envelope(self, values):
        env = least_concave_majorant(values)
        assert env.dtype == np.float64 and env.tolist() == values

    @pytest.mark.parametrize("values", [[0.0, np.nan, 1.0], [0.0, np.inf, 1.0], [0.0, -np.inf],
                                        [[0.0, 0.5], [0.5, 1.0]], 0.5, {}, [0, 10**400, 1]])
    def test_rejects_values_it_cannot_honour(self, values):
        with pytest.raises(ValueError):
            least_concave_majorant(values)

    def test_a_long_input_is_the_reference_chains_envelope(self):
        vals = np.cumsum(random_prob_rows(600, 1, np.random.default_rng(7))[0])
        vals[::7] -= 1e-3  # dents, so the envelope bridges some points
        hull = reference_hull(range(vals.size), (-vals).tolist())
        assert np.array_equal(least_concave_majorant(vals),
                              np.interp(np.arange(vals.size), hull, vals[hull]))

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
    probe = random_prob_vecs(p.dim, 1, rng)[0]
    if compare(probe, p) in BOUNDED and compare(probe, q) in BOUNDED:
        assert compare(probe, m) in BOUNDED


@given(prob_vec_pairs(), rngs())
def test_join_is_less_than_common_upper_bounds(pair, rng):
    p, q = pair
    j = join(p, q)
    assert compare(p, j) in BOUNDED and compare(q, j) in BOUNDED
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
    j = join(p, q).as_array()
    cj, upper = np.cumsum(j), np.maximum(cp, cq)
    assert np.all(cj >= upper - 1e-12)
    # the least concave majorant: concave (non-increasing entries) and touching the max
    # at each breakpoint and at the last index
    assert np.all(j[:-1] >= j[1:])
    breaks = np.append(j[:-1] > j[1:], True)
    assert cj[breaks] == pytest.approx(upper[breaks], abs=1e-12)


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
