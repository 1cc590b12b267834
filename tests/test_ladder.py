import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from majlat import config
from majlat.errors import RankDeficit
from majlat.lattice import join, meet
from majlat.ladder import (
    RatioLadder,
    intermediate_state,
    monotones,
    p_max,
    r_vector,
    ratio_ladder,
)
from majlat.sampling import random_incomparable_pair, random_tied_majorization
from majlat.schmidt import MajOrder, ProbVec, canonicalize, compare, majorizes_margin, pad_pair

from conftest import prob_vec_pairs, prob_vecs, rngs

APPROX = dict(abs=1e-9)


def brute_force_p_max(p, q):
    """Plain-loop monotone-ratio minimum, independent of the ladder code."""
    d = max(p.dim, q.dim)
    pe = list(p.entries) + [0.0] * (d - p.dim)
    qe = list(q.entries) + [0.0] * (d - q.dim)
    ratios = [
        sum(pe[l:]) / sum(qe[l:])
        for l in range(d)
        if sum(qe[l:]) > config.get_epsilon()
    ]
    return min(min(ratios), 1.0)


@pytest.mark.parametrize(
    "entries,expected",
    [
        ([0.5, 0.4, 0.1], (1.0, 0.5, 0.1)),
        ([1.0, 0.0, 0.0], (1.0, 0.0, 0.0)),
        ([0.6, 0.2, 0.2], (1.0, 0.4, 0.2)),
    ],
)
def test_monotones(entries, expected):
    profile = monotones(canonicalize(entries))
    assert profile.values == pytest.approx(expected, **APPROX)
    assert profile.at(1) == pytest.approx(1.0, **APPROX)


@given(prob_vecs())
def test_monotones_decrease_over_nonzero_entries(p):
    values = monotones(p).values
    for e_cur, e_next, entry in zip(values, values[1:], p.entries):
        if entry > config.get_epsilon():
            assert e_cur > e_next
    assert values[-1] == pytest.approx(p.entries[-1], abs=1e-15)


class TestPMax:
    def test_worked_pair(self, worked_pair):
        assert p_max(*worked_pair) == pytest.approx(0.5, **APPROX)

    def test_identity(self, worked_pair):
        p, _ = worked_pair
        assert p_max(p, p) == 1.0

    def test_bell_to_product_is_deterministic(self):
        assert p_max(canonicalize([0.5, 0.5]), canonicalize([1.0, 0.0])) == 1.0

    def test_rank_deficit(self):
        with pytest.raises(RankDeficit):
            p_max(canonicalize([1.0, 0.0]), canonicalize([0.5, 0.5]))


class TestRatioLadder:
    def test_worked_pair(self, worked_pair):
        ladder = ratio_ladder(*worked_pair)
        assert ladder.k == 2
        assert ladder.ratios == pytest.approx((0.5, 1.125), **APPROX)
        assert ladder.indices == (3, 1)
        assert ladder.l0 == 4

    def test_identity(self, worked_pair):
        p, _ = worked_pair
        ladder = ratio_ladder(p, p)
        assert ladder.k == 1
        assert ladder.ratios == (1.0,)
        assert ladder.indices == (1,)

    def test_ladder_to_meet_matches(self, worked_pair):
        p, q = worked_pair
        direct = ratio_ladder(p, q)
        via_meet = ratio_ladder(p, meet(p, q))
        assert via_meet.ratios == pytest.approx(direct.ratios, **APPROX)
        assert via_meet.indices == direct.indices

    @given(prob_vec_pairs(min_dim=2, max_dim=8))
    def test_structure_invariants(self, pair):
        p, q = pair
        ladder = ratio_ladder(p, q)
        assert ladder.indices[-1] == 1
        assert all(a > b for a, b in zip(ladder.indices, ladder.indices[1:]))
        assert all(a < b + 1e-15 for a, b in zip(ladder.ratios, ladder.ratios[1:]))
        assert 0.0 < ladder.ratios[0] <= 1.0


class TestRVector:
    def test_worked_pair_blocks(self, worked_pair):
        rv = r_vector(ratio_ladder(*worked_pair))
        assert rv == pytest.approx((1.125, 1.125, 0.5), **APPROX)

    def test_trivial_ladder(self, worked_pair):
        p, _ = worked_pair
        assert r_vector(ratio_ladder(p, p)) == (1.0, 1.0, 1.0)

    @given(prob_vec_pairs())
    def test_non_increasing(self, pair):
        rv = np.asarray(r_vector(ratio_ladder(*pair)))
        assert np.all(np.diff(rv) <= 1e-15)


class TestIntermediateState:
    def test_worked_pair(self, worked_pair):
        chi = intermediate_state(*worked_pair)
        assert chi.entries == pytest.approx((0.675, 0.225, 0.1), **APPROX)

    def test_deterministic_case_returns_target(self, worked_pair):
        p, _ = worked_pair
        target = canonicalize([0.7, 0.2, 0.1])
        assert compare(p, target) is MajOrder.PRECEDES
        chi = intermediate_state(p, target)
        assert chi.entries == pytest.approx(target.entries, **APPROX)

    def test_thrifty_intermediate(self, worked_pair):
        p, q = worked_pair
        zeta = intermediate_state(p, meet(p, q))
        assert zeta.entries == pytest.approx((0.5625, 0.3375, 0.1), **APPROX)

    @given(prob_vec_pairs())
    def test_sandwiched_between_source_and_target(self, pair):
        p, q = pair
        chi = intermediate_state(p, q)
        assert sum(chi.entries) == pytest.approx(1.0, **APPROX)
        assert majorizes_margin(p, chi) >= -1e-9
        assert majorizes_margin(q, chi) >= -1e-9


@given(prob_vec_pairs())
def test_deterministic_exactly_when_probability_one(pair):
    p, q = pair
    deterministic = compare(p, q) in (MajOrder.PRECEDES, MajOrder.EQUIVALENT)
    assert (p_max(p, q) >= 1.0 - 1e-9) == deterministic


@given(prob_vec_pairs(min_dim=2, max_dim=4))
def test_p_max_against_brute_force(pair):
    p, q = pair
    assert p_max(p, q) == pytest.approx(brute_force_p_max(p, q), abs=1e-12)


@given(prob_vec_pairs())
def test_ladder_consistency(pair):
    p, q = pair
    ladder = ratio_ladder(p, q)
    assert ladder.ratios[0] == p_max(p, q)  # same expression, same float
    chi = intermediate_state(p, q)
    e_chi = monotones(chi)
    e_source = monotones(ladder.source)
    # the blockwise product reproduces the source monotones at every block
    # boundary, and scales the target's by r_1 at the first one
    for l in ladder.indices:
        assert e_chi.at(l) == pytest.approx(e_source.at(l), abs=1e-12)
    l1 = ladder.indices[0]
    assert e_chi.at(l1) == pytest.approx(
        ladder.ratios[0] * monotones(ladder.target).at(l1), abs=1e-12
    )


def argmin_ladder(p, q):
    """Reference ladder: one argmin over the leading segment per rung."""
    s, t = pad_pair(p, q)
    es, et = np.cumsum(s[::-1])[::-1], np.cumsum(t[::-1])[::-1]
    first = np.full(et.shape, np.inf)
    admissible = et > config.get_epsilon()
    first[admissible] = es[admissible] / et[admissible]
    l = int(np.argmin(first))
    ratios, indices = [min(float(first[l]), 1.0)], [l + 1]
    while indices[-1] != 1:
        lp = indices[-1]
        block = (es[: lp - 1] - es[lp - 1]) / (et[: lp - 1] - et[lp - 1])
        j = int(np.argmin(block))
        ratios.append(float(block[j]))
        indices.append(j + 1)
    return tuple(ratios), tuple(indices)


def _reference_cases(p, q, zeros):
    return [
        (p, ProbVec(q.entries + (0.0,) * zeros)),  # target with zero coefficients
        (p, meet(p, q)),                           # thrifty core
        (join(p, q), q),                           # multi-source core
    ]


def test_hull_ladder_is_bit_identical_to_argmin_reference():
    rng = np.random.default_rng(1999)
    for _ in range(600):
        d = int(rng.integers(2, 13))
        p, q = (ProbVec(tuple(np.sort(rng.dirichlet(np.ones(d)))[::-1])) for _ in range(2))
        for source, target in _reference_cases(p, q, int(rng.integers(0, 4))):
            ladder = ratio_ladder(source, target)
            assert (ladder.ratios, ladder.indices) == argmin_ladder(source, target)


@given(prob_vec_pairs(max_dim=12), st.integers(0, 3), st.integers(2, 5))
def test_hull_ladder_matches_argmin_reference_up_to_rounding_ties(pair, zeros, levels):
    """Where monotone points are collinear in exact arithmetic (entries on a few
    levels, simple fractions), rounding decides which of them is a block
    boundary, differently for the hull and the argmin loop; the block ratios
    then agree to rounding."""
    p, q = pair
    tied = np.round(p.as_array() * levels) + 1.0
    cases = _reference_cases(p, q, zeros) + [(ProbVec(tuple(np.sort(tied / tied.sum())[::-1])), q)]
    for source, target in cases:
        ladder = ratio_ladder(source, target)
        ratios, indices = argmin_ladder(source, target)
        assert (ladder.ratios[0], ladder.indices[0]) == (ratios[0], indices[0])
        reference = RatioLadder(ladder.source, ladder.target, ratios, indices)
        assert r_vector(ladder) == pytest.approx(r_vector(reference), rel=1e-12)


@given(prob_vec_pairs())
def test_meet_monotones_are_pointwise_max(pair):
    p, q = pair
    d = max(p.dim, q.dim)
    em = np.asarray(monotones(meet(p, q)).values)
    ep = np.asarray(monotones(p.padded(d)).values)
    eq = np.asarray(monotones(q.padded(d)).values)
    assert em == pytest.approx(np.maximum(ep, eq), abs=1e-12)


@given(st.integers(3, 8), rngs())
def test_equal_conversion_probability_to_meet(dim, rng):
    p, q = random_incomparable_pair(dim, rng)
    assert ratio_ladder(p, meet(p, q)).ratios[0] == pytest.approx(
        ratio_ladder(p, q).ratios[0], abs=1e-12
    )


@given(st.integers(2, 8), rngs())
def test_hadamard_product_preserves_order(dim, rng):
    x, y, a = random_tied_majorization(dim, rng)
    weights = np.asarray(a)
    u = ProbVec(tuple(weights * x.as_array()))
    v = ProbVec(tuple(weights * y.as_array()))
    assert sum(u.entries) == pytest.approx(1.0, **APPROX)
    assert sum(v.entries) == pytest.approx(1.0, **APPROX)
    assert majorizes_margin(u, v) >= -1e-9
