"""Row kernels against one row at a time.

A row kernel takes an ``(N, d)`` stack of rows (or an ``(N, k, d)`` stack of
groups) and is the one copy of its arithmetic: the functions on vectors call
it on a single row.  On a stack it must give, bit for bit, what it gives on
each row alone, and raise the error of the first row that fails.  Kernels
that give a single ``(d,)`` row a short path of its own bookkeeping are held
to the same rule on random stacks, byte for byte.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from majlat import config
from majlat.errors import RankDeficit
from majlat.lattice import join_many, join_rows, meet_many, meet_rows
from majlat.ladder import ladder_rows, p_max, p_max_rows, r_rows
from majlat.protocols import _branch_rows
from majlat.sampling import random_prob_vecs
from majlat.schmidt import (
    ProbVec,
    below_rows,
    compare,
    effective_rank,
    majorizes_margin,
    margin_rows,
    max_deviation,
    min_margin_rows,
    partial_sum_margins,
    rank_rows,
    stack_rows,
)

DIMS = (2, 3, 8, 64, 512)


def _vectors(d: int, n: int, rng) -> list[ProbVec]:
    """n vectors of dimension d: flat-Dirichlet ones and ones with ties and zeros."""
    vs = random_prob_vecs(d, n, rng)
    for i in range(0, n, 3):
        w = np.sort(rng.integers(0, 3, size=d))[::-1].astype(float)
        w[0] += 1.0
        vs[i] = ProbVec(w / w.sum())
    return vs


@pytest.mark.parametrize("d", DIMS)
def test_meet_and_join_rows_match_each_group_alone(d):
    rng = np.random.default_rng(d)
    groups = [_vectors(d, k, rng) for k in (2, 3, 5, 2, 4, 3)]
    k = max(map(len, groups))
    stack = np.array([stack_rows(g + g[:1] * (k - len(g))) for g in groups])  # repeats pad
    for rows, many in ((meet_rows(stack), meet_many), (join_rows(stack), join_many)):
        for row, group in zip(rows, groups):
            assert np.array_equal(row, many(group).as_array())


@pytest.mark.parametrize("d", DIMS)
def test_margin_rows_match_each_pair_alone(d):
    rng = np.random.default_rng(d)
    ps, qs = _vectors(d, 12, rng), _vectors(d, 12, rng)
    ps[1] = qs[1]  # one equivalent pair
    margins = margin_rows(stack_rows(ps), stack_rows(qs))
    lows = min_margin_rows(stack_rows(ps), stack_rows(qs))
    p_below_q, q_below_p = below_rows(stack_rows(ps), stack_rows(qs))
    for i, (p, q) in enumerate(zip(ps, qs)):
        assert np.array_equal(margins[i], partial_sum_margins(p, q))
        assert lows[i] == majorizes_margin(p, q)
        order = compare(p, q)
        assert (p_below_q[i], q_below_p[i]) == (order.value in ("precedes", "equivalent"),
                                                order.value in ("succeeds", "equivalent"))


@pytest.mark.parametrize("d", DIMS)
def test_rank_rows_are_the_effective_ranks_as_ints(d):
    vs = _vectors(d, 7, np.random.default_rng(d))
    ranks = rank_rows(stack_rows(vs))
    assert ranks == [effective_rank(v) for v in vs]
    assert all(type(r) is int for r in ranks + [effective_rank(vs[0])])


@pytest.mark.parametrize("d", DIMS)
def test_p_max_rows_match_each_pair_alone(d):
    rng = np.random.default_rng(d)
    ps, qs = _vectors(d, 12, rng), _vectors(d, 12, rng)
    ps = [p if p.as_array()[-1] > 0 else q for p, q in zip(ps, qs)]  # no rank deficit
    got = p_max_rows(stack_rows(ps), stack_rows(qs))
    assert got.tolist() == [p_max(p, q) for p, q in zip(ps, qs)]


def test_p_max_rows_raise_for_the_first_rank_deficient_row():
    full = np.full(4, 0.25)
    ranks = (4, 4, 2, 4, 1)  # sources of these ranks, each to the full-rank target
    sources = np.array([np.r_[np.full(r, 1.0 / r), np.zeros(4 - r)] for r in ranks])
    targets = np.array([full] * len(ranks))
    with pytest.raises(RankDeficit) as first:
        p_max(ProbVec(sources[2]), ProbVec(full))
    with pytest.raises(RankDeficit) as raised:
        p_max_rows(sources, targets)
    assert str(raised.value) == str(first.value)


def test_max_deviation_zero_pads_and_fails_on_nan():
    a = np.array([[0.5, 0.5, 0.0], [0.6, 0.3, 0.1]])
    b = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert max_deviation(a, b).tolist() == [0.0, 0.2]
    assert max_deviation(b, a).tolist() == [0.0, 0.2]
    assert max_deviation(a[1], b[1]) == max_deviation(a, b)[1]
    inf_and_nan = np.array([[np.inf, 0.0], [np.nan, 0.0]]), np.array([[np.inf, 0.0], [0.0, 0.0]])
    with np.errstate(invalid="ignore"):  # the caller's context: inf - inf gives NaN silently
        devs = max_deviation(*inf_and_nan)
    assert np.isnan(devs).all()
    assert not (devs <= 1.0).any()
    # max_deviation enters no context of its own: outside one, inf - inf is reported
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        max_deviation(*inf_and_nan)


# --- the one-row path against the stack, kernel by kernel --------------------

SHORT_PATH_DIMS = (1, 2, 3, 8)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


@st.composite
def _spectra(draw, n: int, d: int) -> np.ndarray:
    """n sorted, normalized rows of dimension d, some with ties and trailing zeros
    (of either sign), and maybe one NaN entry."""
    weight = st.one_of(st.floats(1e-3, 1.0), st.sampled_from([0.0, 0.5, 1.0]))
    rows = np.array([draw(st.lists(weight, min_size=d, max_size=d)) for _ in range(n)])
    rows = -np.sort(-rows, axis=1)
    rows[rows[:, 0] == 0.0, 0] = 1.0
    rows /= rows.sum(axis=1, keepdims=True)
    if draw(st.booleans()):
        rows[rows == 0.0] = -0.0
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1)), draw(st.integers(0, d - 1))] = np.nan
    return rows


@pytest.mark.parametrize("d", SHORT_PATH_DIMS)
@given(data=st.data())
def test_below_rows_of_one_row_are_its_row_of_a_stack(d, data):
    n = data.draw(st.integers(1, 5))
    a, b = data.draw(_spectra(n, d)), data.draw(_spectra(n, d))
    tied = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    b[tied] = a[tied]
    below, above = below_rows(a, b)
    for i in range(n):
        one = below_rows(a[i], b[i])
        assert [type(x) for x in one] == [bool, bool]
        assert one == (below[i], above[i])


@pytest.mark.parametrize("d", SHORT_PATH_DIMS)
@given(data=st.data())
def test_ladder_and_r_rows_of_one_row_are_its_row_of_a_stack(d, data):
    n = data.draw(st.integers(1, 5))
    sources, targets = data.draw(_spectra(n, d)), data.draw(_spectra(n, d))
    tied = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    targets[tied] = sources[tied]
    # no rank deficit: where a target has more entries above epsilon, the two swap
    swap = np.array(rank_rows(targets)) > np.array(rank_rows(sources))
    sources[swap], targets[swap] = targets[swap], sources[swap].copy()
    ratios, indices = ladder_rows(sources, targets)
    rv = r_rows(ratios, indices, targets.shape)
    for i in range(n):
        (row_ratios,), (row_indices,) = ladder_rows(sources[i], targets[i])
        assert all(type(r) is float for r in row_ratios)
        assert _bits(row_ratios) == _bits(ratios[i]) and row_indices == indices[i]
        assert _bits(r_rows([row_ratios], [row_indices], (d,))) == _bits(rv[i])


def test_ladder_rows_give_a_zero_first_ratio_one_sign_on_both_paths():
    """Ratios +0.0 and -0.0 tie for the minimum where a source's trailing zeros differ
    in sign (a plan file can hold -0.0; canonicalize never makes it): both paths take
    the ratio at l_1, the first minimizer, capped at 1."""
    source = np.array([0.5, 0.5, 0.0, 0.0, -0.0, -0.0])
    target = np.array([0.5 - 2e-9, 0.5 - 2e-9, 1e-9, 1e-9, 1e-9, 1e-9])  # rank 2
    (one,), _ = ladder_rows(source, target)
    (stacked, _), _ = ladder_rows(np.array([source] * 2), np.array([target] * 2))
    assert one[0] == 0.0 and _bits(one) == _bits(stacked)


@pytest.mark.parametrize("d", SHORT_PATH_DIMS)
@pytest.mark.parametrize("edge", [None, "success at epsilon", "success above epsilon",
                                  "failure at epsilon", "failure above epsilon"])
@settings(max_examples=40)
@given(data=st.data())
def test_branch_rows_of_one_row_are_its_row_of_a_stack(d, edge, data):
    n = data.draw(st.integers(1, 5))
    lam = data.draw(_spectra(n, d))
    square = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]))
    m_sq = np.array([data.draw(st.lists(square, min_size=d, max_size=d)) for _ in range(n)])
    n_sq = 1.0 - m_sq
    eps = config.get_epsilon()
    if edge is not None:  # epsilon at one row's branch probability, or one ulp below it
        i = data.draw(st.integers(0, n - 1))
        prob = np.vecdot(m_sq[i], lam[i])
        prob = 1.0 - prob if edge.startswith("failure") else prob
        if np.nextafter(prob, 0.0) > 0.0 and np.isfinite(prob):  # epsilon stays positive
            config.set_epsilon(prob if edge.endswith("at epsilon") else np.nextafter(prob, 0.0))
    try:
        probs, *branches = _branch_rows(lam, m_sq, n_sq)
        for i in range(n):
            prob, *row_branches = _branch_rows(lam[i], m_sq[i], n_sq[i])
            assert type(prob) is float and _bits(prob) == _bits(probs[i])
            for (rows, kept), (row, row_kept) in zip(branches, row_branches):
                assert type(row_kept) is bool and row_kept == kept[i]
                assert _bits(row) == _bits(rows[i])
    finally:
        config.set_epsilon(eps)


@given(data=st.data())
def test_stack_rows_of_equal_widths_is_the_zero_padded_stack(data):
    d, n = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 5))
    vs = [ProbVec(row) for row in data.draw(_spectra(n, d))]
    rows = stack_rows(vs)
    assert rows.shape == (n, d) and rows.flags.writeable
    assert _bits(rows) == _bits(stack_rows(vs + [ProbVec([])])[:n])  # through the zero padding
    assert not np.shares_memory(rows, vs[0].as_array())
