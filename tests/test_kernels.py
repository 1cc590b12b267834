"""Row kernels against one row at a time.

A row kernel takes an ``(N, d)`` stack of rows (or an ``(N, k, d)`` stack of
groups) and is the one copy of its arithmetic: the functions on vectors call
it on a single row.  On a stack it must give, bit for bit, what it gives on
each row alone, and raise the error of the first row that fails.
"""

import numpy as np
import pytest

from majlat.errors import RankDeficit
from majlat.lattice import join_many, join_rows, meet_many, meet_rows
from majlat.ladder import p_max, p_max_rows
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
