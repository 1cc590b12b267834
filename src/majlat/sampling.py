"""Random instance generation for sweeps and tests.

Vectors are drawn uniformly from the probability simplex (flat Dirichlet)
and sorted descending.  Incomparable pairs come from rejection sampling,
which gives up where epsilon leaves (next to) none, as at dimension 2.
Tied pairs are drawn as rows.
"""

from __future__ import annotations

import numpy as np

from .schmidt import ProbVec, below_rows


def random_prob_rows(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``(count, dim)`` rows, each a sorted draw from the flat Dirichlet."""
    return np.sort(rng.dirichlet(np.ones(dim), size=count), axis=1)[:, ::-1]


def random_prob_vecs(dim: int, count: int, rng) -> list[ProbVec]:
    return [ProbVec(row) for row in random_prob_rows(dim, count, np.random.default_rng(rng))]


def random_incomparable_pairs(dim: int, count: int, rng) -> list[tuple[ProbVec, ProbVec]]:
    """Incomparable pairs by batch rejection sampling: by ``compare``'s rule, some
    partial-sum margin is below -epsilon and some above +epsilon.  Raises
    ``ValueError`` after 64 batches in a row (of 256 pairs or more) without one.
    """
    rng = np.random.default_rng(rng)
    pairs: list[tuple[ProbVec, ProbVec]] = []
    misses = 0  # batches in a row without an incomparable pair
    while len(pairs) < count and misses < 64:
        n = max(count - len(pairs), 256)
        a, b = random_prob_rows(dim, n, rng), random_prob_rows(dim, n, rng)
        a_below_b, b_below_a = below_rows(a, b)
        mask = ~(a_below_b | b_below_a)
        misses = 0 if mask.any() else misses + 1
        for pa, pb in zip(a[mask], b[mask]):
            pairs.append((ProbVec(pa), ProbVec(pb)))
            if len(pairs) == count:
                break
    if misses == 64:  # every pair is comparable at dimension <= 2; a large epsilon leaves few
        raise ValueError(f"no incomparable pair of dimension {dim} within epsilon in 64 batches")
    return pairs


def random_tied_rows(dim: int, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A pair x majorized by y with shared partial sums, plus admissible weights,
    as three ``(dim,)`` arrays.

    y is random; x averages y within random blocks, so the cumulative sums
    touch exactly at block boundaries.  The weight vector is non-increasing,
    non-negative, constant within blocks and scaled so that both weighted
    totals equal 1 -- the exact hypothesis of the element-wise product
    ordering lemma.  (Without such ties the constraints force a constant
    weight vector, which is the trivial case.)
    """
    rng = np.random.default_rng(rng)
    y = random_prob_rows(dim, 1, rng)[0]
    n_blocks = int(rng.integers(1, dim + 1))
    cuts = []
    if n_blocks > 1:
        cuts = sorted(rng.choice(np.arange(1, dim), size=n_blocks - 1, replace=False).tolist())
    bounds = [0, *cuts, dim]
    sizes = np.diff(bounds)
    mu = np.sort(rng.random(n_blocks))[::-1]  # per-block levels, decreasing
    # x is each block's mean.  A block of one or two entries has one sum whatever
    # the order of summation, so ``reduceat`` gives ``mean``'s bits there; a
    # longer block keeps ``mean``, whose order of summation is numpy's own.
    x = np.repeat(np.add.reduceat(y, bounds[:-1]) / sizes, sizes)
    for lo, hi in zip(bounds, bounds[1:]):
        if hi - lo > 2:
            x[lo:hi] = y[lo:hi].mean()
    weights = np.repeat(mu, sizes)
    weights /= float(weights @ x)  # then weights @ y == 1 as well, by the ties
    return x, y, weights
