"""Random instance generation for sweeps and tests.

Vectors are drawn uniformly from the probability simplex (flat Dirichlet)
and sorted descending.  Incomparable pairs come from rejection sampling,
which gives up where epsilon leaves (next to) none, as at dimension 2.
Transfers and tied pairs are drawn as rows.
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


def transfer_draws(dim: int, rng, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The (index, uniform) draws of ``steps`` transfers on a ``dim``-vector, as two
    ``(steps,)`` arrays, in the order the transfers take them; none below dimension 2."""
    rng = np.random.default_rng(rng)
    draws = [(int(rng.integers(dim - 1)), rng.random()) for _ in range(steps if dim >= 2 else 0)]
    return (np.array([i for i, _ in draws], dtype=np.intp),
            np.array([u for _, u in draws], dtype=np.float64))


def robin_hood_rows(rows: np.ndarray, index: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Apply drawn transfers to each of the ``(N, d)`` rows, with ``(N, steps)`` draws.

    Each step moves mass from entry i to entry i+1, at most half of their gap,
    so a sorted row stays sorted and is majorized by the input.
    """
    out = rows.copy()
    r = np.arange(len(out))
    for i, u in zip(index.T, uniforms.T):
        a, b = out[r, i], out[r, i + 1]
        delta = u * (a - b) / 2.0
        out[r, i] = a - delta
        out[r, i + 1] = b + delta
    return out


def sharpening_rows(rows: np.ndarray, index: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Apply drawn transfers to each of the ``(N, d)`` rows, with ``(N, steps)`` draws.

    Each step moves mass from entry i+1 to entry i and sorts the row again.
    """
    out = rows.copy()
    r = np.arange(len(out))
    for i, u in zip(index.T, uniforms.T):
        a, b = out[r, i], out[r, i + 1]
        delta = u * b
        out[r, i] = a + delta
        out[r, i + 1] = b - delta
        out = np.sort(out, axis=1)[:, ::-1]
    return out


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
