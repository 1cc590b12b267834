"""Random instance generation for sweeps and tests.

Vectors are drawn uniformly from the probability simplex (flat Dirichlet)
and sorted descending.  Incomparable pairs come from rejection sampling;
at dimension 2 every sorted pair is comparable, so callers must not ask
for incomparable pairs there.
"""

from __future__ import annotations

import numpy as np

from .schmidt import ProbVec


def random_prob_vecs(dim: int, count: int, rng) -> list[ProbVec]:
    rng = np.random.default_rng(rng)
    batch = rng.dirichlet(np.ones(dim), size=count)
    batch = np.sort(batch, axis=1)[:, ::-1]
    return [ProbVec(row) for row in batch]


def random_incomparable_pairs(dim: int, count: int, rng) -> list[tuple[ProbVec, ProbVec]]:
    """Batch rejection sampling of incomparable pairs (vectorized filter)."""
    if dim < 3:
        raise ValueError("all sorted pairs of dimension <= 2 are comparable")
    rng = np.random.default_rng(rng)
    pairs: list[tuple[ProbVec, ProbVec]] = []
    while len(pairs) < count:
        n = max(count - len(pairs), 256)
        a = np.sort(rng.dirichlet(np.ones(dim), size=n), axis=1)[:, ::-1]
        b = np.sort(rng.dirichlet(np.ones(dim), size=n), axis=1)[:, ::-1]
        ca = np.cumsum(a, axis=1)[:, :-1]
        cb = np.cumsum(b, axis=1)[:, :-1]
        mask = np.any(ca > cb, axis=1) & np.any(cb > ca, axis=1)
        for pa, pb in zip(a[mask], b[mask]):
            pairs.append((ProbVec(pa), ProbVec(pb)))
            if len(pairs) == count:
                break
    return pairs


def robin_hood_transfer(p: ProbVec, rng, steps: int = 1) -> ProbVec:
    """More disordered witness: move mass from a larger to a smaller entry.

    Each step transfers at most half of an adjacent gap, so the vector stays
    sorted and is majorized by the input.
    """
    rng = np.random.default_rng(rng)
    arr = p.as_array().copy()
    for _ in range(steps):
        if arr.size < 2:
            break
        i = int(rng.integers(arr.size - 1))
        gap = arr[i] - arr[i + 1]
        delta = rng.random() * gap / 2.0
        arr[i] -= delta
        arr[i + 1] += delta
    return ProbVec(arr)


def sharpening_transfer(p: ProbVec, rng, steps: int = 1) -> ProbVec:
    """More ordered witness: move mass from a smaller to a larger entry."""
    rng = np.random.default_rng(rng)
    arr = p.as_array().copy()
    for _ in range(steps):
        if arr.size < 2:
            break
        i = int(rng.integers(arr.size - 1))
        delta = rng.random() * arr[i + 1]
        arr[i] += delta
        arr[i + 1] -= delta
        arr = np.sort(arr)[::-1]
    return ProbVec(arr)


def random_tied_majorization(dim: int, rng) -> tuple[ProbVec, ProbVec, tuple[float, ...]]:
    """A pair x majorized by y with shared partial sums, plus admissible weights.

    y is random; x averages y within random blocks, so the cumulative sums
    touch exactly at block boundaries.  The weight vector is non-increasing,
    non-negative, constant within blocks and scaled so that both weighted
    totals equal 1 -- the exact hypothesis of the element-wise product
    ordering lemma.  (Without such ties the constraints force a constant
    weight vector, which is the trivial case.)
    """
    rng = np.random.default_rng(rng)
    y = np.sort(rng.dirichlet(np.ones(dim)))[::-1]
    n_blocks = int(rng.integers(1, dim + 1))
    cuts = np.sort(rng.choice(np.arange(1, dim), size=n_blocks - 1, replace=False)) if n_blocks > 1 else np.array([], dtype=int)
    bounds = np.concatenate(([0], cuts, [dim]))
    x = np.empty(dim)
    weights = np.empty(dim)
    mu = np.sort(rng.random(len(bounds) - 1))[::-1]  # per-block levels, decreasing
    for t in range(len(bounds) - 1):
        lo, hi = bounds[t], bounds[t + 1]
        x[lo:hi] = y[lo:hi].mean()
        weights[lo:hi] = mu[t]
    weights /= float(weights @ x)  # then weights @ y == 1 as well, by the ties
    return (
        ProbVec(x),
        ProbVec(y),
        tuple(weights.tolist()),
    )
