"""Random instance generation for sweeps and tests.

Vectors are drawn uniformly from the probability simplex (flat Dirichlet)
and sorted descending.  Incomparable pairs come from rejection sampling;
at dimension 2 every sorted pair is comparable, so callers must not ask
for incomparable pairs there.
"""

from __future__ import annotations

import numpy as np

from .schmidt import ProbVec


def random_prob_rows(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``(count, dim)`` rows, each a sorted draw from the flat Dirichlet."""
    return np.sort(rng.dirichlet(np.ones(dim), size=count), axis=1)[:, ::-1]


def random_prob_vecs(dim: int, count: int, rng) -> list[ProbVec]:
    return [ProbVec(row) for row in random_prob_rows(dim, count, np.random.default_rng(rng))]


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


def robin_hood_transfer(p: ProbVec, rng, steps: int = 1) -> ProbVec:
    """More disordered witness: move mass from a larger to a smaller entry.

    Each step transfers at most half of an adjacent gap, so the vector stays
    sorted and is majorized by the input.
    """
    index, uniforms = transfer_draws(p.dim, rng, steps)
    return ProbVec(robin_hood_rows(p.as_array()[None], index[None], uniforms[None])[0])


def sharpening_transfer(p: ProbVec, rng, steps: int = 1) -> ProbVec:
    """More ordered witness: move mass from a smaller to a larger entry."""
    index, uniforms = transfer_draws(p.dim, rng, steps)
    return ProbVec(sharpening_rows(p.as_array()[None], index[None], uniforms[None])[0])


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
