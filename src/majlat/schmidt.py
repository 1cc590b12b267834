"""Sorted probability vectors and the majorization preorder.

A ``ProbVec`` holds a Schmidt spectrum in canonical form: entries sorted in
non-increasing order, non-negative, summing to 1 within the global tolerance.
Two vectors of different length are compared after zero-padding the shorter
one, so trailing zeros never change any result.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .config import get_epsilon
from .errors import NegativeEntry, NotNormalized


@dataclass(frozen=True)
class ProbVec:
    """Canonical (sorted, normalized) probability vector."""

    entries: tuple[float, ...]

    @property
    def dim(self) -> int:
        return len(self.entries)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.entries, dtype=float)

    def padded(self, dim: int) -> "ProbVec":
        """Return a copy padded with trailing zeros up to ``dim``."""
        if dim < self.dim:
            raise ValueError(f"cannot pad {self.dim}-dim vector down to {dim}")
        if dim == self.dim:
            return self
        return ProbVec(self.entries + (0.0,) * (dim - self.dim))

    def __str__(self) -> str:
        return "(" + ", ".join(f"{x:.12g}" for x in self.entries) + ")"


class MajOrder(enum.Enum):
    """Four-way outcome of a majorization comparison."""

    PRECEDES = "precedes"        # left is majorized by right (more disordered)
    SUCCEEDS = "succeeds"        # left majorizes right (more ordered)
    EQUIVALENT = "equivalent"    # majorized in both directions
    INCOMPARABLE = "incomparable"


def canonicalize(raw, dim: int | None = None) -> ProbVec:
    """Build a canonical ProbVec from raw entries.

    Sorts descending, clamps entries in [-eps, 0) to zero and optionally pads
    with trailing zeros up to ``dim``.  Raises ``ValueError`` for NaN or
    infinite entries, ``NegativeEntry`` for entries below -eps and
    ``NotNormalized`` when the total is off by more than eps.
    """
    eps = get_epsilon()
    arr = np.asarray(list(raw), dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a non-empty 1-d sequence of probabilities")
    if not np.all(np.isfinite(arr)):
        raise ValueError("probabilities must be finite numbers")
    if np.any(arr < -eps):
        raise NegativeEntry(f"entry {arr.min():.3g} below -epsilon")
    total = float(arr.sum())
    if abs(total - 1.0) > eps:
        raise NotNormalized(f"entries sum to {total!r}, expected 1 within {eps:g}")
    arr = np.clip(arr, 0.0, None)
    arr = np.sort(arr)[::-1]
    vec = ProbVec(tuple(float(x) for x in arr))
    if dim is not None:
        vec = vec.padded(dim)
    return vec


def uniform(dim: int) -> ProbVec:
    """The maximally disordered vector (bottom of the lattice) of a given dimension."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    return ProbVec((1.0 / dim,) * dim)


def effective_rank(p: ProbVec) -> int:
    """Number of entries above the tolerance (non-vanishing Schmidt coefficients)."""
    eps = get_epsilon()
    return int(np.count_nonzero(p.as_array() > eps))


def pad_pair(p: ProbVec, q: ProbVec) -> tuple[np.ndarray, np.ndarray]:
    """Entries of both vectors as arrays of a common length."""
    d = max(p.dim, q.dim)
    a = np.zeros(d)
    b = np.zeros(d)
    a[: p.dim] = p.entries
    b[: q.dim] = q.entries
    return a, b


def partial_sum_margins(p: ProbVec, q: ProbVec) -> np.ndarray:
    """Margins cumsum(q)_k - cumsum(p)_k for k = 1..d-1.

    All margins >= -eps is exactly the condition "p is majorized by q"
    (the total sums agree by canonicality, so index d is omitted).
    """
    a, b = pad_pair(p, q)
    return np.cumsum(b)[:-1] - np.cumsum(a)[:-1]


def majorizes_margin(p: ProbVec, q: ProbVec) -> float:
    """Most negative partial-sum margin of "p majorized by q" (>= -eps means it holds)."""
    m = partial_sum_margins(p, q)
    return float(m.min()) if m.size else 0.0


def compare(p: ProbVec, q: ProbVec) -> MajOrder:
    """Majorization comparison of two canonical vectors after zero padding."""
    eps = get_epsilon()
    margins = partial_sum_margins(p, q)
    p_below_q = bool(np.all(margins >= -eps))   # p majorized by q
    q_below_p = bool(np.all(margins <= eps))
    if p_below_q and q_below_p:
        return MajOrder.EQUIVALENT
    if p_below_q:
        return MajOrder.PRECEDES
    if q_below_p:
        return MajOrder.SUCCEEDS
    return MajOrder.INCOMPARABLE
