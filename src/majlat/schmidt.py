"""Sorted probability vectors and the majorization preorder.

A ``ProbVec`` holds a Schmidt spectrum in canonical form: entries sorted in
non-increasing order, non-negative, summing to 1 within the global tolerance.
Two vectors of different length are compared after zero-padding the shorter
one, so trailing zeros never change any result.

Each vector stores its entries once, as a read-only, C-contiguous float64
array copied when the vector is built; ``as_array()`` returns that array
itself, so library code reads spectra without converting them.  ``entries``
builds a tuple of Python floats on each access, for printing and for
callers that want plain numbers.
"""

from __future__ import annotations

import enum
from dataclasses import FrozenInstanceError

import numpy as np

from .config import get_epsilon
from .errors import NegativeEntry, NotNormalized


class _ArrayValue:
    """Equality, hashing and pickling by the entries of the read-only arrays that a
    subclass names in ``_arrays``; a copy is rebuilt through the constructor, so its
    arrays are read-only too."""

    __slots__ = ()
    _arrays: tuple[str, ...] = ()

    def _values(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in self._arrays)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or all(map(np.array_equal, self._values(), other._values()))

    def __hash__(self) -> int:
        return hash(tuple(tuple(a.ravel().tolist()) for a in self._values()))

    def __reduce__(self):
        return self.__class__, self._values()


class ProbVec(_ArrayValue):
    """Canonical (sorted, normalized) probability vector.

    Built from any 1-d sequence or array, which is copied; immutable, with
    equality and hashing by the tuple of its entries.
    """

    __slots__ = ("_array",)
    _arrays = ("_array",)

    def __init__(self, entries):
        arr = np.array(entries, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"a probability vector is 1-d, not {arr.ndim}-d")
        arr.setflags(write=False)
        object.__setattr__(self, "_array", arr)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def entries(self) -> tuple[float, ...]:
        return tuple(self._array.tolist())

    @property
    def dim(self) -> int:
        return self._array.size

    def as_array(self) -> np.ndarray:
        """The stored read-only array (no copy)."""
        return self._array

    def padded(self, dim: int) -> "ProbVec":
        """Return a copy padded with trailing zeros up to ``dim``."""
        if dim < self.dim:
            raise ValueError(f"cannot pad {self.dim}-dim vector down to {dim}")
        if dim == self.dim:
            return self
        return ProbVec(np.concatenate((self._array, np.zeros(dim - self.dim))))

    def __repr__(self) -> str:
        return f"ProbVec(entries={self.entries!r})"

    def __str__(self) -> str:
        return "(" + ", ".join(f"{x:.12g}" for x in self._array.tolist()) + ")"


class MajOrder(enum.Enum):
    """Four-way outcome of a majorization comparison."""

    PRECEDES = "precedes"        # left is majorized by right (more disordered)
    SUCCEEDS = "succeeds"        # left majorizes right (more ordered)
    EQUIVALENT = "equivalent"    # majorized in both directions
    INCOMPARABLE = "incomparable"


def canonicalize(raw) -> ProbVec:
    """Build a canonical ProbVec from raw entries.

    Sorts descending and clamps entries in [-eps, 0) to zero.  Raises
    ``ValueError`` for NaN or infinite entries, ``NegativeEntry`` for entries
    below -eps and ``NotNormalized`` when the total is off by more than eps.
    """
    eps = get_epsilon()
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, OverflowError):  # e.g. a JSON object, or an integer beyond float range
        raise ValueError("probabilities must be finite numbers") from None
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a non-empty 1-d sequence of probabilities")
    if not np.isfinite(arr).all():
        raise ValueError("probabilities must be finite numbers")
    if (arr < -eps).any():
        raise NegativeEntry(f"entry {arr.min():.3g} below -epsilon")
    total = float(arr.sum())
    if abs(total - 1.0) > eps:
        raise NotNormalized(f"entries sum to {total!r}, expected 1 within {eps:g}")
    out = np.maximum(arr, 0.0)  # a new array: arr may be the caller's
    out.sort()
    return ProbVec(out[::-1])


def uniform(dim: int) -> ProbVec:
    """The maximally disordered vector (bottom of the lattice) of a given dimension."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    return ProbVec(np.full(dim, 1.0 / dim))


def effective_rank(p: ProbVec) -> int:
    """Number of entries above the tolerance (non-vanishing Schmidt coefficients)."""
    return rank_rows(p.as_array())[0]


def pad_pair(p: ProbVec, q: ProbVec) -> tuple[np.ndarray, np.ndarray]:
    """Entries of both vectors as read-only arrays of a common length."""
    d = max(p.dim, q.dim)
    return p.padded(d).as_array(), q.padded(d).as_array()


def stack_rows(vs) -> np.ndarray:
    """``(k, width)`` entries of k vectors, one fresh row each, zero-padded to the
    largest dimension, ``width``."""
    dims = [v.dim for v in vs]
    width = max(dims)
    if dims.count(width) == len(dims):  # nothing to pad: one copy of all rows
        return np.array([v.as_array() for v in vs])
    rows = np.zeros((len(dims), width))
    for i, v in enumerate(vs):
        rows[i, : v.dim] = v.as_array()
    return rows


# Row kernels: each takes entries along the last axis, so one (d,) array or an
# (N, d) stack of N rows, and is the one copy of its arithmetic; the functions
# on vectors call it on their entries.  A kernel may keep the bookkeeping of a
# single (d,) row in Python scalars, where numpy's per-call cost is most of the
# time, but it runs the same float operations on the same operands, so one row
# gets the bits of that row in a stack.

def rank_rows(rows: np.ndarray) -> list[int]:
    """Number of entries above epsilon, one int per row, rows in order."""
    above = rows > get_epsilon()
    if above.ndim == 1:  # without an axis, count_nonzero is several times faster
        return [int(np.count_nonzero(above))]
    return np.count_nonzero(above, axis=-1).ravel().tolist()


def margin_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Margins cumsum(b)_k - cumsum(a)_k for k = 1..d-1, row by row."""
    return (b.cumsum(axis=-1) - a.cumsum(axis=-1))[..., :-1]


def min_margin_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Most negative margin of "a majorized by b", row by row (0 where d = 1)."""
    m = margin_rows(a, b)
    return np.minimum.reduce(m, axis=-1) if m.shape[-1] else np.zeros(m.shape[:-1])


def below_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether a is majorized by b, and whether b by a, within epsilon, row by row
    (two bools for one row)."""
    eps = get_epsilon()
    m = margin_rows(a, b)
    if m.ndim == 1:  # NaN fails both tests, and d = 1 (no margin) passes both, as below
        return bool(m.min(initial=np.inf) >= -eps), bool(m.max(initial=-np.inf) <= eps)
    return np.logical_and.reduce(m >= -eps, axis=-1), np.logical_and.reduce(m <= eps, axis=-1)


def max_deviation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Largest absolute entrywise difference, row by row, after zero padding the shorter
    (0 for empty rows).

    NaN where a difference is NaN (inf - inf gives one), so every ``<= tol`` test fails;
    a caller that can meet non-finite entries holds ``np.errstate(invalid="ignore")``.
    """
    if a.shape[-1] != b.shape[-1]:
        width = max(a.shape[-1], b.shape[-1])
        a, b = (np.pad(x, [(0, 0)] * (x.ndim - 1) + [(0, width - x.shape[-1])]) for x in (a, b))
    return np.maximum.reduce(np.abs(a - b), axis=-1, initial=0.0)


def partial_sum_margins(p: ProbVec, q: ProbVec) -> np.ndarray:
    """Margins cumsum(q)_k - cumsum(p)_k for k = 1..d-1.

    All margins >= -eps is exactly the condition "p is majorized by q"
    (the total sums agree by canonicality, so index d is omitted).
    """
    return margin_rows(*pad_pair(p, q))


def majorizes_margin(p: ProbVec, q: ProbVec) -> float:
    """Most negative partial-sum margin of "p majorized by q" (>= -eps means it holds)."""
    return float(min_margin_rows(*pad_pair(p, q)))


def compare(p: ProbVec, q: ProbVec) -> MajOrder:
    """Majorization comparison of two canonical vectors after zero padding."""
    p_below_q, q_below_p = below_rows(*pad_pair(p, q))
    if p_below_q and q_below_p:
        return MajOrder.EQUIVALENT
    if p_below_q:
        return MajOrder.PRECEDES
    if q_below_p:
        return MajOrder.SUCCEEDS
    return MajOrder.INCOMPARABLE
