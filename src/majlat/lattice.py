"""Meet and join on the majorization lattice, for two or more vectors.

The meet's cumulative sums are the pointwise minimum of the inputs' (its
increments are automatically sorted, because the minimum of concave curves
is concave).  The join takes the pointwise maximum, which in general is not
concave, and repairs it with its least concave majorant: in suffix-sum
space, the lower convex hull of the pointwise minimum.  The join is constant
on each edge of that hull, its entries being minus the edge slopes, one float
per edge, as the ladder's ratios are its hull's slopes.  The hull keeps a
vertex only where the same float differences give a rising slope, so every
join is exactly non-increasing.

Both operations are evaluated in suffix-sum space: a prefix sum near 1
carries absolute rounding of order 1e-16, which is catastrophic *relative*
error for the tiny tail entries that conversion ratios divide by, while
suffix sums keep the tail at full relative precision.  min/max of prefix
sums dualize to max/min of suffix sums, so the results are identical.

The n-ary operations take one pass over all k inputs, not k - 1 binary
steps: the meet's suffix sums are the pointwise max of the k rows, and the
join's are the greatest convex minorant of their pointwise min, because
conv(min(conv h, g)) = conv(min(h, g)).  So one max or min and at most one
hull serve any k, the result does not depend on the inputs' order (max and
min commute exactly), and the binary ``meet``/``join`` are the k = 2 case.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyCollection
from .schmidt import ProbVec


def cumulative_sums(p: ProbVec) -> tuple[float, ...]:
    """Partial sums s_0 = 0, s_1, ..., s_d of a canonical vector."""
    return (0.0, *np.cumsum(p.as_array()).tolist())


def _lower_hull(x, y) -> list[int]:
    """Vertex indices of the lower convex hull of points (x[i], y[i]), x increasing.

    Andrew's monotone chain; of collinear points only the two ends stay.  Pass
    lists (``ndarray.tolist()``): numpy scalars make the loop several times slower.
    """
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


def least_concave_majorant(values) -> np.ndarray:
    """Upper concave envelope of points (k, values[k]) at the same abscissae.

    Its vertices are the lower hull of the negated points, with collinear
    points merged.  Returns the envelope ordinates, which coincide with the
    input at hull vertices and interpolate linearly in between.
    """
    t = np.asarray(values, dtype=float)
    if t.size <= 2:
        return t.copy()
    hull = _lower_hull(range(t.size), (-t).tolist())
    return np.interp(np.arange(t.size), hull, t[hull])


def _suffix_sums(entries: np.ndarray) -> np.ndarray:
    """Suffix sums S[..., k] = sum of entries[..., k:] for k = 0..d, with S[..., d] = 0.

    Taken along the last axis: a ``(k, d)`` stack gives ``(k, d+1)``, one row per vector.
    """
    s = np.zeros(entries.shape[:-1] + (entries.shape[-1] + 1,))
    entries[..., ::-1].cumsum(axis=-1, out=s[..., -2::-1])
    return s


def _stacked(vs) -> np.ndarray:
    """``(k, d)`` entries of the inputs, zero-padded to the largest dimension d."""
    d = max(v.dim for v in vs)
    rows = np.zeros((len(vs), d))
    for i, v in enumerate(vs):
        rows[i, : v.dim] = v.as_array()
    return rows


# Row kernels: a ``(k, d)`` stack of k inputs gives one result, an ``(N, k, d)``
# stack one result row per group of k.  A group with fewer members may repeat
# one of them, which leaves the max and the min, hence the result, unchanged.

def meet_rows(stack: np.ndarray) -> np.ndarray:
    """Entries of the meet of each group: its suffix sums are the pointwise max of theirs."""
    upper = np.maximum.reduce(_suffix_sums(stack), axis=-2)
    return np.maximum(upper[..., :-1] - upper[..., 1:], 0.0)


def join_rows(stack: np.ndarray) -> np.ndarray:
    """Entries of the join of each group: minus the slopes of the lower hull of the
    pointwise min of their suffix sums, each entry that of the edge over it."""
    lower = np.minimum.reduce(_suffix_sums(stack), axis=-2)
    width = lower.shape[-1]
    flat = []  # the hull vertices of all rows, as positions in one flat sequence
    for row, ys in enumerate(lower.reshape(-1, width).tolist()):
        hull = _lower_hull(range(width), ys)
        flat += [row * width + k for k in hull] if row else hull
    # Each row's hull runs from its column 0 to its column d, so the edge from one
    # row's last vertex to the next row's first covers just the row's column d,
    # which is dropped; so does an edge from the last row's to one past the end.
    flat.append(lower.size)
    hull = np.array(flat)
    widths = hull[1:] - hull[:-1]
    vertices = lower.take(hull, mode="clip")
    slopes = (-(vertices[1:] - vertices[:-1]) / widths).repeat(widths)
    return np.maximum(slopes.reshape(lower.shape)[..., :-1], 0.0)


def _meet(vs) -> ProbVec:
    return ProbVec(meet_rows(_stacked(vs)))


def _join(vs) -> ProbVec:
    return ProbVec(join_rows(_stacked(vs)))


def meet(p: ProbVec, q: ProbVec) -> ProbVec:
    """Greatest lower bound: the most ordered vector majorized by both inputs."""
    return _meet((p, q))


def join(p: ProbVec, q: ProbVec) -> ProbVec:
    """Least upper bound: the most disordered vector that majorizes both inputs."""
    return _join((p, q))


def _many(op, vs) -> ProbVec:
    vs = tuple(vs)
    if not vs:
        raise EmptyCollection("need at least one vector")
    return vs[0] if len(vs) == 1 else op(vs)


def meet_many(vs) -> ProbVec:
    """Common resource of all inputs: its suffix sums are the pointwise max of theirs.

    One pass for any number of inputs, padded to the largest dimension; a
    single input is returned as it is.
    """
    return _many(_meet, vs)


def join_many(vs) -> ProbVec:
    """Common product of all inputs: its suffix sums are the greatest convex
    minorant of the pointwise min of theirs, so one hull serves any number of inputs.

    Padded to the largest dimension; a single input is returned as it is.
    """
    return _many(_join, vs)
