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

The hull is Andrew's monotone chain in Python, over d + 1 points at the
abscissae 0, 1, ..., d.  Those points are nearly convex: the minimum of
convex suffix-sum curves fails to be convex only near crossings, so at
d = 512 a median of 6 of 511 consecutive triples make the chain pop.  For
rows of ``_REPLAY_WIDTH`` points or more, ``join_rows`` therefore evaluates
the chain's own test on every consecutive triple of the whole stack in one
numpy pass, and lists each row's popping triples: from that list the first
popping triple at or after any point is one bisection away.  The chain is
then replayed, and wherever its top two vertices are consecutive points it
appends the whole run up to the next popping triple in one step.  The chain
would push the same points one by one without a pop, so the vertices are
its own, bit for bit.  The ratio ladder's hull points are far from convex
(half their triples pop), so the ladder runs the plain chain.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache

import numpy as np

from .errors import EmptyCollection
from .schmidt import ProbVec, stack_rows


_REPLAY_WIDTH = 80  # rows of fewer points run the plain chain: the numpy pass costs more than it saves


def _lower_hull(x, y, pops=None) -> list[int]:
    """Vertex indices of the lower convex hull of points (x[i], y[i]), x increasing.

    Andrew's monotone chain; of collinear points only the two ends stay.  Pass
    lists or tuples of Python floats (``ndarray.tolist()``): numpy scalars make the
    loop several times slower, and indexing a ``range`` about twice as slow.

    ``pops`` replays the chain in runs, for points at x = 0.0, 1.0, ..., d.  It
    lists, ascending and then d + 1, every k whose consecutive triple
    (k - 2, k - 1, k) passes the chain's pop test (see ``_popping_points``).  When
    the top two vertices are k - 2 and k - 1 and that test fails for k, the chain
    pushes k without a pop, and the top two are k - 1 and k; by induction it
    pushes every point before the next popping point the same way, and the replay
    appends them in one step.  So the vertices are the chain's own, bit for bit,
    and the loop visits only the points around popping triples.
    """
    hull = [0]
    k, n = 1, len(x)
    while k < n:
        if pops is not None and len(hull) > 1 and hull[-2] == k - 2:  # hull[-1] is k - 1
            stop = pops[bisect_left(pops, k)]  # the first popping point at or after k
            if stop > k:
                hull += range(k, stop)
                k = stop
                continue
        # the chain's own steps: every point, or between runs one point at a time
        for k in range(k, n if pops is None else k + 1):
            while len(hull) >= 2:
                i, j = hull[-2], hull[-1]
                if (y[j] - y[i]) * (x[k] - x[j]) >= (y[k] - y[j]) * (x[j] - x[i]):
                    hull.pop()
                else:
                    break
            hull.append(k)
        k += 1
    return hull


def _popping_points(rows: np.ndarray) -> list[list[int]]:
    """``_lower_hull``'s ``pops`` for each row of a 2-d stack of ordinates at x = 0..d.

    On consecutive points the chain's test multiplies both of its sides by a unit
    step, exactly, so on (k - 2, k - 1, k) it is ``y[k-1] - y[k-2] >= y[k] - y[k-1]``,
    evaluated here for every triple of the stack at once.
    """
    width = rows.shape[-1]
    steps = rows[:, 1:] - rows[:, :-1]
    row, col = (steps[:, :-1] >= steps[:, 1:]).nonzero()
    pops = [[] for _ in range(len(rows))]
    for r, k in zip(row.tolist(), (col + 2).tolist()):
        pops[r].append(k)
    for p in pops:
        p.append(width)
    return pops


@lru_cache(maxsize=32)
def _abscissae(width: int) -> tuple[float, ...]:
    """0.0, 1.0, ..., width - 1 as Python floats, the join's abscissae."""
    return tuple(np.arange(width, dtype=float).tolist())


def _row_hulls(rows: np.ndarray) -> list[list[int]]:
    """Lower hull vertices of the points (k, row[k]), k = 0..d, of each row of a 2-d stack.

    Rows of ``_REPLAY_WIDTH`` points or more are replayed in runs.
    """
    width = rows.shape[-1]
    x = _abscissae(width)
    ys = rows.tolist()
    if width < _REPLAY_WIDTH:
        return [_lower_hull(x, y) for y in ys]
    return [_lower_hull(x, y, pops) for y, pops in zip(ys, _popping_points(rows))]


def least_concave_majorant(values) -> np.ndarray:
    """Upper concave envelope of points (k, values[k]) at the same abscissae.

    Its vertices are the lower hull of the negated points, with collinear
    points merged.  Returns the envelope ordinates, which coincide with the
    input at hull vertices and interpolate linearly in between.  Raises
    ``ValueError`` unless the values are a 1-d sequence of finite numbers.
    """
    try:
        t = np.asarray(values, dtype=float)
    except (TypeError, OverflowError):  # e.g. a mapping, or an integer beyond float range
        raise ValueError("expected a 1-d sequence of finite numbers") from None
    if t.ndim != 1 or not np.isfinite(t).all():
        raise ValueError("expected a 1-d sequence of finite numbers")
    if t.size <= 2:
        return t.copy()
    hull = _row_hulls(-t[None])[0]
    return np.interp(np.arange(t.size), hull, t[hull])


def _suffix_sums(entries: np.ndarray) -> np.ndarray:
    """Suffix sums S[..., k] = sum of entries[..., k:] for k = 0..d, with S[..., d] = 0.

    Taken along the last axis: a ``(k, d)`` stack gives ``(k, d+1)``, one row per vector.
    """
    s = np.zeros(entries.shape[:-1] + (entries.shape[-1] + 1,))
    entries[..., ::-1].cumsum(axis=-1, out=s[..., -2::-1])
    return s


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
    for row, hull in enumerate(_row_hulls(lower.reshape(-1, width))):
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


def meet(p: ProbVec, q: ProbVec) -> ProbVec:
    """Greatest lower bound: the most ordered vector majorized by both inputs."""
    return ProbVec(meet_rows(stack_rows((p, q))))


def join(p: ProbVec, q: ProbVec) -> ProbVec:
    """Least upper bound: the most disordered vector that majorizes both inputs."""
    return ProbVec(join_rows(stack_rows((p, q))))


def _many(kernel, vs) -> ProbVec:
    vs = tuple(vs)
    if not vs:
        raise EmptyCollection("need at least one vector")
    return vs[0] if len(vs) == 1 else ProbVec(kernel(stack_rows(vs)))


def meet_many(vs) -> ProbVec:
    """Common resource of all inputs: its suffix sums are the pointwise max of theirs.

    One pass for any number of inputs, padded to the largest dimension; a
    single input is returned as it is.
    """
    return _many(meet_rows, vs)


def join_many(vs) -> ProbVec:
    """Common product of all inputs: its suffix sums are the greatest convex
    minorant of the pointwise min of theirs, so one hull serves any number of inputs.

    Padded to the largest dimension; a single input is returned as it is.
    """
    return _many(join_rows, vs)
