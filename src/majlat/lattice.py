"""Meet and join on the majorization lattice.

The meet's cumulative sums are the pointwise minimum of the inputs' (its
increments are automatically sorted, because the minimum of two concave
curves is concave).  The join takes the pointwise maximum, which in general
is not concave, and repairs it with the least concave majorant before
differencing.

Both operations are evaluated in suffix-sum space: a prefix sum near 1
carries absolute rounding of order 1e-16, which is catastrophic *relative*
error for the tiny tail entries that conversion ratios divide by, while
suffix sums keep the tail at full relative precision.  min/max of prefix
sums dualize to max/min of suffix sums, so the results are identical.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyCollection
from .schmidt import ProbVec, pad_pair


def cumulative_sums(p: ProbVec) -> tuple[float, ...]:
    """Partial sums s_0 = 0, s_1, ..., s_d of a canonical vector."""
    return (0.0,) + tuple(float(x) for x in np.cumsum(p.as_array()))


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
    n = t.size
    if n <= 2:
        return t.copy()
    hull = _lower_hull(range(n), (-t).tolist())
    env = np.empty(n)
    for a, b in zip(hull[:-1], hull[1:]):
        env[a] = t[a]
        if b - a > 1:
            steps = np.arange(1, b - a)
            env[a + 1 : b] = t[a] + (t[b] - t[a]) * steps / (b - a)
    env[hull[-1]] = t[hull[-1]]
    return env


def _suffix_sums(entries: np.ndarray) -> np.ndarray:
    """Suffix sums S[k] = sum of entries[k:] for k = 0..d, with S[d] = 0."""
    s = np.zeros(entries.size + 1)
    s[:-1] = np.cumsum(entries[::-1])[::-1]
    return s


def _pack(entries: np.ndarray) -> ProbVec:
    return ProbVec(tuple(float(x) for x in np.clip(entries, 0.0, None)))


def meet(p: ProbVec, q: ProbVec) -> ProbVec:
    """Greatest lower bound: the most ordered vector majorized by both inputs."""
    a, b = pad_pair(p, q)
    upper = np.maximum(_suffix_sums(a), _suffix_sums(b))
    return _pack(upper[:-1] - upper[1:])


def join(p: ProbVec, q: ProbVec) -> ProbVec:
    """Least upper bound: the most disordered vector that majorizes both inputs."""
    a, b = pad_pair(p, q)
    lower = np.minimum(_suffix_sums(a), _suffix_sums(b))
    # greatest convex minorant, via the concave majorant of the negation
    env = -least_concave_majorant(-lower)
    return _pack(env[:-1] - env[1:])


def _fold(op, vs) -> ProbVec:
    vs = list(vs)
    if not vs:
        raise EmptyCollection("need at least one vector")
    d = max(v.dim for v in vs)
    acc = vs[0].padded(d)
    for v in vs[1:]:
        acc = op(acc, v.padded(d))
    return acc


def meet_many(vs) -> ProbVec:
    """Left fold of the binary meet; order-independent by lattice associativity."""
    return _fold(meet, vs)


def join_many(vs) -> ProbVec:
    """Left fold of the binary join; order-independent by lattice associativity."""
    return _fold(join, vs)
