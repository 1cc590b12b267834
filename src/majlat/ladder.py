"""Entanglement monotones, optimal conversion probability and the ratio ladder.

The d monotones of a spectrum are its suffix sums.  The best single-copy
conversion probability from a source to a target spectrum is the minimum
ratio of their monotones.  The lower convex hull of the monotone curve
(E_target(l), E_source(l)) from there on gives the ladder of ratios
r_1 < ... < r_k with block boundaries l_1 > ... > l_k = 1, from which the
deterministically reachable intermediate state is assembled block by block.

The row kernels here (``monotone_rows``, ``p_max_rows``, ``ladder_rows`` and
``r_rows``) take an ``(N, d)`` stack or a single ``(d,)`` row, as in
``schmidt``.  ``ladder_rows`` and ``r_rows`` give a single row a short path
that keeps its bookkeeping in Python scalars, without reshapes or repeats,
and runs the same float operations on the same operands, so one row gets the
bits it would get in a stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import get_epsilon
from .errors import RankDeficit
from .lattice import _lower_hull, _suffix_sums
from .schmidt import ProbVec, pad_pair, rank_rows


@dataclass(frozen=True)
class RatioLadder:
    """Minimized monotone-ratio sequence of a source -> target conversion.

    ``ratios[j]`` belongs to block j+1 covering entries
    [indices[j], indices[j-1] - 1] (1-indexed, with the virtual index l_0 =
    d + 1).  The first ratio is the conversion probability; the last block
    always starts at 1.
    """

    source: ProbVec
    target: ProbVec
    ratios: tuple[float, ...]
    indices: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.ratios)

    @property
    def dim(self) -> int:
        return self.source.dim

    @property
    def l0(self) -> int:
        return self.dim + 1


def monotone_rows(entries: np.ndarray) -> np.ndarray:
    """Monotones E_1..E_d of each row of entries (a row kernel, as in ``schmidt``)."""
    return _suffix_sums(entries)[..., :-1]


def monotones(p: ProbVec) -> np.ndarray:
    """Suffix sums E_l = sum of the entries from position l on, at index l - 1."""
    return monotone_rows(p.as_array())


def _rank_deficit(need: int, has: int, target: str = "target", source: str = "source"
                  ) -> RankDeficit:
    """The error for a target with ``need`` entries above epsilon where its source has
    ``has``; ``target`` and ``source`` name the two in the message."""
    return RankDeficit(f"{target} needs {need} non-zero coefficients but {source} has {has}; "
                       "conversion probability is 0")


def _check_ranks(sources: np.ndarray, targets: np.ndarray) -> None:
    """Raise ``RankDeficit`` for the first row whose target has more entries above
    epsilon than its source."""
    for rs, rt in zip(rank_rows(sources), rank_rows(targets)):
        if rt > rs:
            raise _rank_deficit(rt, rs)


def _ratios(es: np.ndarray, et: np.ndarray, eps: float) -> np.ndarray:
    """es/et at the positions where et > eps, inf elsewhere, and 1 in the last
    column (where et, the empty suffix sum, is 0), so that each row's minimum is
    its minimum ratio capped at 1."""
    ratios = np.empty(et.shape)
    ratios.fill(np.inf)
    np.divide(es, et, out=ratios, where=et > eps)
    ratios[..., -1] = 1.0
    return ratios


def p_max_rows(sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """``p_max`` of each row of sources to the same row of targets (two stacks of one shape)."""
    _check_ranks(sources, targets)
    ratios = _ratios(_suffix_sums(sources), _suffix_sums(targets), get_epsilon())
    return np.minimum.reduce(ratios, axis=-1) + 0.0  # a zero is +0.0, also a -0.0 ratio


def p_max(source: ProbVec, target: ProbVec) -> float:
    """Optimal probability of converting the source into the target spectrum.

    Equals 1 exactly when the source is majorized by the target (the
    deterministic case).  Raises ``RankDeficit`` when the conversion is
    impossible even probabilistically.
    """
    return float(p_max_rows(*pad_pair(source, target)))


def ladder_rows(sources: np.ndarray, targets: np.ndarray) -> tuple[list, list]:
    """Ratios and block indices of the ratio ladder of each row of sources to the same
    row of targets (two ``(N, d)`` stacks of one shape, or two ``(d,)`` rows), one
    list of each per row.

    Raises ``RankDeficit`` for the first row whose conversion is impossible.  The
    monotones, their ratios, each row's first block boundary l_1 and its first
    ratio, which is its ``p_max``, are taken for all rows at once; then each row's
    further rungs come from one ``_lower_hull`` call, each rung ratio a quotient of
    two differences of monotones in Python floats.  One row takes l_1 and its
    first ratio as Python scalars, picked from the same ratios by the same rule.  A
    zero first ratio is +0.0, as in ``p_max_rows``, also where a source's -0.0
    entries give -0.0 suffix sums.
    """
    _check_ranks(sources, targets)
    es, et = _suffix_sums(sources), _suffix_sums(targets)
    ratios = _ratios(es, et, get_epsilon())
    if ratios.ndim == 1:
        top = int(ratios[:-1].argmin())
        first = min(float(ratios[top]), float(ratios[-1])) + 0.0
        rows = [(et.tolist(), es.tolist(), top, first)]
    else:
        width = es.shape[-1]
        ratios = ratios.reshape(-1, width)
        tops = ratios[:, :-1].argmin(axis=1)  # l1 - 1, the smallest-index minimizer
        # ratios[l1 - 1], capped at 1 by the last column
        firsts = np.minimum(ratios[np.arange(len(tops)), tops], ratios[:, -1]) + 0.0
        rows = zip(et.reshape(-1, width).tolist(), es.reshape(-1, width).tolist(),
                   tops.tolist(), firsts.tolist())
    rows_ratios, rows_indices = [], []
    for x, y, top, first in rows:
        blocks = [top - v for v in _lower_hull(x[top::-1], y[top::-1])]
        rows_ratios.append([first] + [(y[b] - y[a]) / (x[b] - x[a])
                                      for a, b in zip(blocks, blocks[1:])])
        rows_indices.append([b + 1 for b in blocks])
    return rows_ratios, rows_indices


def _padded(source: ProbVec, target: ProbVec) -> tuple[ProbVec, ProbVec]:
    d = max(source.dim, target.dim)
    return source.padded(d), target.padded(d)


def ratio_ladder(source: ProbVec, target: ProbVec) -> RatioLadder:
    """Full ratio ladder of the optimal source -> target conversion: ``ladder_rows``
    on one row.

    Rungs after the first are the edges of the lower convex hull of the
    points (E_target(l), E_source(l)), l = l_1..1; their slopes are the ratios.
    """
    source, target = _padded(source, target)
    (ratios,), (indices,) = ladder_rows(source.as_array(), target.as_array())
    return RatioLadder(source=source, target=target, ratios=tuple(ratios),
                       indices=tuple(indices))


def r_rows(ratios, indices, shape: tuple[int, ...]) -> np.ndarray:
    """Block-constant, non-increasing vectors of the given shape, ``(N, d)`` or ``(d,)``
    for one, row i carrying ratios[i][j] on block j of indices[i]."""
    if len(shape) == 1:  # one row: its blocks filled in place
        rv = np.empty(shape)
        hi = shape[0] + 1  # l_0, the exclusive 1-indexed end of block 1
        for r, lo in zip(ratios[0], indices[0]):
            rv[lo - 1 : hi - 1] = r
            hi = lo
        return rv
    values, widths = [], []
    for row_ratios, row_indices in zip(ratios, indices):
        bounds = [*row_indices[::-1], shape[-1] + 1]  # l_k = 1, ..., l_1, l_0
        values += row_ratios[::-1]
        widths += [b - a for a, b in zip(bounds, bounds[1:])]
    return np.array(values).repeat(np.array(widths, dtype=np.intp)).reshape(shape)


def r_vector(ladder: RatioLadder) -> np.ndarray:
    """Block-constant, non-increasing vector carrying ratio j on block j."""
    return r_rows([ladder.ratios], [ladder.indices], (ladder.dim,))


def intermediate_state(source: ProbVec, target: ProbVec) -> ProbVec:
    """Most target-like spectrum deterministically reachable from the source.

    The entrywise product of the ladder's block-constant ratio vector with
    the target spectrum; it majorizes the target and is majorized by the
    source.
    """
    ladder = ratio_ladder(source, target)
    return ProbVec(r_vector(ladder) * ladder.target.as_array())
