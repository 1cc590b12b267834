"""Entanglement monotones, optimal conversion probability and the ratio ladder.

The d monotones of a spectrum are its suffix sums.  The best single-copy
conversion probability from a source to a target spectrum is the minimum
ratio of their monotones.  The lower convex hull of the monotone curve
(E_target(l), E_source(l)) from there on gives the ladder of ratios
r_1 < ... < r_k with block boundaries l_1 > ... > l_k = 1, from which the
deterministically reachable intermediate state is assembled block by block.
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
    return np.minimum.reduce(_ratios(_suffix_sums(sources), _suffix_sums(targets), get_epsilon()),
                             axis=-1)


def p_max(source: ProbVec, target: ProbVec) -> float:
    """Optimal probability of converting the source into the target spectrum.

    Equals 1 exactly when the source is majorized by the target (the
    deterministic case).  Raises ``RankDeficit`` when the conversion is
    impossible even probabilistically.
    """
    return float(p_max_rows(*pad_pair(source, target)))


def ratio_ladder(source: ProbVec, target: ProbVec) -> RatioLadder:
    """Full ratio ladder of the optimal source -> target conversion.

    Rungs after the first are the edges of the lower convex hull of the
    points (E_target(l), E_source(l)), l = l_1..1; their slopes are the ratios.
    """
    d = max(source.dim, target.dim)
    source, target = source.padded(d), target.padded(d)
    _check_ranks(source.as_array(), target.as_array())
    es, et = _suffix_sums(source.as_array()), _suffix_sums(target.as_array())
    ratios = _ratios(es, et, get_epsilon())
    l1 = int(ratios[:-1].argmin()) + 1  # the smallest-index minimizer
    r1 = float(min(ratios[l1 - 1], ratios[-1]))  # the last column caps it at 1
    es, et = es.tolist(), et.tolist()
    blocks = [l1 - 1 - v for v in _lower_hull(et[l1 - 1 :: -1], es[l1 - 1 :: -1])]
    ratios = [r1] + [(es[b] - es[a]) / (et[b] - et[a]) for a, b in zip(blocks, blocks[1:])]
    return RatioLadder(
        source=source,
        target=target,
        ratios=tuple(ratios),
        indices=tuple(b + 1 for b in blocks),
    )


def r_vector(ladder: RatioLadder) -> np.ndarray:
    """Block-constant, non-increasing vector carrying ratio j on block j."""
    rv = np.empty(ladder.dim)
    hi = ladder.l0  # exclusive 1-indexed upper bound of the current block
    for r, lo in zip(ladder.ratios, ladder.indices):
        rv[lo - 1 : hi - 1] = r
        hi = lo
    return rv


def _intermediate(ladder: RatioLadder) -> tuple[np.ndarray, ProbVec]:
    """The ladder's block ratio vector and the intermediate state r * target."""
    rv = r_vector(ladder)
    return rv, ProbVec(rv * ladder.target.as_array())


def intermediate_state(source: ProbVec, target: ProbVec) -> ProbVec:
    """Most target-like spectrum deterministically reachable from the source.

    The entrywise product of the ladder's block-constant ratio vector with
    the target spectrum; it majorizes the target and is majorized by the
    source.
    """
    return _intermediate(ratio_ladder(source, target))[1]
