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
from .schmidt import ProbVec, effective_rank, pad_pair


@dataclass(frozen=True)
class MonotoneProfile:
    """Suffix sums E_l = sum of the entries from position l on (1-indexed l)."""

    values: tuple[float, ...]

    def at(self, l: int) -> float:
        return self.values[l - 1]


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


def monotones(p: ProbVec) -> MonotoneProfile:
    return MonotoneProfile(tuple(_suffix_sums(p.as_array())[:-1].tolist()))


def _check_ranks(source: ProbVec, target: ProbVec) -> None:
    rs, rt = effective_rank(source), effective_rank(target)
    if rt > rs:
        raise RankDeficit(
            f"target needs {rt} non-zero coefficients but source has {rs}; "
            "conversion probability is 0"
        )


def _min_ratio(es: np.ndarray, et: np.ndarray, eps: float) -> tuple[float, int]:
    """Smallest-index minimizer of es/et over positions with et > eps."""
    ratios = np.full(et.shape, np.inf)
    admissible = et > eps
    ratios[admissible] = es[admissible] / et[admissible]
    l = int(np.argmin(ratios))
    return min(float(ratios[l]), 1.0), l + 1


def p_max(source: ProbVec, target: ProbVec) -> float:
    """Optimal probability of converting the source into the target spectrum.

    Equals 1 exactly when the source is majorized by the target (the
    deterministic case).  Raises ``RankDeficit`` when the conversion is
    impossible even probabilistically.
    """
    _check_ranks(source, target)
    s, t = pad_pair(source, target)
    r, _ = _min_ratio(_suffix_sums(s), _suffix_sums(t), get_epsilon())
    return r


def ratio_ladder(source: ProbVec, target: ProbVec) -> RatioLadder:
    """Full ratio ladder of the optimal source -> target conversion.

    Rungs after the first are the edges of the lower convex hull of the
    points (E_target(l), E_source(l)), l = l_1..1; their slopes are the ratios.
    """
    _check_ranks(source, target)
    s, t = pad_pair(source, target)
    es, et = _suffix_sums(s), _suffix_sums(t)
    r1, l1 = _min_ratio(es, et, get_epsilon())
    es, et = es.tolist(), et.tolist()
    blocks = [l1 - 1 - v for v in _lower_hull(et[l1 - 1 :: -1], es[l1 - 1 :: -1])]
    ratios = [r1] + [(es[b] - es[a]) / (et[b] - et[a]) for a, b in zip(blocks, blocks[1:])]
    return RatioLadder(
        source=ProbVec(tuple(s.tolist())),
        target=ProbVec(tuple(t.tolist())),
        ratios=tuple(ratios),
        indices=tuple(b + 1 for b in blocks),
    )


def r_vector(ladder: RatioLadder) -> tuple[float, ...]:
    """Block-constant, non-increasing vector carrying ratio j on block j."""
    rv = np.empty(ladder.dim)
    hi = ladder.l0  # exclusive 1-indexed upper bound of the current block
    for r, lo in zip(ladder.ratios, ladder.indices):
        rv[lo - 1 : hi - 1] = r
        hi = lo
    return tuple(float(x) for x in rv)


def _intermediate(ladder: RatioLadder) -> tuple[np.ndarray, ProbVec]:
    """The ladder's block ratio vector and the intermediate state r * target."""
    rv = np.asarray(r_vector(ladder))
    return rv, ProbVec(tuple(float(x) for x in rv * ladder.target.as_array()))


def intermediate_state(source: ProbVec, target: ProbVec) -> ProbVec:
    """Most target-like spectrum deterministically reachable from the source.

    The entrywise product of the ladder's block-constant ratio vector with
    the target spectrum; it majorizes the target and is majorized by the
    source.
    """
    return _intermediate(ratio_ladder(source, target))[1]
