"""Dense bipartite state-vector simulator.

Independent cross-check for the analytic machinery: states are kept as full
d x d amplitude matrices, Schmidt spectra are the eigenvalues of the reduced
density matrix, and a diagonal Kraus operator acts by scaling the matrix's
rows.  Where the rows have disjoint supports, as in every state built here,
that matrix is diagonal and its eigenvalues are the squared row norms, with
the eigensolver's bits; any other state goes to the eigensolver.  Nothing here
reuses the cumulative-sum or ladder code paths.

A plan of either kind is walked by its steps.  A deterministic step, a multi-state
plan's heads and tails included, only sets the spectrum that the next measurement acts
on (the multi-round local protocol realizing it is out of scope); the dense state is
built there, and measurements are sampled from exact branch probabilities.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .config import get_epsilon
from .errors import NotNormalized
from .protocols import (ConversionPlan, KrausDiagonals, MultiStatePlan, StepKind,
                        _kraus_shape_error, validate_plan)
from .schmidt import ProbVec, _ArrayValue

RNG_ALGORITHM = "numpy.random.PCG64"
_BLOCK = 8192  # uniforms per draw
_UNIT_BITS = 64  # amplitude peaks within 2**-64 .. 2**64 are squared as they are


@dataclass(frozen=True, eq=False)
class BipartiteState(_ArrayValue):
    """Pure bipartite state as the matrix of amplitudes on |i>|j>.

    The amplitudes are real or complex numbers, all finite and not all zero;
    anything else raises ``ValueError``.  The matrix is copied and read-only,
    and equality, hashing and pickling go by its entries.  Any scale is
    accepted: where the largest real or imaginary part is far from 1,
    ``exponent`` records its power of two, and the spectrum is taken from the
    matrix scaled by 2**-exponent, so that its squares neither underflow nor
    overflow.
    """

    amplitudes: np.ndarray
    exponent: int = field(init=False, default=0, repr=False)
    _arrays = ("amplitudes",)

    def __post_init__(self):
        arr = np.asarray(self.amplitudes)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("amplitude matrix must be square")
        if arr.dtype.kind not in "iufc":
            raise ValueError(f"amplitudes must be real or complex numbers, not {arr.dtype}")
        arr = np.array(arr, order="C")
        # the largest magnitude of a real or imaginary part; NaN if any is NaN
        parts = arr.view(arr.real.dtype) if arr.dtype.kind == "c" else arr
        peak = max(float(parts.max()), -float(parts.min())) if arr.size else 0.0
        if not math.isfinite(peak):
            raise ValueError("amplitudes must be finite")
        if peak == 0.0:
            raise ValueError("amplitude matrix must not be zero")
        exponent = math.frexp(peak)[1]
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)
        object.__setattr__(self, "exponent", exponent if abs(exponent) > _UNIT_BITS else 0)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class OutcomeStats:
    """Monte Carlo tallies of repeated plan executions."""

    shots: int
    successes: int
    empirical_rate: float
    residual_mean: tuple[float, ...] | None
    seed: int | None
    rng_algorithm: str = RNG_ALGORITHM

    def to_dict(self) -> dict:
        doc = dict(vars(self))  # a shallow copy: ``asdict`` would deep-copy each float
        if self.residual_mean is not None:
            doc["residual_mean"] = list(self.residual_mean)  # a JSON array, as read back
        return doc


def _reported_seed(seed) -> int | None:
    """A seed as a report shows it: integers (numpy ones too) as int, else None."""
    return int(seed) if isinstance(seed, numbers.Integral) else None


def embed(p: ProbVec) -> BipartiteState:
    """Diagonal amplitude matrix with entries sqrt(p_i)."""
    return BipartiteState(np.diag(np.sqrt(p.as_array())))


def schmidt_spectrum(state: BipartiteState) -> ProbVec:
    """Eigenvalues of the reduced density matrix A A^dagger, sorted descending.

    These are the squared singular values of the amplitude matrix A.  Where no
    column of A has two nonzero entries, its rows have disjoint supports, so
    A A^dagger is diagonal and its eigenvalues are the row sums of |a_ij|^2;
    every state ``embed`` and a diagonal Kraus operator build is of this kind.
    A row with one nonzero entry sums to that entry's square exactly, which is
    also what the eigensolver returns for a diagonal matrix, so a diagonal
    state's spectrum has the same bits on either path.  Any other state goes
    to a symmetric eigensolver on the d x d Gram matrix, at about half the cost
    of an SVD; rounding can leave an eigenvalue of a rank-deficient state a few
    ulp below zero, and it is clamped to zero.  Integer amplitudes are squared
    in floating point.  The sum runs in descending order.
    """
    a = state.amplitudes
    if a.dtype.kind in "iu":  # integer squares overflow: 2**32 squared in int64
        a = a.astype(float)
    if state.exponent:  # two exact power-of-two factors, neither of which overflows
        half = state.exponent // 2
        a = a * 2.0 ** -half * 2.0 ** (half - state.exponent)
    if np.count_nonzero(a, axis=0).max() <= 1:
        lam = np.sort(np.vecdot(a, a).real)[::-1]  # vecdot conjugates its first factor
    else:
        lam = np.maximum(np.linalg.eigvalsh(a @ a.conj().T), 0.0)[::-1]
    return ProbVec(lam / lam.sum())


def _branch_spectrum(state: BipartiteState, diag: np.ndarray, prob: float) -> ProbVec:
    """Schmidt spectrum of the normalized branch diag(k) @ amplitudes / sqrt(prob)."""
    return schmidt_spectrum(BipartiteState(diag[:, None] * state.amplitudes / np.sqrt(prob)))


def branch_probabilities(state: BipartiteState, kraus: KrausDiagonals) -> tuple[float, float]:
    """Exact probabilities of the two measurement outcomes of a normalized state.

    Raises ``ValueError`` unless both Kraus diagonals are 1-d of the state's dimension,
    and ``NotNormalized`` when the state's squared norm is off 1 by more than epsilon.
    """
    shape, m, n = (state.dim,), kraus.m_diag.shape, kraus.n_diag.shape
    if not shape == m == n:
        raise _kraus_shape_error(shape, m, n)
    # a state far from unit scale is far from normalized, and its squared norm may overflow
    if state.exponent or not abs(state.norm() ** 2 - 1.0) <= get_epsilon():
        raise NotNormalized("state is not normalized: its squared norm is off 1 by more "
                            f"than {get_epsilon():g}")
    a = state.amplitudes
    p_m = float(np.linalg.norm(kraus.m_diag[:, None] * a) ** 2)
    p_n = float(np.linalg.norm(kraus.n_diag[:, None] * a) ** 2)
    return p_m, p_n


def _walk_plan(plan: ConversionPlan | MultiStatePlan):
    """Resolve each measurement of ``plan.steps`` once, on a dense state built only where it acts.

    One (p_success, failure_spectrum) record per measurement on the success
    path, in execution order, shared by all shots; ``failure_spectrum`` is an
    array, or None for a failure branch of probability <= epsilon.
    """
    records = []
    spectrum = plan.steps[0].from_state  # the spectrum the next measurement acts on
    for step, after in zip(plan.steps, plan.steps[1:] + (None,)):
        if step.kind is StepKind.DETERMINISTIC:
            spectrum = step.to_state
            continue
        state = embed(spectrum)
        p_m, p_n = branch_probabilities(state, step.kraus)
        records.append((p_m, _branch_spectrum(state, step.kraus.n_diag, p_n).as_array()
                        if p_n > get_epsilon() else None))
        if p_m <= get_epsilon():
            break  # success path unreachable, later steps never execute
        if after is not None and after.kind is StepKind.PROBABILISTIC:  # measured next
            spectrum = _branch_spectrum(state, step.kraus.m_diag, p_m)
    return records


def _failure_counts(p_success: list[float], shots: int, rng) -> list[int]:
    """How many of ``shots`` shots fail at each measurement.

    A shot draws one uniform per measurement it reaches and fails at the first
    draw >= that measurement's success probability.  Each block holds at most
    _BLOCK draws and no more than the remaining shots still need, so the draws
    end where the per-shot ones would.  One measurement is counted a block at a
    time; several are stepped through draw by draw.
    """
    counts = [0] * len(p_success)
    if len(p_success) == 1:
        for start in range(0, shots, _BLOCK):
            counts[0] += int(np.count_nonzero(rng.random(min(_BLOCK, shots - start))
                                              >= p_success[0]))
        return counts
    started, step = 0, 0  # shots begun; next measurement of the shot in progress
    while started < shots or step:
        for u in rng.random(min(_BLOCK, shots - started + (step > 0))).tolist():
            if step == 0:
                started += 1
            if u >= p_success[step]:
                counts[step] += 1
                step = 0
            else:
                step = (step + 1) % len(p_success)
    return counts


def run_plan(plan: ConversionPlan | MultiStatePlan, shots: int, seed=None) -> OutcomeStats:
    """Monte Carlo execution of a plan with a reproducible generator.

    Stream contract: shots run in order, and each shot draws one uniform from
    ``np.random.default_rng(seed)`` for each probabilistic step it reaches,
    failing at the first draw >= that step's success probability.  A failure
    whose branch has probability <= epsilon counts as a success.  Draws come in
    blocks, so a seed gives the same report whatever the block sizes, and
    memory does not grow with ``shots``.

    With n_k of the N failures at measurement k, ``residual_mean`` is
    sum_k (n_k / N) * f_k over the failure spectra f_k, zero-padded to the
    longest one reached.  A plan with one measurement, as every emitted plan
    is, reports its failure spectrum bit for bit.  ``shots`` is an integer >= 1,
    numpy integers included; anything else raises ``ValueError``.  A
    multi-state plan reports what its core does.
    """
    if isinstance(shots, bool) or not isinstance(shots, numbers.Integral) or shots < 1:
        raise ValueError(f"shots must be an integer >= 1, not {shots!r}")
    shots = int(shots)
    validate_plan(plan)
    records = _walk_plan(plan)
    counts = (_failure_counts([p for p, _ in records], shots, np.random.default_rng(seed))
              if records else [])
    failed = [(n, f) for n, (_, f) in zip(counts, records) if n and f is not None]
    failures = sum(n for n, _ in failed)
    residual_mean = None
    if failed:
        # Hand-written plans may change dimension between steps: the mean is
        # padded to the longest failure spectrum reached.  The first spectrum
        # is written, not added to zeros, so that a lone one keeps its bits.
        (n, f), *rest = failed
        mean = np.zeros(max(f.size for _, f in failed))
        mean[:f.size] = n / failures * f
        for n, f in rest:
            mean[:f.size] += n / failures * f
        residual_mean = tuple(mean.tolist())
    successes = shots - failures
    return OutcomeStats(
        shots=shots,
        successes=successes,
        empirical_rate=successes / shots,
        residual_mean=residual_mean,
        seed=_reported_seed(seed),
    )
