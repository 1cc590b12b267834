"""Dense bipartite state-vector simulator.

Independent cross-check for the analytic machinery: states are kept as full
d x d amplitude matrices, Schmidt spectra are the eigenvalues of the reduced
density matrix, and a diagonal Kraus operator acts by scaling the matrix's
rows.  Nothing here reuses the cumulative-sum or ladder code paths.

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
_BLOCK = 8192  # uniforms per draw and floats per summed chunk
_UNIT_BITS = 64  # amplitude peaks within 2**-64 .. 2**64 are squared as they are
_MANTISSA = np.int64((1 << 52) - 1)  # mantissa bits of a float64


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

    These are the squared singular values of the amplitude matrix A, found by a
    symmetric eigensolver on the d x d Gram matrix at about half the cost of an
    SVD.  Rounding can leave an eigenvalue of a rank-deficient state a few ulp
    below zero; it is clamped to zero.  The sum runs in descending order.
    """
    a = state.amplitudes
    if state.exponent:  # two exact power-of-two factors, neither of which overflows
        half = state.exponent // 2
        a = a * 2.0 ** -half * 2.0 ** (half - state.exponent)
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


def _failed_steps(p_success: list[float], shots: int, rng):
    """Yield, block by block in shot order, the step at which each failing shot fails.

    A shot draws one uniform per probabilistic step it reaches and fails at
    the first draw >= that step's success probability.  Each block holds at
    most _BLOCK draws and no more than the remaining shots still need, so the
    generator ends where the per-shot draws would.
    """
    started, step = 0, 0  # shots begun; next step of the shot in progress
    while started < shots or step:
        failed = []
        for u in rng.random(min(_BLOCK, shots - started + (step > 0))).tolist():
            if step == 0:
                started += 1
            if u >= p_success[step]:
                failed.append(step)
                step = 0
            else:
                step = (step + 1) % len(p_success)
        yield np.array(failed, dtype=np.intp)


def _sum_of_copies(f: np.ndarray, n: int) -> np.ndarray:
    """The float sum ``f + f + ... + f`` of ``n`` copies, added left to right.

    Bit for bit what ``n - 1`` additions in a row give, entry by entry, in
    O(log n) steps over the whole array.  While a running sum ``s`` and
    ``s + x`` stay in one binade [2**e, 2**(e+1)), ``fl(s + x)`` is ``s`` plus
    ``x`` rounded to the binade's spacing, ties to even.  Once an addition
    inside the binade has made ``s`` even in that spacing, every further one
    adds the same amount: the bits of ``s``, read as an integer, advance by a
    constant step up to the binade's last float.  Each round jumps there from
    a sum whose last addition stayed inside its binade, then adds two copies:
    the first leaves the binade, the second stays inside the next one, as the
    sum holds at least four copies.  Zero entries stay as they are; the step
    is never zero while n < 2**52.
    """
    total = f.copy()
    rounds = n.bit_length()  # at least one per binade from 4x to n*x
    if n < 2 * rounds + 5:  # too few copies to reserve two per round
        for _ in range(n - 1):
            total += f
        return total
    nonzero = np.flatnonzero(f)
    x = f[nonzero]
    s4 = x + x + x + x
    s5 = s4 + x
    # no two additions in a row leave a binade: start where the last one stayed inside
    left_binade = (s4.view(np.int64) ^ s5.view(np.int64)) > _MANTISSA  # exponents differ
    s = np.where(left_binade, s4, s5)
    spare = left_binade + (n - 5 - 2 * rounds)  # copies the jumps still owe
    bits = s.view(np.int64)  # s itself, read as integers
    for _ in range(rounds):
        steps = (s + x).view(np.int64) - bits
        jump = np.minimum((_MANTISSA - (bits & _MANTISSA)) // steps, spare)
        spare -= jump
        bits += jump * steps
        s += x
        s += x
    total[nonzero] = s
    return total


def run_plan(plan: ConversionPlan | MultiStatePlan, shots: int, seed=None) -> OutcomeStats:
    """Monte Carlo execution of a plan with a reproducible generator.

    Stream contract: shots run in order, and each shot draws one uniform from
    ``np.random.default_rng(seed)`` for each probabilistic step it reaches,
    failing at the first draw >= that step's success probability.  A failure
    whose branch has probability <= epsilon counts as a success.  The failure
    spectra are summed one by one in shot order, so a seed gives the same
    report whatever the block sizes; memory does not grow with ``shots``.

    A plan with one measurement, as every emitted plan is, fails with one
    spectrum: its failures are counted block by block and their sum is formed
    by ``_sum_of_copies`` in O(d log n) steps, with the bits of the one-by-one
    sum.  A plan with several measurements adds the spectra of its failures
    one at a time.  ``shots`` is an integer >= 1, numpy integers included;
    anything else raises ``ValueError``.  A multi-state plan reports what its core does.
    """
    if isinstance(shots, bool) or not isinstance(shots, numbers.Integral) or shots < 1:
        raise ValueError(f"shots must be an integer >= 1, not {shots!r}")
    shots = int(shots)
    validate_plan(plan)
    records = _walk_plan(plan)
    rng = np.random.default_rng(seed)
    failures, total, reached = 0, None, 0
    if len(records) == 1:
        p, f = records[0]
        for start in range(0, shots, _BLOCK):
            failures += int(np.count_nonzero(rng.random(min(_BLOCK, shots - start)) >= p))
        if f is None:
            failures = 0
        elif failures:
            total, reached = _sum_of_copies(f, failures), f.size
    elif records:
        # Hand-written plans may change dimension between steps: pad the table
        # and report the mean at the longest failure spectrum actually reached.
        lengths = np.array([0 if f is None else f.size for _, f in records])
        table = np.zeros((len(records), max(int(lengths.max()), 1)))
        for row, (_, f) in zip(table, records):
            if f is not None:
                row[:f.size] = f
        rows = max(1, _BLOCK // table.shape[1])
        for idx in _failed_steps([p for p, _ in records], shots, rng):
            idx = idx[lengths[idx] > 0]
            failures += idx.size
            reached = max(reached, int(lengths[idx].max(initial=0)))
            # accumulate adds one spectrum at a time in shot order, as the report
            # promises; a product or np.sum would round differently.
            for i in range(0, idx.size, rows):
                chunk = table[idx[i:i + rows]]
                if total is not None:
                    chunk[0] += total
                total = np.add.accumulate(chunk, axis=0, out=chunk)[-1]
    residual_mean = None
    if failures:
        residual_mean = tuple((total[:reached] / failures).tolist())
    successes = shots - failures
    return OutcomeStats(
        shots=shots,
        successes=successes,
        empirical_rate=successes / shots,
        residual_mean=residual_mean,
        seed=_reported_seed(seed),
    )
