"""Dense bipartite state-vector simulator.

Independent cross-check for the analytic machinery: states are kept as full
d x d amplitude matrices, Schmidt spectra come from singular values, and
measurements act as explicit matrix products.  Nothing here reuses the
cumulative-sum or ladder code paths.

Deterministic plan steps are simulated as direct spectrum replacement (the
multi-round local protocol realizing them is out of scope); probabilistic
steps are sampled from exact branch probabilities.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .config import get_epsilon
from .protocols import ConversionPlan, KrausDiagonals, StepKind, validate_plan
from .schmidt import ProbVec

RNG_ALGORITHM = "numpy.random.PCG64"
_BLOCK = 8192  # uniforms per draw and floats per summed chunk


@dataclass(frozen=True)
class BipartiteState:
    """Pure bipartite state as the matrix of amplitudes on |i>|j>."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.amplitudes)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("amplitude matrix must be square")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

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
        return {
            "shots": self.shots,
            "successes": self.successes,
            "empirical_rate": self.empirical_rate,
            "residual_mean": None if self.residual_mean is None else list(self.residual_mean),
            "seed": self.seed,
            "rng_algorithm": self.rng_algorithm,
        }


def _reported_seed(seed) -> int | None:
    """A seed as a report shows it: integers (numpy ones too) as int, else None."""
    return int(seed) if isinstance(seed, numbers.Integral) else None


def embed(p: ProbVec) -> BipartiteState:
    """Diagonal amplitude matrix with entries sqrt(p_i)."""
    return BipartiteState(np.diag(np.sqrt(p.as_array())))


def schmidt_spectrum(state: BipartiteState) -> ProbVec:
    """Squared singular values of the amplitude matrix, sorted descending."""
    sv = np.linalg.svd(state.amplitudes, compute_uv=False)
    lam = sv**2
    lam = lam / lam.sum()
    lam = np.sort(lam)[::-1]
    return ProbVec(tuple(float(x) for x in lam))


def _branch_spectrum(state: BipartiteState, diag, prob: float) -> ProbVec:
    """Schmidt spectrum of the normalized branch diag(k) @ amplitudes / sqrt(prob)."""
    return schmidt_spectrum(BipartiteState(np.diag(diag) @ state.amplitudes / np.sqrt(prob)))


def branch_probabilities(state: BipartiteState, kraus: KrausDiagonals) -> tuple[float, float]:
    """Exact probabilities of the two measurement outcomes."""
    if state.dim != kraus.dim:
        raise ValueError(f"state dimension {state.dim} != Kraus dimension {kraus.dim}")
    a = state.amplitudes
    p_m = float(np.linalg.norm(np.diag(kraus.m_diag) @ a) ** 2)
    p_n = float(np.linalg.norm(np.diag(kraus.n_diag) @ a) ** 2)
    return p_m, p_n


def _walk_plan(plan: ConversionPlan):
    """Resolve each step once against the dense simulator.

    Returns one (p_success, failure_spectrum) record per probabilistic step on
    the success path, in execution order; all shots share these exact values.
    ``failure_spectrum`` is an array, or None when the failure branch has
    probability <= epsilon.
    """
    records = []
    state = embed(plan.steps[0].from_state)
    for step in plan.steps:
        if step.kind is StepKind.DETERMINISTIC:
            state = embed(step.to_state)
            continue
        p_m, p_n = branch_probabilities(state, step.kraus)
        records.append((p_m, _branch_spectrum(state, step.kraus.n_diag, p_n).as_array()
                        if p_n > get_epsilon() else None))
        if p_m <= get_epsilon():
            break  # success path unreachable, later steps never execute
        state = embed(_branch_spectrum(state, step.kraus.m_diag, p_m))
    return records


def _failed_steps(p_success: list[float], shots: int, rng):
    """Yield, block by block in shot order, the step at which each failing shot fails.

    A shot draws one uniform per probabilistic step it reaches and fails at
    the first draw >= that step's success probability.  Each block holds at
    most _BLOCK draws and no more than the remaining shots still need, so the
    generator ends where the per-shot draws would.
    """
    if len(p_success) == 1:  # every plan the planners emit
        for start in range(0, shots, _BLOCK):
            u = rng.random(min(_BLOCK, shots - start))
            yield np.zeros(np.count_nonzero(u >= p_success[0]), dtype=np.intp)
        return
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


def run_plan(plan: ConversionPlan, shots: int, seed=None) -> OutcomeStats:
    """Monte Carlo execution of a plan with a reproducible generator.

    Stream contract: shots run in order, and each shot draws one uniform from
    ``np.random.default_rng(seed)`` for each probabilistic step it reaches,
    failing at the first draw >= that step's success probability.  A failure
    whose branch has probability <= epsilon counts as a success.  The failure
    spectra are summed one by one in shot order, so a seed gives the same
    report whatever the block sizes; memory does not grow with ``shots``.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    validate_plan(plan)
    records = _walk_plan(plan)
    rng = np.random.default_rng(seed)
    failures, total, reached = 0, None, 0
    if records:
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
        residual_mean = tuple(float(x) for x in total[:reached] / failures)
    successes = shots - failures
    return OutcomeStats(
        shots=shots,
        successes=successes,
        empirical_rate=successes / shots,
        residual_mean=residual_mean,
        seed=_reported_seed(seed),
    )
