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
from .errors import DegenerateBranch
from .protocols import ConversionPlan, KrausDiagonals, StepKind, validate_plan
from .schmidt import ProbVec

RNG_ALGORITHM = "numpy.random.PCG64"


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
class MeasureResult:
    outcome: str  # "success" or "failure"
    post: BipartiteState
    probabilities: tuple[float, float]


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


def branch_probabilities(state: BipartiteState, kraus: KrausDiagonals) -> tuple[float, float]:
    """Exact probabilities of the two measurement outcomes."""
    if state.dim != kraus.dim:
        raise ValueError(f"state dimension {state.dim} != Kraus dimension {kraus.dim}")
    a = state.amplitudes
    p_m = float(np.linalg.norm(np.diag(kraus.m_diag) @ a) ** 2)
    p_n = float(np.linalg.norm(np.diag(kraus.n_diag) @ a) ** 2)
    return p_m, p_n


def measure(state: BipartiteState, kraus: KrausDiagonals, rng) -> MeasureResult:
    """Sample one two-outcome measurement; ``rng`` is a seed or Generator."""
    rng = np.random.default_rng(rng)
    p_m, p_n = branch_probabilities(state, kraus)
    if rng.random() < p_m:
        operator, prob, outcome = np.diag(kraus.m_diag), p_m, "success"
    else:
        operator, prob, outcome = np.diag(kraus.n_diag), p_n, "failure"
    if prob <= 0.0:
        raise DegenerateBranch(f"sampled {outcome} branch has zero probability")
    post = operator @ state.amplitudes / np.sqrt(prob)
    return MeasureResult(outcome, BipartiteState(post), (p_m, p_n))


def _walk_plan(plan: ConversionPlan):
    """Resolve each step once against the dense simulator.

    Returns a list of ("det", spectrum) and ("prob", p_success, failure_spectrum)
    records in execution order; all shots share these exact values.
    """
    records = []
    state = embed(plan.steps[0].from_state)
    for step in plan.steps:
        if step.kind is StepKind.DETERMINISTIC:
            state = embed(step.to_state)
            records.append(("det", step.to_state))
        else:
            p_m, p_n = branch_probabilities(state, step.kraus)
            if p_n > get_epsilon():
                n_post = np.diag(step.kraus.n_diag) @ state.amplitudes
                failure_spec = schmidt_spectrum(BipartiteState(n_post / np.sqrt(p_n)))
            else:
                failure_spec = None
            records.append(("prob", p_m, failure_spec))
            if p_m <= get_epsilon():
                break  # success path unreachable, later steps never execute
            m_post = np.diag(step.kraus.m_diag) @ state.amplitudes
            state = embed(schmidt_spectrum(BipartiteState(m_post / np.sqrt(p_m))))
    return records


def run_plan(plan: ConversionPlan, shots: int, seed=None) -> OutcomeStats:
    """Monte Carlo execution of a plan with a reproducible generator."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    validate_plan(plan)
    records = _walk_plan(plan)
    rng = np.random.default_rng(seed)
    successes = 0
    residual_sum = None
    failures = 0
    for _ in range(shots):
        failed_spec = None
        for rec in records:
            if rec[0] == "det":
                continue
            _, p_success, failure_spec = rec
            if rng.random() >= p_success:
                failed_spec = failure_spec
                break
        if failed_spec is None:
            successes += 1
        else:
            failures += 1
            arr = failed_spec.as_array()
            if residual_sum is None:
                residual_sum = arr.copy()
            else:
                residual_sum += arr
    residual_mean = None
    if failures:
        residual_mean = tuple(float(x) for x in residual_sum / failures)
    return OutcomeStats(
        shots=shots,
        successes=successes,
        empirical_rate=successes / shots,
        residual_mean=residual_mean,
        seed=_reported_seed(seed),
    )
