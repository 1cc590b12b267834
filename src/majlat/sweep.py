"""Batch property sweeps over random instances.

Each property check returns whether it applied to the instance, whether it
held, and the tightest slack it observed (for majorization checks: the most
negative partial-sum margin; for equalities: minus the absolute deviation).
Properties needing incomparable pairs simply skip comparable draws, so at
dimension 2 they report zero applicable instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import get_epsilon
from .lattice import join, join_many, meet, meet_many
from .ladder import monotones, p_max, ratio_ladder
from .oracle import BipartiteState, _reported_seed, branch_probabilities, embed, schmidt_spectrum
from .protocols import (
    apply_two_outcome,
    plan_greedy,
    plan_thrifty,
    plan_vidal,
    step_monotone_slack,
)
from .sampling import (
    random_prob_vec,
    random_tied_majorization,
    robin_hood_transfer,
    sharpening_transfer,
)
from .schmidt import MajOrder, ProbVec, compare, majorizes_margin

EQUALITY_TOL = 1e-12
MARGIN_FLOOR = -1e-9
ORACLE_TOL = 1e-9

DISTRIBUTION = "sorted uniform simplex (flat Dirichlet)"


@dataclass
class PropertyOutcome:
    name: str
    applicable: int = 0
    passed: int = 0
    failed: int = 0
    worst_slack: float | None = None
    failures: list = field(default_factory=list)

    def record(self, ok: bool, slack: float | None, detail: dict | None) -> None:
        self.applicable += 1
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if detail is not None:
                self.failures.append(detail)
        if slack is not None:
            self.worst_slack = slack if self.worst_slack is None else min(self.worst_slack, slack)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "applicable": self.applicable,
            "passed": self.passed,
            "failed": self.failed,
            "worst_slack": self.worst_slack,
            "failures": self.failures,
        }


@dataclass
class SweepReport:
    dim: int
    count: int
    seed: int | None
    epsilon: float
    distribution: str
    properties: list[PropertyOutcome]

    @property
    def total_failures(self) -> int:
        return sum(p.failed for p in self.properties)

    @property
    def worst_slack(self) -> float | None:
        slacks = [p.worst_slack for p in self.properties if p.worst_slack is not None]
        return min(slacks) if slacks else None

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "count": self.count,
            "seed": self.seed,
            "epsilon": self.epsilon,
            "distribution": self.distribution,
            "total_failures": self.total_failures,
            "worst_slack": self.worst_slack,
            "properties": [p.to_dict() for p in self.properties],
        }


def _desc(*vecs: ProbVec) -> dict:
    return {f"vector_{i}": list(v.entries) for i, v in enumerate(vecs)}


def _pair_margins(checks) -> float:
    """Smallest margin of a list of (smaller, larger) majorization claims."""
    return min(majorizes_margin(a, b) for a, b in checks)


def _check_axioms(p: ProbVec, q: ProbVec, rng) -> tuple[bool, float, dict | None]:
    m = meet(p, q)
    j = join(p, q)
    slacks = [
        _pair_margins([(m, p), (m, q), (p, j), (q, j)]),
    ]
    ok = slacks[0] >= MARGIN_FLOOR

    # idempotence and commutativity hold to rounding; absorption within epsilon
    for left, right, tol in (
        (meet(p, p), p, EQUALITY_TOL),
        (join(p, p), p, EQUALITY_TOL),
        (meet(p, q), meet(q, p), EQUALITY_TOL),
        (join(p, q), join(q, p), EQUALITY_TOL),
        (meet(p, j), p, get_epsilon()),
        (join(p, m), p, get_epsilon()),
    ):
        dev = float(np.max(np.abs(left.as_array() - right.as_array())))
        slacks.append(-dev)
        ok = ok and dev <= tol

    # cumulative-sum characterization
    cp = np.cumsum(p.as_array())
    cq = np.cumsum(q.as_array())
    dev = float(np.max(np.abs(np.cumsum(m.as_array()) - np.minimum(cp, cq))))
    slacks.append(-dev)
    ok = ok and dev <= EQUALITY_TOL
    cj = np.cumsum(j.as_array())
    upper_gap = float(np.min(cj - np.maximum(cp, cq)))
    slacks.append(upper_gap)
    ok = ok and upper_gap >= MARGIN_FLOOR
    touch = float(np.min(np.abs(cj - np.maximum(cp, cq))))
    ok = ok and touch <= EQUALITY_TOL  # envelope touches the max somewhere

    # defining property witnesses
    below = robin_hood_transfer(m, rng, steps=2)
    if compare(below, p) in (MajOrder.PRECEDES, MajOrder.EQUIVALENT) and compare(
        below, q
    ) in (MajOrder.PRECEDES, MajOrder.EQUIVALENT):
        wit = majorizes_margin(below, m)
        slacks.append(wit)
        ok = ok and wit >= MARGIN_FLOOR
    above = sharpening_transfer(j, rng, steps=2)
    if compare(p, above) in (MajOrder.PRECEDES, MajOrder.EQUIVALENT) and compare(
        q, above
    ) in (MajOrder.PRECEDES, MajOrder.EQUIVALENT):
        wit = majorizes_margin(j, above)
        slacks.append(wit)
        ok = ok and wit >= MARGIN_FLOOR
    # random probe, checked only when it happens to bound both inputs
    probe = random_prob_vec(p.dim, rng)
    if compare(probe, p) is MajOrder.PRECEDES and compare(probe, q) is MajOrder.PRECEDES:
        wit = majorizes_margin(probe, m)
        slacks.append(wit)
        ok = ok and wit >= MARGIN_FLOOR
    if compare(p, probe) is MajOrder.PRECEDES and compare(q, probe) is MajOrder.PRECEDES:
        wit = majorizes_margin(j, probe)
        slacks.append(wit)
        ok = ok and wit >= MARGIN_FLOOR

    # fold-order independence on a random triple
    extra = random_prob_vec(p.dim, rng)
    triple = [p, q, extra]
    order = rng.permutation(3)
    shuffled = [triple[i] for i in order]
    dev_meet = float(
        np.max(np.abs(meet_many(triple).as_array() - meet_many(shuffled).as_array()))
    )
    dev_join = float(
        np.max(np.abs(join_many(triple).as_array() - join_many(shuffled).as_array()))
    )
    slacks.append(-max(dev_meet, dev_join))
    ok = ok and max(dev_meet, dev_join) <= EQUALITY_TOL

    detail = None if ok else {"check": "axioms", **_desc(p, q, extra)}
    return ok, min(slacks), detail


def _check_meet_monotones(p: ProbVec, q: ProbVec, rng) -> tuple[bool, float, dict | None]:
    d = max(p.dim, q.dim)
    em = np.asarray(monotones(meet(p, q)).values)
    ep = np.asarray(monotones(p.padded(d)).values)
    eq = np.asarray(monotones(q.padded(d)).values)
    dev = float(np.max(np.abs(em - np.maximum(ep, eq))))
    ok = dev <= EQUALITY_TOL
    return ok, -dev, None if ok else {"check": "meet-monotones", "deviation": dev, **_desc(p, q)}


def _check_hadamard(dim: int, rng) -> tuple[bool, float, dict | None]:
    x, y, a = random_tied_majorization(dim, rng)
    u = ProbVec(tuple(float(v) for v in np.asarray(a) * x.as_array()))
    v = ProbVec(tuple(float(v) for v in np.asarray(a) * y.as_array()))
    slack = majorizes_margin(u, v)
    ok = slack >= MARGIN_FLOOR
    detail = None if ok else {"check": "hadamard-order", "weights": list(a), **_desc(x, y)}
    return ok, slack, detail


def _check_equal_optimal_prob(p: ProbVec, q: ProbVec, rng) -> tuple[bool, float, dict | None]:
    r_direct = ratio_ladder(p, q).ratios[0]
    r_via_meet = ratio_ladder(p, meet(p, q)).ratios[0]
    dev = abs(r_direct - r_via_meet)
    ok = dev <= EQUALITY_TOL
    return ok, -dev, None if ok else {"check": "equal-optimal-prob", "deviation": dev, **_desc(p, q)}


def _check_residual_order(p: ProbVec, q: ProbVec, rng) -> tuple[bool, float, dict | None]:
    greedy = plan_vidal(p, q)
    thrifty = plan_thrifty(p, q)
    chi = greedy.steps[0].to_state
    zeta = thrifty.steps[0].to_state
    slack = min(
        majorizes_margin(thrifty.residual, greedy.residual),
        majorizes_margin(zeta, chi),
    )
    ok = slack >= MARGIN_FLOOR
    return ok, slack, None if ok else {"check": "residual-order", **_desc(p, q)}


def _check_multi_state(p: ProbVec, q: ProbVec, rng) -> tuple[bool, float, dict | None]:
    extra = int(rng.integers(1, 4))
    targets = [q] + [random_prob_vec(p.dim, rng) for _ in range(extra)]
    direct = [p_max(p, t) for t in targets]
    dev_meet = abs(p_max(p, meet_many([p, *targets])) - min(direct))
    sources = [p] + [random_prob_vec(p.dim, rng) for _ in range(extra)]
    tgt = q
    fan_in = [p_max(s, tgt) for s in sources]
    dev_join = abs(p_max(join_many([*sources, tgt]), tgt) - min(fan_in))
    dev = max(dev_meet, dev_join)
    ok = dev <= EQUALITY_TOL
    return ok, -dev, None if ok else {"check": "multi-state", "deviation": dev, **_desc(p, q)}


def _check_monotone_soundness(p: ProbVec, q: ProbVec, rng) -> tuple[bool, float, dict | None]:
    plans = [plan_vidal(p, q)]
    if compare(p, q) is MajOrder.INCOMPARABLE:
        plans += [plan_greedy(p, q), plan_thrifty(p, q)]
    slack = min(step_monotone_slack(s) for plan in plans for s in plan.steps)
    ok = slack >= MARGIN_FLOOR
    return ok, slack, None if ok else {"check": "monotone-soundness", **_desc(p, q)}


def _check_oracle_match(p: ProbVec, q: ProbVec, rng) -> tuple[bool, float, dict | None]:
    measurement = plan_vidal(p, q).steps[1]
    chi, kraus = measurement.from_state, measurement.kraus
    analytic = apply_two_outcome(chi, kraus)
    state = embed(chi)
    p_m, p_n = branch_probabilities(state, kraus)
    devs = [abs(p_m - analytic.success_prob), abs(p_m + p_n - 1.0)]
    m_post = np.diag(kraus.m_diag) @ state.amplitudes
    succ = schmidt_spectrum(BipartiteState(m_post / np.sqrt(p_m)))
    devs.append(float(np.max(np.abs(succ.as_array() - analytic.success_state.as_array()))))
    if analytic.failure_state is not None:
        n_post = np.diag(kraus.n_diag) @ state.amplitudes
        fail = schmidt_spectrum(BipartiteState(n_post / np.sqrt(p_n)))
        devs.append(float(np.max(np.abs(fail.as_array() - analytic.failure_state.as_array()))))
    dev = max(devs)
    ok = dev <= ORACLE_TOL
    return ok, -dev, None if ok else {"check": "oracle-match", "deviation": dev, **_desc(p, q)}


# name -> (needs incomparable pair, checker)
CHECKERS = {
    "axioms": (False, _check_axioms),
    "meet-monotones": (False, _check_meet_monotones),
    "hadamard-order": (False, _check_hadamard),
    "equal-optimal-prob": (True, _check_equal_optimal_prob),
    "residual-order": (True, _check_residual_order),
    "multi-state": (False, _check_multi_state),
    "monotone-soundness": (False, _check_monotone_soundness),
    "oracle-match": (True, _check_oracle_match),
}

ALIASES = {
    "lattice": "axioms",
    "lemma1": "meet-monotones",
    "lemma2": "hadamard-order",
    "thm1": "equal-optimal-prob",
    "thm2": "residual-order",
    "thm3": "multi-state",
}


def resolve_properties(names=None) -> list[str]:
    if not names:
        return list(CHECKERS)
    resolved = []
    for name in names:
        canon = ALIASES.get(name, name)
        if canon not in CHECKERS:
            raise ValueError(f"unknown property {name!r}; choose from {sorted(CHECKERS)}")
        if canon not in resolved:
            resolved.append(canon)
    return resolved


def run_sweep(dim: int, count: int, seed=None, properties=None) -> SweepReport:
    """Check the selected properties on ``count`` random instances."""
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    if count < 1:
        raise ValueError("count must be at least 1")
    names = resolve_properties(properties)
    rng = np.random.default_rng(seed)
    outcomes = {name: PropertyOutcome(name) for name in names}
    for _ in range(count):
        p = random_prob_vec(dim, rng)
        q = random_prob_vec(dim, rng)
        incomparable = compare(p, q) is MajOrder.INCOMPARABLE
        for name in names:
            needs_incomparable, checker = CHECKERS[name]
            if needs_incomparable and not incomparable:
                continue
            if name == "hadamard-order":
                ok, slack, detail = checker(dim, rng)
            else:
                ok, slack, detail = checker(p, q, rng)
            outcomes[name].record(ok, slack, detail)
    return SweepReport(
        dim=dim,
        count=count,
        seed=_reported_seed(seed),
        epsilon=get_epsilon(),
        distribution=DISTRIBUTION,
        properties=[outcomes[name] for name in names],
    )
