"""Batch property sweeps over random instances.

Each paper property is stated once, as a checker of the instance it is
about: a pair, a weighted pair, a fan-out/fan-in ensemble or built plans.
A checker returns whether the property held and the tightest slack it
observed (for majorization checks: the most negative partial-sum margin;
for equalities: minus the absolute deviation), plus a failure record.
``run_sweep`` draws every instance from one random pair; properties needing
incomparable pairs skip comparable draws, so at dimension 2 they report
zero applicable instances.  The checkers of one instance share its pair's
analysis (order, meet, join, Vidal and thrifty plans), each piece built at
most once and only when a checker asks for it.  The acceptance suite runs
the same checkers.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .config import get_epsilon
from .lattice import join, join_many, meet, meet_many
from .ladder import monotones, p_max, ratio_ladder
from .oracle import _branch_spectrum, _reported_seed, branch_probabilities, embed
from .protocols import (
    ConversionPlan,
    apply_two_outcome,
    plan_greedy,
    plan_thrifty,
    plan_vidal,
    step_monotone_slack,
)
from .sampling import (
    random_prob_vecs,
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
        return asdict(self)


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
        doc = asdict(self)
        properties = doc.pop("properties")
        return {**doc, "total_failures": self.total_failures,
                "worst_slack": self.worst_slack, "properties": properties}


def _desc(*vecs: ProbVec) -> dict:
    return {f"vector_{i}": v.as_array().tolist() for i, v in enumerate(vecs)}


def _plan_desc(plan: ConversionPlan) -> dict:
    return _desc(plan.ladder.source, plan.ladder.target)


def _max_dev(a: np.ndarray, b: np.ndarray) -> float:
    """Largest absolute entrywise difference of two arrays of one shape."""
    return float(np.abs(a - b).max())


class _Pair:
    """One drawn pair and its analysis, each piece built on first use and then kept.

    The pieces are built through this module's names, so a replaced ``meet``
    or ``plan_vidal`` reaches every checker that reads them.
    """

    def __init__(self, p: ProbVec, q: ProbVec):
        self.p, self.q = p, q

    @cached_property
    def incomparable(self) -> bool:
        return compare(self.p, self.q) is MajOrder.INCOMPARABLE

    @cached_property
    def meet(self) -> ProbVec:
        return meet(self.p, self.q)

    @cached_property
    def join(self) -> ProbVec:
        return join(self.p, self.q)

    @cached_property
    def vidal(self) -> ConversionPlan:
        return plan_vidal(self.p, self.q)

    @cached_property
    def thrifty(self) -> ConversionPlan:
        return plan_thrifty(self.p, self.q)


def _check_axioms(p: ProbVec, q: ProbVec, m: ProbVec, j: ProbVec,
                  rng) -> tuple[bool, float, dict | None]:
    """Lattice axioms of the pair's meet ``m`` and join ``j``."""
    slacks = [min(majorizes_margin(a, b) for a, b in ((m, p), (m, q), (p, j), (q, j)))]
    ok = slacks[0] >= MARGIN_FLOOR

    # idempotence and commutativity hold to rounding; absorption within epsilon
    for left, right, tol in (
        (meet(p, p), p, EQUALITY_TOL),
        (join(p, p), p, EQUALITY_TOL),
        (m, meet(q, p), EQUALITY_TOL),
        (j, join(q, p), EQUALITY_TOL),
        (meet(p, j), p, get_epsilon()),
        (join(p, m), p, get_epsilon()),
    ):
        dev = _max_dev(left.as_array(), right.as_array())
        slacks.append(-dev)
        ok = ok and dev <= tol

    # cumulative-sum characterization
    cp = p.as_array().cumsum()
    cq = q.as_array().cumsum()
    dev = _max_dev(m.as_array().cumsum(), np.minimum(cp, cq))
    slacks.append(-dev)
    ok = ok and dev <= EQUALITY_TOL
    cj = j.as_array().cumsum()
    upper_gap = float((cj - np.maximum(cp, cq)).min())
    slacks.append(upper_gap)
    ok = ok and upper_gap >= MARGIN_FLOOR
    touch = float(np.abs(cj - np.maximum(cp, cq)).min())
    ok = ok and touch <= EQUALITY_TOL  # envelope touches the max somewhere

    # defining-property witnesses, each checked only when its premise holds
    weak = (MajOrder.PRECEDES, MajOrder.EQUIVALENT)
    below = robin_hood_transfer(m, rng, steps=2)
    above = sharpening_transfer(j, rng, steps=2)
    probe = random_prob_vecs(p.dim, 1, rng)[0]
    for lower, upper, premise in (
        (below, m, all(compare(below, v) in weak for v in (p, q))),
        (j, above, all(compare(v, above) in weak for v in (p, q))),
        (probe, m, all(compare(probe, v) is MajOrder.PRECEDES for v in (p, q))),
        (j, probe, all(compare(v, probe) is MajOrder.PRECEDES for v in (p, q))),
    ):
        if premise:
            wit = majorizes_margin(lower, upper)
            slacks.append(wit)
            ok = ok and wit >= MARGIN_FLOOR

    # n-ary order independence on a random triple: max and min commute exactly
    extra = random_prob_vecs(p.dim, 1, rng)[0]
    triple = [p, q, extra]
    order = rng.permutation(3)
    shuffled = [triple[i] for i in order]
    dev_meet = _max_dev(meet_many(triple).as_array(), meet_many(shuffled).as_array())
    dev_join = _max_dev(join_many(triple).as_array(), join_many(shuffled).as_array())
    slacks.append(-max(dev_meet, dev_join))
    ok = ok and max(dev_meet, dev_join) == 0.0

    detail = None if ok else {"check": "axioms", **_desc(p, q, extra)}
    return ok, min(slacks), detail


def _check_meet_monotones(p: ProbVec, q: ProbVec, m: ProbVec) -> tuple[bool, float, dict | None]:
    """Lemma 1: the monotones of the meet ``m`` are the pointwise max of the inputs'."""
    d = max(p.dim, q.dim)
    em = monotones(m)
    ep = monotones(p.padded(d))
    eq = monotones(q.padded(d))
    dev = _max_dev(em, np.maximum(ep, eq))
    ok = dev <= EQUALITY_TOL
    return ok, -dev, None if ok else {"check": "meet-monotones", "deviation": dev, **_desc(p, q)}


def _check_hadamard(x: ProbVec, y: ProbVec, a) -> tuple[bool, float, dict | None]:
    """Lemma 2: x majorized by y stays so after the entrywise product with weights a."""
    u = ProbVec(np.asarray(a) * x.as_array())
    v = ProbVec(np.asarray(a) * y.as_array())
    slack = majorizes_margin(u, v)
    ok = slack >= MARGIN_FLOOR
    detail = None if ok else {"check": "hadamard-order", "weights": list(a), **_desc(x, y)}
    return ok, slack, detail


def _check_equal_optimal_prob(p: ProbVec, q: ProbVec, m: ProbVec) -> tuple[bool, float, dict | None]:
    """Theorem 1: the optimal probability to the target equals the one to the meet ``m``."""
    r_direct = ratio_ladder(p, q).ratios[0]
    r_via_meet = ratio_ladder(p, m).ratios[0]
    dev = abs(r_direct - r_via_meet)
    ok = dev <= EQUALITY_TOL
    return ok, -dev, None if ok else {"check": "equal-optimal-prob", "deviation": dev, **_desc(p, q)}


def _check_residual_order(greedy: ConversionPlan, thrifty: ConversionPlan) -> tuple[bool, float, dict | None]:
    """Theorem 2: thrifty residual and intermediate are majorized by the greedy (Vidal) ones."""
    chi = greedy.steps[0].to_state
    zeta = thrifty.steps[0].to_state
    slack = min(
        majorizes_margin(thrifty.residual, greedy.residual),
        majorizes_margin(zeta, chi),
    )
    ok = slack >= MARGIN_FLOOR
    return ok, slack, None if ok else {"check": "residual-order", **_plan_desc(greedy)}


def _check_multi_state(source: ProbVec, targets, sources, target: ProbVec) -> tuple[bool, float, dict | None]:
    """Theorem 3: the n-ary meet (join) gives the worst fan-out (fan-in) probability."""
    direct = [p_max(source, t) for t in targets]
    dev_meet = abs(p_max(source, meet_many([source, *targets])) - min(direct))
    fan_in = [p_max(s, target) for s in sources]
    dev_join = abs(p_max(join_many([*sources, target]), target) - min(fan_in))
    dev = max(dev_meet, dev_join)
    ok = dev <= EQUALITY_TOL
    return ok, -dev, None if ok else {"check": "multi-state", "deviation": dev, **_desc(source, target)}


def _check_monotone_soundness(*plans: ConversionPlan) -> tuple[bool, float, dict | None]:
    """Average monotones never increase along the steps of the given plans."""
    slack = min(step_monotone_slack(s) for plan in plans for s in plan.steps)
    ok = slack >= MARGIN_FLOOR
    return ok, slack, None if ok else {"check": "monotone-soundness", **_plan_desc(plans[0])}


def _check_oracle_match(vidal: ConversionPlan) -> tuple[bool, float, dict | None]:
    """The measurement of a Vidal plan on the dense simulator matches the analytic one."""
    measurement = vidal.steps[1]
    chi, kraus = measurement.from_state, measurement.kraus
    analytic = apply_two_outcome(chi, kraus)
    state = embed(chi)
    p_m, p_n = branch_probabilities(state, kraus)
    devs = [abs(p_m - analytic.success_prob), abs(p_m + p_n - 1.0)]
    succ = _branch_spectrum(state, kraus.m_diag, p_m)
    devs.append(_max_dev(succ.as_array(), analytic.success_state.as_array()))
    if analytic.failure_state is not None:
        fail = _branch_spectrum(state, kraus.n_diag, p_n)
        devs.append(_max_dev(fail.as_array(), analytic.failure_state.as_array()))
    dev = max(devs)
    ok = dev <= ORACLE_TOL
    return ok, -dev, None if ok else {"check": "oracle-match", "deviation": dev,
                                      **_plan_desc(vidal)}


def _multi_state(pair: _Pair, rng):
    p, q = pair.p, pair.q
    extra = int(rng.integers(1, 4))
    targets = [q] + random_prob_vecs(p.dim, extra, rng)
    sources = [p] + random_prob_vecs(p.dim, extra, rng)
    return _check_multi_state(p, targets, sources, q)


def _monotone_soundness(pair: _Pair, rng):
    plans = [pair.vidal]
    if pair.incomparable:
        plans += [plan_greedy(pair.p, pair.q), pair.thrifty]
    return _check_monotone_soundness(*plans)


# name -> (needs incomparable pair, check of one drawn instance: its _Pair and the rng)
CHECKERS = {
    "axioms": (False, lambda a, rng: _check_axioms(a.p, a.q, a.meet, a.join, rng)),
    "meet-monotones": (False, lambda a, rng: _check_meet_monotones(a.p, a.q, a.meet)),
    "hadamard-order": (False, lambda a, rng: _check_hadamard(*random_tied_majorization(a.p.dim, rng))),
    "equal-optimal-prob": (True, lambda a, rng: _check_equal_optimal_prob(a.p, a.q, a.meet)),
    "residual-order": (True, lambda a, rng: _check_residual_order(a.vidal, a.thrifty)),
    "multi-state": (False, _multi_state),
    "monotone-soundness": (False, _monotone_soundness),
    "oracle-match": (True, lambda a, rng: _check_oracle_match(a.vidal)),
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
        pair = _Pair(*random_prob_vecs(dim, 2, rng))
        for name in names:
            needs_incomparable, checker = CHECKERS[name]
            if needs_incomparable and not pair.incomparable:
                continue
            outcomes[name].record(*checker(pair, rng))
    return SweepReport(
        dim=dim,
        count=count,
        seed=_reported_seed(seed),
        epsilon=get_epsilon(),
        distribution=DISTRIBUTION,
        properties=[outcomes[name] for name in names],
    )
