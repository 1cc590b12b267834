"""Batch property sweeps over random instances.

Each paper property is stated once, as a checker of a batch of the instances
it is about: pairs, weighted pairs, fan-out/fan-in ensembles or built plans,
given as ``(N, d)`` stacks of rows of one dimension, or as lists of plans.
For each instance a checker returns whether the property held and the
tightest slack it observed (for majorization checks: the most negative
partial-sum margin; for equalities: minus the absolute deviation), plus a
failure record.  The acceptance suite runs the same checkers.

``run_sweep`` draws every instance from one random pair; properties needing
incomparable pairs skip comparable draws, so at dimension 2 they report zero
applicable instances, and properties that build conversions skip the draws
where one is impossible (a target with more entries above epsilon than its
source).  It works through the instances in chunks of at most
``_CHUNK``, so its memory does not grow with the count:

1. It takes all of a chunk's draws from the generator, instance after
   instance: the pair, then each selected property's own draws.  No draw
   depends on a computed value, so this is the order in which a loop over
   instances draws.
2. It evaluates each selected property once over the chunk, through the row
   kernels of ``schmidt``, ``lattice``, ``ladder`` and ``protocols``.  The
   checkers share the chunk's analysis (order, meet, join, and the Vidal
   analysis ``protocols.vidal_rows`` of the Vidal, greedy and thrifty
   conversions), each piece built at most once, only when a checker asks
   for it and only over the pairs a selected property reads.  The steps of those plans come from the step builders of
   ``protocols``, the ones the planners use.  No plan object is built; only
   the dense oracle works instance by instance.

A report does not depend on the chunk size.  When a checker raises, the chunk
is evaluated again one instance at a time, so that the error is the one a
loop over instances raises first.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .config import get_epsilon
from .lattice import join_rows, meet_rows
from .ladder import monotone_rows, p_max_rows
from .oracle import _branch_spectrum, _reported_seed, branch_probabilities, embed
from .protocols import (KrausDiagonals, VidalRows, descent_steps, greedy_steps,
                        monotone_slack_rows, vidal_rows, vidal_steps)
from .sampling import random_prob_rows, random_tied_rows
from .schmidt import ProbVec, below_rows, max_deviation, min_margin_rows, rank_rows

EQUALITY_TOL = 1e-12
MARGIN_FLOOR = -1e-9
ORACLE_TOL = 1e-9

DISTRIBUTION = "sorted uniform simplex (flat Dirichlet)"
_CHUNK = 256  # instances evaluated together


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


def _desc(*rows) -> dict:
    return {f"vector_{i}": row.tolist() for i, row in enumerate(rows)}


def _first_min(*columns) -> list[float]:
    """Per row, Python's ``min`` of the columns' values, taken in column order."""
    return [min(row) for row in zip(*(np.asarray(c).tolist() for c in columns))]


def _results(ok, slack, detail) -> list[tuple[bool, float, dict | None]]:
    """One (ok, slack, failure record) per row; ``detail(i, slack)`` builds row i's record."""
    rows = zip(np.asarray(ok).tolist(), np.asarray(slack).tolist())
    return [(o, sl, None if o else detail(i, sl)) for i, (o, sl) in enumerate(rows)]


def _draw_axioms(dim: int, rng):
    """A probe, a third vector and an order of three."""
    return random_prob_rows(dim, 1, rng)[0], random_prob_rows(dim, 1, rng)[0], rng.permutation(3)


def _check_axioms(P, Q, M, J, draws) -> list:
    """Lattice axioms of each pair's meet ``M`` and join ``J``, with each row's ``_draw_axioms``.

    The cumulative sums pin both: the meet's are the pointwise min of the inputs', and
    the join's are the least concave majorant of their pointwise max.  The random
    probes test the order against vectors drawn independently of either.
    """
    eps = get_epsilon()
    columns = [_first_min(min_margin_rows(M, P), min_margin_rows(M, Q),
                          min_margin_rows(P, J), min_margin_rows(Q, J))]
    ok = np.asarray(columns[0]) >= MARGIN_FLOOR

    def both(*groups):
        return np.stack(groups, axis=1)

    # idempotence and commutativity hold to rounding; absorption within epsilon
    for left, right, tol in (
        (meet_rows(both(P, P)), P, EQUALITY_TOL),
        (join_rows(both(P, P)), P, EQUALITY_TOL),
        (M, meet_rows(both(Q, P)), EQUALITY_TOL),
        (J, join_rows(both(Q, P)), EQUALITY_TOL),
        (meet_rows(both(P, J)), P, eps),
        (join_rows(both(P, M)), P, eps),
    ):
        dev = max_deviation(left, right)
        columns.append(-dev)
        ok &= dev <= tol

    # cumulative-sum characterization
    cp, cq = P.cumsum(axis=-1), Q.cumsum(axis=-1)
    dev = max_deviation(M.cumsum(axis=-1), np.minimum(cp, cq))
    columns.append(-dev)
    ok &= dev <= EQUALITY_TOL
    over = J.cumsum(axis=-1) - np.maximum(cp, cq)
    upper_gap = over.min(axis=-1)
    columns.append(upper_gap)
    ok &= upper_gap >= MARGIN_FLOOR
    # leastness: non-increasing entries make the cumulative sums concave, and a concave
    # majorant that touches the max at each breakpoint (J[k] > J[k+1]) and at the last
    # index is the least one
    steps = J[:, :-1] - J[:, 1:]
    breaks = np.concatenate((steps > 0, np.ones((len(J), 1), dtype=bool)), axis=1)
    dev = np.maximum(np.where(breaks, np.abs(over), 0.0).max(axis=-1),
                     np.maximum(-steps, 0.0).max(axis=-1, initial=0.0))
    columns.append(-dev)
    ok &= dev <= EQUALITY_TOL

    # order against random probes, each checked only when its premise holds
    probe = np.array([draw[0] for draw in draws])

    def strictly_below(a, b):
        a_below_b, b_below_a = below_rows(a, b)
        return a_below_b & ~b_below_a

    for lower, upper, premise in (
        (probe, M, strictly_below(probe, P) & strictly_below(probe, Q)),
        (J, probe, strictly_below(P, probe) & strictly_below(Q, probe)),
    ):
        wit = min_margin_rows(lower, upper)
        columns.append(np.where(premise, wit, np.inf))  # inf leaves the row's min alone
        ok &= ~premise | (wit >= MARGIN_FLOOR)

    # n-ary order independence on a random triple: max and min commute exactly
    extra = np.array([draw[1] for draw in draws])
    triple = np.stack((P, Q, extra), axis=1)
    shuffled = triple[np.arange(len(triple))[:, None], [draw[2] for draw in draws]]
    dev_meet = max_deviation(meet_rows(triple), meet_rows(shuffled))
    dev_join = max_deviation(join_rows(triple), join_rows(shuffled))
    nary = [max(a, b) for a, b in zip(dev_meet.tolist(), dev_join.tolist())]
    columns.append([-dev for dev in nary])
    ok &= np.array(nary) == 0.0

    return _results(ok, _first_min(*columns),
                    lambda i, _: {"check": "axioms", **_desc(P[i], Q[i], extra[i])})


def _check_meet_monotones(P, Q, M) -> list:
    """Lemma 1: the monotones of the meet ``M`` are the pointwise max of the inputs'."""
    dev = max_deviation(monotone_rows(M), np.maximum(monotone_rows(P), monotone_rows(Q)))
    return _results(dev <= EQUALITY_TOL, -dev, lambda i, slack: {
        "check": "meet-monotones", "deviation": -slack, **_desc(P[i], Q[i])})


def _check_hadamard(X, Y, A) -> list:
    """Lemma 2: x majorized by y stays so after the entrywise product with weights a."""
    slack = min_margin_rows(A * X, A * Y)
    return _results(slack >= MARGIN_FLOOR, slack, lambda i, _: {
        "check": "hadamard-order", "weights": A[i].tolist(), **_desc(X[i], Y[i])})


def _check_equal_optimal_prob(P, Q, M) -> list:
    """Theorem 1: the optimal probability to the target equals the one to the meet ``M``."""
    dev = np.abs(p_max_rows(P, Q) - p_max_rows(P, M))
    return _results(dev <= EQUALITY_TOL, -dev, lambda i, slack: {
        "check": "equal-optimal-prob", "deviation": -slack, **_desc(P[i], Q[i])})


def _check_residual_order(vidal: VidalRows, thrifty: VidalRows) -> list:
    """Theorem 2: thrifty residual and intermediate are majorized by the Vidal (greedy)
    ones, given the Vidal analysis of each pair and thrifty's core, that of its source
    to its meet."""
    slack = _first_min(min_margin_rows(thrifty.failure, vidal.failure),
                       min_margin_rows(thrifty.intermediate, vidal.intermediate))
    return _results(np.array(slack) >= MARGIN_FLOOR, slack, lambda i, _: {
        "check": "residual-order", **_desc(vidal.sources[i], vidal.targets[i])})


def _draw_multi_state(dim: int, rng):
    """1 to 3 further targets and as many further sources."""
    extra = int(rng.integers(1, 4))
    return random_prob_rows(dim, extra, rng), random_prob_rows(dim, extra, rng)


def _members(groups) -> np.ndarray:
    """``(N, k, d)`` stack of N groups of rows of one dimension; a group shorter
    than the longest repeats its first member, which leaves any max or min alone."""
    k = max(len(group) for group in groups)
    return np.array([[*group] + [group[0]] * (k - len(group)) for group in groups])


def _check_multi_state(instances) -> list:
    """Theorem 3: the n-ary meet (join) gives the worst fan-out (fan-in) probability.

    Each instance is (source, targets, sources, target): rows of one dimension,
    the targets and the sources as sequences of rows.
    """
    sources, targets = _members([i[2] for i in instances]), _members([i[1] for i in instances])
    source, target = np.array([i[0] for i in instances]), np.array([i[3] for i in instances])
    spread = np.broadcast_to(source[:, None], targets.shape)
    direct = [min(row) for row in p_max_rows(spread, targets).tolist()]
    to_meet = p_max_rows(source, meet_rows(np.concatenate((source[:, None], targets), axis=1)))
    dev_meet = np.abs(to_meet - direct)
    fan_in = [min(row) for row in p_max_rows(sources, np.broadcast_to(target[:, None],
                                                                      sources.shape)).tolist()]
    from_join = p_max_rows(join_rows(np.concatenate((sources, target[:, None]), axis=1)), target)
    dev_join = np.abs(from_join - fan_in)
    dev = [max(a, b) for a, b in zip(dev_meet.tolist(), dev_join.tolist())]
    return _results(np.array(dev) <= EQUALITY_TOL, [-x for x in dev], lambda i, slack: {
        "check": "multi-state", "deviation": -slack, **_desc(source[i], target[i])})


def _check_monotone_soundness(P, Q, plans) -> list:
    """Average monotones never increase along the steps of each instance's plans.

    ``plans`` holds, per plan, the positions of the pairs ``P``, ``Q`` it belongs to
    and its steps on those rows, as the step builders of ``protocols`` return them.
    """
    columns = []
    for at, steps in plans:
        for step in steps:
            column = np.full(len(P), np.inf)  # inf leaves the row's min alone
            column[at] = monotone_slack_rows(step)
            columns.append(column)
    slack = _first_min(*columns)
    return _results(np.array(slack) >= MARGIN_FLOOR, slack, lambda i, _: {
        "check": "monotone-soundness", **_desc(P[i], Q[i])})


def _check_oracle_match(v: VidalRows) -> list:
    """The measurement of each row's Vidal analysis on the dense simulator matches the
    analytic one; a success branch of probability <= epsilon has no spectrum to match."""
    results = []
    for i, (p, has_success) in enumerate(zip(v.success_prob.tolist(), v.has_success.tolist())):
        chi, kraus = ProbVec(v.intermediate[i]), KrausDiagonals(v.m_diag[i], v.n_diag[i])
        state = embed(chi)
        p_m, p_n = branch_probabilities(state, kraus)
        devs = [abs(p_m - p), abs(p_m + p_n - 1.0)]
        branches = [(kraus.m_diag, p_m, v.success[i])] if has_success else []
        for diag, prob, analytic in branches + [(kraus.n_diag, p_n, v.failure[i])]:
            devs.append(float(max_deviation(_branch_spectrum(state, diag, prob).as_array(),
                                            analytic)))
        dev = max(devs)
        ok = dev <= ORACLE_TOL
        results.append((ok, -dev, None if ok else {"check": "oracle-match", "deviation": dev,
                                                   **_desc(v.sources[i], v.targets[i])}))
    return results


class _Pairs:
    """A chunk of drawn pairs and their analysis, each piece built on first use and then kept.

    The pieces are built through this module's names, so a replaced kernel reaches
    every checker that reads them.
    """

    def __init__(self, rows: np.ndarray, names):
        self.rows = rows  # (N, 2, d)
        self.P, self.Q = rows[:, 0], rows[:, 1]
        self.names = names  # the selected properties

    def __len__(self) -> int:
        return len(self.rows)

    @cached_property
    def below(self) -> tuple[np.ndarray, np.ndarray]:
        """Whether each pair's source is majorized by its target, and the converse."""
        return below_rows(self.P, self.Q)

    @cached_property
    def incomparable(self) -> np.ndarray:
        p_below_q, q_below_p = self.below
        return ~(p_below_q | q_below_p)

    @cached_property
    def ranks(self) -> tuple[np.ndarray, np.ndarray]:
        """Entries above epsilon of each pair's source and of its target."""
        return np.array(rank_rows(self.P)), np.array(rank_rows(self.Q))

    @cached_property
    def convertible(self) -> np.ndarray:
        """Whether each pair's source can be converted into its target at all: the
        target has no more entries above epsilon, the rule ``_check_ranks`` raises on."""
        rank_p, rank_q = self.ranks
        return rank_q <= rank_p

    @cached_property
    def meet(self) -> np.ndarray:
        return meet_rows(self.rows)

    @cached_property
    def join(self) -> np.ndarray:
        return join_rows(self.rows)

    @cached_property
    def conversions(self) -> np.ndarray:
        """Indices of the incomparable pairs that can be converted."""
        return np.flatnonzero(_conversions(self, None))

    @cached_property
    def measured(self) -> tuple[np.ndarray, VidalRows]:
        """Indices of the pairs whose Vidal plans measure and that a selected property reads,
        and the Vidal analysis of those pairs.  ``monotone-soundness`` reads every
        convertible pair whose source is not majorized by its target; the other
        properties read only the conversions."""
        rows = np.flatnonzero((self.convertible if "monotone-soundness" in self.names
                               else _conversions(self, None)) & ~self.below[0])
        return rows, vidal_rows(self.P[rows], self.Q[rows])

    @cached_property
    def vidal(self) -> VidalRows:
        """The Vidal analysis of the conversions; greedy plans end in the same measurement."""
        rows, analysis = self.measured
        return analysis.take(np.flatnonzero(self.incomparable[rows]))

    @cached_property
    def thrifty(self) -> VidalRows:
        """Thrifty's core on the conversions: the Vidal analysis from each source to the meet."""
        rows = self.conversions
        return vidal_rows(self.P[rows], self.meet[rows])


def _monotone_soundness(a: _Pairs, rows, _):
    """The Vidal plan of each convertible pair, one deterministic step where its source is
    majorized by its target, and the greedy and thrifty plans of each conversion."""
    measured, analysis = a.measured
    at, conversions = np.searchsorted(rows, measured), np.searchsorted(rows, a.conversions)
    moves = np.flatnonzero(a.below[0][rows])
    P, Q = a.P[rows], a.Q[rows]
    vidal, core = a.vidal, a.thrifty
    return _check_monotone_soundness(P, Q, [
        (at, vidal_steps(analysis.sources, analysis.targets, analysis)),
        (moves, vidal_steps(P[moves], Q[moves])),
        (conversions, greedy_steps(vidal_steps(vidal.sources, vidal.targets, vidal),
                                   a.join[a.conversions])),
        (conversions, descent_steps(
            vidal_steps(core.sources, core.targets, core, target_name="common_resource"),
            [a.Q[a.conversions]], ["target"])),
    ])


def _fans_convertible(a: _Pairs, draws) -> np.ndarray:
    """Convertible pairs whose further targets each fit the source's rank and whose
    further sources each hold the target's, so that every conversion of the
    ``multi-state`` check is possible."""
    rank_p, rank_q = a.ranks
    fans = [_members([draw[k] for draw in draws]) for k in (0, 1)]  # targets, sources
    fan_out, fan_in = (np.array(rank_rows(f)).reshape(f.shape[:2]) for f in fans)
    return a.convertible & (fan_out.max(axis=1) <= rank_p) & (fan_in.min(axis=1) >= rank_q)


def _tied_rows(draws):
    """``(N, d)`` rows of x, y and the weights of N ``random_tied_rows`` draws."""
    return tuple(np.array(rows) for rows in zip(*draws))


def _conversions(a: _Pairs, _) -> np.ndarray:
    """Incomparable pairs that can be converted: those a property about conversions
    between incomparable states applies to."""
    return a.incomparable & a.convertible


# name -> (mask of the chunk's pairs the property applies to, from the pairs and every
#          pair's draws, or None for all pairs; draws of one instance from (dim, rng)
#          or None; check of the chunk's applicable rows, given their draws)
CHECKERS = {
    "axioms": (None, _draw_axioms, lambda a, rows, draws: _check_axioms(
        a.P[rows], a.Q[rows], a.meet[rows], a.join[rows], draws)),
    "meet-monotones": (None, None, lambda a, rows, _: _check_meet_monotones(
        a.P[rows], a.Q[rows], a.meet[rows])),
    "hadamard-order": (None, lambda dim, rng: random_tied_rows(dim, rng),
                       lambda a, rows, draws: _check_hadamard(*_tied_rows(draws))),
    "equal-optimal-prob": (_conversions, None, lambda a, rows, _: _check_equal_optimal_prob(
        a.P[rows], a.Q[rows], a.meet[rows])),
    "residual-order": (_conversions, None,
                       lambda a, rows, _: _check_residual_order(a.vidal, a.thrifty)),
    "multi-state": (_fans_convertible, _draw_multi_state, lambda a, rows, draws:
                    _check_multi_state([(a.P[i], [a.Q[i], *targets], [a.P[i], *sources], a.Q[i])
                                        for i, (targets, sources) in zip(rows, draws)])),
    "monotone-soundness": (lambda a, _: a.convertible, None, _monotone_soundness),
    "oracle-match": (_conversions, None, lambda a, rows, _: _check_oracle_match(a.vidal)),
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


def _check_chunk(pairs, draws: dict) -> dict:
    """Each property's results on a chunk of ``(N, 2, d)`` pairs, a list per name of ``draws``."""
    a = _Pairs(pairs, draws.keys())
    results = {}
    for name, drawn in draws.items():
        applies, _, check = CHECKERS[name]
        rows = np.arange(len(a)) if applies is None else np.flatnonzero(applies(a, drawn))
        drawn = [drawn[i] for i in rows] if drawn else None
        results[name] = check(a, rows, drawn) if rows.size else []
    return results


def run_sweep(dim: int, count: int, seed=None, properties=None) -> SweepReport:
    """Check the selected properties on ``count`` random instances."""
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    if count < 1:
        raise ValueError("count must be at least 1")
    names = resolve_properties(properties)
    rng = np.random.default_rng(seed)
    outcomes = {name: PropertyOutcome(name) for name in names}
    for start in range(0, count, _CHUNK):
        pairs, draws = [], {name: [] for name in names}
        for _ in range(min(_CHUNK, count - start)):
            pairs.append(random_prob_rows(dim, 2, rng))
            for name in names:
                draw = CHECKERS[name][1]
                if draw is not None:
                    draws[name].append(draw(dim, rng))
        pairs = np.array(pairs)  # (N, 2, d)
        try:
            results = _check_chunk(pairs, draws)
        except Exception:
            # one instance at a time, the first error is the one a loop over instances raises
            for i in range(len(pairs)):
                _check_chunk(pairs[i:i + 1], {name: d[i:i + 1] for name, d in draws.items()})
            raise
        for name in names:
            for result in results[name]:
                outcomes[name].record(*result)
    return SweepReport(
        dim=dim,
        count=count,
        seed=_reported_seed(seed),
        epsilon=get_epsilon(),
        distribution=DISTRIBUTION,
        properties=[outcomes[name] for name in names],
    )
