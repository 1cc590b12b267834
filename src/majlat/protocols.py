"""Executable conversion plans: Vidal, greedy and thrifty protocols.

A plan is a short list of steps at the Schmidt-spectrum level.  Deterministic
steps move to a spectrum that majorizes the current one; the single
probabilistic step is a local two-outcome measurement given by diagonal Kraus
operators, with an explicit success probability and failure spectrum.

The greedy protocol detours through the optimal common product (the join of
source and target), the thrifty protocol through the optimal common resource
(the meet).  Both succeed with the same optimal probability; the thrifty
residual is always majorized by the greedy one.

A multi-state plan, for an undisclosed source or target out of several, is
one core plan plus a deterministic head per source or tail per target.  It
is valid when each of its paths, one head or tail plus the core, passes
``validate_plan``.  ``plan_to_dot`` draws either kind of plan.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .config import get_epsilon
from .errors import DegenerateBranch, MajlatError, RankDeficit
from .lattice import join, join_many, meet, meet_many
from .ladder import (RatioLadder, _check_ranks, _intermediate, monotone_rows, r_vector,
                     ratio_ladder)
from .schmidt import MajOrder, ProbVec, compare, effective_rank, max_deviation


@dataclass(frozen=True, eq=False)
class KrausDiagonals:
    """Diagonals of the two measurement operators; m^2 + n^2 = 1 entrywise.

    Like a ``ProbVec``, each diagonal is stored once as a read-only float64
    array, copied on construction, so the Born rule and the checks read it
    without converting it; equality and hashing go by the entries.
    """

    m_diag: np.ndarray
    n_diag: np.ndarray

    def __post_init__(self):
        for name in ("m_diag", "n_diag"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __reduce__(self):
        return KrausDiagonals, (self.m_diag, self.n_diag)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (np.array_equal(self.m_diag, other.m_diag)
                and np.array_equal(self.n_diag, other.n_diag))

    def __hash__(self) -> int:
        return hash((tuple(self.m_diag.tolist()), tuple(self.n_diag.tolist())))

    @property
    def dim(self) -> int:
        return self.m_diag.size


class StepKind(enum.Enum):
    DETERMINISTIC = "deterministic"
    PROBABILISTIC = "probabilistic"


@dataclass(frozen=True)
class PlanStep:
    kind: StepKind
    from_name: str
    from_state: ProbVec
    to_name: str
    to_state: ProbVec
    kraus: KrausDiagonals | None = None
    success_prob: float | None = None
    failure_name: str | None = None
    failure_state: ProbVec | None = None


def _last_measurement(steps: tuple[PlanStep, ...]) -> PlanStep | None:
    return next((s for s in reversed(steps) if s.kind is StepKind.PROBABILISTIC), None)


@dataclass(frozen=True)
class ConversionPlan:
    """Steps, and the ratio ladder they were built from; the success probability
    and the residual are read off the steps, so a plan cannot contradict them."""

    protocol: str
    steps: tuple[PlanStep, ...]
    ladder: RatioLadder | None = None

    @property
    def success_prob(self) -> float:
        """Product of the measurement steps' probabilities in step order; 1.0 without one."""
        return math.prod((s.success_prob for s in self.steps if s.kind is StepKind.PROBABILISTIC),
                         start=1.0)

    @property
    def residual(self) -> ProbVec | None:
        """Failure state of the last measurement step; None without one."""
        return None if (last := _last_measurement(self.steps)) is None else last.failure_state


@dataclass(frozen=True)
class MultiStatePlan:
    """Plan for an undisclosed source or target out of several candidates.

    Multi-source plans climb from each source by its deterministic head into
    the shared core; multi-target plans leave the shared core by one
    deterministic tail per target.  One of ``heads`` and ``tails`` is empty.
    Each path, one head or tail plus the core, is an ordinary conversion plan.
    """

    protocol: str
    heads: tuple[PlanStep, ...]
    core: ConversionPlan
    tails: tuple[PlanStep, ...]

    @property
    def success_prob(self) -> float:
        return self.core.success_prob

    @property
    def steps(self) -> tuple[PlanStep, ...]:
        return self.heads + self.core.steps + self.tails

    def paths(self) -> tuple[ConversionPlan, ...]:
        """One plan per head or tail, with the core's protocol and ladder."""
        core = self.core
        return (tuple(replace(core, steps=(head,) + core.steps) for head in self.heads)
                + tuple(replace(core, steps=core.steps + (tail,)) for tail in self.tails))


@dataclass(frozen=True)
class TwoOutcomeResult:
    """Outcome of a diagonal two-outcome measurement on a spectrum.

    Branch states are None when the branch has (near-)zero probability; use
    ``require_failure`` to get a hard error instead.
    """

    success_prob: float
    success_state: ProbVec | None
    failure_state: ProbVec | None

    def require_failure(self) -> ProbVec:
        if self.failure_state is None:
            raise DegenerateBranch("failure branch has probability ~0")
        return self.failure_state


def _kraus(r1: float, rv: np.ndarray) -> KrausDiagonals:
    m_sq = r1 / rv
    n_sq = np.maximum(1.0 - m_sq, 0.0)  # the call np.clip(x, 0.0, None) makes, without its wrapper
    return KrausDiagonals(m_diag=np.sqrt(m_sq), n_diag=np.sqrt(n_sq))


def kraus_diagonals(ladder: RatioLadder) -> KrausDiagonals:
    """Measurement diagonals from a ratio ladder.

    The success operator is block-constant, sqrt(r_1 / r_j) on block j, hence
    exactly 1 on the first block; the failure operator fills up to
    completeness and therefore vanishes there.
    """
    return _kraus(ladder.ratios[0], r_vector(ladder))


def _branch_rows(lam: np.ndarray, m_sq: np.ndarray, n_sq: np.ndarray
                 ) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """Born rule of a diagonal two-outcome measurement on the spectrum ``lam``.

    ``m_sq`` and ``n_sq`` are the squared Kraus diagonals.  Returns the success
    probability ``m_sq @ lam`` and each branch's spectrum as a row sorted in
    non-increasing order, or None for a branch of probability <= epsilon.
    """
    if lam.size != m_sq.size:
        raise ValueError(f"state dimension {lam.size} != Kraus dimension {m_sq.size}")
    p = float(m_sq @ lam)
    eps = get_epsilon()

    def branch(op_sq: np.ndarray, prob: float) -> np.ndarray | None:
        if prob <= eps:
            return None
        row = op_sq * lam / prob
        row.sort()  # in place, as np.sort sorts its copy
        return row[::-1]

    return p, branch(m_sq, p), branch(n_sq, 1.0 - p)


def _row_vec(row: np.ndarray | None) -> ProbVec | None:
    return None if row is None else ProbVec(row)


def apply_two_outcome(state: ProbVec, kraus: KrausDiagonals) -> TwoOutcomeResult:
    """Born-rule action of a diagonal two-outcome measurement on a spectrum."""
    p, success, failure = _branch_rows(state.as_array(), np.square(kraus.m_diag),
                                       np.square(kraus.n_diag))
    return TwoOutcomeResult(success_prob=p, success_state=_row_vec(success),
                            failure_state=_row_vec(failure))


def _vidal(source: ProbVec, target: ProbVec, order: MajOrder,
           source_name: str = "source", target_name: str = "target") -> ConversionPlan:
    """The conversion analysis all planners share: the Vidal plan of a pair of known order.

    Rank check and padding (in ``ratio_ladder``), ladder, intermediate state,
    Kraus diagonals and measurement outcome are each computed once.
    """
    ladder = ratio_ladder(source, target)
    src, tgt = ladder.source, ladder.target  # padded to common dimension
    if order in (MajOrder.PRECEDES, MajOrder.EQUIVALENT):
        step = PlanStep(StepKind.DETERMINISTIC, source_name, src, target_name, tgt)
        return ConversionPlan("vidal", (step,), ladder)
    rv, chi = _intermediate(ladder)
    kraus = _kraus(ladder.ratios[0], rv)
    outcome = apply_two_outcome(chi, kraus)
    steps = (
        PlanStep(StepKind.DETERMINISTIC, source_name, src, "intermediate", chi),
        PlanStep(
            StepKind.PROBABILISTIC, "intermediate", chi, target_name, tgt,
            kraus=kraus, success_prob=outcome.success_prob,
            failure_name="residual", failure_state=outcome.require_failure(),
        ),
    )
    return ConversionPlan("vidal", steps, ladder)


def plan_vidal(source: ProbVec, target: ProbVec, *,
               source_name: str = "source", target_name: str = "target") -> ConversionPlan:
    """Optimal two-step plan: deterministic move to the intermediate state,
    then a two-outcome measurement that yields the target on success."""
    return _vidal(source, target, compare(source, target), source_name, target_name)


def plan_greedy(source: ProbVec, target: ProbVec) -> ConversionPlan:
    """Deterministic phase first: climb to the common product, then measure.

    For comparable inputs the detour is pointless and the plan degrades to
    the plain Vidal plan (tagged as such).
    """
    order = compare(source, target)
    base = _vidal(source, target, order)
    if order is not MajOrder.INCOMPARABLE:
        return base
    ocp = join(source, target)
    src, chi = base.steps[0].from_state, base.steps[0].to_state
    steps = (
        PlanStep(StepKind.DETERMINISTIC, "source", src, "common_product", ocp),
        PlanStep(StepKind.DETERMINISTIC, "common_product", ocp, "intermediate", chi),
        base.steps[1],
    )
    return ConversionPlan("greedy", steps, base.ladder)


def plan_thrifty(source: ProbVec, target: ProbVec) -> ConversionPlan:
    """Probabilistic phase first: measure down to the common resource, then
    convert deterministically.  Same success probability as the greedy plan,
    but the failure residual is more entangled (majorized by the greedy one)."""
    _check_ranks(source.as_array(), target.as_array())
    order = compare(source, target)
    if order is not MajOrder.INCOMPARABLE:
        return _vidal(source, target, order)
    core = plan_vidal(source, meet(source, target), target_name="common_resource")
    ocr = core.steps[-1].to_state
    steps = core.steps + (
        PlanStep(StepKind.DETERMINISTIC, "common_resource", ocr,
                 "target", target.padded(ocr.dim)),
    )
    return ConversionPlan("thrifty", steps, core.ladder)


def plan_multi_target(source: ProbVec, targets) -> MultiStatePlan:
    """Plan for an undisclosed target out of several candidates.

    Moves probabilistically to the common resource of source and all targets;
    once the target is revealed, the matching tail is deterministic.  The
    success probability equals the worst of the individual conversion
    probabilities.
    """
    targets = tuple(targets)
    if not targets:
        raise ValueError("need at least one target")
    for i, t in enumerate(targets):
        if effective_rank(t) > effective_rank(source):
            raise RankDeficit(f"target #{i} needs more non-zero coefficients than the source")
    ocr = meet_many([source, *targets])
    core = plan_vidal(source, ocr, target_name="common_resource")
    d = core.steps[-1].to_state.dim
    tails = tuple(
        PlanStep(StepKind.DETERMINISTIC, "common_resource", ocr.padded(d),
                 f"target_{i}", t.padded(d))
        for i, t in enumerate(targets)
    )
    return MultiStatePlan("multi-target", (), core, tails)


def plan_multi_source(sources, target: ProbVec) -> MultiStatePlan:
    """Plan for an undisclosed source out of several candidates.

    Every source climbs deterministically to the common product of all
    sources and the target; the shared probabilistic tail succeeds with the
    worst of the individual conversion probabilities.
    """
    sources = tuple(sources)
    if not sources:
        raise ValueError("need at least one source")
    for i, s in enumerate(sources):
        if effective_rank(target) > effective_rank(s):
            raise RankDeficit(f"source #{i} has fewer non-zero coefficients than the target needs")
    ocp = join_many([*sources, target])
    core = plan_vidal(ocp, target, source_name="common_product")
    d = core.steps[0].from_state.dim
    heads = tuple(
        PlanStep(StepKind.DETERMINISTIC, f"source_{i}", s.padded(d),
                 "common_product", ocp.padded(d))
        for i, s in enumerate(sources)
    )
    return MultiStatePlan("multi-source", heads, core, ())


def step_outcomes(step: PlanStep) -> list[tuple[float, ProbVec]]:
    """(probability, output spectrum) pairs of a plan step."""
    if step.kind is StepKind.DETERMINISTIC:
        return [(1.0, step.to_state)]
    outs = [(float(step.success_prob), step.to_state)]
    if step.failure_state is not None:
        outs.append((1.0 - float(step.success_prob), step.failure_state))
    return outs


def _step_slack_rows(from_rows: np.ndarray, outcomes) -> np.ndarray:
    """Smallest slack of E_l(in) - sum_o p_o E_l(out_o) over all l, row by row.

    ``outcomes`` holds one (probabilities, rows) pair per outcome, the
    probabilities as an ``(N, 1)`` column for ``(N, d)`` rows.
    """
    e_avg = sum(prob * monotone_rows(out) for prob, out in outcomes)
    return (monotone_rows(from_rows) - e_avg).min(axis=-1)


def step_monotone_slacks(steps) -> list[float]:
    """Smallest slack of E_l(in) - sum_o p_o E_l(out_o) over all l, for each step.

    Non-negative (within tolerance) for any physically allowed step: the
    suffix-sum monotones cannot increase on average.  The states of a step are
    padded to its largest dimension, and steps alike in dimension and number
    of outcomes are evaluated together, as one stack of rows.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    outcomes = [step_outcomes(step) for step in steps]
    for i, (step, outs) in enumerate(zip(steps, outcomes)):
        d = max([step.from_state.dim] + [out.dim for _, out in outs])
        groups.setdefault((d, len(outs)), []).append(i)
    slacks = [0.0] * len(steps)
    for (d, n_outs), members in groups.items():
        def rows(states):
            return np.array([s.padded(d).as_array() for s in states])

        stacked = [(np.array([[outcomes[i][o][0]] for i in members]),
                    rows([outcomes[i][o][1] for i in members])) for o in range(n_outs)]
        group = _step_slack_rows(rows([steps[i].from_state for i in members]), stacked)
        for i, slack in zip(members, group.tolist()):
            slacks[i] = slack
    return slacks


def validate_plan(plan: ConversionPlan) -> None:
    """Check the invariants of a plan; raise ValueError on violation.

    Every probabilistic step is re-applied to its input: the claimed success
    probability, success state and failure state must match what its Kraus
    operators give.  Comparisons are written so that NaN fails them.

    The from/to states of all steps are stacked into one zero-padded array,
    and the chaining, canonical-form and majorization checks are row-wise
    reductions over it.  The first failure is reported, in this order:

    1. the plan has no steps;
    2. a step does not end where the next one starts (first such pair);
    3. step by step, in plan order:
       a. a from/to state is not canonical (sum 1, sorted descending, no
          entry below -epsilon);
       b. a deterministic step is not a majorization move;
       c. a probabilistic step lacks Kraus data or a probability, claims a
          probability outside (0, 1], has Kraus diagonals that violate
          completeness or whose length differs from its input's, or claims a
          success probability, success state or failure state other than
          what its Kraus operators give (checked in that order).
    """
    eps = get_epsilon()
    steps = plan.steps
    if not steps:
        raise ValueError("plan has no steps")
    states = [s for step in steps for s in (step.from_state, step.to_state)]
    dims = [s.dim for s in states]
    width = max(dims)
    rows = np.zeros((len(states), width))  # row 2i: from-state of step i, row 2i+1: its to-state
    for r, state in enumerate(states):
        rows[r, : state.dim] = state.as_array()
    with np.errstate(all="ignore"):  # non-finite entries fail the checks, silently
        if len(steps) > 1:
            gaps = max_deviation(rows[1:-1:2], rows[2::2])
            for i, ok in enumerate((gaps <= eps).tolist()):
                if not ok:
                    raise ValueError(f"step to {steps[i].to_name} does not lead to step from "
                                     f"{steps[i + 1].from_name}")
        sums = rows.sum(axis=1)
        for r, d in enumerate(dims):
            if d < width:  # zero padding changes numpy's pairwise sum
                sums[r] = rows[r, :d].sum()
        # A state is canonical when all of its excess is <= epsilon: each rise from
        # an entry to the next, each negated entry and the sum's distance from 1.
        excess = np.concatenate((rows[:, 1:] - rows[:, :-1], -rows, np.abs(sums - 1.0)[:, None]),
                                axis=1)
        canonical = (np.maximum.reduce(excess, axis=1) <= eps).tolist()
        cums = np.cumsum(rows, axis=1)
        margins = cums[1::2, :-1] - cums[0::2, :-1]  # column k: margin over the first k+1 entries
        for i, pair_dim in enumerate(map(max, dims[0::2], dims[1::2])):
            if pair_dim < width:  # a step's margins stop at its own dimension - 1
                margins[i, pair_dim - 1:] = 0.0
        moves_ok = (np.minimum.reduce(margins, axis=1, initial=0.0) >= -eps).tolist()

    for i, step in enumerate(steps):
        name = f"{step.from_name}->{step.to_name}"
        if not (canonical[2 * i] and canonical[2 * i + 1]):
            raise ValueError(f"non-canonical state in step {name}")
        if step.kind is StepKind.DETERMINISTIC:
            if not moves_ok[i]:
                raise ValueError(f"deterministic step {name} is not allowed")
            continue
        if step.kraus is None or step.success_prob is None:
            raise ValueError("probabilistic step lacks Kraus data or probability")
        if not (0.0 < step.success_prob <= 1.0):
            raise ValueError(f"success probability {step.success_prob} outside (0, 1]")
        m_sq, n_sq = np.square(step.kraus.m_diag), np.square(step.kraus.n_diag)
        if not np.abs(m_sq + n_sq - 1.0).max() <= eps:
            raise ValueError("Kraus diagonals violate completeness")
        p, success, failure = _branch_rows(rows[2 * i, : dims[2 * i]], m_sq, n_sq)
        if not abs(p - step.success_prob) <= eps:
            raise ValueError(f"step {name} claims success probability {step.success_prob}, "
                             f"its Kraus operators give {p}")
        for branch, claimed, derived in (("success", step.to_state, success),
                                         ("failure", step.failure_state, failure)):
            if claimed is not None and (derived is None
                                        or not max_deviation(claimed.as_array(), derived) <= eps):
                given = "a branch of probability ~0" if derived is None else _row_vec(derived)
                raise ValueError(f"step {name} claims the {branch} state {claimed}, "
                                 f"its Kraus operators give {given}")


# ---------------------------------------------------------------------------
# serialization (JSON-ready dicts and DOT digraphs)

def _state_list(p: ProbVec) -> list[float]:
    return p.as_array().tolist()


def step_to_dict(step: PlanStep) -> dict:
    doc = {
        "kind": step.kind.value,
        "from": {"name": step.from_name, "state": _state_list(step.from_state)},
        "to": {"name": step.to_name, "state": _state_list(step.to_state)},
    }
    if step.kind is StepKind.PROBABILISTIC:
        doc["kraus"] = {
            "m_diag": step.kraus.m_diag.tolist(),
            "n_diag": step.kraus.n_diag.tolist(),
        }
        doc["success_prob"] = step.success_prob
        if step.failure_state is not None:
            doc["failure"] = {"name": step.failure_name, "state": _state_list(step.failure_state)}
    return doc


def _numbers(raw, what: str) -> list:
    """``raw`` if it is a JSON array of numbers; booleans and numeric strings are not numbers."""
    # one check per distinct entry type, not per entry
    if isinstance(raw, list) and all(issubclass(t, (int, float)) and t is not bool
                                     for t in set(map(type, raw))):
        return raw
    raise ValueError(f"{what} must be finite JSON numbers")


def _number(raw, what: str) -> float:
    return float(_numbers([raw], what)[0])


def _state(raw, what: str) -> ProbVec:
    return ProbVec(_numbers(raw, what))


def _name(raw, what: str) -> str:
    if isinstance(raw, str):
        return raw
    raise ValueError(f"{what} must be a JSON string")


def _field(doc: dict, key: str, where: str):
    """``doc[key]``; a missing key is a ValueError that names it and ``where`` it belongs."""
    try:
        return doc[key]
    except KeyError:
        raise ValueError(f"missing field {key!r} in {where}") from None


def step_from_dict(doc: dict, where: str) -> PlanStep:
    """Read one step document; ``where`` names it in a missing-field error."""
    kind = StepKind(_field(doc, "kind", where))
    kwargs = {}
    if kind is StepKind.PROBABILISTIC:
        kraus = _field(doc, "kraus", where)
        kwargs["kraus"] = KrausDiagonals(
            m_diag=_numbers(_field(kraus, "m_diag", f"{where}.kraus"), "Kraus m_diag"),
            n_diag=_numbers(_field(kraus, "n_diag", f"{where}.kraus"), "Kraus n_diag"),
        )
        kwargs["success_prob"] = _number(_field(doc, "success_prob", where), "step success_prob")
        if "failure" in doc:
            failure = doc["failure"]
            kwargs["failure_name"] = _name(_field(failure, "name", f"{where}.failure"),
                                           "failure name")
            kwargs["failure_state"] = _state(_field(failure, "state", f"{where}.failure"),
                                             "failure state")
    ends = []  # from-name, from-state, to-name, to-state
    for end in ("from", "to"):
        node = _field(doc, end, where)
        ends += [_name(_field(node, "name", f"{where}.{end}"), "step name"),
                 _state(_field(node, "state", f"{where}.{end}"), "step state")]
    return PlanStep(kind, *ends, **kwargs)


def _ladder_to_dict(ladder: RatioLadder) -> dict:
    return {
        "source": _state_list(ladder.source),
        "target": _state_list(ladder.target),
        "ratios": list(ladder.ratios),
        "indices": list(ladder.indices),
        "l0": ladder.l0,
    }


def _ladder_from_dict(doc: dict, steps: tuple[PlanStep, ...]) -> RatioLadder:
    """The ladder a plan document gives, once it is checked to be the ratio ladder
    from the plan's first state to the to-state of one of its steps.

    One of its steps, not its last measurement's: a thrifty plan whose core is
    deterministic has its ladder's target at step 0.
    """
    indices, l0 = _field(doc, "indices", "the ladder"), _field(doc, "l0", "the ladder")
    if not (isinstance(indices, list) and all(type(i) is int for i in indices)
            and type(l0) is int):
        raise ValueError("ladder indices and l0 must be JSON integers")
    ladder = RatioLadder(
        source=_state(_field(doc, "source", "the ladder"), "ladder source"),
        target=_state(_field(doc, "target", "the ladder"), "ladder target"),
        ratios=tuple(map(float, _numbers(_field(doc, "ratios", "the ladder"), "ladder ratios"))),
        indices=tuple(indices),
    )
    eps = get_epsilon()
    source = ladder.source.as_array()
    if not (steps and max_deviation(source, steps[0].from_state.as_array()) <= eps):
        raise ValueError("the ladder's source is not the plan's first state")
    target = ladder.target.as_array()
    if not any(max_deviation(target, s.to_state.as_array()) <= eps for s in steps):
        raise ValueError("the ladder's target is not the to-state of any step")
    try:
        with np.errstate(all="ignore"):  # a ladder of non-finite ratios fails the check below
            derived = ratio_ladder(ladder.source, ladder.target)
    except (MajlatError, ZeroDivisionError) as exc:  # the states need not be canonical here
        raise ValueError(f"the ladder's source and target have no ratio ladder: {exc}") from None
    if not (ladder.indices == derived.indices and l0 == derived.l0 and ladder.k == derived.k
            and max_deviation(np.array(ladder.ratios), np.array(derived.ratios)) <= eps):
        raise ValueError("the ladder is not the ratio ladder of its source and target")
    return ladder


def plan_to_dict(plan: ConversionPlan) -> dict:
    return {
        "protocol": plan.protocol,
        "success_prob": plan.success_prob,
        "steps": [step_to_dict(s) for s in plan.steps],
        "residual": None if plan.residual is None else _state_list(plan.residual),
        "ladder": None if plan.ladder is None else _ladder_to_dict(plan.ladder),
    }


def plan_from_dict(doc: dict) -> ConversionPlan:
    """Read a plan document, the JSON form of ``plan_to_dict``.

    Numbers must be JSON numbers, not booleans or numeric strings, and names
    must be strings.  The document's ``success_prob`` and ``residual`` are
    claims about its steps: the probability must be the product of the steps'
    within epsilon, and a residual, unless null, the failure state of the last
    measurement step within epsilon after zero padding.  A ``ladder``, unless
    null, must be the ratio ladder from the plan's first state to the to-state
    of one of its steps.  A missing required field is reported with the place
    it belongs, e.g. ``steps[1].kraus``.  Whether the steps are valid is for
    ``validate_plan``.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a plan document is a JSON object, not {type(doc).__name__}")
    if "steps" not in doc:
        raise ValueError(f"the {doc.get('protocol', 'unnamed')} plan document has no steps: "
                         "simulate runs single conversion plans (vidal, greedy or thrifty)")
    residual = doc.get("residual")
    ladder = doc.get("ladder")
    try:
        steps = tuple(step_from_dict(s, f"steps[{i}]") for i, s in enumerate(doc["steps"]))
        plan = ConversionPlan(
            protocol=_name(_field(doc, "protocol", "the plan"), "protocol"),
            steps=steps,
            ladder=None if ladder is None else _ladder_from_dict(ladder, steps),
        )
        success_prob = _number(_field(doc, "success_prob", "the plan"), "success_prob")
        residual = None if residual is None else _state(residual, "residual")
    except (TypeError, ValueError, OverflowError) as exc:  # a field of the wrong JSON type or shape
        raise ValueError(f"malformed plan document: {exc}") from None
    eps = get_epsilon()
    if not abs(success_prob - plan.success_prob) <= eps:
        raise ValueError("plan success probability != product of step probabilities")
    if residual is not None:
        last = _last_measurement(steps)
        if last is None:
            raise ValueError("plan has a residual but no probabilistic step")
        if (plan.residual is None
                or not max_deviation(residual.as_array(), plan.residual.as_array()) <= eps):
            raise ValueError(f"plan residual {residual} is not the failure state of step "
                             f"{last.from_name}->{last.to_name}")
    return plan


def multi_plan_to_dict(plan: MultiStatePlan) -> dict:
    doc = {"protocol": plan.protocol, "success_prob": plan.success_prob}
    if plan.heads:
        doc["heads"] = [step_to_dict(s) for s in plan.heads]
    doc["core"] = plan_to_dict(plan.core)
    if plan.tails:
        doc["tails"] = [step_to_dict(s) for s in plan.tails]
    return doc


def plan_to_dot(plan: ConversionPlan | MultiStatePlan) -> str:
    """DOT digraph of a plan: bold edges deterministic, dashed probabilistic."""
    nodes: dict[str, ProbVec] = {}
    edges: list[str] = []
    for step in plan.steps:
        nodes.setdefault(step.from_name, step.from_state)
        nodes.setdefault(step.to_name, step.to_state)
        if step.kind is StepKind.DETERMINISTIC:
            edges.append(f'  "{step.from_name}" -> "{step.to_name}" [style=bold];')
        else:
            label = f"p={step.success_prob:.6g}"
            edges.append(f'  "{step.from_name}" -> "{step.to_name}" [style=dashed, label="{label}"];')
            if step.failure_state is not None:
                nodes.setdefault(step.failure_name, step.failure_state)
                flabel = f"p={1.0 - step.success_prob:.6g}"
                edges.append(
                    f'  "{step.from_name}" -> "{step.failure_name}" [style=dashed, label="{flabel}"];'
                )
    lines = [f"digraph {plan.protocol.replace('-', '_')} {{", "  rankdir=LR;"]
    for name, state in nodes.items():
        lines.append(f'  "{name}" [label="{name}\\n{state}"];')
    lines.extend(edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
