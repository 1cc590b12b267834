"""Executable conversion plans: Vidal, greedy and thrifty protocols.

A plan is a short list of steps at the Schmidt-spectrum level.  Deterministic
steps move to a spectrum that majorizes the current one; the single
probabilistic step is a local two-outcome measurement given by diagonal Kraus
operators, with an explicit success probability and failure spectrum.

The greedy protocol detours through the optimal common product (the join of
source and target), the thrifty protocol through the optimal common resource
(the meet).  Both succeed with the same optimal probability; the thrifty
residual is always majorized by the greedy one.

Every protocol is one Vidal measurement with a deterministic detour, so one
analysis serves them all: ``vidal_rows`` takes the ladder, intermediate
state, Kraus diagonals, success probability and branches of each row of two
``(N, d)`` stacks.  The planners call it on one pair of ``(d,)`` rows; greedy
ends in Vidal's measurement, and thrifty's core is the Vidal analysis from
the source to the meet.  The sweep calls it on whole chunks of pairs.  Its
kernels (``ladder_rows``, ``r_rows`` and the Born rule ``_branch_rows``) give
a single row a short path that keeps probabilities, flags and block
boundaries in Python scalars, with the same float operations on the same
operands, so a planner gets the bits of its pair's row in a chunk.

Each protocol's steps are stated once, by ``vidal_steps``, ``greedy_steps``
and ``descent_steps`` (a core down to the meet, then a move per target), on
one pair's ``ProbVec`` s or a chunk's rows: the planners turn a pair's steps
into ``PlanStep`` s, and the sweep hands a chunk's to ``monotone_slack_rows``.

A multi-state plan, for an undisclosed source or target out of several, is
one core plan plus a deterministic head per source or tail per target.  It
is valid when each of its paths, one head or tail plus the core, is valid.
``validate_plan`` checks, and ``plan_to_dot`` draws, either kind of plan.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from itertools import pairwise
from typing import NamedTuple

import numpy as np

from .config import get_epsilon
from .errors import DegenerateBranch, MajlatError
from .lattice import join, join_many, meet, meet_many
from .ladder import (RatioLadder, _check_ranks, _padded, _rank_deficit, ladder_rows,
                     monotone_rows, r_rows, r_vector, ratio_ladder)
from .schmidt import (MajOrder, ProbVec, _ArrayValue, compare, effective_rank, margin_rows,
                      max_deviation, stack_rows)


@dataclass(frozen=True, eq=False)
class KrausDiagonals(_ArrayValue):
    """Diagonals of the two measurement operators; m^2 + n^2 = 1 entrywise.

    Like a ``ProbVec``, each diagonal is stored once as a read-only float64
    array, copied on construction, so the Born rule and the checks read it
    without converting it; equality and hashing go by the entries.
    """

    m_diag: np.ndarray
    n_diag: np.ndarray
    _arrays = ("m_diag", "n_diag")

    def __post_init__(self):
        m, n = np.array(self.m_diag, dtype=np.float64), np.array(self.n_diag, dtype=np.float64)
        m.setflags(write=False)
        n.setflags(write=False)
        object.__setattr__(self, "m_diag", m)
        object.__setattr__(self, "n_diag", n)


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
    deterministic tail per target.  One of ``heads`` and ``tails`` is empty.  Each
    path, one head or tail plus the core, is an ordinary conversion plan; ``validate_plan``
    checks every path and rejects a head or tail that is not deterministic.
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

    Branch states are None when the branch has (near-)zero probability.
    """

    success_prob: float
    success_state: ProbVec | None
    failure_state: ProbVec | None


_NO_FAILURE = "failure branch has probability ~0"


def _kraus_rows(r1, rv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals of the success and failure operators from the first ratio ``r1`` and
    the block ratio vector ``rv`` of a ladder, or ``(N, 1)`` and ``(N, d)`` stacks of them."""
    m_sq = r1 / rv
    n_sq = np.maximum(1.0 - m_sq, 0.0)  # the call np.clip(x, 0.0, None) makes, without its wrapper
    return np.sqrt(m_sq), np.sqrt(n_sq)


def kraus_diagonals(ladder: RatioLadder) -> KrausDiagonals:
    """Measurement diagonals from a ratio ladder.

    The success operator is block-constant, sqrt(r_1 / r_j) on block j, hence
    exactly 1 on the first block; the failure operator fills up to
    completeness and therefore vanishes there.
    """
    return KrausDiagonals(*_kraus_rows(ladder.ratios[0], r_vector(ladder)))


def _kraus_shape_error(state: tuple, m: tuple, n: tuple) -> ValueError:
    """The error for Kraus diagonals of shapes ``m`` and ``n`` that differ from each
    other or from the shape ``state`` of the spectra they act on; it names the two
    that differ, by their length where they are 1-d."""
    def dim(shape):
        return shape[0] if len(shape) == 1 else shape

    if m != n:
        return ValueError(f"Kraus m_diag dimension {dim(m)} != n_diag dimension {dim(n)}")
    return ValueError(f"state dimension {dim(state)} != Kraus dimension {dim(m)}")


def _branch_rows(lam: np.ndarray, m_sq: np.ndarray, n_sq: np.ndarray):
    """Born rule of a diagonal two-outcome measurement on each row of spectra ``lam``.

    ``m_sq`` and ``n_sq`` are the squared Kraus diagonals, rows of the shape of
    ``lam`` (else ``ValueError``).  Returns the success probabilities
    ``m_sq . lam``, row by row, and per branch its spectra as rows sorted in
    non-increasing order, with a mask of the rows where the branch has
    probability > epsilon; elsewhere the branch has no spectrum, and its rows
    are not one.  For one ``(d,)`` row the probability is a float and each mask
    a bool.
    """
    if not lam.shape == m_sq.shape == n_sq.shape:
        raise _kraus_shape_error(lam.shape, m_sq.shape, n_sq.shape)
    p = np.vecdot(m_sq, lam)  # row by row, the bits of ``m_sq[i] @ lam[i]``
    one = lam.ndim == 1
    if one:
        p = float(p)
    eps = get_epsilon()

    def branch(op_sq: np.ndarray, prob):
        # NaN keeps its branch, and its NaN spectrum fails every check
        rows = op_sq * lam
        if one:
            kept = not prob <= eps
            if kept:
                rows /= prob
        else:
            kept = ~(prob <= eps)
            np.divide(rows, prob[..., None], out=rows, where=kept[..., None])
        rows.sort(axis=-1)  # in place, as np.sort sorts its copy
        return rows[..., ::-1], kept

    return p, branch(m_sq, p), branch(n_sq, 1.0 - p)


def _row_vec(row: np.ndarray, kept) -> ProbVec | None:
    return ProbVec(row) if kept else None


def apply_two_outcome(state: ProbVec, kraus: KrausDiagonals) -> TwoOutcomeResult:
    """Born-rule action of a diagonal two-outcome measurement on a spectrum."""
    p, success, failure = _branch_rows(state.as_array(), np.square(kraus.m_diag),
                                       np.square(kraus.n_diag))
    return TwoOutcomeResult(success_prob=float(p), success_state=_row_vec(*success),
                            failure_state=_row_vec(*failure))


class VidalRows(NamedTuple):
    """The Vidal analysis of N conversions that measure, row i that of ``sources[i]``
    to ``targets[i]``, padded to one dimension d.

    Per row: its ladder's ratios and indices (lists), the intermediate state
    r * target, the Kraus diagonals, the success probability of the measurement
    on the intermediate state, and its success and failure branches.  A success
    branch of probability <= epsilon has no spectrum (``has_success``); a
    failure branch always has one.  The analysis of one conversion of ``(d,)``
    rows has ``(d,)`` arrays, a float ``success_prob`` and a bool ``has_success``.
    """

    sources: np.ndarray
    targets: np.ndarray
    ratios: list
    indices: list
    intermediate: np.ndarray
    m_diag: np.ndarray
    n_diag: np.ndarray
    success_prob: np.ndarray
    success: np.ndarray
    has_success: np.ndarray
    failure: np.ndarray

    def take(self, rows: np.ndarray) -> VidalRows:
        """The analysis of the given rows, in their order."""
        return VidalRows(*([value[i] for i in rows] if isinstance(value, list) else value[rows]
                           for value in self))


def vidal_rows(sources: np.ndarray, targets: np.ndarray) -> VidalRows:
    """The conversion analysis all planners share, on each row of two ``(N, d)``
    stacks of one shape: ladder, intermediate state, Kraus diagonals and Born rule.
    Two ``(d,)`` rows are one conversion, whose arrays keep that shape.

    Raises ``RankDeficit`` for a row whose conversion is impossible, and
    ``DegenerateBranch`` for a row whose failure branch has probability <= epsilon.
    """
    ratios, indices = ladder_rows(sources, targets)
    rv = r_rows(ratios, indices, targets.shape)
    chi = rv * targets
    m_diag, n_diag = _kraus_rows(rv[..., -1:], rv)  # the last entry lies on the first block
    p, (success, has_success), (failure, has_failure) = _branch_rows(
        chi, np.square(m_diag), np.square(n_diag))
    if has_failure is not True and not np.all(has_failure):  # one row's flag is a bool
        raise DegenerateBranch(_NO_FAILURE)
    return VidalRows(sources, targets, ratios, indices, chi, m_diag, n_diag, p, success,
                     has_success, failure)


def vidal_steps(source, target, analysis: VidalRows | None = None, intermediate=None,
                source_name: str = "source", target_name: str = "target") -> list:
    """Vidal's steps from ``source`` to ``target``, one pair's ``ProbVec`` s or a chunk's rows.

    A step is (from-name, from-state, to-name, to-state, the Vidal analysis of its
    measurement or None).  Without an ``analysis``, where the source is majorized by
    the target, there is one move; else the move to the ``intermediate`` state (by
    default the analysis's) and the measurement, whose failure branch is the ``residual``.
    """
    if analysis is None:
        return [(source_name, source, target_name, target, None)]
    if intermediate is None:
        intermediate = analysis.intermediate
    return [(source_name, source, "intermediate", intermediate, None),
            ("intermediate", intermediate, target_name, target, analysis)]


def greedy_steps(vidal: list, ocp) -> list:
    """Greedy's steps: Vidal's ``vidal`` steps that measure, with the move to the
    intermediate state detoured through the common product ``ocp``, the join."""
    (source_name, source, _, chi, _), measurement = vidal
    return [(source_name, source, "common_product", ocp, None),
            ("common_product", ocp, "intermediate", chi, None), measurement]


def descent_steps(core: list, targets, names) -> list:
    """The ``core`` steps down to the common resource, the meet, then one move from the
    core's last state to each of ``targets``, named by ``names``."""
    ocr = core[-1][3]
    return core + [("common_resource", ocr, name, t, None) for name, t in zip(names, targets)]


def _plan_steps(steps) -> tuple[PlanStep, ...]:
    """The ``PlanStep`` s of one pair's steps; a measurement carries its analysis's Kraus
    diagonals, success probability and failure branch."""
    out = []
    for from_name, from_state, to_name, to_state, rows in steps:
        if rows is None:
            out.append(PlanStep(StepKind.DETERMINISTIC, from_name, from_state, to_name, to_state))
        else:
            out.append(PlanStep(StepKind.PROBABILISTIC, from_name, from_state, to_name, to_state,
                                KrausDiagonals(rows.m_diag, rows.n_diag),
                                float(rows.success_prob), "residual", ProbVec(rows.failure)))
    return tuple(out)


def _plan(protocol: str, ladder: RatioLadder, steps) -> ConversionPlan:
    return ConversionPlan(protocol, _plan_steps(steps), ladder)


def _vidal(source: ProbVec, target: ProbVec, order: MajOrder, source_name: str = "source",
           target_name: str = "target") -> tuple[RatioLadder, list]:
    """The ladder and Vidal's steps of a pair of known order: ``vidal_rows`` on one row,
    or only the ladder where the source is majorized by the target."""
    if order in (MajOrder.PRECEDES, MajOrder.EQUIVALENT):
        ladder = ratio_ladder(source, target)
        return ladder, vidal_steps(ladder.source, ladder.target, source_name=source_name,
                                   target_name=target_name)
    src, tgt = _padded(source, target)
    rows = vidal_rows(src.as_array(), tgt.as_array())
    ladder = RatioLadder(src, tgt, tuple(rows.ratios[0]), tuple(rows.indices[0]))
    return ladder, vidal_steps(src, tgt, rows, ProbVec(rows.intermediate), source_name,
                               target_name)


def plan_vidal(source: ProbVec, target: ProbVec) -> ConversionPlan:
    """Optimal two-step plan: deterministic move to the intermediate state,
    then a two-outcome measurement that yields the target on success."""
    return _plan("vidal", *_vidal(source, target, compare(source, target)))


def plan_greedy(source: ProbVec, target: ProbVec) -> ConversionPlan:
    """Deterministic phase first: climb to the common product, then measure.

    For comparable inputs the detour is pointless and the plan degrades to
    the plain Vidal plan (tagged as such).
    """
    order = compare(source, target)
    ladder, steps = _vidal(source, target, order)
    if order is not MajOrder.INCOMPARABLE:
        return _plan("vidal", ladder, steps)
    return _plan("greedy", ladder, greedy_steps(steps, join(source, target)))


def _descent(source: ProbVec, ocr: ProbVec, targets, names) -> tuple[RatioLadder, list]:
    """The ladder of the Vidal core from ``source`` to the meet ``ocr``, and the steps of
    the descent through it to each target; a meet is padded to its inputs' largest
    dimension, as the ladder pads."""
    ladder, core = _vidal(source, ocr, compare(source, ocr), target_name="common_resource")
    return ladder, descent_steps(core, [t.padded(ocr.dim) for t in targets], names)


def plan_thrifty(source: ProbVec, target: ProbVec) -> ConversionPlan:
    """Probabilistic phase first: measure down to the common resource, then
    convert deterministically.  Same success probability as the greedy plan,
    but the failure residual is more entangled (majorized by the greedy one)."""
    _check_ranks(source.as_array(), target.as_array())
    order = compare(source, target)
    if order is not MajOrder.INCOMPARABLE:
        return _plan("vidal", *_vidal(source, target, order))
    return _plan("thrifty", *_descent(source, meet(source, target), (target,), ("target",)))


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
    has = effective_rank(source)
    for i, need in enumerate(map(effective_rank, targets)):
        if need > has:
            raise _rank_deficit(need, has, target=f"target #{i}")
    ladder, steps = _descent(source, meet_many([source, *targets]), targets,
                             [f"target_{i}" for i in range(len(targets))])
    steps, k = _plan_steps(steps), len(targets)
    return MultiStatePlan("multi-target", (), ConversionPlan("vidal", steps[:-k], ladder),
                          steps[-k:])


def plan_multi_source(sources, target: ProbVec) -> MultiStatePlan:
    """Plan for an undisclosed source out of several candidates.

    Every source climbs deterministically to the common product of all
    sources and the target; the shared probabilistic tail succeeds with the
    worst of the individual conversion probabilities.
    """
    sources = tuple(sources)
    if not sources:
        raise ValueError("need at least one source")
    need = effective_rank(target)
    for i, has in enumerate(map(effective_rank, sources)):
        if need > has:
            raise _rank_deficit(need, has, source=f"source #{i}")
    ocp = join_many([*sources, target])
    ladder, core = _vidal(ocp, target, compare(ocp, target), source_name="common_product")
    top = core[0][1]  # the common product, padded as the ladder pads
    heads = [(f"source_{i}", s.padded(top.dim), "common_product", top, None)
             for i, s in enumerate(sources)]
    return MultiStatePlan("multi-source", _plan_steps(heads), _plan("vidal", ladder, core), ())


def step_outcomes(step: PlanStep) -> list[tuple[float, ProbVec]]:
    """(probability, output spectrum) pairs of a plan step."""
    if step.kind is StepKind.DETERMINISTIC:
        return [(1.0, step.to_state)]
    outs = [(float(step.success_prob), step.to_state)]
    if step.failure_state is not None:
        outs.append((1.0 - float(step.success_prob), step.failure_state))
    return outs


def monotone_slack_rows(step) -> np.ndarray:
    """Smallest slack of E_l(in) - sum_o p_o E_l(out_o) over all l, for each row of a
    step of ``(N, d)`` rows, as the step builders return it.

    A move has one outcome, its to-state; a measurement has its to-state with its
    success probability p and its failure branch with 1 - p.  Non-negative (within
    tolerance) for any physically allowed step: the suffix-sum monotones cannot
    increase on average.
    """
    _, source, _, target, analysis = step
    outcomes = [(1.0, target)]
    if analysis is not None:
        p = analysis.success_prob[:, None]
        outcomes = [(p, target), (1.0 - p, analysis.failure)]
    e_avg = sum(prob * monotone_rows(rows) for prob, rows in outcomes)
    return (monotone_rows(source) - e_avg).min(axis=-1)


def validate_plan(plan: ConversionPlan | MultiStatePlan) -> None:
    """Check the invariants of either kind of plan; raise ValueError on violation.

    Every probabilistic step is re-applied to its input: the claimed success
    probability, success state and failure state must match what its Kraus
    operators give.  Comparisons are written so that NaN fails them.

    The from/to states of all steps are stacked into one zero-padded array, and the
    link, canonical-form and majorization checks are row-wise reductions over it, once
    per step.  A link joins consecutive steps of the plan, or of a path of a multi-state
    plan (``paths()``, or the core if it has none).  The first failure is reported:

    1. the plan has no steps;
    2. a head or tail of a multi-state plan is not deterministic;
    3. a step does not end where the next one starts (first such link, in ``paths()`` order);
    4. step by step, in ``plan.steps`` order:
       a. a from/to state is not canonical (sum 1, sorted descending, no
          entry below -epsilon);
       b. a deterministic step is not a majorization move;
       c. a probabilistic step lacks Kraus data or a probability, claims a
          probability outside (0, 1], has Kraus diagonals of unequal lengths
          or that violate completeness, or of a shape other than its input's
          (empty ones included), or claims a
          success probability, success state or failure state other than
          what its Kraus operators give (checked in that order).
    """
    eps = get_epsilon()
    steps = plan.steps
    if not steps:
        raise ValueError("plan has no steps")
    links, ends, starts = pairwise(range(len(steps))), slice(1, -1, 2), slice(2, None, 2)
    if isinstance(plan, MultiStatePlan):
        for step in plan.heads + plan.tails:
            if step.kind is not StepKind.DETERMINISTIC:
                raise ValueError(f"multi-state step {step.from_name}->{step.to_name} "
                                 "is not deterministic")
        at = {id(step): i for i, step in enumerate(steps)}
        links = [(at[id(a)], at[id(b)]) for path in plan.paths() or (plan.core,)
                 for a, b in pairwise(path.steps)]
        ends, starts = [2 * a + 1 for a, _ in links], [2 * b for _, b in links]  # their rows
    states = [s for step in steps for s in (step.from_state, step.to_state)]
    dims = [s.dim for s in states]
    rows = stack_rows(states)  # row 2i: from-state of step i, row 2i+1: its to-state
    width = rows.shape[1]
    with np.errstate(all="ignore"):  # non-finite entries fail the checks, silently
        gaps = max_deviation(rows[ends], rows[starts]).tolist() if len(steps) > 1 else []
        for (a, b), gap in zip(links, gaps):  # how far step a ends from where step b starts
            if not gap <= eps:
                raise ValueError(f"step to {steps[a].to_name} does not lead to step from "
                                 f"{steps[b].from_name}")
        sums = rows.sum(axis=1)
        for r, d in enumerate(dims):
            if d < width:  # zero padding changes numpy's pairwise sum
                sums[r] = rows[r, :d].sum()
        # A state is canonical when all of its excess is <= epsilon: each rise from
        # an entry to the next, each negated entry and the sum's distance from 1.
        excess = np.concatenate((rows[:, 1:] - rows[:, :-1], -rows, np.abs(sums - 1.0)[:, None]),
                                axis=1)
        canonical = (np.maximum.reduce(excess, axis=1) <= eps).tolist()
        margins = margin_rows(rows[0::2], rows[1::2])  # column k: over the first k+1 entries
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
            if not (m_sq.size == n_sq.size and np.abs(m_sq + n_sq - 1.0).max(initial=0.0) <= eps):
                raise ValueError("Kraus diagonals violate completeness")
            p, success, failure = _branch_rows(rows[2 * i, : dims[2 * i]], m_sq, n_sq)
            p = float(p)
            if not abs(p - step.success_prob) <= eps:
                raise ValueError(f"step {name} claims success probability {step.success_prob}, "
                                 f"its Kraus operators give {p}")
            for branch, claimed, (derived, kept) in (("success", step.to_state, success),
                                                     ("failure", step.failure_state, failure)):
                if claimed is not None and not (
                        kept and max_deviation(claimed.as_array(), derived) <= eps):
                    given = "a branch of probability ~0" if not kept else ProbVec(derived)
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


def json_numbers(raw, what: str) -> list:
    """``raw`` if it is a JSON array of numbers; booleans and numeric strings are not numbers.

    The package's one rule for the number arrays of plan documents and CLI vectors.
    """
    # one check per distinct entry type, not per entry
    if isinstance(raw, list) and all(issubclass(t, (int, float)) and t is not bool
                                     for t in set(map(type, raw))):
        return raw
    raise ValueError(f"{what} must be finite JSON numbers")


def _number(raw, what: str) -> float:
    return float(json_numbers([raw], what)[0])


def _state(raw, what: str) -> ProbVec:
    return ProbVec(json_numbers(raw, what))


def _name(raw, what: str) -> str:
    if isinstance(raw, str):
        return raw
    raise ValueError(f"{what} must be a JSON string")


def _field(doc: dict, key: str, where: str):
    """``doc[key]``; a ValueError names ``where`` if ``doc`` is not a JSON object, and
    the key and ``where`` it belongs if the key is missing."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object")
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
            m_diag=json_numbers(_field(kraus, "m_diag", f"{where}.kraus"), "Kraus m_diag"),
            n_diag=json_numbers(_field(kraus, "n_diag", f"{where}.kraus"), "Kraus n_diag"),
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
    """The ratio ladder from a plan document's ladder source to its target, once
    the document's ladder is checked to be that ladder, starting at the plan's
    first state and ending at the to-state of one of its steps.

    One of its steps, not its last measurement's: a thrifty plan whose core is
    deterministic has its ladder's target at step 0.
    """
    indices, l0 = _field(doc, "indices", "the ladder"), _field(doc, "l0", "the ladder")
    if not (isinstance(indices, list) and all(type(i) is int for i in indices)
            and type(l0) is int):
        raise ValueError("ladder indices and l0 must be JSON integers")
    source = _state(_field(doc, "source", "the ladder"), "ladder source")
    target = _state(_field(doc, "target", "the ladder"), "ladder target")
    ratios = [*map(float, json_numbers(_field(doc, "ratios", "the ladder"), "ladder ratios"))]
    eps = get_epsilon()
    with np.errstate(all="ignore"):  # non-finite states and ratios fail the checks, silently
        if not (steps
                and max_deviation(source.as_array(), steps[0].from_state.as_array()) <= eps):
            raise ValueError("the ladder's source is not the plan's first state")
        if not any(max_deviation(target.as_array(), s.to_state.as_array()) <= eps for s in steps):
            raise ValueError("the ladder's target is not the to-state of any step")
        try:
            ladder = ratio_ladder(source, target)
        except (MajlatError, ZeroDivisionError) as exc:  # the states need not be canonical here
            raise ValueError(f"the ladder's source and target have no ratio ladder: {exc}"
                             ) from None
        if not (tuple(indices) == ladder.indices and l0 == ladder.l0 and len(ratios) == ladder.k
                and max_deviation(np.array(ratios), np.array(ladder.ratios)) <= eps):
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
        if not isinstance(doc["steps"], list):
            raise ValueError("steps must be a JSON array")
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
        with np.errstate(invalid="ignore"):  # a non-finite residual fails the check
            off = plan.residual is None or not max_deviation(residual.as_array(),
                                                             plan.residual.as_array()) <= eps
        if off:
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
        for name, (prob, state) in zip((step.to_name, step.failure_name), step_outcomes(step)):
            nodes.setdefault(name, state)
            style = ("bold" if step.kind is StepKind.DETERMINISTIC
                     else f'dashed, label="p={prob:.6g}"')
            edges.append(f'  "{step.from_name}" -> "{name}" [style={style}];')
    lines = [f"digraph {plan.protocol.replace('-', '_')} {{", "  rankdir=LR;"]
    for name, state in nodes.items():
        lines.append(f'  "{name}" [label="{name}\\n{state}"];')
    lines.extend(edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
