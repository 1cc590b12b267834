"""Executable conversion plans: Vidal, greedy and thrifty protocols.

A plan is a short list of steps at the Schmidt-spectrum level.  Deterministic
steps move to a spectrum that majorizes the current one; the single
probabilistic step is a local two-outcome measurement given by diagonal Kraus
operators, with an explicit success probability and failure spectrum.

The greedy protocol detours through the optimal common product (the join of
source and target), the thrifty protocol through the optimal common resource
(the meet).  Both succeed with the same optimal probability; the thrifty
residual is always majorized by the greedy one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .config import get_epsilon
from .errors import DegenerateBranch, RankDeficit
from .lattice import _suffix_sums, join, join_many, meet, meet_many
from .ladder import RatioLadder, _check_ranks, _intermediate, r_vector, ratio_ladder
from .schmidt import MajOrder, ProbVec, compare, effective_rank, pad_pair


@dataclass(frozen=True)
class KrausDiagonals:
    """Diagonals of the two measurement operators; m^2 + n^2 = 1 entrywise."""

    m_diag: tuple[float, ...]
    n_diag: tuple[float, ...]

    @property
    def dim(self) -> int:
        return len(self.m_diag)


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


@dataclass(frozen=True)
class ConversionPlan:
    protocol: str
    steps: tuple[PlanStep, ...]
    success_prob: float
    residual: ProbVec | None = None
    ladder: RatioLadder | None = None


@dataclass(frozen=True)
class MultiTargetPlan:
    """Probabilistic move to the common resource, then one deterministic tail per target."""

    core: ConversionPlan
    tails: tuple[PlanStep, ...]
    success_prob: float


@dataclass(frozen=True)
class MultiSourcePlan:
    """One deterministic head per source into the common product, then a probabilistic tail."""

    heads: tuple[PlanStep, ...]
    core: ConversionPlan
    success_prob: float


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
    n_sq = np.clip(1.0 - m_sq, 0.0, None)
    return KrausDiagonals(
        m_diag=tuple(float(x) for x in np.sqrt(m_sq)),
        n_diag=tuple(float(x) for x in np.sqrt(n_sq)),
    )


def kraus_diagonals(ladder: RatioLadder) -> KrausDiagonals:
    """Measurement diagonals from a ratio ladder.

    The success operator is block-constant, sqrt(r_1 / r_j) on block j, hence
    exactly 1 on the first block; the failure operator fills up to
    completeness and therefore vanishes there.
    """
    return _kraus(ladder.ratios[0], np.asarray(r_vector(ladder)))


def apply_two_outcome(state: ProbVec, kraus: KrausDiagonals) -> TwoOutcomeResult:
    """Born-rule action of a diagonal two-outcome measurement on a spectrum."""
    lam = state.as_array()
    if lam.size != kraus.dim:
        raise ValueError(f"state dimension {lam.size} != Kraus dimension {kraus.dim}")
    m_sq = np.asarray(kraus.m_diag) ** 2
    p = float(m_sq @ lam)

    def branch(op_sq: np.ndarray, prob: float) -> ProbVec | None:
        if prob <= get_epsilon():
            return None
        return ProbVec(tuple(np.sort(op_sq * lam / prob)[::-1].tolist()))

    return TwoOutcomeResult(success_prob=p, success_state=branch(m_sq, p),
                            failure_state=branch(np.asarray(kraus.n_diag) ** 2, 1.0 - p))


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
        return ConversionPlan("vidal", (step,), 1.0, residual=None, ladder=ladder)
    rv, chi = _intermediate(ladder)
    kraus = _kraus(ladder.ratios[0], rv)
    outcome = apply_two_outcome(chi, kraus)
    residual = outcome.require_failure()
    steps = (
        PlanStep(StepKind.DETERMINISTIC, source_name, src, "intermediate", chi),
        PlanStep(
            StepKind.PROBABILISTIC, "intermediate", chi, target_name, tgt,
            kraus=kraus, success_prob=outcome.success_prob,
            failure_name="residual", failure_state=residual,
        ),
    )
    return ConversionPlan("vidal", steps, outcome.success_prob, residual=residual, ladder=ladder)


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
    return ConversionPlan("greedy", steps, base.success_prob,
                          residual=base.residual, ladder=base.ladder)


def plan_thrifty(source: ProbVec, target: ProbVec) -> ConversionPlan:
    """Probabilistic phase first: measure down to the common resource, then
    convert deterministically.  Same success probability as the greedy plan,
    but the failure residual is more entangled (majorized by the greedy one)."""
    _check_ranks(source, target)
    order = compare(source, target)
    if order is not MajOrder.INCOMPARABLE:
        return _vidal(source, target, order)
    core = plan_vidal(source, meet(source, target), target_name="common_resource")
    ocr = core.steps[-1].to_state
    steps = core.steps + (
        PlanStep(StepKind.DETERMINISTIC, "common_resource", ocr,
                 "target", target.padded(ocr.dim)),
    )
    return ConversionPlan("thrifty", steps, core.success_prob,
                          residual=core.residual, ladder=core.ladder)


def plan_multi_target(source: ProbVec, targets) -> MultiTargetPlan:
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
    return MultiTargetPlan(core=core, tails=tails, success_prob=core.success_prob)


def plan_multi_source(sources, target: ProbVec) -> MultiSourcePlan:
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
    return MultiSourcePlan(heads=heads, core=core, success_prob=core.success_prob)


def step_outcomes(step: PlanStep) -> list[tuple[float, ProbVec]]:
    """(probability, output spectrum) pairs of a plan step."""
    if step.kind is StepKind.DETERMINISTIC:
        return [(1.0, step.to_state)]
    outs = [(float(step.success_prob), step.to_state)]
    if step.failure_state is not None:
        outs.append((1.0 - float(step.success_prob), step.failure_state))
    return outs


def step_monotone_slack(step: PlanStep) -> float:
    """Smallest slack of E_l(in) - sum_o p_o E_l(out_o) over all l.

    Non-negative (within tolerance) for any physically allowed step: the
    suffix-sum monotones cannot increase on average.
    """
    d = max([step.from_state.dim] + [out.dim for _, out in step_outcomes(step)])

    def suffix(state: ProbVec) -> np.ndarray:
        return _suffix_sums(state.padded(d).as_array())[:-1]

    e_avg = sum(prob * suffix(out) for prob, out in step_outcomes(step))
    return float(np.min(suffix(step.from_state) - e_avg))


def _deviation(p: ProbVec, q: ProbVec) -> float:
    """Largest entrywise difference of two spectra after zero padding."""
    return float(np.max(np.abs(np.subtract(*pad_pair(p, q)))))


def validate_plan(plan: ConversionPlan) -> None:
    """Check the invariants of a plan; raise ValueError on violation.

    Every probabilistic step is re-applied to its input: the claimed success
    probability, success state and failure state must match what its Kraus
    operators give.  Comparisons are written so that NaN fails them.
    """
    eps = get_epsilon()
    if not plan.steps:
        raise ValueError("plan has no steps")
    for step, after in zip(plan.steps, plan.steps[1:]):
        if not _deviation(step.to_state, after.from_state) <= eps:
            raise ValueError(f"step to {step.to_name} does not lead to step from {after.from_name}")
    prob_product = 1.0
    for step in plan.steps:
        name = f"{step.from_name}->{step.to_name}"
        for state in (step.from_state, step.to_state):
            arr = state.as_array()
            if not (abs(arr.sum() - 1.0) <= eps and np.all(np.diff(arr) <= eps)):
                raise ValueError(f"non-canonical state in step {name}")
        if step.kind is StepKind.DETERMINISTIC:
            if compare(step.from_state, step.to_state) not in (MajOrder.PRECEDES, MajOrder.EQUIVALENT):
                raise ValueError(f"deterministic step {name} is not allowed")
            continue
        if step.kraus is None or step.success_prob is None:
            raise ValueError("probabilistic step lacks Kraus data or probability")
        if not (0.0 < step.success_prob <= 1.0):
            raise ValueError(f"success probability {step.success_prob} outside (0, 1]")
        m_sq, n_sq = np.square(step.kraus.m_diag), np.square(step.kraus.n_diag)
        if not np.max(np.abs(m_sq + n_sq - 1.0)) <= eps:
            raise ValueError("Kraus diagonals violate completeness")
        outcome = apply_two_outcome(step.from_state, step.kraus)
        if not abs(outcome.success_prob - step.success_prob) <= eps:
            raise ValueError(f"step {name} claims success probability {step.success_prob}, "
                             f"its Kraus operators give {outcome.success_prob}")
        for branch, claimed, derived in (("success", step.to_state, outcome.success_state),
                                         ("failure", step.failure_state, outcome.failure_state)):
            if claimed is not None and (derived is None or not _deviation(claimed, derived) <= eps):
                given = "a branch of probability ~0" if derived is None else derived
                raise ValueError(f"step {name} claims the {branch} state {claimed}, "
                                 f"its Kraus operators give {given}")
        prob_product *= step.success_prob
    if not abs(plan.success_prob - prob_product) <= eps:
        raise ValueError("plan success probability != product of step probabilities")


# ---------------------------------------------------------------------------
# serialization (JSON-ready dicts and DOT digraphs)

def _state_list(p: ProbVec) -> list[float]:
    return [float(x) for x in p.entries]


def step_to_dict(step: PlanStep) -> dict:
    doc = {
        "kind": step.kind.value,
        "from": {"name": step.from_name, "state": _state_list(step.from_state)},
        "to": {"name": step.to_name, "state": _state_list(step.to_state)},
    }
    if step.kind is StepKind.PROBABILISTIC:
        doc["kraus"] = {
            "m_diag": list(step.kraus.m_diag),
            "n_diag": list(step.kraus.n_diag),
        }
        doc["success_prob"] = step.success_prob
        if step.failure_state is not None:
            doc["failure"] = {"name": step.failure_name, "state": _state_list(step.failure_state)}
    return doc


def step_from_dict(doc: dict) -> PlanStep:
    kind = StepKind(doc["kind"])
    kwargs = {}
    if kind is StepKind.PROBABILISTIC:
        kwargs["kraus"] = KrausDiagonals(
            m_diag=tuple(float(x) for x in doc["kraus"]["m_diag"]),
            n_diag=tuple(float(x) for x in doc["kraus"]["n_diag"]),
        )
        kwargs["success_prob"] = float(doc["success_prob"])
        if "failure" in doc:
            kwargs["failure_name"] = doc["failure"]["name"]
            kwargs["failure_state"] = ProbVec(tuple(doc["failure"]["state"]))
    return PlanStep(
        kind,
        doc["from"]["name"], ProbVec(tuple(doc["from"]["state"])),
        doc["to"]["name"], ProbVec(tuple(doc["to"]["state"])),
        **kwargs,
    )


def _ladder_to_dict(ladder: RatioLadder) -> dict:
    return {
        "source": _state_list(ladder.source),
        "target": _state_list(ladder.target),
        "ratios": list(ladder.ratios),
        "indices": list(ladder.indices),
        "l0": ladder.l0,
    }


def _ladder_from_dict(doc: dict) -> RatioLadder:
    return RatioLadder(
        source=ProbVec(tuple(doc["source"])),
        target=ProbVec(tuple(doc["target"])),
        ratios=tuple(float(x) for x in doc["ratios"]),
        indices=tuple(int(x) for x in doc["indices"]),
    )


def plan_to_dict(plan: ConversionPlan) -> dict:
    return {
        "protocol": plan.protocol,
        "success_prob": plan.success_prob,
        "steps": [step_to_dict(s) for s in plan.steps],
        "residual": None if plan.residual is None else _state_list(plan.residual),
        "ladder": None if plan.ladder is None else _ladder_to_dict(plan.ladder),
    }


def plan_from_dict(doc: dict) -> ConversionPlan:
    if not isinstance(doc, dict):
        raise ValueError(f"a plan document is a JSON object, not {type(doc).__name__}")
    if "steps" not in doc:
        raise ValueError(f"the {doc.get('protocol', 'unnamed')} plan document has no steps: "
                         "simulate runs single conversion plans (vidal, greedy or thrifty)")
    residual = doc.get("residual")
    ladder = doc.get("ladder")
    try:
        return ConversionPlan(
            protocol=doc["protocol"],
            steps=tuple(step_from_dict(s) for s in doc["steps"]),
            success_prob=float(doc["success_prob"]),
            residual=None if residual is None else ProbVec(tuple(residual)),
            ladder=None if ladder is None else _ladder_from_dict(ladder),
        )
    except TypeError as exc:  # a field of the wrong JSON type
        raise ValueError(f"malformed plan document: {exc}") from None


def multi_target_to_dict(plan: MultiTargetPlan) -> dict:
    return {
        "protocol": "multi-target",
        "success_prob": plan.success_prob,
        "core": plan_to_dict(plan.core),
        "tails": [step_to_dict(s) for s in plan.tails],
    }


def multi_source_to_dict(plan: MultiSourcePlan) -> dict:
    return {
        "protocol": "multi-source",
        "success_prob": plan.success_prob,
        "heads": [step_to_dict(s) for s in plan.heads],
        "core": plan_to_dict(plan.core),
    }


def _dot_lines(steps, title: str) -> str:
    nodes: dict[str, ProbVec] = {}
    edges: list[str] = []
    for step in steps:
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
    lines = [f"digraph {title} {{", "  rankdir=LR;"]
    for name, state in nodes.items():
        lines.append(f'  "{name}" [label="{name}\\n{state}"];')
    lines.extend(edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def plan_to_dot(plan: ConversionPlan) -> str:
    """DOT digraph of a plan: bold edges deterministic, dashed probabilistic."""
    return _dot_lines(plan.steps, plan.protocol.replace("-", "_"))


def multi_target_to_dot(plan: MultiTargetPlan) -> str:
    return _dot_lines(list(plan.core.steps) + list(plan.tails), "multi_target")


def multi_source_to_dot(plan: MultiSourcePlan) -> str:
    return _dot_lines(list(plan.heads) + list(plan.core.steps), "multi_source")
