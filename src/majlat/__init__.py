"""Majorization-lattice toolkit for single-copy conversion of bipartite pure states.

Core objects: canonical Schmidt spectra (``ProbVec``), the majorization
preorder, lattice meet/join (optimal common resource / product), the
monotone ratio ladder behind the optimal probabilistic conversion, and
executable plans for the Vidal, greedy and thrifty protocols, backed by an
independent dense state-vector simulator.
"""

from .config import DEFAULT_EPSILON, get_epsilon, set_epsilon
from .errors import (
    DegenerateBranch,
    EmptyCollection,
    MajlatError,
    NegativeEntry,
    NotNormalized,
    RankDeficit,
)
from .lattice import join, join_many, least_concave_majorant, meet, meet_many
from .ladder import (
    RatioLadder,
    intermediate_state,
    monotones,
    p_max,
    r_vector,
    ratio_ladder,
)
from .oracle import (
    BipartiteState,
    OutcomeStats,
    branch_probabilities,
    embed,
    run_plan,
    schmidt_spectrum,
)
from .protocols import (
    ConversionPlan,
    KrausDiagonals,
    MultiStatePlan,
    PlanStep,
    StepKind,
    TwoOutcomeResult,
    apply_two_outcome,
    kraus_diagonals,
    plan_from_dict,
    plan_greedy,
    plan_multi_source,
    plan_multi_target,
    plan_thrifty,
    plan_to_dict,
    plan_to_dot,
    plan_vidal,
    validate_plan,
)
from .schmidt import MajOrder, ProbVec, canonicalize, compare, effective_rank, uniform
from .sweep import SweepReport, run_sweep

__version__ = "0.1.0"

__all__ = [
    "BipartiteState",
    "ConversionPlan",
    "DEFAULT_EPSILON",
    "DegenerateBranch",
    "EmptyCollection",
    "KrausDiagonals",
    "MajOrder",
    "MajlatError",
    "MultiStatePlan",
    "NegativeEntry",
    "NotNormalized",
    "OutcomeStats",
    "PlanStep",
    "ProbVec",
    "RankDeficit",
    "RatioLadder",
    "StepKind",
    "SweepReport",
    "TwoOutcomeResult",
    "apply_two_outcome",
    "branch_probabilities",
    "canonicalize",
    "compare",
    "effective_rank",
    "embed",
    "get_epsilon",
    "intermediate_state",
    "join",
    "join_many",
    "kraus_diagonals",
    "least_concave_majorant",
    "meet",
    "meet_many",
    "monotones",
    "p_max",
    "plan_from_dict",
    "plan_greedy",
    "plan_multi_source",
    "plan_multi_target",
    "plan_thrifty",
    "plan_to_dict",
    "plan_to_dot",
    "plan_vidal",
    "r_vector",
    "ratio_ladder",
    "run_plan",
    "run_sweep",
    "schmidt_spectrum",
    "set_epsilon",
    "uniform",
    "validate_plan",
]
