"""Global numerical tolerance.

All partial-sum inequalities, normalization checks and rank cutoffs in the
library are decided against a single tolerance ``epsilon``.  The default of
1e-9 is far above the rounding error accumulated by cumulative sums of a few
hundred doubles.  Set it once at startup (or via the CLI ``--epsilon`` flag);
the library never mutates it.
"""

import math

DEFAULT_EPSILON = 1e-9

_epsilon = DEFAULT_EPSILON


def get_epsilon() -> float:
    return _epsilon


def set_epsilon(eps: float) -> None:
    global _epsilon
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"epsilon must be positive and finite, got {eps}")
    _epsilon = float(eps)
