#!/usr/bin/env python3
"""End-to-end tour of the worked conversion pair.

Prints the lattice elements, the ratio ladder, the three conversion plans
and a seeded Monte Carlo run, in the order a reader would want to follow
them.  Handy as executable documentation and for eyeballing regressions.

Run:  python scripts/protocol_walkthrough.py
"""

from majlat import (
    canonicalize,
    compare,
    join,
    kraus_diagonals,
    meet,
    plan_greedy,
    plan_thrifty,
    plan_vidal,
    ratio_ladder,
    run_plan,
)

SHOTS = 100_000
SEED = 7


def show_plan(plan):
    print(f"  protocol={plan.protocol}  success_prob={plan.success_prob:.6f}")
    for step in plan.steps:
        arrow = "==>" if step.kind.value == "deterministic" else "-?->"
        print(f"    {step.from_name} {arrow} {step.to_name}  {step.to_state}")
        if step.failure_state is not None:
            print(f"      on failure -> {step.failure_name}  {step.failure_state}")


def main():
    source = canonicalize([0.5, 0.4, 0.1])
    target = canonicalize([0.6, 0.2, 0.2])
    print(f"source {source}   target {target}   order: {compare(source, target).value}")
    print(f"meet  (optimal common resource): {meet(source, target)}")
    print(f"join  (optimal common product):  {join(source, target)}")

    ladder = ratio_ladder(source, target)
    print(f"ladder: ratios={ladder.ratios}  block starts={ladder.indices}")
    kraus = kraus_diagonals(ladder)
    print(f"kraus m={tuple(round(x, 6) for x in kraus.m_diag.tolist())}")
    print(f"      n={tuple(round(x, 6) for x in kraus.n_diag.tolist())}")

    for build in (plan_vidal, plan_greedy, plan_thrifty):
        show_plan(build(source, target))

    stats = run_plan(plan_thrifty(source, target), shots=SHOTS, seed=SEED)
    print(
        f"monte carlo ({SHOTS} shots, seed {SEED}): rate={stats.empirical_rate:.4f}, "
        f"mean residual={stats.residual_mean}"
    )


if __name__ == "__main__":
    main()
