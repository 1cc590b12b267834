"""Acceptance suite.

One test per criterion, each printing a [PASS]/[FAIL] line (run with
``pytest -s tests/test_acceptance.py`` to see them).  Instance counts, seeds
and time budgets are fixed here and are not meant to be tuned.  The paper's
properties and their tolerances are stated once, as the checkers of
``majlat.sweep``; criteria 2-5, 7 and 9 only choose the instances and hand
them to the checkers in batches: pairs as ``(N, d)`` stacks of rows with
their meets, and the Vidal analysis of those rows (``protocols.vidal_rows``).
"""

import io
import json
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from majlat.cli import main as cli_main
from majlat.lattice import join_many, meet, meet_rows
from majlat.ladder import p_max, ratio_ladder
from majlat.oracle import run_plan
from majlat.protocols import (descent_steps, kraus_diagonals, plan_thrifty, plan_vidal, vidal_rows,
                             vidal_steps)
from majlat.sampling import (
    random_incomparable_pairs,
    random_prob_rows,
    random_prob_vecs,
    random_tied_rows,
)
from majlat.schmidt import MajOrder, canonicalize, compare
from majlat.sweep import (
    PropertyOutcome,
    _check_equal_optimal_prob,
    _check_hadamard,
    _check_meet_monotones,
    _check_monotone_soundness,
    _check_multi_state,
    _check_oracle_match,
    _check_residual_order,
    _tied_rows,
    run_sweep,
)

DIMS = range(3, 9)
PAIRS_PER_DIM = 10_000
SEED = 20260810

ORACLE_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "worked_example_oracle.py"

_cache: dict = {}


def incomparable_ensembles():
    if "pairs" not in _cache:
        rng = np.random.default_rng(SEED)
        _cache["pairs"] = {
            d: random_incomparable_pairs(d, PAIRS_PER_DIM, rng) for d in DIMS
        }
    return _cache["pairs"]


def tally(name: str, results) -> PropertyOutcome:
    """Record (ok, slack, detail) results of a sweep checker; fail on any failure."""
    outcome = PropertyOutcome(name)
    for result in results:
        outcome.record(*result)
    assert outcome.failed == 0, (name, outcome.failed, outcome.failures[:3])
    return outcome


def by_dim(instances, dim=lambda instance: instance[0].dim) -> list:
    """The instances in groups of one dimension each, as the batched checkers take them."""
    groups: dict = {}
    for instance in instances:
        groups.setdefault(dim(instance), []).append(instance)
    return list(groups.values())


def pair_rows(pairs):
    """``(N, d)`` rows of the pairs' first and second vectors, and of their meets."""
    rows = np.array([(p.as_array(), q.as_array()) for p, q in pairs])
    return rows[:, 0], rows[:, 1], meet_rows(rows)


def protocol_scan():
    """Theorem 2 and step soundness over the shared ensembles (criteria 3 and 9).

    The Vidal analysis of each pair and of its source to its meet (thrifty's
    core) is built once and handed to both checkers, a thousand pairs at a time;
    step soundness covers the steps of the Vidal and the thrifty plan, as the
    step builders of ``protocols`` state them for the planners.
    """
    if "scan" not in _cache:
        thm2 = PropertyOutcome("residual-order")
        steps = PropertyOutcome("monotone-soundness")
        for pairs in incomparable_ensembles().values():
            for start in range(0, len(pairs), 1_000):
                P, Q, M = pair_rows(pairs[start:start + 1_000])
                vidal, thrifty = vidal_rows(P, Q), vidal_rows(P, M)
                for result in _check_residual_order(vidal, thrifty):
                    thm2.record(*result)
                every = np.arange(len(P))
                core = vidal_steps(P, M, thrifty, target_name="common_resource")
                for result in _check_monotone_soundness(P, Q, [
                        (every, vidal_steps(P, Q, vidal)),
                        (every, descent_steps(core, [Q], ["target"]))]):
                    steps.record(*result)
        _cache["scan"] = (thm2, steps)
    return _cache["scan"]


@contextmanager
def criterion(num: int, description: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {num}: {description}")
        raise
    print(f"\n[PASS] criterion {num}: {description} ({time.monotonic() - start:.2f}s)")


def test_criterion_1_worked_pair_golden():
    with criterion(1, "worked-pair golden values vs independent rational oracle"):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(ORACLE_SCRIPT)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        oracle = json.loads(proc.stdout)

        psi = canonicalize([0.5, 0.4, 0.1])
        phi = canonicalize([0.6, 0.2, 0.2])
        assert oracle["incomparable"] and compare(psi, phi) is MajOrder.INCOMPARABLE

        golden = {
            "p_max": 0.5,
            "ladder_ratios": [0.5, 1.125],
            "ladder_indices": [3, 1],
            "meet": [0.5, 0.3, 0.2],
            "join": [0.6, 0.3, 0.1],
            "chi": [0.675, 0.225, 0.1],
            "zeta": [0.5625, 0.3375, 0.1],
            "xi": [0.75, 0.25, 0.0],
            "nu": [0.625, 0.375, 0.0],
        }
        for key, value in golden.items():
            assert oracle[key] == pytest.approx(value, abs=1e-9), key

        ladder = ratio_ladder(psi, phi)
        greedy = plan_vidal(psi, phi)
        thrifty = plan_thrifty(psi, phi)
        computed = {
            "p_max": p_max(psi, phi),
            "ladder_ratios": list(ladder.ratios),
            "ladder_indices": list(ladder.indices),
            "meet": list(meet(psi, phi).entries),
            "join": list(join_many([psi, phi]).entries),
            "chi": list(greedy.steps[0].to_state.entries),
            "zeta": list(thrifty.steps[0].to_state.entries),
            "xi": list(greedy.residual.entries),
            "nu": list(thrifty.residual.entries),
        }
        for key, value in computed.items():
            assert value == pytest.approx(oracle[key], abs=1e-9), key

        kraus = kraus_diagonals(ladder)
        assert np.asarray(kraus.m_diag) ** 2 == pytest.approx(
            oracle["kraus_m_squared"], abs=1e-9
        )
        assert greedy.success_prob == pytest.approx(
            oracle["success_prob_from_chi"], abs=1e-9
        )
        assert thrifty.success_prob == pytest.approx(
            oracle["success_prob_from_zeta"], abs=1e-9
        )
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"golden test took {elapsed:.2f}s (limit 1s)"


def test_criterion_2_optimal_probability_to_meet():
    with criterion(2, "r_1 to target == r_1 to meet, 1e4 incomparable pairs per dim 3..8"):
        start = time.monotonic()
        thm1 = tally("equal-optimal-prob", (
            result for pairs in incomparable_ensembles().values()
            for result in _check_equal_optimal_prob(*pair_rows(pairs))
        ))
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"criterion 2 took {elapsed:.2f}s (limit 30s)"
        print(f"  worst |r1 - r1'| = {-thm1.worst_slack:.3e}", end="")


def test_criterion_3_residual_majorization():
    with criterion(3, "thrifty residual/intermediate majorized by greedy's, same ensembles"):
        thm2, _ = protocol_scan()
        assert thm2.failed == 0, thm2.failures[:3]
        print(f"  worst partial-sum margin = {thm2.worst_slack:.3e}", end="")


def test_criterion_4_monotone_max_and_hadamard():
    with criterion(4, "meet monotones are pointwise max (1e-12); weighted order preserved (1e4 each)"):
        rng = np.random.default_rng(SEED + 1)
        pairs = [random_prob_vecs(2 + i % 7, 2, rng) for i in range(10_000)]
        lemma1 = tally("meet-monotones", (
            result for group in by_dim(pairs)
            for result in _check_meet_monotones(*pair_rows(group))
        ))
        tied = [random_tied_rows(2 + i % 7, rng) for i in range(10_000)]
        lemma2 = tally("hadamard-order", (
            result for group in by_dim(tied, lambda instance: instance[0].size)
            for result in _check_hadamard(*_tied_rows(group))
        ))
        print(f"  lemma-1 dev = {-lemma1.worst_slack:.3e}, "
              f"lemma-2 margin = {min(0.0, lemma2.worst_slack):.3e}", end="")


def multi_state_instances(rng):
    for i in range(1_000):
        d = 3 + i % 4
        m = 2 + i % 3
        source, *targets = random_prob_rows(d, 1 + m, rng)
        *sources, target = random_prob_rows(d, m + 1, rng)
        yield source, targets, sources, target


def test_criterion_5_multi_state_probabilities():
    with criterion(5, "worst-case probability via n-ary meet/join, 1e3 ensembles, 1e-12"):
        rng = np.random.default_rng(SEED + 2)
        tally("multi-state", (result for group in by_dim(multi_state_instances(rng),
                                                         lambda instance: instance[0].size)
                              for result in _check_multi_state(group)))


def test_criterion_6_lattice_axioms():
    with criterion(6, "lattice axioms (defining props, absorption, n-ary order), 1e4 instances"):
        total = 0
        for d, count in ((3, 3_400), (5, 3_300), (8, 3_300)):
            report = run_sweep(d, count, seed=SEED + d, properties=["axioms"])
            assert report.total_failures == 0, report.to_dict()
            total += report.properties[0].applicable
        assert total >= 10_000


def oracle_checks():
    """Kraus completeness of each Vidal measurement, then the oracle-match check."""
    ensembles = incomparable_ensembles()
    for d in DIMS:
        P, Q, _ = pair_rows(ensembles[d][:170])
        vidal = vidal_rows(P, Q)
        for m, n in zip(vidal.m_diag, vidal.n_diag):
            assert np.max(np.abs(m**2 + n**2 - 1.0)) <= 1e-12
        yield from _check_oracle_match(vidal)


def test_criterion_7_kraus_completeness_and_oracle_equivalence():
    with criterion(7, "Kraus completeness 1e-12; dense simulator matches analytics 1e-9, 1e3 pairs"):
        assert tally("oracle-match", oracle_checks()).applicable >= 1_000


def test_criterion_8_monte_carlo_reproducibility():
    with criterion(8, "1e5-shot Monte Carlo inside 4-sigma; byte-identical reports"):
        start = time.monotonic()
        psi = canonicalize([0.5, 0.4, 0.1])
        phi = canonicalize([0.6, 0.2, 0.2])
        plan = plan_thrifty(psi, phi)
        shots = 100_000
        stats = run_plan(plan, shots=shots, seed=SEED)
        bound = 4.0 * np.sqrt(0.5 * 0.5 / shots)
        assert abs(stats.empirical_rate - 0.5) <= bound, stats.empirical_rate

        args = [
            "simulate", "thrifty", "[0.5,0.4,0.1]", "[0.6,0.2,0.2]",
            "--shots", str(shots), "--seed", str(SEED),
        ]
        reports = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_main(list(args))
            assert code == 0
            reports.append(buf.getvalue())
        assert reports[0] == reports[1]
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"criterion 8 took {elapsed:.2f}s (limit 5s)"


def test_criterion_9_monotone_soundness_of_emitted_plans():
    with criterion(9, "average monotones never increase along emitted plan steps"):
        _, steps = protocol_scan()
        assert steps.failed == 0, steps.failures[:3]
        report = run_sweep(4, 2_000, seed=SEED + 9, properties=["monotone-soundness"])
        assert report.total_failures == 0, report.to_dict()
        print(f"  worst step slack = {steps.worst_slack:.3e}", end="")
