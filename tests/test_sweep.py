"""The sweep's property checkers: recorded reports and non-vacuity.

``sweep_golden.json`` holds ``run_sweep(d, 200, seed=s).to_dict()`` with all
properties for d in {2, 3, 5, 8} and s in {1, 2}, the stdout of
``majlat sweep --dim 4 --count 50 --seed 3`` and of a seeded ``simulate``
run, and the reports of the ``PINNED`` cases (a grid of dimensions and
counts, property subsets, reordered and duplicated names, aliases and
``Generator`` seeds); the tests compare with ``==``.  Regenerate only on purpose, when a
change of results is intended:

    PYTHONPATH=src python tests/test_sweep.py

which prints, per output key, how many cases changed and by how much at most.

The acceptance criteria rest on these checkers, so each property must also
report failures once the function it checks is broken.
"""

from __future__ import annotations

import dataclasses
import io
import json
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from majlat import config, protocols, sampling, sweep
from majlat.cli import main
from majlat.errors import DegenerateBranch, RankDeficit
from majlat.schmidt import below_rows

GOLDEN = Path(__file__).with_name("sweep_golden.json")
SWEEPS = [(d, s) for d in (2, 3, 5, 8) for s in (1, 2)]
CLI_RUNS = {
    "sweep": ["sweep", "--dim", "4", "--count", "50", "--seed", "3"],
    "simulate": ["simulate", "thrifty", "[0.5,0.4,0.1]", "[0.6,0.2,0.2]",
                 "--shots", "2000", "--seed", "3"],
}


# name -> (dim, count, seed, properties); a seed ("generator", n) passes
# np.random.default_rng(n), so the report shows no seed
PINNED = {
    **{f"all {d}x{n}": (d, n, 40 + d + n, None)
       for d in (2, 3, 4, 6, 16, 64) for n in (1, 6, 37)},
    **{f"only {name}": (5, 37, 17, [name]) for name in sweep.CHECKERS},
    "thm1,thm2": (4, 37, 18, ["thm1", "thm2"]),
    "reordered": (6, 37, 19, ["oracle-match", "multi-state", "axioms", "hadamard-order",
                              "residual-order", "meet-monotones"]),
    "duplicated and aliased": (3, 37, 20, ["lemma1", "meet-monotones", "thm3", "lattice",
                                           "axioms", "oracle-match", "lemma1", "thm2"]),
    "generator 6x37": (6, 37, ("generator", 21), None),
    "generator 16x6": (16, 6, ("generator", 22), ["monotone-soundness", "lemma2", "thm1"]),
}


def _seed(seed):
    return np.random.default_rng(seed[1]) if isinstance(seed, tuple) else seed


def _report(dim: int, seed: int) -> dict:
    return json.loads(json.dumps(sweep.run_sweep(dim, 200, seed=seed).to_dict()))


def _pinned(name: str) -> dict:
    dim, count, seed, properties = PINNED[name]
    report = sweep.run_sweep(dim, count, seed=_seed(seed), properties=properties)
    return json.loads(json.dumps(report.to_dict()))


def _stdout(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(list(argv)) == 0
    return buf.getvalue()


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("dim,seed", SWEEPS)
def test_sweep_reports_are_identical_to_the_golden_file(dim, seed):
    assert _report(dim, seed) == _golden()["reports"][f"{dim}/{seed}"]


@pytest.mark.parametrize("name", PINNED)
def test_pinned_sweep_reports_are_identical_to_the_golden_file(name):
    assert _pinned(name) == _golden()["pinned"][name]


@pytest.mark.parametrize("chunk", [1, 3])
def test_a_report_does_not_depend_on_the_chunk_size(chunk, monkeypatch):
    monkeypatch.setattr(sweep, "_CHUNK", chunk)
    for name in ("all 6x37", "duplicated and aliased", "generator 16x6"):
        assert _pinned(name) == _golden()["pinned"][name]


@pytest.mark.parametrize("name", CLI_RUNS)
def test_cli_output_is_identical_to_the_golden_file(name):
    assert _stdout(CLI_RUNS[name]) == _golden()["cli"][name]


def _first_member(stack):
    """A broken meet: each group's first member."""
    return stack[..., 0, :]


def _backwards(sources, targets):
    """The Vidal analysis with its first move run backwards, from the intermediate state
    (more ordered) to the source (less ordered)."""
    rows = protocols.vidal_rows(sources, targets)
    return rows._replace(sources=rows.intermediate, intermediate=rows.sources)


def _lopsided(sources, targets):
    """The Vidal analysis with its success probability off by 1e-6."""
    rows = protocols.vidal_rows(sources, targets)
    return rows._replace(success_prob=rows.success_prob + 1e-6)


def _reversed_weights(dim, rng):
    x, y, a = sampling.random_tied_rows(dim, rng)
    return x, y, a[::-1]


# property -> {sweep module attribute, or attribute of one of its classes: broken
# replacement}; the batched checkers reach the lattice and the Vidal analysis through
# their row kernels, and the dense oracle instance by instance
TAMPERED = {
    "axioms": {"meet_rows": _first_member},
    "meet-monotones": {"meet_rows": _first_member},
    "hadamard-order": {"random_tied_rows": _reversed_weights},
    "equal-optimal-prob": {"meet_rows": _first_member},
    "residual-order": {"_Pairs.vidal": property(sweep._Pairs.thrifty.func),
                       "_Pairs.thrifty": property(sweep._Pairs.vidal.func)},
    "multi-state": {"meet_rows": _first_member},
    "monotone-soundness": {"vidal_rows": _backwards},
    "oracle-match": {"vidal_rows": _lopsided},
}


def test_every_property_has_a_tampering():
    assert set(TAMPERED) == set(sweep.CHECKERS)


@pytest.mark.parametrize("name", sorted(TAMPERED))
def test_property_reports_failures_when_its_function_is_broken(name, monkeypatch):
    dim = 4
    assert sweep.run_sweep(dim, 100, seed=5, properties=[name]).total_failures == 0
    for attr, broken in TAMPERED[name].items():
        owner, _, key = attr.rpartition(".")
        monkeypatch.setattr(getattr(sweep, owner) if owner else sweep, key, broken)
    outcome = sweep.run_sweep(dim, 100, seed=5, properties=[name]).properties[0]
    assert outcome.failed >= 1, dataclasses.asdict(outcome)


def _on_incomparable_pairs(kernel, change):
    """``kernel``, with the result of each group of two incomparable rows passed
    through ``change``; groups of one or three members keep theirs."""
    def broken(stack):
        out = kernel(stack)
        if stack.shape[-2] == 2:
            pairs = stack.reshape(-1, 2, stack.shape[-1])
            p_below_q, q_below_p = below_rows(pairs[:, 0], pairs[:, 1])
            hit = ~(p_below_q | q_below_p)
            rows = out.reshape(-1, out.shape[-1])
            rows[hit] = change(rows[hit])
        return out
    return broken


def _sharpened(rows):
    """Each row with min(1e-3, half its last non-zero entry) moved from that entry to
    its first: still sorted and above the true join, but not the least such vector."""
    rows, r = rows.copy(), np.arange(len(rows))
    last = rows.shape[1] - 1 - np.argmax(rows[:, ::-1] > 0, axis=1)
    delta = np.minimum(1e-3, rows[r, last] / 2)
    rows[r, 0] += delta
    rows[r, last] -= delta
    return rows


def _robin_hood(rows):
    """Each row with a Robin Hood transfer of half its largest gap between neighbours:
    still sorted and below the true meet, but not the greatest such vector."""
    rows, r = rows.copy(), np.arange(len(rows))
    k = np.argmax(rows[:, :-1] - rows[:, 1:], axis=1)
    delta = (rows[r, k] - rows[r, k + 1]) / 4
    rows[r, k] -= delta
    rows[r, k + 1] += delta
    return rows


# name -> (sweep kernel, change of its result on each incomparable pair)
LATTICE_FAULTS = {
    "sharpened join": ("join_rows", _sharpened),
    "robin hood meet": ("meet_rows", _robin_hood),
}


@pytest.mark.parametrize("dim", [4, 6, 8, 64])
@pytest.mark.parametrize("fault", LATTICE_FAULTS)
def test_axioms_flag_every_incomparable_pair_under_a_planted_lattice_fault(
        fault, dim, monkeypatch):
    """The cumulative sums pin the meet and the join exactly, so a fault on the
    incomparable pairs fails each of them and no comparable one."""
    kernel, change = LATTICE_FAULTS[fault]
    monkeypatch.setattr(sweep, kernel, _on_incomparable_pairs(getattr(sweep, kernel), change))
    verdicts = []  # (passed, comparable) per instance
    check = sweep._check_axioms

    def recorded(P, Q, M, J, draws):
        results = check(P, Q, M, J, draws)
        p_below_q, q_below_p = below_rows(P, Q)
        verdicts.extend(zip([ok for ok, _, _ in results], (p_below_q | q_below_p).tolist()))
        return results

    monkeypatch.setattr(sweep, "_check_axioms", recorded)
    report = sweep.run_sweep(dim, 2000, seed=5, properties=["axioms"])
    passed, comparable = zip(*verdicts)
    assert passed == comparable
    assert report.total_failures == comparable.count(False) > 0


def _raising(kernel, label: str, threshold: float):
    """``kernel``, raising instead when a row's first entry exceeds ``threshold``."""
    def broken(rows, *rest):
        flat = rows.reshape(-1, rows.shape[-1])
        hit = np.flatnonzero(flat[:, 0] > threshold)
        if hit.size:
            raise ValueError(f"{label} {flat[hit[0]].tolist()}")
        return kernel(rows, *rest)
    return broken


@pytest.mark.parametrize("seed,first", [(0, "monotones"), (1, "p_max")])
def test_a_checker_error_is_the_one_a_loop_over_instances_raises_first(seed, first, monkeypatch):
    """equal-optimal-prob is listed first, so a pass over the whole chunk meets its
    error first; with seed 0 a loop over instances meets meet-monotones' error on
    an earlier instance."""
    monkeypatch.setattr(sweep, "p_max_rows", _raising(sweep.p_max_rows, "p_max", 0.5))
    monkeypatch.setattr(sweep, "monotone_rows", _raising(sweep.monotone_rows, "monotones", 0.4))
    names = ["equal-optimal-prob", "meet-monotones"]
    with pytest.raises(ValueError, match="^p_max"):
        sweep.run_sweep(4, 40, seed=seed, properties=names[:1])
    errors = []
    for chunk in (1, 3, sweep._CHUNK):  # one instance per chunk is the loop over instances
        monkeypatch.setattr(sweep, "_CHUNK", chunk)
        with pytest.raises(ValueError) as raised:
            sweep.run_sweep(4, 40, seed=seed, properties=names)
        errors.append(str(raised.value))
    assert errors[0].startswith(first)
    assert errors == [errors[0]] * 3


def _degenerate_above(threshold: float):
    """The meet, except that a group whose first member's first entry exceeds
    ``threshold`` gets that member: thrifty's core from it to itself cannot fail."""
    meet_rows = sweep.meet_rows

    def broken(stack):
        meet = meet_rows(stack)
        hit = stack[..., 0, 0] > threshold
        meet[hit] = stack[hit, 0]
        return meet
    return broken


@pytest.mark.parametrize("seed,first", [(0, "failure"), (1, "p_max")])
def test_a_degenerate_branch_in_a_chunk_is_the_error_a_loop_over_instances_raises_first(
        seed, first, monkeypatch):
    """equal-optimal-prob is listed first, so a pass over the whole chunk meets its error
    first; a loop over instances may meet thrifty's DegenerateBranch on an earlier one."""
    monkeypatch.setattr(sweep, "p_max_rows", _raising(sweep.p_max_rows, "p_max", 0.6))
    monkeypatch.setattr(sweep, "meet_rows", _degenerate_above(0.55))
    names = ["equal-optimal-prob", "residual-order"]
    with pytest.raises(ValueError, match="^p_max"):
        sweep.run_sweep(4, 40, seed=seed, properties=names[:1])
    with pytest.raises(DegenerateBranch, match="^failure branch has probability ~0$"):
        sweep.run_sweep(4, 40, seed=seed, properties=names[1:])
    errors = []
    for chunk in (1, 3, sweep._CHUNK):  # one instance per chunk is the loop over instances
        monkeypatch.setattr(sweep, "_CHUNK", chunk)
        with pytest.raises((ValueError, DegenerateBranch)) as raised:
            sweep.run_sweep(4, 40, seed=seed, properties=names)
        errors.append((raised.type, str(raised.value)))
    assert errors[0][1].startswith(first)
    assert errors == [errors[0]] * 3


# properties -> the next three draws of a Generator(PCG64(2026)) after it ran
# run_sweep(5, 12, seed=generator, properties=...), as recorded before the checkers
# shared one analysis per instance; None's since axioms stopped drawing transfers
NEXT_DRAWS = {
    None: [758541831, 3896097330, 4019156977],
    ("hadamard-order",): [38147930, 4063824923, 3702985498],
    ("residual-order", "multi-state"): [1470165248, 2008756566, 1460931942],
}


@pytest.mark.parametrize("properties", NEXT_DRAWS)
def test_a_sweep_draws_from_the_callers_generator_as_before(properties):
    rng = np.random.default_rng(2026)
    sweep.run_sweep(5, 12, seed=rng, properties=properties and list(properties))
    assert rng.integers(2**32, size=3).tolist() == NEXT_DRAWS[properties]


ANALYSIS = ("below_rows", "meet_rows", "join_rows", "vidal_rows")


def _count_calls(monkeypatch) -> dict:
    """Calls of each ANALYSIS function through the sweep module, by argument objects."""
    calls = {name: Counter() for name in ANALYSIS}
    held = []  # keeps the arguments alive, so that their ids stay unique

    def counting(name, fn):
        def counted(*args):
            held.append(args)
            calls[name][tuple(map(id, args))] += 1
            return fn(*args)
        return counted

    for name in ANALYSIS:
        monkeypatch.setattr(sweep, name, counting(name, getattr(sweep, name)))
    return calls


def test_each_piece_of_a_pairs_analysis_is_built_at_most_once(monkeypatch):
    for chunk, chunks in ((sweep._CHUNK, 1), (16, 3)):
        monkeypatch.setattr(sweep, "_CHUNK", chunk)
        with monkeypatch.context() as patch:
            calls = _count_calls(patch)
            report = sweep.run_sweep(5, 40, seed=8)
        assert report.total_failures == 0
        for name in ("meet_rows", "join_rows", "vidal_rows"):
            assert calls[name], name
            assert max(calls[name].values()) == 1, (name, calls[name].most_common(1))
        # per chunk one Vidal analysis of the pairs whose plans measure, one of thrifty's core
        assert sum(calls["vidal_rows"].values()) == 2 * chunks


def test_a_sweep_of_hadamard_order_builds_no_analysis(monkeypatch):
    calls = _count_calls(monkeypatch)
    assert sweep.run_sweep(5, 40, seed=8, properties=["hadamard-order"]).total_failures == 0
    assert {name: sum(c.values()) for name, c in calls.items()} == dict.fromkeys(ANALYSIS, 0)


@pytest.mark.parametrize("properties, analysed", [
    (["oracle-match"], 519),  # the conversions
    (["residual-order"], 1038),  # the conversions, and thrifty's core on them
    (["oracle-match", "residual-order"], 1038),
    (None, 1800),  # monotone-soundness reads every convertible pair that measures
])
def test_a_sweep_analyses_only_the_rows_a_selected_property_reads(properties, analysed,
                                                                  monkeypatch):
    rows = []
    vidal_rows = sweep.vidal_rows

    def counted(*args):
        rows.append(len(args[0]))
        return vidal_rows(*args)

    monkeypatch.setattr(sweep, "vidal_rows", counted)
    report = sweep.run_sweep(3, 2000, seed=1, properties=properties)
    assert report.total_failures == 0
    assert sum(rows) == analysed
    if properties:  # the same draws: 519 conversions
        assert {p.applicable for p in report.properties} == {519}


CONVERSIONS = ["equal-optimal-prob", "residual-order", "multi-state", "oracle-match"]


@pytest.mark.parametrize("epsilon, dim, count, seed", [(1e-3, 8, 200, 1), (0.05, 6, 40, 3)])
def test_a_sweep_skips_the_instances_that_no_conversion_reaches(epsilon, dim, count, seed,
                                                                monkeypatch):
    """At a large epsilon, flat-Dirichlet draws often have an entry at or below it.  A
    property that builds conversions applies only where each passes the rank rule;
    counting every pair as convertible brings back the sweep's RankDeficit."""
    config.set_epsilon(epsilon)
    report = sweep.run_sweep(dim, count, seed=seed, properties=CONVERSIONS)
    assert report.total_failures == 0
    applicable = {p.name: p.applicable for p in report.properties}
    assert 0 < applicable["multi-state"] < count
    assert 0 < applicable["equal-optimal-prob"] == applicable["oracle-match"]
    rank_rows = sweep.rank_rows
    monkeypatch.setattr(sweep, "rank_rows", lambda rows: rank_rows(np.zeros_like(rows)))
    with pytest.raises(RankDeficit):
        sweep.run_sweep(dim, count, seed=seed, properties=CONVERSIONS)


def test_a_sweep_of_every_property_completes_on_rank_deficient_draws():
    config.set_epsilon(1e-3)
    report = sweep.run_sweep(8, 200, seed=1)
    applicable = {p.name: p.applicable for p in report.properties}
    assert applicable["axioms"] == 200 > applicable["monotone-soundness"] > 0


def test_a_conversion_property_applies_only_where_each_conversion_it_builds_can_succeed():
    full, short = [0.5, 0.3, 0.2], [0.6, 0.4, 0.0]
    pairs = np.array([
        [short, full],  # the target needs more non-zero entries than the source has
        [full, short],
        [[0.5, 0.4, 0.1], [0.6, 0.2, 0.2]],  # incomparable
    ])
    fans = [(np.array([full]), np.array([short]))] * 3  # a further target and source each
    results = sweep._check_chunk(pairs, {name: fans if name == "multi-state" else []
                                         for name in ["monotone-soundness", *CONVERSIONS]})
    # instance 2's further source has fewer non-zero entries than its target
    assert {name: len(r) for name, r in results.items()} == {
        "monotone-soundness": 2, "multi-state": 1, "equal-optimal-prob": 1,
        "residual-order": 1, "oracle-match": 1}
    assert all(ok for r in results.values() for ok, _, _ in r)


@pytest.mark.parametrize("dim, count, message", [(1, 10, "dimension must be at least 2"),
                                                  (0, 10, "dimension must be at least 2"),
                                                  (3, 0, "count must be at least 1")])
def test_run_sweep_rejects_a_dimension_below_2_and_an_empty_count(dim, count, message):
    with pytest.raises(ValueError, match=message):
        sweep.run_sweep(dim, count, seed=1)


def _outputs_by_key(doc: dict) -> dict:
    """Each output of a golden document, keyed by (output key, case)."""
    outputs = {(f"cli {name}", "cli"): text for name, text in doc["cli"].items()}
    for case, report in [*doc["reports"].items(), *doc.get("pinned", {}).items()]:
        outputs["totals", case] = {k: v for k, v in report.items() if k != "properties"}
        outputs.update(((p["name"], case), p) for p in report["properties"])
    return outputs


if __name__ == "__main__":
    from golden_changes import print_changes

    doc = {
        "reports": {f"{d}/{s}": _report(d, s) for d, s in SWEEPS},
        "cli": {name: _stdout(argv) for name, argv in CLI_RUNS.items()},
        "pinned": {name: _pinned(name) for name in PINNED},
    }
    recorded = _outputs_by_key(_golden()) if GOLDEN.exists() else {}
    print_changes((key, recorded.get((key, case)), value)
                  for (key, case), value in _outputs_by_key(doc).items())
    GOLDEN.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    print(f"wrote {len(doc['reports']) + len(doc['pinned'])} reports and "
          f"{len(doc['cli'])} CLI outputs to {GOLDEN}")
