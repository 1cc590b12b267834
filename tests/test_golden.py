"""Bit-identity of ladders, meet/join and plans against a recorded golden file.

``golden.json`` holds about 200 seeded input cases (d = 2..8, 64 and 512,
targets with zero coefficients, tied spectra, mismatched dimensions, rank
deficits) and what the library returned for them: ratio ladders (direct, to
the meet and from the join, i.e. the thrifty and multi-source cores), meet
and join entries, and the documents of all five planners.  The test compares
with ``==``, so any change in the floats fails.  Plan documents are stored
as SHA-256 digests of their JSON (floats print exactly) next to their
success probability, to keep the file small.  The floats were recorded with
one numpy/BLAS build; a build that sums dot products in another order can
differ in the last bit.

Regenerate only on purpose, when a change of results is intended:

    PYTHONPATH=src python tests/test_golden.py

which prints, per output key, how many cases changed and by how much at most.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from majlat.errors import MajlatError
from majlat.lattice import join, meet
from majlat.ladder import ratio_ladder
from majlat.protocols import (
    multi_plan_to_dict,
    plan_greedy,
    plan_multi_source,
    plan_multi_target,
    plan_thrifty,
    plan_to_dict,
    plan_vidal,
)
from majlat.sampling import random_incomparable_pairs, random_prob_vecs, random_tied_rows
from majlat.schmidt import ProbVec

GOLDEN = Path(__file__).with_name("golden.json")
SEED = 2303_10086


def _sorted(arr) -> list[float]:
    return [float(x) for x in np.sort(np.asarray(arr, dtype=float))[::-1]]


def _cases() -> list[dict]:
    """Seeded inputs: source, target and two extra vectors for the multi planners."""
    rng = np.random.default_rng(SEED)
    cases = [
        {"kind": "worked", "source": [0.5, 0.4, 0.1], "target": [0.6, 0.2, 0.2]},
        {"kind": "ties", "source": [0.5, 0.25, 0.25], "target": [0.5, 0.5, 0.0]},
        {"kind": "ties", "source": [0.25, 0.25, 0.25, 0.25], "target": [0.5, 0.25, 0.25, 0.0]},
        {"kind": "ties", "source": [0.4, 0.4, 0.1, 0.1], "target": [0.7, 0.1, 0.1, 0.1]},
        {"kind": "equal", "source": [0.5, 0.3, 0.2], "target": [0.5, 0.3, 0.2]},
        {"kind": "rank-deficit", "source": [0.7, 0.3, 0.0], "target": [0.5, 0.3, 0.2]},
    ]

    def vecs(d, n):
        return [list(v.entries) for v in random_prob_vecs(d, n, rng)]

    for d in list(range(2, 9)) + [64] * 10 + [512] * 4:
        per_dim = 26 if d <= 8 else 1
        for i in range(per_dim):
            extras = vecs(d, 2)
            kind = ("random", "incomparable", "zero-target", "tied", "short-target")[i % 5]
            if d < 3 and kind == "incomparable":
                kind = "random"
            if kind == "random":
                source, target = vecs(d, 2)
            elif kind == "incomparable":
                p, q = random_incomparable_pairs(d, 1, rng)[0]
                source, target = list(p.entries), list(q.entries)
            elif kind == "zero-target":
                zeros = 1 + int(rng.integers(0, max(d // 3, 1)))
                source = vecs(d, 1)[0]
                target = vecs(d - zeros, 1)[0] + [0.0] * zeros
            elif kind == "tied":
                x, y, _ = random_tied_rows(d, rng)
                pair = [x.tolist(), y.tolist()]
                if rng.random() < 0.5:
                    pair.reverse()
                source, target = pair
            else:
                source, target = vecs(d, 1)[0], vecs(max(d - 1, 1), 1)[0]
            cases.append({"kind": kind, "source": source, "target": target, "extras": extras})
    for case in cases:
        case.setdefault("extras", [_sorted(rng.dirichlet(np.ones(len(case["source"]))))
                                   for _ in range(2)])
    return cases


def _guard(fn):
    try:
        return fn()
    except MajlatError as exc:
        return {"error": type(exc).__name__}


def _ladder(source, target):
    def build():
        ladder = ratio_ladder(source, target)
        return {"ratios": list(ladder.ratios), "indices": list(ladder.indices)}
    return _guard(build)


def _plan(build, to_dict):
    def run():
        doc = json.loads(json.dumps(to_dict(build())))
        text = json.dumps(doc, sort_keys=True)
        return {"success_prob": doc["success_prob"],
                "sha256": hashlib.sha256(text.encode()).hexdigest()}
    return _guard(run)


def _outputs(case: dict) -> dict:
    p = ProbVec(tuple(case["source"]))
    q = ProbVec(tuple(case["target"]))
    extras = [ProbVec(tuple(e)) for e in case["extras"]]
    return {
        "meet": list(meet(p, q).entries),
        "join": list(join(p, q).entries),
        "ladder": _ladder(p, q),
        "ladder_to_meet": _ladder(p, meet(p, q)),
        "ladder_from_join": _ladder(join(p, q), q),
        "vidal": _plan(lambda: plan_vidal(p, q), plan_to_dict),
        "greedy": _plan(lambda: plan_greedy(p, q), plan_to_dict),
        "thrifty": _plan(lambda: plan_thrifty(p, q), plan_to_dict),
        "multi-target": _plan(lambda: plan_multi_target(p, [q, *extras]), multi_plan_to_dict),
        "multi-source": _plan(lambda: plan_multi_source([p, *extras], q), multi_plan_to_dict),
    }


def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]


def test_golden_covers_the_advertised_inputs():
    cases = _golden()
    dims = {len(c["source"]) for c in cases}
    assert len(cases) >= 200
    assert set(range(2, 9)) | {64, 512} <= dims
    kinds = {c["kind"] for c in cases}
    assert {"zero-target", "tied", "short-target", "incomparable", "rank-deficit"} <= kinds


@pytest.mark.parametrize("index", range(0, 210, 10))
def test_results_are_bit_identical_to_the_golden_file(index):
    for case in _golden()[index : index + 10]:
        assert _outputs(case) == case["expected"], (case["kind"], case["source"], case["target"])


if __name__ == "__main__":
    from golden_changes import print_changes

    cases = _cases()
    for case in cases:
        case["expected"] = json.loads(json.dumps(_outputs(case)))
    recorded = [c["expected"] for c in _golden()] if GOLDEN.exists() else []
    print_changes((key, recorded[i].get(key) if i < len(recorded) else None, value)
                  for i, case in enumerate(cases) for key, value in case["expected"].items())
    GOLDEN.write_text(json.dumps({"seed": SEED, "cases": cases}) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN}")
