"""Byte-identity of the command line against a recorded golden file.

``cli_golden.json`` holds the exit code, stdout and stderr of ``majlat.cli.main``
for every case in ``CASES``: each subcommand in json and csv, dot for all
five planners, instance-file inputs and the error paths.  Each case runs in a
fresh directory that holds the files of ``_write_files``, so paths in the
output are relative.  ``COLUMNS`` is fixed because argparse wraps its usage
lines to the terminal width.  Regenerate only on purpose, when a change of
output is intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from majlat import canonicalize, plan_multi_target, plan_thrifty, plan_to_dict
from majlat.cli import main
from majlat.protocols import multi_target_to_dict

GOLDEN = Path(__file__).with_name("cli_golden.json")
COLUMNS = "80"
PSI, PHI, CHI = "[0.5,0.4,0.1]", "[0.6,0.2,0.2]", "[0.7,0.2,0.1]"
PLANNERS = {
    "vidal": [PSI, PHI],
    "greedy": [PSI, PHI],
    "thrifty": [PSI, PHI],
    "multi-target": [PSI, PHI, CHI],
    "multi-source": [PSI, PHI, "[0.55,0.35,0.1]"],
}
SWEEP = ["sweep", "--dim", "3", "--count", "5", "--seed", "1"]
SIMULATE = ["simulate", "thrifty", PSI, PHI, "--shots", "500", "--seed", "7"]
RANDOM = ["random", "--dim", "3", "--count", "2", "--pairs", "1", "--seed", "9"]

CASES: dict[str, list[str]] = {}
for _fmt in ("json", "csv"):
    for _cmd in ("compare", "meet", "join", "pmax", "ladder"):
        CASES[f"{_cmd}/{_fmt}"] = [_cmd, PSI, PHI, "--format", _fmt]
    for _name, _vecs in PLANNERS.items():
        CASES[f"plan-{_name}/{_fmt}"] = ["plan", _name, *_vecs, "--format", _fmt]
    CASES[f"sweep/{_fmt}"] = SWEEP + ["--format", _fmt]
    CASES[f"simulate/{_fmt}"] = SIMULATE + ["--format", _fmt]
    CASES[f"simulate-plan-file/{_fmt}"] = ["simulate", "--plan", "plan.json", "--shots", "300",
                                          "--seed", "2", "--format", _fmt]
    CASES[f"random/{_fmt}"] = RANDOM + ["--format", _fmt]
for _name, _vecs in PLANNERS.items():
    CASES[f"plan-{_name}/dot"] = ["plan", _name, *_vecs, "--format", "dot"]
CASES.update({
    "plan-flag-dot": ["plan", "greedy", PSI, PHI, "--dot"],
    "plan-flag-dot-overrides-csv": ["plan", "thrifty", PSI, PHI, "--format", "csv", "--dot"],
    "global-options-before-command": ["--format", "csv", "--epsilon", "1e-6", "meet", PSI, PHI],
    "sweep-properties": ["sweep", "--dim", "4", "--count", "8", "--seed", "5",
                         "--properties", "thm1, thm2,"],
    "output-file": ["pmax", PSI, PHI, "--output", "out.json"],
    "random-dim-1": ["random", "--dim", "1", "--count", "1", "--seed", "3"],
    # instance-file inputs
    "file-pair-compare": ["compare", "--file", "inst.json", "--pair", "worked"],
    "file-names-meet": ["meet", "a", "b", "--file", "inst.json"],
    "file-names-mixed-join": ["join", "a", PHI, "--file", "inst.json", "--format", "csv"],
    "file-collection-multi-target": ["plan", "multi-target", "--file", "inst.json",
                                     "--collection", "fanout"],
    "file-collection-multi-source-csv": ["plan", "multi-source", "--file", "inst.json",
                                         "--collection", "fanout", "--format", "csv"],
    "file-pair-plan-dot": ["plan", "vidal", "--file", "inst.json", "--pair", "worked", "--dot"],
    "file-pair-simulate": ["simulate", "greedy", "--file", "inst.json", "--pair", "worked",
                           "--shots", "200", "--seed", "4"],
    # domain errors (exit 1)
    "error-rank-deficit": ["pmax", "[1.0,0.0]", "[0.5,0.5]"],
    "error-unnormalized": ["compare", "[0.3,0.3,0.3]", PHI],
    "error-unnormalized-in-file": ["compare", "bad", "a", "--file", "inst.json"],
    # malformed input and bad usage (exit 2)
    "error-nan": ["compare", "[NaN,1]", "[1,0]"],
    "error-infinity": ["pmax", PSI, "[0.5,-Infinity,0.1]"],
    "error-not-json": ["compare", "not-json", PHI],
    "error-truncated-json": ["compare", "[0.5,0.4", PHI],
    "error-negative-entry": ["compare", "[0.6,0.5,-0.1]", PHI],
    "error-plan-unknown-protocol": ["plan", "nonsense", PSI, PHI],
    "error-simulate-unknown-protocol": ["simulate", "nonsense", PSI, PHI],
    "error-plan-protocol-option": ["plan", "--protocol", "thrifty", PSI, PHI],
    "error-missing-vector": ["pmax", PSI],
    "error-too-many-vectors": ["compare", PSI, PHI, CHI],
    "error-multi-one-vector": ["plan", "multi-target", PSI],
    "error-plan-no-arguments": ["plan"],
    "error-simulate-no-arguments": ["simulate"],
    "error-name-without-file": ["compare", "a", "b"],
    "error-pair-without-file": ["compare", "--pair", "worked"],
    "error-collection-without-file": ["plan", "multi-target", "--collection", "fanout"],
    "error-unknown-name": ["compare", "a", "missing", "--file", "inst.json"],
    "error-unknown-pair": ["compare", "--file", "inst.json", "--pair", "nope"],
    "error-unknown-collection": ["plan", "multi-source", "--file", "inst.json",
                                 "--collection", "nope"],
    "error-missing-file": ["compare", "a", "b", "--file", "absent.json"],
    "error-file-without-vectors": ["compare", "a", "b", "--file", "plan.json"],
    "error-epsilon-not-a-number": ["--epsilon", "abc", "compare", PSI, PHI],
    "error-epsilon-nan": ["--epsilon", "nan", "pmax", PSI, PHI],
    "error-epsilon-zero": ["compare", PSI, PHI, "--epsilon", "0"],
    "error-format-choice": ["compare", PSI, PHI, "--format", "xml"],
    "error-dot-meet": ["meet", PSI, PHI, "--format", "dot"],
    "error-dot-sweep": SWEEP + ["--format", "dot"],
    "error-dot-after-failed-command": ["meet", "not-json", PHI, "--format", "dot"],
    "error-sweep-count-zero": ["sweep", "--count", "0"],
    "error-sweep-count-not-an-integer": ["sweep", "--count", "many"],
    "error-sweep-dim-one": ["sweep", "--dim", "1"],
    "error-sweep-unknown-property": ["sweep", "--count", "5", "--properties", "bogus"],
    "error-simulate-shots-zero": ["simulate", "thrifty", PSI, PHI, "--shots", "0"],
    "error-simulate-plan-not-object": ["simulate", "--plan", "list.json"],
    "error-simulate-multi-plan": ["simulate", "--plan", "multi.json"],
    "error-random-dim-zero": ["random", "--dim", "0"],
    "error-random-count-zero": ["random", "--count", "0"],
    "error-unknown-command": ["frobnicate"],
    "error-no-command": [],
})


def _write_files(directory: Path) -> None:
    psi, phi, chi = (canonicalize(json.loads(v)) for v in (PSI, PHI, CHI))
    files = {
        "inst.json": {
            "vectors": {"a": [0.5, 0.4, 0.1], "b": [0.6, 0.2, 0.2], "c": [0.7, 0.2, 0.1],
                        "bad": [0.3, 0.3, 0.3]},
            "pairs": {"worked": ["a", "b"]},
            "collections": {"fanout": ["a", "b", "c"]},
        },
        "plan.json": plan_to_dict(plan_thrifty(psi, phi)),
        "multi.json": multi_target_to_dict(plan_multi_target(psi, [phi, chi])),
        "list.json": [1, 2],
    }
    for name, doc in files.items():
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")


def _run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_golden_file_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_cli_output_is_identical_to_the_golden_file(name, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    monkeypatch.chdir(tmp_path)
    _write_files(tmp_path)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert _run(CASES[name]) == expected


if __name__ == "__main__":
    from majlat import config

    os.environ["COLUMNS"] = COLUMNS
    doc = {}
    for name, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                _write_files(Path(tmp))
                doc[name] = _run(argv)
            finally:
                os.chdir(cwd)
                config.set_epsilon(config.DEFAULT_EPSILON)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(doc)} CLI cases to {GOLDEN}")
