import copy
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from majlat import (
    canonicalize,
    compare,
    config,
    plan_greedy,
    plan_thrifty,
    plan_to_dict,
    plan_vidal,
)
from majlat import cli
from majlat.cli import _json_text, main
from majlat.sampling import random_incomparable_pairs
from majlat.schmidt import MajOrder

PSI = "[0.5,0.4,0.1]"
PHI = "[0.6,0.2,0.2]"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_json(*argv):
    code, out, err = run_cli(*argv)
    assert code == 0, err
    return json.loads(out)


def test_compare_worked_pair():
    doc = run_json("compare", PSI, PHI)
    assert doc == {"order": "incomparable"}


def test_meet_and_join_worked_pair():
    doc = run_json("meet", PSI, PHI)
    assert doc["meet"] == pytest.approx([0.5, 0.3, 0.2], abs=1e-9)
    assert doc["cumulative_sums"] == pytest.approx([0.0, 0.5, 0.8, 1.0], abs=1e-9)
    doc = run_json("join", PSI, PHI)
    assert doc["join"] == pytest.approx([0.6, 0.3, 0.1], abs=1e-9)


def test_pmax_and_ladder():
    assert run_json("pmax", PSI, PHI)["p_max"] == pytest.approx(0.5, abs=1e-9)
    doc = run_json("ladder", PSI, PHI)
    assert doc["k"] == 2
    assert doc["ratios"] == pytest.approx([0.5, 1.125], abs=1e-9)
    assert doc["indices"] == [3, 1]
    assert doc["r_vector"] == pytest.approx([1.125, 1.125, 0.5], abs=1e-9)


def test_plan_thrifty_json():
    doc = run_json("plan", "thrifty", PSI, PHI)
    assert doc["protocol"] == "thrifty"
    assert doc["success_prob"] == pytest.approx(0.5, abs=1e-9)
    assert doc["residual"] == pytest.approx([0.625, 0.375, 0.0], abs=1e-9)


def test_plan_greedy_residual():
    doc = run_json("plan", "greedy", PSI, PHI)
    assert doc["residual"] == pytest.approx([0.75, 0.25, 0.0], abs=1e-9)


def test_plan_comparable_is_tagged_vidal():
    doc = run_json("plan", "thrifty", PSI, "[0.7,0.2,0.1]")
    assert doc["protocol"] == "vidal"
    assert doc["success_prob"] == 1.0


def test_plan_dot_output():
    code, out, err = run_cli("plan", "greedy", PSI, PHI, "--dot")
    assert code == 0
    assert out.startswith("digraph")
    assert "style=bold" in out and "style=dashed" in out


def test_plan_multi_target():
    doc = run_json("plan", "multi-target", PSI, PHI, "[0.7,0.2,0.1]")
    assert doc["protocol"] == "multi-target"
    assert doc["success_prob"] == pytest.approx(0.5, abs=1e-9)
    assert len(doc["tails"]) == 2


def test_plan_multi_source_takes_target_last():
    doc = run_json("plan", "multi-source", PSI, PHI, "[0.55,0.35,0.1]")
    assert doc["protocol"] == "multi-source"
    assert len(doc["heads"]) == 2
    assert doc["core"]["steps"][0]["from"]["name"] == "common_product"


def test_exit_code_domain_error():
    code, out, err = run_cli("compare", "[0.3,0.3,0.3]", PHI)
    assert code == 1
    assert "sum" in err


def test_exit_code_malformed_input():
    code, _, _ = run_cli("compare", "not-json", PHI)
    assert code == 2
    code, _, _ = run_cli("plan", "nonsense", PSI, PHI)
    assert code == 2
    code, _, _ = run_cli("pmax", PSI)  # missing vector
    assert code == 2


def test_exit_code_usage_error():
    code, _, _ = run_cli("sweep", "--count", "0")
    assert code == 2
    code, _, _ = run_cli("sweep", "--dim", "1")
    assert code == 2
    code, out, _ = run_cli("random", "--dim", "3", "--pairs", "-2")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("dim, eps", [("2", "1e-9"), ("3", "0.5")])
def test_random_pairs_fail_where_epsilon_leaves_no_incomparable_pair(dim, eps):
    code, out, err = run_cli("--epsilon", eps, "random", "--dim", dim, "--pairs", "1", "--seed", "1")
    assert (code, out) == (2, "")
    assert f"error: no incomparable pair of dimension {dim} within epsilon" in err


@pytest.mark.parametrize("argv, option, kind, text", [
    (("sweep", "--count", "many"), "--count", "positive", "many"),
    (("random", "--pairs", "abc"), "--pairs", "non-negative", "abc"),
    (("simulate", "thrifty", PSI, PHI, "--shots", "1.5"), "--shots", "positive", "1.5"),
])
def test_integer_options_name_no_private_function(argv, option, kind, text):
    code, out, err = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert f"argument {option}: expected a {kind} integer, got '{text}'" in err
    assert "_int" not in err


def test_main_reuses_one_parser(monkeypatch):
    import majlat.cli

    def rebuilt():
        raise AssertionError("main() rebuilt the parser")

    monkeypatch.setattr(majlat.cli, "build_parser", rebuilt)
    assert run_json("pmax", PSI, PHI)["p_max"] == pytest.approx(0.5, abs=1e-9)
    assert run_json("compare", PSI, PHI) == {"order": "incomparable"}


def test_rank_deficit_exit_code():
    code, _, err = run_cli("pmax", "[1.0,0.0]", "[0.5,0.5]")
    assert code == 1
    assert "non-zero" in err


def test_sweep_reports_and_exit_zero():
    doc = run_json("sweep", "--dim", "4", "--count", "30", "--seed", "5",
                   "--properties", "thm1,thm2")
    names = {p["name"] for p in doc["properties"]}
    assert names == {"equal-optimal-prob", "residual-order"}
    assert doc["total_failures"] == 0


def test_sweep_dim_two_has_no_applicable_incomparable_instances():
    doc = run_json("sweep", "--dim", "2", "--count", "20", "--seed", "5",
                   "--properties", "thm2")
    prop = doc["properties"][0]
    assert prop["applicable"] == 0
    assert prop["failed"] == 0


def test_sweep_unknown_property():
    code, _, err = run_cli("sweep", "--count", "5", "--properties", "bogus")
    assert code == 2


def test_simulate_is_byte_identical_for_same_seed():
    args = ("simulate", "thrifty", PSI, PHI, "--shots", "5000", "--seed", "21")
    code_a, out_a, _ = run_cli(*args)
    code_b, out_b, _ = run_cli(*args)
    assert code_a == code_b == 0
    assert out_a == out_b
    doc = json.loads(out_a)
    assert abs(doc["empirical_rate"] - 0.5) <= doc["half_width"]
    assert doc["rng_algorithm"] == "numpy.random.PCG64"


def test_instance_file_resolution(tmp_path):
    instances = {
        "vectors": {"a": [0.5, 0.4, 0.1], "b": [0.6, 0.2, 0.2], "c": [0.7, 0.2, 0.1]},
        "pairs": {"worked": ["a", "b"]},
        "collections": {"fanout": ["a", "b", "c"]},
    }
    path = tmp_path / "instances.json"
    path.write_text(json.dumps(instances))
    doc = run_json("compare", "--file", str(path), "--pair", "worked")
    assert doc["order"] == "incomparable"
    doc = run_json("meet", "a", "b", "--file", str(path))
    assert doc["meet"] == pytest.approx([0.5, 0.3, 0.2], abs=1e-9)
    doc = run_json("plan", "multi-target", "--file", str(path),
                   "--collection", "fanout")
    assert len(doc["tails"]) == 2
    code, _, _ = run_cli("compare", "a", "missing", "--file", str(path))
    assert code == 2


def test_instance_file_with_bad_vector_is_domain_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vectors": {"a": [0.3, 0.3], "b": [0.5, 0.5]}}))
    code, _, _ = run_cli("compare", "a", "b", "--file", str(path))
    assert code == 1


def test_instance_file_with_out_of_range_integer_is_malformed_input(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"vectors": {"a": [10**400, 0], "b": [0.5, 0.5]}}))
    code, out, err = run_cli("compare", "a", "b", "--file", str(path))
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_random_emits_usable_instance_file(tmp_path):
    code, out, _ = run_cli("random", "--dim", "3", "--count", "2", "--pairs", "1",
                           "--seed", "9")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["vectors"]) == 4  # 2 singles + 1 pair
    path = tmp_path / "rand.json"
    path.write_text(out)
    pair_name = next(iter(doc["pairs"]))
    result = run_json("compare", "--file", str(path), "--pair", pair_name)
    assert result["order"] == "incomparable"


def test_simulate_with_named_pair(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "vectors": {"a": [0.5, 0.4, 0.1], "b": [0.6, 0.2, 0.2]},
        "pairs": {"w": ["a", "b"]},
    }))
    doc = run_json("simulate", "thrifty", "--file", str(path), "--pair", "w",
                   "--shots", "1000", "--seed", "2")
    assert doc["plan_success_prob"] == pytest.approx(0.5, abs=1e-9)


def test_plan_round_trip_through_simulate(tmp_path):
    code, out, _ = run_cli("plan", "thrifty", PSI, PHI)
    assert code == 0
    path = tmp_path / "plan.json"
    path.write_text(out)
    doc = run_json("simulate", "--plan", str(path), "--shots", "2000", "--seed", "4")
    assert doc["plan_success_prob"] == pytest.approx(0.5, abs=1e-9)
    assert abs(doc["empirical_rate"] - 0.5) <= 4 * (0.25 / 2000) ** 0.5


def test_output_file_option(tmp_path):
    target = tmp_path / "result.json"
    code, out, _ = run_cli("pmax", PSI, PHI, "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["p_max"] == pytest.approx(0.5, abs=1e-9)


def test_csv_formats():
    code, out, _ = run_cli("meet", PSI, PHI, "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("0.5,0.3")
    code, out, _ = run_cli("sweep", "--dim", "3", "--count", "10", "--seed", "1",
                           "--properties", "lemma1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "property,applicable,passed,failed,worst_slack"
    code, out, _ = run_cli("plan", "thrifty", PSI, PHI, "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "step,kind,from,to,success_prob"


def test_dot_format_rejected_outside_plan():
    code, _, err = run_cli("meet", PSI, PHI, "--format", "dot")
    assert code == 2


def test_dot_format_is_rejected_before_the_subcommand_runs(monkeypatch):
    import majlat.cli

    def ran(*args, **kwargs):
        raise AssertionError("the sweep ran before --format dot was rejected")

    monkeypatch.setattr(majlat.cli, "run_sweep", ran)
    code, out, err = run_cli("sweep", "--dim", "3", "--count", "5", "--format", "dot")
    assert code == 2
    assert out == ""
    assert err == "error: dot output is only available for the plan subcommand\n"


def test_global_epsilon_flag():
    # with a loose epsilon the 0.9-total vector becomes acceptable
    code, out, _ = run_cli("compare", "[0.3,0.3,0.3]", "[0.4,0.3,0.3]",
                           "--epsilon", "0.2")
    assert code == 0


def test_epsilon_flag_applies_to_one_call_only():
    before = config.get_epsilon()
    code, _, _ = run_cli("--epsilon", "0.2", "compare", PSI, PHI)
    assert code == 0
    assert config.get_epsilon() == before
    psi, phi = canonicalize([0.5, 0.4, 0.1]), canonicalize([0.6, 0.2, 0.2])
    assert compare(psi, phi) is MajOrder.INCOMPARABLE


BIG_INT = "1" + "0" * 400  # a JSON integer beyond the float range


@pytest.mark.parametrize("argv", [
    ("compare", "[NaN,1]", "[1,0]"),
    ("compare", "[Infinity,0]", PHI),
    ("pmax", PSI, "[NaN,0.2,0.2]"),
    ("pmax", "[0.5,-Infinity,0.1]", PHI),
    ("compare", "[{}, 1]", "[1,0]"),
    ("compare", f"[{BIG_INT}, 0]", "[1,0]"),
    ("meet", PSI, f"[0.5, {BIG_INT}, 0.1]"),
    ("plan", "thrifty", PSI, f"[{BIG_INT}]"),
])
def test_non_finite_vectors_are_malformed_input(argv):
    code, out, err = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert "finite" in err


VECTORS = {"a": [0.5, 0.4, 0.1], "b": [0.6, 0.2, 0.2]}
PAIR = ("compare", "--pair", "w")
WRONG_TYPED = {  # case -> (instance file, or None for inline vectors; argv)
    "vectors-list": ({"vectors": [1, 2]}, ("compare", "a", "b")),
    "pair-number": ({"vectors": VECTORS, "pairs": {"w": 5}}, PAIR),
    "pair-string": ({"vectors": VECTORS, "pairs": {"w": "ab"}}, PAIR),
    "pair-number-name": ({"vectors": VECTORS, "pairs": {"w": ["a", 1]}}, PAIR),
    "pairs-list": ({"vectors": VECTORS, "pairs": [["a", "b"]]}, PAIR),
    "collection-number": ({"vectors": VECTORS, "collections": {"c": 7}},
                          ("plan", "multi-target", "--collection", "c")),
    "file-booleans": ({"vectors": {"a": [True, False], "b": [1, 0]}}, ("compare", "a", "b")),
    "file-strings": ({"vectors": {"a": ["0.5", "0.5"], "b": [1, 0]}}, ("compare", "a", "b")),
    "inline-booleans": (None, ("compare", "[true,false]", "[1,0]")),
    "inline-strings": (None, ("compare", '["0.5","0.5"]', "[1,0]")),
    "inline-boolean-entry": (None, ("pmax", "[1,0]", "[0.5,false,0.5]")),
}


@pytest.mark.parametrize("case", WRONG_TYPED)
def test_wrong_typed_vectors_and_names_are_malformed_input(tmp_path, case):
    instances, argv = WRONG_TYPED[case]
    if instances is not None:
        path = tmp_path / "instances.json"
        path.write_text(json.dumps(instances))
        argv = (*argv, "--file", str(path))
    code, out, err = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


# JSON texts of odd vector entries: null, a boolean, a numeric string, containers,
# a float literal beyond range, NaN, a negative number and an integer beyond range
ODD_ENTRIES = ["null", "true", '"0.5"', "[]", "{}", "1e400", "NaN", "-1", BIG_INT]
VECTOR_COMMANDS = [("compare",), ("meet",), ("join",), ("pmax",), ("ladder",),
                   ("plan", "thrifty")]


@pytest.mark.parametrize("command", VECTOR_COMMANDS, ids=lambda c: c[0])
def test_every_entry_of_a_vector_argument_survives_odd_values(command):
    """Each entry of each vector argument, set to each odd JSON value: the command
    exits 0, 1 or 2, never raises, and reports every failure as an error."""
    vectors = [json.loads(PSI), json.loads(PHI)]
    codes = []
    for v, vector in enumerate(vectors):
        for i in range(len(vector)):
            for odd in ODD_ENTRIES:
                entries = [json.dumps(x) for x in vector]
                entries[i] = odd
                argv = [json.dumps(w) for w in vectors]
                argv[v] = "[" + ",".join(entries) + "]"
                code, _, err = run_cli(*command, *argv)
                assert code in (0, 1, 2), (argv, code)
                assert code == 0 or err.startswith("error:"), (argv, err)
                codes.append(code)
    assert 2 in codes


def test_json_integers_are_valid_vector_entries(tmp_path):
    path = tmp_path / "instances.json"
    path.write_text(json.dumps({"vectors": {"a": [1, 0], "b": [0.5, 0.5]}}))
    assert run_json("compare", "a", "b", "--file", str(path)) == {"order": "succeeds"}
    assert run_json("compare", "[1,0]", "[0.5,0.5]") == {"order": "succeeds"}


def test_simulate_rejects_a_plan_file_that_is_not_an_object(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text("[1, 2]")
    code, out, err = run_cli("simulate", "--plan", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_plan_has_no_protocol_option():
    code, _, _ = run_cli("plan", "--protocol", "thrifty", PSI, PHI)
    assert code == 2


def test_simulate_named_pair_without_protocol_is_usage_error(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"vectors": {"a": [0.5, 0.4, 0.1], "b": [0.6, 0.2, 0.2]},
                                "pairs": {"w": ["a", "b"]}}))
    code, out, err = run_cli("simulate", "--file", str(path), "--pair", "w")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def _state_null(doc):
    doc["steps"][0]["from"]["state"] = None


def _steps_int(doc):
    doc["steps"] = 5


def _success_prob_null(doc):
    doc["success_prob"] = None


def _from_string(doc):
    doc["steps"][0]["from"] = "x"


def _failure_state_null(doc):
    doc["steps"][1]["failure"]["state"] = None


def _kraus_entry_null(doc):
    doc["steps"][1]["kraus"]["m_diag"][0] = None


def _kraus_entry_string(doc):
    doc["steps"][1]["kraus"]["n_diag"][0] = "x"


def _state_entry_object(doc):
    doc["steps"][0]["from"]["state"] = [{}, 0.5]


def _success_prob_big_int(doc):
    doc["success_prob"] = 10**400


def _state_entry_big_int(doc):
    doc["steps"][0]["to"]["state"][0] = 10**400


def _kraus_entry_big_int(doc):
    doc["steps"][1]["kraus"]["m_diag"][0] = 10**400


def _residual_big_int(doc):
    doc["residual"][0] = 10**400


def _state_entry_string(doc):
    doc["steps"][0]["from"]["state"][0] = "0.5"


def _success_prob_string(doc):
    doc["success_prob"] = "0.5"


def _step_name_number(doc):
    doc["steps"][0]["to"]["name"] = 5


def _failure_name_number(doc):
    doc["steps"][1]["failure"]["name"] = 5


def _protocol_number(doc):
    doc["protocol"] = 7


def _kraus_entry_boolean(doc):
    doc["steps"][1]["kraus"]["m_diag"][0] = True


def _ladder_ratio_nan(doc):
    doc["ladder"]["ratios"][0] = float("nan")


def _ladder_indices_float(doc):
    doc["ladder"]["indices"] = [float(i) for i in doc["ladder"]["indices"]]


def _ladder_l0_string(doc):
    doc["ladder"]["l0"] = "x"


def _ladder_unrelated_source(doc):
    doc["ladder"]["source"] = [0.9, 0.05, 0.05]


@pytest.mark.parametrize("tamper", [
    _state_null, _steps_int, _success_prob_null, _from_string, _failure_state_null,
    _kraus_entry_null, _kraus_entry_string, _state_entry_object,
    _success_prob_big_int, _state_entry_big_int, _kraus_entry_big_int, _residual_big_int,
    _state_entry_string, _success_prob_string, _step_name_number, _failure_name_number,
    _protocol_number, _kraus_entry_boolean, _ladder_ratio_nan, _ladder_indices_float,
    _ladder_l0_string, _ladder_unrelated_source,
])
def test_simulate_rejects_wrong_typed_plan_fields(tmp_path, tamper):
    doc = plan_to_dict(plan_thrifty(canonicalize([0.5, 0.4, 0.1]), canonicalize([0.6, 0.2, 0.2])))
    tamper(doc)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("simulate", "--plan", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed plan document:")


def test_protocol_walkthrough_script_runs():
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, str(root / "scripts" / "protocol_walkthrough.py")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "residual  (0.625, 0.375, 0)" in proc.stdout


@pytest.mark.parametrize("argv", [
    ("--epsilon", "nan", "pmax", PSI, PHI),
    ("--epsilon", "inf", "compare", PSI, "[0.9,0.2,0.2]"),
])
def test_non_finite_epsilon_is_usage_error(argv):
    code, out, err = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), float("-inf"), 0.0])
def test_set_epsilon_rejects_non_finite_and_non_positive_values(eps):
    with pytest.raises(ValueError):
        config.set_epsilon(eps)


def test_simulate_rejects_a_plan_file_with_negative_entries(tmp_path):
    # sums, order and the deterministic step's direction all pass; -0.2 does not
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"protocol": "vidal", "success_prob": 1.0, "steps": [{
        "kind": "deterministic",
        "from": {"name": "source", "state": [0.6, 0.6, -0.2]},
        "to": {"name": "target", "state": [1.1, 0.1, -0.2]},
    }]}))
    code, out, err = run_cli("simulate", "--plan", str(path), "--shots", "10")
    assert code == 2
    assert out == ""
    assert "non-canonical" in err


def _kraus_m_diag_cut(doc):
    doc["steps"][1]["kraus"]["m_diag"] = doc["steps"][1]["kraus"]["m_diag"][:2]


def _kraus_diags_empty(doc):
    doc["steps"][1]["kraus"] = {"m_diag": [], "n_diag": []}


def _states_empty(doc):
    for step in doc["steps"]:
        for end in ("from", "to", "failure"):
            if end in step:
                step[end]["state"] = []
    doc["ladder"] = doc["residual"] = None


@pytest.mark.parametrize("tamper, message", [
    (_kraus_m_diag_cut, "error: Kraus diagonals violate completeness\n"),
    (_kraus_diags_empty, "error: state dimension 3 != Kraus dimension 0\n"),
    (_states_empty, "error: non-canonical state in step source->intermediate\n"),
], ids=["m-diag-cut", "diags-empty", "states-empty"])
def test_simulate_names_bad_kraus_data_and_empty_states_in_its_own_words(tmp_path, tamper,
                                                                         message):
    doc = plan_to_dict(plan_vidal(canonicalize([0.5, 0.4, 0.1]), canonicalize([0.6, 0.2, 0.2])))
    tamper(doc)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("simulate", "--plan", str(path), "--shots", "10")
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("tamper, message", [
    (lambda doc: doc.update(steps={"a": 1}), "steps must be a JSON array"),
    (lambda doc: doc.update(steps="ab"), "steps must be a JSON array"),
    (lambda doc: doc["steps"].__setitem__(0, [1]), "steps[0] must be a JSON object"),
    (lambda doc: doc["steps"][1].update(failure=[1]), "steps[1].failure must be a JSON object"),
    (lambda doc: doc["steps"][1].update(kraus="x"), "steps[1].kraus must be a JSON object"),
    (lambda doc: doc["steps"][0].update({"to": 5}), "steps[0].to must be a JSON object"),
    (lambda doc: doc.update(ladder=[1]), "the ladder must be a JSON object"),
], ids=["steps-object", "steps-string", "step-array", "failure-array", "kraus-string",
        "to-number", "ladder-array"])
def test_simulate_names_a_plan_field_of_the_wrong_json_container(tmp_path, tamper, message):
    doc = plan_to_dict(plan_thrifty(canonicalize([0.5, 0.4, 0.1]), canonicalize([0.6, 0.2, 0.2])))
    tamper(doc)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("simulate", "--plan", str(path), "--shots", "10")
    assert (code, out, err) == (2, "", f"error: malformed plan document: {message}\n")


@pytest.mark.parametrize("residual", [[1.0, 0.0, 0.0], [0.3, 0.3]])
def test_simulate_rejects_a_plan_file_whose_residual_is_not_its_failure_state(tmp_path, residual):
    path = tmp_path / "plan.json"
    code, _, _ = run_cli("plan", "thrifty", PSI, PHI, "--output", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    doc["residual"] = residual
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("simulate", "--plan", str(path), "--shots", "10")
    assert code == 2
    assert out == ""
    assert "is not the failure state" in err


ODD_VALUES = [None, True, 0, -1, 0.5, 10**400, math.nan, math.inf, "0.5", "x", [], {}]
DELETE = object()


def _fields(node, path=()):
    """Paths to every value inside a JSON document, the document itself excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _fields(value, path + (key,))


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    *parents, last = path
    holder = doc
    for key in parents:
        holder = holder[key]
    if value is DELETE:
        del holder[last]
    else:
        holder[last] = value
    return doc


# optional fields, and the one whose absence means "not a single conversion plan"
NOT_REQUIRED = {"residual", "ladder", "failure", "steps"}


def test_simulate_survives_every_field_of_a_plan_file_set_to_odd_values(tmp_path):
    """Every field of the emitted vidal, greedy and thrifty plan documents, set to each
    odd JSON value or deleted: simulate exits 0, 1 or 2, never raises, and reports
    every failure as an error; a deleted required field is named as missing."""
    psi, phi = canonicalize([0.5, 0.4, 0.1]), canonicalize([0.6, 0.2, 0.2])
    path = tmp_path / "plan.json"
    codes = []
    for planner in (plan_vidal, plan_greedy, plan_thrifty):
        doc = plan_to_dict(planner(psi, phi))
        for field in _fields(doc):
            for value in ODD_VALUES + [DELETE]:
                path.write_text(json.dumps(_mutated(doc, field, value)))
                code, out, err = run_cli("simulate", "--plan", str(path), "--shots", "10")
                assert code in (0, 1, 2), (field, value)
                assert code == 0 or err.startswith("error:"), (field, value, err)
                if value is DELETE and isinstance(field[-1], str) and field[-1] not in NOT_REQUIRED:
                    missing = f"error: malformed plan document: missing field {field[-1]!r} in "
                    assert err.startswith(missing), (field, err)
                codes.append(code)
    assert 0 in codes and 2 in codes


@pytest.mark.parametrize("protocol", ["multi-target", "multi-source"])
def test_simulate_names_a_multi_plan_it_cannot_run(tmp_path, protocol):
    path = tmp_path / "plan.json"
    code, _, _ = run_cli("plan", protocol, PSI, PHI, "[0.7,0.2,0.1]", "--output", str(path))
    assert code == 0
    code, out, err = run_cli("simulate", "--plan", str(path))
    assert code == 2
    assert out == ""
    assert protocol in err
    assert "single conversion plans" in err


# ---------------------------------------------------------------------------
# the JSON writer gives the bytes of json.dumps(..., indent=2)

_ODD_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 1.0, 0.1]
_NUMBERS = st.one_of(
    st.floats(), st.sampled_from(_ODD_FLOATS),
    st.integers(), st.integers(min_value=2**64, max_value=10**80),
)
_SCALARS = st.one_of(
    _NUMBERS, st.booleans(), st.none(), st.text(),
    st.sampled_from(['", "', '[1, 2]', 'é∞\u2028', '"quoted"', "back\\slash"]),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=5),
    )


_TREES = st.recursive(
    st.one_of(_SCALARS, st.lists(_NUMBERS, max_size=6), st.lists(st.floats(), max_size=6)),
    _containers, max_leaves=30,
)


@given(_TREES)
def test_json_text_is_json_dumps_with_indent_two(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2)


_VECTOR = [0.5, 0.25, 0.125, 0.125]


@pytest.mark.parametrize("doc", [
    {"ratios": [1.0], "indices": [1]},
    {"indices": [1], "ratios": [1.0]},
    [[0.0], [-0.0], [0.0]],
    [[-0.0], [0.0]],
    [[1.0, 2.0], (1.0, 2.0), [1, 2], [True, 2.0]],
    {"v": _VECTOR, "deeper": {"v": list(_VECTOR), "deepest": [{"v": _VECTOR}]}},
    [[math.nan], [-math.nan], [math.inf, -math.inf], [1.0]],
], ids=["ratio-then-index", "index-then-ratio", "zeros", "negative-zero-first",
        "ints-floats-bools", "one-vector-at-three-depths", "non-finite"])
def test_json_text_keeps_arrays_that_compare_equal_apart(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2)


def test_json_text_raises_type_error_on_what_it_cannot_write():
    with pytest.raises(TypeError, match="^Object of type set is not JSON serializable$"):
        _json_text({"a": [0.5, {1, 2}]})
    with pytest.raises(TypeError):  # payload keys are str
        _json_text({1: 0.5})


def _wide_pair_argv():
    p, q = random_incomparable_pairs(512, 1, np.random.default_rng(512))[0]
    return [json.dumps(p.as_array().tolist()), json.dumps(q.as_array().tolist())]


_PAYLOAD_REQUESTS = {
    "compare": ["compare", PSI, PHI],
    "meet": ["meet", PSI, PHI],
    "join": ["join", PSI, PHI],
    "pmax": ["pmax", PSI, PHI],
    "ladder": ["ladder", PSI, PHI],
    "ladder-comparable": ["ladder", PSI, "[0.7,0.2,0.1]"],
    "plan-vidal": ["plan", "vidal", PSI, PHI],
    "plan-greedy": ["plan", "greedy", PSI, PHI],
    "plan-thrifty": ["plan", "thrifty", PSI, PHI],
    "plan-comparable": ["plan", "thrifty", PSI, "[0.7,0.2,0.1]"],
    "plan-thrifty-512": ["plan", "thrifty", *_wide_pair_argv()],
    "plan-multi-target": ["plan", "multi-target", PSI, PHI, "[0.7,0.2,0.1]"],
    "plan-multi-source": ["plan", "multi-source", PSI, PHI, "[0.7,0.2,0.1]"],
    "sweep": ["sweep", "--dim", "5", "--count", "12", "--seed", "3"],
    "simulate": ["simulate", "greedy", PSI, PHI, "--shots", "500", "--seed", "8"],
    "random": ["random", "--dim", "4", "--count", "3", "--pairs", "2", "--seed", "1"],
}


@pytest.mark.parametrize("name", sorted(_PAYLOAD_REQUESTS))
def test_every_subcommand_writes_the_bytes_of_json_dumps(monkeypatch, tmp_path, name):
    payloads = []
    writer = cli._json_text
    monkeypatch.setattr(cli, "_json_text", lambda doc: payloads.append(doc) or writer(doc))
    argv = _PAYLOAD_REQUESTS[name]
    code, out, err = run_cli(*argv)
    assert code == 0, err
    assert len(payloads) == 1
    assert out == json.dumps(payloads[0], indent=2) + "\n"
    target = tmp_path / "out.json"
    assert run_cli(*argv, "--output", str(target)) == (0, "", "")
    assert target.read_text(encoding="utf-8") == out
