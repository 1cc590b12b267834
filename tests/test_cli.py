import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from majlat import canonicalize, compare, config, plan_thrifty, plan_to_dict
from majlat.cli import main
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


@pytest.mark.parametrize("argv", [
    ("compare", "[NaN,1]", "[1,0]"),
    ("compare", "[Infinity,0]", PHI),
    ("pmax", PSI, "[NaN,0.2,0.2]"),
    ("pmax", "[0.5,-Infinity,0.1]", PHI),
])
def test_non_finite_vectors_are_malformed_input(argv):
    code, out, err = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert "finite" in err


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


@pytest.mark.parametrize("tamper", [
    _state_null, _steps_int, _success_prob_null, _from_string, _failure_state_null,
    _kraus_entry_null, _kraus_entry_string,
])
def test_simulate_rejects_wrong_typed_plan_fields(tmp_path, tamper):
    doc = plan_to_dict(plan_thrifty(canonicalize([0.5, 0.4, 0.1]), canonicalize([0.6, 0.2, 0.2])))
    tamper(doc)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("simulate", "--plan", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


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
