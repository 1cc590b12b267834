"""Tests of the benchmark itself: tracer, output checks, seeded inputs, entry point.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import array
import json
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import majlat  # noqa: E402
import majlat.cli  # noqa: E402
import gauge  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads as wls  # noqa: E402


def _bindings_snapshot():
    """Every (module, name) -> object, plus the values of module-level dicts."""
    snap = {}
    for module in tr._majlat_modules():
        for key, value in vars(module).items():
            snap[(module.__name__, key)] = value
            if isinstance(value, dict):
                for k, v in value.items():
                    snap[(module.__name__, key, k)] = v
    return snap


def _traced_pass(wl, count):
    tracer = tr.Tracer()
    with tracer:
        p = worker.run_pass(wl, count=count, tracer=tracer)
    return tracer, p.ops, p.op_wall_ns()


def test_child_spans_nest_and_self_time_fits_in_wall(tmp_path):
    wl = wls.Ensemble(3, str(tmp_path))
    tracer, n, wall = _traced_pass(wl, 60)
    spans = tracer.span_array()
    assert len(spans) > 60
    child = spans[spans[:, 3] >= 0]
    parents = spans[child[:, 3]]
    assert np.all(parents[:, 1] <= child[:, 1])
    assert np.all(child[:, 2] <= parents[:, 2])
    assert np.all(parents[:, 4] == child[:, 4])  # a child belongs to its parent's op
    selfs = tr.self_times(spans)
    assert np.all(selfs >= 0)
    assert selfs.sum() <= wall
    metrics = tr.layer_metrics(tracer, n, wall, 1)
    assert sum(metrics[f"{layer}.self_share"] for layer in tr.LAYERS) <= 1.0
    assert metrics["ladder.p_max.calls_per_op"] == 1.0
    assert set(metrics) | {"trace_overhead_frac"} == set(tr.metric_names())


def test_wrappers_cover_every_binding_and_restore_all():
    before = _bindings_snapshot()
    tracer = tr.Tracer()
    with tracer:
        wrapped = tracer.wrapped_bindings()
        assert getattr(majlat.protocols.meet, "__wrapped__", None) is before[("majlat.lattice", "meet")]
        assert getattr(majlat.cli.PLAN_BUILDERS["thrifty"], "__wrapped__", None) is not None
        assert getattr(majlat.compare, "__wrapped__", None) is before[("majlat.schmidt", "compare")]
        assert {"main", "thrifty", "compare", "run_plan"} <= set(wrapped)
    assert tracer.wrapped_bindings() == []
    after = _bindings_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_wrapper_counts_errors_and_still_raises():
    tracer = tr.Tracer()
    with tracer, pytest.raises(majlat.NotNormalized):
        majlat.canonicalize([0.5, 0.6])
    assert tracer.errors[[n for _, n, _ in tracer.functions].index("canonicalize")] == 1
    assert tracer.span_array().shape == (1, 5)


def _ensemble_case(tmp_path):
    wl = wls.Ensemble(5, str(tmp_path))
    item = next(i for i in wl.items if majlat.compare(*i) is majlat.MajOrder.INCOMPARABLE)
    return wl, item, wl.run(item)


def test_tampered_success_prob_counts_as_failed(tmp_path):
    wl, item, out = _ensemble_case(tmp_path)
    assert wl.check(item, out) == "ok"
    order, pm, m, j, plans = out
    sp, res, mid = plans[2]
    tampered = (order, pm, m, j, plans[:2] + ((sp + 1e-6, res, mid),))
    assert wl.check(item, tampered) == "fail"
    swapped = (order, pm, m, j, (plans[0], plans[2], plans[1]))  # thrifty residual is below greedy
    assert wl.check(item, swapped) == "fail"


def test_tampered_wide_and_cli_outputs_count_as_failed(tmp_path):
    wl = wls.Wide(2, str(tmp_path))
    item = next(i for i in wl.items if i[1] and len(i[0][0].entries) == 64)
    mt, ms, dense = wl.run(item)
    assert wl.check(item, (mt, ms, dense)) == "ok"
    assert wl.check(item, (mt + 1e-6, ms, dense)) == "fail"
    bad_dense = (dense[0] + 1e-6,) + dense[1:]
    assert wl.check(item, (mt, ms, bad_dense)) == "fail"

    cli = wls.Cli(2, str(tmp_path / "cli"))
    plan, sim = cli.items[0], cli.items[1]
    assert cli.check(plan, cli.run(plan)) == "ok"
    code, stdout, stderr = cli.run(sim)
    assert cli.check(sim, (code, stdout, stderr)) == "ok"
    doc = json.loads(stdout)
    doc["empirical_rate"] = doc["plan_success_prob"] + 2 * doc["half_width"]
    assert cli.check(sim, (code, json.dumps(doc), stderr)) == "fail"
    assert cli.check(sim, (1, stdout, stderr)) == "fail"


def test_nonfinite_requests_are_known_failures_until_rejected(tmp_path):
    cli = wls.Cli(4, str(tmp_path))
    nonfinite = [i for i in cli.items if i[0].startswith("reject-nonfinite")]
    assert nonfinite
    for item in nonfinite:
        assert "NaN" in " ".join(item[1])
        assert cli.check(item, (0, "{}", "")) == "known"
        assert cli.check(item, (1, "", "error: x")) == "ok"
    for item in (i for i in cli.items if i[0] in ("reject-rank", "reject-unnormalized")):
        assert cli.check(item, cli.run(item)) == "ok"


def test_latencies_scale_by_the_gauge_around_them():
    ms = 1_000_000
    slow = int(2 * gauge.REF_MS * ms)  # the host runs at half the reference speed
    at = [0, 500 * ms, 5000 * ms, 5500 * ms]
    took = [int(gauge.REF_MS * ms), int(gauge.REF_MS * ms), slow, slow]
    p = worker.Pass(4, 6000 * ms, array.array("q", [4 * ms, 4 * ms, 8 * ms, 8 * ms]),
                    array.array("q", [100 * ms, 400 * ms, 5100 * ms, 5400 * ms]), at, took)
    assert p.scaled_ms().tolist() == pytest.approx([4.0, 4.0, 4.0, 4.0])
    assert p.op_wall_ns() == 6000 * ms - sum(took)
    stats = worker.latency_stats(p.scaled_ms())
    assert stats["throughput_ops_s"] == pytest.approx(250.0)


def test_per_op_medians_follow_stream_order():
    lat = np.array([5.0, 9.0, 4.0, 3.0, 8.0, 6.0, 7.0])  # ops a b c a b c a
    assert worker.per_op_medians(lat, 3).tolist() == [5.0, 8.5, 5.0]


def test_run_pass_samples_the_gauge_outside_the_ops(tmp_path):
    wl = wls.Ensemble(3, str(tmp_path))
    p = worker.run_pass(wl, count=40)
    assert p.ops == len(p.latencies) == len(p.starts) == 40
    assert len(p.gauge_at) >= 2 and len(p.gauge_at) == len(p.gauge_took)
    assert sum(p.latencies) + sum(p.gauge_took) <= p.wall_ns


def test_counts_are_per_distinct_op():
    class Stream:
        items = ["a", "b", "c"]

        @staticmethod
        def summary(items, outs):
            return {"seen": len(items)}

    codes = ["ok", "known", "ok", "ok", "known", "fail", "ok"]  # ops a b c a b c a
    summary = worker.summarize(Stream, [0] * 7, codes, {})
    assert (summary["attempted"], summary["failed"], summary["known_defect_failures"]) == (3, 2, 1)
    assert summary["failed_runs"] == 3 and summary["seen"] == 3


@pytest.mark.parametrize("name", sorted(wls.WORKLOADS))
def test_inputs_are_identical_for_a_seed_and_differ_across_seeds(name, tmp_path):
    cls = wls.WORKLOADS[name]

    def blob(seed):
        return pickle.dumps(cls(seed, str(tmp_path)).items)

    assert blob(11) == blob(11)
    assert blob(11) != blob(12)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ensemble",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
