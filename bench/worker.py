"""Run one workload in a fresh process: set-up, warm-up, timed phase, checks.

``run.py`` starts this with BLAS/OpenMP pinned to one thread and ``src`` on
PYTHONPATH.  With ``--setup-only`` it only imports majlat and builds the
inputs, which is what ``setup_s`` times, and prints ``{"scale": REF_MS / g}``
for ``run.py`` to scale that time by, g being the gauge's median time just
before and after the set-up.  Otherwise it writes one JSON result to
``--out``.

Untraced run (``--trace 0``): a closed loop walks the workload's op stream
from the start for ``--seconds``, and at least once; each op's latency is
taken around the op alone, its output is spilled to a file, and every output
is checked after the loop.  Between ops the host-speed gauge (``gauge.py``)
is sampled, and each op's latency is scaled by the gauge around it.  The
latency figures are taken over the distinct ops of the stream, each at the
median of its runs.

Traced run (``--trace 1``): an untraced pass of ``--seconds / 2`` (and at
least one walk of the stream) fixes the op count N; the same N ops then run
with the tracer installed.  Both passes are checked and must give the same
per-op check results.

``attempted`` counts the distinct ops of the stream that ran, and
``failed`` those of them with at least one failed run, so both depend on
the stream alone and not on how many repetitions fitted in the time.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import dataclasses
import json
import math
import os
import pickle
import platform
import resource
import shutil
import sys
import time

import numpy as np

import gauge

PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WARMUP_S = 1.0
SETUP_GAUGE_SAMPLES = 25  # before and after the set-up


class OutputLog:
    """Op outputs pickled to a file in chunks, so that keeping every output
    for the post-run checks does not grow the process's memory with the op
    count (peak RSS is a metric)."""

    CHUNK = 256

    def __init__(self, path: str):
        self.path = path
        self._fh = open(path, "w+b")
        self._buf: list = []

    def append(self, item) -> None:
        self._buf.append(item)
        if len(self._buf) >= self.CHUNK:
            self._flush()

    def _flush(self) -> None:
        pickle.dump(self._buf, self._fh, protocol=pickle.HIGHEST_PROTOCOL)
        self._buf = []

    def read(self) -> list:
        self._flush()
        self._fh.seek(0)
        out: list = []
        while True:
            try:
                out += pickle.load(self._fh)
            except EOFError:
                return out

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()
        os.remove(self.path)
        return False


@dataclasses.dataclass
class Pass:
    """One closed-loop pass: per-op latencies and start times (ns) and the
    gauge samples (when taken, how long they took) between the ops."""

    ops: int
    wall_ns: int
    latencies: array.array
    starts: array.array
    gauge_at: list
    gauge_took: list

    def scaled_ms(self) -> np.ndarray:
        """Per-op latencies in ms, scaled to the reference host speed."""
        lat = np.frombuffer(self.latencies, dtype=np.int64) / 1e6
        at = np.frombuffer(self.starts, dtype=np.int64)
        return lat * gauge.local_scale(at, self.gauge_at, self.gauge_took)

    def op_wall_ns(self) -> int:
        """Wall time of the pass less the gauge samples."""
        return self.wall_ns - sum(self.gauge_took)


def run_pass(wl, *, seconds=None, count=None, min_count=0, log=None, raised=None,
             tracer=None) -> Pass:
    """Closed loop over ``wl.items`` from index 0, with gauge samples between ops.

    Stops after ``count`` ops, or once ``seconds`` have passed and at least
    ``min_count`` ops ran.  An op that raises is logged as None and its
    exception kept in ``raised``.  The gauge runs before the first op, after
    the first op that ends ``gauge.EVERY_NS`` after the last sample, and
    after the last op; it is outside every op's latency.
    """
    items = wl.items
    clock = time.perf_counter_ns
    latencies, starts = array.array("q"), array.array("q")
    gauge_at, gauge_took = [], []
    start = last_gauge = clock()
    gauge_at.append(start)
    gauge_took.append(gauge.gauge_ns())
    deadline = None if seconds is None else start + int(seconds * 1e9)
    i = 0
    while True:
        item = items[i % len(items)]
        if tracer is not None:
            tracer.op = i
        t = clock()
        try:
            out = wl.run(item)
        except Exception as exc:  # an unexpected raise is a failed op
            out = None
            if raised is not None:
                raised[i] = repr(exc)
        end = clock()
        latencies.append(end - t)
        starts.append(t)
        if log is not None:
            log.append(out)
        i += 1
        done = ((count is not None and i >= count)
                or (deadline is not None and end >= deadline and i >= min_count))
        if done or end - last_gauge >= gauge.EVERY_NS:
            gauge_at.append(end)
            gauge_took.append(gauge.gauge_ns())
            last_gauge = clock()
        if done:
            return Pass(i, clock() - start, latencies, starts, gauge_at, gauge_took)


def check_outputs(wl, outs: list) -> list[str]:
    """Per-op check result: "ok", "fail" or "known" (a known defect)."""
    items = wl.items
    return [("fail" if out is None else wl.check(items[i % len(items)], out))
            for i, out in enumerate(outs)]


def per_op_medians(lat_ms: np.ndarray, n_items: int) -> np.ndarray:
    """Median latency of each distinct op over its runs, in stream order.

    Run i of a pass is op ``i % n_items``, as ``run_pass`` starts at index 0.
    A burst of host slowness that hits a few runs leaves the medians alone.
    """
    idx = np.arange(len(lat_ms)) % n_items
    order = np.argsort(idx, kind="stable")
    runs = np.split(lat_ms[order], np.flatnonzero(np.diff(idx[order])) + 1)
    return np.array([np.median(r) for r in runs])


def latency_stats(lat_ms: np.ndarray) -> dict:
    """Throughput (ops over their summed latencies), median and p99 latency."""
    lat = np.sort(lat_ms)
    n = len(lat)
    rank99 = math.ceil(0.99 * n)  # nearest-rank p99
    return {
        "throughput_ops_s": n / (float(lat.sum()) / 1e3),
        "latency_p50_ms": float(np.median(lat)),
        "latency_p99_ms": float(lat[rank99 - 1]),
        "latency_samples": n,
        "samples_beyond_p99": n - rank99,
    }


def gauge_summary(p: Pass) -> dict:
    took = np.asarray(p.gauge_took) / 1e6
    return {"gauge_samples": len(took), "gauge_ms_median": float(np.median(took)),
            "gauge_ms_quartiles": [float(q) for q in np.quantile(took, [0.25, 0.75])]}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without show_config(mode="dicts")
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "thread_pins": {v: os.environ.get(v) for v in PIN_VARS},
    }


def summarize(wl, outs, codes, raised) -> dict:
    """Counts over the distinct ops of the stream that ran.

    An op is failed if any of its runs failed, and a known-defect failure
    if every failed run of it was a known defect.
    """
    n_items = len(wl.items)
    attempted = min(len(codes), n_items)
    worst: dict = {}
    for i, code in enumerate(codes):
        if code != "ok" and worst.get(i % n_items) != "fail":
            worst[i % n_items] = code
    failed = len(worst)
    first_bad = [i for i, c in enumerate(codes) if c == "fail"][:5]
    return {
        "attempted": attempted,
        "failed": failed,
        "known_defect_failures": sum(c == "known" for c in worst.values()),
        "failed_ops_frac": failed / attempted,
        "failed_runs": sum(c != "ok" for c in codes),
        "first_unexpected_failures": [
            {"op": i, "raised": raised.get(i)} for i in first_bad],
        **wl.summary(wl.items[:attempted], [o for o in outs[:attempted] if o is not None]),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import workloads
    cls = workloads.WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_only:
            took = gauge.samples(SETUP_GAUGE_SAMPLES)
            cls(args.seed, os.path.join(args.workdir, tag))
            took += gauge.samples(SETUP_GAUGE_SAMPLES)
            print(json.dumps({"scale": gauge.REF_MS / (float(np.median(took)) / 1e6)}))
        else:
            run(cls, args, tag)
    finally:
        shutil.rmtree(os.path.join(args.workdir, tag), ignore_errors=True)
    return 0


def run(cls, args, tag) -> None:
    tracer = None
    if args.trace:
        from tracer import Tracer, function_shares, layer_metrics
        tracer = Tracer()
    setup_start = time.perf_counter_ns()
    with tracer or contextlib.nullcontext():
        wl = cls(args.seed, os.path.join(args.workdir, tag))
    setup_wall = time.perf_counter_ns() - setup_start

    run_pass(wl, seconds=WARMUP_S, min_count=wl.period)
    outputs_path = os.path.join(args.workdir, f"outputs-{tag}.pkl")
    raised: dict = {}
    with OutputLog(outputs_path) as log:
        seconds = args.seconds / 2 if args.trace else args.seconds
        timed = run_pass(wl, seconds=seconds, min_count=len(wl.items), log=log, raised=raised)
        rss = peak_rss_mib()
        outs = log.read()
    codes = check_outputs(wl, outs)
    scaled = timed.scaled_ms()

    if args.trace:
        raised = {}
        with OutputLog(outputs_path) as log:
            with tracer:
                traced = run_pass(wl, count=timed.ops, log=log, raised=raised, tracer=tracer)
            outs_t = log.read()
        codes_t = check_outputs(wl, outs_t)
        wall_t = traced.op_wall_ns()
        metrics = {**layer_metrics(tracer, traced.ops, wall_t, setup_wall),
                   "trace_overhead_frac": float(traced.scaled_ms().sum() / scaled.sum() - 1.0)}
        tracer.save(os.path.join(args.workdir, f"spans-{args.workload}-seed{args.seed}.npz"))
        summary = summarize(wl, outs_t, codes_t, raised)
        summary["same_checks_as_untraced"] = codes_t == codes
        shares = function_shares(tracer, wall_t)
        summary["top_self_shares"] = dict(sorted(shares.items(), key=lambda kv: -kv[1])[:6])
        summary["gauge"] = gauge_summary(traced)
    else:
        n_items = len(wl.items)
        metrics = {**latency_stats(per_op_medians(scaled, n_items)), "peak_rss_mib": rss}
        raw = np.frombuffer(timed.latencies, dtype=np.int64) / 1e6
        summary = {**summarize(wl, outs, codes, raised), "ops_run": timed.ops,
                   "unscaled": {k: v for k, v in latency_stats(per_op_medians(raw, n_items)).items()
                                if k.startswith(("throughput", "latency_p"))},
                   "gauge": gauge_summary(timed)}
    correct = (summary["failed"] == summary["known_defect_failures"]
               and summary.get("same_checks_as_untraced", True))
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(), "summary": summary, "metrics": metrics,
              "correct": correct}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
