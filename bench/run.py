"""majlat benchmark entry point.

    python3 bench/run.py --workload {ensemble,wide,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the directory holding ``src/majlat``).
The workload runs in a fresh worker process with BLAS/OpenMP pinned to one
thread and ``src`` on PYTHONPATH; nothing is installed.  With ``--trace 0``
the set-up is also timed in ``SETUP_RUNS`` fresh processes.  Every reported
time is scaled to the reference host speed by the gauge of ``gauge.py``.

Prints a report line (all end-to-end figures with units, the failed-op
share, sample counts and the environment), then, as the last line, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Exits non-zero
without that line if the checkout or a worker is broken.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("ensemble", "wide", "cli")
SETUP_RUNS = 7
WORKDIR = "bench_out"  # scratch files, inside the checkout
WORKER_TIMEOUT_S = 150
PINS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                         "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

UNITS = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "failed_ops_frac": "ratio",
    "peak_rss_mib": "MiB",
}


def source_identity(root: Path) -> dict:
    """Git commit when the checkout is a repository, and a hash of src/majlat."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "majlat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def worker_cmd(args, workdir: str) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--workdir", workdir]


def time_setup(args, env, workdir: str) -> tuple[list[float], list[float]]:
    """Wall time (s) of fresh processes that import majlat and build the
    inputs, unscaled and scaled by the factor each process reports from the
    gauge samples it takes just before and after its set-up.

    ``Popen.communicate(timeout=...)`` would poll, so the call blocks without
    a timeout and a timer kills a hung process instead.
    """
    raw, scaled = [], []
    cmd = worker_cmd(args, workdir) + ["--setup-only"]
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out, _ = proc.communicate()
        finally:
            watchdog.cancel()
        took = time.perf_counter() - start
        if proc.returncode != 0:
            raise subprocess.CalledProcessError(proc.returncode, cmd)
        raw.append(took)
        scaled.append(took * json.loads(out)["scale"])
    return raw, scaled


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="majlat benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "majlat" / "__init__.py").is_file():
        print(f"error: no majlat source under {root / 'src'}; "
              "run from the root of a majlat checkout", file=sys.stderr)
        return 2
    workdir = str(root / WORKDIR)
    os.makedirs(workdir, exist_ok=True)
    env = {**os.environ, **PINS,
           "PYTHONPATH": os.pathsep.join(
               [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])}

    try:
        setup_raw, setup = ([], []) if args.trace else time_setup(args, env, workdir)
        out_path = os.path.join(workdir, f"result-{args.workload}-{args.seed}-{args.trace}.json")
        subprocess.run(worker_cmd(args, workdir) + ["--seconds", str(args.seconds), "--trace",
                       str(args.trace), "--out", out_path], env=env, check=True,
                       timeout=WORKER_TIMEOUT_S)
        with open(out_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError,
            ValueError) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1

    summary = result["summary"]
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, **source_identity(root),
              "environment": result["environment"], "summary": summary}
    if args.trace:
        metrics = result["metrics"]
    else:
        m = result["metrics"]
        figures = {**m, "setup_s": statistics.median(setup),
                   "failed_ops_frac": summary["failed_ops_frac"]}
        report["end_to_end"] = {k: {"value": figures[k], "unit": u} for k, u in UNITS.items()}
        report["latency_samples"] = m["latency_samples"]
        report["samples_beyond_p99"] = m["samples_beyond_p99"]
        report["setup_runs_s"] = {"scaled": setup, "unscaled": setup_raw}
        metrics = {k: figures[k] for k in UNITS if k != "failed_ops_frac"}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(summary["attempted"]),
        "failed": int(summary["failed"]),
        "metrics": {k: {"value": v, "unit": metric_unit(k)} for k, v in metrics.items()},
    }))
    return 0


def metric_unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    suffix = name.rsplit(".", 1)[-1]
    return {"calls_per_op": "calls/op", "self_us_per_op": "us/op", "errors": "count",
            "self_share": "ratio", "trace_overhead_frac": "ratio"}[suffix]


if __name__ == "__main__":
    sys.exit(main())
