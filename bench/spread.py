"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload cli --seeds 1-10 --seconds 20 [--json OUT]

Runs ``bench/run.py`` once per seed (from the checkout root, one run at a
time) and prints, for each end-to-end metric, the median and the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median.  Compare that share with the metric's ``bound`` in
BENCHMARK.json: a steady benchmark keeps it below a third of the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="also write every run's last line to this file")
    args = ap.parse_args(argv)

    runs = []
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(RUN), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, check=True)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **last})
        print(f"seed {seed}: correct={last['correct']} attempted={last['attempted']} "
              f"failed={last['failed']}", file=sys.stderr)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1)
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        if len(values) >= 2 and median:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f"{(q3 - q1) / median:.4f}"
        else:
            spread = "n/a"
        print(f"{name:48s} median {median:14.6g}  iqr/median {spread}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
