"""Write the baseline file from the run files of ``bench/spread.py --json``.

    python3 bench/baseline.py --commit SHA --hardware TEXT --run-seconds 33 \
        --runs ensemble=e.json wide=w.json cli=c.json \
        --traced ensemble=et.json wide=wt.json cli=ct.json --out bench/baseline.json

``--runs`` files hold untraced runs (``--trace 0``), ``--traced`` files
traced ones.  For each end-to-end metric the file keeps every value, the
median and the quartiles (``statistics.quantiles(n=4)``); for each
per-layer metric it keeps the values.
"""

from __future__ import annotations

import argparse
import json
import statistics


def named_files(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        name, _, path = pair.partition("=")
        with open(path, encoding="utf-8") as fh:
            out[name] = json.load(fh)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--commit", required=True)
    ap.add_argument("--hardware", required=True)
    ap.add_argument("--run-seconds", type=int, required=True)
    ap.add_argument("--runs", nargs="+", required=True)
    ap.add_argument("--traced", nargs="+", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    runs, traced = named_files(args.runs), named_files(args.traced)
    end_to_end, failed, per_layer = {}, {}, {}
    for workload, rs in runs.items():
        end_to_end[workload] = {}
        for name, first in rs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in rs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            end_to_end[workload][name] = {
                "unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                "iqr_over_median": (q3 - q1) / median, "values": values}
        failed[workload] = [r["failed"] / r["attempted"] for r in rs]
    for workload, rs in traced.items():
        per_layer[workload] = {
            name: {"unit": first["unit"], "values": [r["metrics"][name]["value"] for r in rs]}
            for name, first in rs[0]["metrics"].items()}
    seeds = sorted({r["seed"] for rs in runs.values() for r in rs})
    doc = {"commit": args.commit, "hardware": args.hardware, "run_seconds": args.run_seconds,
           "end_to_end_seeds": seeds,
           "traced_seeds": sorted({r["seed"] for rs in traced.values() for r in rs}),
           "end_to_end": end_to_end, "failed_ops_frac": failed, "per_layer": per_layer}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
