"""Command-line front end.

Subcommands: compare, meet, join, pmax, ladder, plan, sweep, simulate,
random.  Vectors are inline JSON arrays, or names resolved against an
instance file (``--file``).  Output is JSON by default; ``--format csv``
gives flat rows and ``--format dot`` (or ``plan --dot``) a digraph with
bold deterministic and dashed probabilistic edges.

Exit codes: 0 success, 1 domain error (not normalized, rank deficit, sweep
failures), 2 malformed input or bad usage.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import math

import numpy as np

from . import config
from .errors import MajlatError
from .lattice import cumulative_sums, join, meet
from .ladder import p_max, r_vector, ratio_ladder
from .oracle import run_plan
from .protocols import (
    multi_source_to_dict,
    multi_source_to_dot,
    multi_target_to_dict,
    multi_target_to_dot,
    plan_from_dict,
    plan_greedy,
    plan_multi_source,
    plan_multi_target,
    plan_thrifty,
    plan_to_dict,
    plan_to_dot,
    plan_vidal,
)
from .sampling import random_incomparable_pairs, random_prob_vecs
from .schmidt import ProbVec, canonicalize, compare
from .sweep import run_sweep

PLAN_BUILDERS = {
    "vidal": plan_vidal,
    "greedy": plan_greedy,
    "thrifty": plan_thrifty,
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _common_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--epsilon", type=float, default=argparse.SUPPRESS,
                        help="global comparison tolerance (default 1e-9)")
    parent.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="RNG seed for random/sweep/simulate")
    parent.add_argument("--format", choices=("json", "csv", "dot"),
                        default=argparse.SUPPRESS, help="output format (default json)")
    parent.add_argument("--output", default=argparse.SUPPRESS,
                        help="write the result to a file instead of stdout")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parent = _common_parent()
    parser = argparse.ArgumentParser(
        prog="majlat",
        description="Majorization-lattice toolkit for bipartite pure-state conversion.",
        parents=[parent],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def vector_command(name: str, help_text: str, nargs: str = "*"):
        sp = sub.add_parser(name, parents=[parent], help=help_text)
        sp.add_argument("vectors", nargs=nargs,
                        help="inline JSON arrays, or names when --file is given")
        sp.add_argument("--file", help="instance file with named vectors/pairs/collections")
        sp.add_argument("--pair", help="pair name from the instance file")
        return sp

    vector_command("compare", "majorization order of two vectors")
    vector_command("meet", "greatest lower bound (optimal common resource)")
    vector_command("join", "least upper bound (optimal common product)")
    vector_command("pmax", "optimal conversion probability source -> target")
    vector_command("ladder", "monotone ratio ladder source -> target")

    sp = vector_command("plan", "build a conversion plan")
    sp.add_argument("--collection", help="collection name from the instance file")
    sp.add_argument("--dot", action="store_true", help="emit a DOT digraph")

    sp = sub.add_parser("sweep", parents=[parent],
                        help="check properties on random instances")
    sp.add_argument("--dim", type=int, default=4)
    sp.add_argument("--count", type=_positive_int, default=1000)
    sp.add_argument("--properties",
                    help="comma-separated list (default: all); see README for names")

    sp = sub.add_parser("simulate", parents=[parent],
                        help="Monte Carlo execution of a plan")
    sp.add_argument("plan_args", nargs="*",
                    help="PROTOCOL SOURCE TARGET, or nothing with --plan FILE")
    sp.add_argument("--plan", help="plan JSON file emitted by the plan subcommand")
    sp.add_argument("--file", help="instance file for named vectors")
    sp.add_argument("--pair", help="pair name from the instance file")
    sp.add_argument("--shots", type=_positive_int, default=10_000)

    sp = sub.add_parser("random", parents=[parent],
                        help="generate a random instance file")
    sp.add_argument("--dim", type=int, default=4)
    sp.add_argument("--count", type=_positive_int, default=4)
    sp.add_argument("--pairs", type=int, default=0,
                    help="also generate this many incomparable pairs (dim >= 3)")

    return parser


# ---------------------------------------------------------------------------
# input resolution

def _load_instance_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "vectors" not in doc:
        raise ValueError(f"{path}: instance file needs a top-level 'vectors' object")
    return doc


def _resolve_vector(token: str, instances: dict | None) -> ProbVec:
    token = token.strip()
    if token.startswith("["):
        return canonicalize(json.loads(token))
    if instances is None:
        raise ValueError(f"vector name {token!r} given but no --file to resolve it")
    try:
        raw = instances["vectors"][token]
    except KeyError:
        raise ValueError(f"unknown vector name {token!r} in instance file") from None
    return canonicalize(raw)


def _resolve_inputs(args, want: int | None = 2) -> list[ProbVec]:
    """Vectors from positionals, --pair or --collection (plan only)."""
    instances = _load_instance_file(args.file) if getattr(args, "file", None) else None
    names: list[str] = list(args.vectors or [])
    if getattr(args, "pair", None):
        if instances is None:
            raise ValueError("--pair requires --file")
        try:
            pair = instances["pairs"][args.pair]
        except KeyError:
            raise ValueError(f"unknown pair {args.pair!r} in instance file") from None
        names = list(pair)
    elif getattr(args, "collection", None):
        if instances is None:
            raise ValueError("--collection requires --file")
        try:
            names = list(instances["collections"][args.collection])
        except KeyError:
            raise ValueError(f"unknown collection {args.collection!r} in instance file") from None
    if want is not None and len(names) != want:
        raise ValueError(f"expected {want} vectors, got {len(names)}")
    if want is None and len(names) < 2:
        raise ValueError("expected at least 2 vectors")
    return [_resolve_vector(name, instances) for name in names]


# ---------------------------------------------------------------------------
# subcommand bodies: return (payload dict, exit code, optional dot text)

def _cmd_compare(args):
    p, q = _resolve_inputs(args)
    return {"order": compare(p, q).value}, 0, None


def _cmd_meet(args):
    p, q = _resolve_inputs(args)
    m = meet(p, q)
    return {"meet": list(m.entries), "cumulative_sums": list(cumulative_sums(m))}, 0, None


def _cmd_join(args):
    p, q = _resolve_inputs(args)
    j = join(p, q)
    return {"join": list(j.entries), "cumulative_sums": list(cumulative_sums(j))}, 0, None


def _cmd_pmax(args):
    source, target = _resolve_inputs(args)
    return {"p_max": p_max(source, target)}, 0, None


def _cmd_ladder(args):
    source, target = _resolve_inputs(args)
    ladder = ratio_ladder(source, target)
    payload = {
        "k": ladder.k,
        "ratios": list(ladder.ratios),
        "indices": list(ladder.indices),
        "l0": ladder.l0,
        "r_vector": list(r_vector(ladder)),
    }
    return payload, 0, None


def _cmd_plan(args):
    if not args.vectors:
        raise ValueError("plan needs a protocol, then vectors or --pair / --collection")
    protocol, *args.vectors = args.vectors
    known = sorted(PLAN_BUILDERS) + ["multi-target", "multi-source"]
    if protocol not in known:
        raise ValueError(f"unknown protocol {protocol!r}; choose from {known}")

    if protocol in PLAN_BUILDERS:
        source, target = _resolve_inputs(args)
        plan = PLAN_BUILDERS[protocol](source, target)
        return plan_to_dict(plan), 0, plan_to_dot(plan)
    vecs = _resolve_inputs(args, want=None)
    if protocol == "multi-target":
        plan = plan_multi_target(vecs[0], vecs[1:])
        return multi_target_to_dict(plan), 0, multi_target_to_dot(plan)
    plan = plan_multi_source(vecs[:-1], vecs[-1])
    return multi_source_to_dict(plan), 0, multi_source_to_dot(plan)


def _cmd_sweep(args):
    if args.dim < 2:
        raise ValueError("sweep needs --dim >= 2")
    properties = None
    if args.properties:
        properties = [name.strip() for name in args.properties.split(",") if name.strip()]
    report = run_sweep(args.dim, args.count, seed=getattr(args, "seed", None),
                       properties=properties)
    return report.to_dict(), 0 if report.total_failures == 0 else 1, None


def _cmd_simulate(args):
    if args.plan:
        with open(args.plan, "r", encoding="utf-8") as fh:
            plan = plan_from_dict(json.load(fh))  # run_plan validates it
    else:
        if not args.plan_args:
            raise ValueError("simulate needs PROTOCOL SOURCE TARGET or --plan FILE")
        protocol, *args.vectors = args.plan_args
        if protocol not in PLAN_BUILDERS:
            raise ValueError(f"unknown protocol {protocol!r}; choose from {sorted(PLAN_BUILDERS)}")
        source, target = _resolve_inputs(args)
        plan = PLAN_BUILDERS[protocol](source, target)
    seed = getattr(args, "seed", None)
    stats = run_plan(plan, shots=args.shots, seed=seed)
    rate = stats.empirical_rate
    payload = stats.to_dict()
    payload["half_width"] = 4.0 * math.sqrt(max(rate * (1.0 - rate), 0.0) / stats.shots)
    payload["plan_success_prob"] = plan.success_prob
    return payload, 0, None


def _cmd_random(args):
    if args.dim < 1:
        raise ValueError("random needs --dim >= 1")
    seed = getattr(args, "seed", None)
    rng = np.random.default_rng(seed)
    vectors = {f"v{i}": list(v.entries)
               for i, v in enumerate(random_prob_vecs(args.dim, args.count, rng))}
    payload = {"dim": args.dim, "seed": seed, "vectors": vectors}
    if args.pairs > 0:
        pairs = {}
        for i, (p, q) in enumerate(random_incomparable_pairs(args.dim, args.pairs, rng)):
            vectors[f"p{i}a"] = list(p.entries)
            vectors[f"p{i}b"] = list(q.entries)
            pairs[f"pair{i}"] = [f"p{i}a", f"p{i}b"]
        payload["pairs"] = pairs
    return payload, 0, None


COMMANDS = {
    "compare": _cmd_compare,
    "meet": _cmd_meet,
    "join": _cmd_join,
    "pmax": _cmd_pmax,
    "ladder": _cmd_ladder,
    "plan": _cmd_plan,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "random": _cmd_random,
}


# ---------------------------------------------------------------------------
# rendering

def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def render_csv(command: str, payload: dict) -> str:
    if command == "compare":
        return _csv_text([["order"], [payload["order"]]])
    if command in ("meet", "join"):
        return _csv_text([payload[command]])
    if command == "pmax":
        return _csv_text([["p_max"], [payload["p_max"]]])
    if command == "ladder":
        rows = [["j", "ratio", "index"]]
        rows += [[j + 1, r, l] for j, (r, l) in
                 enumerate(zip(payload["ratios"], payload["indices"]))]
        return _csv_text(rows)
    if command == "plan":
        rows = [["step", "kind", "from", "to", "success_prob"]]
        steps = payload.get("steps")
        if steps is None:  # multi plans
            steps = payload.get("heads", []) + payload["core"]["steps"] + payload.get("tails", [])
        for i, step in enumerate(steps):
            rows.append([i, step["kind"], step["from"]["name"], step["to"]["name"],
                         step.get("success_prob", "")])
        return _csv_text(rows)
    if command == "sweep":
        rows = [["property", "applicable", "passed", "failed", "worst_slack"]]
        rows += [[p["name"], p["applicable"], p["passed"], p["failed"], p["worst_slack"]]
                 for p in payload["properties"]]
        return _csv_text(rows)
    if command == "simulate":
        keys = ["shots", "successes", "empirical_rate", "half_width", "plan_success_prob"]
        return _csv_text([keys, [payload[k] for k in keys]])
    if command == "random":
        rows = [["name"] + [f"x{i}" for i in range(payload["dim"])]]
        rows += [[name] + entries for name, entries in payload["vectors"].items()]
        return _csv_text(rows)
    raise ValueError(f"no CSV rendering for {command}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    previous = config.get_epsilon()
    try:
        return _run(args)
    finally:
        config.set_epsilon(previous)  # --epsilon applies to this call only


def _run(args) -> int:
    epsilon = getattr(args, "epsilon", None)
    if epsilon is not None:
        try:
            config.set_epsilon(epsilon)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    out_format = getattr(args, "format", None) or "json"
    if getattr(args, "dot", False):
        out_format = "dot"

    try:
        payload, code, dot_text = COMMANDS[args.command](args)
    except MajlatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if out_format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif out_format == "csv":
        try:
            text = render_csv(args.command, payload)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        if dot_text is None:
            print("error: dot output is only available for the plan subcommand",
                  file=sys.stderr)
            return 2
        text = dot_text

    output = getattr(args, "output", None)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
