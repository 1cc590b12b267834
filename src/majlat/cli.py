"""Command-line front end.

Subcommands: compare, meet, join, pmax, ladder, plan, sweep, simulate,
random.  Vectors are inline JSON arrays, or names resolved against an
instance file (``--file``).  Output is JSON by default: the bytes of
``json.dumps(payload, indent=2)``, written by ``_json_text``, which leaves
the number arrays to the C encoder.  ``--format csv`` gives flat rows and
``--format dot`` (or ``plan --dot``) a digraph with bold deterministic and
dashed probabilistic edges.

Exit codes: 0 success, 1 domain error (not normalized, rank deficit, sweep
failures), 2 malformed input or bad usage.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import NamedTuple

import numpy as np

from . import config
from .errors import MajlatError
from .lattice import join, meet
from .ladder import p_max, r_vector, ratio_ladder
from .oracle import run_plan
from .protocols import (
    ConversionPlan,
    MultiStatePlan,
    json_numbers,
    multi_plan_to_dict,
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
_MULTI_PROTOCOLS = ("multi-target", "multi-source")


class _Result(NamedTuple):
    """What a subcommand returns; ``plan`` is drawn as DOT when asked (``plan`` only)."""

    payload: dict
    rows: list
    code: int = 0
    plan: ConversionPlan | MultiStatePlan | None = None


def _int_at_least(text: str, low: int, kind: str) -> int:
    # argparse names the type function in a ValueError's message, so raise its own error
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1, "positive")


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0, "non-negative")


def build_parser() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--epsilon", type=float, default=argparse.SUPPRESS,
                        help="global comparison tolerance (default 1e-9)")
    parent.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="RNG seed for random/sweep/simulate")
    parent.add_argument("--format", choices=("json", "csv", "dot"),
                        default=argparse.SUPPRESS, help="output format (default json)")
    parent.add_argument("--output", default=argparse.SUPPRESS,
                        help="write the result to a file instead of stdout")
    parser = argparse.ArgumentParser(
        prog="majlat",
        description="Majorization-lattice toolkit for bipartite pure-state conversion.",
        parents=[parent],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help_text: str):
        sp = sub.add_parser(name, parents=[parent], help=help_text)
        sp.set_defaults(run=run)
        return sp

    def vector_command(name: str, run, help_text: str):
        sp = command(name, run, help_text)
        sp.add_argument("vectors", nargs="*",
                        help="inline JSON arrays, or names when --file is given")
        sp.add_argument("--file", help="instance file with named vectors/pairs/collections")
        sp.add_argument("--pair", help="pair name from the instance file")
        return sp

    vector_command("compare", _cmd_compare, "majorization order of two vectors")
    vector_command("meet", _cmd_meet, "greatest lower bound (optimal common resource)")
    vector_command("join", _cmd_join, "least upper bound (optimal common product)")
    vector_command("pmax", _cmd_pmax, "optimal conversion probability source -> target")
    vector_command("ladder", _cmd_ladder, "monotone ratio ladder source -> target")

    sp = vector_command("plan", _cmd_plan, "build a conversion plan")
    sp.add_argument("--collection", help="collection name from the instance file")
    sp.add_argument("--dot", action="store_true", help="emit a DOT digraph")

    sp = command("sweep", _cmd_sweep, "check properties on random instances")
    sp.add_argument("--dim", type=int, default=4)
    sp.add_argument("--count", type=_positive_int, default=1000)
    sp.add_argument("--properties",
                    help="comma-separated list (default: all); see README for names")

    sp = command("simulate", _cmd_simulate, "Monte Carlo execution of a plan")
    sp.add_argument("plan_args", nargs="*",
                    help="PROTOCOL SOURCE TARGET, or nothing with --plan FILE")
    sp.add_argument("--plan", help="plan JSON file emitted by the plan subcommand")
    sp.add_argument("--file", help="instance file for named vectors")
    sp.add_argument("--pair", help="pair name from the instance file")
    sp.add_argument("--shots", type=_positive_int, default=10_000)

    sp = command("random", _cmd_random, "generate a random instance file")
    sp.add_argument("--dim", type=int, default=4)
    sp.add_argument("--count", type=_positive_int, default=4)
    sp.add_argument("--pairs", type=_non_negative_int, default=0,
                    help="also generate this many incomparable pairs (dim >= 3)")

    return parser


# ---------------------------------------------------------------------------
# input resolution

def _load_instance_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("vectors"), dict):
        raise ValueError(f"{path}: instance file needs a top-level 'vectors' object")
    for section in ("pairs", "collections"):
        if not isinstance(doc.get(section, {}), dict):
            raise ValueError(f"{path}: instance file's {section!r} must be an object")
    return doc


def _resolve_vector(token: str, instances: dict | None) -> ProbVec:
    token = token.strip()
    if token.startswith("["):
        return canonicalize(json_numbers(json.loads(token), f"vector {token}"))
    if instances is None:
        raise ValueError(f"vector name {token!r} given but no --file to resolve it")
    try:
        raw = instances["vectors"][token]
    except KeyError:
        raise ValueError(f"unknown vector name {token!r} in instance file") from None
    return canonicalize(json_numbers(raw, f"vector {token!r}"))


def _listed_names(instances: dict | None, option: str, name: str) -> list[str]:
    """The vector names an instance file lists under ``--pair`` or ``--collection`` ``name``."""
    if instances is None:
        raise ValueError(f"--{option} requires --file")
    try:
        names = instances.get(option + "s", {})[name]
    except KeyError:
        raise ValueError(f"unknown {option} {name!r} in instance file") from None
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise ValueError(f"{option} {name!r} must be an array of vector names")
    return names


def _resolve_inputs(args, want: int | None = 2) -> list[ProbVec]:
    """Vectors from positionals, --pair or --collection (plan only)."""
    instances = _load_instance_file(args.file) if getattr(args, "file", None) else None
    names: list[str] = list(args.vectors or [])
    for option in ("pair", "collection"):
        name = getattr(args, option, None)
        if name:
            names = _listed_names(instances, option, name)
            break
    if want is not None and len(names) != want:
        raise ValueError(f"expected {want} vectors, got {len(names)}")
    if want is None and len(names) < 2:
        raise ValueError("expected at least 2 vectors")
    return [_resolve_vector(name, instances) for name in names]


# ---------------------------------------------------------------------------
# subcommands: each returns a _Result; library functions are looked up at
# call time, so a wrapper installed on the module (or in PLAN_BUILDERS) sees them

def _cmd_compare(args):
    order = compare(*_resolve_inputs(args)).value
    return _Result({"order": order}, [["order"], [order]])


def _bound_result(name: str, bound: ProbVec) -> _Result:
    entries = bound.as_array().tolist()
    cumulative = [0.0, *np.cumsum(bound.as_array()).tolist()]
    return _Result({name: entries, "cumulative_sums": cumulative}, [entries])


def _cmd_meet(args):
    return _bound_result("meet", meet(*_resolve_inputs(args)))


def _cmd_join(args):
    return _bound_result("join", join(*_resolve_inputs(args)))


def _cmd_pmax(args):
    value = p_max(*_resolve_inputs(args))
    return _Result({"p_max": value}, [["p_max"], [value]])


def _cmd_ladder(args):
    ladder = ratio_ladder(*_resolve_inputs(args))
    payload = {
        "k": ladder.k,
        "ratios": list(ladder.ratios),
        "indices": list(ladder.indices),
        "l0": ladder.l0,
        "r_vector": r_vector(ladder).tolist(),
    }
    rows = [["j", "ratio", "index"]]
    rows += [[j + 1, r, l] for j, (r, l) in enumerate(zip(ladder.ratios, ladder.indices))]
    return _Result(payload, rows)


def _planner(protocol: str, also: tuple[str, ...] = ()):
    """The vidal/greedy/thrifty planner named ``protocol``; the error lists ``also`` too."""
    if protocol not in PLAN_BUILDERS:
        known = sorted(PLAN_BUILDERS) + list(also)
        raise ValueError(f"unknown protocol {protocol!r}; choose from {known}")
    return PLAN_BUILDERS[protocol]


def _cmd_plan(args):
    if not args.vectors:
        raise ValueError("plan needs a protocol, then vectors or --pair / --collection")
    protocol, *args.vectors = args.vectors
    if protocol not in _MULTI_PROTOCOLS:
        plan = _planner(protocol, also=_MULTI_PROTOCOLS)(*_resolve_inputs(args))
        doc = plan_to_dict(plan)
    else:
        vecs = _resolve_inputs(args, want=None)
        if protocol == "multi-target":
            plan = plan_multi_target(vecs[0], vecs[1:])
        else:
            plan = plan_multi_source(vecs[:-1], vecs[-1])
        doc = multi_plan_to_dict(plan)
    rows = [["step", "kind", "from", "to", "success_prob"]]
    rows += [[i, step.kind.value, step.from_name, step.to_name,
              "" if step.success_prob is None else step.success_prob]
             for i, step in enumerate(plan.steps)]
    return _Result(doc, rows, plan=plan)


def _cmd_sweep(args):
    if args.dim < 2:
        raise ValueError("sweep needs --dim >= 2")
    properties = None
    if args.properties:
        properties = [name.strip() for name in args.properties.split(",") if name.strip()]
    report = run_sweep(args.dim, args.count, seed=getattr(args, "seed", None),
                       properties=properties)
    payload = report.to_dict()
    rows = [["property", "applicable", "passed", "failed", "worst_slack"]]
    rows += [[p["name"], p["applicable"], p["passed"], p["failed"], p["worst_slack"]]
             for p in payload["properties"]]
    return _Result(payload, rows, 0 if report.total_failures == 0 else 1)


def _cmd_simulate(args):
    if args.plan:
        with open(args.plan, "r", encoding="utf-8") as fh:
            plan = plan_from_dict(json.load(fh))  # run_plan validates it
    else:
        if not args.plan_args:
            raise ValueError("simulate needs PROTOCOL SOURCE TARGET or --plan FILE")
        protocol, *args.vectors = args.plan_args
        build = _planner(protocol)
        plan = build(*_resolve_inputs(args))
    stats = run_plan(plan, shots=args.shots, seed=getattr(args, "seed", None))
    rate = stats.empirical_rate
    payload = stats.to_dict()
    payload["half_width"] = 4.0 * math.sqrt(max(rate * (1.0 - rate), 0.0) / stats.shots)
    payload["plan_success_prob"] = plan.success_prob
    keys = ["shots", "successes", "empirical_rate", "half_width", "plan_success_prob"]
    return _Result(payload, [keys, [payload[k] for k in keys]])


def _cmd_random(args):
    if args.dim < 1:
        raise ValueError("random needs --dim >= 1")
    seed = getattr(args, "seed", None)
    rng = np.random.default_rng(seed)
    vectors = {f"v{i}": v.as_array().tolist()
               for i, v in enumerate(random_prob_vecs(args.dim, args.count, rng))}
    payload = {"dim": args.dim, "seed": seed, "vectors": vectors}
    if args.pairs > 0:
        pairs = {}
        for i, (p, q) in enumerate(random_incomparable_pairs(args.dim, args.pairs, rng)):
            vectors[f"p{i}a"] = p.as_array().tolist()
            vectors[f"p{i}b"] = q.as_array().tolist()
            pairs[f"pair{i}"] = [f"p{i}a", f"p{i}b"]
        payload["pairs"] = pairs
    rows = [["name"] + [f"x{i}" for i in range(args.dim)]]
    rows += [[name] + entries for name, entries in vectors.items()]
    return _Result(payload, rows)


# ---------------------------------------------------------------------------
# JSON output

_encode_line = json.JSONEncoder(check_circular=False).encode  # the C encoder, on one line
_encode_str = json.encoder.encode_basestring_ascii
_NUMBER_TYPES = frozenset((int, float))


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, for a tree of dicts with str
    keys, lists, tuples and JSON scalars.

    With ``indent`` set, ``json.dumps`` formats every number in Python.  Here
    each array of plain ints and floats is written by the C encoder on one
    line and split at its ``", "`` separators, which no number's text holds
    (a string's may, so arrays holding anything else are walked entry by
    entry).
    """
    chunks: list[str] = []
    write = chunks.append

    def walk(value, pad: str) -> None:  # pad: a newline and the indent of value's line
        if isinstance(value, str):
            write(_encode_str(value))
            return
        if not isinstance(value, (list, tuple, dict)):
            # the C encoder writes ints and finite floats as their repr; it spells NaN
            # and the infinities itself, and raises TypeError on what JSON cannot hold
            plain = type(value) is int or type(value) is float and math.isfinite(value)
            write(repr(value) if plain else _encode_line(value))
            return
        if not value:
            write("{}" if isinstance(value, dict) else "[]")
            return
        inner = pad + "  "
        if isinstance(value, dict):
            separator = "{" + inner
            for key, item in value.items():  # a key that is not a str raises TypeError
                write(separator + _encode_str(key) + ": ")
                walk(item, inner)
                separator = "," + inner
            write(pad + "}")
            return
        if set(map(type, value)) <= _NUMBER_TYPES:
            line = _encode_line(value)
            write("[" + inner + line[1:-1].replace(", ", "," + inner) + pad + "]")
            return
        separator = "[" + inner
        for item in value:
            write(separator)
            walk(item, inner)
            separator = "," + inner
        write(pad + "]")

    walk(doc, "\n")
    return "".join(chunks)


# ---------------------------------------------------------------------------
# entry point

_PARSER = build_parser()  # once per process: building it costs more than most requests


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    previous = config.get_epsilon()
    try:
        return _run(args)
    finally:
        config.set_epsilon(previous)  # --epsilon applies to this call only


def _run(args) -> int:
    out_format = "dot" if getattr(args, "dot", False) else getattr(args, "format", "json")
    if out_format == "dot" and args.command != "plan":
        print("error: dot output is only available for the plan subcommand", file=sys.stderr)
        return 2
    try:
        if hasattr(args, "epsilon"):
            config.set_epsilon(args.epsilon)
        result = args.run(args)
    except MajlatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if out_format == "json":
        text = _json_text(result.payload) + "\n"
    elif out_format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(result.rows)
        text = buf.getvalue()
    else:
        text = plan_to_dot(result.plan)

    output = getattr(args, "output", None)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return result.code


if __name__ == "__main__":
    raise SystemExit(main())
