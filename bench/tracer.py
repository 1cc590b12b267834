"""Span tracer for majlat's public functions, installed from outside the package.

Each listed function is replaced, at every majlat module namespace that binds
it (module attributes and values of module-level dicts such as
``cli.PLAN_BUILDERS``), by one wrapper that records a span: function id,
start and end in ns, parent span and op id.  Spans stay in memory until the
run ends.  A span's self time is its duration minus the durations of its
direct child spans; time spent in unlisted helpers counts as the caller's
self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# layer (majlat module) -> public functions timed in the traced run
LAYERS = {
    "schmidt": ["canonicalize", "compare", "effective_rank", "pad_pair",
                "partial_sum_margins", "majorizes_margin"],
    "lattice": ["meet", "join", "meet_many", "join_many", "least_concave_majorant"],
    "ladder": ["p_max", "ratio_ladder", "r_vector", "intermediate_state"],
    "protocols": ["plan_vidal", "plan_greedy", "plan_thrifty", "plan_multi_target",
                  "plan_multi_source", "kraus_diagonals", "apply_two_outcome",
                  "validate_plan", "plan_to_dict", "plan_from_dict"],
    "oracle": ["embed", "branch_probabilities", "schmidt_spectrum", "run_plan"],
    "sampling": ["random_prob_vecs", "random_incomparable_pairs"],
    "sweep": ["run_sweep"],
    "cli": ["main"],
}

SETUP_OP = -1  # op id of spans recorded while the inputs are generated
_MISSING = object()


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for layer, functions in LAYERS.items():
        for fn in functions:
            names += [f"{layer}.{fn}.calls_per_op", f"{layer}.{fn}.self_us_per_op",
                      f"{layer}.{fn}.errors"]
    names += [f"{layer}.self_share" for layer in LAYERS]
    names.append("trace_overhead_frac")
    return names


def _majlat_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "majlat" or name.startswith("majlat."))]


class Tracer:
    """Wraps the listed functions while installed; records spans in memory."""

    def __init__(self):
        self.functions = []  # (layer, name, original function); index = function id
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"majlat.{layer}")
            self.functions += [(layer, name, getattr(module, name)) for name in names]
        self.spans: list = []
        self.errors = [0] * len(self.functions)
        self.op = SETUP_OP
        self._stack = [-1]
        self._wrappers = {id(fn): self._wrap(fid, fn)
                          for fid, (_, _, fn) in enumerate(self.functions)}
        self._originals = {id(fn): fn for _, _, fn in self.functions}
        self._patched: list = []  # (container dict, key, original)

    def _wrap(self, fid, fn):
        spans, stack, errors, clock, tracer = (
            self.spans, self._stack, self.errors, time.perf_counter_ns, self)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[fid] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent, tracer.op)

        return traced

    def _bindings(self, table):
        """(container, key, value) for every binding whose value is in ``table``."""
        def listed(value):
            return table.get(id(value), _MISSING) is value

        found = []
        for module in _majlat_modules():
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if listed(value):
                    found.append((namespace, key, value))
                elif isinstance(value, dict):
                    found += [(value, k, v) for k, v in list(value.items()) if listed(v)]
        return found

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._patched = self._bindings(self._originals)
        for container, key, original in self._patched:
            container[key] = self._wrappers[id(original)]

    def uninstall(self) -> None:
        for container, key, original in self._patched:
            container[key] = original
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def wrapped_bindings(self) -> list[str]:
        """Names of bindings that still hold a wrapper (empty once uninstalled)."""
        wrappers = {id(w): w for w in self._wrappers.values()}
        return [key for _, key, _ in self._bindings(wrappers)]

    def span_array(self) -> np.ndarray:
        """Spans as an (n, 5) int64 array: fid, start, end, parent, op."""
        if not self.spans:
            return np.zeros((0, 5), dtype=np.int64)
        return np.asarray(self.spans, dtype=np.int64)

    def save(self, path) -> None:
        names = np.array([f"{layer}.{name}" for layer, name, _ in self.functions])
        np.savez_compressed(path, spans=self.span_array(), names=names)


def self_times(spans: np.ndarray) -> np.ndarray:
    """Self time of each span: duration minus the durations of its direct children."""
    dur = spans[:, 2] - spans[:, 1]
    parent = spans[:, 3]
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(spans))
    return dur - covered.astype(np.int64)


def layer_metrics(tracer: Tracer, n_ops: int, ops_wall_ns: int, setup_wall_ns: int) -> dict:
    """Per-layer metrics of a traced run.

    Spans of the timed ops are divided by ``n_ops`` and ``ops_wall_ns``.  The
    set-up (input generation, where ``sampling`` runs) counts as one op of its
    own: its spans are divided by 1 and by ``setup_wall_ns``.
    """
    spans = tracer.span_array()
    n_fn = len(tracer.functions)
    in_setup = spans[:, 4] == SETUP_OP
    selfs = self_times(spans)

    def per_fn(mask, weights=None):
        return np.bincount(spans[mask, 0], weights=None if weights is None else weights[mask],
                           minlength=n_fn)

    calls = per_fn(~in_setup) / n_ops + per_fn(in_setup)
    self_op = per_fn(~in_setup, selfs)
    self_setup = per_fn(in_setup, selfs)
    self_us = self_op / n_ops / 1e3 + self_setup / 1e3
    out = {}
    share: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for fid, (layer, name, _) in enumerate(tracer.functions):
        out[f"{layer}.{name}.calls_per_op"] = float(calls[fid])
        out[f"{layer}.{name}.self_us_per_op"] = float(self_us[fid])
        out[f"{layer}.{name}.errors"] = int(tracer.errors[fid])
        share[layer] += self_op[fid] / ops_wall_ns + self_setup[fid] / setup_wall_ns
    out.update({f"{layer}.self_share": float(v) for layer, v in share.items()})
    return out


def function_shares(tracer: Tracer, ops_wall_ns: int) -> dict:
    """Self time of each called function in the timed ops ÷ their wall time."""
    spans = tracer.span_array()
    in_ops = spans[:, 4] != SETUP_OP
    self_ns = np.bincount(spans[in_ops, 0], weights=self_times(spans)[in_ops],
                          minlength=len(tracer.functions))
    return {f"{layer}.{name}": float(self_ns[fid] / ops_wall_ns)
            for fid, (layer, name, _) in enumerate(tracer.functions) if self_ns[fid] > 0}
