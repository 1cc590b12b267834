"""The three benchmark workloads: seeded inputs, the timed op, post-run checks.

Every workload builds a cyclic stream of op inputs from the seed, using
``majlat.sampling`` for the random spectra; the library only ever receives
the generated inputs.  Ops call majlat through module attributes
(``M.meet``, ``majlat.cli.main``) so that the tracer's wrappers see them.

``check(item, output)`` runs after the timed phase and returns ``"ok"``,
``"fail"`` or ``"known"`` (failed, and the failure is a known defect of the
program: a non-finite input that the CLI accepts).  The checks recompute
what they need with plain numpy; they never call majlat.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import majlat as M

EQ_TOL = 1e-12        # equalities between probabilities
MARGIN_FLOOR = -1e-9  # partial-sum margins of a majorization claim
ORACLE_TOL = 1e-9     # dense oracle against the analytic values
EPS = 1e-9            # the library's default epsilon


# ---------------------------------------------------------------------------
# independent reference arithmetic used by the checks

def _pad(a, b):
    d = max(len(a), len(b))
    x = np.zeros(d)
    y = np.zeros(d)
    x[: len(a)] = a
    y[: len(b)] = b
    return x, y


def majorized_margin(a, b) -> float:
    """Most negative partial-sum margin of "a is majorized by b" (0 for d = 1)."""
    x, y = _pad(a, b)
    m = np.cumsum(y)[:-1] - np.cumsum(x)[:-1]
    return float(m.min()) if m.size else 0.0


def vidal_pmax(source, target) -> float:
    """min over l of E_l(source) / E_l(target), E_l the suffix sums (Vidal 1999)."""
    s, t = _pad(source, target)
    es = np.cumsum(s[::-1])[::-1]
    et = np.cumsum(t[::-1])[::-1]
    ok = et > EPS
    return min(float(np.min(es[ok] / et[ok])), 1.0)


def order_of(a, b) -> str:
    x, y = _pad(a, b)
    m = np.cumsum(y)[:-1] - np.cumsum(x)[:-1]
    below, above = bool(np.all(m >= -EPS)), bool(np.all(m <= EPS))
    if below and above:
        return "equivalent"
    if below:
        return "precedes"
    if above:
        return "succeeds"
    return "incomparable"


def _full_rank_vecs(dim: int, count: int, rng) -> list:
    """``count`` sorted flat-Dirichlet spectra, each of full effective rank.

    At d = 512 about one draw in 4000 has an entry below epsilon; its
    effective rank is d - 1, so conversions into full-rank states are
    rightly refused (RankDeficit).  The workloads are defined on full-rank
    states, so such draws are replaced by fresh ones from the same generator.
    """
    vecs = []
    while len(vecs) < count:
        vecs += [v for v in M.sampling.random_prob_vecs(dim, count - len(vecs), rng)
                 if v.entries[-1] > EPS]
    return vecs


def _prob_step(plan):
    return next((s for s in plan.steps if s.kind is M.StepKind.PROBABILISTIC), None)


# ---------------------------------------------------------------------------
# ensemble: one full pair analysis per op, d = 3..8

class Ensemble:
    """op = compare, meet, join, p_max, ratio_ladder, the three plans and
    validate_plan on each, for one flat-Dirichlet pair at d in 3..8."""

    name = "ensemble"
    DIMS = tuple(range(3, 9))
    PAIRS_PER_DIM = 512
    period = len(DIMS)

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        per_dim = []
        for d in self.DIMS:
            vecs = M.sampling.random_prob_vecs(d, 2 * self.PAIRS_PER_DIM, rng)
            per_dim.append(list(zip(vecs[0::2], vecs[1::2])))
        # fixed interleaved order: d = 3, 4, ..., 8, 3, 4, ...
        self.items = [per_dim[i % len(self.DIMS)][i // len(self.DIMS)]
                      for i in range(len(self.DIMS) * self.PAIRS_PER_DIM)]

    def run(self, item):
        p, q = item
        order = M.compare(p, q)
        m = M.meet(p, q)
        j = M.join(p, q)
        pm = M.p_max(p, q)
        M.ratio_ladder(p, q)
        plans = (M.plan_vidal(p, q), M.plan_greedy(p, q), M.plan_thrifty(p, q))
        for plan in plans:
            M.validate_plan(plan)
        summary = []
        for plan in plans:
            step = _prob_step(plan)
            summary.append((
                plan.success_prob,
                None if plan.residual is None else plan.residual.entries,
                None if step is None else step.from_state.entries,
            ))
        return order.value, pm, m.entries, j.entries, tuple(summary)

    def check(self, item, out) -> str:
        p, q = (v.entries for v in item)
        order, pm, m, j, plans = out
        ok = all(abs(sp - pm) <= EQ_TOL for sp, _, _ in plans) and min(
            majorized_margin(m, p), majorized_margin(m, q),
            majorized_margin(p, j), majorized_margin(q, j)) >= MARGIN_FLOOR
        if ok and order == "incomparable":
            (_, g_res, g_mid), (_, t_res, t_mid) = plans[1], plans[2]
            ok = (abs(pm - vidal_pmax(p, m)) <= EQ_TOL
                  and None not in (g_res, g_mid, t_res, t_mid)
                  and min(majorized_margin(t_res, g_res),
                          majorized_margin(t_mid, g_mid)) >= MARGIN_FLOOR)
        return "ok" if ok else "fail"

    def summary(self, items, outs) -> dict:
        n = sum(out[0] == "incomparable" for out in outs)
        return {"incomparable_share": n / max(len(outs), 1)}


# ---------------------------------------------------------------------------
# wide: n-ary lattice work on 4..8 spectra at d = 64 and 512

class Wide:
    """op = meet_many, join_many, plan_multi_target, plan_multi_source and
    plan_thrifty/plan_greedy on the first two members of one collection; a
    subsample also checks the thrifty measurement against the dense oracle."""

    name = "wide"
    period = 64
    CYCLES = 16  # 1024 distinct collections: p99 over per-op medians needs 1000 ops

    @staticmethod
    def shape(pos: int) -> tuple[int, int, bool]:
        """(d, k, oracle) at a position of the fixed interleaved schedule.

        One op in four is at d = 512.  The oracle runs on one d = 512 op and
        four d = 64 ops per 64: a d = 512 oracle check (two SVDs) costs about
        as much as fifteen ordinary ops, so lattice + ladder + protocols keep
        most of the self time, and the d = 512 oracle ops (1.6% of ops) set
        the p99 latency.
        """
        pos %= Wide.period
        d = 512 if pos % 4 == 3 else 64
        k = 4 + pos % 5
        oracle = pos == Wide.period - 1 or pos % 16 == 6
        return d, k, oracle

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        shapes = [self.shape(i) for i in range(self.CYCLES * self.period)]
        pools = {}
        for d in sorted({s[0] for s in shapes}):
            mine = [s for s in shapes if s[0] == d]
            pairs = M.sampling.random_incomparable_pairs(d, len(mine), rng)
            while any(b.entries[-1] <= EPS or a.entries[-1] <= EPS for a, b in pairs):
                pairs = M.sampling.random_incomparable_pairs(d, len(mine), rng)
            rest = _full_rank_vecs(d, sum(k - 2 for _, k, _ in mine), rng)
            pools[d] = (pairs, rest)
        used = {d: [0, 0] for d in pools}
        self.items = []
        for d, k, oracle in shapes:
            pairs, rest = pools[d]
            i, r = used[d]
            members = [*pairs[i], *rest[r: r + k - 2]]
            used[d] = [i + 1, r + k - 2]
            self.items.append((tuple(members), oracle))

    def run(self, item):
        vs, oracle = item
        M.meet_many(vs)
        M.join_many(vs)
        mt = M.plan_multi_target(vs[0], vs[1:])
        ms = M.plan_multi_source(vs[:-1], vs[-1])
        thrifty = M.plan_thrifty(vs[0], vs[1])
        M.plan_greedy(vs[0], vs[1])
        dense = None
        if oracle:
            step = _prob_step(thrifty)
            state = M.embed(step.from_state)
            p_m, p_n = M.branch_probabilities(state, step.kraus)
            amp = state.amplitudes
            m = np.asarray(step.kraus.m_diag)[:, None]
            n = np.asarray(step.kraus.n_diag)[:, None]
            succ = M.schmidt_spectrum(M.BipartiteState(m * amp / math.sqrt(p_m)))
            fail = M.schmidt_spectrum(M.BipartiteState(n * amp / math.sqrt(p_n)))
            dense = (p_m, p_n, succ.entries, fail.entries,
                     step.success_prob, step.to_state.entries, step.failure_state.entries)
        return mt.success_prob, ms.success_prob, dense

    def check(self, item, out) -> str:
        (vs, _), (mt, ms, dense) = item, out
        e = [v.entries for v in vs]
        ok = abs(mt - min(vidal_pmax(e[0], t) for t in e[1:])) <= EQ_TOL
        ok &= abs(ms - min(vidal_pmax(s, e[-1]) for s in e[:-1])) <= EQ_TOL
        if dense is not None:
            p_m, p_n, succ, fail, sp, to_state, fail_state = dense
            devs = [abs(p_m - sp), abs(p_m + p_n - 1.0),
                    np.max(np.abs(np.subtract(succ, to_state))),
                    np.max(np.abs(np.subtract(fail, fail_state)))]
            ok &= max(devs) <= ORACLE_TOL
        return "ok" if ok else "fail"

    def summary(self, items, outs) -> dict:
        n = max(len(items), 1)
        return {
            "d512_share": sum(len(vs[0].entries) == 512 for vs, _ in items) / n,
            "oracle_share": sum(out[2] is not None for out in outs) / n,
            "incomparable_share": 1.0,  # the planned member pair is drawn incomparable
        }


# ---------------------------------------------------------------------------
# cli: in-process requests to majlat.cli.main

def _vec(entries) -> str:
    return json.dumps([float(x) for x in entries])


class Cli:
    """op = one in-process ``majlat.cli.main(argv)`` request, stdout captured,
    from a fixed seeded mix of plan/simulate, sweep, pmax/compare and
    rejected requests."""

    name = "cli"
    period = 16
    CYCLES = 64  # 1024 distinct requests: p99 over per-op medians needs 1000 ops
    SHOTS = 15_000
    SWEEP_COUNT = 6
    # p_max strata of the planned pairs: the cost of a simulated shot grows
    # with the failure rate, so each seed gets the same spread of p_max, and
    # p stays away from 0 and 1, where the 4-sigma interval has zero width
    P_STRATA = np.linspace(0.05, 0.95, 9)
    REJECTS = ("rank", "unnormalized", "nonfinite-compare", "nonfinite-pmax")
    PROTOCOLS = ("vidal", "greedy", "thrifty")

    def __init__(self, seed: int, workdir: str):
        import majlat.cli  # noqa: F401  (part of the CLI's set-up cost)

        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.n_plans = self.n_rejects = 0
        self.items = []
        for c in range(self.CYCLES):
            small = [3 + (7 * c + j) % 6 for j in range(7)]  # d = 3..8, shifted per cycle
            tail = (self._sweep(c) if c % 2 == 0 else self._short("pmax", small[4]))
            self.items += (
                self._plan_pair(small[0])
                + [self._short("pmax", small[1]), self._short("compare", small[2])]
                + self._plan_pair(64)
                + [self._reject(), self._short("pmax", 64)]
                + self._plan_pair(small[3])
                + [self._short("compare", 64), tail]
                + self._plan_pair(small[5])
                + [self._reject(), self._short("compare", small[6])]
            )

    def _plan_pair(self, d: int) -> list:
        i = self.n_plans
        self.n_plans += 1
        stratum = (i + i // 4) % (len(self.P_STRATA) - 1)
        lo, hi = self.P_STRATA[stratum], self.P_STRATA[stratum + 1]
        pair = None
        while pair is None:
            pairs = M.sampling.random_incomparable_pairs(d, 16, self.rng)
            pair = next(((p, q) for p, q in pairs
                         if lo <= vidal_pmax(p.entries, q.entries) < hi), None)
        p, q = pair
        path = os.path.join(self.workdir, f"plan{i}.json")
        return [
            ("plan", ["plan", self.PROTOCOLS[i % 3], _vec(p.entries), _vec(q.entries),
                      "--output", path], (p.entries, q.entries, path)),
            ("simulate", ["simulate", "--plan", path, "--shots", str(self.SHOTS),
                          "--seed", str(int(self.rng.integers(2**31)))], None),
        ]

    def _short(self, kind: str, d: int):
        p, q = M.sampling.random_prob_vecs(d, 2, self.rng)
        return (kind, [kind, _vec(p.entries), _vec(q.entries)], (p.entries, q.entries))

    def _sweep(self, c: int):
        return ("sweep", ["sweep", "--dim", str(3 + c % 4), "--count", str(self.SWEEP_COUNT),
                          "--seed", str(int(self.rng.integers(2**31)))], None)

    def _reject(self):
        kind = self.REJECTS[self.n_rejects % len(self.REJECTS)]
        self.n_rejects += 1
        d = 3 + self.n_rejects % 6
        p, q = M.sampling.random_prob_vecs(d, 2, self.rng)
        if kind == "rank":  # source with a zero Schmidt coefficient, full-rank target
            short = M.sampling.random_prob_vecs(d - 1, 1, self.rng)[0]
            argv = ["pmax", _vec(short.entries + (0.0,)), _vec(q.entries)]
        elif kind == "unnormalized":
            argv = ["compare", _vec([1.1 * x for x in p.entries]), _vec(q.entries)]
        elif kind == "nonfinite-compare":
            argv = ["compare", _vec((math.nan,) + p.entries[1:]), _vec(q.entries)]
        else:
            argv = ["pmax", _vec(p.entries), _vec((math.nan,) + q.entries[1:])]
        return ("reject-" + kind, argv, None)

    def run(self, item):
        _, argv, _ = item
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = M.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def check(self, item, out) -> str:
        kind, argv, ref = item
        code, stdout, stderr = out
        if kind.startswith("reject-nonfinite"):
            return "ok" if code != 0 else "known"
        if kind.startswith("reject-"):
            return "ok" if code == 1 and not stdout and stderr.startswith("error:") else "fail"
        if code != 0:
            return "fail"
        try:
            if kind == "plan":
                p, q, path = ref
                with open(path, encoding="utf-8") as fh:
                    doc = json.load(fh)
                ok = abs(doc["success_prob"] - vidal_pmax(p, q)) <= EQ_TOL and not stdout
            elif kind == "simulate":
                doc = json.loads(stdout)
                ok = (doc["shots"] == self.SHOTS and abs(doc["empirical_rate"]
                      - doc["plan_success_prob"]) <= doc["half_width"])
            elif kind == "sweep":
                ok = json.loads(stdout)["total_failures"] == 0
            elif kind == "pmax":
                ok = abs(json.loads(stdout)["p_max"] - vidal_pmax(*ref)) <= EQ_TOL
            else:
                ok = json.loads(stdout)["order"] == order_of(*ref)
        except (ValueError, KeyError, TypeError, OSError):
            ok = False
        return "ok" if ok else "fail"

    def summary(self, items, outs) -> dict:
        n = max(len(items), 1)
        return {
            "nonfinite_share": sum(i[0].startswith("reject-nonfinite") for i in items) / n,
            "rejected_share": sum(i[0].startswith("reject-") for i in items) / n,
            "simulate_share": sum(i[0] == "simulate" for i in items) / n,
            "shots_per_simulate": self.SHOTS,
        }


WORKLOADS = {w.name: w for w in (Ensemble, Wide, Cli)}
