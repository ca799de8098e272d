"""The benchmark's workloads: seeded op lists, each op with its own check.

An op is one closed-loop call into riskquad.  ``run`` is the timed part;
``finish`` (untimed) collects what the op emitted and ``check`` (untimed,
after the timed phase) compares it with an independent oracle and returns
the reason it failed, or None.  Ops are grouped in rounds, one op per op
class, so every prefix of whole rounds holds the same mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import riskquad.cli
import riskquad.constructions as constructions
import riskquad.measures as measures
from riskquad.core import DiscreteRv

import inputs
import oracle


@dataclass
class Op:
    cls: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    finish: Callable[[object], object] = lambda raw: raw


@dataclass
class Plan:
    rounds: list[list[Op]]
    warmups: list[Op]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, str], Plan]
    # highest percentile with at least ten ops beyond it at the usual number
    # of passing ops in a run
    tail_pct: float
    # whole rounds the traced run replays, so its counts repeat exactly
    trace_rounds: int
    # seconds of one round at the reference host speed (see hostspeed.py)
    round_s: float

    def rounds_for(self, seconds: float) -> int:
        """Whole rounds in an untraced run of about ``seconds`` at the
        reference speed.  The count depends on nothing else, so a run of a
        seed attempts, and fails, the same ops however fast the host is."""
        return max(1, round(seconds / self.round_s))


def _rel(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# -- calculus -------------------------------------------------------------------------------

# the parameters of ``riskquad check``; eps and x are offsets, so they follow the scale
CATALOG = {
    "standard_mean": {"lam": 1.0},
    "quantile": {"alpha": 0.7},
    "cvar2": {"alpha": 0.5},
    "qsa": {"alpha": 0.5},
    "qsau": {"eps": 0.25},
    "expectile_mse": {"q": 0.75},
    "expectile_pl": {"K": 0.5},
    "mean_pl": {},
    "biased_mean": {"x": 0.5},
}


def _catalog_params(family: str, scale: float) -> dict:
    return {k: (v * scale if k in ("eps", "x") else v) for k, v in CATALOG[family].items()}


def _calc_op(family: str, params: dict, q, rv: inputs.RvSpec) -> Op:
    x = DiscreteRv(rv.values, rv.probs)

    def run():
        return (
            q.risk(x),
            q.deviation(x),
            q.regret(x),
            q.error(x),
            q.statistic(x),
            constructions.project_error(q.error_fn, x),
            constructions.regret_to_risk(q.regret_fn, x),
        )

    def check(out) -> Optional[str]:
        r, d, v, e, s, (d1, s1), (r2, s2) = out
        nums = [r, d, v, e, s.lo, s.hi, d1, s1.lo, s1.hi, r2, s2.lo, s2.hi]
        if not all(math.isfinite(t) for t in nums):
            return "non-finite output"
        m = float(np.dot(rv.probs, rv.values))
        mag = oracle.magnitude(rv.values)
        id_tol, route_tol = oracle.ID_TOL * mag, oracle.ROUTE_TOL * mag
        if not _rel(r - d, m, id_tol):
            return f"R - D - EX = {r - d - m:.3e}"
        if not _rel(v - e, m, id_tol):
            return f"V - E - EX = {v - e - m:.3e}"
        if not (_rel(s1.lo, s2.lo, route_tol) and _rel(s1.hi, s2.hi, route_tol)):
            return f"statistic routes disagree: [{s1.lo!r}, {s1.hi!r}] vs [{s2.lo!r}, {s2.hi!r}]"
        if not _rel(r2 - m, d1, route_tol):
            return f"projection routes disagree by {r2 - m - d1:.3e}"
        if family in oracle.PWL_FAMILIES:
            best, arg = oracle.brute_min(oracle.PwlError(family, params), rv.values, rv.probs)
            if not _rel(d1, best, id_tol):
                return f"min E(X-C) = {d1!r}, brute force {best!r}"
            if not s1.lo - route_tol <= arg <= s1.hi + route_tol:
                return f"brute-force argmin {arg!r} outside [{s1.lo!r}, {s1.hi!r}]"
        return None

    return Op(f"calc.{family}", run, check)


def _build_calculus(seed: int, n_rounds: int, atoms: Callable[[np.random.Generator, str], int], grid_step: float) -> Plan:
    rng = np.random.default_rng(seed)
    quads = {}

    def quad(family, scale):
        params = _catalog_params(family, scale)
        key = (family, tuple(sorted(params.items())))
        if key not in quads:
            quads[key] = measures.make_catalog_quadrangle(measures.CatalogSpec(family, params))
        return params, quads[key]

    # a round is every family at every scale, so any run of whole rounds
    # holds the same mix of costs
    rounds = []
    for _ in range(n_rounds):
        ops = []
        for family in CATALOG:
            for scale in inputs.SCALES:
                rv = inputs.draw_rv(rng, atoms(rng, family), scale, grid_step)
                ops.append(_calc_op(family, *quad(family, scale), rv))
        rounds.append(ops)
    warm_rv = inputs.RvSpec(np.array([-1.0, 0.5, 2.0]), np.array([0.2, 0.5, 0.3]))
    warmups = [_calc_op(f, *quad(f, 1.0), warm_rv) for f in CATALOG]
    return Plan(rounds, warmups)


def build_calculus_small(seed: int, workdir: str) -> Plan:
    return _build_calculus(seed, 120, lambda rng, family: int(rng.integers(2, 9)), grid_step=0.5)


# calculus_large, lp and descent run a few rounds of long ops, so one draw's
# cost moves a whole run; their inputs are fixed streams that every seed
# shares (see build_descent), chosen so that the workload's known defects
# (known_failures.json) show in every run, and a run's ``failed`` count is
# the same for every seed.  Seeded, the argmin_interval_pwl defect failed 4
# calculus_large ops of 540 over seeds 1-10, in seeds 4, 8 and 9; stream 4 is
# the first of them.
LARGE_STREAM = 4


def build_calculus_large(seed: int, workdir: str) -> Plan:
    # qsa scans O(n^2) breakpoints, so it stays at 100 atoms.  The scans cost
    # O(n^2 log n) in distinct atoms, so the grid is fine enough that ties
    # (about 7% of atoms) exercise the merge without changing n much
    return _build_calculus(LARGE_STREAM, 4, lambda rng, family: 100 if family == "qsa" else 1000, grid_step=1.0 / 4096)


# -- CLI ops ----------------------------------------------------------------------------------


def _cli_op(cls: str, argv: list[str], workdir: str, check: Callable[[dict], Optional[str]]) -> Op:
    """One in-process ``riskquad.cli.main`` call writing JSON to a scratch file."""
    out_path = os.path.join(workdir, "out.json")
    full = argv + ["--format", "json", "--output", out_path]

    def run():
        with contextlib.redirect_stderr(io.StringIO()) as err:
            rc = riskquad.cli.main(full)
        return rc, err.getvalue()

    def finish(raw):
        rc, err = raw
        payload = None
        if os.path.exists(out_path):
            with open(out_path) as fh:
                payload = json.load(fh)
            os.remove(out_path)
        return rc, payload, err

    def checked(value) -> Optional[str]:
        rc, payload, err = value
        if rc != 0:
            last = [ln for ln in err.splitlines() if not ln.startswith("# read")]
            return f"exit {rc}" + (f": {last[-1]}" if last else "")
        if payload is None:
            return "no output written"
        return check(payload)

    return Op(cls, run, checked, finish)


def _flag_args(params: dict) -> list[str]:
    flags = {"alpha": "--alpha", "eps": "--eps", "K": "--K", "x": "--x", "q": "--q"}
    return [a for k, v in params.items() for a in (flags[k], repr(float(v)))]


def _regress_check(model: str, params: dict, x: np.ndarray, y: np.ndarray):
    tol = oracle.ID_TOL * oracle.magnitude(y)

    def objective(beta):
        return oracle.regression_error(model, params, y - beta[0] - x @ beta[1:])

    def check(out: dict) -> Optional[str]:
        if out.get("tracking") is not True:
            return "residual statistic does not contain 0"
        beta = np.array([out["intercept"]] + list(out["coefficients"]), dtype=float)
        f0 = objective(beta)
        if not _rel(f0, out["objective"], tol):
            return f"objective {out['objective']!r}, recomputed {f0!r}"
        # an exact LP optimum: no coordinate step may lower the error
        for j in range(beta.size):
            for sign in (1.0, -1.0):
                b = beta.copy()
                b[j] += sign * 1e-6 * (1.0 + abs(b[j]))
                if objective(b) < f0 - tol:
                    return f"coordinate {j} step lowers the objective"
        return None

    return check


def _weights_check(w: np.ndarray) -> Optional[str]:
    if np.any(w < -1e-9) or not _rel(float(w.sum()), 1.0, 1e-9):
        return f"weights off the simplex (sum {w.sum()!r})"
    return None


def _cvar_portfolio_check(s: np.ndarray, alpha: float):
    p = np.full(s.shape[0], 1.0 / s.shape[0])

    def risk(w):
        return oracle.cvar(-(s @ w), p, alpha)

    def check(out: dict) -> Optional[str]:
        w = np.asarray(out["weights"], dtype=float)
        bad = _weights_check(w)
        if bad:
            return bad
        tol = oracle.ID_TOL * oracle.magnitude(s)
        r0 = risk(w)
        if not _rel(r0, out["risk"], tol):
            return f"risk {out['risk']!r}, recomputed CVaR {r0!r}"
        # an exact LP optimum: no feasible pairwise transfer may lower the risk
        h = 1e-4
        for i in np.nonzero(w >= h)[0]:
            for j in range(w.size):
                if j != i:
                    w2 = w.copy()
                    w2[i] -= h
                    w2[j] += h
                    if risk(w2) < r0 - tol:
                        return f"moving weight {i}->{j} lowers the CVaR"
        return None

    return check


def _envelope_check(rv: inputs.RvSpec, alpha: float):
    def check(out: dict) -> Optional[str]:
        ref = oracle.cvar(rv.values, rv.probs, alpha)
        tol = oracle.ID_TOL * oracle.magnitude(rv.values)
        if not (_rel(out["support_value"], ref, tol) and _rel(out["primal_risk"], ref, tol)):
            return f"support {out['support_value']!r} / primal {out['primal_risk']!r}, CVaR {ref!r}"
        failed = [k for k, v in out["axioms"].items() if v != "pass"]
        return f"envelope axioms fail: {failed}" if failed else None

    return check


LP_MODELS = (
    ("quantile", {"alpha": 0.1}),
    ("quantile", {"alpha": 0.5}),
    ("quantile", {"alpha": 0.9}),
    ("svr", {"eps": 0.5}),
    ("mean_pl", {}),
    ("expectile_pl", {"K": 0.5}),
    ("biased_mean", {"x": 0.5}),
)
CVAR_ALPHA = 0.8


def _lp_round(rng, cvar_rng, workdir: str, tag: str, sizes: tuple[int, ...], scen_shape: tuple[int, int], env_atoms: int) -> list[Op]:
    ops = []
    for n in sizes:
        # a dataset per model: one shared by all seven made their times rise
        # and fall together, so a run's few rounds swung with one draw
        for m, (model, params) in enumerate(LP_MODELS):
            x, y = inputs.draw_dataset(rng, n)
            path = os.path.join(workdir, f"reg-{tag}-{n}-{m}.csv")
            inputs.write_dataset_csv(path, x, y)
            argv = ["regress", "--input", path, "--model", model] + _flag_args(params)
            ops.append(_cli_op(f"regress.{model}", argv, workdir, _regress_check(model, params, x, y)))
    s = inputs.draw_scenarios(cvar_rng, *scen_shape)
    path = os.path.join(workdir, f"scen-{tag}.csv")
    inputs.write_scenarios_csv(path, s)
    argv = ["portfolio", "--input", path, "--family", "quantile", "--alpha", repr(CVAR_ALPHA)]
    ops.append(_cli_op("portfolio.cvar", argv, workdir, _cvar_portfolio_check(s, CVAR_ALPHA)))
    # a fine grid: on the default one the 50 atoms merge to about 15, and the
    # envelope LP's time swung 47-406 ms with the draw's grid/continuous coin
    rv = inputs.draw_rv(rng, env_atoms, 1.0, grid_step=1.0 / 64)
    path = os.path.join(workdir, f"rv-{tag}.csv")
    inputs.write_rv_csv(path, rv)
    argv = ["envelope", "--input", path, "--family", "quantile", "--alpha", repr(CVAR_ALPHA)]
    ops.append(_cli_op("envelope.quantile", argv, workdir, _envelope_check(rv, CVAR_ALPHA)))
    return ops


# The CVaR portfolio LP fails its check now and then (known_failures.json):
# 3 of about 480 seeded 100x8 draws.  Its scenario matrices come from a
# stream of their own, whose third draw fails on the risk value (stream 90,
# the first of streams 0-95 to fail, does so on the weights' sum and only in
# its fourth draw); the regressions and the envelope draw from LP_STREAM.
# Over seeds, lp's ops_per_s spread 0.12 and its tail 0.13 (five seeds),
# against 0.06 and 0.03 over five runs of one seed.
LP_STREAM = 0
CVAR_STREAM = 95


def build_lp(seed: int, workdir: str) -> Plan:
    rng = np.random.default_rng(LP_STREAM)
    cvar_rng = np.random.default_rng(CVAR_STREAM)
    rounds = [_lp_round(rng, cvar_rng, workdir, str(r), (50, 100), (100, 8), 50) for r in range(8)]
    warm_rng = np.random.default_rng(LP_STREAM + 1)
    warmups = _lp_round(warm_rng, warm_rng, workdir, "warm", (12,), (12, 3), 6)
    return Plan(rounds, warmups)


# -- descent ------------------------------------------------------------------------------------

DRO_PHIS = ("kl", "tv")
FAMILY_PHIS = ("kl", "pearson", "tv")
# the CLI's default sweep grid, one tau per op: the many short ops give the run a
# stable median next to its few long solves
FAMILY_TAUS = tuple(np.geomspace(1e-6, 1e6, 13))


def _dro_check(annual: dict, key: str, daily: bool):
    def check(out: dict) -> Optional[str]:
        bad = _weights_check(np.asarray(out["weights"], dtype=float))
        if bad:
            return bad
        if not out["route_gap"] <= 1e-4:
            return f"route gap {out['route_gap']!r}"
        if not daily:
            annual[key] = out["value"]
        elif key in annual:
            # positive homogeneity: the daily problem is the annual one scaled
            va, vd = annual[key], out["value"] / inputs.DAILY
            if not _rel(vd, va, 1e-6 * max(abs(va), abs(vd))):
                return f"daily value / {inputs.DAILY:g} = {vd!r}, annual {va!r}"
        return None

    return check


def _family_check(rv: inputs.RvSpec, sweep: dict, phi: str, i: int):
    """The i-th tau of a sweep: the value lies in [E X, ess sup X] and does
    not decrease in tau.  The ops of a sweep may be checked in any order, so
    each neighbouring pair is compared when the second of the two is checked."""
    mean = float(np.dot(rv.probs, rv.values))
    top = float(np.max(rv.values))
    tol = oracle.ROUTE_TOL * oracle.magnitude(rv.values)

    def check(out: dict) -> Optional[str]:
        (row,) = out["sweep"]
        v = row["value"]
        if not mean - tol <= v <= top + tol:
            return f"value {v!r} at tau {row['tau']!r} outside [mean, ess sup] = [{mean!r}, {top!r}]"
        sweep[phi, i] = v
        below, above = sweep.get((phi, i - 1)), sweep.get((phi, i + 1))
        if below is not None and v < below - tol:
            return f"value {v!r} at tau {row['tau']!r} below {below!r} at the previous tau"
        if above is not None and above < v - tol:
            return f"value {v!r} at tau {row['tau']!r} above {above!r} at the next tau"
        return None

    return check


def _epi_check(out: dict) -> Optional[str]:
    return None  # exit 0 is the check: primal and dual agree to 1e-4


# The solve time of one DRO, epi or family-sweep instance swings 2-5x between
# seeded draws (kl DRO 4.3-12.6 s, epi 2.8-9.6 s, pearson sweep 0.85-1.9 s
# over six seeds), and a run holds one of each.  So descent's inputs are fixed
# draws that every seed shares: a run measures the solvers, not the luck of
# the draw.  Epi fails (exit 2) on about a third of the 12-atom draws;
# EPI_INSTANCE is the first of streams 0-7 on which it does, so the recorded
# defect stays in the mix.
DESCENT_INSTANCE = 0
EPI_INSTANCE = 1


def _descent_ops(workdir: str, tag: str, s: np.ndarray, fam_rv: inputs.RvSpec, extra: list[str], taus, sweeps: int) -> list[Op]:
    ops = []
    annual: dict = {}
    for label, mat in (("annual", s), ("daily", s * inputs.DAILY)):
        path = os.path.join(workdir, f"scen-{tag}-{label}.csv")
        inputs.write_scenarios_csv(path, mat)
        for phi in DRO_PHIS:
            argv = ["dro", "--input", path, "--phi", phi] + extra
            ops.append(_cli_op(f"dro.{phi}.{label}", argv, workdir, _dro_check(annual, phi, label == "daily")))
    rv_path = os.path.join(workdir, f"rv-{tag}.csv")
    inputs.write_rv_csv(rv_path, fam_rv)
    for _ in range(sweeps):
        sweep: dict = {}
        for phi in FAMILY_PHIS:
            for i, tau in enumerate(taus):
                argv = ["family", "--input", rv_path, "--phi", phi, "--taus", repr(float(tau))]
                ops.append(_cli_op(f"family.{phi}", argv, workdir, _family_check(fam_rv, sweep, phi, i)))
    return ops


def build_descent(seed: int, workdir: str) -> Plan:
    fixed = np.random.default_rng(DESCENT_INSTANCE)
    scenarios = inputs.draw_scenarios(fixed, 12, 3)
    # the sweeps run twice: the tail rests on the 11 per-tau ops of 110-230 ms
    # in a sweep, and one copy of them spread 0.22-0.27 over ten seeds
    ops = _descent_ops(workdir, "run", scenarios, inputs.draw_rv(fixed, 12, 1.0), [], FAMILY_TAUS, sweeps=2)
    epi_path = os.path.join(workdir, "epi.csv")
    inputs.write_rv_csv(epi_path, inputs.draw_rv(np.random.default_rng(EPI_INSTANCE), 12, 1.0))
    argv = ["epi", "--input", epi_path, "--alpha", "0.5", "--epsilons", "0.5"]
    ops.append(_cli_op("epi.12", argv, workdir, _epi_check))
    # the short per-tau ops set the median and tail.  Dealt out between the
    # five long solves, they sample the host's speed over the whole run, as
    # the calibration loop does, rather than in one stretch of a few seconds
    long_ops = [op for op in ops if not op.cls.startswith("family.")]
    short_ops = [op for op in ops if op.cls.startswith("family.")]
    ops = [op for g, long_op in enumerate(long_ops) for op in [long_op] + short_ops[g :: len(long_ops)]]
    # one tau per family on 3 atoms.  The kl DRO polish and epi cost seconds
    # whatever the flags, so they are warmed only through the shared paths:
    # the tv DRO fails at its first step, after ingest and set-up
    warm = _descent_ops(workdir, "warm", inputs.draw_scenarios(fixed, 3, 3), inputs.draw_rv(fixed, 3, 1.0), ["--max-iter", "1"], [1.0], sweeps=1)
    warmups = [op for op in warm if op.cls in ("dro.tv.annual", "family.kl", "family.pearson", "family.tv")]
    return Plan([ops], warmups)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("calculus_small", build_calculus_small, tail_pct=99.0, trace_rounds=20, round_s=0.35),
        # a round (27 ops) takes about 15 s, so two fill a run
        Workload("calculus_large", build_calculus_large, tail_pct=80.0, trace_rounds=1, round_s=15.0),
        # p84 (ten ops beyond, of 64) falls between the n = 100 quantile
        # regressions and the CVaR portfolio and spread 0.30-0.31 over ten
        # seeds of seeded inputs; p75 (16 beyond) lies among the quantile regressions
        Workload("lp", build_lp, tail_pct=75.0, trace_rounds=2, round_s=5.6),
        # p87.5: ten ops beyond, of 80 passing
        Workload("descent", build_descent, tail_pct=87.5, trace_rounds=1, round_s=30.0),
    )
}
