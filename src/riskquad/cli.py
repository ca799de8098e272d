"""Command-line front end: catalog evaluation, envelopes, divergence family
sweeps, regression, portfolio selection, DRO, epi-regularization, and the
invariant checker.

Reports print numbers at 12 significant digits; JSON output is stable-keyed
and round-trips bit-identically.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import DiscreteRv, InvalidDistribution, cvar_direct, ess_bounds, expectation
from .checks import run_quadrangle_checks
from .constructions import Quadrangle
from .divergence import (
    PHI_REGISTRY,
    StochasticDivergenceJ,
    family_eval_envelope,
    make_divergence,
    make_divergence_quadrangle,
)
from .dual import cvar_envelope, dual_axiom_check, envelope_sup, expectile_envelope, mean_abs_risk_envelope
from .measures import CATALOG_FAMILIES, CatalogSpec, _expectile_q_from_k, make_catalog_quadrangle
from .regression import Dataset, NAMED_MODELS, fit_linear, named_quadrangle, track_statistic
from .robust import DroProblem, EpiSpec, dro_solve, epi_risk_dual, epi_risk_primal, kernel_quadratic_regret, portfolio_optimize

__all__ = ["main", "run_command", "RunConfig", "ingest_rv_csv", "fmt12"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2


def fmt12(v: float) -> float:
    """Round-trip a float through 12 significant digits."""
    return float(f"{v:.12g}")


@dataclass
class RunConfig:
    command: str
    input_path: Optional[str] = None
    spec: Optional[dict] = None
    params: dict = field(default_factory=dict)
    max_iter: int = 4000
    seed: int = 0
    output_format: str = "table"
    output_path: Optional[str] = None
    taus: Optional[list[float]] = None
    epsilons: Optional[list[float]] = None
    model: Optional[str] = None
    target: Optional[str] = None
    target_mean: Optional[float] = None


def _as_matrix(rows, width: int = 0) -> Optional[np.ndarray]:
    """The rows as one float matrix in one conversion, or None when they are
    ragged, narrower than ``width`` or hold a cell that is not a number, for
    the caller's per-row loop to name the line."""
    try:
        mat = np.array(rows, dtype=float)
    except ValueError:
        return None
    return mat if mat.shape[1] >= width else None


def ingest_rv_csv(path: str) -> DiscreteRv:
    """Read atoms from a CSV with header value,prob (or a single value column)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [r for r in reader if r and any(map(str.strip, r))]
    if not rows:
        raise InvalidDistribution(f"{path}: empty file")
    header = [c.strip().lower() for c in rows[0]]
    has_header = "value" in header
    body = rows[1:] if has_header else rows
    if has_header and "prob" in header:
        vi, pi = header.index("value"), header.index("prob")
    else:
        vi, pi = 0, None
    if not body:
        raise InvalidDistribution(f"{path}: no data rows")
    first = 2 if has_header else 1
    mat = _as_matrix(body, 1 + max(vi, pi or 0))
    if mat is None:
        for lineno, row in enumerate(body, start=first):
            try:
                float(row[vi])
            except (ValueError, IndexError) as exc:
                raise InvalidDistribution(f"{path}:{lineno}: bad value cell {row!r}") from exc
            if pi is not None:
                try:
                    p = float(row[pi])
                except (ValueError, IndexError) as exc:
                    raise InvalidDistribution(f"{path}:{lineno}: bad prob cell {row!r}") from exc
                if p < 0:
                    raise InvalidDistribution(f"{path}:{lineno}: negative prob {p}")
        # ragged rows or a bad cell outside the value and prob columns
        mat = np.array([[float(row[vi])] + ([] if pi is None else [float(row[pi])]) for row in body])
        vi, pi = 0, None if pi is None else 1
    values = mat[:, vi]
    if pi is None:
        rv = DiscreteRv(values)
        delta = 0.0
    else:
        probs = mat[:, pi]
        negative = np.flatnonzero(probs < 0)
        if negative.size:
            raise InvalidDistribution(f"{path}:{first + negative[0]}: negative prob {float(probs[negative[0]])}")
        # summed one by one in row order, so the rescaled masses keep the bits the per-row reading gave
        total = sum(probs.tolist())
        delta = abs(total - 1.0)
        if delta > 1e-4:
            raise InvalidDistribution(f"{path}: probs sum to {total!r}")
        # CSV rounding tolerance is looser than the constructor's; rescale here
        rv = DiscreteRv(values, probs / total)
    print(f"# read {len(values)} rows from {path} (normalization delta {delta:.3e})", file=sys.stderr)
    return rv


def ingest_dataset_csv(path: str, target: Optional[str] = None) -> Dataset:
    """CSV with a header row; the target column defaults to the last one."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [r for r in reader if r and any(map(str.strip, r))]
    if len(rows) < 2:
        raise ValueError(f"{path}: need a header and at least one data row")
    header = [c.strip() for c in rows[0]]
    tcol = header.index(target) if target else len(header) - 1
    wcol = header.index("weight") if "weight" in header else None
    mat = _as_matrix(rows[1:], 1 + max(tcol, wcol or 0))
    if mat is not None:
        keep = [i for i in range(mat.shape[1]) if i not in (tcol, wcol)]
        return Dataset(mat[:, keep], mat[:, tcol], mat[:, wcol] if wcol is not None else None)
    # ragged rows or a cell that is not a number: row by row, naming the line
    feats, ys, ws = [], [], []
    for lineno, row in enumerate(rows[1:], start=2):
        try:
            vals = [float(c) for c in row]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-numeric cell") from exc
        ys.append(vals[tcol])
        if wcol is not None:
            ws.append(vals[wcol])
        feats.append([v for i, v in enumerate(vals) if i not in (tcol, wcol)])
    return Dataset(np.asarray(feats), np.asarray(ys), np.asarray(ws) if ws else None)


def ingest_scenarios_csv(path: str) -> tuple[np.ndarray, Optional[np.ndarray]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [r for r in reader if r and any(map(str.strip, r))]
    try:
        float(rows[0][0])
        body, pcol = rows, None
    except (ValueError, IndexError):
        header = [c.strip().lower() for c in rows[0]] if rows else []
        body = rows[1:]
        pcol = header.index("prob") if "prob" in header else None
    if not body:
        raise ValueError(f"{path}: need at least one data row")
    mat = _as_matrix(body)
    if mat is None:
        # ragged rows or a cell that is not a number: the per-row reading raises as it did
        mat = np.asarray([[float(c) for c in r] for r in body])
    if pcol is None:
        return mat, None
    probs = mat[:, pcol]
    keep = [i for i in range(mat.shape[1]) if i != pcol]
    return mat[:, keep], probs


def build_quadrangle(spec: dict) -> Quadrangle:
    """From a JSON spec {family|phi, params {...}}."""
    if "family" in spec:
        return make_catalog_quadrangle(CatalogSpec(spec["family"], dict(spec.get("params", {}))))
    if "phi" in spec:
        params = dict(spec.get("params", {}))
        if "beta" not in params:
            raise ValueError(f"phi {spec['phi']!r} takes param 'beta', got {sorted(params)}")
        beta = params.pop("beta")
        div = make_divergence(spec["phi"], **params)
        return make_divergence_quadrangle(div, beta)
    raise ValueError("spec must carry 'family' or 'phi'")


def _emit(cfg: RunConfig, payload: dict) -> None:
    if cfg.output_format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        lines = []
        for key, val in payload.items():
            if isinstance(val, dict):
                lines.append(f"{key}:")
                for k2, v2 in val.items():
                    lines.append(f"  {k2:28s} {v2}")
            elif isinstance(val, list):
                lines.append(f"{key}:")
                for item in val:
                    lines.append(f"  {item}")
            else:
                lines.append(f"{key:30s} {val}")
        text = "\n".join(lines)
    if cfg.output_path:
        with open(cfg.output_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _interval_payload(s) -> list[float]:
    return [fmt12(s.lo), fmt12(s.hi)]


def run_command(cfg: RunConfig) -> int:
    """Dispatch a command; returns the process exit code."""
    try:
        return _dispatch(cfg)
    except (InvalidDistribution, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RuntimeError as exc:
        print(f"solver: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except Exception as exc:  # any other fault inside a solve: one line, no traceback
        print(f"solver: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def _dispatch(cfg: RunConfig) -> int:
    if cfg.command == "eval":
        q = build_quadrangle(cfg.spec)
        x = ingest_rv_csv(cfg.input_path)
        s = q.statistic(x)
        _emit(cfg, {
            "label": q.label,
            "risk": fmt12(q.risk(x)),
            "deviation": fmt12(q.deviation(x)),
            "regret": fmt12(q.regret(x)),
            "error": fmt12(q.error(x)),
            "statistic": _interval_payload(s),
        })
        return EXIT_OK

    if cfg.command == "statistic":
        q = build_quadrangle(cfg.spec)
        x = ingest_rv_csv(cfg.input_path)
        _emit(cfg, {"label": q.label, "statistic": _interval_payload(q.statistic(x))})
        return EXIT_OK

    if cfg.command == "envelope":
        spec = cfg.spec or {}
        if spec.get("family") not in ("quantile", "mean_pl", "expectile_pl"):
            raise ValueError("envelope report supports families quantile, mean_pl, expectile_pl")
        # the spec validates the family's parameters before any envelope is built
        cat = CatalogSpec(spec["family"], spec.get("params", {}))
        q = make_catalog_quadrangle(cat)
        x = ingest_rv_csv(cfg.input_path)
        p = x.probs
        if cat.family == "quantile":
            env = cvar_envelope(cat.params["alpha"], p)
        elif cat.family == "mean_pl":
            env = mean_abs_risk_envelope(p)
        else:
            env = expectile_envelope(_expectile_q_from_k(cat.params["K"]), p)
        rng = np.random.default_rng(cfg.seed)
        rep = dual_axiom_check(env, rng=rng)
        sup, _ = envelope_sup(env, x.values)
        _emit(cfg, {
            "label": env.label,
            "support_value": fmt12(sup),
            "primal_risk": fmt12(q.risk(x)),
            "support_gap": fmt12(abs(sup - q.risk(x))),
            "axioms": {k: ("pass" if v else "FAIL") for k, v in rep.clauses.items()},
            "details": rep.details,
        })
        return EXIT_OK

    if cfg.command == "family":
        x = ingest_rv_csv(cfg.input_path)
        spec = cfg.spec or {}
        phi_name = spec.get("phi", "kl")
        params = {k: v for k, v in spec.get("params", {}).items() if k != "beta"}
        div = make_divergence(phi_name, **params)
        j = StochasticDivergenceJ.from_phi(div, normalized=True)
        taus = cfg.taus or list(np.geomspace(1e-6, 1e6, 13))
        rows = []
        for tau in taus:
            val, _ = family_eval_envelope(j, tau, x)
            rows.append({"tau": fmt12(tau), "value": fmt12(val)})
        _emit(cfg, {
            "phi": phi_name,
            "mean": fmt12(expectation(x)),
            "ess_sup": fmt12(ess_bounds(x)[1]),
            "sweep": [f"tau={r['tau']:<16g} value={r['value']:.12g}" for r in rows]
            if cfg.output_format == "table"
            else rows,
        })
        return EXIT_OK

    if cfg.command == "regress":
        data = ingest_dataset_csv(cfg.input_path, cfg.target)
        model = cfg.model or "quantile"
        quartet = named_quadrangle(model, **cfg.params)
        fit = fit_linear(quartet.error_fn, data)
        _emit(cfg, {
            "model": model,
            "intercept": fmt12(fit.intercept),
            "coefficients": [fmt12(c) for c in fit.coefficients],
            "objective": fmt12(fit.objective),
            "residual_statistic": _interval_payload(fit.statistic_of_residual),
            "tracking": bool(track_statistic(fit, quartet)),
            "nonunique": fit.nonunique,
            "gap": fmt12(fit.gap),
        })
        return EXIT_OK if fit.gap <= 1e-4 else EXIT_SOLVER

    if cfg.command == "portfolio":
        scen, probs = ingest_scenarios_csv(cfg.input_path)
        q = build_quadrangle(cfg.spec or {"family": "quantile", "params": {"alpha": 0.8}})
        w, v = portfolio_optimize(q, scen, probs=probs, target_mean=cfg.target_mean, steps=cfg.max_iter)
        _emit(cfg, {"weights": [fmt12(c) for c in w], "risk": fmt12(v)})
        return EXIT_OK

    if cfg.command == "dro":
        scen, probs = ingest_scenarios_csv(cfg.input_path)
        spec = cfg.spec or {}
        phi_name = spec.get("phi", "kl")
        params = {k: v for k, v in spec.get("params", {}).items() if k not in ("tau",)}
        tau = spec.get("tau", cfg.params.get("tau", 1.0))
        div = make_divergence(phi_name, **params)
        sol = dro_solve(DroProblem(scen, div, tau, probs=probs, target_mean=cfg.target_mean), steps=cfg.max_iter)
        code = EXIT_OK if sol.route_gap <= 1e-4 else EXIT_SOLVER
        _emit(cfg, {
            "weights": [fmt12(c) for c in sol.weights],
            "value": fmt12(sol.value),
            "worst_case_density": [fmt12(c) for c in sol.worst_case_density],
            "route_gap": fmt12(sol.route_gap),
            "density_approximate": sol.density_approximate,
        })
        return code

    if cfg.command == "epi":
        x = ingest_rv_csv(cfg.input_path)
        alpha = cfg.params.get("alpha", 0.5)
        envelope = cvar_envelope(alpha, x.probs)
        kern, kconj = kernel_quadratic_regret()
        rows = []
        for eps in cfg.epsilons or (0.25, 0.5, 1.0, 2.0):
            spec = EpiSpec(
                base_risk=lambda y: cvar_direct(y, alpha),
                kernel=kern,
                epsilon=eps,
                base_envelope=envelope,
                kernel_conj=kconj,
            )
            vp = epi_risk_primal(spec, x)
            vd = epi_risk_dual(spec, x)
            rows.append({"epsilon": fmt12(eps), "primal": fmt12(vp), "dual": fmt12(vd), "gap": fmt12(abs(vp - vd))})
        worst = max(r["gap"] for r in rows)
        _emit(cfg, {
            "alpha": alpha,
            "sweep": [f"eps={r['epsilon']:<10g} primal={r['primal']:.12g} dual={r['dual']:.12g} gap={r['gap']:.3g}" for r in rows]
            if cfg.output_format == "table"
            else rows,
        })
        return EXIT_OK if worst <= 1e-4 else EXIT_SOLVER

    if cfg.command == "check":
        if cfg.spec:
            specs = [CatalogSpec(cfg.spec["family"], dict(cfg.spec.get("params", {})))]
        else:
            defaults = {
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
            specs = [CatalogSpec(f, p) for f, p in defaults.items()]
        table = []
        all_ok = True
        for sp in specs:
            q = make_catalog_quadrangle(sp)
            for res in run_quadrangle_checks(q, rng=np.random.default_rng(cfg.seed), n_rvs=10):
                all_ok &= res.passed
                table.append(f"{sp.family:15s} {res.name:28s} {'pass' if res.passed else 'FAIL':5s} {res.detail}")
        _emit(cfg, {"checks": table, "all_passed": all_ok})
        return EXIT_OK if all_ok else EXIT_VALIDATION

    raise ValueError(f"unknown command {cfg.command!r}")


def _parse_spec(args, params: dict) -> Optional[dict]:
    spec = None
    if args.spec:
        if args.spec.strip().startswith("{"):
            spec = json.loads(args.spec)
        else:
            with open(args.spec) as fh:
                spec = json.load(fh)
        if not isinstance(spec, dict):
            raise ValueError(f"spec must be a JSON object, got {spec!r}")
    inline = {k: v for k, v in params.items() if k != "tau"}
    if inline and spec is None:
        if args.phi:
            spec = {"phi": args.phi, "params": inline}
        elif args.family:
            spec = {"family": args.family, "params": inline}
    elif spec is None and (args.family or args.phi):
        spec = {"family": args.family, "params": {}} if args.family else {"phi": args.phi, "params": {}}
    if spec is not None and args.tau is not None:
        spec["tau"] = args.tau
    return spec


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a validation error: exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built once per process (each add_argument costs a help formatter); no
    action keeps state from one parse to the next."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", dest="input_path")
    common.add_argument("--spec", help="JSON spec or path to one")
    common.add_argument("--family", choices=sorted(CATALOG_FAMILIES))
    common.add_argument("--phi", choices=PHI_REGISTRY)
    common.add_argument("--alpha", type=float)
    common.add_argument("--q", type=float)
    common.add_argument("--eps", type=float)
    common.add_argument("--beta", type=float)
    common.add_argument("--lam", type=float)
    common.add_argument("--K", dest="big_k", type=float)
    common.add_argument("--x", type=float)
    common.add_argument("--tau", type=float)
    common.add_argument("--taus", help="comma-separated tau grid")
    common.add_argument("--epsilons", help="comma-separated epsilon grid")
    common.add_argument("--model", choices=NAMED_MODELS)
    common.add_argument("--target")
    common.add_argument("--target-mean", dest="target_mean", type=float)
    common.add_argument("--max-iter", dest="max_iter", type=int, default=4000)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--format", dest="output_format", choices=("table", "json"), default="table")
    common.add_argument("--output", dest="output_path")
    parser = _Parser(prog="riskquad", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("eval", "statistic", "envelope", "family", "regress", "portfolio", "dro", "epi", "check"):
        sub.add_parser(name, parents=[common])
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.family and args.phi:
        _parser().error("argument --phi: not allowed with argument --family")
    params = {}
    for key in ("alpha", "q", "eps", "beta", "lam", "K", "x", "tau"):
        val = getattr(args, "big_k" if key == "K" else key)
        if val is not None:
            params[key] = val
    try:
        cfg = RunConfig(
            command=args.command,
            input_path=args.input_path,
            spec=_parse_spec(args, params),
            params=params,
            max_iter=args.max_iter,
            seed=args.seed,
            output_format=args.output_format,
            output_path=args.output_path,
            taus=[float(t) for t in args.taus.split(",")] if args.taus else None,
            epsilons=[float(e) for e in args.epsilons.split(",")] if args.epsilons else None,
            model=args.model,
            target=args.target,
            target_mean=args.target_mean,
        )
    except (ValueError, OSError) as exc:  # a bad JSON spec, a spec path that is missing or a directory, a bad grid
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return run_command(cfg)


if __name__ == "__main__":
    raise SystemExit(main())
