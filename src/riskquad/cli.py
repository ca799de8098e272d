"""Command-line front end: catalog evaluation, envelopes, divergence family
sweeps, regression, portfolio selection, DRO, epi-regularization, and the
invariant checker.

Reports print numbers at 12 significant digits; JSON output is stable-keyed
and round-trips bit-identically.

The commands are one table, ``COMMANDS``, of runners keyed by name: each takes
the parsed arguments and returns its report and exit code.  ``main`` parses
the arguments, resolves the quadrangle spec, its parameters and the grids
once, runs the command's runner and emits its report, mapping each exception
to its exit code; the parser's subcommands are the table's keys.  The three
CSV forms (r.v.s, datasets, scenarios) go through one table reader: every
cell a form reads must be a finite number, else the command exits 1 with one
line naming the file and line.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from typing import Optional

import numpy as np

from .core import DiscreteRv, InvalidDistribution, cvar_direct, ess_bounds, expectation
from .checks import run_quadrangle_checks
from .constructions import Quadrangle
from .divergence import (
    PHI_REGISTRY,
    DivergenceFn,
    StochasticDivergenceJ,
    family_eval_envelope,
    make_divergence,
    make_divergence_quadrangle,
)
from .dual import cvar_envelope, dual_axiom_check, envelope_sup
from .measures import CATALOG, CatalogSpec, make_catalog_quadrangle
from .regression import Dataset, NAMED_MODELS, fit_linear, named_quadrangle, track_statistic
from .robust import DroProblem, EpiSpec, PortfolioGapError, dro_solve, epi_risk_dual, epi_risk_primal, kernel_quadratic_regret, portfolio_optimize

__all__ = ["main", "COMMANDS", "ingest_rv_csv", "fmt12"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2

# the quadrangle and ball parameters, each a float option of its name, in the help text's order
_PARAMS = ("alpha", "q", "eps", "beta", "lam", "K", "x", "tau")


def fmt12(v: float) -> float:
    """Round-trip a float through 12 significant digits."""
    return float(f"{v:.12g}")


def _read_table(path: str, has_header) -> tuple[Optional[list[str]], list[list[str]], list[int]]:
    """The CSV's rows that hold a cell that is not blank, as (header, body,
    the file's line of each body row): the first row is the header where
    ``has_header(row)`` says so, else None."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        numbered = [(reader.line_num, row) for row in reader if any(map(str.strip, row))]
    lines, rows = [n for n, _ in numbered], [row for _, row in numbered]
    return (rows[0], rows[1:], lines[1:]) if rows and has_header(rows[0]) else (None, rows, lines)


def _floats(path: str, header: Optional[list[str]], body: list[list[str]], lines: list[int], cells=None) -> np.ndarray:
    """The body as one float matrix: every cell of rows as long as the table's
    first row or, given (column, label) ``cells``, those columns only.  Only
    when the one conversion or its finite check fails are the rows walked: the
    first bad, non-finite or missing cell or ragged row raises
    InvalidDistribution naming the file and line (a label's ``{}`` takes the row)."""
    width, every = len(header or body[0]), cells is None
    cols = range(width) if every else [c for c, _ in cells]
    try:
        mat = np.array(body, dtype=float)
    except ValueError:
        mat = None
    if mat is not None and np.isfinite(mat).all() and (mat.shape[1] == width if every else mat.shape[1] > max(cols)):
        return mat if every else mat.take(cols, axis=1)
    cells = cells or [(i, "non-numeric cell") for i in cols]
    for lineno, row in zip(lines, body):
        if every and len(row) != width:
            raise InvalidDistribution(f"{path}:{lineno}: ragged row {row!r}, the first row's width is {width}")
        for col, label in cells:
            try:
                v = float(row[col])
            except (ValueError, IndexError) as exc:
                raise InvalidDistribution(f"{path}:{lineno}: {label.format(row)}") from exc
            if not math.isfinite(v):
                raise InvalidDistribution(f"{path}:{lineno}: non-finite cell {row!r}")
    # every cell read is a finite number: a cell of a column not read was at fault
    return np.array([[float(row[c]) for c in cols] for row in body])


def ingest_rv_csv(path: str) -> DiscreteRv:
    """Read atoms from a CSV with header value,prob (or a single value column)."""
    header, body, lines = _read_table(path, lambda row: "value" in [c.strip().lower() for c in row])
    if not body:
        raise InvalidDistribution(f"{path}: {'empty file' if header is None else 'no data rows'}")
    names = [c.strip().lower() for c in header or ["value"]]
    cells = [(names.index(name), f"bad {name} cell {{!r}}") for name in ("value", "prob") if name in names]
    mat = _floats(path, header, body, lines, cells)
    values = mat[:, 0]
    if len(cells) == 1:
        rv, delta = DiscreteRv(values), 0.0
    else:
        probs = mat[:, 1]
        negative = np.flatnonzero(probs < 0)
        if negative.size:
            raise InvalidDistribution(f"{path}:{lines[negative[0]]}: negative prob {float(probs[negative[0]])}")
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
    header, body, lines = _read_table(path, lambda row: True)
    if not body:
        raise ValueError(f"{path}: need a header and at least one data row")
    names = [c.strip() for c in header]
    tcol = names.index(target) if target else len(names) - 1
    wcol = names.index("weight") if "weight" in names else None
    mat = _floats(path, header, body, lines)
    keep = [i for i in range(mat.shape[1]) if i not in (tcol, wcol)]
    return Dataset(mat[:, keep], mat[:, tcol], mat[:, wcol] if wcol is not None else None)


def _not_a_number(row: list[str]) -> bool:
    try:
        float(row[0])
    except ValueError:
        return True
    return False


def ingest_scenarios_csv(path: str) -> tuple[np.ndarray, Optional[np.ndarray]]:
    header, body, lines = _read_table(path, _not_a_number)
    if not body:
        raise ValueError(f"{path}: need at least one data row")
    names = [c.strip().lower() for c in header or ()]
    mat = _floats(path, header, body, lines)
    if "prob" not in names:
        return mat, None
    return np.delete(mat, names.index("prob"), axis=1), mat[:, names.index("prob")]


def build_quadrangle(spec: Optional[dict]) -> Quadrangle:
    """From a JSON spec {family|phi, params {...}}."""
    spec = spec or {}
    if "family" in spec:
        return make_catalog_quadrangle(CatalogSpec(spec["family"], dict(spec.get("params", {}))))
    if "phi" in spec:
        params = spec.get("params", {})
        if "beta" not in params:
            raise ValueError(f"phi {spec['phi']!r} takes param 'beta', got {sorted(params)}")
        return make_divergence_quadrangle(_divergence(spec, "beta"), _finite("beta", params["beta"]))
    raise ValueError("give a quadrangle: --family, --phi, or a --spec that carries 'family' or 'phi'")


def _divergence(spec: dict, skip: str) -> DivergenceFn:
    """The spec's named divergence, kl by default, built from its params other than ``skip``."""
    params = {k: v for k, v in spec.get("params", {}).items() if k != skip}
    return make_divergence(spec.get("phi", "kl"), **params)


def _emit(args, payload: dict) -> None:
    if args.output_format == "json":
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
    if args.output_path:
        with open(args.output_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _interval_payload(s) -> list[float]:
    return [fmt12(s.lo), fmt12(s.hi)]


def _sweep(args, rows: list[dict], fields) -> list:
    """A sweep's rows as they are in JSON; in a table, one line per row of
    ``label=value`` for each (label, format) of ``fields`` in the rows' key order."""
    if args.output_format == "json":
        return rows
    return [" ".join(f"{label}={v:{spec}}" for (label, spec), v in zip(fields, row.values())) for row in rows]


def _eval(args):
    q = build_quadrangle(args.spec)
    x = ingest_rv_csv(args.input_path)
    s = q.statistic(x)
    return {
        "label": q.label,
        "risk": fmt12(q.risk(x)),
        "deviation": fmt12(q.deviation(x)),
        "regret": fmt12(q.regret(x)),
        "error": fmt12(q.error(x)),
        "statistic": _interval_payload(s),
    }, EXIT_OK


def _statistic(args):
    q = build_quadrangle(args.spec)
    x = ingest_rv_csv(args.input_path)
    return {"label": q.label, "statistic": _interval_payload(q.statistic(x))}, EXIT_OK


_ENVELOPE_FAMILIES = tuple(name for name, family in CATALOG.items() if family.envelope)


def _envelope(args):
    spec = args.spec or {}
    if spec.get("family") not in _ENVELOPE_FAMILIES:
        raise ValueError(f"envelope report supports families {', '.join(_ENVELOPE_FAMILIES)}")
    # the spec validates the family's parameters before any envelope is built
    cat = CatalogSpec(spec["family"], spec.get("params", {}))
    q = make_catalog_quadrangle(cat)
    x = ingest_rv_csv(args.input_path)
    env = CATALOG[cat.family].envelope(probs=x.probs, **cat.params)
    rep = dual_axiom_check(env, rng=np.random.default_rng(args.seed))
    sup, _ = envelope_sup(env, x.values)
    return {
        "label": env.label,
        "support_value": fmt12(sup),
        "primal_risk": fmt12(q.risk(x)),
        "support_gap": fmt12(abs(sup - q.risk(x))),
        "axioms": {k: ("pass" if v else "FAIL") for k, v in rep.clauses.items()},
        "details": rep.details,
    }, EXIT_OK


def _family(args):
    x = ingest_rv_csv(args.input_path)
    spec = args.spec or {}
    j = StochasticDivergenceJ.from_phi(_divergence(spec, "beta"), normalized=True)
    rows = []
    for tau in args.taus or np.geomspace(1e-6, 1e6, 13):
        val, _ = family_eval_envelope(j, tau, x)
        rows.append({"tau": fmt12(tau), "value": fmt12(val)})
    return {
        "phi": spec.get("phi", "kl"),
        "mean": fmt12(expectation(x)),
        "ess_sup": fmt12(ess_bounds(x)[1]),
        "sweep": _sweep(args, rows, (("tau", "<16g"), ("value", ".12g"))),
    }, EXIT_OK


def _regress(args):
    data = ingest_dataset_csv(args.input_path, args.target)
    model = args.model or "quantile"
    quartet = named_quadrangle(model, **args.params)
    fit = fit_linear(quartet.error_fn, data)
    return {
        "model": model,
        "intercept": fmt12(fit.intercept),
        "coefficients": [fmt12(c) for c in fit.coefficients],
        "objective": fmt12(fit.objective),
        "residual_statistic": _interval_payload(fit.statistic_of_residual),
        "tracking": bool(track_statistic(fit, quartet)),
        "nonunique": fit.nonunique,
        "gap": fmt12(fit.gap),
    }, EXIT_OK if fit.gap <= 1e-4 else EXIT_SOLVER


def _portfolio(args):
    scen, probs = ingest_scenarios_csv(args.input_path)
    q = build_quadrangle(args.spec or {"family": "quantile", "params": {"alpha": 0.8}})
    try:
        w, v = portfolio_optimize(q, scen, probs=probs, target_mean=args.target_mean, steps=args.max_iter)
    except PortfolioGapError as exc:
        # the rounds ran out: the last weights are still reported, with their gap
        print(f"solver: {exc}", file=sys.stderr)
        return {"weights": [fmt12(c) for c in exc.weights], "risk": fmt12(exc.risk), "gap": fmt12(exc.gap)}, EXIT_SOLVER
    return {"weights": [fmt12(c) for c in w], "risk": fmt12(v)}, EXIT_OK


def _dro(args):
    scen, probs = ingest_scenarios_csv(args.input_path)
    spec = args.spec or {}
    tau = _finite("tau", spec.get("tau", args.params.get("tau", 1.0)))
    sol = dro_solve(DroProblem(scen, _divergence(spec, "tau"), tau, probs=probs, target_mean=args.target_mean), steps=args.max_iter)
    return {
        "weights": [fmt12(c) for c in sol.weights],
        "value": fmt12(sol.value),
        "worst_case_density": [fmt12(c) for c in sol.worst_case_density],
        "route_gap": fmt12(sol.route_gap),
        "density_approximate": sol.density_approximate,
    }, EXIT_OK if sol.route_gap <= 1e-4 else EXIT_SOLVER


def _epi(args):
    x = ingest_rv_csv(args.input_path)
    alpha = args.params.get("alpha", 0.5)
    envelope = cvar_envelope(alpha, x.probs)
    kern, kconj = kernel_quadratic_regret()
    rows = []
    for eps in args.epsilons or (0.25, 0.5, 1.0, 2.0):
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
    sweep = _sweep(args, rows, (("eps", "<10g"), ("primal", ".12g"), ("dual", ".12g"), ("gap", ".3g")))
    return {"alpha": alpha, "sweep": sweep}, EXIT_OK if worst <= 1e-4 else EXIT_SOLVER


def _check(args):
    if args.spec and "family" not in args.spec:
        raise ValueError("check runs catalog families only: give --family, or a --spec that carries 'family'")
    if args.spec:
        specs = [CatalogSpec(args.spec["family"], dict(args.spec.get("params", {})))]
    else:
        specs = [CatalogSpec(name, dict(family.params)) for name, family in CATALOG.items()]
    table = []
    all_ok = True
    for sp in specs:
        q = make_catalog_quadrangle(sp)
        for res in run_quadrangle_checks(q, rng=np.random.default_rng(args.seed), n_rvs=10):
            all_ok &= res.passed
            table.append(f"{sp.family:15s} {res.name:28s} {'pass' if res.passed else 'FAIL':5s} {res.detail}")
    return {"checks": table, "all_passed": all_ok}, EXIT_OK if all_ok else EXIT_VALIDATION


COMMANDS = {
    "eval": _eval,
    "statistic": _statistic,
    "envelope": _envelope,
    "family": _family,
    "regress": _regress,
    "portfolio": _portfolio,
    "dro": _dro,
    "epi": _epi,
    "check": _check,
}


def _parse_spec(args) -> Optional[dict]:
    spec = None
    if args.spec:
        if args.spec.strip().startswith("{"):
            spec = json.loads(args.spec)
        else:
            with open(args.spec) as fh:
                spec = json.load(fh)
        if not isinstance(spec, dict):
            raise ValueError(f"spec must be a JSON object, got {spec!r}")
    inline = {k: v for k, v in args.params.items() if k != "tau"}
    if spec is None and (args.family or args.phi):
        spec = {"phi": args.phi, "params": inline} if args.phi else {"family": args.family, "params": inline}
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
    common.add_argument("--family", choices=sorted(CATALOG))
    common.add_argument("--phi", choices=PHI_REGISTRY)
    for key in _PARAMS:
        common.add_argument(f"--{key}", type=float, metavar="BIG_K" if key == "K" else None)
    common.add_argument("--taus", help="comma-separated tau grid")
    common.add_argument("--epsilons", help="comma-separated epsilon grid")
    common.add_argument("--model", choices=NAMED_MODELS)
    common.add_argument("--target")
    common.add_argument("--target-mean", dest="target_mean", type=float)
    common.add_argument("--max-iter", dest="max_iter", type=int, default=4000)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--format", dest="output_format", choices=("table", "json"), default="table")
    common.add_argument("--output", dest="output_path")
    # the description is the docstring less its last paragraph, on the command table
    parser = _Parser(prog="riskquad", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def _finite(option: str, value: Optional[float]) -> Optional[float]:
    if value is not None and not math.isfinite(value):
        raise ValueError(f"{option} must be a finite number, got {value!r}")
    return value


def _grid(text: Optional[str], option: str) -> Optional[list[float]]:
    return [_finite(option, float(t)) for t in text.split(",")] if text else None


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.family and args.phi:
        _parser().error("argument --phi: not allowed with argument --family")
    try:
        args.params = {key: _finite(f"--{key}", getattr(args, key)) for key in _PARAMS if getattr(args, key) is not None}
        _finite("--target-mean", args.target_mean)
        args.spec = _parse_spec(args)
        args.taus, args.epsilons = _grid(args.taus, "--taus"), _grid(args.epsilons, "--epsilons")
        payload, code = COMMANDS[args.command](args)
        _emit(args, payload)
        return code
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RuntimeError as exc:
        print(f"solver: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except Exception as exc:  # any other fault inside a solve: one line, no traceback
        print(f"solver: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
