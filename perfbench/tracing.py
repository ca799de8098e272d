"""In-process tracing: spans recorded around riskquad's public entry
points by wrapping them from the benchmark's side.

``from .solvers import solve_lp`` binds the name in the importing module when
it is imported, so every entry point is replaced at each place it is looked
up: each ``riskquad.*`` module attribute that is the original function.
``DiscreteRv.__init__`` is replaced on the class, and ``phi_conj`` on each
``DivergenceFn`` that ``make_divergence`` returns.  Catalog quadrangles come
back from ``make_catalog_quadrangle`` with their five functionals wrapped.

A span is (name, start, end, parent, op id), kept in flat arrays in memory and
written out by ``Tracer.dump``.  A span's self time is its duration minus the
time its child spans cover.  Counts that do not depend on the machine
(evaluations, iterations, LP sizes) are recorded at the same boundaries.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self.stack: list[int] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.op = -1
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for arr in (self.name, self.start, self.end, self.parent, self.op_of):
            del arr[:]
        self.stack.clear()
        self.counts.clear()
        self.op = -1

    # -- span recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name: str, fn, before=None, after=None):
        """``fn`` wrapped in a span; ``before(args, kwargs)`` may return new
        arguments and ``after(result, exc)`` records counts from the outcome."""
        nid = self._id(name)
        names, starts, ends, parents, ops, stack = self.name, self.start, self.end, self.parent, self.op_of, self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(sid)
            starts.append(_clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                ends[sid] = _clock()
                stack.pop()
                if after is not None:
                    after(None, exc)
                raise
            ends[sid] = _clock()
            stack.pop()
            if after is not None:
                after(out, None)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Replace riskquad's entry points at every place they are bound."""
        import riskquad.cli as cli
        import riskquad.constructions as constructions
        import riskquad.core as core
        import riskquad.divergence as divergence
        import riskquad.dual as dual
        import riskquad.measures as measures
        import riskquad.regression as regression
        import riskquad.robust as robust
        import riskquad.solvers as solvers

        targets = {}

        def add(fn, wrapper):
            targets[id(fn)] = (fn, wrapper)

        def eval_counter(key):
            def before(args, kwargs):
                f = args[0]
                if isinstance(f, solvers.ScalarFn):
                    f = dataclasses.replace(f, fn=self.counted(key, f.fn))
                else:
                    f = self.counted(key, f)
                return (f,) + tuple(args[1:]), kwargs

            return before

        for fname, layer in (
            ("minimize_scalar_convex", "golden"),
            ("flat_interval", "flat"),
            ("argmin_interval_pwl", "pwl"),
            ("compass_search", "compass"),
        ):
            fn = getattr(solvers, fname)
            add(fn, self.spanned(f"solvers.{layer}", fn, before=eval_counter(f"solvers.{layer}.evals")))

        def subgrad_after(res, exc):
            if res is not None:
                self.counts["solvers.subgrad.iters"] += res.iterations
                self.counts["solvers.subgrad.converged"] += bool(res.converged)

        add(solvers.minimize_subgradient, self.spanned("solvers.subgrad", solvers.minimize_subgradient, after=subgrad_after))

        def lp_before(args, kwargs):
            p = args[0] if args else kwargs["p"]
            rows = sum(0 if a is None else np.atleast_2d(a).shape[0] for a in (p.a_eq, p.a_ub))
            self.counts["solvers.lp.rows"] += rows
            self.counts["solvers.lp.cols"] += np.size(p.c)
            if p.bounds is not None:
                self.counts["solvers.lp.bound_rows"] += sum(lo is not None and hi is not None for lo, hi in p.bounds)
            return args, kwargs

        def lp_after(sol, exc):
            if sol is None or sol.status != "optimal":
                self.counts["solvers.lp.nonoptimal"] += 1

        add(solvers.solve_lp, self.spanned("solvers.lp", solvers.solve_lp, before=lp_before, after=lp_after))

        add(constructions.project_error, self.spanned("constructions.project_error", constructions.project_error))
        add(constructions.regret_to_risk, self.spanned("constructions.regret_to_risk", constructions.regret_to_risk))
        add(divergence.family_eval_envelope, self.spanned("divergence.family_eval_envelope", divergence.family_eval_envelope))
        add(dual.envelope_sup, self.spanned("dual.envelope_sup", dual.envelope_sup))
        add(regression.fit_linear, self.spanned("regression.fit_linear", regression.fit_linear))
        add(regression.track_statistic, self.spanned("regression.track_statistic", regression.track_statistic))
        add(robust.dro_solve, self.spanned("robust.dro_solve", robust.dro_solve))
        add(robust.portfolio_optimize, self.spanned("robust.portfolio_optimize", robust.portfolio_optimize))
        add(robust.epi_risk_primal, self.spanned("robust.epi", robust.epi_risk_primal))
        add(robust.epi_risk_dual, self.spanned("robust.epi", robust.epi_risk_dual))
        for fname in ("ingest_rv_csv", "ingest_dataset_csv", "ingest_scenarios_csv"):
            fn = getattr(cli, fname)
            add(fn, self.spanned("cli.ingest", fn))

        def main_after(rc, exc):
            if exc is not None or rc != 0:
                self.counts["cli.exit_nonzero"] += 1

        add(cli.main, self.spanned("cli.main", cli.main, after=main_after))

        functional = "measures.functional"
        orig_catalog = measures.make_catalog_quadrangle

        def make_catalog_quadrangle(spec):
            q = orig_catalog(spec)
            return dataclasses.replace(
                q, **{k: self.spanned(functional, getattr(q, k)) for k in ("risk", "deviation", "regret", "error", "statistic")}
            )

        add(orig_catalog, make_catalog_quadrangle)

        orig_divergence = divergence.make_divergence

        def conj_before(args, kwargs):
            self.counts["divergence.phi_conj.elems"] += np.size(args[0])
            return args, kwargs

        def make_divergence(*args, **kwargs):
            div = orig_divergence(*args, **kwargs)
            return dataclasses.replace(div, phi_conj=self.spanned("divergence.phi_conj", div.phi_conj, before=conj_before))

        add(orig_divergence, make_divergence)

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "riskquad" or mod_name.startswith("riskquad.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = targets.get(id(val))
                if hit is not None and hit[0] is val:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

        orig_init = core.DiscreteRv.__init__

        def rv_before(args, kwargs):
            v = np.asarray(args[1] if len(args) > 1 else kwargs["values"], dtype=float).ravel()
            self.counts["core.rv_new.atoms"] += v.size
            if v.size < 2 or bool(np.all(v[1:] > v[:-1])):
                self.counts["core.rv_new.presorted"] += 1
            return args, kwargs

        self._restore.append((core.DiscreteRv, "__init__", orig_init))
        core.DiscreteRv.__init__ = self.spanned("core.rv_new", orig_init, before=rv_before)

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, val = self._restore.pop()
            setattr(obj, attr, val)

    # -- reduction --------------------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32) if len(self.name) else np.zeros(0, np.int32)
        start = np.frombuffer(self.start, dtype=np.float64) if len(self.start) else np.zeros(0)
        end = np.frombuffer(self.end, dtype=np.float64) if len(self.end) else np.zeros(0)
        parent = np.frombuffer(self.parent, dtype=np.int32) if len(self.parent) else np.zeros(0, np.int32)
        return name, start, end, parent

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(span count, self seconds) per span name id."""
        name, start, end, parent = self._arrays()
        dur = end - start
        covered = np.zeros(dur.size)
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        k = len(self.names)
        return np.bincount(name, minlength=k), np.bincount(name, weights=dur - covered, minlength=k)

    def layer_metrics(self) -> dict[str, float]:
        counts, self_s = self.self_times()
        by_name = {n: (int(counts[i]), float(self_s[i])) for i, n in enumerate(self.names)}
        c = self.counts

        def n(span):
            return by_name.get(span, (0, 0.0))[0]

        def s(span):
            return by_name.get(span, (0, 0.0))[1]

        def frac(num, den):
            return float(num) / den if den else 0.0

        out = {
            "core.rv_new.count": n("core.rv_new"),
            "core.rv_new.atoms": c["core.rv_new.atoms"],
            "core.rv_new.self_s": s("core.rv_new"),
            "core.rv_new.presorted_frac": frac(c["core.rv_new.presorted"], n("core.rv_new")),
        }
        for layer in ("pwl", "golden", "flat", "compass"):
            out[f"solvers.{layer}.count"] = n(f"solvers.{layer}")
            out[f"solvers.{layer}.evals"] = c[f"solvers.{layer}.evals"]
            out[f"solvers.{layer}.self_s"] = s(f"solvers.{layer}")
        out.update(
            {
                "solvers.subgrad.count": n("solvers.subgrad"),
                "solvers.subgrad.iters": c["solvers.subgrad.iters"],
                "solvers.subgrad.converged_frac": frac(c["solvers.subgrad.converged"], n("solvers.subgrad")),
                "solvers.subgrad.self_s": s("solvers.subgrad"),
                "solvers.lp.count": n("solvers.lp"),
                "solvers.lp.rows": c["solvers.lp.rows"],
                "solvers.lp.cols": c["solvers.lp.cols"],
                "solvers.lp.bound_rows": c["solvers.lp.bound_rows"],
                "solvers.lp.nonoptimal": c["solvers.lp.nonoptimal"],
                "solvers.lp.self_s": s("solvers.lp"),
                "divergence.phi_conj.calls": n("divergence.phi_conj"),
                "divergence.phi_conj.elems": c["divergence.phi_conj.elems"],
                "divergence.phi_conj.self_s": s("divergence.phi_conj"),
                "cli.ingest.self_s": s("cli.ingest"),
                "cli.exit_nonzero": c["cli.exit_nonzero"],
            }
        )
        for span in (
            "constructions.project_error",
            "constructions.regret_to_risk",
            "measures.functional",
            "divergence.family_eval_envelope",
            "dual.envelope_sup",
            "regression.fit_linear",
            "regression.track_statistic",
            "robust.dro_solve",
            "robust.portfolio_optimize",
            "robust.epi",
            "cli.main",
        ):
            out[f"{span}.count"] = n(span)
            out[f"{span}.self_s"] = s(span)
        out["trace.spans"] = len(self.start)
        return out

    def dump(self, path: str) -> None:
        """Write every span plus the name table (``np.load`` reads it back)."""
        name, start, end, parent = self._arrays()
        op = np.frombuffer(self.op_of, dtype=np.int32) if len(self.op_of) else np.zeros(0, np.int32)
        np.savez(path, name=name, start=start, end=end, parent=parent, op=op, names=np.array(json.dumps(self.names)))
