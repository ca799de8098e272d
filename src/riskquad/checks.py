"""Sampled invariant suite for quadrangles, shared by tests and the CLI."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DiscreteRv, ess_bounds, sample_rvs
from .constructions import Quadrangle, project_error, regret_to_risk

__all__ = ["CheckResult", "run_quadrangle_checks", "sample_rvs"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def run_quadrangle_checks(q: Quadrangle, rng: Optional[np.random.Generator] = None, n_rvs: int = 20) -> list[CheckResult]:
    """Constant fidelity, the mean-centering identities, route agreement of the
    two argmin intervals, translation covariance, and the declared flags."""
    rng = rng or np.random.default_rng(0)
    rvs = sample_rvs(rng, n_rvs)
    results: list[CheckResult] = []

    worst = 0.0
    for c in (-2.0, 0.0, 1.3):
        x = DiscreteRv.constant(c)
        worst = max(worst, abs(q.risk(x) - c), abs(q.deviation(x)))
    results.append(CheckResult("constant_fidelity", worst <= 1e-9, f"max gap {worst:.2e}"))

    zero = DiscreteRv.constant(0.0)
    worst = max(abs(q.error(zero)), abs(q.regret(zero)))
    results.append(CheckResult("zero_at_zero", worst <= 1e-9, f"max gap {worst:.2e}"))

    worst = 0.0
    for x in rvs:
        m = x.mean()
        worst = max(worst, abs(q.risk(x) - q.deviation(x) - m), abs(q.regret(x) - q.error(x) - m))
    results.append(CheckResult("mean_centering", worst <= 1e-9, f"max gap {worst:.2e}"))

    if q.error_fn is not None and q.regret_fn is not None:
        worst_i = worst_v = 0.0
        for x in rvs:
            d1, s1 = project_error(q.error_fn, x)
            r2, s2 = regret_to_risk(q.regret_fn, x)
            worst_i = max(worst_i, abs(s1.lo - s2.lo), abs(s1.hi - s2.hi))
            worst_v = max(worst_v, abs(r2 - x.mean() - d1))
        results.append(CheckResult("statistic_route_agreement", worst_i <= 1e-7, f"max endpoint gap {worst_i:.2e}"))
        results.append(CheckResult("projection_route_agreement", worst_v <= 1e-7, f"max value gap {worst_v:.2e}"))

    worst = 0.0
    for x in rvs[: min(8, len(rvs))]:
        s = q.statistic(x)
        for c in (-1.7, 2.4):
            sc = q.statistic(x.shift(c))
            worst = max(worst, abs(sc.lo - s.lo - c), abs(sc.hi - s.hi - c))
    results.append(CheckResult("statistic_translation", worst <= 1e-9, f"max gap {worst:.2e}"))

    if q.flags.positively_homogeneous:
        worst = 0.0
        for x in rvs[:6]:
            for lam in (0.5, 2.0, 7.0):
                for fn in (q.risk, q.deviation, q.regret, q.error):
                    a, b = fn(x.scale(lam)), lam * fn(x)
                    worst = max(worst, abs(a - b) / (1.0 + abs(b)))
        results.append(CheckResult("positive_homogeneity", worst <= 1e-9, f"max rel gap {worst:.2e}"))

    if q.flags.monotone:
        ok = True
        worst = 0.0
        for x in rvs[:8]:
            bump = np.abs(rng.uniform(0.0, 1.0, x.n_atoms))
            y = DiscreteRv(x.values + bump, x.probs)
            gap = q.risk(x) - q.risk(y)
            worst = max(worst, gap)
            ok &= gap <= 1e-9
        results.append(CheckResult("monotonicity", ok, f"max violation {worst:.2e}"))

        worst = 0.0
        for x in rvs[:8]:
            worst = max(worst, q.deviation(x) - (ess_bounds(x)[1] - x.mean()))
        results.append(CheckResult("deviation_upper_bound", worst <= 1e-9, f"max excess {worst:.2e}"))

    return results
