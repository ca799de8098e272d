"""Shared sampling helpers for the test suite."""

import dataclasses

import numpy as np

from riskquad.core import DiscreteRv, sample_rvs
from riskquad.divergence import make_divergence_quadrangle
from riskquad.solvers import compass_search


def random_rv(rng, max_atoms=8, span=3.0, offset=0.0):
    return sample_rvs(rng, 1, max_atoms=max_atoms, span=span, offset=offset)[0]


def random_rvs(rng, n, **kw):
    return sample_rvs(rng, n, **kw)


def interval_gap(a, b):
    return max(abs(a.lo - b.lo), abs(a.hi - b.hi))


# the catalog families whose error and regret carry LP data (affine loss pieces or a moment-max form)
LP_FAMILIES = [
    ("quantile", {"alpha": 0.2}),
    ("quantile", {"alpha": 0.5}),
    ("quantile", {"alpha": 0.85}),
    ("qsau", {"eps": 0.3}),
    ("mean_pl", {}),
    ("expectile_pl", {"K": 0.5}),
    ("biased_mean", {"x": 0.4}),
]


def within(a, b, rel=1e-12):
    """|a - b| <= rel * (1 + |b|)."""
    return abs(a - b) <= rel * (1.0 + abs(b))


def generic_divergence_quadrangle(div, beta):
    """The quadrangle of ``div`` at ``beta`` without its closed forms: the
    phi-regret projected by golden section, the oracle for the closed routes."""
    return make_divergence_quadrangle(dataclasses.replace(div, closed_forms=None), beta)


def inf_convolution(outer, kernel, epsilon, x, starts=1, seed=0):
    """inf_Y outer(X - Y) + kernel(eps Y)/eps over atom-dimensional Y, by
    compass search from Y = 0 (where the value upper-bounds outer(X)) with
    optional random restarts: the oracle for the epi routes' exact duals."""
    vals = x.values
    rng = np.random.default_rng(seed)
    span = max(1.0, float(vals[-1] - vals[0]))

    def obj(y):
        return outer(DiscreteRv(vals - y, x.probs)) + kernel(DiscreteRv(epsilon * y, x.probs)) / epsilon

    best = obj(np.zeros(vals.size))
    for trial in range(max(starts, 1)):
        y0 = np.zeros(vals.size) if trial == 0 else rng.normal(scale=0.3 * span, size=vals.size)
        best = min(best, compass_search(obj, y0, step=0.5 * span, tol=1e-12, diagonals=True)[1])
    return best


def epi_l2_slsqp(v, p, alpha, lam):
    """max E[QX] over the CVaR_alpha envelope cut by the ball E(Q - 1)^2 <= lam^2,
    by SLSQP (scipy): the oracle for the L2 kernel's epi dual."""
    from scipy.optimize import minimize

    cons = [
        {"type": "eq", "fun": lambda q: p @ q - 1.0, "jac": lambda q: p},
        {"type": "ineq", "fun": lambda q: lam * lam - p @ (q - 1.0) ** 2, "jac": lambda q: -2.0 * p * (q - 1.0)},
    ]
    res = minimize(
        lambda q: -(p @ (q * v)),
        np.ones(v.size),
        jac=lambda q: -(p * v),
        bounds=[(0.0, 1.0 / (1.0 - alpha))] * v.size,
        constraints=cons,
        method="SLSQP",
        options={"ftol": 1e-16, "maxiter": 1000},
    )
    assert res.success, res.message
    return -res.fun
