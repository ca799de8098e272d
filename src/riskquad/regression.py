"""Generalized linear regression: minimizing quadrangle errors of residuals.

Errors with LP data (affine loss pieces or a moment-max form) go through one
exact LP, ``minimize_affine``; other errors run a multi-start subgradient
descent with a compass polish.  The fitted residual statistic certifies the
tracking property 0 in S(residual).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DiscreteRv, StatInterval, cvar_direct
from .constructions import ErrorFn, Quadrangle, lp_encodable, minimize_affine, project_error
from .measures import CATALOG_FAMILIES, CatalogSpec, make_catalog_quadrangle
from .solvers import minimize_multistart

__all__ = [
    "Dataset",
    "FitResult",
    "fit_linear",
    "regression_equivalence_check",
    "track_statistic",
    "fit_named",
    "named_quadrangle",
    "nu_svc",
    "NAMED_MODELS",
]

NAMED_MODELS = ("quantile", "expectile_pl", "expectile_mse", "svr", "mean_pl", "biased_mean")

# a named model's catalog family is its own name, except for these
_MODEL_FAMILY = {"svr": "qsau"}


@dataclass(frozen=True)
class Dataset:
    """Observations (rows) of regressors plus a target, with atom weights."""

    features: np.ndarray
    target: np.ndarray
    weights: np.ndarray

    def __init__(self, features, target, weights=None):
        f = np.atleast_2d(np.asarray(features, dtype=float))
        t = np.asarray(target, dtype=float).ravel()
        if f.shape[0] != t.size:
            f = f.T
        if f.shape[0] != t.size:
            raise ValueError("row counts of features and target disagree")
        if weights is None:
            w = np.full(t.size, 1.0 / t.size)
        else:
            w = np.asarray(weights, dtype=float).ravel()
            if w.size != t.size:
                raise ValueError("weights length mismatch")
            if np.any(w < 0):
                raise ValueError("negative weight")
            s = float(w.sum())
            if abs(s - 1.0) > 1e-9:
                raise ValueError(f"weights sum to {s}, not 1")
            w = w / s
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "target", t)
        object.__setattr__(self, "weights", w)

    @property
    def n_obs(self) -> int:
        return self.target.size

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass
class FitResult:
    intercept: float
    coefficients: np.ndarray
    objective: float
    residual_rv: DiscreteRv
    statistic_of_residual: StatInterval
    nonunique: bool = False

    def predict(self, features) -> np.ndarray:
        f = np.atleast_2d(np.asarray(features, dtype=float))
        return self.intercept + f @ self.coefficients


def _residual_rv(data: Dataset, intercept: float, coefs: np.ndarray) -> DiscreteRv:
    z = data.target - intercept - data.features @ coefs
    return DiscreteRv(z, data.weights)


def _fit_numeric(err: ErrorFn, data: Dataset, seed: int, steps: int) -> tuple[np.ndarray, float]:
    rng = np.random.default_rng(seed)
    n, d = data.n_obs, data.n_features

    def obj(beta):
        return err.fn(_residual_rv(data, beta[0], beta[1:]))

    # least-squares start plus perturbations
    design = np.hstack([np.ones((n, 1)), data.features])
    ls, *_ = np.linalg.lstsq(design, data.target, rcond=None)
    starts = [ls.copy(), np.zeros(1 + d)] + [ls + rng.normal(scale=0.5, size=1 + d) for _ in range(3)]
    return minimize_multistart(obj, starts, steps=steps, tol=1e-12, polish_step=0.5, polish_tol=1e-12)[:2]


def fit_linear(
    err: ErrorFn,
    data: Dataset,
    seed: int = 0,
    steps: int = 4000,
) -> FitResult:
    """Minimize err(Y - c0 - X.c) over intercept and coefficients."""
    nonunique = False
    if lp_encodable(err):
        # theta = (intercept, slopes), the residuals y - [1, X] theta
        design = np.hstack([np.ones((data.n_obs, 1)), data.features])
        term = (err, design, data.target, data.weights, 1.0)
        beta, objective, nonunique = minimize_affine([term], np.zeros(design.shape[1]))
    else:
        beta, objective = _fit_numeric(err, data, seed, steps)
    resid = _residual_rv(data, beta[0], beta[1:])
    _, stat = project_error(err, resid)
    return FitResult(
        intercept=float(beta[0]),
        coefficients=np.asarray(beta[1:], dtype=float),
        objective=float(objective),
        residual_rv=resid,
        statistic_of_residual=stat,
        nonunique=nonunique,
    )


def regression_equivalence_check(err: ErrorFn, data: Dataset, seed: int = 0) -> dict:
    """Compare unconstrained error minimization with the constrained
    deviation form (deviation minimized over slopes, intercept shifted so
    zero enters the residual statistic)."""
    fit = fit_linear(err, data, seed=seed)

    def dev_obj(coefs):
        z = data.target - data.features @ coefs
        return project_error(err, DiscreteRv(z, data.weights))[0]

    start = fit.coefficients.copy()
    coefs, dval, _ = minimize_multistart(dev_obj, [start], steps=1500, tol=1e-12, polish_step=0.25, polish_tol=1e-12)
    z = data.target - data.features @ coefs
    resid0 = DiscreteRv(z, data.weights)
    _, stat = project_error(err, resid0)
    intercept = stat.midpoint
    shifted = resid0.shift(-intercept)
    constrained_error = err.fn(shifted)
    _, shifted_stat = project_error(err, shifted)
    return {
        "unconstrained_objective": fit.objective,
        "constrained_objective": constrained_error,
        "deviation_value": dval,
        "tracking": shifted_stat.contains(0.0, tol=1e-7),
        "gap": abs(fit.objective - constrained_error),
    }


def track_statistic(fit: FitResult, quartet: Quadrangle, tol: float = 1e-7) -> bool:
    """Whether zero lies in the quadrangle statistic of the fitted residual."""
    return quartet.statistic(fit.residual_rv).contains(0.0, tol=tol)


def named_quadrangle(model: str, **params) -> Quadrangle:
    """The catalog quadrangle of a named estimator; extra params are ignored.

    quantile(alpha), expectile_pl(K), expectile_mse(q), svr(eps) on the qsau
    family, mean_pl, biased_mean(x).
    """
    if model not in NAMED_MODELS:
        raise ValueError(f"unknown model {model!r}; choose from {NAMED_MODELS}")
    family = _MODEL_FAMILY.get(model, model)
    return make_catalog_quadrangle(CatalogSpec(family, {k: v for k, v in params.items() if k in CATALOG_FAMILIES[family]}))


def fit_named(model: str, data: Dataset, seed: int = 0, **params) -> FitResult:
    """Regression with the error of the named estimator's quadrangle."""
    return fit_linear(named_quadrangle(model, **params).error_fn, data, seed=seed)


def nu_svc(alpha: float, data: Dataset, seed: int = 0, steps: int = 6000) -> tuple[np.ndarray, float, float]:
    """Soft-margin classification: minimize the alpha-tail average of the
    margin loss -y (w.x + w0) over the unit ball in w.

    Returns (direction, intercept, objective), the objective being the exact
    tail average at the returned decision.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    y = data.target
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("targets must be -1/+1")
    f = data.features
    w = data.weights
    d = data.n_features
    rng = np.random.default_rng(seed)
    inv = 1.0 / (1.0 - alpha)

    def losses(theta):
        wb, w0 = theta[:d], theta[d]
        return -y * (f @ wb + w0)

    def obj(theta):
        c = theta[d + 1]
        ell = losses(theta)
        return c + inv * float(np.dot(w, np.maximum(ell - c, 0.0)))

    def grad(theta):
        c = theta[d + 1]
        ell = losses(theta)
        active = (ell - c) > 0
        g = np.zeros_like(theta)
        aw = w * active
        # d ell_i / d wb = -y_i x_i ; d ell_i / d w0 = -y_i
        g[:d] = inv * ((-y * aw) @ f)
        g[d] = inv * float(np.dot(aw, -y))
        g[d + 1] = 1.0 - inv * float(aw.sum())
        return g

    def project(theta):
        nb = float(np.linalg.norm(theta[:d]))
        if nb > 1.0:
            theta = theta.copy()
            theta[:d] /= nb
        return theta

    starts = [np.zeros(d + 2) if s == 0 else np.concatenate([rng.normal(size=d) * 0.5, [0.0, 0.0]]) for s in range(3)]
    best_theta, _, _ = minimize_multistart(obj, starts, grad, project, steps=steps, tol=1e-12, polish_step=0.25, polish_tol=1e-12)
    wb, w0 = best_theta[:d], float(best_theta[d])
    margin_rv = DiscreteRv(-y * (f @ wb + w0), w)
    objective = cvar_direct(margin_rv, alpha)
    return wb, w0, objective
