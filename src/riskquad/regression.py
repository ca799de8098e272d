"""Generalized linear regression: minimizing quadrangle errors of residuals.

Each error takes the first route its data allows: the exact program in
its boxed dual (``minimize_affine``: one LP, or a few rounds of it by
Dinkelbach's iteration for expectile_pl) for affine loss pieces or a
moment-max form, least squares with the residual signs' weights for
``square_weights`` (the L2 error and the asymmetric MSE), and otherwise
Kelley's cutting planes on its subgradient (``cutting_planes``), whose
certified gap the fit carries.  The fitted residual statistic certifies the
tracking property 0 in S(residual).
Soft-margin classification runs the same cutting planes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DiscreteRv, StatInterval, cvar_direct
from .constructions import ErrorFn, Flags, MomentMaxSpec, Quadrangle, affine_cut_oracle, error_from_moment_max, lp_encodable
from .constructions import minimize_affine, project_error
from .measures import CATALOG_FAMILIES, CatalogSpec, make_catalog_quadrangle
from .solvers import cutting_planes

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

# each named estimator's catalog family
_MODEL_FAMILY = {
    "quantile": "quantile",
    "expectile_pl": "expectile_pl",
    "expectile_mse": "expectile_mse",
    "svr": "qsau",
    "mean_pl": "mean_pl",
    "biased_mean": "biased_mean",
}

NAMED_MODELS = tuple(_MODEL_FAMILY)


@dataclass(frozen=True)
class Dataset:
    """Observations (rows) of regressors plus a target, with atom weights; a
    non-finite entry is refused."""

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
        for name, a in (("features", f), ("target", t)):
            if not np.isfinite(a).all():
                raise ValueError(f"{name} must be finite")
        if weights is None:
            w = np.full(t.size, 1.0 / t.size)
        else:
            w = np.asarray(weights, dtype=float).ravel()
            if not np.isfinite(w).all():
                raise ValueError("weights must be finite")
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
    # the certified gap of the objective: 0 on the exact routes
    gap: float = 0.0

    def predict(self, features) -> np.ndarray:
        f = np.atleast_2d(np.asarray(features, dtype=float))
        return self.intercept + f @ self.coefficients


def _residual_rv(data: Dataset, intercept: float, coefs: np.ndarray) -> DiscreteRv:
    z = data.target - intercept - data.features @ coefs
    return DiscreteRv(z, data.weights)


def _sign_weighted_least_squares(weights, design: np.ndarray, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """argmin over theta of E[w_- Z_-^2 + w_+ Z_+^2], Z = y - D theta: least
    squares with each residual weighted by its sign's weight, repeated until
    the signs repeat (Newey & Powell 1987).  A residual within 1e-12 max|y| of
    0 keeps its sign, as its weight moves the fit by rounding only."""
    w_neg, w_pos = weights
    noise = 1e-12 * float(np.max(np.abs(y)))
    up = np.ones(y.size, dtype=bool)
    for _ in range(100):
        root = np.sqrt(p * np.where(up, w_pos, w_neg))
        theta = np.linalg.lstsq(design * root[:, None], y * root, rcond=None)[0]
        z = y - design @ theta
        signs = np.where(np.abs(z) <= noise, up, z > 0.0)
        if np.array_equal(signs, up):
            return theta
        up = signs
    raise RuntimeError("sign-weighted least squares: the residual signs did not settle in 100 solves")


def _fit_planes(err: ErrorFn, design: np.ndarray, y: np.ndarray, p: np.ndarray):
    """min err(y - D theta) by ``cutting_planes`` in coordinates v of the
    design's column space, D theta = D theta_ls + scale U v, U orthonormal
    and scale max|y - D theta_ls| (max|y| on a perfect fit), so v and the
    cuts are unitless; the box around the least-squares fit v = 0 widens
    while the optimum lies on its face.  Returns theta, value and gap."""
    u, sv, vt = np.linalg.svd(design, full_matrices=False)
    r = int(np.count_nonzero(sv > sv[0] * max(design.shape) * np.finfo(float).eps))
    u, basis = u[:, :r], vt[:r].T / sv[:r]
    resid = y - u @ (u.T @ y)
    scale = float(np.max(np.abs(resid))) or float(np.max(np.abs(y))) or 1.0
    # |v| <= (||y - D theta_ls||_2 + ||Z*||_2) / scale, about 2 sqrt(n) for Z* like the residual
    width = 4.0 * np.sqrt(y.size)
    # a positively homogeneous error runs on Z / scale, its value scaled back
    unit = scale if err.flags.positively_homogeneous else 1.0
    oracle = affine_cut_oracle(err, (scale / unit) * u, resid / unit, p, np.zeros(r))
    res = cutting_planes(oracle, np.zeros(r), [(-width, width)] * r, rounds=500, scale=scale / unit, widen=range(r))
    return basis @ (u.T @ y + scale * res.x), unit * res.value, unit * res.gap


def fit_linear(err: ErrorFn, data: Dataset) -> FitResult:
    """Minimize err(Y - c0 - X.c) over intercept and coefficients, by the
    first route err's data allows: the exact dual program, sign-weighted least
    squares, or cutting planes (at most 500 rounds) on its
    subgradient.  Raises ValueError where err carries none of these."""
    nonunique, gap = False, 0.0
    # theta = (intercept, slopes), the residuals y - [1, X] theta
    design = np.hstack([np.ones((data.n_obs, 1)), data.features])
    if lp_encodable(err):
        beta, objective, nonunique = minimize_affine([(err, design, data.target, data.weights, 1.0)], np.zeros(design.shape[1]))
    elif err.square_weights is not None:
        beta, objective = _sign_weighted_least_squares(err.square_weights, design, data.target, data.weights), None
    else:
        beta, objective, gap = _fit_planes(err, design, data.target, data.weights)
    resid = _residual_rv(data, beta[0], beta[1:])
    _, stat = project_error(err, resid)
    return FitResult(
        intercept=float(beta[0]),
        coefficients=np.asarray(beta[1:], dtype=float),
        objective=float(err.fn(resid) if objective is None else objective),
        residual_rv=resid,
        statistic_of_residual=stat,
        nonunique=nonunique,
        gap=gap,
    )


def regression_equivalence_check(err: ErrorFn, data: Dataset) -> dict:
    """Compare unconstrained error minimization with the deviation form
    (regression theorem) at the fitted slopes: the deviation of the residual
    Y - X.c, and the error once the intercept, the midpoint of its
    statistic, puts zero in the statistic."""
    fit = fit_linear(err, data)
    resid0 = DiscreteRv(data.target - data.features @ fit.coefficients, data.weights)
    dval, stat = project_error(err, resid0)
    shifted = resid0.shift(-stat.midpoint)
    constrained_error = err.fn(shifted)
    _, shifted_stat = project_error(err, shifted)
    return {
        "unconstrained_objective": fit.objective,
        "constrained_objective": constrained_error,
        "deviation_value": dval,
        "tracking": shifted_stat.contains(0.0, tol=1e-7),
        "gap": abs(fit.objective - constrained_error),
    }


def track_statistic(fit: FitResult, quartet: Quadrangle) -> bool:
    """Whether zero lies, to 1e-7, in the quadrangle statistic of the fitted residual."""
    return quartet.statistic(fit.residual_rv).contains(0.0, tol=1e-7)


def named_quadrangle(model: str, **params) -> Quadrangle:
    """The catalog quadrangle of a named estimator; extra params are ignored.

    quantile(alpha), expectile_pl(K), expectile_mse(q), svr(eps) on the qsau
    family, mean_pl, biased_mean(x).
    """
    if model not in NAMED_MODELS:
        raise ValueError(f"unknown model {model!r}; choose from {NAMED_MODELS}")
    family = _MODEL_FAMILY[model]
    return make_catalog_quadrangle(CatalogSpec(family, {k: v for k, v in params.items() if k in CATALOG_FAMILIES[family]}))


def fit_named(model: str, data: Dataset, **params) -> FitResult:
    """Regression with the error of the named estimator's quadrangle."""
    return fit_linear(named_quadrangle(model, **params).error_fn, data)


def nu_svc(alpha: float, data: Dataset) -> tuple[np.ndarray, float, float]:
    """Soft-margin classification: minimize the alpha-tail average of the
    margin loss -y (w.x + w0) over the unit ball in w, by ``cutting_planes``
    (at most 500 rounds) on its Rockafellar-Uryasev form
    C + E[(loss - C)_+]/(1 - alpha) over theta = (w, w0, C), with ||w|| <= 1
    as tangent cuts (Takeda & Sugiyama 2008).  The form is positively
    homogeneous in theta, so each round evaluates theta scaled into the
    ball, and in (X, w0, C), so the rounds run on X / max||x_i||.  Returns
    (direction, intercept, objective), the exact tail average at the
    returned decision; raises RuntimeError when the rounds end with a gap
    above 1e-4 (1 + |value|).
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    y = data.target
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("targets must be -1/+1")
    f, d = data.features, data.n_features
    regret = error_from_moment_max(MomentMaxSpec(((0.0, 1.0 / (1.0 - alpha), 0.0),)), Flags())
    # loss - C = -(A theta), A = [y X / span, y, 1], w0 and C in units of span
    span = float(np.max(np.linalg.norm(f, axis=1))) or 1.0
    a = np.hstack((y[:, None] * f / span, y[:, None], np.ones((y.size, 1))))
    oracle = affine_cut_oracle(regret, a, np.zeros(y.size), data.weights, np.append(np.zeros(d + 1), 1.0))

    def into_ball(theta):
        return theta / max(1.0, float(np.linalg.norm(theta[:d])))

    def ball(theta):
        nb = float(np.linalg.norm(theta[:d]))
        return nb - 1.0, np.append(theta[:d] / max(nb, 1.0), [0.0, 0.0])

    bounds = [(-1.0, 1.0)] * d + [(-2.0, 2.0)] * 2
    res = cutting_planes(lambda theta: oracle(into_ball(theta)), np.zeros(d + 2), bounds, rounds=500, constraint=ball, widen=(d, d + 1))
    if res.gap > 1e-4 * (1.0 + abs(res.value)):
        raise RuntimeError(f"nu-SVC cutting planes ended at gap {span * res.gap:.3g}")
    theta = into_ball(res.x)
    wb, w0 = theta[:d], span * float(theta[d])
    return wb, w0, cvar_direct(DiscreteRv(-y * (f @ wb + w0), data.weights), alpha)
