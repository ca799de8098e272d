"""Distributionally robust portfolio optimization over divergence balls and
epi-regularization of risk/regret functionals by infimal convolution.

The DRO solve works in the shifted-regret form min_{w,C} C + V_tau(l_w - C),
with V_tau the perspective family of the divergence's conjugate; the
worst-case density comes from one envelope ascent at the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import DiscreteRv
from .constructions import RegretFn, Flags
from .divergence import DivergenceFn, StochasticDivergenceJ, family_eval_envelope, perspective_inf
from .dual import Envelope
from .solvers import LpProblem, bisect_root, compass_search, minimize_multistart, minimize_scalar_convex, solve_lp

__all__ = [
    "DroProblem",
    "DroSolution",
    "EpiSpec",
    "dro_solve",
    "epi_risk_primal",
    "epi_risk_dual",
    "epi_regret",
    "epi_regret_fn",
    "epi_regret_divroot",
    "portfolio_optimize",
    "kernel_quadratic_regret",
    "kernel_l2_regret",
]

@dataclass(frozen=True)
class DroProblem:
    """Portfolio DRO: scenarios (rows = atoms, columns = assets), a divergence
    ball of radius tau, simplex weights with an optional mean-return target."""

    scenarios: np.ndarray
    probs: np.ndarray
    phi: DivergenceFn
    tau: float
    target_mean: Optional[float] = None

    def __init__(self, scenarios, phi, tau, probs=None, target_mean=None):
        s = np.atleast_2d(np.asarray(scenarios, dtype=float))
        m = s.shape[0]
        if probs is None:
            p = np.full(m, 1.0 / m)
        else:
            p = np.asarray(probs, dtype=float).ravel()
            if p.size != m:
                raise ValueError("probs length mismatch")
            p = p / p.sum()
        if tau <= 0:
            raise ValueError("tau must be positive")
        object.__setattr__(self, "scenarios", s)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "tau", float(tau))
        object.__setattr__(self, "target_mean", target_mean)


@dataclass
class DroSolution:
    weights: np.ndarray
    value: float
    worst_case_density: np.ndarray
    route_gap: float
    density_approximate: bool


def _project_simplex(w: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {w >= 0, sum w = 1}."""
    n = w.size
    u = np.sort(w)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, n + 1) > (css - 1.0))[0][-1]
    theta = (css[rho] - 1.0) / float(rho + 1)
    return np.maximum(w - theta, 0.0)


def _project_simplex_mean(w, means, mu, iters=200):
    """Dykstra alternation between the simplex and the mean hyperplane."""
    a = means
    an = float(np.dot(a, a)) or 1.0
    x = w.copy()
    p_inc = np.zeros_like(x)
    q_inc = np.zeros_like(x)
    for _ in range(iters):
        y = _project_simplex(x + p_inc)
        p_inc = x + p_inc - y
        x2 = y + q_inc
        x2 = x2 - (float(np.dot(a, x2)) - mu) * a / an
        q_inc = y + q_inc - x2
        x = x2
    return _project_simplex(x)


def _phi_family_regret(phi: DivergenceFn, tau: float) -> Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]]:
    """V_tau on value vectors; returns the value and a supergradient density."""

    def eval_with_grad(values: np.ndarray, probs: np.ndarray) -> tuple[float, np.ndarray]:
        val, lam = perspective_inf(lambda lam: float(np.dot(probs, phi.phi_conj(values / lam))), tau)
        if phi.conj_grad is not None:
            q = np.asarray(phi.conj_grad(values / lam), dtype=float)
        else:
            h = 1e-6
            q = np.array(
                [
                    (float(np.asarray(phi.phi_conj(np.array([(v + h) / lam])))[0]) - float(np.asarray(phi.phi_conj(np.array([(v - h) / lam])))[0]))
                    / (2 * h)
                    for v in values
                ]
            )
        return val, q

    return eval_with_grad


def dro_solve(p: DroProblem, steps: int = 2500, seed: int = 0, should_stop=None) -> DroSolution:
    """min over the feasible simplex of the worst-case expected portfolio loss.

    Solved in the shifted-regret form over (w, C); the envelope route at the
    returned decision provides the worst-case density and the route gap.
    """
    s, pr = p.scenarios, p.probs
    m, n_assets = s.shape
    means = pr @ s
    if p.target_mean is not None:
        lo, hi = float(means.min()), float(means.max())
        if not lo - 1e-12 <= p.target_mean <= hi + 1e-12:
            raise ValueError(f"target mean {p.target_mean} outside achievable [{lo}, {hi}]")
    family = _phi_family_regret(p.phi, p.tau)
    rng = np.random.default_rng(seed)

    def losses(w):
        return -(s @ w)

    def obj(theta):
        w, c = theta[:n_assets], theta[n_assets]
        val, _ = family(losses(w) - c, pr)
        return c + val

    def grad(theta):
        w, c = theta[:n_assets], theta[n_assets]
        _, q = family(losses(w) - c, pr)
        g = np.zeros_like(theta)
        # d/dw of E[Q (l_w - C)] with l_w = -s w
        g[:n_assets] = -(s.T @ (pr * q))
        g[n_assets] = 1.0 - float(np.dot(pr, q))
        return g

    def project(theta):
        out = theta.copy()
        if p.target_mean is None:
            out[:n_assets] = _project_simplex(out[:n_assets])
        else:
            out[:n_assets] = _project_simplex_mean(out[:n_assets], means, p.target_mean)
        return out

    w0s = [np.full(n_assets, 1.0 / n_assets) if trial == 0 else rng.dirichlet(np.ones(n_assets)) for trial in range(3)]
    starts = [project(np.concatenate([w0, [float(np.dot(pr, losses(w0)))]])) for w0 in w0s]
    best_theta, best, _ = minimize_multistart(
        obj, starts, grad, project, steps=steps, tol=1e-11, polish_step=0.2, polish_tol=1e-8, max_iter=2000, should_stop=should_stop
    )

    # final polish on the partially minimized objective G(w) = min_C (...):
    # the inner golden absorbs the stiffness of extreme radii
    def project_w(w):
        if p.target_mean is None:
            return _project_simplex(w)
        return _project_simplex_mean(w, means, p.target_mean)

    if p.phi.risk_search is not None:
        def g_of_w(w):
            return p.phi.risk_search(DiscreteRv(losses(w), pr), p.tau)[0]

    else:
        def g_of_w(w):
            def h(c):
                val, _ = family(losses(w) - c, pr)
                return c + val

            _, val = minimize_scalar_convex(h, tol=1e-9, hint=float(np.dot(pr, losses(w))))
            return val

    w_polish, f_polish = compass_search(g_of_w, best_theta[:n_assets], step=0.25, project=project_w, tol=1e-8)
    if f_polish < best:
        best = f_polish
        best_theta = np.concatenate([w_polish, [best_theta[n_assets]]])
    w_star = best_theta[:n_assets]
    loss_rv_vals = losses(w_star)
    j = StochasticDivergenceJ.from_phi(p.phi, normalized=True)
    env_val, q_star = family_eval_envelope(j, p.tau, DiscreteRv(loss_rv_vals, pr))
    # the envelope call canonicalizes atoms; recover a density per original atom
    q_map = _density_on_original_atoms(loss_rv_vals, pr, q_star)
    gap = abs(env_val - best)
    return DroSolution(
        weights=w_star,
        value=best,
        worst_case_density=q_map,
        route_gap=gap,
        density_approximate=gap > 1e-6,
    )


def _density_on_original_atoms(values, probs, q_canonical) -> np.ndarray:
    canon = DiscreteRv(values, probs)
    out = np.empty(len(values))
    for i, v in enumerate(values):
        j = int(np.searchsorted(canon.values, v))
        j = min(max(j, 0), canon.values.size - 1)
        if abs(canon.values[j] - v) > 1e-12:
            j = int(np.argmin(np.abs(canon.values - v)))
        out[i] = q_canonical[j]
    return out


def dro_envelope_value(p: DroProblem, w) -> float:
    """Envelope-route objective at a fixed decision."""
    j = StochasticDivergenceJ.from_phi(p.phi, normalized=True)
    val, _ = family_eval_envelope(j, p.tau, DiscreteRv(-(p.scenarios @ np.asarray(w)), p.probs))
    return val


# -- epi-regularization ------------------------------------------------------------


@dataclass(frozen=True)
class EpiSpec:
    """Epi-regularization data: base risk (with its regret when available),
    a kernel regret, and the smoothing weight epsilon > 0.

    kernel_conj_scalar, when present, declares the kernel conjugate separable:
    kernel*(Q) = E[g(Q)] with g the scalar function; this unlocks an exact
    per-atom dual solve over box-plus-hyperplane envelopes.
    """

    base_risk: Callable[[DiscreteRv], float]
    kernel: Callable[[DiscreteRv], float]
    epsilon: float
    base_regret: Optional[Callable[[DiscreteRv], float]] = None
    base_envelope: Optional[Envelope] = None
    kernel_conj: Optional[Callable[[np.ndarray, np.ndarray], float]] = None
    kernel_conj_scalar: Optional[Callable[[float], float]] = None
    label: str = ""

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


def _inf_convolution(outer: Callable[[DiscreteRv], float], kernel, epsilon, x: DiscreteRv, starts, seed) -> float:
    """inf_Y outer(X - Y) + kernel(eps Y)/eps over atom-dimensional Y.

    Convex in Y; a deterministic compass descent from Y = 0 (where the value
    upper-bounds outer(X)) does the work, with optional restarts to escape
    nonsmooth coordinate traps.
    """
    p = x.probs
    vals = x.values
    m = vals.size
    rng = np.random.default_rng(seed)
    span = max(1.0, float(vals[-1] - vals[0]))

    def obj(yvec):
        a = outer(DiscreteRv(vals - yvec, p))
        b = kernel(DiscreteRv(epsilon * yvec, p)) / epsilon
        return a + b

    best_y, best = np.zeros(m), obj(np.zeros(m))
    for trial in range(max(starts, 1)):
        y0 = np.zeros(m) if trial == 0 else rng.normal(scale=0.3 * span, size=m)
        ys, fs = compass_search(obj, y0, step=0.5 * span, tol=1e-12, diagonals=True)
        if fs < best - 1e-14 * (1.0 + abs(best)):
            best, best_y = fs, ys
    return best


def epi_risk_primal(spec: EpiSpec, x: DiscreteRv, starts: int = 3, seed: int = 0) -> float:
    """inf_Y R(X - Y) + kernel(eps Y)/eps."""
    return _inf_convolution(spec.base_risk, spec.kernel, spec.epsilon, x, starts, seed)


def epi_regret(spec: EpiSpec, x: DiscreteRv, starts: int = 1, seed: int = 0) -> float:
    """inf_Y V(X - Y) + kernel(eps Y)/eps for the base regret V."""
    if spec.base_regret is None:
        raise ValueError("spec carries no base regret")
    return _inf_convolution(spec.base_regret, spec.kernel, spec.epsilon, x, starts, seed)


def epi_regret_fn(spec: EpiSpec, starts: int = 1, seed: int = 0) -> RegretFn:
    return RegretFn(fn=lambda x: epi_regret(spec, x, starts=starts, seed=seed), flags=Flags(False, False, False))


def epi_risk_dual(spec: EpiSpec, x: DiscreteRv, steps: int = 4000, seed: int = 0) -> float:
    """sup_{Q in dom R*} E[QX] - kernel*(Q)/eps for positively homogeneous
    base risks (R* vanishes on its domain, the base envelope)."""
    env = spec.base_envelope
    if env is None or (spec.kernel_conj is None and spec.kernel_conj_scalar is None):
        raise ValueError("dual evaluation needs the base envelope and kernel conjugate")
    if (
        spec.kernel_conj_scalar is not None
        and env.polyhedral
        and env.a_ub is None
        and env.a_eq is not None
        and env.a_eq.shape[0] == 1
    ):
        return _epi_dual_waterfill(spec, x)
    p = x.probs
    vals = x.values
    inv_eps = 1.0 / spec.epsilon
    center = env.center.astype(float)

    def obj(q):
        pen = spec.kernel_conj(q, p)
        if not math.isfinite(pen):
            return -math.inf
        return float(np.dot(p, q * vals)) - inv_eps * pen

    def neg(q):
        return -obj(q)

    def project(q):
        q = q.copy()
        if env.lb is not None:
            q = np.maximum(q, env.lb)
        if env.ub is not None:
            q = np.minimum(q, env.ub)
        if env.a_eq is not None and env.a_eq.shape[0] == 1:
            # box + single hyperplane: water-filling by bisection
            a, b = env.a_eq[0], float(env.b_eq[0])
            lo_s, hi_s = -1e6, 1e6

            def mass(shift):
                qq = q + shift * a
                if env.lb is not None:
                    qq = np.maximum(qq, env.lb)
                if env.ub is not None:
                    qq = np.minimum(qq, env.ub)
                return float(np.dot(a, qq)) - b

            root = bisect_root(mass, lo_s, hi_s, iters=120)
            q = q + root * a
            if env.lb is not None:
                q = np.maximum(q, env.lb)
            if env.ub is not None:
                q = np.minimum(q, env.ub)
        # restore kernel-domain feasibility toward the center
        if not math.isfinite(spec.kernel_conj(q, p)):
            lo_t, hi_t = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo_t + hi_t)
                if math.isfinite(spec.kernel_conj(center + mid * (q - center), p)):
                    lo_t = mid
                else:
                    hi_t = mid
            q = center + lo_t * (q - center)
        return q

    _, fs, res = minimize_multistart(
        neg, [center.copy()], project=project, steps=steps, tol=1e-13, polish_step=0.3, polish_tol=1e-13
    )
    return -min(fs, res.value)


def _epi_dual_waterfill(spec: EpiSpec, x: DiscreteRv) -> float:
    """Exact dual over a box-plus-hyperplane envelope with separable penalty.

    Per atom, q_i(mu) maximizes q (x_i - mu) - g(q)/eps over the box slice;
    the hyperplane multiplier mu is fixed by bisection on the total mass,
    which is monotone in mu.
    """
    env = spec.base_envelope
    g = spec.kernel_conj_scalar
    inv_eps = 1.0 / spec.epsilon
    v, p = x.values, x.probs
    m = v.size
    lb = env.lb if env.lb is not None else np.full(m, -1e9)
    ub = env.ub if env.ub is not None else np.full(m, 1e9)

    def q_of(mu: float) -> np.ndarray:
        out = np.empty(m)
        for i in range(m):
            def neg(qv, i=i, mu=mu):
                return -(qv * (v[i] - mu) - inv_eps * g(qv))

            qi, _ = minimize_scalar_convex(neg, tol=1e-13, bracket=(float(lb[i]), float(ub[i])))
            out[i] = qi
        return out

    def mass(mu: float) -> float:
        return float(np.dot(env.a_eq[0], q_of(mu))) - float(env.b_eq[0])

    lo, hi = float(v[0]) - 1.0, float(v[-1]) + 1.0
    span = float(v[-1] - v[0]) + 1.0
    for _ in range(100):
        if mass(lo) >= 0:
            break
        lo -= span
        span *= 2.0
    span = float(v[-1] - v[0]) + 1.0
    for _ in range(100):
        if mass(hi) <= 0:
            break
        hi += span
        span *= 2.0
    mu = bisect_root(mass, lo, hi, iters=200)
    q = q_of(mu)
    return float(np.dot(p, q * v)) - inv_eps * float(np.dot(p, np.array([g(qi) for qi in q])))


def epi_regret_divroot(
    base_box: tuple[np.ndarray, np.ndarray],
    kernel_phi: DivergenceFn,
    epsilon: float,
    x: DiscreteRv,
) -> float:
    """sup_{Q in box} E[QX] - E[phi(Q)]/eps for per-atom box domains.

    dom V* of a coherent regret like the tail-average regret is a per-atom
    box, so the supremum splits into independent one-dimensional concave
    maximizations.
    """
    lo, hi = base_box
    v, p = x.values, x.probs
    total = 0.0
    for i in range(v.size):
        def neg(qi):
            val = float(np.asarray(kernel_phi.phi(np.array([qi])))[0])
            if not math.isfinite(val):
                return math.inf
            return -(qi * v[i] - val / epsilon)

        qi_star, fneg = minimize_scalar_convex(neg, tol=1e-13, bracket=(float(lo[i]), float(hi[i])))
        total += p[i] * (-fneg)
    return total


def kernel_quadratic_regret() -> tuple[Callable, Callable, Callable]:
    """V(Y) = E[Y + Y^2]; conjugate V*(Q) = E[(Q-1)^2]/4, separable."""

    def kernel(y: DiscreteRv) -> float:
        return y.moment(lambda v: v + v * v)

    def conj(q, p):
        q = np.asarray(q, dtype=float)
        return float(np.dot(p, (q - 1.0) ** 2)) / 4.0

    def conj_scalar(qv: float) -> float:
        return (qv - 1.0) ** 2 / 4.0

    return kernel, conj, conj_scalar


def kernel_l2_regret(lam: float = 1.0) -> tuple[Callable, Callable]:
    """V(Y) = E[Y] + lam ||Y||_2; conjugate is the indicator of the ball
    ||Q - 1||_2 <= lam."""

    def kernel(y: DiscreteRv) -> float:
        return y.mean() + lam * math.sqrt(max(y.moment(lambda v: v * v), 0.0))

    def conj(q, p):
        q = np.asarray(q, dtype=float)
        return 0.0 if float(np.dot(p, (q - 1.0) ** 2)) <= lam * lam + 1e-12 else math.inf

    return kernel, conj


# -- portfolio front end ----------------------------------------------------------


def portfolio_optimize(
    risk,
    returns,
    probs=None,
    target_mean: Optional[float] = None,
    cvar_alpha: Optional[float] = None,
    steps: int = 3000,
    seed: int = 0,
) -> tuple[np.ndarray, float]:
    """min over the simplex of risk(-w.X) via the shifted-regret form.

    ``risk`` is a Quadrangle or a bare risk functional; tail-average risks
    route to an exact LP when cvar_alpha is given.
    """
    s = np.atleast_2d(np.asarray(returns, dtype=float))
    m, n_assets = s.shape
    p = np.full(m, 1.0 / m) if probs is None else np.asarray(probs, dtype=float) / np.sum(probs)
    means = p @ s
    if target_mean is not None:
        lo, hi = float(means.min()), float(means.max())
        if not lo - 1e-12 <= target_mean <= hi + 1e-12:
            raise ValueError(f"target mean {target_mean} outside achievable [{lo}, {hi}]")
    if cvar_alpha is not None:
        return _portfolio_cvar_lp(s, p, cvar_alpha, means, target_mean)

    risk_fn = risk.risk if hasattr(risk, "risk") else risk
    rng = np.random.default_rng(seed)

    def obj(w):
        return risk_fn(DiscreteRv(-(s @ w), p))

    def project(w):
        if target_mean is None:
            return _project_simplex(w)
        return _project_simplex_mean(w, means, target_mean)

    w0s = [np.full(n_assets, 1.0 / n_assets) if trial == 0 else rng.dirichlet(np.ones(n_assets)) for trial in range(3)]
    return minimize_multistart(
        obj, [project(w0) for w0 in w0s], project=project, steps=steps, tol=1e-11, polish_step=0.2, polish_tol=1e-12
    )[:2]


def _portfolio_cvar_lp(s, p, alpha, means, target_mean):
    m, n_assets = s.shape
    inv = 1.0 / (1.0 - alpha)
    # variables: w (n), C, u (m)
    nv = n_assets + 1 + m
    c = np.zeros(nv)
    c[n_assets] = 1.0
    c[n_assets + 1 :] = inv * p
    rows, rhs = [], []
    for i in range(m):
        # u_i >= -s_i.w - C
        row = np.zeros(nv)
        row[:n_assets] = -s[i]
        row[n_assets] = -1.0
        row[n_assets + 1 + i] = -1.0
        rows.append(row)
        rhs.append(0.0)
    a_eq = [np.concatenate([np.ones(n_assets), np.zeros(1 + m)])]
    b_eq = [1.0]
    if target_mean is not None:
        a_eq.append(np.concatenate([means, np.zeros(1 + m)]))
        b_eq.append(target_mean)
    bounds = [(0.0, None)] * n_assets + [(None, None)] + [(0.0, None)] * m
    sol = solve_lp(
        LpProblem(
            c=c,
            a_eq=np.asarray(a_eq),
            b_eq=np.asarray(b_eq),
            a_ub=np.asarray(rows),
            b_ub=np.asarray(rhs),
            bounds=bounds,
        )
    )
    if sol.status != "optimal":
        raise RuntimeError(f"portfolio LP {sol.status}")
    w = sol.x[:n_assets]
    return w, float(sol.objective)
