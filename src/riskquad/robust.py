"""Distributionally robust portfolio optimization over divergence balls and
epi-regularization of risk/regret functionals by infimal convolution.

The DRO solve minimizes the worst-case expectation over the ball by
cutting planes on its envelope route, whose worst-case densities give the
cuts; epi-regularized risks are recovered from the exact dual where the
kernel conjugate is separable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import DiscreteRv
from .constructions import Flags, RegretFn, lp_encodable, minimize_affine
from .divergence import DivergenceFn, StochasticDivergenceJ, _per_atom_argmax, divergence_value, family_eval_envelope
from .dual import Envelope
from .measures import CatalogSpec, make_catalog_quadrangle
from .solvers import LpProblem, bisect_root, compass_search, minimize_multistart, solve_lp, widen_root

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
        p = _scenario_probs(probs, s.shape[0])
        if tau <= 0:
            raise ValueError("tau must be positive")
        object.__setattr__(self, "scenarios", s)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "tau", float(tau))
        object.__setattr__(self, "target_mean", target_mean)


def _scenario_probs(probs, m: int) -> np.ndarray:
    """The scenarios' probabilities scaled to sum 1, equal when None; a wrong
    length, a negative or non-finite entry or a zero sum is rejected."""
    if probs is None:
        return np.full(m, 1.0 / m)
    p = np.asarray(probs, dtype=float).ravel()
    if p.size != m:
        raise ValueError(f"{p.size} probabilities for {m} scenarios")
    if not np.all(np.isfinite(p)) or np.any(p < 0.0):
        raise ValueError("scenario probabilities must be finite and nonnegative")
    total = float(p.sum())
    if not 0.0 < total < math.inf:
        raise ValueError(f"scenario probabilities sum to {total}")
    return p / total


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
    w = w - w.max()  # shift-invariant; an entry far above 1 would otherwise swamp the unit sum
    u = np.sort(w)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, n + 1) > (css - 1.0))[0][-1]
    theta = (css[rho] - 1.0) / float(rho + 1)
    return np.maximum(w - theta, 0.0)


def _project_simplex_mean(w, means, mu):
    """Euclidean projection onto the simplex and the mean row means . x = mu.

    By the KKT conditions it is the simplex projection x(b) of w - b means at
    the b where the row holds.  means . x(b) does not increase in b (its
    slope is -|S| Var_S(means) over the support S), so b is bisected in a
    bracket that doubles outward.  mu is clipped into [min, max] of the
    means; at either end the row holds only on the face of the assets whose
    mean is mu.
    """
    lo_m, hi_m = float(means.min()), float(means.max())
    mu = min(max(mu, lo_m), hi_m)
    if mu in (lo_m, hi_m):
        x, face = np.zeros_like(w), means == mu
        x[face] = _project_simplex(w[face])
        return x

    def x_of(b):
        return _project_simplex(w - b * means)

    def excess(b):
        return float(np.dot(means, x_of(b))) - mu

    lo, hi = -1.0, 1.0
    for _ in range(1000):
        if excess(lo) >= 0.0 >= excess(hi):
            return x_of(bisect_root(excess, lo, hi, iters=200))
        lo, hi = 2.0 * lo, 2.0 * hi
    # no |b| below 2^1000 reaches the row: the means still in the support lie
    # within (max w - min w) 2^-1000 of mu
    return x_of(hi if excess(hi) > 0.0 else lo)


# the cutting planes stop once upper - lower <= _GAP_REL * (1 + |upper|)
_GAP_REL = 1e-12


def dro_solve(p: DroProblem, steps: int = 2500, seed: int = 0, should_stop=None) -> DroSolution:
    """min over the feasible simplex of G(w) = sup_Q E_Q[l_w], the worst-case
    expected portfolio loss l_w = -S w over the divergence ball, by Kelley's
    cutting planes.

    Each evaluation of G by the ball's envelope route also returns a
    worst-case density Q, and w -> E_Q[l_w] is a linear minorant of G, exact
    at the evaluated w.  The LP master min t s.t. t >= every cut, over the
    simplex (and the mean row when a target is set), gives a lower bound and
    the next w; the best evaluated G is the upper bound.  ``route_gap`` is
    upper - lower, a certificate on the reported value.  The rounds stop
    when the gap closes, when the master returns a w already evaluated (its
    pivot tolerance hides cuts that differ by less, so no round could add
    one), or after ``steps`` rounds (one evaluation and one master LP
    each).  ``seed`` is unused, the solve being deterministic.
    """
    s, pr = p.scenarios, p.probs
    n_assets = s.shape[1]
    means = pr @ s
    if p.target_mean is not None:
        lo, hi = float(means.min()), float(means.max())
        if not lo - 1e-12 <= p.target_mean <= hi + 1e-12:
            raise ValueError(f"target mean {p.target_mean} outside achievable [{lo}, {hi}]")
    j = StochasticDivergenceJ.from_phi(p.phi, normalized=True)
    # cuts and the mean row in units of max|s|, so the LP's tolerances are unitless
    scale = float(np.max(np.abs(s))) or 1.0
    a_eq = [np.append(np.ones(n_assets), 0.0)]
    b_eq = [1.0]
    if p.target_mean is not None:
        a_eq.append(np.append(means / scale, 0.0))
        b_eq.append(p.target_mean / scale)
    c = np.append(np.zeros(n_assets), 1.0)
    bounds = [(0.0, None)] * n_assets + [(None, None)]
    cuts = []
    upper, lower = math.inf, -math.inf
    w_best = q_best = None
    evaluated = set()
    # the uniform start is feasible, and so a candidate, only without a mean target
    w, candidate = np.full(n_assets, 1.0 / n_assets), p.target_mean is None
    for _ in range(max(steps, 1)):
        evaluated.add(w.tobytes())
        losses = -(s @ w)
        val, q_canon = family_eval_envelope(j, p.tau, DiscreteRv(losses, pr))
        q = _density_on_original_atoms(losses, pr, q_canon)
        if candidate and val < upper:
            upper, w_best, q_best = val, w, q
        cuts.append(np.append(-(s.T @ (pr * q)) / scale, -1.0))
        master = LpProblem(c=c, a_eq=np.asarray(a_eq), b_eq=np.asarray(b_eq), a_ub=np.asarray(cuts), b_ub=np.zeros(len(cuts)), bounds=bounds)
        sol = solve_lp(master)
        if sol.status != "optimal":
            raise RuntimeError(f"DRO cutting-plane master LP {sol.status}")
        lower = max(lower, sol.objective * scale)
        w, candidate = sol.x[:n_assets], True
        if w_best is None:
            continue
        if upper - lower <= _GAP_REL * (1.0 + abs(upper)) or w.tobytes() in evaluated or (should_stop is not None and should_stop()):
            break
    if w_best is None:
        raise RuntimeError("DRO cutting planes stopped before a feasible evaluation")
    gap = max(upper - lower, 0.0)
    return DroSolution(
        weights=w_best,
        value=upper,
        worst_case_density=q_best,
        route_gap=gap,
        density_approximate=gap > 1e-6,
    )


def _density_on_original_atoms(values, probs, q_canonical) -> np.ndarray:
    """The density of each scenario: canonical atoms merge equal values only,
    and an atom of zero probability takes its neighbour's density."""
    canon = DiscreteRv(values, probs)
    return q_canonical[np.minimum(np.searchsorted(canon.values, values), canon.values.size - 1)]


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

    kernel_conj is the kernel's conjugate, chosen by its type: a DivergenceFn
    phi declares it separable, kernel*(Q) = E[phi(Q)], which unlocks an exact
    per-atom dual solve over box-plus-hyperplane envelopes; a callable (q, p)
    is a conjugate that is not separable, taken by the multistart dual.
    """

    base_risk: Callable[[DiscreteRv], float]
    kernel: Callable[[DiscreteRv], float]
    epsilon: float
    base_regret: Optional[Callable[[DiscreteRv], float]] = None
    base_envelope: Optional[Envelope] = None
    kernel_conj: Optional[DivergenceFn | Callable[[np.ndarray, np.ndarray], float]] = None
    label: str = ""

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


def _convolution_value(outer: Callable[[DiscreteRv], float], kernel, epsilon, x: DiscreteRv, y: np.ndarray) -> float:
    """outer(X - Y) + kernel(eps Y)/eps at one Y on the atoms of X."""
    return outer(DiscreteRv(x.values - y, x.probs)) + kernel(DiscreteRv(epsilon * y, x.probs)) / epsilon


def _inf_convolution(outer: Callable[[DiscreteRv], float], kernel, epsilon, x: DiscreteRv, starts, seed) -> float:
    """inf_Y outer(X - Y) + kernel(eps Y)/eps over atom-dimensional Y.

    Convex in Y; a deterministic compass descent from Y = 0 (where the value
    upper-bounds outer(X)) does the work, with optional restarts to escape
    nonsmooth coordinate traps.
    """
    vals = x.values
    m = vals.size
    rng = np.random.default_rng(seed)
    span = max(1.0, float(vals[-1] - vals[0]))

    def obj(yvec):
        return _convolution_value(outer, kernel, epsilon, x, yvec)

    best = obj(np.zeros(m))
    for trial in range(max(starts, 1)):
        y0 = np.zeros(m) if trial == 0 else rng.normal(scale=0.3 * span, size=m)
        _, fs = compass_search(obj, y0, step=0.5 * span, tol=1e-12, diagonals=True)
        if fs < best - 1e-14 * (1.0 + abs(best)):
            best = fs
    return best


def _waterfill_applies(spec: EpiSpec) -> bool:
    """A separable kernel conjugate over a box-plus-hyperplane base envelope."""
    env = spec.base_envelope
    return (
        env is not None
        and isinstance(spec.kernel_conj, DivergenceFn)
        and env.polyhedral
        and env.a_ub is None
        and env.a_eq is not None
        and env.a_eq.shape[0] == 1
    )


def epi_risk_primal(spec: EpiSpec, x: DiscreteRv, starts: int = 3, seed: int = 0) -> float:
    """inf_Y R(X - Y) + kernel(eps Y)/eps.

    Where the exact waterfill dual applies, the primal is evaluated at
    Y* = phi'(Q*)/eps, the optimality condition Y* in d(kernel*/eps)(Q*) at
    the dual optimum Q*, with phi' a central difference of the kernel
    conjugate phi (which must be finite a step beyond the envelope's box).
    Any Y gives an upper bound, so by weak duality this value minus the dual
    bounds the error of both.  Otherwise a compass search over Y does the
    work (``starts`` and ``seed`` serve its restarts).
    """
    if not _waterfill_applies(spec):
        return _inf_convolution(spec.base_risk, spec.kernel, spec.epsilon, x, starts, seed)
    _, q = _epi_dual_waterfill(spec, x)
    phi = spec.kernel_conj.phi
    h = _DIFF_STEP * (1.0 + np.abs(q))
    y = (phi(q + h) - phi(q - h)) / (2.0 * h) / spec.epsilon
    return _convolution_value(spec.base_risk, spec.kernel, spec.epsilon, x, y)


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
    if env is None or spec.kernel_conj is None:
        raise ValueError("dual evaluation needs the base envelope and kernel conjugate")
    if _waterfill_applies(spec):
        return _epi_dual_waterfill(spec, x)[0]
    p = x.probs
    vals = x.values
    inv_eps = 1.0 / spec.epsilon
    center = env.center.astype(float)

    def penalty(q):
        return divergence_value(spec.kernel_conj, q, p)

    def neg(q):
        pen = penalty(q)
        return -(float(np.dot(p, q * vals)) - inv_eps * pen) if math.isfinite(pen) else math.inf

    def clip(q):
        return np.clip(q, env.lb if env.lb is not None else -np.inf, env.ub if env.ub is not None else np.inf)

    def project(q):
        q = clip(q)
        if env.a_eq is not None and env.a_eq.shape[0] == 1:
            # box + single hyperplane: the shift along the row that restores it;
            # a density is unitless, so its bracket starts at unit width
            a, b = env.a_eq[0], float(env.b_eq[0])
            q = clip(q + widen_root(lambda shift: b - float(np.dot(a, clip(q + shift * a))), -1.0, 1.0) * a)
        # restore kernel-domain feasibility toward the center
        if not math.isfinite(penalty(q)):
            lo_t, hi_t = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo_t + hi_t)
                if math.isfinite(penalty(center + mid * (q - center))):
                    lo_t = mid
                else:
                    hi_t = mid
            q = center + lo_t * (q - center)
        return q

    _, fs, res = minimize_multistart(
        neg, [center.copy()], project=project, steps=steps, tol=1e-13, polish_step=0.3, polish_tol=1e-13
    )
    return -min(fs, res.value)


def _epi_dual_waterfill(spec: EpiSpec, x: DiscreteRv) -> tuple[float, np.ndarray]:
    """Exact dual over a box-plus-hyperplane envelope with separable penalty
    E[phi(Q)], and its optimal density.

    Per atom, q_i(mu) maximizes q (x_i - mu) - phi(q)/eps over the box slice,
    by ``_per_atom_argmax`` at z = eps (x_i - mu); the hyperplane multiplier mu
    is the root of the total mass, which does not increase in mu, found by
    ``widen_root`` from the atoms.  The density's residual mass is then put
    on the atoms inside the box, so the value is that of a feasible density:
    a lower bound on the epi-regularized risk.
    """
    env, div = spec.base_envelope, spec.kernel_conj
    v, p = x.values, x.probs
    lb = env.lb if env.lb is not None else -math.inf
    ub = env.ub if env.ub is not None else math.inf
    a, b = env.a_eq[0], float(env.b_eq[0])

    def q_of(mu: float) -> np.ndarray:
        return _per_atom_argmax(div, spec.epsilon * (v - mu), lb, ub)

    # a constant X widens from its own magnitude
    unit = float(v[-1] - v[0]) or abs(float(v[0])) or 1.0
    q = q_of(widen_root(lambda mu: float(np.dot(a, q_of(mu))) - b, float(v[0]) - unit, float(v[-1]) + unit))
    inside = (q > lb) & (q < ub)
    if inside.any():
        q[inside] += (b - float(np.dot(a, q))) / float(a[inside].sum())
    return float(np.dot(p, q * v)) - divergence_value(div, q, p) / spec.epsilon, q


# central-difference step of the kernel conjugate's derivative, about the cube
# root of the double epsilon: truncation and rounding error balance there
_DIFF_STEP = 2.0**-17


def epi_regret_divroot(
    base_box: tuple[np.ndarray, np.ndarray],
    kernel_phi: DivergenceFn,
    epsilon: float,
    x: DiscreteRv,
) -> float:
    """sup_{Q in box} E[QX] - E[phi(Q)]/eps for per-atom box domains.

    dom V* of a coherent regret like the tail-average regret is a per-atom
    box, so the supremum splits into independent one-dimensional concave
    maximizations, each solved by ``_per_atom_argmax`` at z = eps x_i.  Atom
    i takes entry i of the box.
    """
    v, p = x.values, x.probs
    q = _per_atom_argmax(kernel_phi, epsilon * v, *(np.asarray(end, dtype=float)[: v.size] for end in base_box))
    return float(np.dot(p, q * v)) - float(np.dot(p, np.asarray(kernel_phi.phi(q), dtype=float))) / epsilon


def kernel_quadratic_regret() -> tuple[Callable, DivergenceFn]:
    """V(Y) = E[Y + Y^2] = E[phi*(Y)], whose conjugate V*(Q) = E[phi(Q)] is
    separable: phi(q) = (q - 1)^2/4 on the real line, phi*(z) = z + z^2."""

    def kernel(y: DiscreteRv) -> float:
        return y.moment(lambda v: v + v * v)

    conj = DivergenceFn(
        phi=lambda q: (np.asarray(q, dtype=float) - 1.0) ** 2 / 4.0,
        phi_conj=lambda z: np.asarray(z, dtype=float) + np.asarray(z, dtype=float) ** 2,
        dom=(-math.inf, math.inf),
        kind="extended",
        label="quadratic_regret",
        conj_grad=lambda z: 1.0 + 2.0 * np.asarray(z, dtype=float),
    )
    return kernel, conj


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
    """min over the simplex (and the mean row, given ``target_mean``) of the
    risk of the portfolio loss -S w.

    ``risk`` is a Quadrangle or a bare risk functional, and ``cvar_alpha``
    stands for the quantile(alpha) quadrangle.  When the quadrangle's regret
    V carries LP data, the risk is its Rockafellar-Uryasev form
    min_C {C + V(-S w - C)}, solved over (w, C) as one exact LP; anything
    else runs a multistart projected descent on the risk itself.
    """
    s = np.atleast_2d(np.asarray(returns, dtype=float))
    m, n_assets = s.shape
    p = _scenario_probs(probs, m)
    means = p @ s
    if target_mean is not None:
        lo, hi = float(means.min()), float(means.max())
        if not lo - 1e-12 <= target_mean <= hi + 1e-12:
            raise ValueError(f"target mean {target_mean} outside achievable [{lo}, {hi}]")
    if cvar_alpha is not None:
        risk = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": cvar_alpha}))
    regret = getattr(risk, "regret_fn", None)
    if regret is not None and lp_encodable(regret):
        # theta = (w, C), the regret's argument -S w - C
        a_eq = [np.append(np.ones(n_assets), 0.0)] + ([] if target_mean is None else [np.append(means, 0.0)])
        theta, value, _ = minimize_affine(
            [(regret, np.hstack((s, np.ones((m, 1)))), np.zeros(m), p, 1.0)],
            np.append(np.zeros(n_assets), 1.0),
            bounds=[(0.0, None)] * n_assets + [(None, None)],
            a_eq=a_eq,
            b_eq=[1.0] + ([] if target_mean is None else [target_mean]),
        )
        return theta[:n_assets], value

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
