"""Distributionally robust portfolio optimization over divergence balls and
epi-regularization of risk/regret functionals by infimal convolution.

The DRO solve minimizes the worst-case expectation over the ball by
cutting planes on its envelope route, whose worst-case densities give the
cuts.  Every epi problem is one separable dual over the base envelope's box
(and row): a penalty E[phi(Q)]/eps or a phi-ball E[phi(Q)] <= tau, solved
by the per-atom maximizer of the divergence balls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import DiscreteRv
from .constructions import Flags, RegretFn, lp_encodable, minimize_affine
from .divergence import DivergenceFn, StochasticDivergenceJ, _envelope_sup_phi, family_eval_envelope, make_divergence
from .dual import Envelope
from .measures import CatalogSpec, make_catalog_quadrangle
from .solvers import LpProblem, bisect_root, minimize_multistart, solve_lp

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


def dro_solve(p: DroProblem, steps: int = 2500, should_stop=None) -> DroSolution:
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
    each).  The solve is deterministic.
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
    """Epi-regularization data: the base risk with its envelope, a kernel
    regret with its conjugate, and the smoothing weight epsilon > 0.

    The base envelope is a box plus one row (``cvar_envelope``); dropping the
    row leaves the box, the envelope of the base regret V(X) = sup over the
    box of E[QX] (for CVaR, E[X_+]/(1 - alpha)).  kernel_conj is chosen by
    its type: a DivergenceFn phi means kernel*(Q) = E[phi(Q)], a pair
    (phi, tau) that kernel* is the indicator of E[phi(Q)] <= tau.
    """

    base_risk: Callable[[DiscreteRv], float]
    kernel: Callable[[DiscreteRv], float]
    epsilon: float
    base_envelope: Optional[Envelope] = None
    kernel_conj: Optional[DivergenceFn | tuple[DivergenceFn, float]] = None
    label: str = ""

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


def _convolution_value(outer: Callable[[DiscreteRv], float], kernel, epsilon, x: DiscreteRv, y: np.ndarray) -> float:
    """outer(X - Y) + kernel(eps Y)/eps at one Y on the atoms of X."""
    return outer(DiscreteRv(x.values - y, x.probs)) + kernel(DiscreteRv(epsilon * y, x.probs)) / epsilon


def _epi_data(spec: EpiSpec, n: int):
    """phi and tau of the kernel conjugate (tau None for a penalty), the
    base envelope's box on n atoms cut by dom phi (atom i takes entry i),
    and its row: the data of ``_envelope_sup_phi``."""
    env, conj = spec.base_envelope, spec.kernel_conj
    box_row = env is not None and env.polyhedral and env.a_ub is None and env.a_eq is not None and env.a_eq.shape[0] == 1
    conj_ok = isinstance(conj, (DivergenceFn, tuple))
    missing = [name for name, ok in (("a box-plus-row base envelope", box_row), ("a kernel conjugate", conj_ok)) if not ok]
    if missing:
        raise ValueError("epi evaluation needs " + " and ".join(missing))
    phi, tau = conj if isinstance(conj, tuple) else (conj, None)
    lo = np.maximum(-math.inf if env.lb is None else env.lb[:n], phi.dom[0])
    hi = np.minimum(math.inf if env.ub is None else env.ub[:n], phi.dom[1])
    return phi, tau, lo, hi, (env.a_eq[0], float(env.b_eq[0]))


def epi_risk_primal(spec: EpiSpec, x: DiscreteRv) -> float:
    """inf_Y R(X - Y) + kernel(eps Y)/eps, evaluated at the Y* recovered from
    the dual optimum Q*: Y* = l phi'(Q*), the optimality condition of the
    per-atom maximizer, with l = 1/eps for a penalty and the budget's
    multiplier for a ball (0 where the base's own maximizer lies in it).
    Inside the box and dom phi that condition reads Y*_i = x_i - mu exactly;
    on clipped atoms phi' is a central difference, so phi must be finite a
    step beyond the box.  Any Y gives an upper bound, so by weak duality this
    value minus the dual bounds the error of both.
    """
    phi, tau, lo, hi, row = _epi_data(spec, x.values.size)
    _, q, l, mu = _envelope_sup_phi(phi, x, lo, hi, row, tau=tau, epsilon=spec.epsilon)
    h = _DIFF_STEP * (1.0 + np.abs(q))
    y = l * (phi.phi(q + h) - phi.phi(q - h)) / (2.0 * h)
    if l > 0.0:
        inside = (q > lo) & (q < hi)
        y[inside] = x.values[inside] - mu
    return _convolution_value(spec.base_risk, spec.kernel, spec.epsilon, x, y)


def epi_regret(spec: EpiSpec, x: DiscreteRv) -> float:
    """inf_Y V(X - Y) + kernel(eps Y)/eps for the base regret V, the support
    function of the base envelope's box, by its dual over the box."""
    phi, tau, lo, hi, _ = _epi_data(spec, x.values.size)
    return _envelope_sup_phi(phi, x, lo, hi, tau=tau, epsilon=spec.epsilon)[0]


def epi_regret_fn(spec: EpiSpec) -> RegretFn:
    return RegretFn(fn=lambda x: epi_regret(spec, x), flags=Flags(False, False, False))


def epi_risk_dual(spec: EpiSpec, x: DiscreteRv) -> float:
    """sup_{Q in the base envelope} E[QX] - kernel*(Q)/eps for positively
    homogeneous base risks (R* vanishes on its domain, the base envelope).
    For a ball kernel* is an indicator, which 1/eps leaves as it is."""
    phi, tau, lo, hi, row = _epi_data(spec, x.values.size)
    return _envelope_sup_phi(phi, x, lo, hi, row, tau=tau, epsilon=spec.epsilon)[0]


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
    maximizations: ``_envelope_sup_phi`` in penalty mode with no row.  Atom
    i takes entry i of the box.
    """
    lo, hi = (np.asarray(end, dtype=float)[: x.values.size] for end in base_box)
    return _envelope_sup_phi(kernel_phi, x, lo, hi, epsilon=epsilon)[0]


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


def kernel_l2_regret(lam: float = 1.0) -> tuple[Callable, tuple[DivergenceFn, float]]:
    """V(Y) = E[Y] + lam ||Y||_2, whose conjugate is the indicator of the ball
    E(Q - 1)^2 <= lam^2: the Pearson ball (extended_pearson, budget lam^2)."""

    def kernel(y: DiscreteRv) -> float:
        return y.mean() + lam * math.sqrt(max(y.moment(lambda v: v * v), 0.0))

    return kernel, (make_divergence("extended_pearson"), lam * lam)


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
