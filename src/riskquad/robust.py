"""Distributionally robust portfolio optimization over divergence balls,
portfolios by the Rockafellar-Uryasev form of a quadrangle's risk, and
epi-regularization of risk/regret functionals by infimal convolution.

Both decisions run ``cutting_planes`` where no LP is exact: the DRO solve
on the ball's envelope route, whose worst-case densities give the cuts, and
a portfolio on its regret's subgradient.  Every epi problem is one
separable dual over the base envelope's box (and row): a penalty
E[phi(Q)]/eps or a phi-ball E[phi(Q)] <= tau, solved by the per-atom
maximizer of the divergence balls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import DiscreteRv
from .constructions import Flags, RegretFn, affine_cut_oracle, lp_encodable, minimize_affine
from .divergence import DivergenceFn, StochasticDivergenceJ, _envelope_sup_phi, family_eval_envelope, make_divergence
from .dual import Envelope
from .measures import CatalogSpec, make_catalog_quadrangle
from .solvers import cutting_planes

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
    "PortfolioGapError",
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


def _weight_rows(s: np.ndarray, p: np.ndarray, target: Optional[float]):
    """The simplex row and, given a target mean return, the mean row, both in
    units of scale = max|s|, so an LP's tolerances are unitless; returns the
    rows, their right sides and the scale.  Non-finite returns, or a target
    outside the assets' mean returns, are rejected."""
    if not np.isfinite(s).all():
        raise ValueError("scenario returns must be finite")
    scale, means = float(np.max(np.abs(s))) or 1.0, p @ s
    if target is None:
        return np.ones((1, s.shape[1])), np.ones(1), scale
    lo, hi = float(means.min()), float(means.max())
    if not lo - 1e-12 <= target <= hi + 1e-12:
        raise ValueError(f"target mean {target} outside achievable [{lo}, {hi}]")
    return np.vstack((np.ones(s.shape[1]), means / scale)), np.array([1.0, target / scale]), scale


@dataclass
class DroSolution:
    weights: np.ndarray
    value: float
    worst_case_density: np.ndarray
    route_gap: float
    density_approximate: bool


def dro_solve(p: DroProblem, steps: int = 2500) -> DroSolution:
    """min over the feasible simplex of G(w) = sup_Q E_Q[l_w], the worst-case
    expected portfolio loss l_w = -S w over the divergence ball, by
    ``cutting_planes`` (at most ``steps`` rounds).

    Each evaluation of G by the ball's envelope route also returns a
    worst-case density Q, and w -> E_Q[l_w] is a linear minorant of G, exact
    at the evaluated w: the cut, through the origin.  ``route_gap`` is the
    certified gap of the reported value.  The solve is deterministic.
    """
    s, pr = p.scenarios, p.probs
    n_assets = s.shape[1]
    a_eq, b_eq, scale = _weight_rows(s, pr, p.target_mean)
    j = StochasticDivergenceJ.from_phi(p.phi, normalized=True)
    densities = {}

    def oracle(w):
        losses = -(s @ w)
        rv = DiscreteRv(losses, pr)
        val, q_canon = family_eval_envelope(j, p.tau, rv)
        q = densities[w.tobytes()] = q_canon[rv.atom_index(losses)]
        return val, -(s.T @ (pr * q)), 0.0

    res = cutting_planes(oracle, np.full(n_assets, 1.0 / n_assets), [(0.0, None)] * n_assets, a_eq, b_eq, rounds=steps, scale=scale)
    return DroSolution(res.x, res.value, densities[res.x.tobytes()], res.gap, res.gap > 1e-6)


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


def _epi_data(spec: EpiSpec, x: DiscreteRv):
    """phi and tau of the kernel conjugate (tau None for a penalty), the
    base envelope's box on the atoms of X cut by dom phi (atom i takes entry
    i), and its row: the data of ``_envelope_sup_phi``.  The envelope must
    be built on X's sorted atoms: its row a positive multiple of their
    probabilities."""
    env, conj = spec.base_envelope, spec.kernel_conj
    box_row = env is not None and env.polyhedral and env.a_eq is not None and env.a_eq.shape[0] == 1
    conj_ok = isinstance(conj, (DivergenceFn, tuple))
    missing = [name for name, ok in (("a box-plus-row base envelope", box_row), ("a kernel conjugate", conj_ok)) if not ok]
    if missing:
        raise ValueError("epi evaluation needs " + " and ".join(missing))
    ratio = env.a_eq[0] / x.probs if env.a_eq.shape[1] == x.n_atoms else np.zeros(1)
    if not (ratio.min() > 0.0 and np.ptp(ratio) <= 1e-12 * ratio.max()):
        raise ValueError("the base envelope's row must be a positive multiple of the probabilities of X's sorted atoms")
    phi, tau = conj if isinstance(conj, tuple) else (conj, None)
    lo = np.maximum(-math.inf if env.lb is None else env.lb, phi.dom[0])
    hi = np.minimum(math.inf if env.ub is None else env.ub, phi.dom[1])
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
    phi, tau, lo, hi, row = _epi_data(spec, x)
    _, q, l, mu = _envelope_sup_phi(phi, x, lo, hi, row, tau=tau, epsilon=spec.epsilon)
    h = _DIFF_STEP * (1.0 + np.abs(q))
    y = l * (phi.phi(q + h) - phi.phi(q - h)) / (2.0 * h)
    if l > 0.0:
        inside = (q > lo) & (q < hi)
        y[inside] = x.values[inside] - mu
    return spec.base_risk(DiscreteRv(x.values - y, x.probs)) + spec.kernel(DiscreteRv(spec.epsilon * y, x.probs)) / spec.epsilon


def epi_regret(spec: EpiSpec, x: DiscreteRv) -> float:
    """inf_Y V(X - Y) + kernel(eps Y)/eps for the base regret V, the support
    function of the base envelope's box, by its dual over the box."""
    phi, tau, lo, hi, _ = _epi_data(spec, x)
    return _envelope_sup_phi(phi, x, lo, hi, tau=tau, epsilon=spec.epsilon)[0]


def epi_regret_fn(spec: EpiSpec) -> RegretFn:
    return RegretFn(fn=lambda x: epi_regret(spec, x), flags=Flags(False, False, False))


def epi_risk_dual(spec: EpiSpec, x: DiscreteRv) -> float:
    """sup_{Q in the base envelope} E[QX] - kernel*(Q)/eps for positively
    homogeneous base risks (R* vanishes on its domain, the base envelope).
    For a ball kernel* is an indicator, which 1/eps leaves as it is."""
    phi, tau, lo, hi, row = _epi_data(spec, x)
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


class PortfolioGapError(RuntimeError):
    """``portfolio_optimize``'s cutting planes ended above their gap: the
    last weights, their risk and the gap, for a report that says so."""

    def __init__(self, weights: np.ndarray, risk: float, gap: float):
        super().__init__(f"portfolio cutting planes ended at gap {gap:.3g}")
        self.weights, self.risk, self.gap = weights, risk, gap


def portfolio_optimize(
    risk,
    returns,
    probs=None,
    target_mean: Optional[float] = None,
    cvar_alpha: Optional[float] = None,
    steps: int = 3000,
) -> tuple[np.ndarray, float]:
    """min over the simplex (and the mean row, given ``target_mean``) of the
    risk of the portfolio loss -S w.

    ``risk`` is a Quadrangle; ``cvar_alpha`` stands for the quantile(alpha)
    one.  The risk is the Rockafellar-Uryasev form min_C {C + V(-S w - C)}
    of its regret V over (w, C): one exact LP when V carries LP data, else
    ``cutting_planes`` (at most ``steps`` rounds) on V's subgradient, C in a
    box over the losses' range that widens while C lies on its face.  Raises
    ValueError for a bare risk callable or a regret with neither, and
    PortfolioGapError when the rounds end with a gap above 1e-4 (1 + |value|).
    """
    s = np.atleast_2d(np.asarray(returns, dtype=float))
    m, n_assets = s.shape
    p = _scenario_probs(probs, m)
    a_eq, b_eq, scale = _weight_rows(s, p, target_mean)
    if cvar_alpha is not None:
        risk = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": cvar_alpha}))
    regret = getattr(risk, "regret_fn", None)
    if regret is None:
        raise ValueError("a portfolio needs a quadrangle whose regret carries LP data or a subgradient, not a bare risk callable")
    # theta = (w, C), the regret's argument -S w - C; a positively homogeneous
    # regret runs on S / max|s|, its value scaled back
    unit = scale if regret.flags.positively_homogeneous else 1.0
    a, cost = np.hstack((s / unit, np.ones((m, 1)))), np.append(np.zeros(n_assets), 1.0)
    a_eq = np.hstack((a_eq, np.zeros((b_eq.size, 1))))
    bounds = [(0.0, None)] * n_assets
    if lp_encodable(regret):
        theta, value, _ = minimize_affine([(regret, a, np.zeros(m), p, 1.0)], cost, bounds + [(None, None)], a_eq, b_eq)
        return theta[:n_assets], unit * value
    oracle = affine_cut_oracle(regret, a, np.zeros(m), p, cost)
    x0 = np.append(np.full(n_assets, 1.0 / n_assets), 0.0)
    res = cutting_planes(oracle, x0, bounds + [(-scale / unit, scale / unit)], a_eq, b_eq, steps, scale / unit, widen=(n_assets,))
    if res.gap > 1e-4 * (1.0 + abs(res.value)):
        raise PortfolioGapError(res.x[:n_assets], unit * res.value, unit * res.gap)
    return res.x[:n_assets], unit * res.value
