"""Divergence functionals and the quadrangle families they generate.

A scalar divergence function phi (convex, closed, phi(1) = 0, 1 interior to
its domain) induces the dual functional J(Q) = E[phi(Q)] on density vectors.
Its sublevel balls define worst-case-expectation families; equivalently the
perspective transform of the conjugate parent produces the same positively
homogeneous family.  For a budget beta > 0 the scaled construction yields a
complete quadrangle whose regret is inf_l l*(beta + E[phi*(X/l)]).

The named divergence functions are one table keyed by name, of builders called
with the level q; ``make_divergence`` looks a name up in it, and
``PHI_REGISTRY`` is its keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import DiscreteRv, StatInterval, cvar_direct, ess_bounds, quantile_interval
from .constructions import (
    ErrorFn,
    Flags,
    Quadrangle,
    RegretFn,
    complete_quadrangle,
    mean_center_error,
    mean_center_regret,
    regret_to_risk,
)
from .dual import ascend_envelope
from .solvers import minimize_scalar_convex, widen_root

__all__ = [
    "DivergenceFn",
    "StochasticDivergenceJ",
    "make_divergence",
    "verify_conjugate",
    "divergence_value",
    "family_eval_perspective",
    "family_eval_envelope",
    "perspective_inf",
    "make_divergence_quadrangle",
    "perspective_quadrangle",
    "classify_divergence",
    "cvar_indicator_regret",
    "cvar_indicator_regret_family",
    "PHI_REGISTRY",
]

_LOG_LO, _LOG_HI = math.log(1e-8), math.log(1e8)


@dataclass(frozen=True)
class DivergenceFn:
    """Scalar convex divergence function with its convex conjugate.

    kind is "divergence" when phi = +inf on negatives (dom inside [0, inf)),
    "extended" otherwise.  conj_grad, when given, is a derivative selection
    of phi* used for closed-form worst-case densities; conj_dom is where phi*
    is finite.  A named family also carries its level ``q`` (when it has
    one) and its closed forms, each called with the DivergenceFn it serves:
    ``closed_forms(div, beta)`` gives the quadrangle members for
    ``complete_quadrangle`` and ``envelope_route(div, tau, x, normalized)``
    the worst-case expectation with its density, the budget-free
    ``_envelope_limit`` included where it lies in the ball (on the density
    ball the point mass on ess sup X where dom phi is [0, inf)): kl's
    route decides it in its multiplier search, and pearson's and tv's test
    it first (``_limit_in_ball``).
    """

    phi: Callable[[np.ndarray], np.ndarray]
    phi_conj: Callable[[np.ndarray], np.ndarray]
    dom: tuple[float, float]
    kind: str
    label: str
    conj_grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    conj_dom: tuple[float, float] = (-math.inf, math.inf)
    q: Optional[float] = None
    closed_forms: Optional[Callable[["DivergenceFn", float], dict]] = None
    envelope_route: Optional[Callable[["DivergenceFn", float, DiscreteRv, bool], tuple[float, np.ndarray]]] = None


def _phi_kl(x):
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, np.inf)
    pos = x > 0
    out[pos] = x[pos] * np.log(x[pos]) - x[pos] + 1.0
    out[x == 0] = 1.0
    return out


def _phi_tv(x):
    x = np.asarray(x, dtype=float)
    return np.where(x >= 0, np.abs(x - 1.0), np.inf)


def _phi_conj_tv(z):
    z = np.asarray(z, dtype=float)
    return np.where(z <= 1.0, -1.0 + np.maximum(z + 1.0, 0.0), np.inf)


def _phi_pearson(x):
    x = np.asarray(x, dtype=float)
    return np.where(x >= 0, (x - 1.0) ** 2, np.inf)


def _phi_conj_pearson(z):
    z = np.asarray(z, dtype=float)
    return np.where(z + 2.0 >= 0, (z + 2.0) ** 2 / 4.0 - 1.0, -1.0)


def _gen_extended_pearson(q: Optional[float]) -> DivergenceFn:
    if q is None or not 0.0 < q < 1.0:
        raise ValueError("gen_extended_pearson requires q in (0,1)")

    # weight q on the upside, so the regret is E[X] + sqrt(beta E[q X_+^2 + (1-q) X_-^2])
    def phi(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 1.0, (x - 1.0) ** 2 / q, (x - 1.0) ** 2 / (1.0 - q))

    def phi_conj(z):
        z = np.asarray(z, dtype=float)
        return np.where(z > 0.0, q * z**2 / 4.0 + z, (1.0 - q) * z**2 / 4.0 + z)

    def conj_grad(z):
        z = np.asarray(z, dtype=float)
        return np.where(z > 0.0, q * z / 2.0 + 1.0, (1.0 - q) * z / 2.0 + 1.0)

    return DivergenceFn(
        phi=phi,
        phi_conj=phi_conj,
        dom=(-math.inf, math.inf),
        kind="extended",
        label=f"gen_extended_pearson({q:g})",
        conj_grad=conj_grad,
        q=q,
        closed_forms=lambda div, beta: _quadratic_forms(div.q, beta),
    )


# each named divergence function's builder, called with the level q (only gen_extended_pearson reads it)
_DIVERGENCES = {
    "kl": lambda q: DivergenceFn(
        phi=_phi_kl,
        phi_conj=lambda z: np.exp(np.minimum(np.asarray(z, dtype=float), 700.0)) - 1.0,
        dom=(0.0, math.inf),
        kind="divergence",
        label="kl",
        conj_grad=lambda z: np.exp(np.minimum(np.asarray(z, dtype=float), 700.0)),
        closed_forms=_kl_forms,
        envelope_route=_envelope_kl,
    ),
    "tv": lambda q: DivergenceFn(
        phi=_phi_tv,
        phi_conj=_phi_conj_tv,
        dom=(0.0, math.inf),
        kind="divergence",
        label="tv",
        conj_grad=None,  # subdifferential is set-valued
        conj_dom=(-math.inf, 1.0),
        closed_forms=_tv_forms,
        envelope_route=_envelope_tv,
    ),
    "pearson": lambda q: DivergenceFn(
        phi=_phi_pearson,
        phi_conj=_phi_conj_pearson,
        dom=(0.0, math.inf),
        kind="divergence",
        label="pearson",
        conj_grad=lambda z: np.maximum((np.asarray(z, dtype=float) + 2.0) / 2.0, 0.0),
        closed_forms=_pearson_forms,
        envelope_route=_envelope_pearson,
    ),
    "extended_pearson": lambda q: DivergenceFn(
        phi=lambda x: (np.asarray(x, dtype=float) - 1.0) ** 2,
        phi_conj=lambda z: np.asarray(z, dtype=float) ** 2 / 4.0 + np.asarray(z, dtype=float),
        dom=(-math.inf, math.inf),
        kind="extended",
        label="extended_pearson",
        conj_grad=lambda z: np.asarray(z, dtype=float) / 2.0 + 1.0,
        closed_forms=lambda div, beta: _quadratic_forms(0.5, 2.0 * beta),
    ),
    "gen_extended_pearson": _gen_extended_pearson,
}

PHI_REGISTRY = tuple(_DIVERGENCES)


def make_divergence(name: str, q: Optional[float] = None) -> DivergenceFn:
    """Named divergence functions with verified conjugates."""
    if name not in PHI_REGISTRY:  # a tuple, so a name that cannot be hashed is refused here too
        raise ValueError(f"unknown divergence {name!r}")
    return _DIVERGENCES[name](q)


def verify_conjugate(div: DivergenceFn) -> float:
    """Max gap between phi_conj and the numeric conjugate sup_x (xz - phi(x))
    on 25 points of z in [-3, 3] inside phi_conj's domain; raises ValueError
    above 1e-8."""
    worst = 0.0
    lo = div.dom[0] if math.isfinite(div.dom[0]) else -60.0
    hi = div.dom[1] if math.isfinite(div.dom[1]) else 60.0
    xs = np.linspace(lo, hi, 20001)
    phis = np.asarray(div.phi(xs), dtype=float)
    for z in np.linspace(-3.0, min(3.0, div.conj_dom[1] - 0.1), 25):
        target = float(np.asarray(div.phi_conj(np.array([z])))[0])
        if not math.isfinite(target):
            continue
        num = float(np.max(xs * z - phis))
        # golden-section refinement around the coarse argmax (concave inner fn)
        i = int(np.argmax(xs * z - phis))
        a, b = xs[max(i - 2, 0)], xs[min(i + 2, xs.size - 1)]

        def neg(xv, z=z):
            return -(xv * z - float(np.asarray(div.phi(np.array([xv])))[0]))

        _, neg_best = minimize_scalar_convex(neg, tol=1e-13, bracket=(a, b))
        num = max(num, -neg_best)
        worst = max(worst, abs(num - target))
    if worst > 1e-8:
        raise ValueError(f"conjugate mismatch for {div.label}: gap {worst:.2e}")
    return worst


@dataclass(frozen=True)
class StochasticDivergenceJ:
    """Dual functional on density vectors, J(q) -> [0, inf].

    classification: "divergence_root" (domain closure {Q >= 0}),
    "stochastic_divergence" ({Q >= 0, E[Q] = 1}), or "general".
    """

    fn: Callable[[np.ndarray, np.ndarray], float]
    classification: str
    phi: Optional[DivergenceFn] = None
    label: str = ""

    def __call__(self, q: np.ndarray, probs: np.ndarray) -> float:
        return self.fn(q, probs)

    @staticmethod
    def from_phi(div: DivergenceFn, normalized: bool) -> "StochasticDivergenceJ":
        """J(Q) = E[phi(Q)], optionally restricted to the density set E[Q] = 1."""

        def fn(q, probs):
            if normalized and abs(float(np.dot(probs, q)) - 1.0) > 1e-9:
                return math.inf
            return divergence_value(div, q, probs)

        kind = "stochastic_divergence" if normalized else "divergence_root"
        label = f"E[{div.label}(Q)]" + ("|density" if normalized else "")
        return StochasticDivergenceJ(fn, kind, div, label)


def divergence_value(j, q, probs) -> float:
    """J(Q) for a StochasticDivergenceJ or a DivergenceFn, E[phi(Q)]."""
    q = np.asarray(q, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if isinstance(j, StochasticDivergenceJ):
        return j.fn(q, probs)
    vals = np.asarray(j.phi(q), dtype=float)
    return math.inf if np.any(np.isinf(vals)) else float(np.dot(probs, vals))


# -- perspective route ---------------------------------------------------------


def perspective_inf(h: Callable[[float], float], tau: float, x: DiscreteRv) -> tuple[float, float]:
    """inf_{l > 0} l * (tau + h(l)) by golden section in log l on unit * [1e-8, 1e8].

    ``h(l)`` is the parent term at X / l, such as E[phi*(X / l)]; l is
    infeasible where it is not finite.  The unit is max|X| (1 when X = 0), so
    the search at sX is the search at X, scaled.  Where the minimum sits at
    the lower bracket edge, the infimum may be the limit l -> 0: l is halved
    below it, up to 64 times, while the objective falls and h stays finite,
    so the value reported is always one the objective attains.  Returns the
    infimum and its l.
    """
    unit = float(np.max(np.abs(x.values))) or 1.0

    def g(t):
        lam = unit * math.exp(t)
        s = h(lam)
        return lam * (tau + s) if math.isfinite(s) else math.inf

    t_star, val = minimize_scalar_convex(g, tol=1e-12, bracket=(_LOG_LO, _LOG_HI))
    lam = unit * math.exp(t_star)
    if t_star - _LOG_LO < 1e-3 * (_LOG_HI - _LOG_LO):
        for _ in range(64):
            s = h(0.5 * lam)
            if not (math.isfinite(s) and 0.5 * lam * (tau + s) < val):
                break
            lam, val = 0.5 * lam, 0.5 * lam * (tau + s)
    return val, lam


def family_eval_perspective(parent: Callable[[DiscreteRv], float], tau: float, x: DiscreteRv) -> float:
    """inf_{l > 0} l * (parent(X / l) + tau), by ``perspective_inf``."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    return perspective_inf(lambda lam: parent(x.scale(1.0 / lam)), tau, x)[0]


# -- envelope route -------------------------------------------------------------


def _envelope_limit(div: DivergenceFn, x: DiscreteRv, lo=None, hi=None, row=None) -> Optional[np.ndarray]:
    """The density that maximizes E[QX] over the box [lo, hi] (dom phi by
    default; a box given is already cut by it) and the row a.q = b (a a
    positive multiple of the probabilities, as in the density row E[Q] = 1),
    with no budget.  It is the l -> 0 limit of the parametric worst case,
    and the worst case itself when it lies in the ball.  Without the row
    each atom takes the end on the side of its sign (Q = 1, clipped, at 0).
    With it the atoms start at their lower ends and the top atoms are filled
    to their upper ends until the row holds (the point mass on ess sup X
    where phi is finite on [0, inf)), or, where the bottom atom has no lower
    end, the others sit at their upper ends and the bottom atom gives up the
    excess.  None where the supremum is unbounded, or where the box's ends
    are infinite on both sides and neither fill applies.
    """
    v = x.values
    lo, hi = div.dom[0] if lo is None else lo, div.dom[1] if hi is None else hi
    if row is None:
        q = np.where(v > 0.0, hi, np.where(v < 0.0, lo, np.clip(1.0, lo, hi)))
        return q if np.isfinite(q).all() else None
    # the fill touches the top atoms one at a time: Python floats are cheaper there
    a, b = row[0].tolist(), row[1]
    lo, hi = ([e] * v.size if isinstance(e, float) else e.tolist() for e in (lo, hi))
    if all(map(math.isfinite, lo)):
        q, left = lo[:], b - sum(ai * li for ai, li in zip(a, lo))
        for i in range(v.size - 1, -1, -1):
            take = min(left, (hi[i] - lo[i]) * a[i])
            q[i] = min(lo[i] + take / a[i], hi[i])
            left -= take
            if left <= 0.0:
                break
        return np.array(q)
    if all(map(math.isfinite, hi)) and lo[0] == -math.inf:
        q = np.array(hi)
        q[0] += (b - float(np.dot(row[0], q))) / a[0]
        return q
    return None


def _per_atom_argmax(div: DivergenceFn, z: np.ndarray, lo=-math.inf, hi=math.inf) -> np.ndarray:
    """argmax_q (q z_i - phi(q)) over [lo_i, hi_i] and dom phi, per atom.

    The unconstrained argmax (phi*)'(z_i) clipped to the interval, where phi
    carries ``conj_grad``; a golden-section search per atom otherwise, over
    the interval where its ends are finite and from q = 1 outward where not.
    """
    lo, hi = np.maximum(lo, div.dom[0]), np.minimum(hi, div.dom[1])
    if div.conj_grad is not None:
        return np.asarray(div.conj_grad(z), dtype=float).clip(lo, hi)
    out = np.empty_like(z)
    lo, hi, _ = np.broadcast_arrays(lo, hi, z)
    for i, (zi, a, b) in enumerate(zip(z, lo, hi)):
        def h(qv, zi=zi, a=a, b=b):
            if not a <= qv <= b:
                return math.inf
            return float(np.asarray(div.phi(np.array([qv])))[0]) - qv * zi

        finite = math.isfinite(a) and math.isfinite(b)
        out[i], _ = minimize_scalar_convex(h, tol=1e-13, bracket=(a, b) if finite else None, hint=min(max(1.0, a), b))
    return out


def _envelope_sup_phi(
    div: DivergenceFn, x: DiscreteRv, lo=-math.inf, hi=math.inf, row=None, tau=None, epsilon=None
) -> tuple[float, np.ndarray, float, float]:
    """sup E[QX] - kernel*(Q) over the box [lo, hi], dom phi and the row
    a.q = b, when given (a a positive multiple of the probabilities, as in
    the density row E[Q] = 1), with the maximizing density and the
    multipliers l and mu of its per-atom form.

    In ball mode, where ``tau`` is given, kernel* is the indicator of
    E[phi(Q)] <= tau and the value is E[QX]; in penalty mode it is
    E[phi(Q)]/``epsilon`` and the value E[QX] - E[phi(Q)]/eps.  Either way q_i is ``_per_atom_argmax`` at
    z_i = (x_i - mu)/l over the box.  mu is the root of the row's mass
    a.q - b, which does not increase in mu, among the atoms (0 without the
    row).  l is 1/eps in penalty mode; in ball mode it is the root of the
    divergence budget, in log l from the spread of X - mu (the atoms' spread
    with the row, max|X| without).  ``widen_root`` finds both, and X and sX
    take the same steps.  A ball first tries ``_envelope_limit``, the l -> 0
    end, and returns it with l = 0 where it lies in the ball; otherwise the
    budget turns positive on the way to it.  In penalty mode the residual
    row mass is put on the atoms inside the box, so the value is that of a
    feasible density.
    """
    v, p = x.values, x.probs
    lo, hi = np.maximum(lo, div.dom[0]), np.minimum(hi, div.dom[1])
    if tau is not None:
        q = _envelope_limit(div, x, lo, hi, row)
        if q is not None and divergence_value(div, q, p) <= tau:
            return float(np.dot(p, q * v)), q, 0.0, 0.0
        if x.is_constant():
            return (*_envelope_constant(div, tau, float(v[0]), p, row), 0.0, 0.0)
    # a constant X, in penalty mode, brackets mu from its own magnitude
    pad = 0.0 if v[-1] > v[0] else abs(float(v[0])) or 1.0

    def q_of(l: float, mu: float) -> np.ndarray:
        return _per_atom_argmax(div, (v - mu) / l, lo, hi)

    def solve_mu(l: float) -> float:
        if row is None:
            return 0.0
        return widen_root(lambda mu: float(np.dot(row[0], q_of(l, mu))) - row[1], float(v[0]) - pad, float(v[-1]) + pad)

    if tau is None:
        l = 1.0 / epsilon
    else:
        unit = float(v[-1] - v[0]) if row is not None else float(np.max(np.abs(v)))

        def budget(t: float) -> float:
            return divergence_value(div, q_of(unit * 2.0**t, solve_mu(unit * 2.0**t)), p) - tau

        l = unit * 2.0 ** widen_root(budget, -1.0, 1.0)
    mu = solve_mu(l)
    q = q_of(l, mu)
    if tau is not None:
        return float(np.dot(p, q * v)), q, l, mu
    inside = (q > lo) & (q < hi)
    if row is not None and inside.any():
        q[inside] += (row[1] - float(np.dot(row[0], q))) / float(row[0][inside].sum())
    return float(np.dot(p, q * v)) - l * divergence_value(div, q, p), q, l, mu


def _envelope_constant(div: DivergenceFn, tau: float, c: float, p: np.ndarray, row) -> tuple[float, np.ndarray]:
    """The envelope of X = c, where E[QX] = c E[Q].  With the row Q is the
    constant that satisfies it (1 on the density row).  Without it Q is the
    constant q* farthest from 1 with phi(q*) <= tau, above 1 for c > 0 and
    below for c < 0, short of the end of the box and dom phi, which
    ``_envelope_limit`` has ruled out; at c = 0 the value is 0."""
    if row is not None:
        q = np.full_like(p, row[1] / float(np.sum(row[0])))
        return c * float(np.dot(p, q)), q
    if c == 0.0:
        return 0.0, np.ones_like(p)
    direction = 1.0 if c > 0.0 else -1.0
    # the room tau - phi does not increase away from 1; phi is +inf outside
    # its domain, so the room turns negative there or beyond tau
    qstar = 1.0 + direction * widen_root(lambda t: tau - float(div.phi(np.array([1.0 + direction * t]))[0]), 0.0, 1.0)
    return c * qstar, np.full_like(p, qstar)


def _limit_in_ball(div: DivergenceFn, tau: float, x: DiscreteRv, normalized: bool) -> Optional[tuple[float, np.ndarray]]:
    """``_envelope_limit`` with E[QX] where it lies in the ball, whose worst
    case it then is; None where it does not."""
    q = _envelope_limit(div, x, row=(x.probs, 1.0) if normalized else None)
    if q is None or divergence_value(div, q, x.probs) > tau:
        return None
    return float(np.dot(x.probs, q * x.values)), q


def _envelope_kl(div: DivergenceFn, tau: float, x: DiscreteRv, normalized: bool) -> tuple[float, np.ndarray]:
    """The kl density ball: EVaR, inf_l l * (tau + ln E e^{X/l}) by ``_kl_risk``,
    and the exponential tilt Q = w / E w, w = e^{(X - ess sup X)/l*}, at its
    multiplier (the point mass on ess sup X at l* = 0)."""
    if not normalized:
        return _envelope_sup_phi(div, x, tau=tau)[:2]
    val, _, w, mean_w = _kl_risk(x, tau)
    return val, w / mean_w


def _pearson_shift(x: DiscreteRv, a: float) -> tuple[float, float]:
    """The minimizer c* of c + sqrt(a E(X - c)_+^2), a = 1 + beta, and the minimum.

    The objective is C^1 in c, and on the segment where the atoms above c are
    a fixed tail its stationarity condition is a quadratic in c.  The tail is
    found by bisection over the atoms on the sign of the slope.  When
    a P(X = ess sup X) >= 1 the slope is not positive below ess sup X, which
    is then c* and the minimum.
    """
    v, p = x.values, x.probs
    if a * float(p[-1]) >= 1.0:
        return float(v[-1]), float(v[-1])
    # the slope 1 - sqrt(a) E(X-c)_+ / ||(X-c)_+||_2 is negative as c -> -inf and
    # positive just below ess sup X
    lo, hi = 0, v.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        t = np.maximum(v - v[mid], 0.0)
        if a * float(np.dot(p, t)) ** 2 > float(np.dot(p, t * t)):
            lo = mid + 1
        else:
            hi = mid
    pt, vt = p[lo:], v[lo:]
    s0 = float(pt.sum())
    m = float(np.dot(pt, vt)) / s0
    var = float(np.dot(pt, (vt - m) ** 2))
    c = m - math.sqrt(var / (s0 * (a * s0 - 1.0)))
    r = np.maximum(v - c, 0.0)
    return c, c + math.sqrt(a) * math.sqrt(float(np.dot(p, r * r)))


def _envelope_pearson(div: DivergenceFn, tau: float, x: DiscreteRv, normalized: bool) -> tuple[float, np.ndarray]:
    """The Pearson density ball in its shifted form min_c c + sqrt((1 + tau) E(X - c)_+^2)
    by ``_pearson_shift``, and the density Q = (X - c*)_+ / E(X - c*)_+, which is
    sqrt(1 + tau) (X - c*)_+ / ||(X - c*)_+||_2 at the minimizer c*."""
    limit = _limit_in_ball(div, tau, x, normalized)
    if limit is not None:
        return limit
    if not normalized:
        return _envelope_sup_phi(div, x, tau=tau)[:2]
    v, p = x.values, x.probs
    c, value = _pearson_shift(x, 1.0 + tau)
    r = np.maximum(v - c, 0.0)
    # below c* the slope is negative, sqrt(a) E r >= ||r||_2, so the density
    # r / E r lies in the ball.  Where the top atoms nearly tie, c* and r carry
    # rounding of their own size; c then steps down until the density is
    # feasible, by ulps that double, which keeps E_Q X within a few of the value
    step = math.ulp(float(np.max(np.abs(v))))
    while True:
        mean_r = float(np.dot(p, r))
        if mean_r > 0.0:
            q = r / mean_r
            if float(np.dot(p, (q - 1.0) ** 2)) <= tau:
                return value, q
        c -= step
        step *= 2.0
        r = np.maximum(v - c, 0.0)


def _envelope_tv(div: DivergenceFn, tau: float, x: DiscreteRv, normalized: bool) -> tuple[float, np.ndarray]:
    """The total-variation balls.  On the density ball mass beta = tau/2 moves
    from the bottom of X onto ess sup X, for beta * ess sup + (1 - beta) * CVaR_beta.
    Without the density constraint the budget first lowers atoms toward Q = 0,
    from the bottom up while -x_i > max(ess sup X, 0), each by at most its
    mass; what is left raises ess sup X when it is positive."""
    limit = _limit_in_ball(div, tau, x, normalized)
    if limit is not None:
        return limit
    v, p = x.values, x.probs
    if normalized:
        budget = rise = 0.5 * tau  # below 1 - P(ess sup) once the point mass is ruled out
        lowered = np.ones(v.size, dtype=bool)
    else:
        budget, lowered = tau, -v > max(float(v[-1]), 0.0)
        rise = max(tau - float(p[lowered].sum()), 0.0) if v[-1] > 0.0 else 0.0
    q = np.where(lowered, np.clip(np.cumsum(p) - budget, 0.0, p) / p, 1.0)
    q[-1] += rise / p[-1]
    return float(np.dot(p * q, v)), q


def family_eval_envelope(j: StochasticDivergenceJ, tau: float, x: DiscreteRv) -> tuple[float, np.ndarray]:
    """sup{ E[QX] : J(Q) <= tau } over densities, with the maximizing density.

    A phi-generated ball takes its divergence's ``envelope_route`` (closed
    forms for kl, pearson and tv), which decides itself whether the maximizer
    of E[QX] over dom phi with no budget, ``_envelope_limit``, lies in the
    ball and is then the worst case; a phi without one goes straight to the
    per-atom parametric maximizer ``_envelope_sup_phi``, which tries the
    limit itself and needs ``conj_grad``: a phi with neither raises
    ValueError.  Other J fall back to a projected ascent with budget
    bisection toward the center.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    normalized = j.classification == "stochastic_divergence"
    div = j.phi
    if div is None:
        return _envelope_sup_generic(j, tau, x, normalized)
    if div.envelope_route is not None:
        return div.envelope_route(div, tau, x, normalized)
    if div.conj_grad is None:
        raise ValueError(f"phi {div.label!r} has neither conj_grad nor an envelope_route: no worst-case density for its ball")
    return _envelope_sup_phi(div, x, row=(x.probs, 1.0) if normalized else None, tau=tau)[:2]


def _envelope_sup_generic(j, tau, x, normalized) -> tuple[float, np.ndarray]:
    """Projected ascent with feasibility restored by bisection toward Q = 1."""
    v, p = x.values, x.probs
    center = np.ones(v.size)
    assert j.fn(center, p) <= tau + 1e-12, "center density must be feasible"

    def prepare(q):
        q = np.maximum(q, 0.0)
        if normalized:
            s = float(np.dot(p, q))
            q = q / s if s > 0 else center.copy()
        return q

    return ascend_envelope(p, v, center, lambda q: j.fn(q, p) <= tau, iters=4000, pull_iters=80, prepare=prepare)


# -- divergence quadrangles ---------------------------------------------------------


def _phi_regret(div: DivergenceFn, beta: float) -> RegretFn:
    """V(X) = inf_{l>0} l * (beta + E[phi*(X/l)]), with the subgradient the
    worst-case density of its dual, the ball E phi(Q) <= beta: (phi*)'(X/l*)
    where phi carries ``conj_grad``, with l* the root of the budget, and the
    divergence's own envelope route on the ball otherwise (tv, whose (phi*)'
    is set-valued)."""

    def fn(x: DiscreteRv) -> float:
        v, p = x.values, x.probs
        return perspective_inf(lambda lam: float(np.dot(p, div.phi_conj(v / lam))), beta, x)[0]

    if div.conj_grad is not None:
        subgradient = lambda x: _envelope_sup_phi(div, x, tau=beta)[1]
    else:
        subgradient = None if div.envelope_route is None else lambda x: div.envelope_route(div, beta, x, False)[1]
    return RegretFn(
        fn=fn,
        flags=Flags(True, div.kind == "divergence", False),
        label=f"{div.label}_regret({beta:g})",
        subgradient=subgradient,
    )


# The kl slope g = beta - KL(Q_l) is ln sum(w) less E_Q[u] / l, each rounded to
# eps times its size and ln sum(w) to eps at least: |g| below _KL_FLOOR times
# (1 + |ln sum(w)| + |E_Q u| / l) is rounding, and so is a budget below
# _KL_FLOOR.  For l >= range(X), KL(Q_l) <= (range / l)^2 / 8 (Hoeffding's
# lemma), below _KL_FLOOR past ln l = ln(range) + _KL_FLAT: the end of the
# slope's meaningful range, where the bracket stops widening.
_KL_FLOOR = 2.0 * float(np.finfo(float).eps)
_KL_FLAT = 0.5 * math.log(1.0 / (8.0 * _KL_FLOOR))


def _kl_slope(p: np.ndarray, u: np.ndarray, beta: float, t: float) -> tuple[float, float]:
    """The slope g(t) = beta - KL(Q_l) of l*(beta + ln E e^{u/l}) in l, at
    l = e^t, and its derivative g'(t) = Var_Q(u) / l^2, from one tilt
    w = p e^{u/l} of Q_l = w / sum(w).  A g within its rounding is 0."""
    lam = math.exp(t)
    w = p * np.exp(u / lam)
    s = float(w.sum())
    mean = float(np.dot(w, u)) / s
    log_s, tilt = math.log(s), mean / lam
    g = beta + log_s - tilt
    if abs(g) <= _KL_FLOOR * (1.0 + abs(log_s) + abs(tilt)):
        g = 0.0
    return g, float(np.dot(w, (u - mean) ** 2)) / s / lam / lam


def _kl_limit(p: np.ndarray, u: np.ndarray, vmax: float, beta: float, mean: float, var: float):
    """``_kl_risk`` as l -> inf, where EVaR = E X + l beta + Var X / (2 l) + O(l^-2):
    E X + sqrt(2 beta Var X), at most ess sup X, at l = sqrt(Var X / (2 beta))."""
    _, lam, w, mean_w = _kl_at(p, u, vmax, beta, math.sqrt(var / (2.0 * beta)))
    return min(vmax, vmax + mean + math.sqrt(2.0 * beta * var)), lam, w, mean_w


def _kl_risk(x: DiscreteRv, beta: float) -> tuple[float, float, np.ndarray, float]:
    """Entropic-tail risk (EVaR) inf_l l*(beta + ln E[exp(X/l)]), the optimal
    l, and the tilt's weights w = e^{(X - ess sup X)/l} at it with E w.

    The objective's slope in l is beta - KL(Q_l) for the tilt Q_l ~ e^{X/l},
    whose divergence falls from -ln P(ess sup X) as l -> 0 to 0 as l -> inf.
    Its root is found by Newton's method in t = ln l on ``_kl_slope``, whose
    derivative, the tilt's variance over l^2, comes from the same pass; a step
    that would leave the bracket of the slope's sign bisects it instead.  The
    bracket starts from the gaps of X, below which the tilt is the point mass,
    so the search does not depend on the units of X, and the first point is
    the Gaussian multiplier sqrt(Var X / (2 beta)) clamped into it.
    Exponentials are shifted by ess sup X throughout; when the point mass lies
    within the budget the ess-sup limit is returned with l = 0, and w is there
    the point mass's indicator of ess sup X.  Where the root lies beyond the
    slope's meaningful range (``_KL_FLOOR``) the l -> inf limit of
    ``_kl_limit`` is returned.
    """
    v, p = x.values, x.probs
    vmax = float(v[-1])
    if x.is_constant() or beta >= -math.log(float(p[-1])):
        return vmax, 0.0, (v == vmax).astype(float), float(p[-1])
    u = v - vmax
    mean = float(np.dot(p, u))
    var = float(np.dot(p, (u - mean) ** 2))
    if beta <= _KL_FLOOR:
        return _kl_limit(p, u, vmax, beta, mean, var)
    # at l = gap/800 every weight but the top atom's underflows to 0: the tilt is
    # the point mass, outside the budget, and the slope is negative.  The top
    # of the bracket, l = range(X), is taken on trust until a positive slope
    # is seen: a step beyond it tries it, and a negative slope there moves it
    # up by 2 in ln l, up to the end of the slope's meaningful range
    lo = math.log(-float(u[-2]) / 800.0)
    hi = math.log(-float(u[0]))
    flat, seen = hi + _KL_FLAT, False
    guess = 0.5 * math.log(var / (2.0 * beta)) if var > 0.0 else math.inf
    t = min(max(guess, lo), hi)
    for _ in range(200):
        g, dg = _kl_slope(p, u, beta, t)
        if g == 0.0:
            break
        if g > 0.0:
            hi, seen = t, True
        elif t < hi:
            lo = t
        elif hi >= flat:
            return _kl_limit(p, u, vmax, beta, mean, var)  # negative by rounding alone
        else:
            lo, hi = hi, min(hi + 2.0, flat)
            t = min(max(guess, lo), hi)
            continue
        step = g / dg if 0.0 < dg < math.inf else math.inf
        # the step is tested before the bracket: near the root t - step may
        # land on an end of the bracket, which is no reason to bisect
        if abs(step) <= 4.0 * math.ulp(t):
            t -= step
            break
        t -= step
        if not lo < t < hi:
            t = 0.5 * (lo + hi) if seen else hi
            if seen and (t == lo or t == hi):
                break  # adjacent floats: the root lies between them
    return _kl_at(p, u, vmax, beta, math.exp(t))


def _kl_at(p: np.ndarray, u: np.ndarray, vmax: float, beta: float, lam: float):
    """``_kl_risk``'s objective at l = lam with w and E w.  ln E e^{u/l} is
    log1p(E[e^{u/l} - 1]), a sum of terms of one sign: its rounding is relative,
    and does not grow with l as that of ln E w, a logarithm of about 1, does."""
    em = np.expm1(u / lam)
    w = 1.0 + em
    return vmax + lam * (beta + math.log1p(float(np.dot(p, em)))), lam, w, float(np.dot(p, w))


def make_divergence_quadrangle(div: DivergenceFn, beta: float) -> Quadrangle:
    """The quadrangle generated by a divergence function at budget beta.

    The regret is the phi-regret, by ``perspective_inf``, and the error its
    mean-centred form; ``div.closed_forms`` replace members by exact routes.
    Without them the statistic comes from projecting the regret, and so does
    the risk unless phi has a worst-case density (``conj_grad`` or an
    ``envelope_route``): then the risk is the support of its density ball,
    sup{E[QX] : E[phi(Q)] <= beta, E[Q] = 1}, by ``family_eval_envelope``.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    v_regret = _phi_regret(div, beta)
    forms = {"err": mean_center_regret(v_regret), "regret_fn": v_regret}
    label = f"{div.label}_quadrangle({beta:g})"
    if div.closed_forms is not None:
        forms.update(div.closed_forms(div, beta))
    else:
        if div.conj_grad is not None or div.envelope_route is not None:
            ball = StochasticDivergenceJ.from_phi(div, normalized=True)
            forms["risk"] = lambda x: family_eval_envelope(ball, beta, x)[0]
        else:
            forms["risk"] = lambda x: regret_to_risk(v_regret, x)[0]
        forms["statistic"] = lambda x: regret_to_risk(v_regret, x)[1]
        label += "|generic"
    return complete_quadrangle(label=label, **forms)


def _kl_forms(div: DivergenceFn, beta: float) -> dict:
    def statistic(x):
        # l ln E e^{X/l} at the optimal l, the risk less its budget term l beta
        val, lam = _kl_risk(x, beta)[:2]
        return StatInterval.point(val - lam * beta)

    return {"risk": lambda x: _kl_risk(x, beta)[0], "statistic": statistic}


def _tv_forms(div: DivergenceFn, beta: float) -> dict:
    if beta >= 2.0:
        raise ValueError("total-variation budget must lie in (0, 2)")

    def risk(x):
        hi = ess_bounds(x)[1]
        return 0.5 * beta * hi + (1.0 - 0.5 * beta) * cvar_direct(x, beta / 2.0)

    def statistic(x):
        # derived from the shifted-regret optimality condition: the argmin
        # is the midpoint set between the essential supremum and the
        # (beta/2)-quantile interval (checked against the generic route)
        q = quantile_interval(x, beta / 2.0)
        hi = ess_bounds(x)[1]
        return StatInterval(0.5 * (hi + q.lo), 0.5 * (hi + q.hi))

    return {"risk": risk, "statistic": statistic}


def _pearson_forms(div: DivergenceFn, beta: float) -> dict:
    """The risk min_c c + sqrt((1 + beta) E(X - c)_+^2) and its statistic.

    The phi-regret's dual inf over (mu, l) is this shifted form at
    c = mu - 2 l, so the statistic, the multiplier mu of E[Q] = 1, is
    m(c) = c + E(X - c)_+ at the optimal shifts; m is nondecreasing.
    """
    coef = beta + 1.0

    def statistic(x):
        c, _ = _pearson_shift(x, coef)
        # at (1 + beta) P(ess sup) = 1 every shift from the next atom up to ess sup X is optimal
        lo = float(x.values[-2]) if coef * float(x.probs[-1]) == 1.0 else c
        m = lambda t: t + float(np.dot(x.probs, np.maximum(x.values - t, 0.0)))
        return StatInterval(m(lo), m(c))

    return {"risk": lambda x: _pearson_shift(x, coef)[1], "statistic": statistic}


def _quadratic_forms(q: float, beta: float) -> dict:
    """The quadrangle of phi(x) = (x - 1)^2 / q above 1 and (x - 1)^2 / (1 - q)
    below: the error sqrt(beta E[q X_+^2 + (1 - q) X_-^2]) and the q-expectile
    as its statistic.  gen_extended_pearson is this phi; extended_pearson's
    phi is half of it at q = 1/2, so its ball at beta is this one's at 2 beta."""
    from .measures import expectile_value

    def error(x):
        return math.sqrt(beta * x.moment(lambda t: q * np.maximum(t, 0.0) ** 2 + (1.0 - q) * np.maximum(-t, 0.0) ** 2))

    err = ErrorFn(fn=error, flags=Flags(True, False, False), square_weights=(1.0 - q, q))
    return {
        "err": err,
        "regret_fn": mean_center_error(err),
        "deviation": lambda x: error(x.shift(-expectile_value(x, q))),
        "statistic": lambda x: StatInterval.point(expectile_value(x, q)),
    }


def perspective_quadrangle(base: Quadrangle, tau: float) -> Quadrangle:
    """Apply the perspective transform to every member of a quadrangle."""
    members = {
        name: (lambda fn: lambda x: family_eval_perspective(fn, tau, x))(getattr(base, name))
        for name in ("risk", "deviation", "regret", "error")
    }
    flags = Flags(True, base.flags.monotone, False)
    v_regret = RegretFn(fn=members["regret"], flags=flags)
    return complete_quadrangle(
        ErrorFn(fn=members["error"], flags=flags),
        lambda x: regret_to_risk(v_regret, x)[1],
        f"perspective({tau:g})*{base.label}",
        risk=members["risk"],
        deviation=members["deviation"],
        regret_fn=v_regret,
    )


# -- classification ------------------------------------------------------------------


def classify_divergence(j: StochasticDivergenceJ | Callable, probs, rng: Optional[np.random.Generator] = None) -> dict:
    """Sampled verification of the divergence-root/stochastic-divergence clauses."""
    rng = rng or np.random.default_rng(0)
    p = np.asarray(probs, dtype=float)
    m = p.size
    fn = j.fn if isinstance(j, StochasticDivergenceJ) else j
    ones = np.ones(m)
    report: dict[str, bool] = {}
    report["zero_at_one"] = abs(fn(ones, p)) <= 1e-9

    nonneg = True
    for _ in range(60):
        q = rng.uniform(0.0, 3.0, m)
        val = fn(q, p)
        if math.isfinite(val) and val < -1e-9:
            nonneg = False
    report["nonnegative"] = nonneg

    unique = True
    for _ in range(60):
        d = rng.normal(size=m)
        d -= np.dot(p, d)  # stay on the mass hyperplane
        if float(np.linalg.norm(d)) < 1e-12:
            continue
        q = ones + 0.35 * d / np.linalg.norm(d)
        if np.all(q >= 0):
            val = fn(q, p)
            if math.isfinite(val) and val <= 1e-12:
                unique = False
    report["unique_minimizer_at_one"] = unique

    # domain shape: negative coordinates must escape the domain
    q_neg = ones.copy()
    q_neg[0] = -0.5
    report["rejects_negative_density"] = not math.isfinite(fn(q_neg, p))
    # normalized domains must reject off-hyperplane densities
    q_off = ones * 1.4
    off_finite = math.isfinite(fn(q_off, p))
    core = report["zero_at_one"] and report["nonnegative"] and report["unique_minimizer_at_one"]
    if core and report["rejects_negative_density"]:
        report["classification"] = "divergence_root" if off_finite else "stochastic_divergence"
    else:
        report["classification"] = "general"
    return report


# -- the indicator regret that generates CVaR ------------------------------------------


def cvar_indicator_regret(x: DiscreteRv) -> float:
    """0 when E[X + 1]_+ <= 1, +inf otherwise."""
    return 0.0 if x.moment(lambda v: np.maximum(v + 1.0, 0.0)) <= 1.0 + 1e-12 else math.inf


def cvar_indicator_regret_family(tau: float) -> RegretFn:
    """Perspective family of the indicator regret: tau * inf{l > 0 : E[X + l]_+ <= l}.

    Projecting this regret at tau = alpha/(1-alpha) reproduces the alpha-tail
    CVaR.
    """

    def fn(x: DiscreteRv) -> float:
        v, p = x.values, x.probs
        tol = 1e-13 * (1.0 + float(np.max(np.abs(v))))
        if x.mean() > tol:
            return math.inf  # E[X+l]_+ - l >= E[X] > tol for every l: infeasible
        # the least l with E[X + l]_+ - l <= tol: the left side does not
        # increase in l and reads E[X] once l passes -ess inf X
        g = lambda lam: float(np.dot(p, np.maximum(v + lam, 0.0))) - lam - tol
        return tau * (0.0 if g(0.0) <= 0.0 else widen_root(g, 0.0, 1.0))

    return RegretFn(fn=fn, flags=Flags(True, True, False), label=f"cvar_indicator_family({tau:g})")
