"""Conjugate duality on the atom space: numerical Fenchel conjugates, risk
envelopes for positively homogeneous functionals, and the dual axiom checks.

Densities Q live on the same probability grid as the random variables, paired
through <X, Q> = E[XQ] = sum_i p_i x_i q_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import DiscreteRv
from .solvers import LpProblem, compass_search, solve_lp

__all__ = [
    "Envelope",
    "cvar_envelope",
    "mean_envelope",
    "mean_abs_risk_envelope",
    "expectile_envelope",
    "stddev_deviation_envelope",
    "envelope_sup",
    "ascend_envelope",
    "conjugate_eval",
    "envelope_extract",
    "dual_axiom_check",
    "DualReport",
]


@dataclass(frozen=True)
class Envelope:
    """Dual set of density vectors Q: a box lb <= Q <= ub and rows a_eq.Q = b_eq
    on the q coordinates (probability weights baked into the rows), cut by a
    membership test ``member`` where the set has one; ``contains`` reads all
    three, to one tolerance ``tol`` that ``member(q, tol)`` is given too.
    ``argmax(d)``, where the set's own geometry gives it, returns the
    exact maximizer of d.Q over the set with its value, from the order of
    r = d/p; without it d.Q is maximized by ``solve_lp`` on the box and rows,
    or by ``ascend_envelope`` on a membership test.
    """

    kind: str  # "risk" | "regret" | "deviation" | "error"
    probs: np.ndarray
    label: str = ""
    a_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    lb: Optional[np.ndarray] = None
    ub: Optional[np.ndarray] = None
    member: Optional[Callable[[np.ndarray, float], bool]] = None
    argmax: Optional[Callable[[np.ndarray], tuple[float, np.ndarray]]] = None

    @property
    def center(self) -> np.ndarray:
        m = self.probs.size
        return np.ones(m) if self.kind in ("risk", "regret") else np.zeros(m)

    @property
    def polyhedral(self) -> bool:
        """The box and rows are the whole set: no ``member`` cuts them."""
        return self.member is None

    def contains(self, q: np.ndarray, tol: float = 1e-9) -> bool:
        q = np.asarray(q, dtype=float)
        ok = self.a_eq is None or bool(np.all(np.abs(self.a_eq @ q - self.b_eq) <= tol))
        ok = ok and (self.lb is None or bool(np.all(q >= self.lb - tol)))
        ok = ok and (self.ub is None or bool(np.all(q <= self.ub + tol)))
        return ok and (self.member is None or bool(self.member(q, tol)))


def _density_row(p: np.ndarray, label: str, argmax, ub=None, member=None) -> Envelope:
    """The risk envelope {0 <= Q <= ub : E[Q] = 1} cut by ``member``."""
    row = dict(a_eq=p.reshape(1, -1), b_eq=np.ones(1), lb=np.zeros(p.size), ub=ub)
    return Envelope(kind="risk", probs=p, label=label, member=member, argmax=argmax, **row)


def cvar_envelope(alpha: float, probs) -> Envelope:
    """{Q : 0 <= Q <= 1/(1-alpha), E[Q] = 1}."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"cvar level alpha must lie in [0,1), got {alpha}")
    p = np.asarray(probs, dtype=float)
    cap = 1.0 / (1.0 - alpha)
    return _density_row(p, f"cvar({alpha:g})", lambda d: _cvar_argmax(d, p, cap), ub=np.full(p.size, cap))


def _by_ratio(direction, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d as floats, and the order of its atoms by r = d/p, largest first."""
    d = np.asarray(direction, dtype=float)
    return d, np.argsort(-(d / p), kind="stable")


def _cvar_argmax(direction, p: np.ndarray, cap: float) -> tuple[float, np.ndarray]:
    """The knapsack fill: Q = cap on the largest r until E[Q] reaches 1, one
    atom split."""
    d, order = _by_ratio(direction, p)
    before = np.concatenate(([0.0], np.cumsum(cap * p[order])[:-1]))
    q = np.empty_like(d)
    q[order] = np.clip((1.0 - before) / p[order], 0.0, cap)
    return float(d @ q), q


def _two_level_argmax(direction, p: np.ndarray, level) -> tuple[float, np.ndarray]:
    """The best of the vertices Q_k, k = 0..m, on which the k atoms of
    largest r, of mass C_k, take the high value and the rest the low one,
    the pair ``level(C_k)``.  Over a set whose densities differ by at most a
    bound (mean_abs) or a ratio (expectile), a linear objective is
    maximized at such a vertex."""
    d, order = _by_ratio(direction, p)
    mass = np.concatenate(([0.0], np.cumsum(p[order])))
    top = np.concatenate(([0.0], np.cumsum(d[order])))
    low, high = level(mass)
    k = int(np.argmax(low * d.sum() + (high - low) * top))
    q = np.full_like(d, low[k])
    q[order[:k]] = high[k]
    return float(d @ q), q


def mean_envelope(probs) -> Envelope:
    """The singleton {1}: the box [1, 1], on which d.Q is the sum of d."""
    p = np.asarray(probs, dtype=float)
    ones = np.ones(p.size)
    return Envelope(kind="risk", probs=p, label="mean", lb=ones, ub=ones, argmax=lambda d: (float(np.sum(d)), np.ones(p.size)))


def mean_abs_risk_envelope(probs) -> Envelope:
    """{Q >= 0 : E[Q] = 1, Q_i - Q_j <= 1}, the dual set of E[X - EX]_+ + E[X]:
    the pair constraints read max Q - min Q <= 1."""
    p = np.asarray(probs, dtype=float)
    return _density_row(
        p,
        "mean_abs",
        # Q_k = (1 - C_k) + 1[top k]
        lambda d: _two_level_argmax(d, p, lambda c: (1.0 - c, 2.0 - c)),
        member=lambda q, tol: float(np.max(q) - np.min(q)) <= 1.0 + tol,
    )


def expectile_envelope(q_level: float, probs) -> Envelope:
    """{Q >= 0 : E[Q] = 1, (1-q) Q_i <= q Q_j}, coherent for q > 1/2: the pair
    constraints read (1-q) max Q - q min Q <= 0."""
    if not 0.5 < q_level < 1.0:
        raise ValueError("expectile envelope requires q in (1/2, 1)")
    p = np.asarray(probs, dtype=float)
    beta = q_level / (1.0 - q_level)
    return _density_row(
        p,
        f"expectile({q_level:g})",
        # Q_k = t_k (1 + (beta - 1) 1[top k]), t_k = 1/(1 + (beta - 1) C_k)
        lambda d: _two_level_argmax(d, p, lambda c: (1.0 / (1.0 + (beta - 1.0) * c), beta / (1.0 + (beta - 1.0) * c))),
        member=lambda q, tol: (1.0 - q_level) * float(np.max(q)) - q_level * float(np.min(q)) <= tol,
    )


def stddev_deviation_envelope(lam: float, probs) -> Envelope:
    """{Q : E[Q] = 0, ||Q||_2 <= lam}, the dual set of lam * sigma(X)."""
    p = np.asarray(probs, dtype=float)

    def member(q, tol):
        q = np.asarray(q, dtype=float)
        if abs(float(np.dot(p, q))) > tol:
            return False
        return float(np.dot(p, q * q)) <= lam * lam + tol

    def argmax(direction):
        # Q = lam (r - E r)/sigma(r), r = d/p, centred on its first entry so a constant r gives 0
        r = np.asarray(direction, dtype=float) / p
        c = r - r[0] - float(np.dot(p, r - r[0]))
        sigma = math.sqrt(float(np.dot(p, c * c)))
        return lam * sigma, (lam / sigma) * c if sigma > 0.0 else np.zeros_like(r)

    return Envelope(kind="deviation", probs=p, label=f"stddev({lam:g})", member=member, argmax=argmax)


def envelope_sup(env: Envelope, values) -> tuple[float, Optional[np.ndarray]]:
    """sup_{Q in env} E[XQ] with a maximizer when available."""
    x = np.asarray(values, dtype=float)
    if env.argmax is not None or env.polyhedral:
        val, q = envelope_sup_direction(env, env.probs * x)
        if q is None:
            raise RuntimeError("envelope support LP not optimal")
        return val, q
    return ascend_envelope(env.probs, x, env.center.astype(float), env.contains, iters=3000, pull_iters=60)


def ascend_envelope(p, x, center, member, iters: int, pull_iters: int, prepare=None) -> tuple[float, np.ndarray]:
    """sup E[XQ] over a convex set of densities known by a membership oracle.

    Steps of length 1/sqrt(k) along the gradient p * x start at ``center``,
    a member; ``prepare`` maps each step before the test, and a step outside
    the set is pulled back toward the center by ``pull_iters`` bisections.
    Returns the best value seen and its density.
    """
    q = center.copy()
    best_q, best = q.copy(), float(np.dot(p, q * x))
    grad = p * x
    gn = float(np.linalg.norm(grad)) or 1.0
    for k in range(1, iters + 1):
        cand = q + (1.0 / math.sqrt(k)) * grad / gn
        if prepare is not None:
            cand = prepare(cand)
        if not member(cand):
            lo_t, hi_t = 0.0, 1.0
            for _ in range(pull_iters):
                mid = 0.5 * (lo_t + hi_t)
                if member(center + mid * (cand - center)):
                    lo_t = mid
                else:
                    hi_t = mid
            cand = center + lo_t * (cand - center)
        q = cand
        val = float(np.dot(p, q * x))
        if val > best + 1e-15:
            best, best_q = val, q.copy()
    return best, best_q


def conjugate_eval(f: Callable[[DiscreteRv], float], q, probs, box: float = 50.0) -> float:
    """sup_X (E[XQ] - f(X)) over value vectors in [-box, box]^m.

    Concave maximization by compass search from X = 0, the one
    derivative-free route, for a bare callable; growth along a constant or
    coordinate ray, or at the box edge under box inflation, reports +inf.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(probs, dtype=float)

    def value(vals):
        return float(np.dot(p, q * vals)) - f(DiscreteRv(vals, p))

    # recession probe: growth along constant and coordinate rays means +inf
    m = q.size
    rays = [np.ones(m), -np.ones(m)]
    rays += [r for e in np.eye(m) for r in (e, -e)]
    for d in rays:
        near, far = value(0.5 * box * d), value(box * d)
        if math.isfinite(near) and far > near + 1e-7 * (1.0 + abs(near)) and far > value(0.25 * box * d) + 1e-7:
            return math.inf

    def solve_in(b):
        arg, neg = compass_search(lambda vals: -value(vals), np.zeros(m), step=b / 8.0, project=lambda vals: np.clip(vals, -b, b), tol=1e-11, diagonals=True)
        return -neg, arg

    val1, arg1 = solve_in(box)
    if float(np.max(np.abs(arg1))) >= box * (1.0 - 1e-6):
        val2, _ = solve_in(4.0 * box)
        if val2 > val1 + 1e-6 * (1.0 + abs(val1)):
            return math.inf
        return val2
    return val1


def envelope_extract(
    f: Callable[[DiscreteRv], float],
    probs,
    kind: str = "risk",
    label: str = "",
    known: Optional[Envelope] = None,
    rng: Optional[np.random.Generator] = None,
) -> Envelope:
    """Envelope of a positively homogeneous closed convex functional.

    Known catalog envelopes pass through; otherwise a membership oracle is
    built from the conjugate over values in [-20, 20]^m: inside iff the
    conjugate value is at most 20 tol, the most that a Q within tol of the
    set in each coordinate reaches.  Sampled
    positive homogeneity is a precondition.
    """
    p = np.asarray(probs, dtype=float)
    rng = rng or np.random.default_rng(0)
    for _ in range(6):
        vals = rng.uniform(-2.0, 2.0, p.size)
        x = DiscreteRv(vals, p)
        base = f(x)
        for lam in (0.5, 2.0, 7.0):
            scaled = f(x.scale(lam))
            if abs(scaled - lam * base) > 1e-7 * (1.0 + abs(scaled)):
                raise ValueError("functional is not positively homogeneous on samples")
    if known is not None:
        return known

    def member(q, tol):
        return conjugate_eval(f, q, p, box=20.0) <= 20.0 * tol

    return Envelope(kind=kind, probs=p, label=label or "oracle", member=member)


@dataclass
class DualReport:
    clauses: dict[str, bool]
    details: dict[str, str] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.clauses.values())


def _sample_envelope_points(env: Envelope, rng: np.random.Generator, n: int) -> list[np.ndarray]:
    if env.argmax is None and not env.polyhedral:
        return []
    qs = [envelope_sup_direction(env, rng.normal(size=env.probs.size))[1] for _ in range(n)]
    return [q for q in qs if q is not None]


def envelope_sup_direction(env: Envelope, direction) -> tuple[float, Optional[np.ndarray]]:
    """Maximize an arbitrary linear objective (not probability weighted):
    by the envelope's ``argmax`` where it has one, else by ``solve_lp`` on
    its box and rows."""
    if env.argmax is not None:
        return env.argmax(direction)
    d = np.asarray(direction, dtype=float)
    if not env.polyhedral:
        raise ValueError("direction maximization needs a polyhedral envelope")
    bounds = [(None if env.lb is None else env.lb[i], None if env.ub is None else env.ub[i]) for i in range(d.size)]
    sol = solve_lp(LpProblem(c=-d, a_eq=env.a_eq, b_eq=env.b_eq, bounds=bounds))
    if sol.status != "optimal":
        return math.nan, None
    return -sol.objective, sol.x


def dual_axiom_check(env: Envelope, kind: Optional[str] = None, rng: Optional[np.random.Generator] = None) -> DualReport:
    """Check the conjugate characterization clauses for the envelope's kind.

    Kinds: error/deviation center at 0, regret/risk at 1; deviation/risk
    envelopes live on the hyperplane E[Q] = 0 / 1; the separation clause asks
    for a witness density beating the threshold for sampled nonzero
    (nonconstant) X.
    """
    kind = kind or env.kind
    rng = rng or np.random.default_rng(0)
    p = env.probs
    m = p.size
    clauses: dict[str, bool] = {}
    details: dict[str, str] = {}

    center = np.ones(m) if kind in ("risk", "regret") else np.zeros(m)
    clauses["center_membership"] = env.contains(center)

    if kind in ("risk", "deviation"):
        target = 1.0 if kind == "risk" else 0.0
        ok = True
        worst = 0.0
        for q in _sample_envelope_points(env, rng, 20):
            gap = abs(float(np.dot(p, q)) - target)
            worst = max(worst, gap)
            ok &= gap <= 1e-9
        clauses["hyperplane"] = ok
        details["hyperplane"] = f"max |E[Q] - {target}| = {worst:.2e}"

    ok = True
    worst = math.inf
    for _ in range(20):
        vals = rng.uniform(-3.0, 3.0, m)
        if kind in ("risk", "deviation"):
            if np.allclose(vals, vals[0]):
                continue  # separation is only claimed for nonconstant X
        else:
            if np.allclose(vals, 0.0):
                continue
        sup, _ = envelope_sup(env, vals)
        threshold = float(np.dot(p, vals)) if kind in ("risk", "regret") else 0.0
        gap = sup - threshold
        worst = min(worst, gap)
        ok &= gap > 1e-9
    clauses["separation"] = ok
    details["separation"] = f"min margin = {worst:.2e}"
    return DualReport(clauses, details)
