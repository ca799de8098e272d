"""Building complete quadrangles from errors or regrets, and combining them.

A quadrangle bundles five evaluators: risk, deviation, regret, error, and the
statistic (the interval of constant shifts attaining the projection minima).
Errors and regrets generate the rest: deviation by projecting the error over
constant shifts, risk by the shifted-regret minimum, with both argmin
intervals provably equal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .core import DiscreteRv, SortedSums, StatInterval, cdf_tol, chunk_rows, map_chunks, sample_rvs
from .solvers import (
    KSECTION,
    LpProblem,
    ObjectiveInfiniteError,
    UnboundedObjectiveError,
    argmin_interval_pwl,
    flat_interval,
    ksection_crossings,
    minimize_scalar_convex,
    pwl_slope_argmin,
    solve_lp,
)

__all__ = [
    "Flags",
    "ScalarLoss",
    "MomentMaxSpec",
    "ErrorFn",
    "RegretFn",
    "Functional",
    "ShiftSlopes",
    "Quadrangle",
    "SubregularityError",
    "error_from_loss",
    "error_from_moment_max",
    "lp_encodable",
    "minimize_affine",
    "affine_cut_oracle",
    "project_error",
    "regret_to_risk",
    "mean_center_error",
    "mean_center_regret",
    "quadrangle_from_error",
    "check_subregular_error",
    "check_monotone_error",
    "mix_quadrangles",
    "scale_quadrangle",
    "revert_quadrangles",
    "expectation_quadrangle",
    "error_from_coherent_risk",
]


class SubregularityError(ValueError):
    """A sampled axiom of the error/regret contract failed."""


@dataclass(frozen=True)
class Flags:
    positively_homogeneous: bool = False
    monotone: bool = False
    expectation_type: bool = False

    @property
    def coherent(self) -> bool:
        return self.monotone and self.positively_homogeneous


# -- scalar losses -------------------------------------------------------------


@dataclass(frozen=True)
class ScalarLoss:
    """Pointwise loss e with one-sided derivatives; v(x) = x + e(x) is its regret twin.

    ``pieces`` (slope, intercept) is set when e is the max of finitely many
    affine pieces, which unlocks exact slope scans and LP encodings.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    d_left: Callable[[np.ndarray], np.ndarray]
    d_right: Callable[[np.ndarray], np.ndarray]
    kinks: tuple[float, ...] = ()
    pieces: Optional[tuple[tuple[float, float], ...]] = None
    label: str = ""

    @property
    def piecewise_linear(self) -> bool:
        return self.pieces is not None

    def shift_slopes(self, x: DiscreteRv, tilt: float = 0.0) -> Callable[[np.ndarray], np.ndarray]:
        """C -> the left and right slopes of C -> tilt * C + E[e(X - C)] for
        each C of an array, tilt - E[e'_+(X - C)] and tilt - E[e'_-(X - C)],
        as two rows.

        Each expectation is summed as ``np.dot`` sums one, so the slopes are
        those of the scalar criterion; a loss with one derivative takes it once.
        """
        v, p = x.values, x.probs

        def mean_d(d, cs):
            rows = lambda c: np.matmul(d(v[None, :] - c[:, None])[:, None, :], p[:, None])[:, 0, 0]
            return map_chunks(rows, cs, v.size)

        def slopes(cs):
            cs = np.asarray(cs, dtype=float)
            right = tilt - mean_d(self.d_left, cs)
            return np.stack((right if self.d_right is self.d_left else tilt - mean_d(self.d_right, cs), right))

        return slopes

    @staticmethod
    def from_pieces(pieces: Sequence[tuple[float, float]], label: str = "") -> "ScalarLoss":
        """e(z) = max_k (s_k z + b_k) from affine pieces sorted by slope."""
        ps = sorted(set((float(s), float(b)) for s, b in pieces))
        slopes = np.array([s for s, _ in ps])
        icpts = np.array([b for _, b in ps])

        def fn(z):
            z = np.asarray(z, dtype=float)
            return np.max(np.multiply.outer(z, slopes) + icpts, axis=-1)

        def one_sided(pick, fill):
            # the largest or least slope among the pieces active at each z
            def d(z):
                vals = np.multiply.outer(np.asarray(z, dtype=float), slopes) + icpts
                best = np.max(vals, axis=-1, keepdims=True)
                active = vals >= best - 1e-12 * (1.0 + np.abs(best))
                return pick(np.where(active, np.broadcast_to(slopes, vals.shape), fill), axis=-1)

            return d

        d_right, d_left = one_sided(np.max, -np.inf), one_sided(np.min, np.inf)
        return ScalarLoss(fn, d_left, d_right, tuple(_upper_hull(ps)[1]), tuple(ps), label)


def _upper_hull(pieces) -> tuple[list, list]:
    """The affine pieces (slope, intercept) on the upper envelope of ``pieces``,
    by slope, and the kinks where each meets the next."""
    kink = lambda lower, upper: (lower[1] - upper[1]) / (upper[0] - lower[0])
    hull = []
    # by slope, so of two parallel pieces the higher comes last and replaces the lower
    for piece in sorted(pieces):
        while hull and (hull[-1][0] == piece[0] or len(hull) > 1 and kink(hull[-1], piece) <= kink(hull[-2], hull[-1])):
            hull.pop()
        hull.append(piece)
    return hull, [kink(lo, hi) for lo, hi in zip(hull, hull[1:])]


def _affine_loss(loss: ScalarLoss, scale: float = 1.0, tilt: float = 0.0) -> ScalarLoss:
    """z -> scale * e(z) + tilt * z, with its derivatives and affine pieces."""
    pieces = None if loss.pieces is None else tuple((scale * s + tilt, scale * b) for s, b in loss.pieces)
    d_left = lambda z: scale * loss.d_left(z) + tilt
    return ScalarLoss(
        fn=lambda z: scale * loss.fn(z) + tilt * np.asarray(z, dtype=float),
        d_left=d_left,
        d_right=d_left if loss.d_right is loss.d_left else lambda z: scale * loss.d_right(z) + tilt,
        kinks=loss.kinks,
        pieces=pieces,
        label=loss.label,
    )


@dataclass(frozen=True)
class MomentMaxSpec:
    """Functionals of the form max_j (a_j E[Z] + b_j E[Z_+] + c_j), b_j >= 0.

    Piecewise linear in constant shifts of Z, hence LP-encodable and amenable
    to exact slope scans.
    """

    terms: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        for _, b, _ in self.terms:
            if b < 0:
                raise ValueError("E[Z_+] coefficients must be nonnegative")

    def value(self, x: DiscreteRv) -> float:
        m = x.mean()
        t = x.mean_pos()
        return max(a * m + b * t + c for a, b, c in self.terms)

    def subgradient(self, x: DiscreteRv) -> np.ndarray:
        """a + b 1{X > 0} for an active term (a, b, c): E[Y_+] >= E[Y 1{X > 0}]."""
        m, t = x.mean(), x.mean_pos()
        a, b, _ = max(self.terms, key=lambda term: term[0] * m + term[1] * t + term[2])
        return a + b * (x.values > 0.0)

    def shift_breakpoints(self, x: DiscreteRv, sums: Optional[SortedSums] = None) -> np.ndarray:
        """Kinks of C -> value(X - C), sorted and distinct: the atoms and the
        terms' crossings.  Between consecutive atoms term j is the line
        a_j (E[X] - C) + c_j + b_j (S - C P) in C, P and S the mass and first
        moment above, centred (``sums``, the ``SortedSums`` of X, built here
        when not given); a crossing is kept when it falls inside its segment.
        """
        v = x.values
        sums = SortedSums(x) if sums is None else sums
        lo, hi = np.append(-np.inf, v), np.append(v, np.inf)
        pts = [v]
        for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(self.terms, 2):
            # the terms' difference, (da + db P) (ref + d - C) with d where it vanishes
            slope = (a1 - a2) + (b1 - b2) * sums.hi_p
            ok = np.abs(slope) > 1e-14
            d = np.divide((a1 - a2) * sums.mean_u + (c1 - c2) + (b1 - b2) * sums.hi_s, slope, out=np.zeros_like(slope), where=ok)
            cstar = sums.ref + d
            pts.append(cstar[ok & (lo <= cstar) & (cstar <= hi)])
        return np.unique(np.concatenate(pts))


# -- error / regret wrappers -----------------------------------------------------


@dataclass(frozen=True)
class ShiftSlopes:
    """A slope evaluator of ``Functional.shift_slopes`` with what its form
    tells of its pieces: ``fn(cs)`` gives the rows of left and right slopes,
    ``kinks`` the sorted C at which their formula changes and ``crossing`` a
    predicted C at which they cross 0, each None where the form gives none."""

    fn: Callable[[np.ndarray], np.ndarray]
    kinks: Optional[np.ndarray] = None
    crossing: Optional[float] = None

    def __call__(self, cs):
        return self.fn(cs)


@dataclass(frozen=True)
class Functional:
    """An error (nonnegative, zero at 0) or a regret (V >= E) functional.

    ``loss``, ``moment_max`` and ``shift_breakpoints`` carry the structure
    that the projections exploit when it is known; affine loss pieces and a
    moment-max form give both the shift breakpoints and the slopes
    (``_hinge_forms``).  Without them, ``shift_slopes(x, tilt)``, built once
    per X, gives in one call the rows of left and right slopes of the convex
    C -> tilt * C + f(X - C), nondecreasing in C, at every C of an array, the
    tilt added once so that a slope reads 0 where it cancels: a smooth
    functional's slope crossing, and, with shift breakpoints, the slopes of
    the segments between them.  A smooth functional's evaluator may be a
    ``ShiftSlopes`` that carries its kinks, which then bracket the crossing
    in place of the atoms, and its predicted crossing, where the search
    starts; the crossing found is the one the slopes fix, whatever the
    prediction (``_stat_from_derivatives``).  ``subgradient(x)`` is a
    density g on the atoms of X with f(Y) >= f(X) + E[(Y - X) g] for every
    Y on them.
    ``square_weights`` (w_-, w_+) makes f a nondecreasing function of
    E[w_- Z_-^2 + w_+ Z_+^2], minimized over an affine family by least squares.
    """

    fn: Callable[[DiscreteRv], float]
    flags: Flags = Flags()
    label: str = ""
    loss: Optional[ScalarLoss] = None
    moment_max: Optional[MomentMaxSpec] = None
    shift_breakpoints: Optional[Callable[[DiscreteRv], np.ndarray]] = None
    shift_slopes: Optional[Callable[..., Callable[[np.ndarray], np.ndarray]]] = None
    subgradient: Optional[Callable[[DiscreteRv], np.ndarray]] = None
    square_weights: Optional[tuple[float, float]] = None

    def __call__(self, x: DiscreteRv) -> float:
        return self.fn(x)


ErrorFn = RegretFn = Functional


def error_from_loss(loss: ScalarLoss, flags: Flags | None = None, label: str = "") -> ErrorFn:
    if flags is None:
        flags = Flags(expectation_type=True)
    return ErrorFn(
        fn=lambda x: x.moment(loss.fn),
        flags=replace(flags, expectation_type=True),
        label=label or loss.label,
        loss=loss,
        shift_slopes=None if loss.piecewise_linear else loss.shift_slopes,
        subgradient=lambda x: loss.d_right(x.values),
    )


def error_from_moment_max(spec: MomentMaxSpec, flags: Flags, label: str = "") -> ErrorFn:
    return ErrorFn(
        fn=spec.value,
        flags=flags,
        label=label,
        moment_max=spec,
        shift_breakpoints=spec.shift_breakpoints,
        subgradient=spec.subgradient,
    )


def mean_center_error(err: ErrorFn) -> RegretFn:
    """V(X) = E(X) + E[X]."""
    return _affine_functional(err, tilt=1.0)


def mean_center_regret(v: RegretFn) -> ErrorFn:
    """E(X) = V(X) - E[X]."""
    return _affine_functional(v, tilt=-1.0)


def _affine_functional(f: Functional, scale: float = 1.0, tilt: float = 0.0, flags: Optional[Flags] = None) -> Functional:
    """scale * f(X) + tilt * E[X] for scale > 0, with the structure of f carried over.

    Its shift slopes at tilt t are scale times f's at (t - tilt) / scale, so
    t - tilt is formed before it meets a slope and nothing is added and taken off,
    with the same kinks and predicted crossing."""
    ss, sg = f.shift_slopes, f.subgradient

    def shift_slopes(x, t=0.0):
        at = ss(x, (t - tilt) / scale)
        return ShiftSlopes(lambda cs: scale * at(cs), getattr(at, "kinks", None), getattr(at, "crossing", None))

    return Functional(
        fn=lambda x: scale * f.fn(x) + tilt * x.mean(),
        flags=flags or f.flags,
        label=f.label,
        loss=None if f.loss is None else _affine_loss(f.loss, scale, tilt),
        moment_max=None if f.moment_max is None else MomentMaxSpec(
            tuple((scale * a + tilt, scale * b, scale * c) for a, b, c in f.moment_max.terms)
        ),
        shift_breakpoints=f.shift_breakpoints,
        shift_slopes=None if ss is None else shift_slopes,
        subgradient=None if sg is None else lambda x: scale * sg(x) + tilt,
        square_weights=f.square_weights if tilt == 0.0 else None,
    )


# -- decisions: min c.theta + sum_k w_k F_k(b_k - A_k theta) in the envelope dual ----------


def lp_encodable(f: Functional) -> bool:
    """Whether f carries the data ``minimize_affine`` compiles: affine loss pieces or a moment-max form."""
    return (f.loss is not None and f.loss.piecewise_linear) or f.moment_max is not None


def _hinge_forms(f: Functional) -> list:
    """f(Z) = max_k [a_k E[Z] + c_k + sum_j h_kj E[(Z - kappa_kj)_+]], h_kj > 0,
    as the forms (a_k, c_k, ((h_kj, kappa_kj), ...)).  A loss is one form: the
    upper envelope of its pieces, s_1 z + b_1 + sum_j (s_j - s_{j-1})(z -
    kappa_j)_+ over its kinks kappa_j.  A moment-max form gives a form per
    term (a, b, c), its b Z_+ a hinge at 0."""
    if f.loss is None:
        return [(a, c, ((b, 0.0),) if b > 0.0 else ()) for a, b, c in f.moment_max.terms]
    hull, kinks = _upper_hull(f.loss.pieces)
    # the loss's own kinks where they are the hull's: ``_affine_loss`` keeps them exact
    kinks = f.loss.kinks if len(f.loss.kinks) == len(kinks) else kinks
    return [(*hull[0], tuple((hi[0] - lo[0], kappa) for lo, hi, kappa in zip(hull, hull[1:], kinks)))]


def minimize_affine(terms, cost, bounds=None, a_eq=None, b_eq=None) -> tuple[np.ndarray, float, bool]:
    """min cost.theta + sum_k w_k F_k(b_k - A_k theta) over bounds and equality
    rows on theta, exactly.

    ``terms`` holds (F_k, A_k, b_k, p_k, w_k): Z = b_k - A_k theta has atoms of
    probabilities p_k, and each F_k is compiled from its hinge forms
    (``_hinge_forms``).  When the forms of every F_k share one hinge vector
    (losses, quantile, mean_pl, biased_mean), or a lone F_k has two forms of
    which one has no hinge (expectile_pl), the program is solved in its
    boxed dual (``_affine_dual``), with one row per theta coordinate and per
    term of several forms.  Any other shape, such as expectile_pl next to
    other terms, runs the epigraph LP (``_affine_primal``).

    Returns theta, the objective at theta and whether an alternate optimum
    moves theta.
    """
    c_theta = np.asarray(cost, dtype=float)
    n = c_theta.size
    compiled = [
        (_hinge_forms(f), np.asarray(a, dtype=float).reshape(-1, n), np.asarray(b, dtype=float), np.asarray(p, dtype=float), w)
        for f, a, b, p, w in terms
    ]
    bounds = list(bounds or [(None, None)] * n)
    a_eq = None if a_eq is None else np.atleast_2d(np.asarray(a_eq, dtype=float))
    hinge_sets = [{hinges for *_, hinges in forms} for forms, *_ in compiled]
    shared = all(len(hs) == 1 for hs in hinge_sets)
    lone_pair = len(compiled) == 1 and len(compiled[0][0]) == 2 and () in hinge_sets[0]
    route = _affine_dual if shared or lone_pair else _affine_primal
    theta, nonunique = route(compiled, c_theta, bounds, a_eq, b_eq)
    value = float(c_theta @ theta)
    for forms, a, b, p, w in compiled:
        z = b - a @ theta
        value += w * max(ak * (p @ z) + ck + sum(h * (p @ np.maximum(z - kappa, 0.0)) for h, kappa in hinges) for ak, ck, hinges in forms)
    return theta, value, nonunique


# Dinkelbach rounds before ``_affine_dual`` gives up
_DINKELBACH_ROUNDS = 100


def _affine_dual(compiled, c_theta, bounds, a_eq, b_eq) -> tuple[np.ndarray, bool]:
    """The decision program in its boxed dual, max {E[Qb] : Q in the
    envelope, E[QA] = cost} (Koenker & d'Orey 1987 for one form):
    h (Z_i - kappa)_+ = max {u (Z_i - kappa) : 0 <= u <= h}, and a max over
    forms is the max over weights m_k >= 0 summing to 1.  So with y = -theta
    the LP is max sum u_i (b_i - kappa) + sum m_k (a_k p.b + c_k) + lo.l -
    hi.g + b_eq.mu over a column u_i in [0, w p_i h] per atom and shared
    hinge (row coefficients A_i), a column m_k >= 0 per form of a term of
    several (coefficients a_k p^T A, on a row of its own that sums them to
    w), a column l >= 0 (g >= 0) per finite lower (upper) bound on theta and
    a free column mu per equality row, subject to one row per coordinate of
    theta: sum u_i A_i + sum m_k a_k p^T A + l - g + a_eq^T mu = cost - sum
    w a p^T A over one-form terms.  Each u runs in its own units,
    coefficients A_i on [0, w h p_i]: the dual simplex's ratio test and bound
    flips do not depend on a column's scale, and an atom of tiny mass keeps
    entries clear of the pivot tolerance.  The LP runs in theta - theta0,
    theta0 the least-squares fit of the atoms, so each u starts at the bound
    that Z's sign at theta0 favours.  theta is theta0 minus the theta rows'
    multipliers, unique unless an alternate dual optimum moves them.

    A lone term w max(a_1 E[Z] + c_1, F_2(Z)), F_2 a form with hinges
    (expectile_pl), has its hinge box scaled by F_2's weight lambda.  Divided
    by lambda the box is fixed, and the program is linear-fractional in
    mu = (1 - lambda)/lambda: max N / (1 + mu), mu a column of coefficients
    w a_1 p^T A - cost.  Dinkelbach's (1967) iteration solves it as the same
    LP with mu's gain less the last ratio rho, from rho the value at
    lambda = 0 (the LP of mu = 1 and the bound and equality columns) where
    that is finite, and from the ratio of the first LP's point otherwise,
    until the LP's excess max N - rho (1 + mu) is at most 0.  rho, a lower
    bound, is then the optimum, and the rows' multipliers an optimal theta:
    each form's value there is at most rho.  At lambda = 0 the excess can
    stay below 0, the ratio reaching rho only as mu grows without bound."""
    n = c_theta.size
    root = [np.sqrt(w * p) for _, _, _, p, w in compiled]
    design = np.vstack([r[:, None] * a for r, (_, a, *_) in zip(root, compiled)])
    theta0 = np.linalg.lstsq(design, np.concatenate([r * b for r, (_, _, b, *_) in zip(root, compiled)]), rcond=None)[0]
    rhs = c_theta.copy()
    # per column: its rows on theta, its gain in the dual objective and its bounds
    cols, gain, col_bounds, sums, ratio = [], [], [], [], None
    for forms, a, b, p, w in compiled:
        r0, pa = b - a @ theta0, p @ a
        if len({hinges for *_, hinges in forms}) > 1:
            (a1, c1, _), (a2, c2, hinges) = sorted(forms, key=lambda form: len(form[2]))
            ratio = (w * a1 * pa - c_theta, w * (a1 * (p @ r0) + c1), w * (a2 * (p @ r0) + c2))
            forms = [(a2, c2, hinges)]
        for h, kappa in forms[0][2]:
            cols.append(a)
            gain.append(r0 - kappa)
            col_bounds.append(np.column_stack((np.zeros(p.size), w * h * p)))
        if len(forms) == 1:
            rhs -= w * forms[0][0] * pa
        else:
            ak, ck = np.array([form[:2] for form in forms]).T
            sums.append((sum(map(len, gain)), ak.size, w))
            cols.append(np.outer(ak, pa))
            gain.append(ak * (p @ r0) + ck)
            col_bounds.append(np.tile((0.0, math.inf), (ak.size, 1)))
    n_fixed = sum(map(len, gain))
    lo, hi = (np.array([np.nan if bd[k] is None else bd[k] for bd in bounds], dtype=float) for k in (0, 1))
    for side, sign in ((lo - theta0, 1.0), (hi - theta0, -1.0)):
        at = np.flatnonzero(np.isfinite(side))
        cols.append(sign * np.eye(n)[at])
        gain.append(sign * side[at])
        col_bounds.append(np.tile((0.0, math.inf), (at.size, 1)))
    if a_eq is not None:
        cols.append(a_eq)
        gain.append(np.asarray(b_eq, dtype=float) - a_eq @ theta0)
        col_bounds.append(np.tile((-math.inf, math.inf), (a_eq.shape[0], 1)))
    a_lp, col_bounds = np.vstack(cols).T, np.vstack(col_bounds)
    for start, k, w in sums:
        row = np.zeros(a_lp.shape[1])
        row[start : start + k] = 1.0
        a_lp, rhs = np.vstack((a_lp, row)), np.append(rhs, w)
    # gains in units of the largest, so that the Dinkelbach stop, 1e-14 (1 + |rho|), is relative to them
    gain = np.concatenate(gain)
    unit = float(np.max(np.abs(gain), initial=abs(ratio[1]) if ratio else 0.0)) or 1.0
    gain /= unit
    if ratio is None:
        sol = _dual_lp(gain, a_lp, rhs, col_bounds)
    else:
        coef, g1, g2 = ratio[0], ratio[1] / unit, ratio[2] / unit
        at_zero = solve_lp(LpProblem(c=-np.append(g1, gain[n_fixed:]), a_eq=np.hstack((coef[:, None], a_lp[:, n_fixed:])), b_eq=np.zeros(n), bounds=np.vstack(([1.0, 1.0], col_bounds[n_fixed:]))))
        if at_zero.status == "unbounded":
            raise RuntimeError("decision LP infeasible")
        # rho is a lower bound once it is the value at lambda = 0 or a ratio the LP attained
        rho, bound = (-at_zero.objective, True) if at_zero.status == "optimal" else (0.0, False)
        a_lp, col_bounds = np.hstack((a_lp, coef[:, None])), np.vstack((col_bounds, [0.0, math.inf]))
        for _ in range(_DINKELBACH_ROUNDS):
            sol = _dual_lp(np.append(gain, g1 - rho), a_lp, rhs, col_bounds)
            excess = g2 - rho - sol.objective
            if bound and excess <= 1e-14 * (1.0 + abs(rho)):
                break
            rho, bound = rho + excess / (1.0 + sol.x[-1]), True
        else:
            raise RuntimeError(f"Dinkelbach iteration unconverged after {_DINKELBACH_ROUNDS} LPs")
    # the multipliers meet theta's bounds to rounding, which fmax and fmin clear (a nan bound is none)
    return np.fmin(np.fmax(theta0 - unit * sol.duals[:n], lo), hi), any(r < n for r in sol.degenerate_rows)


def _dual_lp(gain, a_lp, rhs, col_bounds):
    sol = solve_lp(LpProblem(c=-gain, a_eq=a_lp, b_eq=rhs, bounds=col_bounds))
    if sol.status != "optimal":
        # an infeasible dual means an unbounded decision, and an unbounded dual an infeasible one
        raise RuntimeError(f"decision LP {'unbounded' if sol.status == 'infeasible' else 'infeasible'}")
    return sol


def _affine_primal(compiled, c_theta, bounds, a_eq, b_eq) -> tuple[np.ndarray, bool]:
    """The decision LP as an epigraph: per term, v_i >= Z_i - kappa, v >= 0
    for each atom and distinct hinge kink, and M >= a E[Z] + c + sum h E[v]
    for each form (a, c, hinges), M costing w.  The columns are theta, then
    each term's v blocks and M."""
    n = c_theta.size
    kinks = [sorted({kappa for *_, hinges in forms for _, kappa in hinges}) for forms, *_ in compiled]
    width = n + sum(len(kk) * b.size + 1 for kk, (_, _, b, *_) in zip(kinks, compiled))
    blocks, b_ub, cost, aux_bounds = [], [], [c_theta], []
    col = n
    for kk, (forms, a, b, p, w) in zip(kinks, compiled):
        v = len(kk) * b.size
        block = np.zeros((v + len(forms), width))
        block[:v, :n] = np.tile(-a, (len(kk), 1))
        block[:v, col : col + v] = -np.eye(v)
        block[v:, col + v] = -1.0
        for r, (ak, _, hinges) in enumerate(forms):
            block[v + r, :n] = -ak * (p @ a)
            for h, kappa in hinges:
                at = col + kk.index(kappa) * b.size
                block[v + r, at : at + b.size] = h * p
        blocks.append(block)
        b_ub.append(np.concatenate([kappa - b for kappa in kk] + [[-ak * (p @ b) - ck for ak, ck, _ in forms]]))
        cost.append(np.append(np.zeros(v), w))
        aux_bounds += [(0.0, None)] * v + [(None, None)]
        col += v + 1
    a_eq = None if a_eq is None else np.hstack((a_eq, np.zeros((a_eq.shape[0], width - n))))
    sol = solve_lp(LpProblem(np.concatenate(cost), a_eq, b_eq, np.vstack(blocks), np.concatenate(b_ub), bounds + aux_bounds))
    if sol.status != "optimal":
        raise RuntimeError(f"decision LP {sol.status}")
    return sol.x[:n], any(j < n for j in sol.degenerate_columns)


def affine_cut_oracle(f: Functional, a, b, p, cost):
    """theta -> (cost.theta + f(Z), slope, intercept) for Z = b - A theta on
    atoms of probabilities p: the ``cutting_planes`` oracle of f's
    subgradient.  Raises ValueError where f carries none."""
    if f.subgradient is None:
        raise ValueError(f"a decision on {f.label or 'this functional'} needs LP data, square weights or a subgradient, and it has none")

    def oracle(theta):
        z = b - a @ theta
        rv = DiscreteRv(z, p)
        value = float(cost @ theta) + f.fn(rv)
        slope = cost - a.T @ (p * f.subgradient(rv)[rv.atom_index(z)])
        return value, slope, value - float(slope @ theta)

    return oracle


# -- statistic machinery -----------------------------------------------------------


def _shift_scan(f, x: DiscreteRv, tilt: float):
    """The kinks of C -> f(X - C), sorted and distinct, and cs -> the rows of
    left and right slopes of C -> tilt * C + f(X - C) at every C of an array;
    either is None where f carries none.

    Hinge forms give both from one ``SortedSums``: a loss's kinks are each
    atom less each of its hinge kinks, and the tilt enters the forms' mean
    coefficients (``_form_slopes``), so that a slope rounds to 0 against the
    tilt too.
    """
    if lp_encodable(f):
        sums, forms = SortedSums(x), _hinge_forms(f)
        if f.moment_max is not None:
            bps = f.moment_max.shift_breakpoints(x, sums)
        else:
            ((_, _, hinges),) = forms
            bps = np.unique(np.subtract.outer(x.values, [k for _, k in hinges])) if hinges else x.values
        return bps, _form_slopes([(a - tilt, c, hinges) for a, c, hinges in forms], sums)
    bps = None if f.shift_breakpoints is None else np.unique(np.asarray(f.shift_breakpoints(x), dtype=float))
    return bps, None if f.shift_slopes is None else f.shift_slopes(x, tilt)


def _form_slopes(forms, sums: SortedSums):
    """cs -> the rows of left and right slopes of C -> max_k F_k(X - C) at
    every C of an array, for the hinge forms F_k of ``_hinge_forms``.

    F_k's right slope is -a_k - sum_j h_kj P(X > C + kappa_kj) and its left
    slope the same with P(X >= ...), each mass read by ``searchsorted`` from
    the suffix sums of ``sums``; a slope within ``cdf_tol`` of
    |a_k| + sum_j h_kj reads 0.  Of forms tied for the max, to ``cdf_tol`` of
    the largest magnitude of their values' parts, the left slope is the least
    and the right slope the greatest.
    """
    a, c = (np.array([[form[i]] for form in forms]) for i in (0, 1))
    kinks = sorted({kj for *_, hs in forms for _, kj in hs})
    # weight[k, i]: the coefficient of the hinge at kinks[i] in form k
    weight = np.array([[sum(hj for hj, kj in hs if kj == kink) for kink in kinks] for *_, hs in forms])
    kappa = np.array(kinks)[:, None]
    tol = cdf_tol(sums.u.size)
    zero = tol * (np.abs(a) + weight.sum(axis=1, keepdims=True))

    def slopes(cs):
        d = np.asarray(cs, dtype=float) - sums.ref
        t = d + kappa
        # the masses at or above, and above, each C + kappa_i; then rows of forms, columns of points
        at = np.empty((2,) + t.shape, dtype=np.intp)
        at[0], at[1] = np.searchsorted(sums.u, t, "left"), np.searchsorted(sums.u, t, "right")
        mass = sums.hi_p[at]
        s = -a - weight @ mass
        s[np.abs(s) <= zero] = 0.0
        if a.size == 1:
            return s[:, 0]
        # each form's value and the magnitudes of its parts: a_k E[Z], c_k and E[(Z - kappa_i)_+]
        mean, part = a * (sums.mean_u - d), sums.hi_s[at[1]] - t * mass[1]
        vals = mean + c + weight @ part
        size = np.abs(mean) + np.abs(c) + weight @ np.abs(part)
        active = vals >= vals.max(axis=0) - tol * size.max(axis=0)
        # the least left slope as minus the greatest of the negated
        out = np.where(active, s * np.array([[[-1.0]], [[1.0]]]), -np.inf).max(axis=1)
        out[0] = -out[0]
        return out

    return slopes


def _pwl_shift_argmin(g: Callable[[float], float], pts: np.ndarray, slopes) -> tuple[float, StatInterval]:
    """Exact minimum and argmin interval of a convex g(C) affine between the
    sorted shift breakpoints ``pts`` and beyond them: the interval from the
    segments' ``slopes`` (``pwl_slope_argmin``), or from g at each breakpoint
    where they are None (``argmin_interval_pwl``), and the minimum g at the
    least candidate in it, bisected as g is convex.
    """
    if slopes is None:
        interval = argmin_interval_pwl(g, pts)
    else:
        i, j = pwl_slope_argmin(slopes, pts)
        interval = StatInterval(float(pts[i]), float(pts[j]))
    inside = pts[(pts >= interval.lo) & (pts <= interval.hi)].tolist()
    at = lru_cache(maxsize=None)(g)
    a, b = 0, len(inside) - 1
    while a < b:
        mid = (a + b) // 2
        a, b = (a, mid) if at(inside[mid]) <= at(inside[mid + 1]) else (mid + 1, b)
    return at(inside[a]), interval


def _stat_from_derivatives(slopes, x: DiscreteRv, loss: Optional[ScalarLoss] = None) -> StatInterval:
    """Statistic from the one-sided slope criterion.

    ``slopes(cs)`` gives the rows of left and right slopes s_-, s_+ of a
    convex objective at every C of an array.  Its argmin set is
    {C : s_-(C) <= 0 <= s_+(C)} = [lo, hi], with lo the least C at which
    s_+ >= 0 and hi the greatest at which s_- <= 0.  One call brackets both
    among up to K probes; where that does not, a second adds a fan of steps
    of 4^j spreads beyond the ends.  The probes are the slopes' ``kinks``
    where they carry them (a ``ShiftSlopes``), as the atoms are otherwise:
    the C at which the slopes' formula changes, so that a bracket between
    two holds one smooth piece.  A bracket end at which the slope jumps
    across 0 (s_- < 0 <= s_+ for lo, s_- <= 0 < s_+ for hi) is the crossing
    itself; the others are narrowed together by ``ksection_crossings``,
    whose first round starts from the slopes' predicted ``crossing`` where
    they carry one.  The prediction places probes only: the ends are the
    last floats at which the criterion holds, wherever it is predicted.

    Slopes that come from a ``loss`` cost O(n) a point, so they take as few
    points a row as fill a batched temporary; others take K.
    """
    v = x.values
    k = KSECTION if loss is None else min(KSECTION, max(4, chunk_rows(v.size) // 2))
    width = float(v[-1] - v[0]) or max(1.0, abs(float(v[0])))
    fan = width * 4.0 ** np.arange(48)
    kinks, guess = getattr(slopes, "kinks", None), getattr(slopes, "crossing", None)
    kinks = v if kinks is None else kinks
    probes = kinks[np.unique(np.linspace(0.0, kinks.size - 1, min(kinks.size, k)).round().astype(int))]
    for pts in (probes, np.concatenate(((probes[0] - fan)[::-1], probes, probes[-1] + fan))):
        left, right = slopes(pts)
        i = int(np.argmax(right >= 0.0))
        j = pts.size - 1 - int(np.argmax(left[::-1] <= 0.0))
        # lo lies in (pts[i - 1], pts[i]] and hi in [pts[j], pts[j + 1])
        if right[i] >= 0.0 and (i > 0 or left[i] < 0.0) and left[j] <= 0.0 and (j < pts.size - 1 or right[j] > 0.0):
            break
    else:
        raise UnboundedObjectiveError("objective still descending at the end of the fan")
    lo_out = i if left[i] < 0.0 else i - 1
    hi_out = j if right[j] > 0.0 else j + 1

    def crit(cs):
        # s_+ along lo's row and -s_- along hi's, from one call
        s = slopes(cs.ravel())
        return np.stack((s[1, : cs.shape[1]], -s[0, cs.shape[1] :]))

    # the criterion at each end as a limit from inside its bracket
    ends = ([left[i], -right[j]], [right[lo_out], -left[hi_out]])
    guess = None if guess is None else np.full(2, guess)
    lo, hi = (float(c) for c in ksection_crossings(crit, pts[[i, j]], pts[[lo_out, hi_out]], k, ends, guess))
    if hi < lo:
        lo = hi = 0.5 * (lo + hi)
    return StatInterval(lo, hi)


def _shift_minimum(f: Functional, x: DiscreteRv, tilt: float, tol: float, want_interval: bool, what: str):
    """min_C tilt * C + f(X - C) with its argmin interval, by the first route
    f's data allows: the exact scan over shift breakpoints (by the slopes of
    the segments between them, or by values where f carries no slopes,
    ``_pwl_shift_argmin``), the crossing of the slopes with the value taken
    at its midpoint, and golden section with ``flat_interval`` for anything
    else.  Each route raises UnboundedObjectiveError when the objective has
    no minimum.

    Golden section recovers the flat set on the objective minus
    tilt * E[X], which for a regret is the paired error's projection
    objective: both then resolve the same sublevel set at the same threshold.
    """

    def g(c):
        return tilt * c + f.fn(x.shift(-c))

    bps, slopes = _shift_scan(f, x, tilt)
    if bps is not None:
        return _pwl_shift_argmin(g, bps, slopes)
    if slopes is not None:
        interval = _stat_from_derivatives(slopes, x, f.loss)
        return g(interval.midpoint), interval
    try:
        cstar, fstar = minimize_scalar_convex(g, tol=tol, hint=x.mean())
    except ObjectiveInfiniteError as exc:
        raise ObjectiveInfiniteError(f"{what} infinite on all shifts") from exc
    if not want_interval:
        return fstar, StatInterval.point(cstar)
    offset = tilt * x.mean()
    return fstar, flat_interval(lambda c: g(c) - offset, cstar, fstar - offset)


def project_error(err: ErrorFn, x: DiscreteRv) -> tuple[float, StatInterval]:
    """D(X) = min_C E(X - C) together with the full argmin interval."""
    return _shift_minimum(err, x, 0.0, 1e-10, True, "error")


def regret_to_risk(v: RegretFn, x: DiscreteRv, want_interval: bool = True) -> tuple[float, StatInterval]:
    """R(X) = min_C {C + V(X - C)} together with the full argmin interval.

    ``want_interval=False`` skips the flat-set recovery and returns a point
    interval at the located minimizer (cheaper when only the value matters).
    """
    return _shift_minimum(v, x, 1.0, 1e-10, want_interval, "regret objective")


# -- quadrangle bundle --------------------------------------------------------------


@dataclass(frozen=True)
class Quadrangle:
    """Risk, deviation, regret, error evaluators plus the statistic."""

    risk: Callable[[DiscreteRv], float]
    deviation: Callable[[DiscreteRv], float]
    regret: Callable[[DiscreteRv], float]
    error: Callable[[DiscreteRv], float]
    statistic: Callable[[DiscreteRv], StatInterval]
    flags: Flags
    label: str = ""
    error_fn: Optional[ErrorFn] = None
    regret_fn: Optional[RegretFn] = None


def complete_quadrangle(
    err: Optional[ErrorFn],
    statistic: Callable[[DiscreteRv], StatInterval],
    label: str,
    *,
    risk=None,
    deviation=None,
    error=None,
    regret=None,
    regret_fn: Optional[RegretFn] = None,
    flags: Optional[Flags] = None,
) -> Quadrangle:
    """The quadrangle of an error functional plus the closed forms a family has.

    Mean-centering fills in what is not given: risk = deviation + E[X] or
    deviation = risk - E[X], regret = error + E[X], regret_fn =
    mean_center_error(err), flags from the error.  Without ``err`` (members
    composed from other quadrangles') no error or regret functional is
    attached, and ``error`` and ``flags`` are required.
    """
    if err is not None:
        regret_fn = regret_fn or mean_center_error(err)
        flags = flags or err.flags
    if regret is None:
        regret = regret_fn.fn if error is None else _plus_mean(error)
    if risk is None:
        risk = _plus_mean(deviation)
    elif deviation is None:
        deviation = lambda x: risk(x) - x.mean()
    return Quadrangle(risk, deviation, regret, error or err.fn, statistic, flags, label, err, regret_fn)


def _plus_mean(f: Callable[[DiscreteRv], float]) -> Callable[[DiscreteRv], float]:
    return lambda x: f(x) + x.mean()


def check_subregular_error(err: ErrorFn, rng: Optional[np.random.Generator] = None) -> None:
    """Sampled falsification of the error axioms; raises naming the clause."""
    rng = rng or np.random.default_rng(0)
    zero = DiscreteRv.constant(0.0)
    if abs(err.fn(zero)) > 1e-9:
        raise SubregularityError("zero-fidelity failed: error at the zero r.v. is nonzero")
    for x in sample_rvs(rng, 12, max_atoms=6, span=4.0) + [DiscreteRv.constant(1.0), DiscreteRv.constant(-1.0)]:
        if err.fn(x) < -1e-9:
            raise SubregularityError("nonnegativity failed: negative error value")
    for x in sample_rvs(rng, 6, max_atoms=6, span=4.0) + [DiscreteRv.constant(1.0), DiscreteRv.constant(-1.0)]:
        lam = 1.0
        hit = False
        for _ in range(40):
            if err.fn(x.scale(lam)) > 1e-12:
                hit = True
                break
            lam *= 2.0
        if not hit:
            raise SubregularityError("scale-positivity failed: error vanishes along a nonzero ray")


def check_monotone_error(err: ErrorFn, rng: Optional[np.random.Generator] = None, n: int = 200) -> bool:
    """Sampled test of E(X) <= |E[X]| for X <= 0 (monotonicity of the pair)."""
    rng = rng or np.random.default_rng(1)
    for _ in range(n):
        k = int(rng.integers(1, 7))
        vals = -rng.uniform(0.0, 5.0, size=k)
        probs = rng.dirichlet(np.ones(k))
        x = DiscreteRv(vals, probs)
        if err.fn(x) > abs(x.mean()) + 1e-9:
            return False
    return True


def quadrangle_from_error(
    err: ErrorFn,
    label: str = "",
    monotone: Optional[bool] = None,
    check: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> Quadrangle:
    """The unique quadrangle generated by a subregular error measure."""
    if check:
        check_subregular_error(err, rng)
    if monotone is None:
        monotone = check_monotone_error(err, rng)

    @lru_cache(maxsize=256)
    def _proj(x: DiscreteRv):
        return project_error(err, x)

    return complete_quadrangle(
        err,
        lambda x: _proj(x)[1],
        label or err.label,
        deviation=lambda x: _proj(x)[0],
        flags=replace(err.flags, monotone=monotone),
    )


# -- mixing -------------------------------------------------------------------------


def _mixed_error_value(errors: Sequence[ErrorFn], weights: np.ndarray, x: DiscreteRv) -> float:
    """min { sum_k w_k E_k(X - C_k) : sum_k w_k C_k = 0 }.

    One LP when every component carries LP data.  Otherwise the dual in the
    multiplier mu of the constraint, max_mu sum_k w_k phi_k(mu) with
    phi_k(mu) = min_C mu C + E_k(X - C): concave, finite at mu = 0 where
    phi_k(0) = D_k(X), and -inf wherever some phi_k is unbounded below.
    """
    r = len(errors)
    if r == 1:
        return errors[0].fn(x)
    if all(lp_encodable(e) for e in errors):
        # theta = (C_1, ..., C_r), one term per component on the atoms of X - C_k
        v, p = x.values, x.probs
        terms = [(e, np.eye(r)[np.full(v.size, k)], v, p, wk) for k, (e, wk) in enumerate(zip(errors, weights))]
        return minimize_affine(terms, np.zeros(r), a_eq=weights[None, :], b_eq=np.zeros(1))[1]

    def neg_dual(mu):
        try:
            return -sum(wk * _shift_minimum(e, x, mu, 1e-11, False, "error")[0] for e, wk in zip(errors, weights))
        except UnboundedObjectiveError:
            return math.inf

    return -minimize_scalar_convex(neg_dual, tol=1e-11, hint=0.0)[1]


def mix_quadrangles(quartets: Sequence[Quadrangle], weights) -> Quadrangle:
    """Weighted mixture: risk/deviation/statistic are weighted sums; regret and
    error are constrained minima over per-component shifts summing to zero."""
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError(f"weights sum to {w.sum()}, not 1")
    if len(quartets) != w.size:
        raise ValueError("one weight per quadrangle required")
    qs = list(quartets)
    errors = [q.error_fn for q in qs]
    have_errors = all(e is not None for e in errors)

    def risk(x):
        return float(sum(wk * q.risk(x) for wk, q in zip(w, qs)))

    def deviation(x):
        return float(sum(wk * q.deviation(x) for wk, q in zip(w, qs)))

    def statistic(x):
        return StatInterval.weighted_sum([q.statistic(x) for q in qs], w)

    if have_errors:
        def error(x):
            return _mixed_error_value(errors, w, x)
    else:
        def error(x):
            raise NotImplementedError("component error functionals unavailable")

    flags = Flags(
        positively_homogeneous=all(q.flags.positively_homogeneous for q in qs),
        monotone=all(q.flags.monotone for q in qs),
        expectation_type=False,
    )
    label = "mix(" + ",".join(q.label for q in qs) + ")"
    err = ErrorFn(fn=error, flags=flags) if have_errors else None
    return complete_quadrangle(err, statistic, label, risk=risk, deviation=deviation, error=error, flags=flags)


# -- scaling ------------------------------------------------------------------------


def scale_quadrangle(q: Quadrangle, lam: float, mode: str = "affine") -> Quadrangle:
    """Scale a quadrangle.

    affine: R = (1-l)E + l R0, D = l D0, V = (1-l)E + l V0, E = l E0, statistic
    unchanged (monotone only survives l <= 1).  perspective: F(X) = l F0(X/l)
    for all members, statistic scaled accordingly.
    """
    if lam <= 0:
        raise ValueError("scale factor must be positive")
    if mode == "affine":
        err = None
        if q.error_fn is not None:
            flags = q.error_fn.flags
            err = _affine_functional(q.error_fn, scale=lam, flags=replace(flags, monotone=flags.monotone and lam <= 1.0))
        return complete_quadrangle(
            err,
            q.statistic,
            f"affine({lam})*{q.label}",
            risk=lambda x: (1.0 - lam) * x.mean() + lam * q.risk(x),
            deviation=lambda x: lam * q.deviation(x),
            error=lambda x: lam * q.error(x),
            regret=lambda x: (1.0 - lam) * x.mean() + lam * q.regret(x),
            flags=replace(q.flags, monotone=q.flags.monotone and lam <= 1.0),
        )
    if mode == "perspective":
        return complete_quadrangle(
            None,
            lambda x: q.statistic(x.scale(1.0 / lam)).scale(lam),
            f"perspective({lam})*{q.label}",
            risk=lambda x: lam * q.risk(x.scale(1.0 / lam)),
            deviation=lambda x: lam * q.deviation(x.scale(1.0 / lam)),
            error=lambda x: lam * q.error(x.scale(1.0 / lam)),
            regret=lambda x: lam * q.regret(x.scale(1.0 / lam)),
            flags=q.flags,
        )
    raise ValueError(f"unknown scaling mode {mode!r}")


# -- reverting ----------------------------------------------------------------------


def revert_quadrangles(q1: Quadrangle, q2: Quadrangle) -> Quadrangle:
    """Reverted quadrangle: S(X) = (S1(X) - S2(-X))/2 in interval arithmetic,
    D(X) = (D1(X) + D2(-X))/2, R = E + D, E(X) = min_C (E1(C+X)+E2(C-X))/2.
    Monotonicity is not preserved."""

    def deviation(x):
        return 0.5 * (q1.deviation(x) + q2.deviation(x.neg()))

    def statistic(x):
        s1 = q1.statistic(x)
        s2 = q2.statistic(x.neg())
        return StatInterval.weighted_sum([s1, s2.reflect()], [0.5, 0.5])

    def error(x):
        def g(c):
            return 0.5 * (q1.error(x.shift(c)) + q2.error(x.neg().shift(c)))

        # kinks of c -> E1(x + c) sit at the negated shift breakpoints
        bps = [None if q.error_fn is None else _shift_scan(q.error_fn, y, 0.0)[0] for q, y in ((q1, x), (q2, x.neg()))]
        if all(b is not None for b in bps):
            return g(argmin_interval_pwl(g, -np.concatenate(bps)).lo)
        return minimize_scalar_convex(g, tol=1e-11, hint=0.0)[1]

    ph = q1.flags.positively_homogeneous and q2.flags.positively_homogeneous
    err = ErrorFn(fn=error, flags=Flags(ph, False, False))
    return complete_quadrangle(err, statistic, f"revert({q1.label},{q2.label})", deviation=deviation)


# -- expectation quadrangles -----------------------------------------------------------


def _validate_loss_block(loss: ScalarLoss) -> None:
    z0 = float(np.asarray(loss.fn(np.array([0.0])))[0])
    if abs(z0) > 1e-12:
        raise SubregularityError("loss property failed: e(0) != 0")
    grid = np.linspace(-20.0, 20.0, 401)
    vals = np.asarray(loss.fn(grid), dtype=float)
    finite = np.isfinite(vals)
    if np.any(vals[finite] < -1e-12):
        raise SubregularityError("loss property failed: e takes negative values")
    neg_side = vals[(grid < 0) & finite]
    pos_side = vals[(grid > 0) & finite]
    if not (np.any(neg_side > 1e-12) and np.any(pos_side > 1e-12)):
        raise SubregularityError("loss property failed: e vanishes on a whole half-line")
    v = vals[finite]
    mids = 0.5 * (v[:-2] + v[2:])
    if np.any(v[1:-1] > mids + 1e-7 * (1.0 + np.abs(mids))):
        raise SubregularityError("loss property failed: midpoint convexity violated")


def _loss_is_two_piece_through_zero(loss: ScalarLoss) -> bool:
    if loss.pieces is not None:
        active = [piece for piece in loss.pieces if abs(piece[1]) <= 1e-14]
        return len(active) == len(loss.pieces) and len(loss.pieces) <= 2
    # numeric homogeneity probe
    for z in (-2.3, -1.0, 0.7, 1.9):
        for lam in (0.5, 2.0, 7.0):
            a = float(loss.fn(np.array([lam * z]))[0])
            b = float(loss.fn(np.array([z]))[0])
            if not math.isfinite(a) or abs(a - lam * b) > 1e-9 * (1.0 + abs(a)):
                return False
    return True


def _loss_monotone_pair(loss: ScalarLoss) -> bool:
    zs = -np.geomspace(1e-3, 50.0, 60)
    vals = np.asarray(loss.fn(zs), dtype=float)
    return bool(np.all(vals <= np.abs(zs) + 1e-9))


def expectation_quadrangle(loss: ScalarLoss, label: str = "", check: bool = True) -> Quadrangle:
    """Quadrangle generated by E(X) = E[e(X)], V(X) = E[x + e(x)].

    The statistic solves the one-sided derivative criterion
    E[e'_-(X-C)] <= 0 <= E[e'_+(X-C)], scanned exactly on breakpoints for
    piecewise-linear losses.
    """
    if check:
        _validate_loss_block(loss)
    ph = _loss_is_two_piece_through_zero(loss)
    mono = _loss_monotone_pair(loss)
    err = error_from_loss(loss, Flags(ph, mono, True), label=label or loss.label)
    return quadrangle_from_error(err, label=label or loss.label, monotone=mono, check=False)


# -- seminorm errors from coherent risks -------------------------------------------------


def error_from_coherent_risk(risk: Callable[[DiscreteRv], float], flags: Flags, label: str = "") -> ErrorFn:
    """E(X) := R(|X|) for a monotone (generally coherent) subregular risk."""
    if not flags.monotone:
        raise ValueError("seminorm error construction requires a monotone risk")
    return ErrorFn(
        fn=lambda x: risk(x.abs()),
        flags=Flags(positively_homogeneous=flags.positively_homogeneous, monotone=False, expectation_type=False),
        label=label,
    )
