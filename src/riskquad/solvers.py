"""Self-contained convex optimization primitives.

Scalar golden-section minimization with auto-bracketing, exact argmin
intervals for piecewise-linear convex functions, projected subgradient
descent, a deterministic compass-search polish, the multistart routine that
chains the two (``minimize_multistart``, with a forward-difference gradient
when none is given), and a dense two-phase simplex LP solver with Bland's
anti-cycling rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .core import StatInterval

__all__ = [
    "ScalarFn",
    "LpProblem",
    "LpSolution",
    "SubgradientResult",
    "NonConvexError",
    "UnboundedObjectiveError",
    "ObjectiveInfiniteError",
    "minimize_scalar_convex",
    "argmin_interval_pwl",
    "pwl_grid",
    "pwl_argmin_interval",
    "minimize_subgradient",
    "compass_search",
    "minimize_multistart",
    "solve_lp",
    "bisect_root",
]

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Relative threshold below which "improvements" are treated as rounding noise.
_IMPROVE_EPS = 1e-14

_BRACKET_CAP = 2.0**60


class NonConvexError(ValueError):
    """Slope sequence of a declared-convex piecewise-linear function decreases."""


class UnboundedObjectiveError(ValueError):
    """Objective keeps decreasing during auto-bracketing."""


class ObjectiveInfiniteError(ValueError):
    """Objective is +inf at every probed point."""


@dataclass(frozen=True)
class ScalarFn:
    """Scalar extended-real function, convex by the caller's contract."""

    fn: Callable[[float], float]
    bracket: Optional[tuple[float, float]] = None

    def __call__(self, c: float) -> float:
        return self.fn(c)


def _as_callable(f):
    return f.fn if isinstance(f, ScalarFn) else f


def _find_finite(fn, hint: float = 0.0):
    """Probe for a point where fn is finite, fanning out from the hint."""
    probes = [hint]
    step = 1.0
    while step <= _BRACKET_CAP:
        probes.extend([hint + step, hint - step])
        step *= 4.0
    for c in probes:
        v = fn(c)
        if math.isfinite(v):
            return c, v
    raise ObjectiveInfiniteError("objective is infinite at every probed point")


def _auto_bracket(fn, hint: float = 0.0):
    """Expand from a finite seed until the function increases on both sides."""
    c0, f0 = _find_finite(fn, hint)
    lo, hi = c0 - 1.0, c0 + 1.0
    flo, fhi = fn(lo), fn(hi)
    step = 1.0
    # expand left while still descending
    while flo < f0 and math.isfinite(flo):
        step *= 2.0
        if step > _BRACKET_CAP:
            raise UnboundedObjectiveError("objective unbounded below (left)")
        c0, f0 = lo, flo
        lo = lo - step
        flo = fn(lo)
    step = 1.0
    while fhi < f0 and math.isfinite(fhi):
        step *= 2.0
        if step > _BRACKET_CAP:
            raise UnboundedObjectiveError("objective unbounded below (right)")
        c0, f0 = hi, fhi
        hi = hi + step
        fhi = fn(hi)
    return lo, hi


def _shrink_to_domain(fn, lo, hi):
    """Move infinite endpoints just inside the effective domain by bisection."""
    if math.isfinite(fn(lo)) and math.isfinite(fn(hi)):
        return lo, hi
    c_f, _ = _find_finite(fn, 0.5 * (lo + hi) if math.isfinite(lo + hi) else 0.0)
    if not math.isfinite(fn(lo)):
        a, b = lo, c_f
        for _ in range(80):
            m = 0.5 * (a + b)
            if math.isfinite(fn(m)):
                b = m
            else:
                a = m
        lo = b
    if not math.isfinite(fn(hi)):
        a, b = c_f, hi
        for _ in range(80):
            m = 0.5 * (a + b)
            if math.isfinite(fn(m)):
                a = m
            else:
                b = m
        hi = a
    return lo, hi


def minimize_scalar_convex(
    f,
    tol: float = 1e-10,
    bracket: Optional[tuple[float, float]] = None,
    hint: float = 0.0,
) -> tuple[float, float]:
    """Golden-section minimum of a convex scalar function.

    Auto-brackets by doubling from the hint when no bracket is given; raises
    UnboundedObjectiveError if the expansion cap is hit while still descending.
    Returns (argmin, min).
    """
    fn = _as_callable(f)
    if bracket is None and isinstance(f, ScalarFn):
        bracket = f.bracket
    if bracket is None:
        lo, hi = _auto_bracket(fn, hint)
    else:
        lo, hi = float(bracket[0]), float(bracket[1])
    lo, hi = _shrink_to_domain(fn, lo, hi)
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol * (1.0 + abs(a) + abs(b)) and (b - a) > 1e-300:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fn(d)
    xs = [(a, fn(a)), (c, fc), (d, fd), (b, fn(b))]
    xs = [(x, v) for x, v in xs if math.isfinite(v)]
    x_best, f_best = min(xs, key=lambda t: t[1])
    return float(x_best), float(f_best)


_REL_FLAT = 1e-9
_MAX_SPAN = 1e12
_SLOPE_TOL_REL = 1e-9


def flat_interval(fn, cstar: float, fstar: float) -> StatInterval:
    """Recover the flat-bottom interval {c : fn(c) <= fstar + tol_flat}.

    Expands outward from the minimizer (at most ``_MAX_SPAN`` away), then
    bisects for the two boundary crossings of the sublevel set;
    tol_flat = ``_REL_FLAT`` * (1 + |fstar|).
    """
    fn = _as_callable(fn)
    tol_flat = _REL_FLAT * (1.0 + abs(fstar))
    thresh = fstar + tol_flat

    def crossing(direction: int) -> float:
        step = max(1e-9, 1e-9 * abs(cstar))
        inner = cstar
        outer = cstar + direction * step
        while fn(outer) <= thresh:
            inner = outer
            step *= 2.0
            if step > _MAX_SPAN:
                return inner
            outer = cstar + direction * step
        for _ in range(100):
            mid = 0.5 * (inner + outer)
            if fn(mid) <= thresh:
                inner = mid
            else:
                outer = mid
        return inner

    return StatInterval(crossing(-1), crossing(+1))


def pwl_grid(breakpoints) -> np.ndarray:
    """Sorted candidates for ``pwl_argmin_interval``: the breakpoints, with
    kinks closer than the evaluation noise floor merged, plus one sentinel a
    unit outside each end to supply the outer slopes."""
    bps = np.unique(np.asarray(breakpoints, dtype=float))
    if bps.size == 0:
        raise ValueError("need at least one breakpoint")
    thresh = 1e-9 * max(1.0, float(np.max(np.abs(bps))))
    # each breakpoint is kept when it lies beyond the threshold from the last
    # kept one; only those within it of their predecessor can be dropped
    keep = np.ones(bps.size, dtype=bool)
    last = bps[0]
    for i in np.flatnonzero(np.diff(bps) <= thresh) + 1:
        if keep[i - 1]:
            last = bps[i - 1]
        keep[i] = bps[i] - last > thresh
    kept = bps[keep]
    return np.concatenate(([kept[0] - 1.0], kept, [kept[-1] + 1.0]))


def pwl_argmin_interval(pts: np.ndarray, vals: np.ndarray) -> StatInterval:
    """Exact flat-bottom argmin interval of a convex piecewise-linear function
    from its values ``vals`` at the sorted candidates ``pts`` (``pwl_grid``),
    between which it is affine.

    A segment counts as flat when its slope is within the relative slope
    tolerance plus the evaluation noise over that segment's own width; raises
    NonConvexError when the slopes decrease by more than that noise.
    """
    if not np.all(np.isfinite(vals)):
        raise ValueError("piecewise-linear objective must be finite at breakpoints")
    gaps = np.diff(pts)
    slopes = np.diff(vals) / gaps
    f_noise = 1e-12 * (1.0 + float(np.max(np.abs(vals))))
    s_tol = _SLOPE_TOL_REL * (1.0 + float(np.max(np.abs(slopes)))) + f_noise / gaps
    if np.any(np.diff(slopes) < -10.0 * np.maximum(s_tol[:-1], s_tol[1:])):
        raise NonConvexError("slope sequence is decreasing; function is not convex")
    neg = np.nonzero(slopes < -s_tol)[0]
    pos = np.nonzero(slopes > s_tol)[0]
    lo = pts[neg[-1] + 1] if neg.size else pts[0]
    hi = pts[pos[0]] if pos.size else pts[-1]
    if hi < lo:
        hi = lo
    return StatInterval(float(lo), float(hi))


def argmin_interval_pwl(f, breakpoints) -> StatInterval:
    """``pwl_argmin_interval`` of a callable, evaluated at each candidate.

    ``breakpoints`` must contain every kink, so the function is affine between
    consecutive candidates and beyond the extreme ones.
    """
    fn = _as_callable(f)
    pts = pwl_grid(list(breakpoints))
    return pwl_argmin_interval(pts, np.array([fn(c) for c in pts]))


def bisect_root(g, lo: float, hi: float, iters: int = 100) -> float:
    """Root of a scalar function with g(lo), g(hi) of opposite sign (or zero)."""
    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if glo * ghi > 0:
        raise ValueError("root not bracketed")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if glo * gm < 0:
            hi, ghi = mid, gm
        else:
            lo, glo = mid, gm
    return 0.5 * (lo + hi)


# -- projected subgradient ----------------------------------------------------


@dataclass
class SubgradientResult:
    x: np.ndarray
    value: float
    iterations: int
    gap_estimate: float
    converged: bool


def minimize_subgradient(
    f: Callable[[np.ndarray], float],
    subgrad: Callable[[np.ndarray], np.ndarray],
    project: Callable[[np.ndarray], np.ndarray],
    x0,
    steps: int = 50_000,
    tol: float = 1e-9,
    initial_step: Optional[float] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> SubgradientResult:
    """Projected subgradient descent with diminishing steps a/sqrt(k).

    Tracks the best iterate; exhausting the step budget is not a failure, the
    achieved improvement over the last block is reported as ``gap_estimate``.
    """
    x = project(np.asarray(x0, dtype=float).copy())
    fx = f(x)
    best_x, best_f = x.copy(), fx
    g0 = np.asarray(subgrad(x), dtype=float)
    a0 = initial_step if initial_step is not None else (1.0 + abs(fx)) / (1.0 + float(np.linalg.norm(g0)))
    block = 500
    prev_block_best = best_f
    gap = math.inf
    k = 0
    for k in range(1, steps + 1):
        if should_stop is not None and should_stop():
            break
        g = np.asarray(subgrad(x), dtype=float)
        gn = float(np.linalg.norm(g))
        if gn <= 1e-15:
            gap = 0.0
            break
        x = project(x - (a0 / math.sqrt(k)) * g / max(gn, 1e-12))
        fx = f(x)
        if fx < best_f - _IMPROVE_EPS * (1.0 + abs(best_f)):
            best_f = fx
            best_x = x.copy()
        if k % block == 0:
            gap = prev_block_best - best_f
            prev_block_best = best_f
            if gap <= tol * (1.0 + abs(best_f)):
                break
    converged = gap <= tol * (1.0 + abs(best_f))
    return SubgradientResult(best_x, best_f, k, max(gap, 0.0), converged)


def compass_search(
    f: Callable[[np.ndarray], float],
    x0,
    step: float = 0.25,
    project: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    tol: float = 1e-12,
    max_iter: int = 20_000,
    diagonals: bool = False,
) -> tuple[np.ndarray, float]:
    """Deterministic pattern search; a polish for convex problems.

    ``diagonals`` adds pairwise +-(e_i +- e_j) directions, which escape the
    coordinate ridges of piecewise-linear objectives at quadratic cost in the
    dimension.
    """
    x = np.asarray(x0, dtype=float).copy()
    if project is not None:
        x = project(x)
    fx = f(x)
    n = x.size
    dirs = [e for i in range(n) for e in (_unit(n, i), -_unit(n, i))]
    if diagonals:
        for i in range(n):
            for j in range(i + 1, n):
                d = _unit(n, i) + _unit(n, j)
                dirs.extend([d, -d, _unit(n, i) - _unit(n, j), _unit(n, j) - _unit(n, i)])
    it = 0
    while step > tol and it < max_iter:
        improved = False
        for d in dirs:
            it += 1
            y = x + step * d
            if project is not None:
                y = project(y)
            fy = f(y)
            if fy < fx - _IMPROVE_EPS * (1.0 + abs(fx)):
                x, fx = y, fy
                improved = True
        if not improved:
            step *= 0.5
    return x, fx


def _unit(n: int, i: int) -> np.ndarray:
    e = np.zeros(n)
    e[i] = 1.0
    return e


def _forward_difference(f: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Forward-difference gradient of step 1e-6; a non-finite value or probe contributes 0."""
    h = 1e-6
    g = np.zeros_like(x)
    f0 = f(x)
    if not math.isfinite(f0):
        return g
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        f1 = f(x + step)
        g[i] = (f1 - f0) / h if math.isfinite(f1) else 0.0
    return g


def minimize_multistart(
    f: Callable[[np.ndarray], float],
    starts: Iterable,
    subgrad: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    project: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    steps: int = 50_000,
    tol: float = 1e-9,
    polish_step: float = 0.25,
    polish_tol: float = 1e-12,
    max_iter: int = 20_000,
    diagonals: bool = False,
    should_stop: Optional[Callable[[], bool]] = None,
) -> tuple[np.ndarray, float, SubgradientResult]:
    """Projected subgradient descent, then a compass polish, from each start.

    The first strictly best polished point wins.  Without ``subgrad`` the
    gradient is a forward difference of step 1e-6.  Returns the winning
    point, its value, and the descent result it was polished from.
    """
    if subgrad is None:
        subgrad = lambda x: _forward_difference(f, x)
    descent_project = project if project is not None else (lambda z: z)
    best = None
    for x0 in starts:
        res = minimize_subgradient(f, subgrad, descent_project, x0, steps=steps, tol=tol, should_stop=should_stop)
        x, fx = compass_search(f, res.x, step=polish_step, project=project, tol=polish_tol, max_iter=max_iter, diagonals=diagonals)
        # a NaN value never blocks a later start
        if best is None or fx < best[1] or math.isnan(best[1]):
            best = (x, fx, res)
    return best


# -- dense simplex LP ----------------------------------------------------------


@dataclass
class LpProblem:
    """min c.x  s.t.  a_eq x = b_eq,  a_ub x <= b_ub,  bounds lo <= x <= hi.

    Bounds are pairs with None for unbounded ends; default is free.
    """

    c: np.ndarray
    a_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    a_ub: Optional[np.ndarray] = None
    b_ub: Optional[np.ndarray] = None
    bounds: Optional[Sequence[tuple[Optional[float], Optional[float]]]] = None


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray]
    objective: Optional[float]
    # indices of original variables whose optimal basis admits an alternate
    # optimum (zero reduced cost on a nonbasic column)
    degenerate_columns: tuple[int, ...] = ()


_PIV_TOL = 1e-9


def _simplex_core(tableau: np.ndarray, basis: list[int], cost: np.ndarray, n_cols: int):
    """Bland-rule simplex on an equality-form tableau; returns status."""
    m = tableau.shape[0]
    # reduced cost row
    z = cost.astype(float).copy()
    obj = 0.0
    for i, bi in enumerate(basis):
        if abs(z[bi]) > 0:
            obj -= z[bi] * tableau[i, -1]
            z -= z[bi] * tableau[i, :-1]
    for _ in range(50_000):
        enter = -1
        for j in range(n_cols):
            if z[j] < -_PIV_TOL:
                enter = j
                break
        if enter < 0:
            return "optimal", z, obj
        ratios = []
        for i in range(m):
            a = tableau[i, enter]
            if a > _PIV_TOL:
                ratios.append((tableau[i, -1] / a, basis[i], i))
        if not ratios:
            return "unbounded", z, obj
        best = min(ratios, key=lambda t: (t[0], t[1]))
        leave_row = best[2]
        piv = tableau[leave_row, enter]
        tableau[leave_row] /= piv
        for i in range(m):
            if i != leave_row and abs(tableau[i, enter]) > 1e-14:
                tableau[i] -= tableau[i, enter] * tableau[leave_row]
        obj += z[enter] * tableau[leave_row, -1]
        z = z - z[enter] * tableau[leave_row, :-1]
        basis[leave_row] = enter
    raise RuntimeError("simplex iteration cap exceeded")


def solve_lp(p: LpProblem) -> LpSolution:
    """Two-phase dense simplex with Bland's rule; statuses are faithful."""
    c = np.asarray(p.c, dtype=float)
    n = c.size
    a_eq = np.asarray(p.a_eq, dtype=float).reshape(-1, n) if p.a_eq is not None else np.zeros((0, n))
    b_eq = np.asarray(p.b_eq, dtype=float).ravel() if p.b_eq is not None else np.zeros(0)
    a_ub = np.asarray(p.a_ub, dtype=float).reshape(-1, n) if p.a_ub is not None else np.zeros((0, n))
    b_ub = np.asarray(p.b_ub, dtype=float).ravel() if p.b_ub is not None else np.zeros(0)
    bounds = list(p.bounds) if p.bounds is not None else [(None, None)] * n
    if len(bounds) != n:
        raise ValueError("bounds length mismatch")

    # Standard-form conversion: every variable becomes nonnegative.
    # col_map[j] = ("shift", col, lo) | ("neg", col, hi) | ("split", cp, cn)
    col_map = []
    std_cols = 0
    extra_ub_rows = []  # (col, cap) for finite two-sided bounds
    for j, (lo, hi) in enumerate(bounds):
        lo_f = -math.inf if lo is None else float(lo)
        hi_f = math.inf if hi is None else float(hi)
        if lo_f > hi_f:
            return LpSolution("infeasible", None, None)
        if math.isfinite(lo_f):
            col_map.append(("shift", std_cols, lo_f))
            if math.isfinite(hi_f):
                extra_ub_rows.append((std_cols, hi_f - lo_f))
            std_cols += 1
        elif math.isfinite(hi_f):
            col_map.append(("neg", std_cols, hi_f))
            std_cols += 1
        else:
            col_map.append(("split", std_cols, std_cols + 1))
            std_cols += 2

    n_ub = a_ub.shape[0] + len(extra_ub_rows)
    total = std_cols + n_ub  # + slacks
    c_std = np.zeros(total)
    rows = []
    rhs = []

    def emit(row_orig: np.ndarray, b: float, slack_idx: Optional[int]):
        row = np.zeros(total)
        shift = 0.0
        for j in range(n):
            a = row_orig[j]
            if a == 0.0:
                continue
            kind = col_map[j]
            if kind[0] == "shift":
                row[kind[1]] += a
                shift += a * kind[2]
            elif kind[0] == "neg":
                row[kind[1]] -= a
                shift += a * kind[2]
            else:
                row[kind[1]] += a
                row[kind[2]] -= a
        if slack_idx is not None:
            row[slack_idx] = 1.0
        rows.append(row)
        rhs.append(b - shift)

    for i in range(a_eq.shape[0]):
        emit(a_eq[i], float(b_eq[i]), None)
    slack = std_cols
    for i in range(a_ub.shape[0]):
        emit(a_ub[i], float(b_ub[i]), slack)
        slack += 1
    for col, cap in extra_ub_rows:
        row = np.zeros(total)
        row[col] = 1.0
        row[slack] = 1.0
        rows.append(row)
        rhs.append(cap)
        slack += 1

    for j in range(n):
        kind = col_map[j]
        if kind[0] == "shift":
            c_std[kind[1]] += c[j]
        elif kind[0] == "neg":
            c_std[kind[1]] -= c[j]
        else:
            c_std[kind[1]] += c[j]
            c_std[kind[2]] -= c[j]

    A = np.asarray(rows) if rows else np.zeros((0, total))
    b = np.asarray(rhs)
    m = A.shape[0]
    obj_shift = 0.0
    for j in range(n):
        kind = col_map[j]
        if kind[0] == "shift":
            obj_shift += c[j] * kind[2]
        elif kind[0] == "neg":
            obj_shift += c[j] * kind[2]

    if m == 0:
        # unconstrained nonnegative minimization
        if np.any(c_std < -_PIV_TOL):
            return LpSolution("unbounded", None, None)
        x_std = np.zeros(total)
        return _lp_extract("optimal", x_std, col_map, n, obj_shift, c, (), None)

    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # Phase 1
    T = np.hstack([A, np.eye(m), b.reshape(-1, 1)])
    basis = list(range(total, total + m))
    cost1 = np.concatenate([np.zeros(total), np.ones(m)])
    status, z1, obj1 = _simplex_core(T, basis, cost1, total + m)
    phase1_val = sum(T[i, -1] for i, bi in enumerate(basis) if bi >= total)
    if phase1_val > 1e-7:
        return LpSolution("infeasible", None, None)
    # drive artificials out of the basis where possible
    for i, bi in enumerate(basis):
        if bi >= total:
            pivot_col = -1
            for j in range(total):
                if abs(T[i, j]) > _PIV_TOL:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                piv = T[i, pivot_col]
                T[i] /= piv
                for r in range(m):
                    if r != i and abs(T[r, pivot_col]) > 1e-14:
                        T[r] -= T[r, pivot_col] * T[i]
                basis[i] = pivot_col
    keep_rows = [i for i in range(m) if basis[i] < total or abs(T[i, -1]) <= 1e-9]
    # redundant rows with artificial basics and zero rhs can be dropped
    T2 = np.hstack([T[keep_rows][:, :total], T[keep_rows][:, -1:]])
    basis2 = [basis[i] for i in keep_rows if basis[i] < total]
    if len(basis2) != len(keep_rows):
        # residual artificial at zero level: keep the row with identity handling
        T2 = T2[[i for i, r in enumerate(keep_rows) if basis[r] < total]]
        basis2 = [basis[r] for r in keep_rows if basis[r] < total]

    status, z2, obj2 = _simplex_core(T2, basis2, c_std, total)
    if status == "unbounded":
        return LpSolution("unbounded", None, None)
    x_std = np.zeros(total)
    for i, bi in enumerate(basis2):
        x_std[bi] = T2[i, -1]
    return _lp_extract(status, x_std, col_map, n, obj_shift, c, tuple(basis2), z2)


def _lp_extract(status, x_std, col_map, n, obj_shift, c, basis, z):
    x = np.zeros(n)
    degenerate = []
    basis_set = set(basis)
    for j in range(n):
        kind = col_map[j]
        if kind[0] == "shift":
            x[j] = x_std[kind[1]] + kind[2]
            cols = (kind[1],)
        elif kind[0] == "neg":
            x[j] = kind[2] - x_std[kind[1]]
            cols = (kind[1],)
        else:
            x[j] = x_std[kind[1]] - x_std[kind[2]]
            cols = (kind[1], kind[2])
        if z is not None:
            for col in cols:
                if col not in basis_set and abs(z[col]) <= 1e-9:
                    if kind[0] == "split":
                        # the sibling of a basic split column always prices
                        # at zero; only count a genuinely alternate column
                        sibling = kind[2] if col == kind[1] else kind[1]
                        if sibling in basis_set:
                            continue
                    degenerate.append(j)
                    break
    objective = float(np.dot(c, x))
    return LpSolution(status, x, objective, tuple(degenerate))
