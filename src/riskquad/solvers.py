"""Self-contained convex optimization primitives.

Scalar golden-section minimization with auto-bracketing, bisection for the
root of a monotone function in a bracket widened outward, a batched K-section
search for monotone crossings of criteria given on arrays (K points per
bracket and call), exact argmin intervals for piecewise-linear
convex functions, projected subgradient descent, a deterministic
compass search (the derivative-free route of ``conjugate_eval``), Kelley's
cutting planes (``cutting_planes``, the one solver of the convex decisions
without an exact route: it certifies its value by a gap), and a two-phase
tableau simplex LP solver: numpy rank-1 pivots, free
variables kept in one column, a start basis of slacks with free columns
crashed into the artificials' rows, Dantzig pricing in phase 1 (Bland's rule
through runs of degenerate pivots) and Bland's rule in phase 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

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
    "flat_interval",
    "ksection_crossings",
    "argmin_interval_pwl",
    "pwl_grid",
    "pwl_argmin_interval",
    "pwl_slope_argmin",
    "minimize_subgradient",
    "compass_search",
    "CuttingPlaneResult",
    "cutting_planes",
    "solve_lp",
    "bisect_root",
    "widen_root",
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
    ends = []
    for direction in (-1.0, 1.0):
        end, step = c0 + direction, 1.0
        fend = fn(end)
        # expand while still descending below the least value seen
        while fend < f0 and math.isfinite(fend):
            step *= 2.0
            if step > _BRACKET_CAP:
                raise UnboundedObjectiveError(f"objective unbounded below ({'left' if direction < 0 else 'right'})")
            f0, end = fend, end + direction * step
            fend = fn(end)
        ends.append(end)
    return ends[0], ends[1]


def _shrink_to_domain(fn, lo, hi):
    """Move infinite endpoints just inside the effective domain by bisection."""
    if math.isfinite(fn(lo)) and math.isfinite(fn(hi)):
        return lo, hi
    c_f, _ = _find_finite(fn, 0.5 * (lo + hi) if math.isfinite(lo + hi) else 0.0)
    ends = []
    for end in (lo, hi):
        # bisect between the finite point (inside) and the end (outside)
        inside, outside = c_f, end
        if not math.isfinite(fn(end)):
            for _ in range(80):
                m = 0.5 * (inside + outside)
                inside, outside = (m, outside) if math.isfinite(fn(m)) else (inside, m)
            end = inside
        ends.append(end)
    return ends[0], ends[1]


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
            if mid == inner or mid == outer:
                break  # adjacent floats: every later step would leave inner as it is
            if fn(mid) <= thresh:
                inner = mid
            else:
                outer = mid
        return inner

    return StatInterval(crossing(-1), crossing(+1))


# -- batched K-section -----------------------------------------------------------

# points per bracket in each round of the batched search
KSECTION = 64
# the closest a round's points come to a predicted root, as a fraction of
# the even step
_NEAR_FLOOR = 1e-9


def _round_fractions(k: int):
    """Where a round puts its k points in a bracket, as fractions of it.

    Returns (even, near, blind): ``even`` splits the bracket evenly with about
    half the points; ``near`` holds the offsets of the other half, in pairs
    around a predicted point at distances spread geometrically between one
    even step and ``_NEAR_FLOOR`` of it (a lone pair sits midway, at the
    square root); ``blind`` takes their place, between the even points, when
    there is no prediction.
    """
    pairs = (k - k // 2) // 2
    n_even = k - 2 * pairs
    even = np.arange(1, n_even + 1) / (n_even + 1.0)
    near = _NEAR_FLOOR ** ((np.arange(pairs) + 0.5) / max(pairs, 1)) / (n_even + 1.0)
    blind = (np.arange(2 * pairs) % n_even + 0.5) / (n_even + 1.0)
    return even, np.concatenate((-near, near)), blind


def ksection_crossings(crit, inner, outer, k: int = KSECTION, ends=None) -> np.ndarray:
    """For each bracket i, the last point on the way from ``inner[i]`` to
    ``outer[i]`` at which ``crit`` is >= 0, narrowed until the bracket ends are
    adjacent floats.

    ``crit`` maps an (n, k) array of points, row i inside bracket i, to their
    values in one call.  It must be >= 0 at ``inner[i]``, < 0 at ``outer[i]``
    and change sign once along each row; a bracket with ``inner == outer`` is
    returned as it is.  Each round places its points by ``_round_fractions``,
    predicting the root of the line through the bracket ends' values, so a
    criterion close to linear there is settled in a few rounds.  ``ends``
    holds crit's values at ``inner`` and ``outer``, or its limits there from
    inside the bracket, when the caller has them, so the first round
    predicts too.
    """
    inner = np.array(inner, dtype=float)
    outer = np.array(outer, dtype=float)
    n = inner.size
    rows = np.arange(n)
    even, near, blind = _round_fractions(k)
    even = np.tile(even, (n, 1))
    # values at the bracket ends, unknown until a round has evaluated them
    v_in, v_out = (np.full(n, np.nan),) * 2 if ends is None else (np.array(e, dtype=float) for e in ends)
    ends = np.ones((n, 1), dtype=bool), np.zeros((n, 1), dtype=bool)
    # each round keeps two distinct consecutive points, so it narrows every
    # open bracket; the cap only guards a criterion that changes sign twice
    for _ in range(4096):
        mid = 0.5 * (inner + outer)
        if np.all((mid == inner) | (mid == outer)):
            break
        drop = v_in - v_out
        known = drop > 0.0
        root = np.divide(v_in, drop, out=np.zeros(n), where=known)
        window = np.where(known[:, None], np.minimum(np.maximum(root[:, None] + near, 0.0), 1.0), blind)
        frac = np.sort(np.concatenate((even, window), axis=1))
        pts = inner[:, None] + (outer - inner)[:, None] * frac
        vals = np.asarray(crit(pts), dtype=float)
        ok = np.concatenate((ends[0], vals >= 0.0, ends[1]), axis=1)
        first = np.argmin(ok, axis=1)
        full = np.concatenate((inner[:, None], pts, outer[:, None]), axis=1)
        full_v = np.concatenate((v_in[:, None], vals, v_out[:, None]), axis=1)
        inner, outer = full[rows, first - 1], full[rows, first]
        v_in, v_out = full_v[rows, first - 1], full_v[rows, first]
    return inner


def pwl_grid(breakpoints) -> np.ndarray:
    """Sorted candidates for ``pwl_argmin_interval``: the breakpoints, with
    kinks closer than the evaluation noise floor merged, plus one sentinel
    outside each end to supply the outer slopes.

    The floor is 1e-9 of max(1, max|bps|), but at most 1e-6 of the
    breakpoints' spread and at least four ulps of max|bps|; the sentinels sit
    a unit out, or 1000 spreads out when that is less.
    """
    bps = np.unique(np.asarray(breakpoints, dtype=float))
    if bps.size == 0:
        raise ValueError("need at least one breakpoint")
    top = max(-float(bps[0]), float(bps[-1]))
    spread = float(bps[-1] - bps[0])
    thresh = max(min(1e-9 * max(1.0, top), 1e-6 * spread), 4.0 * math.ulp(top))
    reach = min(1.0, 1e3 * spread) if spread > 0.0 else 1.0
    # each breakpoint is kept when it lies beyond the threshold from the last
    # kept one; only those within it of their predecessor can be dropped
    keep = np.ones(bps.size, dtype=bool)
    last = bps[0]
    for i in np.flatnonzero(np.diff(bps) <= thresh) + 1:
        if keep[i - 1]:
            last = bps[i - 1]
        keep[i] = bps[i] - last > thresh
    kept = bps[keep]
    return np.concatenate(([kept[0] - reach], kept, [kept[-1] + reach]))


def pwl_argmin_interval(pts: np.ndarray, vals: np.ndarray) -> StatInterval:
    """Exact flat-bottom argmin interval of a convex piecewise-linear function
    from its values ``vals`` at the sorted candidates ``pts`` (``pwl_grid``),
    between which it is affine.

    A segment counts as flat when its slope is within the relative slope
    tolerance plus the evaluation noise over that segment's own width; raises
    NonConvexError when the slopes decrease by more than that noise, and
    UnboundedObjectiveError when a sentinel segment still descends outward
    by more than it.
    """
    if not np.all(np.isfinite(vals)):
        raise ValueError("piecewise-linear objective must be finite at breakpoints")
    gaps = np.diff(pts)
    slopes = np.diff(vals) / gaps
    s_noise = 1e-12 * (1.0 + float(np.max(np.abs(vals)))) / gaps
    s_tol = _SLOPE_TOL_REL * (1.0 + float(np.max(np.abs(slopes)))) + s_noise
    if np.any(np.diff(slopes) < -10.0 * np.maximum(s_tol[:-1], s_tol[1:])):
        raise NonConvexError("slope sequence is decreasing; function is not convex")
    if slopes[0] > s_noise[0] or slopes[-1] < -s_noise[-1]:
        raise UnboundedObjectiveError("objective still descending beyond the outer breakpoints")
    neg = np.nonzero(slopes < -s_tol)[0]
    pos = np.nonzero(slopes > s_tol)[0]
    lo = pts[neg[-1] + 1] if neg.size else pts[0]
    hi = pts[pos[0]] if pos.size else pts[-1]
    if hi < lo:
        hi = lo
    return StatInterval(float(lo), float(hi))


def pwl_slope_argmin(slopes, pts: np.ndarray) -> tuple[int, int]:
    """The argmin interval [pts[i], pts[j]] of a convex function affine between
    the sorted candidates ``pts`` and beyond them, from the rows of left and
    right slopes that ``slopes(cs)`` gives at each C of an array.

    Segment s runs from pts[s - 1] to pts[s], segments 0 and pts.size out to
    -inf and inf.  Its slope is read at its midpoint: the right slope, or the
    left one at its upper end where the midpoint rounds to that.  A K-section
    finds the first segment with slope >= 0 and the first with slope > 0
    together, so the ends are candidates, not narrowed floats.  Raises
    UnboundedObjectiveError when an outer segment descends outward.
    """
    n, rows = pts.size, np.arange(2)

    def seg(s):
        a, b = pts[np.maximum(s - 1, 0)], pts[np.minimum(s, n - 1)]
        mid = 0.5 * (a + b)
        left, right = slopes(mid)
        return np.where((mid < b) | (s == n), right, left)

    # the first segment of each predicate lies in [lo, hi], n + 1 for none
    lo, hi = np.zeros(2, dtype=int), np.full(2, n + 1)
    while np.any(lo < hi):
        idx = np.minimum(lo[:, None] + (hi - lo)[:, None] * np.arange(KSECTION) // KSECTION, n)
        s = seg(idx.ravel()).reshape(2, KSECTION)
        short = np.sum(np.stack((s[0] < 0.0, s[1] <= 0.0)), axis=1)  # the probes before each first
        lo = np.where(short > 0, idx[rows, short - 1] + 1, lo)
        hi = np.where(short < KSECTION, idx[rows, np.minimum(short, KSECTION - 1)], hi)
    if lo[0] > n or lo[1] == 0:
        raise UnboundedObjectiveError("objective still descending beyond the outer candidates")
    return max(int(lo[0]) - 1, 0), min(int(lo[1]) - 1, n - 1)


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
    return _bisect_bracket(g, lo, g(lo), hi, g(hi), iters)


def _bisect_bracket(g, lo: float, glo: float, hi: float, ghi: float, iters: int) -> float:
    """``bisect_root`` with the values at both ends already known."""
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    # signs compared directly: a product of two values below 1e-162 underflows to 0
    if (glo < 0.0) == (ghi < 0.0):
        raise ValueError("root not bracketed")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # adjacent floats: every later step would leave lo and hi as they are
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (glo < 0.0) != (gm < 0.0):
            hi, ghi = mid, gm
        else:
            lo, glo = mid, gm
    return 0.5 * (lo + hi)


def widen_root(g, lo: float, hi: float) -> float:
    """Root of a nonincreasing scalar function, by bisection once the bracket
    lo < hi is widened outward, each step twice the last and the first its
    width, until g(lo) >= 0 >= g(hi).  The end passed over becomes the other
    end, so no value is computed twice.  Raises ValueError where an end
    overflows before g changes sign."""
    step = hi - lo
    glo = g(lo)
    if glo < 0.0:
        while glo < 0.0:
            hi, ghi, lo, step = lo, glo, lo - step, 2.0 * step
            if not math.isfinite(lo):
                raise ValueError("root not bracketed")
            glo = g(lo)
    else:
        ghi = g(hi)
        while ghi > 0.0:
            lo, glo, hi, step = hi, ghi, hi + step, 2.0 * step
            if not math.isfinite(hi):
                raise ValueError("root not bracketed")
            ghi = g(hi)
    return _bisect_bracket(g, lo, glo, hi, ghi, 200)


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


# -- Kelley's cutting planes ---------------------------------------------------------

# the rounds stop once upper - lower <= _GAP_REL * (1 + |upper|)
_GAP_REL = 1e-12


@dataclass
class CuttingPlaneResult:
    x: np.ndarray
    value: float
    gap: float
    rounds: int


def cutting_planes(oracle, x0, bounds, a_eq=None, b_eq=None, rounds: int = 2500, scale: float = 1.0, constraint=None, widen=()) -> CuttingPlaneResult:
    """min f(x) over the box ``bounds`` and the rows a_eq x = b_eq by Kelley's
    (1960) cutting planes.  ``oracle(x)`` returns f(x) and the slope g and
    intercept c of a cut, f(y) >= g.y + c, exact at x.  The LP master min t
    s.t. t >= every cut, in units of ``scale`` so its tolerances are
    unitless, gives a lower bound and the next x; the best evaluated value
    is the upper bound, and ``gap``, upper - lower, certifies it.  x0 is a
    candidate only where it meets the rows.  ``constraint(x)`` gives h(x) and
    a subgradient of a convex h, whose tangent row joins the master where
    h(x) > 0 (the oracle then reports a value that a feasible point derived
    from x attains).  The rounds stop when the gap closes, when the master
    returns an x already evaluated (its pivot tolerance hides cuts that
    differ by less), or after ``rounds`` rounds.  A stop with the best x on a
    face of the box in a coordinate of ``widen`` widens the box there
    fourfold, cuts kept, unless the last widening did not lower the value.
    """
    n = np.size(x0)
    bounds = list(bounds) + [(None, None)]
    a_eq_lp = None if a_eq is None else np.hstack((a_eq, np.zeros((len(a_eq), 1))))
    rows, rhs = [], []
    upper, lower, widened_at = math.inf, -math.inf, math.inf
    x_best = None
    evaluated = set()
    x = np.asarray(x0, dtype=float)
    candidate = a_eq is None or bool(np.all(np.abs(a_eq @ x - b_eq) <= 1e-12 * (1.0 + np.abs(b_eq))))
    for k in range(1, max(rounds, 1) + 1):
        evaluated.add(x.tobytes())
        value, g, c = oracle(x)
        if candidate and value < upper:
            upper, x_best = value, x
        rows.append(np.append(g / scale, -1.0))
        rhs.append((0.0 - c) / scale)
        h, gh = (0.0, None) if constraint is None else constraint(x)
        if h > 0.0:
            rows.append(np.append(gh, 0.0))
            rhs.append(float(gh @ x) - h)
        sol = solve_lp(LpProblem(np.append(np.zeros(n), 1.0), a_eq_lp, b_eq, np.asarray(rows), np.asarray(rhs), bounds))
        if sol.status != "optimal":
            raise RuntimeError(f"cutting-plane master LP {sol.status}")
        lower = max(lower, sol.objective * scale)
        x, candidate = sol.x[:n], True
        if x_best is None or not (upper - lower <= _GAP_REL * (1.0 + abs(upper)) or x.tobytes() in evaluated):
            continue
        face = [i for i in widen if min(x_best[i] - bounds[i][0], bounds[i][1] - x_best[i]) <= 1e-9 * (bounds[i][1] - bounds[i][0])]
        if not face or upper >= widened_at - _GAP_REL * (1.0 + abs(upper)):
            break
        for i in face:
            lo, hi = bounds[i]
            bounds[i] = (lo - 1.5 * (hi - lo), hi + 1.5 * (hi - lo))
        lower, widened_at = -math.inf, upper
    if x_best is None:
        raise RuntimeError("cutting planes stopped before a feasible evaluation")
    return CuttingPlaneResult(x_best, upper, max(upper - lower, 0.0), k)


# -- two-phase tableau simplex LP ---------------------------------------------


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
    # original variables that an alternate optimum moves: those a nonbasic
    # column (slack included) of zero reduced cost and positive or unbounded
    # step changes, and that column itself when it is an original variable
    degenerate_columns: tuple[int, ...] = ()
    # tableau pivots of the crash, both phases and the artificials' drive-out
    pivots: int = 0


_PIV_TOL = 1e-9
_MAX_PIVOTS = 50_000
# phase 1 prices by Dantzig's rule, and by Bland's once this many pivots in a
# row have lowered its objective by no more than _STALL_REL of it
_STALL_RUN = 50
_STALL_REL = 1e-12


class _Tableau:
    """Dense column-major tableau: m constraint rows, then the phase-2 and the
    phase-1 cost rows (reduced costs; their last entry is minus the
    objective). ``basis`` holds each row's basic column, -1 for a row still
    held by its artificial, whose unit column is not stored. Free columns
    enter in either direction and never leave."""

    def __init__(self, t: np.ndarray, basis: np.ndarray, free: np.ndarray):
        self.t, self.basis, self.free = t, basis, free
        self.row_free = np.zeros(basis.size, dtype=bool)
        self.pivots = 0

    @property
    def m(self) -> int:
        return self.basis.size

    def pivot(self, r: int, q: int) -> None:
        t = self.t
        row = t[r] / t[r, q]
        col = t[:, q].copy()
        col[r] = 0.0
        # the rank-1 update touches only the pivot row's nonzero columns
        nz = np.flatnonzero(row)
        t[:, nz] -= np.outer(col, row[nz])
        t[r] = row
        t[:, q] = 0.0
        t[r, q] = 1.0
        self.basis[r] = q
        self.row_free[r] = self.free[q]
        rhs = t[: self.m, -1]
        # the ratio test keeps bounded basics >= 0; clear their round-off
        np.maximum(rhs, 0.0, out=rhs, where=~self.row_free)
        self.pivots += 1
        if self.pivots > _MAX_PIVOTS:
            raise RuntimeError("simplex iteration cap exceeded")

    def crash(self) -> None:
        """Pivot each free column into a row held by an artificial when the
        pivot leaves every bounded basic >= 0."""
        m, t = self.m, self.t
        for j in np.flatnonzero(self.free):
            col = t[:m, j]
            cand = np.flatnonzero((self.basis < 0) & (np.abs(col) > _PIV_TOL))
            if cand.size == 0:
                continue
            bounded = ~self.row_free
            rhs = t[:m, -1]
            up = bounded & (col > _PIV_TOL)
            down = bounded & (col < -_PIV_TOL)
            hi = np.min(rhs[up] / col[up]) if up.any() else math.inf
            lo = np.max(rhs[down] / col[down]) if down.any() else -math.inf
            theta = rhs[cand] / col[cand]
            ok = np.flatnonzero((theta >= lo) & (theta <= hi))
            if ok.size:
                self.pivot(int(cand[ok[0]]), int(j))

    def run(self, phase1: bool) -> str:
        """Simplex on the last row's costs. Phase 2 prices by Bland's rule
        (smallest index enters, ties leave by the smallest basic index).
        Phase 1 prices by Dantzig's rule, ties leaving by the largest pivot
        element, and by Bland's during a run of stalled pivots; the first
        pivot that makes progress returns it to Dantzig's."""
        m, t = self.m, self.t
        stalled = 0 if phase1 else _STALL_RUN
        while True:
            bland = stalled >= _STALL_RUN
            z = t[-1, :-1]
            score = np.where(self.free, np.abs(z), -z)
            cand = np.flatnonzero(score > _PIV_TOL)
            if cand.size == 0:
                return "optimal"
            q = int(cand[0] if bland else cand[np.argmax(score[cand])])
            col = t[:m, q] if z[q] < 0.0 else -t[:m, q]
            rows = np.flatnonzero((col > _PIV_TOL) & ~self.row_free)
            if rows.size == 0:
                return "unbounded"
            ratios = t[rows, -1] / col[rows]
            step = ratios.min()
            tied = rows[ratios == step]
            if bland:
                # artificials rank after every column
                keys = np.where(self.basis[tied] < 0, t.shape[1] + tied, self.basis[tied])
                r = tied[np.argmin(keys)]
            else:
                r = tied[np.argmax(col[tied])]
            before = -t[-1, -1]
            self.pivot(int(r), q)
            if phase1:
                stalled = stalled + 1 if before + t[-1, -1] <= _STALL_REL * (1.0 + before) else 0

    def drive_out_artificials(self) -> None:
        """Pivot each artificial left at zero level out of the basis, and drop
        its row when no column can replace it (the row is redundant)."""
        keep = np.ones(self.m, dtype=bool)
        for r in np.flatnonzero(self.basis < 0):
            self.t[r, -1] = 0.0
            entries = np.abs(self.t[r, :-1])
            q = int(np.argmax(entries))
            if entries[q] > _PIV_TOL:
                self.pivot(int(r), q)
            else:
                keep[r] = False
        if not keep.all():
            self.t = np.asfortranarray(self.t[np.concatenate((keep, [True, True]))])
            self.basis = self.basis[keep]
            self.row_free = self.row_free[keep]

    def alternate_optima(self, n: int) -> tuple[int, ...]:
        """Original variables moved by a nonbasic column of zero reduced cost
        whose ratio test allows a positive (or unbounded) step."""
        m, t = self.m, self.t
        nonbasic = np.ones(t.shape[1] - 1, dtype=bool)
        nonbasic[self.basis] = False
        cand = np.flatnonzero(nonbasic & (np.abs(t[-1, :-1]) <= _PIV_TOL))
        block = (~self.row_free & (t[:m, -1] <= _PIV_TOL))[:, None]
        sub = t[:m, cand]
        up = ~np.any(block & (sub > _PIV_TOL), axis=0)
        down = self.free[cand] & ~np.any(block & (sub < -_PIV_TOL), axis=0)
        alt = cand[up | down]
        moved = self.basis[np.any(np.abs(t[:m, alt]) > _PIV_TOL, axis=1)]
        return tuple(sorted({int(j) for j in np.concatenate((alt, moved)) if j < n}))


def solve_lp(p: LpProblem) -> LpSolution:
    """Two-phase dense tableau simplex; statuses are faithful.

    A variable with a finite bound is shifted (or reflected) to be >= 0 and
    a finite upper bound on top of a lower one becomes a row; a free variable
    keeps one column. A <= row with rhs >= 0 starts on its slack, every other
    row on an artificial, and free columns are crashed into the artificials'
    rows before phase 1.
    """
    c = np.asarray(p.c, dtype=float)
    n = c.size
    a_eq = np.asarray(p.a_eq, dtype=float).reshape(-1, n) if p.a_eq is not None else np.zeros((0, n))
    b_eq = np.asarray(p.b_eq, dtype=float).ravel() if p.b_eq is not None else np.zeros(0)
    a_ub = np.asarray(p.a_ub, dtype=float).reshape(-1, n) if p.a_ub is not None else np.zeros((0, n))
    b_ub = np.asarray(p.b_ub, dtype=float).ravel() if p.b_ub is not None else np.zeros(0)
    bounds = list(p.bounds) if p.bounds is not None else [(None, None)] * n
    if len(bounds) != n:
        raise ValueError("bounds length mismatch")
    lo = np.array([-math.inf if b[0] is None else float(b[0]) for b in bounds])
    hi = np.array([math.inf if b[1] is None else float(b[1]) for b in bounds])
    if np.any(lo > hi):
        return LpSolution("infeasible", None, None)

    # x = shift + sign * x' with x' >= 0, except free columns
    has_lo = np.isfinite(lo)
    flip = ~has_lo & np.isfinite(hi)
    sign = np.where(flip, -1.0, 1.0)
    shift = np.where(has_lo, lo, np.where(flip, hi, 0.0))
    boxed = np.flatnonzero(has_lo & np.isfinite(hi))
    a = np.vstack((a_eq, a_ub, np.eye(n)[boxed])) * sign
    b = np.concatenate((b_eq - a_eq @ shift, b_ub - a_ub @ shift, hi[boxed] - lo[boxed]))

    n_eq, m = b_eq.size, b.size
    n_slack = m - n_eq
    t = np.zeros((m + 2, n + n_slack + 1), order="F")
    t[:m, :n] = a
    t[np.arange(n_eq, m), n + np.arange(n_slack)] = 1.0
    t[:m, -1] = b
    negative = b < 0.0
    t[:m][negative] *= -1.0
    artificial = negative | (np.arange(m) < n_eq)
    basis = np.where(artificial, -1, n + np.arange(m) - n_eq)
    t[m, :n] = sign * c
    t[m + 1] = -t[:m][artificial].sum(axis=0)
    free = np.concatenate((~has_lo & ~flip, np.zeros(n_slack, dtype=bool)))
    tab = _Tableau(t, basis, free)

    tab.crash()
    if np.any(tab.basis < 0):
        tab.run(phase1=True)
        if tab.t[: tab.m, -1][tab.basis < 0].sum() > 1e-7:
            return LpSolution("infeasible", None, None, pivots=tab.pivots)
        tab.drive_out_artificials()
    tab.t = tab.t[:-1]
    if tab.run(phase1=False) == "unbounded":
        return LpSolution("unbounded", None, None, pivots=tab.pivots)

    x_std = np.zeros(tab.t.shape[1] - 1)
    x_std[tab.basis] = tab.t[: tab.m, -1]
    x = shift + sign * x_std[:n]
    return LpSolution("optimal", x, float(np.dot(c, x)), tab.alternate_optima(n), tab.pivots)
