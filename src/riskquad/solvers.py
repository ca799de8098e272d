"""Self-contained convex optimization primitives.

Scalar golden-section minimization with auto-bracketing, bisection for the
root of a monotone function in a bracket widened outward, a batched K-section
search for monotone crossings of criteria given on arrays (K points per
bracket and call), exact argmin intervals for piecewise-linear
convex functions, projected subgradient descent, a deterministic
compass search (the derivative-free route of ``conjugate_eval``), Kelley's
cutting planes (``cutting_planes``, the one solver of the convex decisions
without an exact route: it certifies its value by a gap), and a two-phase
bounded-variable tableau simplex LP solver: numpy rank-1 pivots, two-sided
bounds kept on their columns (a column reaching its own bound flips without
a pivot), free variables kept in one column, a start basis of slacks with
free columns crashed into the artificials' rows, Dantzig pricing (Bland's
rule through runs of stalled steps) and the rows' multipliers.
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


# -- two-phase bounded-variable tableau simplex LP ------------------------------


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
    # column (slack included, at either bound) of zero reduced cost and
    # positive or unbounded step changes, and that column itself when it is
    # an original variable
    degenerate_columns: tuple[int, ...] = ()
    # tableau pivots of the crash, both phases and the artificials' drive-out;
    # a bound flip is no pivot
    pivots: int = 0
    # the rows' multipliers y, equality rows first, from B^T y = c_B on the
    # final basis: c - A^T y are the reduced costs, and y_r = d obj / d b_r
    # (<= 0 on a <= row); 0 on a redundant row
    duals: Optional[np.ndarray] = None
    # rows whose multiplier an alternate dual optimum moves: the row-wise
    # mirror of ``degenerate_columns`` (a basic column at a bound whose row
    # admits a positive dual step past every nonbasic column of zero reduced
    # cost), and every redundant row
    degenerate_rows: tuple[int, ...] = ()


_PIV_TOL = 1e-9
_MAX_STEPS = 50_000  # pivots and bound flips
# the simplex prices by Dantzig's rule, and by Bland's once this many steps in
# a row have lowered its objective by no more than _STALL_REL of its magnitude
_STALL_RUN = 50
_STALL_REL = 1e-12


class _Tableau:
    """Dense row-major tableau: m constraint rows, then the phase-2 and the
    phase-1 cost rows (reduced costs; their last entry is minus the
    objective). ``basis`` holds each row's basic column, -1 for a row still
    held by its artificial. The first k columns are priced: the problem's,
    then the <= rows' slacks; after them each equality row's unit column,
    never priced, which with the slacks' carries B^-1 and the multipliers.
    Column j ranges over [0, ub[j]] and a nonbasic column sits at 0: one at
    its upper bound is stored reflected (``flipped``, x = ub - x'). Free
    columns enter in either direction and never leave."""

    def __init__(self, t: np.ndarray, basis: np.ndarray, free: np.ndarray, ub: np.ndarray, flipped: np.ndarray):
        self.t, self.basis, self.free, self.flipped = t, basis, free, flipped
        self.k = free.size
        # ub's last entry, after the priced columns', bounds an artificial, which basis -1 indexes
        self.ub = ub
        self.boxed = bool((ub < math.inf).any())
        # per row: whether its basic column is bounded below, and its upper bound
        self.bounded, self.ub_b = np.ones(basis.size, dtype=bool), self.ub[basis]
        self.rows = np.arange(basis.size)  # each row's index among the problem's rows
        self.pivots = self.steps = 0

    @property
    def m(self) -> int:
        return self.basis.size

    def _step_done(self) -> None:
        rhs = self.t[: self.m, -1]
        # the ratio test keeps bounded basics in [0, ub]; clear their round-off
        if self.boxed:
            np.minimum(rhs, self.ub_b, out=rhs)
        np.maximum(rhs, 0.0, out=rhs, where=self.bounded)
        self.steps += 1
        if self.steps > _MAX_STEPS:
            raise RuntimeError("simplex iteration cap exceeded")

    def pivot(self, r: int, q: int) -> None:
        t = self.t
        row = t[r] / t[r, q]
        col = t[:, q].copy()
        col[r] = 0.0
        np.subtract(t, np.outer(col, row), out=t)
        t[r] = row
        t[:, q] = 0.0
        t[r, q] = 1.0
        self.basis[r] = q
        self.bounded[r] = not self.free[q]
        self.ub_b[r] = self.ub[q]
        self.pivots += 1
        self._step_done()

    def flip(self, q: int) -> None:
        """Move nonbasic column q to its other bound, reflecting it."""
        t = self.t
        t[:, -1] -= t[:, q] * self.ub[q]
        t[:, q] *= -1.0
        self.flipped[q] = not self.flipped[q]
        self._step_done()

    def reflect_row(self, r: int) -> None:
        """Reflect row r's basic column, which then leaves at 0 where it
        reaches its upper bound."""
        j, t = self.basis[r], self.t
        t[r, :-1] *= -1.0
        t[r, j] = 1.0
        t[r, -1] = self.ub[j] - t[r, -1]
        self.flipped[j] = ~self.flipped[j]

    def crash(self) -> None:
        """Pivot each free column into a row held by an artificial when the
        pivot leaves every bounded basic >= 0."""
        m, t = self.m, self.t
        for j in self.free.nonzero()[0]:
            col = t[:m, j]
            cand = ((self.basis < 0) & (np.abs(col) > _PIV_TOL)).nonzero()[0]
            if cand.size == 0:
                continue
            bounded = self.bounded
            rhs = t[:m, -1]
            up = bounded & (col > _PIV_TOL)
            down = bounded & (col < -_PIV_TOL)
            hi = np.min(rhs[up] / col[up]) if up.any() else math.inf
            lo = np.max(rhs[down] / col[down]) if down.any() else -math.inf
            theta = rhs[cand] / col[cand]
            ok = ((theta >= lo) & (theta <= hi)).nonzero()[0]
            if ok.size:
                self.pivot(int(cand[ok[0]]), int(j))

    def run(self) -> str:
        """Simplex on the last row's costs. The entering column moves until a
        bounded basic reaches 0 or its upper bound, or it reaches its own
        upper bound first, which flips it without a pivot. Both phases price
        by Dantzig's rule, ties leaving by the largest pivot element, and by
        Bland's (smallest index enters, ties leave by the smallest basic
        index) during a run of stalled steps; the first step that makes
        progress returns it to Dantzig's."""
        m, t, k = self.m, self.t, self.k
        free = self.free if self.free.any() else None
        stalled = 0
        while True:
            bland = stalled >= _STALL_RUN
            z = t[-1, :k]
            score = -z if free is None else np.where(free, np.abs(z), -z)
            q = int((score > _PIV_TOL).argmax() if bland else score.argmax())
            if score[q] <= _PIV_TOL:
                return "optimal"
            col = t[:m, q] if z[q] < 0.0 else -t[:m, q]
            rhs = t[:m, -1]
            # a bounded basic falls to 0 where col > 0 and rises to its upper bound where col < 0
            down = col > _PIV_TOL
            live = down & self.bounded | (col < -_PIV_TOL) if self.boxed else down & self.bounded
            ratios = np.divide(np.where(down, rhs, self.ub_b - rhs), np.abs(col), out=np.full(m, math.inf), where=live)
            step = ratios.min(initial=math.inf)
            before = -t[-1, -1]
            if self.ub[q] <= step:
                if self.ub[q] == math.inf:
                    return "unbounded"
                self.flip(q)
            else:
                tied = (ratios == step).nonzero()[0]
                if tied.size == 1:
                    r = int(tied[0])
                elif bland:
                    # artificials rank after every column
                    r = int(tied[np.where(self.basis[tied] < 0, t.shape[1] + tied, self.basis[tied]).argmin()])
                else:
                    r = int(tied[np.abs(col[tied]).argmax()])
                if not down[r]:
                    self.reflect_row(r)
                self.pivot(r, q)
            stalled = stalled + 1 if before + t[-1, -1] <= _STALL_REL * (1.0 + abs(before)) else 0

    def drive_out_artificials(self) -> None:
        """Pivot each artificial left at zero level out of the basis, and drop
        its row when no column can replace it (the row is redundant)."""
        keep = np.ones(self.m, dtype=bool)
        for r in np.flatnonzero(self.basis < 0):
            self.t[r, -1] = 0.0
            entries = np.abs(self.t[r, : self.k])
            q = int(np.argmax(entries))
            if entries[q] > _PIV_TOL:
                self.pivot(int(r), q)
            else:
                keep[r] = False
        if not keep.all():
            self.t = self.t[np.concatenate((keep, [True, True]))]
            self.basis, self.bounded, self.ub_b, self.rows = self.basis[keep], self.bounded[keep], self.ub_b[keep], self.rows[keep]

    def alternates(self, n: int) -> tuple[tuple[int, ...], np.ndarray]:
        """The optimum's alternates, from the nonbasic columns of zero reduced
        cost: the original variables moved by such a column whose ratio test
        allows a positive (or unbounded) step, and the rows whose basic column
        sits at a bound and can leave there by a positive dual step, its
        reduced cost turning positive (at 0) or negative (at the upper bound)
        while every such column keeps its sign, a free one staying at 0."""
        m, t = self.m, self.t
        nonbasic = np.ones(self.k, dtype=bool)
        nonbasic[self.basis] = False
        cand = (nonbasic & (np.abs(t[-1, : self.k]) <= _PIV_TOL)).nonzero()[0]
        rhs = t[:m, -1]
        at_lo = self.bounded & (rhs <= _PIV_TOL)
        at_hi = self.ub_b - rhs <= _PIV_TOL
        if cand.size == 0:
            return (), (at_lo | at_hi).nonzero()[0]
        sub, free = t[:m, cand], self.free[cand]
        pos, neg = sub > _PIV_TOL, sub < -_PIV_TOL
        # a column's step moves row i's basic by -t[i, j]; a dual step on row r adds
        # t[r, j] times it to column j's reduced cost at 0, and subtracts it at the upper bound
        up_blocked = np.any(at_lo[:, None] & pos | at_hi[:, None] & neg, axis=0)
        down_blocked = np.any(at_lo[:, None] & neg | at_hi[:, None] & pos, axis=0)
        alt = cand[(self.ub[cand] > 0.0) & ~up_blocked | free & ~down_blocked]
        moved = self.basis[np.any(np.abs(t[:m, alt]) > _PIV_TOL, axis=1)]
        columns = tuple(sorted({int(j) for j in np.concatenate((alt, moved)) if j < n}))
        lo_blocked = np.any(neg | free & pos, axis=1)
        hi_blocked = np.any(pos | free & neg, axis=1)
        return columns, (at_lo & ~lo_blocked | at_hi & ~hi_blocked).nonzero()[0]


def solve_lp(p: LpProblem) -> LpSolution:
    """Two-phase dense tableau simplex with bounded variables; statuses are
    faithful.

    A variable with a finite bound is shifted (or reflected) to range over
    [0, ub], and a finite upper bound on top of a lower one stays on its
    column: the ratio test stops the entering column there by a bound flip,
    and a column starts at the bound its cost favours.  A free variable keeps
    one column.  A <= row with rhs >= 0 starts on its slack, every other row
    on an artificial, and free columns are crashed into the artificials' rows
    before phase 1.  The multipliers are minus the reduced costs of the
    rows' unit columns.
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
    if (lo > hi).any():
        return LpSolution("infeasible", None, None)

    # x = shift + sign * x' with 0 <= x' <= ub, except free columns
    has_lo = np.isfinite(lo)
    flip = ~has_lo & np.isfinite(hi)
    sign = np.where(flip, -1.0, 1.0)
    shift = np.where(has_lo, lo, np.where(flip, hi, 0.0))
    n_eq, n_slack = b_eq.size, b_ub.size
    m = n_eq + n_slack
    # the bounds of the priced columns (after the problem's, the slacks'), then an artificial's
    ub = np.full(n + n_slack + 1, math.inf)
    ub[:n] = np.where(has_lo, hi - lo, math.inf)
    t = np.zeros((m + 2, n + m + 1))
    a = t[:m, :n]
    a[:n_eq], a[n_eq:] = a_eq, a_ub
    b = np.concatenate((b_eq, b_ub)) - a @ shift
    a *= sign
    cost = sign * c
    # a boxed column starts at its upper bound, reflected, where its cost is negative
    flipped = np.zeros(n + n_slack, dtype=bool)
    flipped[:n] = (cost < 0.0) & (ub[:n] < math.inf)
    if flipped.any():
        up = flipped[:n]
        b -= a[:, up] @ ub[:n][up]
        a[:, up] *= -1.0
        cost[up] *= -1.0
    # row r's unit column: its slack, or after the slacks an equality row's
    unit = n + np.concatenate((n_slack + np.arange(n_eq), np.arange(n_slack)))
    t[np.arange(m), unit] = 1.0
    t[:m, -1] = b
    negative = b < 0.0
    t[:m][negative] *= -1.0
    artificial = negative | (np.arange(m) < n_eq)
    basis = np.where(artificial, -1, n + np.arange(m) - n_eq)
    t[m, :n] = cost
    t[m + 1] = -t[:m][artificial].sum(axis=0)
    free = np.zeros(n + n_slack, dtype=bool)
    free[:n] = ~has_lo & ~flip
    tab = _Tableau(t, basis, free, ub, flipped)

    tab.crash()
    if (tab.basis < 0).any():
        tab.run()
        if tab.t[: tab.m, -1][tab.basis < 0].sum() > 1e-7:
            return LpSolution("infeasible", None, None, pivots=tab.pivots)
        tab.drive_out_artificials()
    tab.t = tab.t[:-1]
    if tab.run() == "unbounded":
        return LpSolution("unbounded", None, None, pivots=tab.pivots)

    x_t = np.zeros(n)
    own = tab.basis < n
    x_t[tab.basis[own]] = tab.t[: tab.m, -1][own]
    x = shift + sign * np.where(tab.flipped[:n], ub[:n] - x_t, x_t)
    columns, steps = tab.alternates(n)
    moved = np.ones(m, dtype=bool)
    moved[tab.rows] = False  # the redundant rows
    if steps.size:
        # the dual step on row r moves y along B^-T e_r, row r of B^-1
        moved |= (np.abs(tab.t[steps][:, unit]) > _PIV_TOL).any(axis=0)
    return LpSolution("optimal", x, float(c @ x), columns, tab.pivots, -tab.t[-1, unit], tuple(moved.nonzero()[0].tolist()))
