"""Self-contained convex optimization primitives.

Scalar golden-section minimization with auto-bracketing, bisection for the
root of a monotone function in a bracket widened outward, a batched K-section
search for monotone crossings of criteria given on arrays (K points per
bracket and call), exact argmin intervals for piecewise-linear
convex functions, projected subgradient descent, a deterministic
compass search (the derivative-free route of ``conjugate_eval``), Kelley's
cutting planes (``cutting_planes``, the one solver of the convex decisions
without an exact route: it certifies its value by a gap, and its masters
share one tableau, each round's cuts appended as rows to the last optimal
basis), and a bounded dual simplex LP solver on a dense tableau: numpy
rank-1 pivots, a start basis of the rows' unit columns with each boxed column
at the bound its cost favours, a dual phase 1 on the same engine where a free
or one-sided column is not dual feasible there, the bound-flipping ratio test
(Bland's rule through runs of stalled steps) and the rows' multipliers.
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
    there is no prediction, and each near point's that would fall on or past
    an end of the bracket.
    """
    pairs = (k - k // 2) // 2
    n_even = k - 2 * pairs
    even = np.arange(1, n_even + 1) / (n_even + 1.0)
    near = _NEAR_FLOOR ** ((np.arange(pairs) + 0.5) / max(pairs, 1)) / (n_even + 1.0)
    blind = (np.arange(2 * pairs) % n_even + 0.5) / (n_even + 1.0)
    return even, np.concatenate((-near, near)), blind


def ksection_crossings(crit, inner, outer, k: int = KSECTION, ends=None, guess=None) -> np.ndarray:
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
    predicts too.  The first round predicts ``guess[i]`` instead, where the
    caller gives one inside bracket i (nan for none): a root from the
    criterion's own form, good where the criterion is far from linear across
    the bracket.  Neither prediction moves the point returned, only the
    number of rounds to it.
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
        if guess is not None:
            span = outer - inner
            at = np.divide(np.asarray(guess, dtype=float) - inner, span, out=np.full(n, np.nan), where=span != 0.0)
            inside = (at >= 0.0) & (at <= 1.0)
            root, known, guess = np.where(inside, at, root), known | inside, None
        # a point on an end would read the criterion there, not its limit from inside
        window = root[:, None] + near
        window = np.where(known[:, None] & (window > 0.0) & (window < 1.0), window, blind)
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

    A segment counts as flat when its rise is within the relative slope
    tolerance times its width plus the evaluation noise, never divided by a
    width, which overflows for a subnormal gap; raises NonConvexError when
    the slopes decrease by more than that, and UnboundedObjectiveError when a
    sentinel segment still descends outward by more than the noise.
    """
    if not np.all(np.isfinite(vals)):
        raise ValueError("piecewise-linear objective must be finite at breakpoints")
    gaps, rises = np.diff(pts), np.diff(vals)
    noise = 1e-12 * (1.0 + float(np.max(np.abs(vals))))
    steep = float(np.max(np.abs(rises) / gaps))
    tol = _SLOPE_TOL_REL * (1.0 + steep) * gaps + noise
    # slopes r_i / g_i decreasing by more than 10 tolerances, cross-multiplied by g_i g_{i+1}
    drop = rises[1:] * gaps[:-1] - rises[:-1] * gaps[1:]
    if np.any(drop < -10.0 * np.maximum(tol[:-1] * gaps[1:], tol[1:] * gaps[:-1])):
        raise NonConvexError("slope sequence is decreasing; function is not convex")
    if rises[0] > noise or rises[-1] < -noise:
        raise UnboundedObjectiveError("objective still descending beyond the outer breakpoints")
    neg = np.nonzero(rises < -tol)[0]
    pos = np.nonzero(rises > tol)[0]
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
    -inf and inf.  Its slope is read at its midpoint, the outer ones' half a
    spread of the candidates (or of max(1, |pts[0]|)) out, clear of a kink
    that rounding leaves just outside: the right slope, or the left one at
    its upper end where the midpoint rounds to that.  A K-section finds the first
    segment with slope >= 0 and the first with slope > 0 together, at most K
    probes each a round, so the ends are candidates, not narrowed floats.
    Raises UnboundedObjectiveError when an outer segment descends outward.
    """
    n = pts.size
    width = float(pts[-1] - pts[0]) or max(1.0, abs(float(pts[0])))
    ends = np.concatenate(([pts[0] - width], pts, [pts[-1] + width]))
    mids = 0.5 * (ends[:-1] + ends[1:])
    inside = mids < ends[1:]

    def seg(s):
        left, right = slopes(mids[s])
        return np.where(inside[s], right, left)

    # the first segment with slope >= 0 lies in [lo[0], hi[0]] and the first with slope > 0 in [lo[1], hi[1]], n + 1 for none
    lo, hi = [0, 0], [n + 1, n + 1]
    while lo != hi:
        k = min(KSECTION, max(hi[0] - lo[0], hi[1] - lo[1]))
        idx = [np.minimum(a + (b - a) * np.arange(k) // k, n) for a, b in zip(lo, hi)]
        # one call for both, with one row while both brackets are one, as at the start
        s = seg(idx[0])[None, :] if (lo[0], hi[0]) == (lo[1], hi[1]) else seg(np.concatenate(idx)).reshape(2, k)
        for p, fails in enumerate((s[0] < 0.0, s[-1] <= 0.0)):
            short = int(np.count_nonzero(fails))  # the probes before the first
            if short:
                lo[p] = int(idx[p][short - 1]) + 1
            if short < k:
                hi[p] = int(idx[p][short])
    if lo[0] > n or lo[1] == 0:
        raise UnboundedObjectiveError("objective still descending beyond the outer candidates")
    return max(lo[0] - 1, 0), min(lo[1] - 1, n - 1)


def argmin_interval_pwl(f, breakpoints) -> StatInterval:
    """``pwl_argmin_interval`` of a callable, evaluated at each candidate.

    ``breakpoints`` must contain every kink, so the function is affine between
    consecutive candidates and beyond the extreme ones.
    """
    fn = _as_callable(f)
    pts = pwl_grid(list(breakpoints))
    return pwl_argmin_interval(pts, np.array([fn(c) for c in pts]))


def _bisect_bracket(g, lo: float, glo: float, hi: float, ghi: float, iters: int) -> float:
    """Root of a scalar function by bisection, with g(lo) and g(hi), already
    known, of opposite sign (or zero)."""
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
    # tableau pivots summed over the masters, their cold starts included
    pivots: int


def cutting_planes(oracle, x0, bounds, a_eq=None, b_eq=None, rounds: int = 2500, scale: float = 1.0, constraint=None, widen=()) -> CuttingPlaneResult:
    """min f(x) over the box ``bounds`` and the rows a_eq x = b_eq by Kelley's
    (1960) cutting planes.  ``oracle(x)`` returns f(x) and the slope g and
    intercept c of a cut, f(y) >= g.y + c, exact at x.  The LP master min t
    s.t. t >= every cut, in units of ``scale`` so its tolerances are
    unitless, gives a lower bound and the next x; the best evaluated value
    is the upper bound, and ``gap``, upper - lower, certifies it.  One
    tableau holds every master: a round appends its rows to the last optimal
    basis (``_Tableau.add_row``), which keeps the master's start dual
    feasible, and raises t's lower bound to the last lower bound, as the
    master's value only rises.  x0 is a candidate only where it meets the
    rows.  ``constraint(x)`` gives h(x) and a subgradient of a convex h,
    whose tangent row joins the master where h(x) > 0 (the oracle then
    reports a value that a feasible point derived from x attains).  The
    rounds stop when the gap closes, when the master returns an x already
    evaluated (its feasibility tolerance hides cuts that differ by less), or
    after ``rounds`` rounds.  A stop with the best x on a face of the box in
    a coordinate of ``widen`` widens the box there fourfold, cuts kept,
    unless the last widening did not lower the value; t is free again then,
    so the next master is built cold on all the rows.
    """
    n = np.size(x0)
    bounds = list(bounds) + [(None, None)]
    a_eq_lp = None if a_eq is None else np.hstack((a_eq, np.zeros((len(a_eq), 1))))
    cuts = []
    upper, lower, widened_at = math.inf, -math.inf, math.inf
    x_best, tab, pivots = None, None, 0
    evaluated = set()
    x = np.asarray(x0, dtype=float)
    candidate = a_eq is None or bool(np.all(np.abs(a_eq @ x - b_eq) <= 1e-12 * (1.0 + np.abs(b_eq))))
    for k in range(1, max(rounds, 1) + 1):
        evaluated.add(x.tobytes())
        value, g, c = oracle(x)
        if candidate and value < upper:
            upper, x_best = value, x
        new = [(np.append(g / scale, -1.0), (0.0 - c) / scale)]
        h, gh = (0.0, None) if constraint is None else constraint(x)
        if h > 0.0:
            new.append((np.append(gh, 0.0), float(gh @ x) - h))
        cuts.extend(new)
        bounds[-1] = (lower / scale, None)
        if tab is None:
            tab = _tableau(LpProblem(np.append(np.zeros(n), 1.0), a_eq_lp, b_eq, np.array([a for a, _ in cuts]), np.array([b for _, b in cuts]), bounds))
        else:
            for a, b in new:
                tab.add_row(a, b)
            tab.lo[n] = bounds[-1][0]
        status = "infeasible" if tab is None else tab.solve()
        if status != "optimal":
            raise RuntimeError(f"cutting-plane master LP {status}")
        pivots += tab.pivots
        z = np.clip(tab.x[: n + 1], tab.lo[: n + 1], tab.hi[: n + 1])
        lower = max(lower, float(z[n]) * scale)
        x, candidate = z[:n], True
        if x_best is None or not (upper - lower <= _GAP_REL * (1.0 + abs(upper)) or x.tobytes() in evaluated):
            continue
        face = [i for i in widen if min(x_best[i] - bounds[i][0], bounds[i][1] - x_best[i]) <= 1e-9 * (bounds[i][1] - bounds[i][0])]
        if not face or upper >= widened_at - _GAP_REL * (1.0 + abs(upper)):
            break
        for i in face:
            lo, hi = bounds[i]
            bounds[i] = (lo - 1.5 * (hi - lo), hi + 1.5 * (hi - lo))
        lower, widened_at, tab = -math.inf, upper, None
    if x_best is None:
        raise RuntimeError("cutting planes stopped before a feasible evaluation")
    return CuttingPlaneResult(x_best, upper, max(upper - lower, 0.0), k, pivots)


# -- bounded dual simplex LP ---------------------------------------------------


@dataclass
class LpProblem:
    """min c.x  s.t.  a_eq x = b_eq,  a_ub x <= b_ub,  bounds lo <= x <= hi.

    Bounds are pairs, or the rows of an (n, 2) array, with None or an
    infinity for unbounded ends; default is free.
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
    # tableau pivots of every run of the dual simplex (its phase 1 included);
    # a bound flip is no pivot
    pivots: int = 0
    # the rows' multipliers y, equality rows first, from B^T y = c_B on the
    # final basis: c - A^T y are the reduced costs, and y_r = d obj / d b_r
    # (<= 0 on a <= row); 0 on a redundant row, which of rows that depend
    # linearly is the one whose unit column stays basic
    duals: Optional[np.ndarray] = None
    # rows whose multiplier an alternate dual optimum moves: the row-wise
    # mirror of ``degenerate_columns`` (a basic column at a bound whose row
    # admits a positive dual step past every nonbasic column of zero reduced
    # cost), which takes in a redundant row
    degenerate_rows: tuple[int, ...] = ()
    # nonbasic columns moved to their other bound by the ratio test's passes
    flips: int = 0


_PIV_TOL = 1e-9
# a basic is out of range once it passes a bound by _FEAS_REL of the
# magnitudes that make up its value
_FEAS_REL = 1e-13
_MAX_PIVOTS = 50_000
# the leaving row is the most infeasible one, and the basic of least index
# once this many steps in a row have raised the objective by no more than
# _STALL_REL of its magnitude
_STALL_RUN = 50
_STALL_REL = 1e-12
# past 4 _PARTIAL candidates the ratio test sorts the _PARTIAL + 1 smallest
# ratios first
_PARTIAL = 16


class _Tableau:
    """Dense row-major tableau of a bounded dual simplex on min c.x s.t.
    [A I] x = b, lo <= x <= hi: m rows of B^-1 [A I], then the reduced costs
    d.  The columns are the problem's, then each row's unit column: a <= row's
    slack on [0, inf), an equality row's on [0, 0].  ``x`` holds every
    column's value: a nonbasic one at a bound (a free one at 0), the basics at
    B^-1 (b - N x_N), which the unit columns' block of the tableau carries.
    ``side`` is +1 on a nonbasic column at its lower bound, -1 at its upper
    one and 0 on a basic, fixed or free one.  The basis stays dual feasible:
    d side >= 0, and d = 0 on a free nonbasic column; a basic outside its
    range leaves.  A <= row appended to an optimal tableau (``add_row``)
    keeps it dual feasible, and so does a finite bound moved to another
    finite value, so ``solve`` goes on from the basis it holds."""

    def __init__(self, a: np.ndarray, b: np.ndarray, c: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        m, n = a.shape
        self.a, self.abs_a, self.b, self.lo, self.hi = a, np.abs(a), b, lo, hi
        self.c = np.concatenate((c, np.zeros(m)))
        self.cmax = float(np.abs(c).max(initial=0.0))
        self.t = np.zeros((m + 1, n + m))
        self.t[:m, :n] = a
        self.t[np.arange(m), n + np.arange(m)] = 1.0
        self.t[m] = self.c
        self.basis = n + np.arange(m)
        self.basic = np.zeros(n + m, dtype=bool)
        self.basic[self.basis] = True

    @property
    def m(self) -> int:
        return self.basis.size

    def add_row(self, a: np.ndarray, b: float) -> None:
        """Append the row a.x <= b, its slack basic: with a_B a's entries on
        the basics, B'^-1 = [[B^-1, 0], [-a_B B^-1, 1]], so the new tableau
        row is [a 0 1] less a_B times the rows of B^-1 [A I], and the reduced
        costs, and with them dual feasibility, do not change."""
        m, n = self.m, self.a.shape[1]
        t = np.zeros((m + 2, n + m + 1))
        t[:m, :-1], t[-1, :-1] = self.t[:m], self.t[m]
        row = np.concatenate((a, np.zeros(m)))
        t[m, :-1] = row - row[self.basis] @ self.t[:m]
        t[m, -1] = 1.0
        self.t = t
        self.a, self.abs_a = np.vstack((self.a, a)), np.vstack((self.abs_a, np.abs(a)))
        self.b, self.c = np.append(self.b, b), np.append(self.c, 0.0)
        self.lo, self.hi = np.append(self.lo, 0.0), np.append(self.hi, math.inf)
        self.basis, self.basic = np.append(self.basis, n + m), np.append(self.basic, True)

    def solve(self) -> str:
        """Phase 2 from the basis held where it is dual feasible (its pivots
        and flips counted from 0, and at most _MAX_PIVOTS); otherwise the
        same engine first solves the auxiliary problem (Fourer 1994;
        Koberstein & Suhl 2007) of b = 0 with free columns on [-1, 1],
        one-sided ones on [0, 1] or [-1, 0] and boxed ones on [0, 0], whose
        optimum is minus the least sum of dual infeasibilities, so 0 where a
        dual feasible basis exists.  Where none does, a run with zero costs,
        dual feasible at any basis, tells an unbounded problem from an
        infeasible one."""
        lo, hi, b = self.lo, self.hi, self.b
        self.pivots = self.flips = 0
        if self.dual_infeasible(lo, hi).any():
            self.phase(np.where(np.isfinite(lo), 0.0, -1.0), np.where(np.isfinite(hi), 0.0, 1.0), np.zeros_like(b))
            if self.dual_infeasible(lo, hi).any():
                self.c[:] = self.t[-1] = self.cmax = 0.0
                return "unbounded" if self.phase(lo, hi, b) == "optimal" else "infeasible"
        return self.phase(lo, hi, b)

    def dual_infeasible(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        d, tol = self.t[-1], _PIV_TOL * self.cmax
        return ~self.basic & ((d < -tol) & (hi == math.inf) | (d > tol) & (lo == -math.inf))

    def phase(self, lo: np.ndarray, hi: np.ndarray, b: np.ndarray) -> str:
        """Dual simplex on the bounds lo, hi and right side b, from each
        nonbasic column at the bound its reduced cost favours, until the
        basics lie in their ranges ("optimal") or a row cannot be brought
        into its range ("infeasible").  The basics are recomputed from B^-1
        (``refine``) at the start and at the end, and the steps go on while
        that leaves a basic out of range."""
        self.lo, self.hi, self.b, self.abs_b, self.width = lo, hi, b, np.abs(b), hi - lo
        has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
        up = has_hi & (~has_lo | (self.t[-1] < 0.0))
        self.x = np.where(up, hi, np.where(has_lo, lo, 0.0))
        self.side = np.where(up, -1.0, np.where(has_lo, 1.0, 0.0))
        self.side[self.basic | (lo == hi)] = 0.0
        self.free = (~has_lo & ~has_hi & ~self.basic).nonzero()[0]
        self.lo_b, self.hi_b = lo[self.basis], hi[self.basis]
        self.refine()
        for _ in range(3):
            if self.iterate() == "infeasible":
                return "infeasible"
            self.refine()
            if self.leaving(False) is None:
                return "optimal"
        raise RuntimeError("dual simplex basics drift out of range")

    def residual(self) -> np.ndarray:
        """b - N x_N, the right side of the basics' system."""
        n = self.a.shape[1]
        rest = np.where(self.basic, 0.0, self.x)
        return self.b - self.a @ rest[:n] - rest[n:]

    def refine(self) -> None:
        """The basics recomputed from B^-1 (the unit columns' block of the
        tableau), x_B = B^-1 (b - N x_N), then refined once by
        x_B += B^-1 (b - [A I] x)."""
        n, inv = self.a.shape[1], self.t[: self.m, self.a.shape[1] :]
        self.x[self.basis] = inv @ self.residual()
        self.x[self.basis] += inv @ (self.b - self.a @ self.x[:n] - self.x[n:])

    def duals(self) -> np.ndarray:
        """The multipliers y, from the reduced costs of the rows' unit
        columns, refined once by B^T y = c_B, with the reduced costs
        c - [A I]^T y they give."""
        n = self.a.shape[1]
        y = -self.t[-1, n:]
        d = self.c - np.concatenate((self.a.T @ y, y))
        y = y + self.t[: self.m, n:].T @ d[self.basis]
        self.t[-1] = self.c - np.concatenate((self.a.T @ y, y))
        return y

    def magnitude(self) -> np.ndarray:
        """|b| + |[A I]| |x|, per row: the size of the terms whose sum is
        the row's residual."""
        n, size = self.a.shape[1], np.abs(self.x)
        return self.abs_b + self.abs_a @ size[:n] + size[n:]

    def rounding(self, rows, mag: np.ndarray):
        """The rounding that the basics of ``rows`` carry from B^-1 (b - N
        x_N): _FEAS_REL of |B^-1| ``mag``."""
        return _FEAS_REL * (np.abs(self.t[rows, self.a.shape[1] :]) @ mag)

    def leaving(self, bland: bool) -> Optional[tuple[int, bool, float]]:
        """The leaving row, whether its basic lies below its lower bound
        (else above its upper one) and by how much beyond the tolerance,
        _FEAS_REL of the magnitude |B^-1| (|b| + |[A I]| |x|) of its value:
        the farthest, or in Bland's rule the basic of least index, among
        those beyond it; None when every basic is in range."""
        beta = self.x[self.basis]
        excess = np.maximum(self.lo_b - beta, beta - self.hi_b)
        r = int(excess.argmax()) if excess.size else 0
        if not excess.size or excess[r] <= 0.0:
            return None
        mag = self.magnitude()
        tol = self.rounding(r, mag)
        if bland or excess[r] <= tol:
            rows = (excess > 0.0).nonzero()[0]
            tols = self.rounding(rows, mag)
            out = excess[rows] > tols
            if not out.any():
                return None
            rows, tols = rows[out], tols[out]
            k = int(self.basis[rows].argmin() if bland else excess[rows].argmax())
            r, tol = int(rows[k]), tols[k]
        return r, bool(beta[r] < self.lo_b[r]), float(excess[r] - tol)

    def iterate(self) -> str:
        """Dual simplex steps with the bound-flipping ratio test (Maros
        2003).  The leaving basic leaves at the bound it violates.  A free
        nonbasic column with an entry in its row enters at once, the largest
        entry first; otherwise the candidates, nonbasic columns whose reduced
        cost the dual step drives toward the wrong sign, are taken in order
        of the step |d_j / alpha_rj| at which they reach 0, and each boxed
        one is passed, flipped to its other bound, while the leaving row's
        infeasibility, less |alpha_rj| times the passed ranges, stays
        positive; the candidate where it turns enters, ties to the largest
        |alpha_rj|.  Through a run of stalled steps the leaving basic is the
        one of least index and the first candidate, by least index among
        ties, enters (Bland's rule)."""
        t, x, side = self.t, self.x, self.side
        stalled, objective = 0, float(self.c @ x)
        while True:
            bland = stalled >= _STALL_RUN
            leave = self.leaving(bland)
            if leave is None:
                return "optimal"
            r, below, need = leave
            alpha = t[r]
            q = -1
            if self.free.size:
                entries = np.abs(alpha[self.free])
                if entries.max() > _PIV_TOL:
                    q = int(self.free[entries.argmax()])
            if q < 0:
                # a candidate's move in its own direction (side) takes the leaving basic toward its bound
                push = alpha * side
                cand = (push < -_PIV_TOL if below else push > _PIV_TOL).nonzero()[0]
                if cand.size == 0:
                    return "infeasible"
                size = np.abs(push[cand])
                ratio = np.maximum(t[-1, cand] * side[cand], 0.0) / size
                q = self.ratio_test(cand, size, ratio, need, bland)
                if q < 0:
                    return "infeasible"
            self.pivot(r, q, self.lo_b[r] if below else self.hi_b[r])
            before, objective = objective, float(self.c @ x)
            stalled = stalled + 1 if objective - before <= _STALL_REL * (1.0 + abs(before)) else 0

    def ratio_test(self, cand: np.ndarray, size: np.ndarray, ratio: np.ndarray, need: float, bland: bool) -> int:
        """The entering column, after flipping the boxed candidates passed
        before it; -1 when every candidate is passed with the infeasibility
        ``need`` still positive.  Past 4 _PARTIAL candidates only the
        _PARTIAL + 1 smallest ratios are sorted, and all of them only when
        the turn lies beyond those."""
        if bland:
            return int(cand[(ratio <= ratio.min() * (1.0 + 1e-12)).nonzero()[0][0]])
        partial = cand.size > 4 * _PARTIAL
        if partial:
            order = ratio.argpartition(_PARTIAL)[: _PARTIAL + 1]
            order = order[ratio[order].argsort(kind="stable")]
        else:
            order = ratio.argsort(kind="stable")
        k = int((size[order] * self.width[cand[order]]).cumsum().searchsorted(need))
        if k == order.size and partial:
            order = ratio.argsort(kind="stable")
            k = int((size[order] * self.width[cand[order]]).cumsum().searchsorted(need))
        if k == order.size:
            return -1
        if k:
            self.flip(cand[order[:k]])
        sorted_ratio = ratio[order]
        tie = sorted_ratio[k] * (1.0 + 1e-12)
        if k + 1 == order.size or sorted_ratio[k + 1] > tie:
            return int(cand[order[k]])
        ties = order[k : k + int(sorted_ratio[k:].searchsorted(tie, side="right"))]
        return int(cand[ties[size[ties].argmax()]])

    def flip(self, cols: np.ndarray) -> None:
        """Move nonbasic boxed columns to their other bounds, in one update
        of the basics."""
        x, sides = self.x, self.side[cols]
        to = np.where(sides > 0.0, self.hi[cols], self.lo[cols])
        x[self.basis] -= self.t[: self.m, cols] @ (to - x[cols])
        x[cols] = to
        self.side[cols] = -sides
        self.flips += cols.size

    def pivot(self, r: int, q: int, target: float) -> None:
        """Column q enters in row r, whose basic leaves at ``target``."""
        t, x, basis = self.t, self.x, self.basis
        col = t[:, q].copy()
        step = (x[basis[r]] - target) / col[r]
        x[basis] -= step * col[:-1]
        x[q] += step
        out = basis[r]
        x[out] = target
        self.side[out] = 0.0 if self.lo[out] == self.hi[out] else (1.0 if target == self.lo[out] else -1.0)
        self.side[q] = 0.0
        if self.free.size and q in self.free:
            self.free = self.free[self.free != q]
        row = t[r] / col[r]
        col[r] = 0.0
        t -= col[:, None] * row
        t[r] = row
        t[:, q] = 0.0
        t[r, q] = 1.0
        self.basic[out], self.basic[q] = False, True
        basis[r] = q
        self.lo_b[r], self.hi_b[r] = self.lo[q], self.hi[q]
        self.pivots += 1
        if self.pivots > _MAX_PIVOTS:
            raise RuntimeError("simplex iteration cap exceeded")

    def alternates(self) -> tuple[np.ndarray, np.ndarray]:
        """The optimum's alternates, from the nonbasic columns of zero
        reduced cost (to _PIV_TOL of the largest cost) that are not fixed:
        those whose move into their range, from the upper bound downward,
        keeps every basic at a bound in its range, each with the basics it
        moves; and the rows whose basic sits at a bound and can leave there
        by a positive dual step, its reduced cost turning positive (at the
        lower bound) or negative (at the upper one) while every such column
        keeps its sign, a free one staying at 0.  A basic is at a bound
        within _PIV_TOL of its range, or of 1 where that is wider, or within
        the rounding of its value where that is more, so that a column of a
        tiny box can sit strictly inside it and still read at a bound it
        meets; a fixed basic is at both."""
        m, t, lo, hi = self.m, self.t, self.lo, self.hi
        width = hi - lo
        cand = (~self.basic & (width > 0.0) & (np.abs(t[-1]) <= _PIV_TOL * (self.cmax or 1.0))).nonzero()[0]
        beta, span = self.x[self.basis], width[self.basis]
        near = np.maximum(_PIV_TOL * np.minimum(span, 1.0), self.rounding(slice(0, m), self.magnitude()))
        at_lo = (beta - self.lo_b <= near) | (span == 0.0)
        at_hi = (self.hi_b - beta <= near) | (span == 0.0)
        if cand.size == 0:
            return cand, (at_lo | at_hi).nonzero()[0]
        free = np.isinf(width[cand]) & (self.side[cand] == 0.0)
        # a column's step in its own direction moves row i's basic by -sub[i]
        sub = t[:m, cand] * np.where(self.side[cand] < 0.0, -1.0, 1.0)
        pos, neg = sub > _PIV_TOL, sub < -_PIV_TOL
        up_blocked = (at_lo[:, None] & pos | at_hi[:, None] & neg).any(axis=0)
        down_blocked = (at_lo[:, None] & neg | at_hi[:, None] & pos).any(axis=0)
        alt = cand[~up_blocked | free & ~down_blocked]
        moved = self.basis[(np.abs(t[:m, alt]) > _PIV_TOL).any(axis=1)]
        # a dual step on row r adds t[r, j] times it to column j's reduced
        # cost at its lower bound, and subtracts it at its upper one
        lo_blocked = (neg | free & pos).any(axis=1)
        hi_blocked = (pos | free & neg).any(axis=1)
        return np.concatenate((alt, moved)), (at_lo & ~lo_blocked | at_hi & ~hi_blocked).nonzero()[0]


def solve_lp(p: LpProblem) -> LpSolution:
    """Bounded dual simplex on a dense tableau; statuses are faithful.

    The start basis holds every row's unit column, a <= row's slack or an
    equality row's unit column fixed at 0, with no artificials and no row
    negated; each boxed column starts at the bound its cost favours, and a
    free or one-sided column whose cost favours its open side sends the
    problem through the dual phase 1 of ``_Tableau.solve``.  The basics and
    the multipliers are recomputed on the final basis from B^-1, each refined
    once by its residual.
    """
    tab = _tableau(p)
    if tab is None:
        return LpSolution("infeasible", None, None)
    status = tab.solve()
    if status != "optimal":
        return LpSolution(status, None, None, pivots=tab.pivots, flips=tab.flips)
    n = tab.a.shape[1]
    x = np.clip(tab.x[:n], tab.lo[:n], tab.hi[:n])
    duals = tab.duals()
    alt, steps = tab.alternates()
    columns = tuple(sorted({int(j) for j in alt if j < n}))
    # the dual step on row r moves y along B^-T e_r, row r of B^-1
    moved = (np.abs(tab.t[steps, n:]) > _PIV_TOL).any(axis=0)
    return LpSolution("optimal", x, float(tab.c[:n] @ x), columns, tab.pivots, duals, tuple(moved.nonzero()[0].tolist()), tab.flips)


def _tableau(p: LpProblem) -> Optional[_Tableau]:
    """The slack-basis tableau of p in standard form: [A_eq; A_ub] with each
    row's unit column, fixed at 0 on an equality row and on [0, inf) on a
    <= row; None where a lower bound passes its upper one."""
    c = np.asarray(p.c, dtype=float)
    n = c.size
    a_eq = np.asarray(p.a_eq, dtype=float).reshape(-1, n) if p.a_eq is not None else np.zeros((0, n))
    b_eq = np.asarray(p.b_eq, dtype=float).ravel() if p.b_eq is not None else np.zeros(0)
    a_ub = np.asarray(p.a_ub, dtype=float).reshape(-1, n) if p.a_ub is not None else np.zeros((0, n))
    b_ub = np.asarray(p.b_ub, dtype=float).ravel() if p.b_ub is not None else np.zeros(0)
    # a None end reads as nan, which is no bound
    bounds = np.array(p.bounds if p.bounds is not None else np.full((n, 2), np.nan), dtype=float).reshape(-1, 2)
    if len(bounds) != n:
        raise ValueError("bounds length mismatch")
    lo = np.where(np.isnan(bounds[:, 0]), -math.inf, bounds[:, 0])
    hi = np.where(np.isnan(bounds[:, 1]), math.inf, bounds[:, 1])
    if (lo > hi).any():
        return None
    unit_hi = np.concatenate((np.zeros(b_eq.size), np.full(b_ub.size, math.inf)))
    return _Tableau(np.vstack((a_eq, a_ub)), np.concatenate((b_eq, b_ub)), c, np.concatenate((lo, np.zeros_like(unit_hi))), np.concatenate((hi, unit_hi)))
