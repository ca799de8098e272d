"""One-pass array scans against the per-point paths they replace.

The per-breakpoint ``argmin_interval_pwl`` route, the loss pieces', moment-max
terms' and qsa's segment slopes in exact arithmetic, qsa's row-sort scan, the per-segment cvar2 loops, the
per-atom expectile loop, the golden-section search with ``flat_interval`` and
difference quotients of the scalar functionals are kept here as oracles.
"""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from riskquad.constructions import (
    RegretFn,
    _shift_scan,
    mean_center_error,
    mean_center_regret,
    project_error,
    regret_to_risk,
    scale_quadrangle,
)
from riskquad.core import DiscreteRv, StatInterval, cdf_tol, cvar_direct
from riskquad.measures import (
    CatalogSpec,
    cvar2_regret,
    cvar2_risk,
    expectile_value,
    make_catalog_quadrangle,
)
from riskquad.solvers import argmin_interval_pwl, flat_interval, minimize_scalar_convex, pwl_argmin_interval, pwl_grid

from helpers import cvar_norm_shift_values, random_rvs

# -- oracles ---------------------------------------------------------------------------


def _shift_breakpoints(f, x):
    return _shift_scan(f, x, 0.0)[0]


def per_point_argmin(f, x, tilt):
    """min_C tilt * C + f(X - C) and its interval, evaluating f at each breakpoint;
    the minimum is the least value at the candidates inside the interval."""

    def g(c):
        return tilt * c + f.fn(x.shift(-c))

    pts = _shift_breakpoints(f, x)
    interval = argmin_interval_pwl(g, pts)
    return least_inside(f, x, tilt, pts, interval), interval


def least_inside(f, x, tilt, pts, interval):
    """The least tilt * C + f(X - C) over the candidates pts in the interval."""
    return min(tilt * c + f.fn(x.shift(-c)) for c in pts if interval.lo <= c <= interval.hi)


def exact_cvar_norm_interval(x, alpha):
    """The argmin interval of C -> (1 - alpha) CVaR_alpha(|X - C|) over its
    float candidates, the atoms and their pairwise midpoints, in exact
    arithmetic.  Each segment's slope is the mass of the top 1 - alpha of
    |X - C| taken below C minus that taken above, summed in Fractions at the
    segment's midpoint; a slope within the route's mass tolerance counts as 0."""
    v, p = [Fraction(a) for a in x.values], [Fraction(b) for b in x.probs]
    pts = [Fraction(c) for c in np.unique(0.5 * (x.values[:, None] + x.values[None, :]))]
    tol = Fraction(cdf_tol(x.n_atoms))

    def slope(c):
        left, gap = 1 - Fraction(alpha), Fraction(0)
        for i in sorted(range(len(v)), key=lambda i: -abs(v[i] - c)):
            take = min(p[i], left)
            left -= take
            gap += take if v[i] < c else -take
        return 0 if abs(gap) <= tol else gap

    segs = [slope(c) for c in [pts[0] - 1] + [(a + b) / 2 for a, b in zip(pts, pts[1:])] + [pts[-1] + 1]]
    lo = next(k for k, sk in enumerate(segs) if sk >= 0)
    hi = next(k for k, sk in enumerate(segs) if sk > 0)
    return StatInterval(float(pts[max(lo - 1, 0)]), float(pts[min(hi - 1, len(pts) - 1)]))


def exact_piecewise_interval(f, x, tilt):
    """The argmin interval of C -> tilt * C + f(X - C) in exact arithmetic,
    from f's loss pieces or moment-max terms, its ends rounded to floats.

    The candidates hold every kink: each atom less each crossing of two
    pieces of the loss, or the atoms and each crossing of two terms between
    neighbouring atoms, in Fractions.  Each segment between candidates takes
    the slope at its midpoint, and each outer segment a candidate spread
    beyond its end.  A loss e(z) = max_k (s_k z + b_k) gives the slope
    tilt - E[e'(X - C)], e' the least slope among the pieces at their max; a
    term (a, b, c) of a moment-max form gives tilt - a - b P(X > C), and the
    form the greatest such slope among the terms at their max.  A slope
    within the route's mass tolerance of its coefficients, |s_1 - tilt| +
    s_K - s_1 for a loss and |a - tilt| + b for a term, counts as 0."""
    v, p = [Fraction(a) for a in x.values], [Fraction(b) for b in x.probs]
    tol, t = Fraction(cdf_tol(x.n_atoms)), Fraction(tilt)
    if f.loss is not None:
        pieces = [(Fraction(sk), Fraction(bk)) for sk, bk in f.loss.pieces]
        lo_s, hi_s = min(sk for sk, _ in pieces), max(sk for sk, _ in pieces)
        zero = tol * (abs(lo_s - t) + hi_s - lo_s)

        def least_active(z):
            top = max(sk * z + bk for sk, bk in pieces)
            return min(sk for sk, bk in pieces if sk * z + bk == top)

        def slope(c):
            s = t - sum(pi * least_active(vi - c) for vi, pi in zip(v, p))
            return 0 if abs(s) <= zero else s

        kinks = {(b1 - b2) / (s2 - s1) for (s1, b1), (s2, b2) in itertools.combinations(pieces, 2) if s1 != s2}
        cand = {vi - kappa for vi in v for kappa in kinks} or set(v)
    else:
        terms = [tuple(Fraction(w) for w in term) for term in f.moment_max.terms]
        mean = sum(pi * vi for vi, pi in zip(v, p))

        def slope(c):
            above = [(vi, pi) for vi, pi in zip(v, p) if vi > c]
            mass, moment = sum(pi for _, pi in above), sum(pi * vi for vi, pi in above)
            best = None
            for a, b, k in terms:
                value = a * (mean - c) + b * (moment - c * mass) + k
                s = t - a - b * mass
                s = 0 if abs(s) <= tol * (abs(a - t) + b) else s
                if best is None or value > best[0] or value == best[0] and s > best[1]:
                    best = (value, s)
            return best[1]

        cand = set(v)
        for i in range(len(v) + 1):
            # between v[i - 1] and v[i] the atoms above C are v[i:], so each term is affine in C
            mass, moment = sum(p[i:]), sum(pi * vi for vi, pi in zip(v[i:], p[i:]))
            for (a1, b1, k1), (a2, b2, k2) in itertools.combinations(terms, 2):
                den = (a1 - a2) + (b1 - b2) * mass
                if den != 0:
                    c = ((a1 - a2) * mean + (b1 - b2) * moment + (k1 - k2)) / den
                    if (i == 0 or v[i - 1] <= c) and (i == len(v) or c <= v[i]):
                        cand.add(c)
    cand = sorted(cand)
    width = cand[-1] - cand[0] or max(1, abs(cand[0]))
    segs = [slope(m) for m in [cand[0] - width] + [(a + b) / 2 for a, b in zip(cand, cand[1:])] + [cand[-1] + width]]
    lo = next(k for k, sk in enumerate(segs) if sk >= 0)
    hi = next(k for k, sk in enumerate(segs) if sk > 0)
    return StatInterval(float(cand[max(lo - 1, 0)]), float(cand[min(hi - 1, len(cand) - 1)]))


def row_sort_argmin(f, x, tilt, alpha):
    """``per_point_argmin`` of a qsa error (tilt 0) or regret (tilt 1) with its
    values from the row-sort scan of |X - C| over the merged candidates."""
    pts = pwl_grid(_shift_breakpoints(f, x))
    vals = cvar_norm_shift_values(x, alpha)(pts) + tilt * (x.mean() - pts) + tilt * pts
    interval = pwl_argmin_interval(pts, vals)
    return least_inside(f, x, tilt, pts, interval), interval


def loop_tail_segments(x):
    v, p = x.values, x.probs
    cum = np.cumsum(p)
    tail_sum = np.concatenate((np.cumsum((p * v)[::-1])[::-1], [0.0]))
    segs = []
    lo = 0.0
    for i in range(v.size):
        last = i == v.size - 1
        hi = 1.0 if last else float(cum[i])
        a_i = float(v[i]) if last else float(v[i] * cum[i] + tail_sum[i + 1])
        segs.append((lo, hi, float(v[i]), a_i))
        lo = hi
    return segs


def loop_integral_cvar(segs, a, b):
    total = 0.0
    for lo, hi, vi, ai in segs:
        s, t = max(a, lo), min(b, hi)
        if t <= s:
            continue
        coef = ai - vi
        if coef != 0.0:
            total += coef * (math.log(1.0 - s) - math.log(1.0 - t))
        total += vi * (t - s)
    return total


def loop_cvar2_regret(x, alpha):
    segs = loop_tail_segments(x)
    if x.mean() >= 0.0:
        start = 0.0
    elif segs[-1][2] <= 0.0:
        return 0.0
    else:
        start = None
        for lo, hi, vi, ai in segs:
            b_end = min(hi, 1.0 - 1e-15)
            f_lo = (ai - vi * lo) / (1.0 - lo)
            f_hi = (ai - vi * b_end) / (1.0 - b_end)
            if f_lo < 0.0 <= f_hi:
                start = min(max(ai / vi, lo), hi) if vi != 0.0 else lo
                break
        if start is None:
            start = 0.0
    return loop_integral_cvar(segs, start, 1.0) / (1.0 - alpha)


def loop_expectile(x, q):
    v = x.values
    if x.is_constant():
        return float(v[0])

    def h(c):
        d = v - c
        return float(np.dot(x.probs, q * np.maximum(d, 0.0) - (1.0 - q) * np.maximum(-d, 0.0)))

    hs = [h(c) for c in v]
    idx = 0
    for i in range(len(v) - 1):
        if hs[i] >= 0.0 >= hs[i + 1]:
            idx = i
            break
    a, b = float(v[idx]), float(v[idx + 1])
    ha, hb = hs[idx], hs[idx + 1]
    if ha == hb:
        return 0.5 * (a + b)
    return a - ha * (b - a) / (hb - ha)


# -- inputs: scales 1e-9..1e9, offsets up to 1e6 spreads, tiny masses, single atoms ----------

SCALES = [1e-9, 1e-3, 1.0, 1e3, 1e9]


@st.composite
def shifted_rvs(draw, max_atoms=14):
    n = draw(st.integers(1, max_atoms))
    z = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    if draw(st.booleans()):
        z = np.round(z * 8.0) / 8.0
    raw = np.array(draw(st.lists(st.sampled_from([1e-13, 1e-6, 0.3, 1.0, 2.5]), min_size=n, max_size=n)))
    scale = draw(st.sampled_from(SCALES))
    offset = scale * draw(st.sampled_from([0.0, 1.0, -3.5, 1e3, -1e6, 1e6]))
    return DiscreteRv(offset + scale * z, raw / raw.sum()), scale


def pwl_families(scale):
    """Every piecewise-linear catalog family, offsets in its parameters at the r.v.'s scale."""
    return [
        ("quantile", {"alpha": 0.3}),
        ("quantile", {"alpha": 0.85}),
        ("qsau", {"eps": 0.0}),
        ("qsau", {"eps": 0.25 * scale}),
        ("qsa", {"alpha": 0.5}),
        ("expectile_pl", {"K": 0.5}),
        ("mean_pl", {}),
        ("biased_mean", {"x": 0.5 * scale}),
        ("biased_mean", {"x": -0.3 * scale}),
    ]


def forms(q):
    """(name, functional, tilt): tilt 0 is an error's projection, 1 a regret's risk."""
    affine = scale_quadrangle(q, 0.4)
    return [
        ("error", q.error_fn, 0.0),
        ("regret", q.regret_fn, 1.0),
        ("affine error", affine.error_fn, 0.0),
        ("affine regret", affine.regret_fn, 1.0),
        ("centred regret", mean_center_regret(q.regret_fn), 0.0),
        ("centred error", mean_center_error(q.error_fn), 1.0),
    ]


@given(shifted_rvs())
# mean_pl's affine error has its argmin at the point 1.25e-11; a value floor reads [0, 1.25e-11]
@example((DiscreteRv([0.0, 6.25e-11], [0.8, 0.2]), 1e-9))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_array_scans_match_the_per_point_oracle(case):
    # every family takes an exact oracle: the per-point scan merges near
    # candidates and reads slopes through a noise floor, wrong at scale 1e-9
    x, scale = case
    for family, params in pwl_families(scale):
        q = make_catalog_quadrangle(CatalogSpec(family, params))
        for name, f, tilt in forms(q):
            value, interval = (project_error if tilt == 0.0 else regret_to_risk)(f, x)
            if family == "qsa":
                assert interval == exact_cvar_norm_interval(x, params["alpha"]), (family, params, name)
            else:
                # the route's candidates are floats, each kink rounded once or twice
                exact, near = exact_piecewise_interval(f, x, tilt), 4 * np.spacing(float(np.max(np.abs(x.values))))
                for got, want in ((interval.lo, exact.lo), (interval.hi, exact.hi)):
                    assert abs(got - want) <= max(near, 4 * np.spacing(abs(want))), (family, params, name, got, want)
            assert value == least_inside(f, x, tilt, _shift_breakpoints(f, x), interval), (family, params, name)
    # a functional with shift breakpoints but no slopes is scanned by its values
    f = RegretFn(fn=lambda y: 2.0 * y.mean_pos(), shift_breakpoints=lambda y: y.values)
    assert regret_to_risk(f, x) == per_point_argmin(f, x, 1.0)


def test_large_scans_match_the_per_point_oracle():
    rng = np.random.default_rng(7)
    for scale in (1e-3, 1.0, 1e3):
        for n in (60, 300):
            vals = scale * (rng.uniform(-3.0, 3.0) + np.round(rng.standard_normal(n) * 64) / 64)
            x = DiscreteRv(vals, rng.dirichlet(np.ones(n)))
            for family, params in pwl_families(scale):
                q = make_catalog_quadrangle(CatalogSpec(family, params))
                for name, f, tilt in forms(q)[:2]:
                    value, interval = (project_error if tilt == 0.0 else regret_to_risk)(f, x)
                    if family == "qsa":
                        want = row_sort_argmin(f, x, tilt, params["alpha"])
                    else:
                        want = per_point_argmin(f, x, tilt)
                    assert (value, interval) == want, (family, params, name, n)


def test_qsa_projections_at_1000_atoms_are_the_quantile_statistic():
    # the quadrangle theorem: the argmin of the CVaR norm of X - C is half the
    # sum of the (1 - alpha)/2 and (1 + alpha)/2 quantile intervals
    rng = np.random.default_rng(7)
    q = make_catalog_quadrangle(CatalogSpec("qsa", {"alpha": 0.5}))
    for scale in (1e-9, 1e-3, 1.0, 1e3, 1e9):
        for grid in (False, True):
            z = rng.standard_normal(1000)
            vals = scale * (rng.uniform(-3.0, 3.0) + (np.round(z * 64) / 64 if grid else z))
            x = DiscreteRv(vals, rng.dirichlet(np.ones(1000)) if grid else None)
            m = float(np.max(np.abs(x.values)))
            for f, tilt, closed in ((q.error_fn, 0.0, q.deviation(x)), (q.regret_fn, 1.0, q.risk(x))):
                value, interval = (project_error if tilt == 0.0 else regret_to_risk)(f, x)
                assert interval == q.statistic(x), (scale, grid, tilt)
                assert abs(value - closed) <= 1e-12 * m, (scale, grid, tilt)


# -- piecewise-linear projections across scales ---------------------------------------------

SCALED_FAMILIES = [
    ("quantile", {"alpha": 0.3}),
    ("quantile", {"alpha": 0.5}),
    ("quantile", {"alpha": 0.85}),
    ("qsau", {"eps": 0.0}),
    ("qsau", {"eps": 0.25}),
    ("expectile_pl", {"K": 0.5}),
    ("mean_pl", {}),
    ("biased_mean", {"x": 0.5}),
    ("biased_mean", {"x": -0.5}),
]


@pytest.mark.parametrize("scale", [1e-14, 1e-12, 1e-9, 1.0, 1e9])
@pytest.mark.parametrize("family, params", SCALED_FAMILIES, ids=[f + "".join(f"{v:g}" for v in p.values()) for f, p in SCALED_FAMILIES])
def test_piecewise_linear_projections_scale_with_x(family, params, scale):
    # X = s {1, ..., 8, 9.5}; a value floor of 1e-12 (1 + max|vals|) had quantile(0.5) at [1s, 8s] for s = 1e-12
    def routes(s):
        # offsets in the parameters scale with X
        q = make_catalog_quadrangle(CatalogSpec(family, {k: s * v if k in ("eps", "x") else v for k, v in params.items()}))
        x = DiscreteRv.uniform(s * np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.5]))
        return q, x, [project_error(q.error_fn, x), regret_to_risk(q.regret_fn, x)]

    _, _, at_unit = routes(1.0)
    q, x, got = routes(scale)
    top = 9.5 * scale
    for (value, interval), (unit_value, unit_interval) in zip(got, at_unit):
        assert abs(value / scale - unit_value) <= 1e-12 * abs(unit_value)
        # qsau's statistic is its projection's argmin: it has no closed form to compare with
        want = unit_interval.scale(scale) if family == "qsau" else q.statistic(x)
        assert abs(interval.lo - want.lo) <= 1e-12 * top and abs(interval.hi - want.hi) <= 1e-12 * top, (interval, want)


def test_transformed_losses_keep_their_kinks_exact():
    # the breakpoints of a scaled loss are the atoms less the base loss's kinks, exactly:
    # kinks recomputed from the scaled pieces had put lo at -249999990.00000006
    q = scale_quadrangle(make_catalog_quadrangle(CatalogSpec("qsau", {"eps": 2.5e8})), 0.4)
    x = DiscreteRv([0.0, 10.0], [1.0 - 3.3e-13, 3.3e-13])
    assert regret_to_risk(q.regret_fn, x)[1].lo == 10.0 - 2.5e8


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_subnormal_spread_projections():
    # X = {0, 5e-324}: the median interval is all of [0, 5e-324]
    x = DiscreteRv([0.0, 5e-324], [0.5, 0.5])
    q = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.5}))
    assert project_error(q.error_fn, x)[1] == StatInterval(0.0, 5e-324)
    assert regret_to_risk(q.regret_fn, x)[1] == StatInterval(0.0, 5e-324)
    # a regret with breakpoints but no slopes is scanned by its values, whose
    # noise floor, divided by the subnormal gaps, had overflowed
    f = RegretFn(fn=lambda y: 2.0 * y.mean_pos(), shift_breakpoints=lambda y: y.values)
    value, interval = regret_to_risk(f, x)
    assert abs(value - cvar_direct(x, 0.5)) <= 5e-324
    assert interval.lo <= 0.0 and interval.hi >= 5e-324


# -- cvar2 and expectiles --------------------------------------------------------------------


def test_vectorised_cvar2_matches_the_segment_loops():
    rng = np.random.default_rng(11)
    rvs = random_rvs(rng, 30, max_atoms=12) + random_rvs(rng, 10, max_atoms=400, span=1e3, offset=-50.0)
    rvs += [DiscreteRv.constant(-2.0), DiscreteRv.constant(0.0), DiscreteRv([-5.0, 1e-3], [0.999, 0.001])]
    for x in rvs:
        for alpha in (0.1, 0.5, 0.9):
            tol = 1e-13 * x.n_atoms * max(1.0, float(np.max(np.abs(x.values))))
            assert cvar2_risk(x, alpha) == pytest.approx(
                loop_integral_cvar(loop_tail_segments(x), alpha, 1.0) / (1.0 - alpha), rel=0.0, abs=tol
            )
            assert cvar2_regret(x, alpha) == pytest.approx(loop_cvar2_regret(x, alpha), rel=0.0, abs=tol)
            assert cvar2_regret(x.shift(-x.mean()), alpha) == pytest.approx(
                loop_cvar2_regret(x.shift(-x.mean()), alpha), rel=0.0, abs=tol
            )


@given(shifted_rvs(max_atoms=40), st.sampled_from([0.05, 0.5, 0.75, 0.97]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_prefix_sum_expectile_matches_the_atom_loop(case, q):
    x, _ = case
    spread = float(x.values[-1] - x.values[0])
    assert expectile_value(x, q) == pytest.approx(loop_expectile(x, q), rel=0.0, abs=1e-12 * max(spread, 1e-300))


# -- batched shift searches ------------------------------------------------------------------


def golden_oracle(f, x, tilt):
    """min_C tilt * C + f(X - C) by golden section on the scalar functional, and
    its flat set by ``flat_interval`` on the objective minus tilt * E[X].  Both
    search the shift t = C - ref from a middle atom, so their tolerances scale
    with the spread of X, not with its offset."""
    ref = float(x.values[x.n_atoms // 2])
    offset = tilt * x.mean()

    def h(t):
        c = ref + t
        return tilt * c + f.fn(x.shift(-c)) - offset

    tstar, hstar = minimize_scalar_convex(h, tol=1e-10, hint=x.mean() - ref)
    flat = flat_interval(h, tstar, hstar)
    return hstar + offset, StatInterval(ref + flat.lo, ref + flat.hi)


@st.composite
def wide_rvs(draw):
    """1 to 1000 atoms at scales 1e-9..1e9, offsets up to 1e6 scales, masses down to 1e-12."""
    n = draw(st.sampled_from([1, 1, 2, 3, 5, 8, 13, 40, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.uniform(-1.0, 1.0, n)
    if draw(st.booleans()):
        z = np.round(z * 8.0) / 8.0
    raw = rng.choice([1e-12, 1e-6, 0.3, 1.0, 2.5], n)
    scale = draw(st.sampled_from(SCALES))
    offset = scale * draw(st.sampled_from([0.0, 1.0, -3.5, 1e3, -1e6, 1e6]))
    return DiscreteRv(offset + scale * z, raw / raw.sum())


SMOOTH = [
    ("cvar2", {"alpha": 0.5}),
    ("cvar2", {"alpha": 0.9}),
    ("standard_mean", {"lam": 1.0}),
    ("standard_mean", {"lam": 2.5}),
    ("expectile_mse", {"q": 0.75}),
]


@given(wide_rvs())
@settings(max_examples=50, deadline=None, derandomize=True)
def test_batched_shift_search_matches_the_golden_oracle(x):
    m = max(1.0, float(np.max(np.abs(x.values))))
    for family, params in SMOOTH:
        q = make_catalog_quadrangle(CatalogSpec(family, params))
        stat = q.statistic(x)
        for name, f, tilt in forms(q):
            value, interval = (project_error if tilt == 0.0 else regret_to_risk)(f, x)
            want_value, want_interval = golden_oracle(f, x, tilt)
            where = (family, params, name, x.n_atoms)
            # expectile_mse is quadratic in X: its values scale with m^2, not m
            size = max(m, abs(want_value)) if family == "expectile_mse" else m
            assert abs(value - want_value) <= 1e-9 * size, where
            # the slope crossing pins the statistic inside the flat set, at the family's point statistic
            assert want_interval.lo - 1e-7 * m <= interval.lo <= interval.hi <= want_interval.hi + 1e-7 * m, where
            assert abs(interval.lo - stat.lo) <= 1e-12 * m and abs(interval.hi - stat.hi) <= 1e-12 * m, where


def kernel_probes(x):
    """Every atom, the mean, ess sup and points beyond both ends."""
    spread = float(x.values[-1] - x.values[0]) or max(1.0, abs(float(x.values[0])))
    return np.concatenate(
        (x.values, [x.mean(), x.values[-1], x.values[-1] + spread, x.values[-1] + 1e3 * spread, x.values[0] - spread])
    )


@given(wide_rvs(), st.sampled_from([0.05, 0.5, 0.9]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_shift_kernels_match_the_scalar_functionals(x, alpha):
    # C -> f(X - C) is convex, so with h > 0 its difference quotients bracket the one-sided slopes:
    # s_+(C - h) <= (f(C) - f(C - h)) / h <= s_-(C) <= s_+(C) <= (f(C + h) - f(C)) / h <= s_-(C + h)
    cvar2 = make_catalog_quadrangle(CatalogSpec("cvar2", {"alpha": alpha})).regret_fn
    l2 = make_catalog_quadrangle(CatalogSpec("standard_mean", {"lam": 1.5})).error_fn
    spread = float(x.values[-1] - x.values[0])
    for f, steep in ((cvar2, 1.0 / (1.0 - alpha)), (l2, 1.5)):
        slopes = f.shift_slopes(x)
        for c in kernel_probes(x):
            # f's rounding scales with |X - C|, as in test_vectorised_cvar2_matches_the_segment_loops
            size = spread + abs(c - float(x.values[x.n_atoms // 2])) or max(1.0, abs(c))
            for rel in (1e-2, 1e-4):
                below, above = c - rel * size, c + rel * size
                cs = np.array([below, c, above])
                left, right = slopes(cs)
                vals = [f.fn(x.shift(-t)) for t in cs]
                back, ahead = (vals[1] - vals[0]) / (c - below), (vals[2] - vals[1]) / (above - c)
                noise = 1e-12 * x.n_atoms * steep / rel
                chain = [right[0], back, left[1], right[1], ahead, left[2]]
                assert all(a <= b + noise for a, b in zip(chain, chain[1:])), (f.label, c, rel, chain)


def test_batched_search_builds_the_kernel_once_per_search():
    q = make_catalog_quadrangle(CatalogSpec("cvar2", {"alpha": 0.5}))
    x = DiscreteRv([-1.0, 0.25, 0.5, 2.0, 7.0], [0.1, 0.2, 0.3, 0.25, 0.15])
    built, calls = [], []

    def counted(shift_slopes):
        def build(x):
            built.append(1)
            at = shift_slopes(x)

            def slopes(cs):
                calls.append(np.size(cs))
                return at(cs)

            return slopes

        return build

    for f, run in ((q.error_fn, project_error), (q.regret_fn, regret_to_risk)):
        built.clear()
        calls.clear()
        value, interval = run(dataclasses.replace(f, shift_slopes=counted(f.shift_slopes)), x)
        assert (value, interval) == run(f, x)
        assert len(built) == 1
        # one call brackets both crossings among the atoms, and each round narrows both at once
        assert len(calls) <= 12, len(calls)
