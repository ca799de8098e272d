import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import linprog

from riskquad.core import DiscreteRv, StatInterval
from riskquad.solvers import (
    LpProblem,
    NonConvexError,
    UnboundedObjectiveError,
    argmin_interval_pwl,
    compass_search,
    cutting_planes,
    flat_interval,
    ksection_crossings,
    minimize_scalar_convex,
    minimize_subgradient,
    pwl_argmin_interval,
    pwl_grid,
    solve_lp,
    widen_root,
)
from riskquad.constructions import error_from_loss, project_error, Flags
from riskquad.measures import CatalogSpec, koenker_bassett_loss, make_catalog_quadrangle, vapnik_loss

from helpers import bisect_root, cutting_planes_cold


def test_scalar_quadratic():
    x, v = minimize_scalar_convex(lambda c: (c - 3.0) ** 2)
    assert abs(x - 3.0) <= 1e-8 and abs(v) <= 1e-15


def test_scalar_kink():
    x, v = minimize_scalar_convex(lambda c: abs(c))
    assert abs(x) <= 1e-8 and abs(v) <= 1e-8


def test_scalar_mse_of_rv():
    u5 = DiscreteRv.uniform([1, 2, 3, 4, 5])
    x, v = minimize_scalar_convex(lambda c: u5.moment(lambda t: (t - c) ** 2))
    assert abs(x - 3.0) <= 1e-6
    assert abs(v - 2.0) <= 1e-12


def test_scalar_unbounded_detected():
    with pytest.raises(UnboundedObjectiveError):
        minimize_scalar_convex(lambda c: -c)


def test_scalar_with_infinite_regions():
    def f(c):
        return (c - 0.25) ** 2 if -1.0 <= c <= 1.0 else math.inf

    x, v = minimize_scalar_convex(f, bracket=(-40.0, 40.0))
    assert abs(x - 0.25) <= 1e-8


def test_pwl_median():
    u3 = DiscreteRv.uniform([1, 2, 3])
    err = error_from_loss(koenker_bassett_loss(0.5), Flags(True, True, True))
    dev, interval = project_error(err, u3)
    assert interval == StatInterval(2, 2)
    assert dev == pytest.approx(2.0 / 3.0)


def test_pwl_vapnik_flat():
    z = DiscreteRv([-2, 2], [0.5, 0.5])
    err = error_from_loss(vapnik_loss(1.0), Flags(False, True, True))
    dev, interval = project_error(err, z)
    assert interval == StatInterval(-1, 1)
    assert dev == pytest.approx(1.0)


def test_pwl_single_kink():
    assert argmin_interval_pwl(lambda c: abs(c - 5.0), [5.0]) == StatInterval(5, 5)


def test_pwl_rejects_an_outer_segment_that_still_descends():
    with pytest.raises(UnboundedObjectiveError):
        argmin_interval_pwl(lambda c: max(c, 2.0 * c), [0.0])
    with pytest.raises(UnboundedObjectiveError):
        argmin_interval_pwl(lambda c: max(-c, -2.0 * c), [0.0])
    # flat out to either side is bounded
    assert argmin_interval_pwl(lambda c: max(c, 0.0), [0.0]).hi == 0.0


def test_pwl_rejects_nonconvex():
    with pytest.raises(NonConvexError):
        argmin_interval_pwl(lambda c: -abs(c), [-1.0, 0.0, 1.0])


def test_pwl_near_coincident_kinks_leave_sloped_segments_sloped():
    # two breakpoints 1e-8 apart far from the minimum once widened the slope
    # tolerance of every segment by the noise floor over the smallest gap, so
    # the gentle slopes of 1e-5 * |c - 1| all counted as flat
    def f(c):
        return 1e-5 * abs(c - 1.0)

    bps = [0.0, 1.0, 3.0, 3.0 + 1e-8]
    assert argmin_interval_pwl(f, bps) == StatInterval(1, 1)
    pts = pwl_grid(bps)
    assert pwl_argmin_interval(pts, np.array([f(c) for c in pts])) == StatInterval(1, 1)


def test_pwl_grid_merges_like_the_greedy_loop():
    rng = np.random.default_rng(5)
    for scale in (1e-3, 1.0, 1e3):
        # clusters of breakpoints spaced around the merge threshold
        base = np.repeat(rng.uniform(-5, 5, 40) * scale, 4)
        bps = np.unique(base + rng.uniform(0, 3e-9, base.size) * max(1.0, 5 * scale))
        thresh = 1e-9 * max(1.0, float(np.max(np.abs(bps))))
        kept = [bps[0]]
        for b in bps[1:]:
            if b - kept[-1] > thresh:
                kept.append(b)
        pts = pwl_grid(bps)
        assert pts[1:-1].tolist() == kept
        assert pts[0] == kept[0] - 1.0 and pts[-1] == kept[-1] + 1.0


def test_pwl_grid_resolves_breakpoints_below_a_unit_spread():
    # kinks 1e-10 apart were merged within an absolute 1e-9 and the sentinels
    # sat a unit out: the median came back as the first atom
    v = 1e-10 * np.array([1, 2, 3, 4, 5, 6, 7, 8, 9.5])
    q = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.5}))
    for offset in (0.0, 1.0):
        x = DiscreteRv(offset + v, np.full(9, 1.0 / 9.0))
        d, stat = project_error(q.error_fn, x)
        assert stat.lo == stat.hi == x.values[4]
        assert d == pytest.approx(q.deviation(DiscreteRv(v, np.full(9, 1.0 / 9.0))), rel=1e-6)
    pts = pwl_grid(v)
    assert pts[1:-1].tolist() == v.tolist()
    assert pts[0] == pytest.approx(v[0] - 1e3 * (v[-1] - v[0]))


def test_pwl_inside_scalar_min():
    # scalar minimizer lands inside the exact pwl interval
    z = DiscreteRv([-2, 2], [0.5, 0.5])
    err = error_from_loss(vapnik_loss(1.0), Flags(False, True, True))
    interval = project_error(err, z)[1]
    c, _ = minimize_scalar_convex(lambda c: err.fn(z.shift(-c)))
    assert interval.lo - 1e-8 <= c <= interval.hi + 1e-8


def test_subgradient_simplex_symmetric():
    def project(w):
        w = np.maximum(w, 0.0)
        s = w.sum()
        return w / s if s > 0 else np.full_like(w, 1.0 / w.size)

    res = minimize_subgradient(
        lambda w: float(w @ w),
        lambda w: 2.0 * w,
        project,
        np.array([0.9, 0.05, 0.05]),
        steps=4000,
    )
    x, v = compass_search(lambda w: float(w @ w), res.x, step=0.2, project=project)
    assert np.allclose(x, 1.0 / 3.0, atol=1e-5)
    assert v == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_compass_polish():
    x, v = compass_search(lambda z: float((z[0] - 1) ** 2 + abs(z[1] + 2)), np.zeros(2), step=1.0)
    assert abs(x[0] - 1) < 1e-9 and abs(x[1] + 2) < 1e-9


# -- cutting planes -------------------------------------------------------------


def _max_affine(slopes, icpts):
    """x -> max_k (slopes_k . x + icpts_k) as a cutting-plane oracle."""

    def oracle(x):
        k = int(np.argmax(slopes @ x + icpts))
        return float(slopes[k] @ x + icpts[k]), slopes[k], float(icpts[k])

    return oracle


def test_cutting_planes_certify_a_polyhedral_minimum_on_the_simplex():
    # max of affine pieces over the simplex is one LP: min t, t >= s_k.x + b_k
    rng = np.random.default_rng(3)
    for _ in range(5):
        slopes, icpts = rng.normal(size=(6, 4)), rng.normal(size=6)
        res = cutting_planes(_max_affine(slopes, icpts), np.full(4, 0.25), [(0.0, None)] * 4, np.ones((1, 4)), [1.0])
        a_ub = np.hstack((slopes, -np.ones((6, 1))))
        ref = linprog(np.append(np.zeros(4), 1.0), A_ub=a_ub, b_ub=-icpts, A_eq=np.append(np.ones(4), 0.0)[None, :], b_eq=[1.0],
                      bounds=[(0, None)] * 4 + [(None, None)], method="highs-ds")
        assert 0.0 <= res.gap <= 1e-12 * (1.0 + abs(res.value)) and 1 <= res.rounds <= 50
        assert abs(res.value - ref.fun) <= res.gap + 1e-9
        assert np.all(res.x >= 0.0) and abs(res.x.sum() - 1.0) <= 1e-12


def test_cutting_planes_widen_the_box_while_the_optimum_is_on_its_face():
    oracle = _max_affine(np.array([[1.0], [-1.0]]), np.array([-10.0, 10.0]))  # |x - 10|
    res = cutting_planes(oracle, np.zeros(1), [(-1.0, 1.0)], widen=(0,))
    assert res.x[0] == pytest.approx(10.0, abs=1e-9) and res.value <= 1e-9
    # without widening the box binds: the minimum over it is |1 - 10|
    assert cutting_planes(oracle, np.zeros(1), [(-1.0, 1.0)]).value == pytest.approx(9.0)
    # a flat direction stops the widening once it no longer lowers the value
    flat = _max_affine(np.array([[1.0], [0.0]]), np.array([0.0, 0.0]))  # max(x, 0)
    res = cutting_planes(flat, np.zeros(1), [(-1.0, 1.0)], widen=(0,))
    assert res.value == 0.0 and res.gap == 0.0


def test_cutting_planes_take_a_convex_constraint_as_tangent_cuts():
    # min c.x over the unit disk, each point evaluated at its radial scaling
    # into the disk, where the linear objective is attained: value -||c||
    c = np.array([0.6, -0.8]) * 2.0

    def oracle(x):
        y = x / max(1.0, float(np.linalg.norm(x)))
        return float(c @ y), c, 0.0

    def disk(x):
        nx = float(np.linalg.norm(x))
        return nx - 1.0, x / max(nx, 1.0)

    res = cutting_planes(oracle, np.zeros(2), [(-1.0, 1.0)] * 2, constraint=disk)
    assert res.value == pytest.approx(-2.0, abs=1e-6) and res.value - res.gap <= -2.0 + 1e-12


def test_cutting_planes_take_a_start_off_the_rows_as_no_candidate():
    # the start meets the simplex row but not x_1 = 0.9, so its lower value is no candidate
    oracle = _max_affine(np.array([[1.0, 0.0]]), np.array([0.0]))
    res = cutting_planes(oracle, np.full(2, 0.5), [(0.0, None)] * 2, np.array([[1.0, 1.0], [1.0, 0.0]]), [1.0, 0.9])
    assert res.value == pytest.approx(0.9) and res.x[0] == pytest.approx(0.9)


def _disk_min(slopes, icpts):
    """min over the unit disk of max_k (s_k.x + b_k) in two dimensions, the
    least value at the points where a minimizer can sit: a vertex of three
    pieces inside the disk, each piece's tangent point -s_k / |s_k|, and
    where the line on which two pieces tie meets the circle."""
    pts = [-slopes / np.linalg.norm(slopes, axis=1, keepdims=True)]
    for i, j in itertools.combinations(range(len(icpts)), 2):
        u = slopes[i] - slopes[j]
        r, nu = (icpts[j] - icpts[i]) / np.linalg.norm(u), u / np.linalg.norm(u)
        if abs(r) <= 1.0:
            pts.append(r * nu + np.outer([-1.0, 1.0], [-nu[1], nu[0]]) * math.sqrt(1.0 - r * r))
    triples = np.array(list(itertools.combinations(range(len(icpts)), 3)))
    system = np.concatenate((slopes[triples], -np.ones(triples.shape + (1,))), axis=2)
    ok = np.abs(np.linalg.det(system)) > 1e-9
    vertex = np.linalg.solve(system[ok], -icpts[triples[ok]][..., None])[:, :2, 0]
    pts.append(vertex[np.linalg.norm(vertex, axis=1) <= 1.0])
    pts = np.vstack(pts)
    return float(np.min(np.max(pts @ slopes.T + icpts, axis=1)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["box", "simplex", "simplex_mean", "widen", "disk"]), st.integers(2, 6), st.integers(3, 40))
def test_warm_masters_match_the_cold_route_and_the_epigraph_lp(seed, case, d, pieces):
    # every master of the warm route goes on from the last one's basis, the
    # cold route's starts from the slack basis on all the rows; both bracket
    # the minimum by [value - gap, value].  The epigraph LP min t, t >= s_k.x
    # + b_k, is the reference (HiGHS, to its 1e-9 tolerance), and over the
    # disk the least value at the candidate minimizers (_disk_min)
    rng = np.random.default_rng(seed)
    d = 2 if case == "disk" else d
    slopes, icpts = rng.normal(size=(pieces, d)), rng.normal(size=pieces)
    x0, bounds, a_eq, b_eq, kw = np.zeros(d), [(-1.0, 1.0)] * d, None, None, {}
    if case == "widen":
        # pieces 3 |x_i - o_i| about a centre o mostly outside the box keep the minimum finite
        centre = rng.uniform(-5.0, 5.0, size=d)
        slopes = np.vstack((slopes, 3.0 * np.eye(d), -3.0 * np.eye(d)))
        icpts = np.concatenate((icpts, -3.0 * centre, 3.0 * centre))
        kw = {"widen": range(d)}
    elif case.startswith("simplex"):
        x0, bounds, a_eq, b_eq = np.full(d, 1.0 / d), [(0.0, None)] * d, np.ones((1, d)), np.ones(1)
        if case == "simplex_mean":
            means = rng.normal(size=d)
            a_eq, b_eq = np.vstack((a_eq, means)), np.array([1.0, rng.uniform(means.min(), means.max())])
    if case == "disk":
        # the pieces moved to a centre mostly outside the disk put the minimum on the circle
        icpts = icpts - slopes @ rng.uniform(-3.0, 3.0, size=2)
        kw = {"constraint": lambda x: (float(np.linalg.norm(x)) - 1.0, x / max(float(np.linalg.norm(x)), 1.0))}
    pieces_at = _max_affine(slopes, icpts)

    def oracle(x):
        # over the disk each point is evaluated at its radial scaling into it, and its tangent row cuts it off
        return pieces_at(x / max(1.0, float(np.linalg.norm(x))) if case == "disk" else x)

    warm = cutting_planes(oracle, x0, bounds, a_eq, b_eq, **kw)
    cold = cutting_planes_cold(oracle, x0, bounds, a_eq, b_eq, **kw)
    assert abs(warm.value - cold.value) <= warm.gap + cold.gap + 1e-12 * (1.0 + abs(warm.value))
    if case == "disk":
        ref = _disk_min(slopes, icpts)
    else:
        free = [(None, None)] * d if case == "widen" else bounds
        lp = linprog(np.append(np.zeros(d), 1.0), A_ub=np.hstack((slopes, -np.ones((len(icpts), 1)))), b_ub=-icpts,
                     A_eq=None if a_eq is None else np.hstack((a_eq, np.zeros((len(a_eq), 1)))), b_eq=b_eq,
                     bounds=free + [(None, None)], method="highs")
        assert lp.status == 0
        ref = lp.fun
    for res in (warm, cold):
        assert res.value - res.gap - 1e-9 <= ref <= res.value + 1e-9


# -- LP ------------------------------------------------------------------------


def test_lp_vertex_example():
    sol = solve_lp(
        LpProblem(
            c=np.array([0.0, -1.0]),
            a_eq=np.array([[0.5, 0.5]]),
            b_eq=np.array([1.0]),
            bounds=[(0, 2), (0, 2)],
        )
    )
    assert sol.status == "optimal"
    assert np.allclose(sol.x, [0.0, 2.0], atol=1e-9)


def test_lp_trivial_and_statuses():
    sol = solve_lp(LpProblem(c=np.array([0.0]), a_eq=np.array([[1.0]]), b_eq=np.array([1.0])))
    assert sol.status == "optimal" and sol.x[0] == pytest.approx(1.0) and sol.objective == pytest.approx(0.0)
    assert solve_lp(LpProblem(c=np.array([-1.0]), bounds=[(0, None)])).status == "unbounded"
    inf = solve_lp(LpProblem(c=np.array([1.0]), a_eq=np.array([[1.0]]), b_eq=np.array([5.0]), bounds=[(0, 1)]))
    assert inf.status == "infeasible"


def _random_lp(rng, n, m_eq, m_ub):
    c = rng.uniform(-2, 2, n)
    a_eq = rng.uniform(-1, 1, (m_eq, n)) if m_eq else None
    a_ub = rng.uniform(-1, 1, (m_ub, n)) if m_ub else None
    x_feas = rng.uniform(0, 2, n)
    b_eq = a_eq @ x_feas if m_eq else None
    b_ub = a_ub @ x_feas + rng.uniform(0, 1, m_ub) if m_ub else None
    bounds = [(0.0, float(rng.uniform(2.5, 5.0))) for _ in range(n)]
    return LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, bounds=bounds)


def _scipy_solve(p):
    return linprog(
        p.c,
        A_eq=p.a_eq,
        b_eq=p.b_eq,
        A_ub=p.a_ub,
        b_ub=p.b_ub,
        bounds=p.bounds,
        method="highs",
    )


def test_lp_matches_scipy_on_random_problems():
    rng = np.random.default_rng(12)
    for trial in range(40):
        n = int(rng.integers(2, 7))
        p = _random_lp(rng, n, int(rng.integers(0, min(3, n))), int(rng.integers(0, 4)))
        ours = solve_lp(p)
        ref = _scipy_solve(p)
        assert ours.status == "optimal" and ref.status == 0
        assert ours.objective == pytest.approx(ref.fun, abs=1e-7)


def _enumerate_vertices(p):
    """Brute-force vertex enumeration oracle on small LPs with finite boxes."""
    n = p.c.size
    rows = []
    rhs = []
    if p.a_eq is not None:
        for r, b in zip(p.a_eq, p.b_eq):
            rows.append((r, b, "eq"))
    if p.a_ub is not None:
        for r, b in zip(p.a_ub, p.b_ub):
            rows.append((r, b, "ub"))
    for i, (lo, hi) in enumerate(p.bounds):
        e = np.zeros(n)
        e[i] = 1.0
        rows.append((e, lo, "lb"))
        rows.append((e, hi, "ub_box"))
    best = math.inf
    eq_rows = [(r, b) for r, b, kind in rows if kind == "eq"]
    ineq_rows = [(r, b, kind) for r, b, kind in rows if kind != "eq"]
    need = n - len(eq_rows)
    for combo in itertools.combinations(range(len(ineq_rows)), need):
        a = [r for r, _ in eq_rows] + [ineq_rows[i][0] for i in combo]
        b = [b for _, b in eq_rows] + [ineq_rows[i][1] for i in combo]
        a = np.asarray(a)
        if a.shape[0] != n:
            continue
        try:
            x = np.linalg.solve(a, np.asarray(b))
        except np.linalg.LinAlgError:
            continue
        ok = True
        if p.a_eq is not None:
            ok &= bool(np.all(np.abs(p.a_eq @ x - p.b_eq) <= 1e-8))
        if p.a_ub is not None:
            ok &= bool(np.all(p.a_ub @ x <= p.b_ub + 1e-8))
        for i, (lo, hi) in enumerate(p.bounds):
            ok &= lo - 1e-8 <= x[i] <= hi + 1e-8
        if ok:
            best = min(best, float(p.c @ x))
    return best


def test_lp_matches_vertex_enumeration():
    rng = np.random.default_rng(5)
    for trial in range(12):
        n = int(rng.integers(2, 5))
        p = _random_lp(rng, n, int(rng.integers(0, 2)), int(rng.integers(0, 3)))
        ours = solve_lp(p)
        oracle = _enumerate_vertices(p)
        assert ours.status == "optimal"
        assert ours.objective == pytest.approx(oracle, abs=1e-8)


def _mixed_lp(rng, n, m_eq, m_ub):
    """A random LP around a feasible point, with every kind of bound (free,
    lower, upper only, two-sided), equality rows, negative rhs and <= rows
    tight at that point (zero slack, so degenerate)."""
    x0 = rng.uniform(-2, 2, n)
    lo, hi = x0 - rng.uniform(0, 2, n), x0 + rng.uniform(0, 2, n)
    kinds = rng.integers(0, 4, n)
    bounds = [[(lo[j], None), (lo[j], hi[j]), (None, hi[j]), (None, None)][k] for j, k in enumerate(kinds)]
    a_eq = rng.uniform(-1, 1, (m_eq, n)) if m_eq else None
    a_ub = rng.uniform(-1, 1, (m_ub, n)) if m_ub else None
    b_eq = a_eq @ x0 if m_eq else None
    b_ub = a_ub @ x0 + rng.uniform(0, 1, m_ub) * (rng.random(m_ub) < 0.6) if m_ub else None
    return LpProblem(c=rng.uniform(-1, 1, n), a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, bounds=bounds)


def _cvar_lp(rng, m, k, alpha, target=None):
    """Rockafellar-Uryasev CVaR portfolio LP over (w, C, u): every scenario
    row has rhs 0, so the slack start is fully degenerate."""
    s = rng.normal(0.01, 0.05, (m, k))
    c = np.concatenate((np.zeros(k), [1.0], np.full(m, 1.0 / ((1.0 - alpha) * m))))
    a_ub = np.hstack((-s, -np.ones((m, 1)), -np.eye(m)))
    a_eq = [np.concatenate((np.ones(k), np.zeros(1 + m)))]
    b_eq = [1.0]
    if target is not None:
        a_eq.append(np.concatenate((s.mean(axis=0), np.zeros(1 + m))))
        b_eq.append(target)
    bounds = [(0.0, None)] * k + [(None, None)] + [(0.0, None)] * m
    return LpProblem(c=c, a_eq=np.array(a_eq), b_eq=np.array(b_eq), a_ub=a_ub, b_ub=np.zeros(m), bounds=bounds)


def _assert_matches_highs(p):
    ours, ref = solve_lp(p), _scipy_solve(p)
    want = {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
    assert ours.status == want
    if want == "optimal":
        assert ours.objective == pytest.approx(ref.fun, abs=1e-7 * (1.0 + abs(ref.fun)))
        x = ours.x
        if p.a_eq is not None:
            assert np.allclose(p.a_eq @ x, p.b_eq, atol=1e-8)
        if p.a_ub is not None:
            assert np.all(p.a_ub @ x <= p.b_ub + 1e-8)
        for xj, (lo, hi) in zip(x, p.bounds):
            assert (lo is None or xj >= lo - 1e-9) and (hi is None or xj <= hi + 1e-9)
    return want


def test_lp_matches_highs_on_mixed_bounds_and_rows():
    rng = np.random.default_rng(21)
    seen = set()
    for trial in range(150):
        n = int(rng.integers(1, 8))
        p = _mixed_lp(rng, n, int(rng.integers(0, min(3, n) + 1)), int(rng.integers(0, 7)))
        if trial % 10 == 4 and p.a_eq is not None:
            # a redundant equality row, twice the first: one of the two keeps its fixed unit column basic
            p.a_eq = np.vstack((p.a_eq, 2.0 * p.a_eq[:1]))
            p.b_eq = np.concatenate((p.b_eq, 2.0 * p.b_eq[:1]))
        if trial % 10 == 9 and p.a_ub is not None:
            # a row and its negation pushed past it: nothing is feasible
            p.a_ub = np.vstack((p.a_ub, -p.a_ub[:1]))
            p.b_ub = np.concatenate((p.b_ub, -p.b_ub[:1] - 0.5))
        seen.add(_assert_matches_highs(p))
    assert seen == {"optimal", "infeasible", "unbounded"}


def test_lp_matches_highs_on_degenerate_cvar_lps():
    rng = np.random.default_rng(8)
    for m, k, alpha in ((12, 3, 0.5), (40, 5, 0.9), (60, 8, 0.8)):
        assert _assert_matches_highs(_cvar_lp(rng, m, k, alpha)) == "optimal"
        assert _assert_matches_highs(_cvar_lp(rng, m, k, alpha, target=0.012)) in ("optimal", "infeasible")
    # a mean target beyond every asset's mean
    assert _assert_matches_highs(_cvar_lp(rng, 20, 4, 0.9, target=1.0)) == "infeasible"


def _boxed_lp(rng, n, m_eq, m_ub):
    """A random LP whose columns all carry two-sided bounds around a point
    inside them, some fixed (l = u), with costs of either sign so that
    optima sit at upper bounds, and rows through that point."""
    x0 = rng.uniform(-2, 2, n)
    lo, hi = x0 - rng.uniform(0, 2, n), x0 + rng.uniform(0, 2, n)
    fixed = rng.random(n) < 0.15
    lo[fixed] = hi[fixed] = x0[fixed]
    a_eq = rng.uniform(-1, 1, (m_eq, n)) if m_eq else None
    a_ub = rng.uniform(-1, 1, (m_ub, n)) if m_ub else None
    b_eq = a_eq @ x0 if m_eq else None
    b_ub = a_ub @ x0 + rng.uniform(0, 1, m_ub) * (rng.random(m_ub) < 0.6) if m_ub else None
    return LpProblem(c=rng.uniform(-1, 1, n), a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, bounds=list(zip(lo, hi)))


def test_lp_matches_highs_on_boxed_columns():
    rng = np.random.default_rng(19)
    seen, at_upper = set(), 0
    for trial in range(150):
        n = int(rng.integers(1, 9))
        p = _boxed_lp(rng, n, int(rng.integers(0, min(3, n) + 1)), int(rng.integers(0, 6)))
        if trial % 10 == 7:
            # the box of column 0 moved past every point the rows allow
            lo, hi = p.bounds[0]
            shift = (hi - lo) + 4.0 * np.sum(np.abs([b for bd in p.bounds for b in bd]))
            p.bounds[0] = (lo + shift, hi + shift)
            if p.a_eq is None:
                p.a_eq, p.b_eq = np.eye(n)[:1], np.array([lo])
        seen.add(_assert_matches_highs(p))
        sol = solve_lp(p)
        if sol.status == "optimal":
            at_upper += sum(hi > lo and xj == hi for xj, (lo, hi) in zip(sol.x, p.bounds))
    assert seen == {"optimal", "infeasible"}
    assert at_upper > 100


def _highs_marginals(res):
    return np.concatenate([m.marginals for m in (res.eqlin, res.ineqlin) if m is not None and len(m.marginals)] or [np.zeros(0)])


def test_lp_duals_match_highs_marginals():
    # where no alternate dual optimum exists the multipliers are unique, and
    # both solvers must report them; elsewhere ours must still price every
    # column: c - A^T y is >= 0 at a lower bound and <= 0 at an upper one
    rng = np.random.default_rng(23)
    compared = 0
    for trial in range(240):
        family = trial % 4
        n = int(rng.integers(2, 8))
        if family == 0:
            p = _random_lp(rng, n, int(rng.integers(0, min(3, n))), int(rng.integers(0, 4)))
        elif family == 1:
            p = _mixed_lp(rng, n, int(rng.integers(0, min(3, n) + 1)), int(rng.integers(0, 7)))
        elif family == 2:
            p = _boxed_lp(rng, n, int(rng.integers(0, min(3, n) + 1)), int(rng.integers(0, 6)))
        else:
            p = _cvar_lp(rng, int(rng.integers(8, 40)), int(rng.integers(2, 5)), 0.8)
        ours, ref = solve_lp(p), _scipy_solve(p)
        if ours.status != "optimal":
            continue
        if not ours.degenerate_rows:
            compared += 1
            want = _highs_marginals(ref)
            assert np.allclose(ours.duals, want, rtol=1e-7, atol=1e-7)
        _assert_prices_every_column(p, ours)
    assert compared > 150


def _assert_prices_every_column(p, sol):
    """The multipliers are an optimal dual at sol.x: <= 0 on a <= row and 0
    where it is slack, and c - A^T y >= 0 at a lower bound and <= 0 at an
    upper one."""
    rows = [a for a in (p.a_eq, p.a_ub) if a is not None]
    a = np.vstack(rows) if rows else np.zeros((0, p.c.size))
    assert sol.duals.shape == (a.shape[0],)
    if p.a_ub is not None:
        y_ub = sol.duals[a.shape[0] - p.a_ub.shape[0] :]
        assert np.all(y_ub <= 1e-9)
        assert np.all((y_ub >= -1e-9) | (p.a_ub @ sol.x >= p.b_ub - 1e-9))
    d = p.c - a.T @ sol.duals
    for dj, xj, (lo, hi) in zip(d, sol.x, p.bounds):
        lo = -math.inf if lo is None else lo
        hi = math.inf if hi is None else hi
        assert dj >= -1e-7 or xj >= hi - 1e-9
        assert dj <= 1e-7 or xj <= lo + 1e-9


def test_lp_counts_pivots_and_keeps_degenerate_cvar_short():
    assert solve_lp(LpProblem(c=np.array([1.0]), bounds=[(0, None)])).pivots == 0
    sol = solve_lp(_cvar_lp(np.random.default_rng(1), 200, 10, 0.9))
    assert sol.status == "optimal"
    # Bland's rule after every degenerate pivot took 8,821 pivots here
    assert 0 < sol.pivots <= 1000


def test_lp_leaves_a_dantzig_cycle_below_a_negative_objective():
    # Beale's (1955) cycle, its second row scaled by 0.1 so that Dantzig's
    # rule with ties to the largest pivot element cycles on it, after a column
    # in its own row has taken the phase-2 objective to -2: the stalled run
    # must be measured against the objective's magnitude for Bland's rule to
    # start
    c = np.array([-0.75, 20.0, -0.5, 6.0, -2.0])
    a_ub = np.array([[0.25, -8.0, -1.0, 9.0, 0.0], [0.05, -1.2, -0.05, 0.3, 0.0], [0.0, 0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0]])
    p = LpProblem(c=c, a_ub=a_ub, b_ub=np.array([0.0, 0.0, 1.0, 1.0]), bounds=[(0, None)] * 5)
    assert _assert_matches_highs(p) == "optimal"
    assert solve_lp(p).pivots <= 200


def _dual_start_lp(rng, n, m_eq, m_ub):
    """An LP with an optimum whose slack start is not dual feasible: free
    columns of nonzero cost and one-sided columns whose cost favours their
    open side (c = A^T y + d, d of the sign each bound allows, y <= 0 on the
    <= rows), rows through a point x0 (the <= rows' right sides negative
    where a_i.x0 is), equality and <= rows mixed."""
    x0 = rng.uniform(-2, 2, n)
    kinds = np.arange(n) % 4
    rng.shuffle(kinds)
    lo, hi = x0 - rng.uniform(0, 2, n), x0 + rng.uniform(0, 2, n)
    bounds = [[(lo[j], None), (None, hi[j]), (None, None), (lo[j], hi[j])][k] for j, k in enumerate(kinds)]
    a_eq = rng.uniform(-1, 1, (m_eq, n))
    a_ub = rng.uniform(-1, 1, (m_ub, n))
    y = np.concatenate((rng.uniform(-1, 1, m_eq), -rng.uniform(0, 1, m_ub)))
    d = rng.uniform(0, 1, n) * np.array([1.0, -1.0, 0.0, 0.0])[kinds] + rng.uniform(-1, 1, n) * (kinds == 3)
    c = np.vstack((a_eq, a_ub)).T @ y + d
    b_ub = a_ub @ x0 + rng.uniform(0, 1, m_ub) * (rng.random(m_ub) < 0.5)
    return LpProblem(c=c, a_eq=a_eq if m_eq else None, b_eq=a_eq @ x0 if m_eq else None, a_ub=a_ub if m_ub else None, b_ub=b_ub if m_ub else None, bounds=bounds)


def test_lp_corners_of_the_dual_start_match_highs():
    # the dual phase 1 on free and open-sided columns of nonzero cost, <= rows
    # with negative right sides, redundant rows, and problems infeasible,
    # unbounded, or both: the status, the objective to 1e-12 (1 + |v|) and,
    # where no alternate dual optimum exists, HiGHS's marginals
    rng = np.random.default_rng(41)
    seen, compared, redundant, no_extra_row = [], 0, 0, set()
    for trial in range(160):
        n = int(rng.integers(2, 9))
        m_eq = int(rng.integers(0, min(3, n) + 1))
        p = _dual_start_lp(rng, n, m_eq, int(rng.integers(1, 7)))
        case = trial % 8
        if case == 1 and p.a_eq is None:
            no_extra_row.add(trial)
        elif case == 1:
            # a redundant equality row, the sum of the others
            p.a_eq, p.b_eq = np.vstack((p.a_eq, p.a_eq.sum(axis=0))), np.append(p.b_eq, p.b_eq.sum())
        elif case == 2:
            # a <= row repeated
            p.a_ub, p.b_ub = np.vstack((p.a_ub, p.a_ub[:1])), np.append(p.b_ub, p.b_ub[:1])
        elif case in (3, 5):
            # a <= row and its negation pushed past it: nothing is feasible
            p.a_ub, p.b_ub = np.vstack((p.a_ub, -p.a_ub[:1])), np.append(p.b_ub, -p.b_ub[:1] - 0.5)
        if case in (4, 5):
            # a free column of nonzero cost in no row: unbounded below where anything is feasible
            p = LpProblem(np.append(p.c, 1.0), *(None if a is None else (np.hstack((a, np.zeros((len(a), 1)))) if a.ndim == 2 else a) for a in (p.a_eq, p.b_eq, p.a_ub, p.b_ub)), p.bounds + [(None, None)])
        ours, ref = solve_lp(p), _scipy_solve(p)
        want = {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
        seen.append((case, want))
        assert ours.status == want, (trial, ours.status, want)
        if want != "optimal":
            continue
        assert abs(ours.objective - ref.fun) <= 1e-12 * (1.0 + abs(ref.fun)), (trial, ours.objective, ref.fun)
        if not ours.degenerate_rows:
            compared += 1
            assert np.allclose(ours.duals, _highs_marginals(ref), rtol=1e-9, atol=1e-9), trial
        if case in (1, 2) and trial not in no_extra_row:
            # of rows that depend linearly, one keeps its unit column basic
            # and its multiplier is 0 (an equality row of the sum's, or a
            # copy of the repeated row); unless every one of them is 0, a dual
            # step moves them all
            n_eq = 0 if p.a_eq is None else len(p.a_eq)
            dependent = list(range(n_eq)) if case == 1 else [n_eq, n_eq + len(p.a_ub) - 1]
            zero = [ours.duals[i] == 0.0 for i in dependent]
            assert any(zero), (trial, ours.duals)
            assert all(zero) or set(dependent) <= set(ours.degenerate_rows), trial
            redundant += 1
        _assert_prices_every_column(p, ours)
    # every corner was reached: both phases' outcomes and each status
    assert {w for c, w in seen if c in (0, 1, 2, 6, 7)} == {"optimal"}
    assert {w for c, w in seen if c == 3} == {"infeasible"} and {w for c, w in seen if c == 5} == {"infeasible"}
    assert {w for c, w in seen if c == 4} == {"unbounded"}
    assert compared > 40 and redundant > 30


def test_lp_reports_alternate_optima_through_any_nonbasic_column():
    # min x0 s.t. x0 + x1 <= 1, x >= 0: x1 anywhere in [0, 1] is optimal
    sol = solve_lp(LpProblem(c=np.array([1.0, 0.0]), a_ub=np.array([[1.0, 1.0]]), b_ub=[1.0], bounds=[(0, None)] * 2))
    assert sol.objective == 0.0 and 1 in sol.degenerate_columns
    # min -x0 - x1 on the same row: the whole edge is optimal, and a vertex's
    # basic variable moves along it when the other enters
    sol = solve_lp(LpProblem(c=-np.ones(2), a_ub=np.array([[1.0, 1.0]]), b_ub=[1.0], bounds=[(0, None)] * 2))
    assert set(sol.degenerate_columns) == {0, 1}
    # a unique optimum reports none
    sol = solve_lp(LpProblem(c=np.array([1.0, 2.0]), a_ub=-np.eye(2), b_ub=-np.ones(2)))
    assert sol.x.tolist() == [1.0, 1.0] and sol.degenerate_columns == ()
    # min -x0 - x1 s.t. x0 + x1 <= 1.5 in the unit box: one column ends
    # nonbasic at its upper bound with zero reduced cost, and lowering it
    # raises the other along the optimal edge
    sol = solve_lp(LpProblem(c=-np.ones(2), a_ub=np.ones((1, 2)), b_ub=[1.5], bounds=[(0, 1)] * 2))
    assert sol.objective == -1.5 and 1.0 in sol.x.tolist() and set(sol.degenerate_columns) == {0, 1}
    # a fixed column (l = u) cannot move, so the optimum is unique
    sol = solve_lp(LpProblem(c=np.array([0.0, 1.0]), a_ub=np.ones((1, 2)), b_ub=[1.5], bounds=[(1, 1), (0, 1)]))
    assert sol.x.tolist() == [1.0, 0.0] and sol.degenerate_columns == ()


def test_subgradient_matches_lp():
    # min c.w over the simplex: LP vs projected subgradient
    rng = np.random.default_rng(3)
    c = rng.uniform(-1, 1, 4)
    lp = solve_lp(
        LpProblem(
            c=c,
            a_eq=np.ones((1, 4)),
            b_eq=np.ones(1),
            bounds=[(0.0, None)] * 4,
        )
    )

    def project(w):
        u = np.sort(w)[::-1]
        css = np.cumsum(u)
        rho = np.nonzero(u * np.arange(1, 5) > (css - 1.0))[0][-1]
        theta = (css[rho] - 1.0) / float(rho + 1)
        return np.maximum(w - theta, 0.0)

    res = minimize_subgradient(lambda w: float(c @ w), lambda w: c, project, np.full(4, 0.25), steps=20000)
    x, v = compass_search(lambda w: float(c @ w), res.x, step=0.25, project=project)
    assert v == pytest.approx(lp.objective, abs=1e-4)


def _bisect_fixed_count(g, lo, hi, iters):
    """The bisection loop without the early stop: every step runs."""
    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (glo < 0.0) != (gm < 0.0):
            hi, ghi = mid, gm
        else:
            lo, glo = mid, gm
    return 0.5 * (lo + hi)


@given(
    st.floats(-1e6, 1e6),
    st.sampled_from([1e-300, 1e-12, 1e-3, 1.0, 1e8]),
    st.floats(0.0, 1.0),
    st.sampled_from(["linear", "cubic", "step", "tanh"]),
    st.sampled_from([-1.0, 1.0]),
    st.integers(0, 200),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_bisect_root_early_stop_is_bit_identical(centre, width, frac, shape, sign, iters):
    # once mid rounds to lo or hi every later step leaves the bracket as it is,
    # so stopping there returns the fixed-count loop's float exactly
    lo, hi = centre - width, centre + width
    root = lo + frac * (hi - lo)
    assume(lo < root < hi)
    shapes = {
        "linear": lambda c: c - root,
        "cubic": lambda c: (c - root) ** 3 + 1e-3 * (c - root),
        "step": lambda c: -1.0 if c < root else 1.0,
        "tanh": lambda c: math.tanh((c - root) / width),
    }
    fn = shapes[shape]
    g = lambda c: sign * fn(c)  # noqa: E731
    assert bisect_root(g, lo, hi, iters=iters) == _bisect_fixed_count(g, lo, hi, iters)


def test_bisect_root_stops_at_adjacent_floats():
    evals = []

    def g(c):
        evals.append(c)
        return c - 1.0 / 3.0

    bisect_root(g, 0.0, 1.0, iters=200)
    # the bracket [0, 1] reaches adjacent floats near 1/3 after 54 halvings
    assert len(evals) <= 2 + 55


def test_root_finders_keep_signs_when_values_underflow_in_a_product():
    # g of order 1e-200: g(lo) * g(mid) underflows to -0.0, which must not
    # read as "same sign"
    assert abs(bisect_root(lambda b: 1e-200 * (0.3 - b), -1.0, 1.0) - 0.3) <= math.ulp(0.3)
    assert abs(widen_root(lambda t: 1e-200 * (7.0 - t), 0.0, 1.0) - 7.0) <= math.ulp(7.0)


@pytest.mark.parametrize("root", [-1e9, -3.0, 0.25, 7.0, 1e12])
def test_widen_root_reaches_a_root_outside_its_bracket(root):
    # the root of a decreasing line, inside or far outside the start bracket
    # [0, 1] on either side, narrowed to adjacent floats
    got = widen_root(lambda t: root - t, 0.0, 1.0)
    assert abs(got - root) <= math.ulp(root)


def test_widen_root_crosses_flat_stretches_and_rejects_no_root():
    # g is flat above -40 and changes sign there; a g that never changes
    # sign raises once the bracket overflows
    got = widen_root(lambda t: -1.0 if t > -40.0 else -40.0 - t, 0.0, 1.0)
    assert abs(got + 40.0) <= math.ulp(40.0)
    with pytest.raises(ValueError, match="root not bracketed"):
        widen_root(lambda t: -1.0, 0.0, 1.0)


# -- flat sets and batched crossings ---------------------------------------------


def _flat_interval_100_steps(fn, cstar, fstar):
    """``flat_interval`` with every one of its 100 bisection steps run."""
    thresh = fstar + 1e-9 * (1.0 + abs(fstar))

    def crossing(direction):
        step = max(1e-9, 1e-9 * abs(cstar))
        inner = cstar
        outer = cstar + direction * step
        while fn(outer) <= thresh:
            inner = outer
            step *= 2.0
            if step > 1e12:
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


def _flat_shape(shape, centre, half, curv):
    """Convex test functions with a flat bottom of half-width ``half`` at ``centre``."""
    if shape == "quadratic":
        return lambda c: curv * np.maximum(np.abs(c - centre) - half, 0.0) ** 2
    if shape == "vee":
        return lambda c: curv * np.maximum(np.abs(c - centre) - half, 0.0)
    return lambda c: curv * np.maximum(c - centre - half, 0.0) + 1e-3 * curv * np.maximum(centre - half - c, 0.0)


@given(
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, 1e-12, 1e-3, 1.0, 1e8]),
    st.sampled_from([1e-6, 1.0, 1e6]),
    st.sampled_from(["quadratic", "vee", "skewed"]),
    st.floats(-1.0, 1.0),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_flat_interval_early_stop_is_bit_identical(centre, half, curv, shape, frac):
    # once mid rounds to inner or outer every later step leaves inner as it is
    f = _flat_shape(shape, centre, half, curv)
    fn = lambda c: float(f(c))  # noqa: E731
    cstar = centre + frac * half
    assert flat_interval(fn, cstar, fn(cstar)) == _flat_interval_100_steps(fn, cstar, fn(cstar))


@given(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300), st.floats(0.0, 1.0), st.sampled_from([2, 3, 64]), st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_ksection_crossings_stop_at_the_last_float(a, b, frac, k, guess_frac):
    root = a + frac * (b - a) if abs(b - a) < 1e300 else a
    # pred holds at a and fails at b
    assume(min(a, b) <= root <= max(a, b) and root != b)
    calls = []

    def crit(pts):
        calls.append(pts.shape)
        return np.where(pts <= root if a < b else pts >= root, 1.0, -1.0)

    # a predicted root anywhere in the bracket, right or wrong, moves only the rounds
    for guess in (None, [a + guess_frac * (b - a) if abs(b - a) < 1e300 else a]):
        calls.clear()
        got = ksection_crossings(crit, [a], [b], k, guess=guess)
        # the last float from a toward b at which pred holds: the root itself
        assert got[0] == root
        # every round gains log2(k + 1) bits on a bracket of at most 2^2100 ulps
        assert len(calls) <= 2 + 2100 / math.log2(k + 1) + 2


