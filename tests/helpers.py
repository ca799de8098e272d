"""Shared sampling helpers for the test suite."""

import dataclasses
import math

import numpy as np
from hypothesis import strategies as st

from riskquad.core import DiscreteRv, SortedSums, map_chunks, sample_rvs
from riskquad.divergence import StochasticDivergenceJ, family_eval_envelope, make_divergence_quadrangle
from riskquad.solvers import _GAP_REL, CuttingPlaneResult, LpProblem, _bisect_bracket, compass_search, solve_lp


def random_rv(rng, max_atoms=8, span=3.0, offset=0.0):
    return sample_rvs(rng, 1, max_atoms=max_atoms, span=span, offset=offset)[0]


def random_rvs(rng, n, **kw):
    return sample_rvs(rng, n, **kw)


SCALES = [1e-9, 1e-3, 1.0, 1e3, 1e9]


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


def interval_gap(a, b):
    return max(abs(a.lo - b.lo), abs(a.hi - b.hi))


# the catalog families whose error and regret carry LP data (affine loss pieces or a moment-max form)
LP_FAMILIES = [
    ("quantile", {"alpha": 0.2}),
    ("quantile", {"alpha": 0.5}),
    ("quantile", {"alpha": 0.85}),
    ("qsau", {"eps": 0.3}),
    ("mean_pl", {}),
    ("expectile_pl", {"K": 0.5}),
    ("biased_mean", {"x": 0.4}),
]


def cvar_norm_shift_values(x, alpha):
    """C -> (1 - alpha) CVaR_alpha(|X - C|) at every C of an array: each row of
    |X - C| sorted in decreasing order, its top 1 - alpha of mass summed.  The
    row-sort scan that the qsa projections ran before their segment slopes."""
    sums = SortedSums(x)

    def rows(c):
        z = np.abs(sums.u[None, :] - (c - sums.ref)[:, None])
        order = np.argsort(-z, axis=1)
        z = np.take_along_axis(z, order, axis=1)
        p = x.probs[order]
        take = np.clip((1.0 - alpha) - (np.cumsum(p, axis=1) - p), 0.0, p)
        return np.sum(take * z, axis=1)

    return lambda cs: map_chunks(rows, np.asarray(cs, dtype=float), x.n_atoms)


def qsa_pairwise_midpoints(x):
    """The atoms and their pairwise midpoints, 0.5 * (x_i + x_j) for i <= j:
    every shift at which C -> (1 - alpha) CVaR_alpha(|X - C|) can change
    slope, O(n^2) of them.  The candidate set the qsa projections scanned
    before their window midpoints."""
    v = x.values
    i, j = np.triu_indices(v.size)
    return np.unique(0.5 * (v[i] + v[j]))


def within(a, b, rel=1e-12):
    """|a - b| <= rel * (1 + |b|)."""
    return abs(a - b) <= rel * (1.0 + abs(b))


def bisect_root(g, lo: float, hi: float, iters: int = 100) -> float:
    """Root of a scalar function with g(lo), g(hi) of opposite sign (or zero)."""
    return _bisect_bracket(g, lo, g(lo), hi, g(hi), iters)


def kl_risk_bisect(x, beta):
    """``divergence._kl_risk`` by 200-step bisection in ln l on the sign of the
    slope beta - KL(Q_l), with a pass over the atoms per step: the search that
    Newton's method on the tilt's variance replaced.  The bracket and the
    ess-sup branch are the same; a slope still negative after 400 widenings
    of the bracket's top overflows."""
    v, p = x.values, x.probs
    vmax = float(v[-1])
    if x.is_constant() or beta >= -math.log(float(p[-1])):
        return vmax, 0.0, (v == vmax).astype(float), float(p[-1])
    u = v - vmax

    def slope(t):
        lam = math.exp(t)
        w = p * np.exp(u / lam)
        s = float(w.sum())
        return beta + math.log(s) - float(np.dot(w, u)) / (lam * s)

    lo = math.log(-float(u[-2]) / 800.0)
    hi = math.log(-float(u[0]))
    for _ in range(400):
        if slope(hi) >= 0.0:
            break
        hi += 2.0
    lam = math.exp(bisect_root(slope, lo, hi, iters=200))
    w = np.exp(u / lam)
    # ln E w as log1p(E[w - 1]): the rounding of ln(E w), a logarithm of about
    # 1, is eps whatever l, and l times it outgrows 1e-12 max|X| where l >> range
    return vmax + lam * (beta + math.log1p(float(np.dot(p, np.expm1(u / lam))))), lam, w, float(np.dot(p, w))


def generic_divergence_quadrangle(div, beta):
    """The quadrangle of ``div`` at ``beta`` without its closed forms or its
    envelope route: the phi-regret projected by golden section, and the risk
    on the per-atom parametric maximizer of the density ball where phi has
    ``conj_grad``, the oracle for the closed routes."""
    return make_divergence_quadrangle(dataclasses.replace(div, closed_forms=None, envelope_route=None), beta)


def pair_rows(m, a, b, bound):
    """The pair constraints a Q_i + b Q_j <= bound as (a_ub, b_ub), one row for
    each ordered pair i != j, i major: m(m - 1) dense rows of width m.  The
    mean_abs envelope's max Q - min Q <= 1 is (1, -1, 1), the expectile
    envelope's (1 - q) max Q - q min Q <= 0 is (1 - q, -q, 0)."""
    i, j = np.nonzero(~np.eye(m, dtype=bool))
    rows = a * np.eye(m)[i] + b * np.eye(m)[j]
    return rows, np.full(len(rows), float(bound))


def pair_rows_contain(env, rows, q, tol=1e-9):
    """Membership in the envelope's box and row cut by the pair rows, at
    ``contains``' tolerance: the oracle for its membership test."""
    a_ub, b_ub = rows
    return dataclasses.replace(env, member=None).contains(q, tol) and bool(np.all(a_ub @ q <= b_ub + tol))


def pair_rows_lp(env, direction, rows):
    """max direction.Q over the envelope's box and row cut by the pair rows, by
    ``solve_lp``: the oracle for its ``argmax``."""
    bounds = [(lo, None) for lo in env.lb]
    sol = solve_lp(LpProblem(c=-np.asarray(direction, dtype=float), a_eq=env.a_eq, b_eq=env.b_eq, a_ub=rows[0], b_ub=rows[1], bounds=bounds))
    assert sol.status == "optimal", sol.status
    return -sol.objective


def inf_convolution(outer, kernel, epsilon, x, starts=1, seed=0):
    """inf_Y outer(X - Y) + kernel(eps Y)/eps over atom-dimensional Y, by
    compass search from Y = 0 (where the value upper-bounds outer(X)) with
    optional random restarts: the oracle for the epi routes' exact duals."""
    vals = x.values
    rng = np.random.default_rng(seed)
    span = max(1.0, float(vals[-1] - vals[0]))

    def obj(y):
        return outer(DiscreteRv(vals - y, x.probs)) + kernel(DiscreteRv(epsilon * y, x.probs)) / epsilon

    best = obj(np.zeros(vals.size))
    for trial in range(max(starts, 1)):
        y0 = np.zeros(vals.size) if trial == 0 else rng.normal(scale=0.3 * span, size=vals.size)
        best = min(best, compass_search(obj, y0, step=0.5 * span, tol=1e-12, diagonals=True)[1])
    return best


def epi_l2_slsqp(v, p, alpha, lam):
    """max E[QX] over the CVaR_alpha envelope cut by the ball E(Q - 1)^2 <= lam^2,
    by SLSQP (scipy): the oracle for the L2 kernel's epi dual."""
    from scipy.optimize import minimize

    cons = [
        {"type": "eq", "fun": lambda q: p @ q - 1.0, "jac": lambda q: p},
        {"type": "ineq", "fun": lambda q: lam * lam - p @ (q - 1.0) ** 2, "jac": lambda q: -2.0 * p * (q - 1.0)},
    ]
    res = minimize(
        lambda q: -(p @ (q * v)),
        np.ones(v.size),
        jac=lambda q: -(p * v),
        bounds=[(0.0, 1.0 / (1.0 - alpha))] * v.size,
        constraints=cons,
        method="SLSQP",
        options={"ftol": 1e-16, "maxiter": 1000},
    )
    assert res.success, res.message
    return -res.fun


# -- LP oracles (HiGHS through scipy) for the decisions -------------------------------


def _highs(c, a_ub, b_ub, bounds, a_eq=None, b_eq=None):
    from scipy.optimize import linprog

    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs-ds")
    assert res.status == 0, res.message
    return res.x


def _pad(a_eq, width):
    return None if a_eq is None else np.hstack((np.atleast_2d(a_eq), np.zeros((np.atleast_2d(a_eq).shape[0], width))))


def _epigraph_lp(terms, cost, bounds=None, a_eq=None, b_eq=None):
    """min cost.theta + sum_k w_k F_k(b_k - A_k theta) as the epigraph LP,
    written here from each F_k's own data: t_i >= s Z_i + k for each atom
    and affine loss piece (s, k), t free; for a moment-max form u_i >= Z_i,
    u >= 0 and M >= a E[Z] + b E[u] + c for each term.  theta is its first
    len(cost) columns."""
    c_theta = np.asarray(cost, dtype=float)
    n = c_theta.size
    blocks = []  # per term: rows on theta, rows on its auxiliaries, rhs, their costs and bounds
    for f, a, b, p, w in terms:
        a, b, p = np.asarray(a, dtype=float).reshape(-1, n), np.asarray(b, dtype=float), np.asarray(p, dtype=float)
        m = b.size
        if f.loss is not None and f.loss.piecewise_linear:
            s, k = (np.array(col) for col in zip(*f.loss.pieces))
            rows = (-s[None, :, None] * a[:, None, :]).reshape(-1, n)
            aux, rhs = np.repeat(-np.eye(m), s.size, axis=0), -(k + s * b[:, None]).ravel()
            aux_cost, aux_bounds = w * p, [(None, None)] * m
        else:
            ta, tb, tc = (np.array(col) for col in zip(*f.moment_max.terms))
            pa, pb = p @ a, float(np.dot(p, b))
            rows = np.vstack((-a, -ta[:, None] * pa))
            aux = np.block([[-np.eye(m), np.zeros((m, 1))], [tb[:, None] * p, -np.ones((ta.size, 1))]])
            rhs = np.concatenate((-b, -ta * pb - tc))
            aux_cost, aux_bounds = np.append(np.zeros(m), w), [(0.0, None)] * m + [(None, None)]
        blocks.append((rows, aux, rhs, aux_cost, aux_bounds))
    n_aux = sum(blk[1].shape[1] for blk in blocks)
    a_ub = np.zeros((sum(blk[0].shape[0] for blk in blocks), n + n_aux))
    r, col = 0, n
    for rows, aux, _, _, _ in blocks:
        a_ub[r : r + rows.shape[0], :n] = rows
        a_ub[r : r + rows.shape[0], col : col + aux.shape[1]] = aux
        r, col = r + rows.shape[0], col + aux.shape[1]
    return LpProblem(
        c=np.concatenate([c_theta] + [blk[3] for blk in blocks]),
        a_eq=_pad(a_eq, n_aux),
        b_eq=b_eq,
        a_ub=a_ub,
        b_ub=np.concatenate([blk[2] for blk in blocks]),
        bounds=list(bounds or [(None, None)] * n) + [bd for blk in blocks for bd in blk[4]],
    )


def highs_affine(terms, cost, bounds=None, a_eq=None, b_eq=None):
    """argmin over theta of the epigraph LP (``_epigraph_lp``), solved by
    HiGHS: the oracle of ``minimize_affine``."""
    lp = _epigraph_lp(terms, cost, bounds, a_eq, b_eq)
    return _highs(lp.c, lp.a_ub, lp.b_ub, lp.bounds, lp.a_eq, lp.b_eq)[: np.size(cost)]


def primal_affine(terms, cost, bounds=None, a_eq=None, b_eq=None):
    """The epigraph LP (``_epigraph_lp``) solved by ``solve_lp``: the oracle
    of ``minimize_affine``'s boxed dual and epigraph.  Returns theta, the
    LP's value and whether an alternate optimum moves theta."""
    n = np.size(cost)
    sol = solve_lp(_epigraph_lp(terms, cost, bounds, a_eq, b_eq))
    assert sol.status == "optimal", sol.status
    return sol.x[:n], float(sol.objective), any(j < n for j in sol.degenerate_columns)


def cvar_rank_weights(n, beta):
    """CVaR_beta of n equiprobable atoms as weights on their ascending order statistics."""
    top = np.arange(1, n + 1) / n
    return np.maximum(top - np.maximum(top - 1.0 / n, beta), 0.0) / (1.0 - beta)


def cvar2_rank_weights(n, alpha):
    """The second-order CVaR, (1/(1-alpha)) int_alpha^1 CVaR_b db, of n
    equiprobable atoms as weights on their ascending order statistics:
    (G(c_i) - G(max(a_i, alpha)))/(1 - alpha) on the CDF segment (a_i, c_i],
    G(t) = t log(1 - alpha) + (1 - t) log(1 - t) + t."""
    def g(t):
        s = 1.0 - t
        return t * np.log(1.0 - alpha) + np.where(s > 0.0, s * np.log(np.where(s > 0.0, s, 1.0)), 0.0) + t

    top = np.arange(1, n + 1) / n
    return np.where(top > alpha, g(top) - g(np.maximum(top - 1.0 / n, alpha)), 0.0) / (1.0 - alpha)


def spectral_lp(a, b, weights, cost, bounds=None, a_eq=None, b_eq=None):
    """argmin over theta of cost.theta + sum_i w_i Z_(i), Z = b - A theta on
    equiprobable atoms and w nondecreasing weights on its ascending order
    statistics, by HiGHS: sum_i w_i Z_(i) = sum_k (w_k - w_{k-1}) S_k, with
    S_k, the sum of the n - k + 1 largest Z_i, = min_C (n - k + 1) C +
    sum_i (Z_i - C)_+."""
    from scipy import sparse

    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    m, n = a.shape
    steps = np.diff(np.concatenate(([0.0], weights)))
    ks = np.flatnonzero(steps > 0.0)
    nk = ks.size
    # u_ki >= b_i - A_i theta - C_k
    a_ub = sparse.hstack((sparse.csr_matrix(np.tile(-a, (nk, 1))), -sparse.kron(sparse.eye(nk), np.ones((m, 1))), -sparse.eye(nk * m))).tocsr()
    c = np.concatenate((cost, steps[ks] * (m - ks), np.repeat(steps[ks], m)))
    bounds = list(bounds or [(None, None)] * n) + [(None, None)] * nk + [(0.0, None)] * (nk * m)
    return _highs(c, a_ub, np.tile(-b, nk), bounds, _pad(a_eq, c.size - n), b_eq)[:n]


def dro_envelope_value(p, w):
    """The DRO objective at a fixed decision w: the worst-case expected
    portfolio loss over the ball of the ``DroProblem`` p, by its envelope route."""
    j = StochasticDivergenceJ.from_phi(p.phi, normalized=True)
    val, _ = family_eval_envelope(j, p.tau, DiscreteRv(-(p.scenarios @ np.asarray(w)), p.probs))
    return val


def cutting_planes_cold(oracle, x0, bounds, a_eq=None, b_eq=None, rounds=2500, scale=1.0, constraint=None, widen=()):
    """``cutting_planes`` with every master solved by ``solve_lp`` from the
    slack basis on all the rows so far: the oracle of the warm masters.  The
    same rounds, stops and widening; ``pivots`` sums the masters' pivots."""
    n = np.size(x0)
    bounds = list(bounds) + [(None, None)]
    a_eq_lp = None if a_eq is None else np.hstack((a_eq, np.zeros((len(a_eq), 1))))
    rows, rhs = [], []
    upper, lower, widened_at = math.inf, -math.inf, math.inf
    x_best, pivots = None, 0
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
        bounds[-1] = (lower / scale if lower > -math.inf else None, None)
        sol = solve_lp(LpProblem(np.append(np.zeros(n), 1.0), a_eq_lp, b_eq, np.asarray(rows), np.asarray(rhs), bounds))
        if sol.status != "optimal":
            raise RuntimeError(f"cutting-plane master LP {sol.status}")
        pivots += sol.pivots
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
    return CuttingPlaneResult(x_best, upper, max(upper - lower, 0.0), k, pivots)
