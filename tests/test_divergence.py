import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskquad.core import DiscreteRv, StatInterval, cvar_direct, ess_bounds, expectation
from riskquad.constructions import RegretFn, project_error, regret_to_risk
from riskquad import divergence
from riskquad.checks import run_quadrangle_checks
from riskquad.divergence import (
    DivergenceFn,
    StochasticDivergenceJ,
    _kl_risk,
    _per_atom_argmax,
    _pearson_shift,
    classify_divergence,
    cvar_indicator_regret,
    cvar_indicator_regret_family,
    divergence_value,
    family_eval_envelope,
    family_eval_perspective,
    make_divergence,
    make_divergence_quadrangle,
    perspective_quadrangle,
    verify_conjugate,
)
from riskquad.measures import CatalogSpec, expectile_value, make_catalog_quadrangle
from riskquad.robust import kernel_quadratic_regret
from riskquad.solvers import LpProblem, solve_lp

from helpers import generic_divergence_quadrangle, kl_risk_bisect, random_rv, random_rvs, wide_rvs

U5 = DiscreteRv.uniform([1, 2, 3, 4, 5])
SYM = DiscreteRv([-1, 1], [0.5, 0.5])


@pytest.mark.parametrize("name", ["kl", "tv", "pearson", "extended_pearson"])
def test_named_conjugates_verified(name):
    assert verify_conjugate(make_divergence(name)) <= 1e-8


def test_gep_conjugate_verified():
    assert verify_conjugate(make_divergence("gen_extended_pearson", q=0.7)) <= 1e-8


def test_divergence_values():
    kl = make_divergence("kl")
    p = np.array([0.5, 0.5])
    assert divergence_value(kl, np.ones(2), p) == pytest.approx(0.0)
    pearson = make_divergence("pearson")
    assert divergence_value(pearson, np.array([0.0, 2.0]), p) == pytest.approx(1.0)
    tv = make_divergence("tv")
    assert divergence_value(tv, np.array([0.5, 1.5]), p) == pytest.approx(0.5)
    assert divergence_value(tv, np.array([-0.5, 2.5]), p) == math.inf


def test_entropy_grows_when_off_hyperplane_for_stochastic():
    kl = make_divergence("kl")
    j = StochasticDivergenceJ.from_phi(kl, normalized=True)
    p = np.array([0.5, 0.5])
    assert j(np.ones(2), p) == pytest.approx(0.0)
    assert j(np.array([0.5, 1.0]), p) == math.inf  # off the density hyperplane


# -- perspective route ----------------------------------------------------------


def test_perspective_worked_example():
    rng = np.random.default_rng(0)
    parent = lambda y: y.moment(lambda v: v * v)
    for tau in (0.25, 1.0, 4.0):
        for _ in range(5):
            x = random_rv(rng)
            want = 2.0 * math.sqrt(tau) * math.sqrt(x.moment(lambda v: v * v))
            assert family_eval_perspective(parent, tau, x) == pytest.approx(want, abs=1e-8)


def test_perspective_variance_parent():
    assert family_eval_perspective(lambda y: y.variance(), 1.0, SYM) == pytest.approx(2.0, abs=1e-10)


def test_perspective_zero_rv():
    parent = lambda y: y.moment(lambda v: v * v)
    assert family_eval_perspective(parent, 1.7, DiscreteRv.constant(0.0)) == pytest.approx(0.0, abs=1e-12)


def test_family_monotone_and_concave_in_tau():
    rng = np.random.default_rng(1)
    parent = lambda y: y.moment(lambda v: v * v)
    for _ in range(4):
        x = random_rv(rng)
        taus = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
        vals = np.array([family_eval_perspective(parent, t, x) for t in taus])
        assert np.all(np.diff(vals) >= -1e-7)
        mid = np.array([family_eval_perspective(parent, 0.5 * (a + b), x) for a, b in zip(taus[:-1], taus[1:])])
        assert np.all(mid >= 0.5 * (vals[:-1] + vals[1:]) - 1e-7)


# -- envelope route ---------------------------------------------------------------


def test_tv_envelope_closed_form():
    j = StochasticDivergenceJ.from_phi(make_divergence("tv"), normalized=True)
    val, q = family_eval_envelope(j, 0.8, U5)
    want = 0.4 * 5.0 + 0.6 * cvar_direct(U5, 0.4)
    assert val == pytest.approx(want, abs=1e-9)
    assert val == pytest.approx(4.4, abs=1e-9)
    assert divergence_value(make_divergence("tv"), q, U5.probs) <= 0.8 + 1e-7


def test_envelope_limits():
    for name in ("kl", "tv"):
        j = StochasticDivergenceJ.from_phi(make_divergence(name), normalized=True)
        small = DiscreteRv([0.1, 0.4, 0.8], [0.3, 0.4, 0.3])  # modest variance
        lo, _ = family_eval_envelope(j, 1e-6, small)
        hi, _ = family_eval_envelope(j, 1e6, small)
        assert abs(lo - expectation(small)) <= 1e-3
        assert abs(hi - ess_bounds(small)[1]) <= 1e-3


@st.composite
def _ball_cases(draw, max_atoms=12):
    """A unit-scale r.v. of up to ``max_atoms`` atoms at least 0.01 apart, and
    a radius in [1e-6, 1e6]."""
    n = draw(st.integers(2, max_atoms))
    gaps = draw(st.lists(st.floats(0.01, 1.0), min_size=n - 1, max_size=n - 1))
    values = draw(st.floats(-3.0, 0.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    tau = 10.0 ** draw(st.floats(-6.0, 6.0))
    return DiscreteRv(values, weights / weights.sum()), tau


def _check_worst_case(div, tau, x, val, q, tol):
    """The density lies in the ball and attains the value."""
    p = x.probs
    assert abs(float(np.dot(p, q)) - 1.0) <= 1e-12
    assert np.all(q >= 0.0)
    assert divergence_value(div, q, p) <= tau * (1.0 + 1e-9) + 1e-15
    assert abs(float(np.dot(p, q * x.values)) - val) <= tol


@pytest.mark.parametrize("name", ["kl", "pearson"])
@given(_ball_cases())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_closed_envelope_routes_match_the_parametric_route(name, case):
    # the closed forms against the per-atom parametric maximizer of the same ball
    x, tau = case
    div = make_divergence(name)
    val, q = family_eval_envelope(StochasticDivergenceJ.from_phi(div, normalized=True), tau, x)
    generic = StochasticDivergenceJ.from_phi(dataclasses.replace(div, envelope_route=None), normalized=True)
    want, _ = family_eval_envelope(generic, tau, x)
    tol = 1e-11 * (1.0 + float(np.max(np.abs(x.values))))
    assert abs(val - want) <= tol
    _check_worst_case(div, tau, x, val, q, tol)


def test_envelope_of_a_phi_with_no_worst_case_route_names_what_it_lacks():
    # tv's phi is linear on each side of 1: per atom, q z - phi(q) has no
    # maximizer to search for, and without its closed route the ball has none
    tv = dataclasses.replace(make_divergence("tv"), envelope_route=None)
    x = DiscreteRv([-1.0, 0.5, 2.0, 3.0], [0.1, 0.4, 0.3, 0.2])
    with pytest.raises(ValueError, match="phi 'tv' has neither conj_grad nor an envelope_route"):
        family_eval_envelope(StochasticDivergenceJ.from_phi(tv, normalized=True), 0.5, x)


# the parametric route: extended_pearson, gen_extended_pearson(0.3) and kl
# (whose route takes the ball without the density row), and kl and pearson
# with their closed routes stripped
_PARAMETRIC_BALLS = [
    ("extended_pearson", None, False, True),
    ("extended_pearson", None, False, False),
    ("gen_extended_pearson", 0.3, False, True),
    ("gen_extended_pearson", 0.3, False, False),
    ("kl", None, False, False),
    ("kl", None, True, True),
    ("kl", None, True, False),
    ("pearson", None, True, True),
    ("pearson", None, True, False),
]


@pytest.mark.parametrize("name, level, strip, normalized", _PARAMETRIC_BALLS)
def test_parametric_envelope_is_positively_homogeneous(name, level, strip, normalized):
    # sup E[QX] over the ball at sX is s times that at X, from s = 1e-15 to
    # 1e15: the multipliers are searched in units of the atoms' spread
    div = make_divergence(name, q=level)
    if strip:
        div = dataclasses.replace(div, envelope_route=None)
    j = StochasticDivergenceJ.from_phi(div, normalized=normalized)
    rng = np.random.default_rng(6)
    for offset in (0.0, 50.0):
        x = DiscreteRv(offset + rng.normal(size=6), rng.dirichlet(np.ones(6)))
        want, _ = family_eval_envelope(j, 0.5, x)
        tol = 1e-11 * (1.0 + float(np.max(np.abs(x.values))))
        for k in range(-15, 16, 3):
            s = 10.0**k
            got, q = family_eval_envelope(j, 0.5, x.scale(s))
            assert abs(got - s * want) <= tol * s, (offset, k)
            assert divergence_value(div, q, x.probs) <= 0.5 * (1.0 + 1e-9)


def test_envelope_takes_the_budget_free_maximizer_where_it_lies_in_the_ball():
    # pearson's phi cut to dom [0, 3]: with a budget no density in the box can
    # spend, the worst case is the LP maximizer of E[QX] over the box (and
    # E[Q] = 1), top atoms at 3 and the rest at 0, at every scale; with a tight
    # one the worst case stays inside the box and is the extended_pearson one,
    # E[X] + sqrt(tau Var X)
    def phi(t):
        t = np.asarray(t, dtype=float)
        return np.where((t >= 0.0) & (t <= 3.0), (t - 1.0) ** 2, np.inf)

    def phi_conj(z):
        t = np.clip(1.0 + np.asarray(z, dtype=float) / 2.0, 0.0, 3.0)
        return t * z - (t - 1.0) ** 2

    box = DivergenceFn(
        phi=phi,
        phi_conj=phi_conj,
        dom=(0.0, 3.0),
        kind="divergence",
        label="box_pearson",
        conj_grad=lambda z: 1.0 + np.asarray(z, dtype=float) / 2.0,
    )
    rng = np.random.default_rng(11)
    x = DiscreteRv(rng.normal(size=6), rng.dirichlet(np.ones(6)))
    v, p = x.values, x.probs
    for normalized in (True, False):
        j = StochasticDivergenceJ.from_phi(box, normalized=normalized)
        lp = solve_lp(
            LpProblem(
                c=-p * v,
                a_eq=p[None, :] if normalized else None,
                b_eq=np.ones(1) if normalized else None,
                bounds=[(0.0, 3.0)] * v.size,
            )
        )
        assert lp.status == "optimal"
        for k in (-15, 0, 15):
            s = 10.0**k
            val, q = family_eval_envelope(j, 10.0, x.scale(s))
            assert abs(val - s * -lp.objective) <= 1e-12 * s * (1.0 + np.max(np.abs(v)))
            assert divergence_value(box, q, p) <= 10.0
    j = StochasticDivergenceJ.from_phi(box, normalized=True)
    want = x.mean() + math.sqrt(0.05 * x.variance())
    val, q = family_eval_envelope(j, 0.05, x)
    assert np.all((q > 0.0) & (q < 3.0))
    assert abs(val - want) <= 1e-11 * (1.0 + np.max(np.abs(v)))
    # extended_pearson has no budget-free maximizer, so the point mass on ess
    # sup X is no worst case even where it lies in the ball
    ext = StochasticDivergenceJ.from_phi(make_divergence("extended_pearson"), normalized=True)
    ind = DiscreteRv([0.0, 1.0], [0.75, 0.25])
    val, _ = family_eval_envelope(ext, 10.0, ind)
    assert val == pytest.approx(0.25 + math.sqrt(10.0 * 0.1875), rel=1e-12)


@pytest.mark.parametrize(
    "div",
    [
        make_divergence("kl"),
        make_divergence("pearson"),
        make_divergence("extended_pearson"),
        make_divergence("gen_extended_pearson", q=0.3),
        kernel_quadratic_regret()[1],
    ],
    ids=lambda div: div.label,
)
def test_per_atom_argmax_matches_the_golden_oracle(div):
    # the closed argmax, (phi*)'(z) clipped to the box and dom phi, against
    # golden section on the same phi, for |z| from 1e-6 to 1e6 on boxes that
    # bind and boxes that do not
    oracle = dataclasses.replace(div, conj_grad=None)
    mags = np.logspace(-6.0, 6.0, 13)
    z = np.concatenate((-mags[::-1], mags))
    for lo, hi in ((-math.inf, math.inf), (0.25, 4.0), (-math.inf, 2.0), (0.5, math.inf)):
        q = _per_atom_argmax(div, z, lo, hi)
        assert np.all((q >= max(lo, div.dom[0])) & (q <= min(hi, div.dom[1])))
        # the oracle's bracket grows from q = 1 by steps up to 2^60
        reach = np.abs(q) <= 1e12
        want = q[reach] * z[reach] - div.phi(q[reach])
        q_gold = _per_atom_argmax(oracle, z[reach], lo, hi)
        got = q_gold * z[reach] - div.phi(q_gold)
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want))), (lo, hi)


def _envelope_sup_tv(tau, x, normalized):
    """LP oracle for the polyhedral total-variation ball, over (q, s) with
    s_i >= |q_i - 1|, E[s] <= tau and q >= 0 (and E[Q] = 1 on the density
    ball).  The feasible set does not depend on X, so the objective is divided
    by max|X| and the value multiplied back, which keeps the LP's absolute
    pivot tolerances at the unit scale."""
    v, p = x.values, x.probs
    m = v.size
    unit = float(np.max(np.abs(v))) or 1.0
    eye = np.eye(m)
    a_ub = np.vstack([np.hstack([eye, -eye]), np.hstack([-eye, -eye]), np.append(np.zeros(m), p)])
    b_ub = np.concatenate([np.ones(m), -np.ones(m), [tau]])
    a_eq = np.append(p, np.zeros(m))[None, :] if normalized else None
    b_eq = np.ones(1) if normalized else None
    c = np.concatenate([-p * (v / unit), np.zeros(m)])
    sol = solve_lp(LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, bounds=[(0.0, None)] * (2 * m)))
    assert sol.status == "optimal"
    q = sol.x[:m]
    return float(np.dot(p, q * v)), q


@given(_ball_cases(), st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_tv_envelope_matches_the_lp_and_is_homogeneous(case, s):
    x, tau = case
    tau = min(tau, 1.99)
    tv = make_divergence("tv")
    j = StochasticDivergenceJ.from_phi(tv, normalized=True)
    val, q = family_eval_envelope(j, tau, x)
    scale = 1.0 + float(np.max(np.abs(x.values)))
    assert abs(val - _envelope_sup_tv(tau, x, True)[0]) <= 1e-12 * scale
    _check_worst_case(tv, tau, x, val, q, 1e-12 * scale)
    val_s, q_s = family_eval_envelope(j, tau, x.scale(s))
    assert abs(val_s - s * val) <= 1e-12 * s * scale
    assert np.array_equal(q_s, q)


@given(_ball_cases(), st.sampled_from([1e-6, 1e-3, 1e3, 1e6]), st.booleans())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_tv_lp_is_homogeneous_with_and_without_the_density_constraint(case, s, normalized):
    # the closed route of both balls: the LP's value at unit scale, and
    # R(sX) = s R(X) with the same density at every scale
    x, tau = case
    tau = min(tau, 1.99)
    scale = 1.0 + float(np.max(np.abs(x.values)))
    j = StochasticDivergenceJ.from_phi(make_divergence("tv"), normalized=normalized)
    val, q = family_eval_envelope(j, tau, x)
    assert abs(val - _envelope_sup_tv(tau, x, normalized)[0]) <= 1e-12 * scale
    val_s, q_s = family_eval_envelope(j, tau, x.scale(s))
    assert abs(val_s - s * val) <= 1e-12 * s * scale
    assert np.array_equal(q_s, q)


@st.composite
def _tv_free_cases(draw):
    """Up to 12 atoms at least 0.01 apart (one atom: a constant), offset by
    up to 1e3, and a radius in [1e-3, 10]."""
    n = draw(st.integers(1, 12))
    gaps = draw(st.lists(st.floats(0.01, 1.0), min_size=n - 1, max_size=n - 1))
    offset = draw(st.sampled_from([0.0, 2.0, -2.0, -10.0, 1e3, -1e3])) + draw(st.floats(-1.0, 1.0))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    tau = 10.0 ** draw(st.floats(-3.0, 1.0))
    return DiscreteRv(offset + np.concatenate(([0.0], np.cumsum(gaps))), weights / weights.sum()), tau


@given(_tv_free_cases())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_tv_ball_without_the_density_constraint_matches_the_lp(case):
    x, tau = case
    tv = make_divergence("tv")
    val, q = family_eval_envelope(StochasticDivergenceJ.from_phi(tv, normalized=False), tau, x)
    scale = 1.0 + float(np.max(np.abs(x.values)))
    assert abs(val - _envelope_sup_tv(tau, x, False)[0]) <= 1e-12 * scale
    assert np.all(q >= 0.0)
    assert divergence_value(tv, q, x.probs) <= tau * (1.0 + 1e-12)
    assert abs(float(np.dot(x.probs, q * x.values)) - val) <= 1e-12 * scale


@pytest.mark.parametrize(
    "name, tau, c, q_star",
    [
        ("kl", 1.0, 1.0, math.e),
        ("kl", 1.0, -1.0, 0.0),
        ("kl", 1.0, 0.0, None),
        ("pearson", 0.5, 2.0, 1.0 + math.sqrt(0.5)),
        ("pearson", 0.5, -2.0, 1.0 - math.sqrt(0.5)),
        ("tv", 0.5, 2.0, 1.5),
        ("tv", 0.5, -2.0, 0.5),
        ("tv", 3.0, -2.0, 0.0),
    ],
)
def test_envelope_of_a_constant_without_the_density_constraint(name, tau, c, q_star):
    # E[QX] = c E[Q]: the constant density farthest from 1 within the budget,
    # above 1 for c > 0, below for c < 0; the limit of X = {c, c + 1e-9}
    div = make_divergence(name)
    j = StochasticDivergenceJ.from_phi(div, normalized=False)
    val, q = family_eval_envelope(j, tau, DiscreteRv.constant(c))
    want = 0.0 if q_star is None else c * q_star
    assert val == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert divergence_value(div, q, np.ones(1)) <= tau * (1.0 + 1e-12)
    assert float(q[0] * c) == pytest.approx(val, rel=1e-15, abs=1e-15)
    near, _ = family_eval_envelope(j, tau, DiscreteRv([c, c + 1e-9]))
    assert abs(val - near) <= 1e-7


@pytest.mark.parametrize("name", ["kl", "pearson"])
def test_ball_without_the_density_constraint_at_a_nonpositive_x(name):
    # X <= 0: as l -> 0 every Q_i below 0 runs to 0, and where P(X < 0) phi(0)
    # is within the budget that limit is the worst case, of value 0; just
    # inside that budget the parametric route approaches it from below
    x = DiscreteRv([-2.0, -1.0, 0.0], [0.2, 0.3, 0.5])
    j = StochasticDivergenceJ.from_phi(make_divergence(name), normalized=False)
    val, q = family_eval_envelope(j, 0.5, x)
    assert val == 0.0 and np.array_equal(q, [0.0, 0.0, 1.0])
    near, q_near = family_eval_envelope(j, 0.5 * (1.0 - 1e-9), x)
    assert -1e-6 <= near < 0.0
    assert divergence_value(make_divergence(name), q_near, x.probs) <= 0.5 * (1.0 - 1e-9) * (1.0 + 1e-12)


@pytest.mark.parametrize("top", [0.26421099378398505, 0.3, 1.0, 0.123456789])
@pytest.mark.parametrize("name, tau", [("kl", 1.0), ("pearson", 10.0**0.6875), ("tv", 1.0)])
def test_envelope_density_feasible_at_near_tied_top_atoms(name, tau, top):
    # the top two atoms one ulp apart: the pearson minimizer then sits within
    # rounding of them, and (X - c*)_+ alone gave a density off the ball
    x = DiscreteRv([-0.8, -0.7, -0.45, -0.26, 0.19, top, np.nextafter(top, 2.0)])
    div = make_divergence(name)
    val, q = family_eval_envelope(StochasticDivergenceJ.from_phi(div, normalized=True), tau, x)
    _check_worst_case(div, tau, x, val, q, 1e-12)


def _density_grid_oracle(j, tau, x, resolution=200):
    """Exhaustive density-simplex scan at the given resolution (3 atoms)."""
    p = x.probs
    v = x.values
    best = -math.inf
    q1s = np.linspace(0.0, 1.0 / p[0], resolution + 1)
    q2s = np.linspace(0.0, 1.0 / p[1], resolution + 1)
    for q1 in q1s:
        rem = 1.0 - p[0] * q1
        if rem < -1e-12:
            continue
        for q2 in q2s:
            q3 = (rem - p[1] * q2) / p[2]
            if q3 < 0:
                continue
            q = np.array([q1, q2, q3])
            if j(q, p) <= tau:
                best = max(best, float(np.dot(p, q * v)))
    return best


def test_perspective_envelope_duality_small():
    # both routes against the density-simplex grid oracle on 3-atom instances
    rng = np.random.default_rng(2)
    kl = make_divergence("kl")
    j = StochasticDivergenceJ.from_phi(kl, normalized=True)

    def parent_risk(y):
        v, p = y.values, y.probs
        vmax = float(v[-1])
        return vmax + math.log(float(np.dot(p, np.exp(v - vmax))))

    for _ in range(3):
        x = random_rv(rng, max_atoms=3, span=1.5)
        while x.n_atoms != 3:
            x = random_rv(rng, max_atoms=3, span=1.5)
        tau = float(rng.uniform(0.05, 0.6))
        v_env, _ = family_eval_envelope(j, tau, x)
        v_per = family_eval_perspective(parent_risk, tau, x)
        assert v_env == pytest.approx(v_per, abs=1e-5)
        oracle = _density_grid_oracle(j.fn, tau, x)
        assert v_env >= oracle - 1e-6
        assert v_env <= oracle + 0.05 * (1.0 + abs(oracle))  # grid resolution slack


def test_envelope_generic_fallback():
    # a custom J without phi structure: squared euclidean distance to 1
    p = np.array([0.4, 0.6])

    def jfn(q, probs):
        q = np.asarray(q, dtype=float)
        if np.any(q < -1e-12) or abs(float(np.dot(probs, q)) - 1.0) > 1e-9:
            return math.inf
        return float(np.dot(probs, (q - 1.0) ** 2))

    j = StochasticDivergenceJ(fn=jfn, classification="stochastic_divergence")
    x = DiscreteRv([-1.0, 1.0], p)
    tau = 0.25
    val, q = family_eval_envelope(j, tau, x)
    # oracle: 1-D line of densities q = (1 + 0.6 t, 1 - 0.4 t)
    best = -math.inf
    for t in np.linspace(-5, 5, 40001):
        qq = np.array([1 + 0.6 * t, 1 - 0.4 * t])
        if np.all(qq >= 0) and jfn(qq, p) <= tau:
            best = max(best, float(np.dot(p, qq * x.values)))
    assert val == pytest.approx(best, abs=2e-3)


# -- divergence quadrangles ----------------------------------------------------------


def test_extended_pearson_quadrangle():
    q = make_divergence_quadrangle(make_divergence("extended_pearson"), 1.0)
    assert q.risk(SYM) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(3)
    for x in random_rvs(rng, 6):
        assert q.risk(x) == pytest.approx(x.mean() + x.std(), abs=1e-12)
    gen = generic_divergence_quadrangle(make_divergence("extended_pearson"), 1.0)
    for x in random_rvs(rng, 4):
        assert gen.risk(x) == pytest.approx(q.risk(x), abs=1e-7)
        assert gen.regret(x) == pytest.approx(q.regret(x), abs=1e-9)


def test_tv_quadrangle_closed_form_and_generic():
    beta = 0.8
    q = make_divergence_quadrangle(make_divergence("tv"), beta)
    assert q.risk(U5) == pytest.approx(4.4, abs=1e-9)
    gen = generic_divergence_quadrangle(make_divergence("tv"), beta)
    rng = np.random.default_rng(4)
    for x in random_rvs(rng, 5):
        assert gen.risk(x) == pytest.approx(q.risk(x), abs=1e-6)
        s_f, s_g = q.statistic(x), gen.statistic(x)
        # exact closed form vs the generic route's flat-recovery resolution
        assert abs(s_f.lo - s_g.lo) <= 1e-5 and abs(s_f.hi - s_g.hi) <= 1e-5
    with pytest.raises(ValueError):
        make_divergence_quadrangle(make_divergence("tv"), 2.5)


def test_kl_quadrangle_stationarity():
    beta = 0.5
    q = make_divergence_quadrangle(make_divergence("kl"), beta)
    gen = generic_divergence_quadrangle(make_divergence("kl"), beta)
    from riskquad.divergence import _kl_risk

    rng = np.random.default_rng(5)
    for x in random_rvs(rng, 5, span=2.0):
        val, lam = _kl_risk(x, beta)[:2]
        assert gen.risk(x) == pytest.approx(val, abs=1e-6)
        if lam > 0:
            v, p = x.values, x.probs
            mgf = float(np.dot(p, np.exp((v - v[-1]) / lam)))
            mean_tilt = float(np.dot(p, v * np.exp((v - v[-1]) / lam))) / mgf
            resid = lam * beta + lam * (math.log(mgf) + v[-1] / lam) - mean_tilt
            assert abs(resid) <= 1e-6


@pytest.mark.parametrize("x", [DiscreteRv.constant(-1.0), DiscreteRv([-3.0, -1.0], [0.5, 0.5])])
def test_lambda_edge_limit_agrees_across_routes(x):
    # at kl, beta = 2 and X <= 0 the infimum over lambda is the lambda -> 0 limit, 0, and every
    # value of the objective is above it
    kl = make_divergence("kl")
    beta = 2.0
    for scale in (1.0, 1e6):
        xs = x.scale(scale)
        generic = generic_divergence_quadrangle(kl, beta).regret(xs)
        persp = family_eval_perspective(lambda y: float(np.dot(y.probs, kl.phi_conj(y.values))), beta, xs)
        assert generic == persp
        assert make_divergence_quadrangle(kl, beta).regret(xs) == generic
        assert 0.0 <= generic <= 1e-15 * float(np.max(np.abs(xs.values))), (scale, generic)


def test_kl_quadrangle_limits():
    x = DiscreteRv([0.1, 0.4, 0.8], [0.3, 0.4, 0.3])
    lo = make_divergence_quadrangle(make_divergence("kl"), 1e-6)
    hi = make_divergence_quadrangle(make_divergence("kl"), 1e6)
    assert lo.risk(x) == pytest.approx(expectation(x), abs=1e-3)
    assert hi.risk(x) == pytest.approx(ess_bounds(x)[1], abs=1e-3)


def test_gep_quadrangle_statistic_expectile_beta_free():
    q_level = 0.75
    stats = []
    for beta in (0.5, 1.0, 2.0):
        qg = make_divergence_quadrangle(make_divergence("gen_extended_pearson", q=q_level), beta)
        stats.append(qg.statistic(U5).midpoint)
    want = expectile_value(U5, q_level)
    assert max(stats) - min(stats) <= 1e-6
    assert stats[0] == pytest.approx(want, abs=1e-9)
    # generic route agrees
    gen = generic_divergence_quadrangle(make_divergence("gen_extended_pearson", q=q_level), 1.0)
    assert gen.risk(U5) == pytest.approx(
        make_divergence_quadrangle(make_divergence("gen_extended_pearson", q=q_level), 1.0).risk(U5), abs=1e-6
    )
    # an asymmetric input tells q from 1 - q: both routes weight the upside by q
    skew = DiscreteRv([0.0, 1.0, 3.0, 7.0], [0.1, 0.2, 0.3, 0.4])
    for q_level in (0.3, 0.7):
        div = make_divergence("gen_extended_pearson", q=q_level)
        closed, gen = make_divergence_quadrangle(div, 1.0), generic_divergence_quadrangle(div, 1.0)
        assert closed.statistic(skew).midpoint == pytest.approx(expectile_value(skew, q_level), abs=1e-9)
        assert gen.statistic(skew).midpoint == pytest.approx(expectile_value(skew, q_level), abs=1e-6)
        assert gen.risk(skew) == pytest.approx(closed.risk(skew), abs=1e-6)


def test_closed_forms_ride_on_the_divergence_not_its_label():
    renamed = dataclasses.replace(make_divergence("kl"), label="renamed")
    q = make_divergence_quadrangle(renamed, 0.5)
    assert not q.label.endswith("|generic")
    x = DiscreteRv([0.0, 1.0, 3.0], [0.2, 0.5, 0.3])
    assert q.risk(x) == _kl_risk(x, 0.5)[0]


# -- EVaR's multiplier: Newton on the tilt's variance against the bisection oracle --

# an input whose budget lies below the kl slope's rounding: the slope stays
# negative to the end of its meaningful range, where bisection's widening of
# its bracket once ran until exp(ln l) overflowed
FLOOR_VALUES = [-25072.43247198949, -20772.158047693658, -4283.540709420372, -4062.1214626506576,
                835.4365534614718, 13478.689690111849, 21582.371258947176, 28929.21047529919]
FLOOR_MASS, FLOOR_BETA = 2.0924978679528735e-13, 7.524708992502402e-17


@given(wide_rvs(), st.floats(-8.0, math.log10(0.999)))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_kl_newton_matches_the_bisection_oracle(x, log_share):
    # every budget short of the point mass's divergence, down to 1e-8 of it
    beta = 10.0**log_share * -math.log(float(np.max(x.probs)))
    top = float(np.max(np.abs(x.values)))
    val, lam, w, mean_w = _kl_risk(x, beta)
    assert x.mean() - 1e-14 * top <= val <= x.values[-1]
    assert mean_w == float(np.dot(x.probs, w))
    if beta > divergence._KL_FLOOR:
        want = kl_risk_bisect(x, beta)[0]
        assert abs(val - want) <= 1e-12 * top, (val, want, lam)


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
def test_kl_budget_below_the_slopes_rounding_gives_the_large_l_limit(scale):
    x = DiscreteRv(np.array(FLOOR_VALUES) * scale, [FLOOR_MASS] * 7 + [1.0 - 7.0 * FLOOR_MASS])
    q = make_divergence_quadrangle(make_divergence("kl"), FLOOR_BETA)
    lo, hi = x.mean(), float(x.values[-1])
    risk, stat = q.risk(x), q.statistic(x)
    # E X + sqrt(2 beta Var X) and E X + sqrt(beta Var X / 2), inside [E X, ess sup X]
    assert risk == pytest.approx(lo + math.sqrt(2.0 * FLOOR_BETA * x.variance()), abs=1e-15 * hi)
    assert stat.lo == stat.hi == pytest.approx(lo + math.sqrt(0.5 * FLOOR_BETA * x.variance()), abs=1e-15 * hi)
    assert lo <= stat.lo <= risk <= hi


def test_kl_risk_100000_atoms():
    rng = np.random.default_rng(11)
    x = DiscreteRv(rng.standard_normal(100_000), rng.dirichlet(np.ones(100_000)))
    top = float(np.max(np.abs(x.values)))
    for beta in (1e-4, 0.5, 4.0):
        val, lam = _kl_risk(x, beta)[:2]
        want, want_lam = kl_risk_bisect(x, beta)[:2]
        assert abs(val - want) <= 1e-12 * top, beta
        assert abs(lam - want_lam) <= 1e-9 * want_lam, beta


def test_gep_level_is_kept_at_full_precision():
    q_level = 0.123456789
    qg = make_divergence_quadrangle(make_divergence("gen_extended_pearson", q=q_level), 1.0)
    for x in (U5, DiscreteRv([0.0, 1.0, 3.0, 7.0], [0.1, 0.2, 0.3, 0.4])):
        assert abs(qg.statistic(x).midpoint - expectile_value(x, q_level)) <= 1e-12


def _assert_routes_agree(closed, gen, x):
    """Closed members against the generic oracle: regret and error to 1e-9 max|X|,
    risk and deviation to 1e-6 max|X|, the closed statistic inside the generic
    flat set widened by 1e-6 max|X|."""
    top = float(np.max(np.abs(x.values)))
    for member in ("regret", "error"):
        assert abs(getattr(closed, member)(x) - getattr(gen, member)(x)) <= 1e-9 * top, member
    risk, flat = regret_to_risk(gen.regret_fn, x)
    assert abs(closed.risk(x) - risk) <= 1e-6 * top
    assert abs(closed.deviation(x) - (risk - x.mean())) <= 1e-6 * top
    stat = closed.statistic(x)
    assert flat.lo - 1e-6 * top <= stat.lo and stat.hi <= flat.hi + 1e-6 * top, (stat, flat)


def test_pearson_quadrangle_fast_vs_generic():
    pearson = make_divergence("pearson")
    q = make_divergence_quadrangle(pearson, 1.0)
    gen = generic_divergence_quadrangle(pearson, 1.0)
    rng = np.random.default_rng(6)
    for x in random_rvs(rng, 4):
        _assert_routes_agree(q, gen, x)


def test_pearson_quadrangle_on_a_symmetric_pair():
    # V(X) = E X + sqrt(beta E X^2) where X >= -2 l*, so R(X) = min_C C + V(X - C) is
    # E X + sqrt(beta (Var X + (E X - C)^2)) at its minimizer, the point C = E X
    pearson = make_divergence("pearson")
    q = make_divergence_quadrangle(pearson, 0.5)
    gen = generic_divergence_quadrangle(pearson, 0.5)
    for member in ("regret", "error"):
        assert getattr(q, member)(SYM) == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert abs(getattr(q, member)(SYM) - getattr(gen, member)(SYM)) <= 1e-9
    stat = q.statistic(SYM)
    assert abs(stat.lo) <= 1e-12 and abs(stat.hi) <= 1e-12


PHIS = [("kl", None), ("tv", None), ("pearson", None), ("extended_pearson", None), ("gen_extended_pearson", 0.7)]
MEMBERS = ("risk", "deviation", "regret", "error")


def _quadrangle_draws(rng, n):
    """n random r.v.s of 1 to 8 atoms on [-3, 3], each with a budget in [0.1, 1.6]."""
    out = []
    for _ in range(n):
        k = int(rng.integers(1, 9))
        out.append((DiscreteRv(rng.uniform(-3.0, 3.0, k), rng.dirichlet(np.ones(k))), float(rng.uniform(0.1, 1.6))))
    return out


@pytest.mark.parametrize("name, level", PHIS)
def test_divergence_quadrangles_are_positively_homogeneous(name, level):
    div = make_divergence(name, q=level)
    for x, beta in _quadrangle_draws(np.random.default_rng(21), 8):
        q = make_divergence_quadrangle(div, beta)
        unit = {member: getattr(q, member)(x) for member in MEMBERS}
        stat, top = q.statistic(x), float(np.max(np.abs(x.values)))
        for k in (-12, -9, -6, -3, 3, 6, 9, 12):
            s = 10.0**k
            y = x.scale(s)
            for member, want in unit.items():
                assert abs(getattr(q, member)(y) / s - want) <= 1e-12 * (1.0 + abs(want)), (member, s)
            got = q.statistic(y)
            assert max(abs(got.lo / s - stat.lo), abs(got.hi / s - stat.hi)) <= 1e-12 * (1.0 + top), s


@pytest.mark.parametrize("name, level", PHIS)
def test_closed_routes_agree_with_the_generic_oracle(name, level):
    div = make_divergence(name, q=level)
    for x, beta in _quadrangle_draws(np.random.default_rng(22), 4):
        closed, gen = make_divergence_quadrangle(div, beta), generic_divergence_quadrangle(div, beta)
        for s in (1e-3, 1.0, 1e3):
            _assert_routes_agree(closed, gen, x.scale(s))


@pytest.mark.parametrize("name, want", [("kl", 2.43570981622), ("pearson", 2.15442279903)])
def test_generic_risk_is_its_density_ball_at_every_scale(name, want):
    # the generic risk, the support of the density ball, scales with X where
    # projecting the phi-regret by golden section read 5.562 for kl at s = 1e-12
    div = make_divergence(name)
    closed, gen = make_divergence_quadrangle(div, 0.5), generic_divergence_quadrangle(div, 0.5)
    for s in (1e-12, 1e-9, 1.0, 1e9):
        x = DiscreteRv(s * np.array([-1.0, 0.5, 2.0, 3.0]), np.array([0.1, 0.4, 0.3, 0.2]))
        ref = closed.risk(x) / s
        assert abs(ref - want) <= 1e-11 * want, (s, ref)
        assert abs(gen.risk(x) / s - ref) <= 1e-14 * abs(ref), (s, gen.risk(x) / s, ref)


@st.composite
def _pearson_cases(draw):
    """Up to 9 atoms at scales 1e-3 to 1e3 and a budget in [0.1, 30]."""
    n = draw(st.integers(1, 9))
    values = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    scale = 10.0 ** draw(st.sampled_from([-3.0, 0.0, 3.0]))
    beta = 10.0 ** draw(st.floats(-1.0, math.log10(30.0)))
    return DiscreteRv(scale * values, weights / weights.sum()), beta


@given(_pearson_cases())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_pearson_closed_statistic_and_risk(case):
    # the shift c* is a point, inside the flat set that golden section finds for the
    # shifted form's regret sqrt((1 + beta) E X_+^2), which generates the same risk; the
    # statistic m(c*) = c* + E(X - c*)_+ lies in the phi-regret's flat set, and the risk
    # is the density ball's envelope
    x, beta = case
    pearson = make_divergence("pearson")
    q = make_divergence_quadrangle(pearson, beta)
    stat, risk = q.statistic(x), q.risk(x)
    scale = 1.0 + float(np.max(np.abs(x.values)))
    shifted = RegretFn(fn=lambda y: math.sqrt((1.0 + beta) * y.moment(lambda t: np.maximum(t, 0.0) ** 2)), flags=q.flags)
    golden_risk, golden_shift = regret_to_risk(shifted, x)
    c_star = _pearson_shift(x, 1.0 + beta)[0]
    tie = (1.0 + beta) * float(x.probs[-1]) == 1.0
    shifts = StatInterval(float(x.values[-2]) if tie else c_star, c_star)
    if not tie:
        assert stat.lo == stat.hi
    assert golden_shift.lo <= shifts.lo and shifts.hi <= golden_shift.hi
    m = lambda c: c + float(np.dot(x.probs, np.maximum(x.values - c, 0.0)))
    assert stat == StatInterval(m(shifts.lo), m(shifts.hi))
    assert risk <= golden_risk + 1e-12 * scale and golden_risk - risk <= 1e-9 * scale
    _, flat = regret_to_risk(q.regret_fn, x)
    top = float(np.max(np.abs(x.values)))
    assert flat.lo - 1e-6 * top <= stat.lo and stat.hi <= flat.hi + 1e-6 * top
    envelope, _ = family_eval_envelope(StochasticDivergenceJ.from_phi(pearson, normalized=True), beta, x)
    assert risk == pytest.approx(envelope, rel=1e-15, abs=1e-15 * scale)


@pytest.mark.parametrize("x", [DiscreteRv([0.0, 1.0], [0.5, 0.5]), DiscreteRv([-2.0, 0.0, 1.0], [0.25, 0.25, 0.5])])
def test_pearson_statistic_at_the_tie(x):
    # (1 + beta) P(ess sup) = 1: every shift c from the next atom, 0, up to ess sup is optimal,
    # and the multiplier m(c) = c + E(X - c)_+ maps them onto [0.5, 1]
    pearson = make_divergence("pearson")
    q = make_divergence_quadrangle(pearson, 1.0)
    assert q.statistic(x) == StatInterval(0.5, 1.0)
    assert q.risk(x) == 1.0
    flat = generic_divergence_quadrangle(pearson, 1.0).statistic(x)
    assert abs(flat.lo - 0.5) <= 1e-3 and abs(flat.hi - 1.0) <= 1e-6


def test_divergence_quadrangle_mean_centering():
    rng = np.random.default_rng(7)
    for name, kw in (("kl", {}), ("tv", {}), ("pearson", {}), ("extended_pearson", {}), ("gen_extended_pearson", {"q": 0.7})):
        div = make_divergence(name, **kw)
        q = make_divergence_quadrangle(div, 0.6)
        for x in random_rvs(rng, 3, span=1.5):
            m = x.mean()
            assert q.risk(x) - q.deviation(x) == pytest.approx(m, abs=1e-9)
            assert q.regret(x) - q.error(x) == pytest.approx(m, abs=1e-9)


@pytest.mark.parametrize(
    "name, level, beta",
    [("kl", None, 0.5), ("tv", None, 0.8), ("pearson", None, 0.8), ("extended_pearson", None, 0.8), ("gen_extended_pearson", 0.7, 0.8)],
)
def test_divergence_quadrangle_invariant_suite(name, level, beta):
    q = make_divergence_quadrangle(make_divergence(name, q=level), beta)
    failures = [r for r in run_quadrangle_checks(q, rng=np.random.default_rng(17), n_rvs=10) if not r.passed]
    assert not failures, failures


def test_beta_validation():
    with pytest.raises(ValueError):
        make_divergence_quadrangle(make_divergence("kl"), 0.0)


# -- projected families satisfy the quadrangle identities ----------------------------


def test_perspective_quadrangle_members_consistent():
    base = make_catalog_quadrangle(CatalogSpec("standard_mean", {"lam": 1.0}))
    fam = perspective_quadrangle(base, 0.7)
    rng = np.random.default_rng(8)
    for x in random_rvs(rng, 3, max_atoms=4):
        m = x.mean()
        assert fam.risk(x) - fam.deviation(x) == pytest.approx(m, abs=1e-6)
        assert fam.regret(x) - fam.error(x) == pytest.approx(m, abs=1e-6)
        # projecting the transformed error reproduces the transformed deviation
        from riskquad.constructions import ErrorFn, Flags

        dev, _ = project_error(ErrorFn(fn=fam.error, flags=Flags()), x)
        assert dev == pytest.approx(fam.deviation(x), abs=1e-6)


# -- classification -------------------------------------------------------------------


def test_classify_divergence_kinds():
    p = np.array([0.25, 0.5, 0.25])
    kl = make_divergence("kl")
    root = StochasticDivergenceJ.from_phi(kl, normalized=False)
    sd = StochasticDivergenceJ.from_phi(kl, normalized=True)
    assert classify_divergence(root, p)["classification"] == "divergence_root"
    assert classify_divergence(sd, p)["classification"] == "stochastic_divergence"

    def l2norm(q, probs):
        return math.sqrt(float(np.dot(probs, np.asarray(q) ** 2)))

    rep = classify_divergence(StochasticDivergenceJ(fn=l2norm, classification="general"), p)
    assert not rep["zero_at_one"]
    assert rep["classification"] == "general"


# -- the indicator regret generating CVaR ---------------------------------------------


def test_indicator_regret_values():
    assert cvar_indicator_regret(DiscreteRv([-2, 0], [0.5, 0.5])) == 0.0
    assert cvar_indicator_regret(DiscreteRv([1, 2], [0.5, 0.5])) == math.inf


def test_indicator_family_reproduces_cvar():
    rng = np.random.default_rng(9)
    for alpha in (0.4, 0.6, 0.75):
        tau = alpha / (1 - alpha)
        vfam = cvar_indicator_regret_family(tau)
        for _ in range(5):
            x = random_rv(rng, max_atoms=3)
            r, _ = regret_to_risk(vfam, x)
            assert r == pytest.approx(cvar_direct(x, alpha), abs=1e-6)
