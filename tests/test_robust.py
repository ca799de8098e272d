import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskquad.core import DiscreteRv, cvar_direct, expectation
from riskquad.constructions import regret_to_risk
from riskquad.divergence import DivergenceFn, _kl_risk, make_divergence
from riskquad.dual import cvar_envelope
from riskquad.measures import CatalogSpec, make_catalog_quadrangle
from riskquad.solvers import solve_lp
from riskquad.robust import (
    DroProblem,
    _project_simplex,
    _project_simplex_mean,
    EpiSpec,
    dro_envelope_value,
    dro_solve,
    epi_regret,
    epi_regret_divroot,
    epi_regret_fn,
    epi_risk_dual,
    epi_risk_primal,
    kernel_l2_regret,
    kernel_quadratic_regret,
    portfolio_optimize,
)

from helpers import LP_FAMILIES, epi_l2_slsqp, inf_convolution, random_rv, within


def _cvar_spec(alpha, probs, epsilon, kernel="quadratic", lam=1.0):
    kern, kconj = kernel_quadratic_regret() if kernel == "quadratic" else kernel_l2_regret(lam)
    return EpiSpec(
        base_risk=lambda y: cvar_direct(y, alpha),
        kernel=kern,
        epsilon=epsilon,
        base_envelope=cvar_envelope(alpha, probs),
        kernel_conj=kconj,
    )


# -- epi-regularization ----------------------------------------------------------


def test_epi_constant_fidelity_exact():
    p = np.array([0.5, 0.5])
    spec = _cvar_spec(0.5, np.array([1.0]), 1.0)
    for c in (-3.0, 0.0, 5.0):
        spec_c = _cvar_spec(0.5, np.array([1.0]), 1.0)
        assert epi_risk_primal(spec_c, DiscreteRv.constant(c)) == c


def test_epi_bounds():
    rng = np.random.default_rng(0)
    for _ in range(6):
        x = random_rv(rng, max_atoms=3)
        spec = _cvar_spec(0.5, x.probs, 1.0)
        v = epi_risk_primal(spec, x)
        assert v >= expectation(x) - 1e-9
        assert v <= cvar_direct(x, 0.5) + 1e-9  # Y = 0 upper bound


def test_epi_primal_dual_and_grid_2atoms():
    p = np.array([0.5, 0.5])
    x = DiscreteRv([-1.0, 1.0], p)
    spec = _cvar_spec(0.5, p, 1.0)
    vp = epi_risk_primal(spec, x)
    vd = epi_risk_dual(spec, x)
    assert abs(vp - vd) <= 1e-6
    # grid oracle over Y: coarse scan plus one local refinement, on numpy
    # grids; CVaR_0.5 of two equally likely atoms is the larger
    kern, _ = kernel_quadratic_regret()

    def val_at(y1, y2):
        return np.maximum(x.values[0] - y1, x.values[1] - y2) + 0.5 * (y1 + y1 * y1 + y2 + y2 * y2)

    y = np.array([0.3, -0.2])
    assert val_at(*y) == pytest.approx(cvar_direct(DiscreteRv(x.values - y, p), 0.5) + kern(DiscreteRv(y, p)), abs=1e-15)
    a, b = np.meshgrid(np.linspace(-3, 3, 121), np.linspace(-3, 3, 121), indexing="ij")
    coarse = val_at(a, b)
    i = np.argmin(coarse)
    best, a0, b0 = coarse.flat[i], a.flat[i], b.flat[i]
    da, db = np.meshgrid(np.linspace(-0.1, 0.1, 81), np.linspace(-0.1, 0.1, 81), indexing="ij")
    best = min(best, float(np.min(val_at(a0 + da, b0 + db))))
    assert vp <= best + 1e-9
    assert vp >= best - 1e-4


def test_epi_primal_dual_3atoms():
    rng = np.random.default_rng(1)
    for _ in range(4):
        x = random_rv(rng, max_atoms=3, span=2.0)
        while x.n_atoms != 3:
            x = random_rv(rng, max_atoms=3, span=2.0)
        eps = float(rng.uniform(0.3, 2.0))
        spec = _cvar_spec(0.5, x.probs, eps)
        vp = epi_risk_primal(spec, x)
        vd = epi_risk_dual(spec, x)
        assert abs(vp - vd) <= 1e-4


@given(st.integers(2, 3), st.floats(0.3, 2.0), st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None, derandomize=True)
def test_epi_recovered_primal_is_bracketed(k, eps, draw):
    # weak duality below (to the rounding of the two evaluations), the
    # compass-search primal above; both routes are translation equivariant,
    # R(X + c) = R(X) + c, at offsets up to 1e6
    rng = np.random.default_rng(draw)
    x = DiscreteRv(rng.uniform(-2.0, 2.0, k), rng.dirichlet(np.ones(k)))
    spec = _cvar_spec(0.5, x.probs, eps)
    vp = epi_risk_primal(spec, x)
    vd = epi_risk_dual(spec, x)
    assert vd <= vp + 1e-15 * (1.0 + abs(vp))
    assert vp <= inf_convolution(spec.base_risk, spec.kernel, eps, x, 3, 0) + 1e-9
    for c in (1e3, -1e3, 1e6, -1e6):
        y = x.shift(c)
        assert abs(epi_risk_dual(spec, y) - c - vd) <= 1e-13 * (1.0 + abs(c))
        assert abs(epi_risk_primal(spec, y) - c - vp) <= 1e-13 * (1.0 + abs(c))


def test_epi_waterfill_matches_its_golden_oracle():
    # the waterfill through golden section per atom, on the kernel conjugate
    # without its closed argmax, against the closed route
    rng = np.random.default_rng(5)
    for k in (2, 3, 5):
        x = DiscreteRv(rng.uniform(-2.0, 2.0, k), rng.dirichlet(np.ones(k)))
        spec = _cvar_spec(0.5, x.probs, float(rng.uniform(0.3, 2.0)))
        oracle = dataclasses.replace(spec, kernel_conj=dataclasses.replace(spec.kernel_conj, conj_grad=None))
        assert epi_risk_dual(oracle, x) == pytest.approx(epi_risk_dual(spec, x), abs=1e-9)
        assert epi_risk_primal(oracle, x) == pytest.approx(epi_risk_primal(spec, x), abs=1e-9)


def test_epi_dual_l2_kernel_matches_primal():
    p = np.array([0.5, 0.5])
    x = DiscreteRv([-1.0, 1.0], p)
    spec = _cvar_spec(0.5, p, 1.0, kernel="l2")
    vp = epi_risk_primal(spec, x)
    vd = epi_risk_dual(spec, x)
    assert abs(vp - vd) <= 1e-4


def _l2_cases():
    # (alpha, lam, values, probs), drawn in order from one generator
    rng = np.random.default_rng(3)
    cases = ((8, 0.5, 0.5), (12, 0.8, 0.7), (12, 0.5, 3.0))
    return [(alpha, lam, rng.normal(size=m), rng.dirichlet(np.ones(m))) for m, alpha, lam in cases]


@pytest.mark.parametrize("alpha, lam, v, p", _l2_cases(), ids=["8-atoms", "12-atoms", "12-atoms-cvar-in-ball"])
def test_epi_l2_kernel_matches_the_slsqp_oracle(alpha, lam, v, p):
    # the L2 kernel's conjugate is the Pearson ball E(Q - 1)^2 <= lam^2, so its
    # epi dual is that ball cut by the CVaR box and row; at lam = 3 the CVaR
    # density lies inside the ball and the value is CVaR itself
    x = DiscreteRv(v, p)
    spec = _cvar_spec(alpha, x.probs, 1.0, kernel="l2", lam=lam)
    vd = epi_risk_dual(spec, x)
    vp = epi_risk_primal(spec, x)
    assert within(vd, epi_l2_slsqp(x.values, x.probs, alpha, lam))
    assert -1e-15 * (1.0 + abs(vd)) <= vp - vd <= 1e-12 * (1.0 + abs(vd))


@pytest.mark.parametrize("kernel", ["quadratic", "l2"])
def test_epi_regret_matches_the_compass_oracle(kernel):
    # the epi-regularized CVaR regret E[X_+]/(1 - alpha) as the dual over the
    # box [0, 1/(1 - alpha)], against compass search on the infimal convolution;
    # lam is the L2 kernel's radius and the quadratic kernel's epsilon
    for seed, m, lam in itertools.product(range(6), (2, 3), (0.3, 1.0, 3.0)):
        rng = np.random.default_rng(seed)
        x = DiscreteRv(rng.normal(size=m), rng.dirichlet(np.ones(m)))
        eps = lam if kernel == "quadratic" else 1.0
        spec = _cvar_spec(0.5, x.probs, eps, kernel=kernel, lam=lam)
        oracle = inf_convolution(lambda y: 2.0 * y.mean_pos(), spec.kernel, eps, x)
        assert -1e-12 <= oracle - epi_regret(spec, x) <= 1e-9


def test_epi_spec_without_envelope_or_conjugate_is_rejected():
    x = DiscreteRv([-1.0, 1.0])
    bare = EpiSpec(base_risk=lambda y: cvar_direct(y, 0.5), kernel=kernel_quadratic_regret()[0], epsilon=1.0)
    with pytest.raises(ValueError, match="box-plus-row base envelope and a kernel conjugate"):
        epi_risk_dual(bare, x)
    with pytest.raises(ValueError, match="kernel conjugate"):
        epi_regret(dataclasses.replace(bare, base_envelope=cvar_envelope(0.5, x.probs)), x)


def test_epi_eps_limit_recovers_mean():
    # with a kernel whose conjugate is positive off Q = 1, eps -> 0 forces Q = 1
    p = np.array([0.5, 0.5])
    x = DiscreteRv([-1.0, 1.0], p)
    spec = _cvar_spec(0.5, p, 1e-6)
    assert epi_risk_dual(spec, x) == pytest.approx(expectation(x), abs=1e-3)
    assert epi_risk_primal(spec, x) == pytest.approx(expectation(x), abs=1e-2)


def test_epi_risk_midpoint_convexity():
    # convexity of the epi-regularized risk on a shared atom grid
    rng = np.random.default_rng(11)
    p = np.array([0.4, 0.6])
    spec = _cvar_spec(0.5, p, 0.8)
    for _ in range(4):
        a = rng.uniform(-2, 2, 2)
        b = rng.uniform(-2, 2, 2)
        va = epi_risk_primal(spec, DiscreteRv(a, p))
        vb = epi_risk_primal(spec, DiscreteRv(b, p))
        vm = epi_risk_primal(spec, DiscreteRv(0.5 * (a + b), p))
        assert vm <= 0.5 * (va + vb) + 1e-7


def test_epi_regret_identity():
    # projecting the epi-regularized regret reproduces the epi-regularized risk
    rng = np.random.default_rng(2)
    for _ in range(2):
        x = random_rv(rng, max_atoms=3, span=2.0)
        spec = _cvar_spec(0.5, x.probs, 1.0)
        vp = epi_risk_primal(spec, x)
        r_route, _ = regret_to_risk(epi_regret_fn(spec), x, want_interval=False)
        assert abs(r_route - vp) <= 1e-5


def test_epi_regret_zero_and_self_convolution_bound():
    p = np.array([0.5, 0.5])
    spec = _cvar_spec(0.5, p, 1.0)
    assert epi_regret(spec, DiscreteRv.constant(0.0)) == pytest.approx(0.0, abs=1e-12)
    # the kernel is the base regret itself, whose conjugate is the indicator
    # of the box [0, 2]: the zero penalty on that domain
    zero_on_box = DivergenceFn(
        phi=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        phi_conj=lambda z: 2.0 * np.maximum(np.asarray(z, dtype=float), 0.0),
        dom=(0.0, 2.0),
        kind="divergence",
        label="zero_on_box",
    )
    rng = np.random.default_rng(3)
    for _ in range(4):
        x = random_rv(rng, max_atoms=2)
        base = 2.0 * x.mean_pos()
        kern = lambda y: 2.0 * y.mean_pos()
        self_spec = EpiSpec(
            base_risk=lambda y: cvar_direct(y, 0.5),
            kernel=kern,
            epsilon=1.0,
            base_envelope=cvar_envelope(0.5, p),
            kernel_conj=zero_on_box,
        )
        assert epi_regret(self_spec, x) <= base + 1e-9


def test_epi_divroot_per_atom():
    kl = make_divergence("kl")
    p = np.array([0.5, 0.5])
    x = DiscreteRv([-1.0, 1.0], p)
    box = (np.zeros(2), np.full(2, 2.0))
    val = epi_regret_divroot(box, kl, 1.0, x)
    # 2-d grid oracle, on a numpy grid
    qs = np.linspace(1e-9, 2.0, 2001)
    q1, q2 = np.meshgrid(qs, qs, indexing="ij")
    phi = lambda t: t * np.log(t) - t + 1.0
    best = float(np.max(0.5 * (-q1 + q2) - 0.5 * (phi(q1) + phi(q2))))
    assert val == pytest.approx(best, abs=1e-6)
    assert epi_regret_divroot(box, kl, 1.0, DiscreteRv.constant(0.0)) == pytest.approx(0.0, abs=1e-10)


def test_epi_divroot_degenerate_penalty_recovers_base():
    # a zero penalty on the domain recovers the base regret support value; on
    # the [0, 2] box kl's domain [0, inf) is the zero penalty's
    zero_phi = dataclasses.replace(
        make_divergence("kl"), phi=lambda t: np.zeros_like(np.asarray(t, dtype=float)), conj_grad=None
    )
    p = np.array([0.5, 0.5])
    x = DiscreteRv([-1.0, 1.0], p)
    box = (np.zeros(2), np.full(2, 2.0))
    val = epi_regret_divroot(box, zero_phi, 1.0, x)
    assert val == pytest.approx(2.0 * x.mean_pos(), abs=1e-9)


# -- DRO ---------------------------------------------------------------------------


def test_dro_routes_agree_and_matches_evar_grid():
    rng = np.random.default_rng(4)
    scen = rng.uniform(-1.0, 1.5, size=(3, 2))
    tau = 0.3
    sol = dro_solve(DroProblem(scen, make_divergence("kl"), tau), steps=800)
    assert sol.route_gap <= 1e-4
    env_val = dro_envelope_value(DroProblem(scen, make_divergence("kl"), tau), sol.weights)
    assert abs(env_val - sol.value) <= 1e-4
    best = math.inf
    for w1 in np.arange(0.0, 1.0001, 0.0025):
        w = np.array([w1, 1.0 - w1])
        v, _ = _kl_risk(DiscreteRv(-(scen @ w), None), tau)
        best = min(best, v)
    assert sol.value == pytest.approx(best, abs=1e-4)


def test_dro_tau_limits():
    rng = np.random.default_rng(5)
    scen = rng.uniform(-0.5, 0.8, size=(3, 2))
    lo = dro_solve(DroProblem(scen, make_divergence("kl"), 1e-6), steps=400)
    best_mean = math.inf
    worst_case = math.inf
    for w1 in np.arange(0.0, 1.0001, 0.0025):
        w = np.array([w1, 1.0 - w1])
        best_mean = min(best_mean, float(np.mean(-(scen @ w))))
        worst_case = min(worst_case, float(np.max(-(scen @ w))))
    assert lo.value == pytest.approx(best_mean, abs=5e-3)  # sqrt(2 tau) sigma smoothing term
    hi = dro_solve(DroProblem(scen, make_divergence("kl"), 1e6), steps=400)
    assert hi.value == pytest.approx(worst_case, abs=5e-3)


def test_dro_riskfree_dominance():
    # one risk-free asset dominating every atom of the risky one
    scen = np.array([[0.05, -0.1], [0.05, 0.02], [0.05, 0.04]])
    sol = dro_solve(DroProblem(scen, make_divergence("kl"), 0.5), steps=800)
    assert sol.weights[0] == pytest.approx(1.0, abs=1e-3)
    assert sol.value == pytest.approx(-0.05, abs=1e-3)


def test_dro_worst_case_density_feasible():
    rng = np.random.default_rng(6)
    scen = rng.uniform(-1, 1, size=(4, 2))
    prob = DroProblem(scen, make_divergence("kl"), 0.4)
    sol = dro_solve(prob, steps=800)
    q = sol.worst_case_density
    assert np.all(q >= -1e-9)
    assert float(np.dot(prob.probs, q)) == pytest.approx(1.0, abs=1e-6)
    kl_val = float(np.dot(prob.probs, q * np.log(np.maximum(q, 1e-300)) - q + 1.0))
    assert kl_val <= 0.4 + 1e-6


def _certified(sol, grid_best):
    """The certificate brackets the grid: lower = value - route_gap lies at or
    below the best grid point (to the rounding of one evaluation), and the
    value is no worse than it."""
    assert sol.route_gap >= 0.0
    assert sol.value - sol.route_gap <= grid_best + 1e-15 * (1.0 + abs(grid_best))
    assert sol.value <= grid_best + 1e-12 * (1.0 + abs(grid_best))


@given(
    st.integers(2, 8),
    st.sampled_from(["kl", "pearson", "tv"]),
    st.floats(-3.0, 1.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_dro_certificate_brackets_the_weight_grid(m, phi, log_tau, draw):
    scen = np.random.default_rng(draw).uniform(-1.0, 1.5, size=(m, 2))
    prob = DroProblem(scen, make_divergence(phi), 10.0**log_tau)
    sol = dro_solve(prob)
    # the rounds stop at a gap of 1e-12 (1 + |value|), or a few times that where
    # the master LP's pivot tolerance hides the last cut at a kink of G
    assert sol.route_gap <= 1e-10 * (1.0 + abs(sol.value))
    assert np.all(sol.weights >= 0.0) and abs(sol.weights.sum() - 1.0) <= 1e-12
    _certified(sol, min(dro_envelope_value(prob, [w1, 1.0 - w1]) for w1 in np.linspace(0.0, 1.0, 201)))


def test_dro_stops_when_the_master_repeats_a_decision(monkeypatch):
    # at this optimum two losses tie; the master LP's pivot tolerance hides the
    # last few 1e-12 of the cut there, and it returns the same weights again
    import riskquad.robust as robust

    solves = []

    def counting(problem):
        solves.append(problem)
        return solve_lp(problem)

    monkeypatch.setattr(robust, "solve_lp", counting)
    scen = np.random.default_rng(431).uniform(-1.0, 1.5, size=(4, 2))
    sol = dro_solve(DroProblem(scen, make_divergence("kl"), 1.0))
    assert len(solves) <= 10
    assert 0.0 <= sol.route_gap <= 1e-10 * (1.0 + abs(sol.value))


@pytest.mark.parametrize("phi", ["kl", "pearson", "tv"])
def test_dro_daily_annual_homogeneity(phi):
    # the optimum is positively homogeneous in the scenarios: the daily problem
    # is the annual one scaled by 1e-2, certified to 1e-12 in each
    scen = np.random.default_rng(9).normal(0.05, 0.2, size=(12, 3))
    annual = dro_solve(DroProblem(scen, make_divergence(phi), 1.0))
    daily = dro_solve(DroProblem(1e-2 * scen, make_divergence(phi), 1.0))
    assert abs(daily.value / 1e-2 - annual.value) <= 1e-9 * (1.0 + abs(annual.value))


def test_dro_target_mean_row():
    scen = np.random.default_rng(10).uniform(-1.0, 1.5, size=(8, 3))
    means = scen.mean(axis=0)
    target = float(means.min() + 0.4 * (means.max() - means.min()))
    prob = DroProblem(scen, make_divergence("kl"), 0.5, target_mean=target)
    sol = dro_solve(prob)
    assert abs(float(means @ sol.weights) - target) <= 1e-12
    assert np.all(sol.weights >= 0.0) and abs(sol.weights.sum() - 1.0) <= 1e-12
    # the feasible set is the segment where the mean row crosses the simplex's edges
    ends = []
    for i, j in itertools.combinations(range(3), 2):
        lam = (target - means[j]) / (means[i] - means[j])
        if 0.0 <= lam <= 1.0:
            w = np.zeros(3)
            w[i], w[j] = lam, 1.0 - lam
            ends.append(w)
    a, b = ends[0], ends[-1]
    _certified(sol, min(dro_envelope_value(prob, a + t * (b - a)) for t in np.linspace(0.0, 1.0, 201)))


def test_dro_infeasible_target_mean():
    scen = np.array([[0.1, 0.2], [0.0, 0.1]])
    with pytest.raises(ValueError):
        dro_solve(DroProblem(scen, make_divergence("kl"), 0.3, target_mean=0.9))


# -- portfolio front end --------------------------------------------------------------


def test_portfolio_single_asset():
    scen = np.array([[0.1], [-0.2], [0.05]])
    w, v = portfolio_optimize(None, scen, cvar_alpha=0.5)
    assert w[0] == pytest.approx(1.0)
    assert v == pytest.approx(cvar_direct(DiscreteRv(-scen[:, 0]), 0.5), abs=1e-9)


def test_portfolio_identical_assets():
    scen = np.tile(np.array([[0.1], [-0.2], [0.05]]), (1, 2))
    w, v = portfolio_optimize(None, scen, cvar_alpha=0.5)
    assert v == pytest.approx(cvar_direct(DiscreteRv(-scen[:, 0]), 0.5), abs=1e-9)
    assert w.sum() == pytest.approx(1.0)


def _grid_portfolio(scen, risk, step=0.01):
    """min over two-asset weights of risk(-S w): a 0.01-step weight grid with
    one local refinement pass (for a piecewise-linear risk the objective is
    piecewise linear in w, so the coarse grid alone resolves only to
    slope * step)."""

    def value(w1):
        ww = np.array([w1, 1.0 - w1])
        return risk(DiscreteRv(-(scen @ ww), None))

    grid = np.arange(0.0, 1.0 + step / 2, step)
    vals = [value(w1) for w1 in grid]
    i = int(np.argmin(vals))
    lo = max(grid[i] - step, 0.0)
    hi = min(grid[i] + step, 1.0)
    fine = np.linspace(lo, hi, 4001)
    return min(min(vals), min(value(w1) for w1 in fine))


def _grid_cvar_portfolio(scen, alpha, step=0.01):
    return _grid_portfolio(scen, lambda x: cvar_direct(x, alpha), step)


def test_portfolio_cvar_lp_vs_weight_grid():
    rng = np.random.default_rng(7)
    for _ in range(4):
        scen = rng.uniform(-1.0, 1.0, size=(3, 2))
        w, v = portfolio_optimize(None, scen, cvar_alpha=0.5)
        best = _grid_cvar_portfolio(scen, 0.5)
        assert v == pytest.approx(best, abs=1e-4)
        # the LP never loses to any coarse grid point
        for w1 in np.arange(0.0, 1.0001, 0.01):
            ww = np.array([w1, 1.0 - w1])
            assert v <= cvar_direct(DiscreteRv(-(scen @ ww), None), 0.5) + 1e-9


def test_portfolio_generic_quartet_route():
    q = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.5}))
    rng = np.random.default_rng(8)
    scen = rng.uniform(-1.0, 1.0, size=(3, 2))
    w_lp, v_lp = portfolio_optimize(None, scen, cvar_alpha=0.5)
    w_gen, v_gen = portfolio_optimize(q.risk, scen, steps=2500)
    assert v_gen == pytest.approx(v_lp, abs=1e-4)


@pytest.mark.parametrize("i", range(len(LP_FAMILIES)))
def test_portfolio_lp_at_least_as_good_as_descent(i):
    # a quadrangle whose regret carries LP data solves one LP; its bare risk
    # takes the multistart descent, the oracle
    q = make_catalog_quadrangle(CatalogSpec(*LP_FAMILIES[i]))
    rng = np.random.default_rng(60 + i)
    m, k = ((3, 2), (6, 3))[i % 2]
    scen = rng.uniform(-1.0, 1.0, size=(m, k))
    probs = rng.dirichlet(np.ones(m))
    w, v = portfolio_optimize(q, scen, probs=probs)
    _, v_descent = portfolio_optimize(q.risk, scen, probs=probs, steps=300)
    assert v <= v_descent + 1e-12 * (1.0 + abs(v_descent))
    assert within(q.risk(DiscreteRv(-(scen @ w), probs)), v)
    assert np.all(w >= 0.0) and within(w.sum(), 1.0)
    # a mean target halfway between the extreme asset means: the row holds
    # and the minimum cannot fall
    means = probs @ scen
    target = 0.5 * (means.min() + means.max())
    w_t, v_t = portfolio_optimize(q, scen, probs=probs, target_mean=target)
    assert within(float(means @ w_t), target) and v_t >= v - 1e-12 * (1.0 + abs(v))
    assert within(q.risk(DiscreteRv(-(scen @ w_t), probs)), v_t)


@pytest.mark.parametrize(
    "probs",
    [[0.5, 0.5], [0.6, 0.6, -0.2], [0.0, 0.0, 0.0], [0.5, math.nan, 0.5], [0.5, math.inf, 0.5]],
    ids=["length", "negative", "zero-sum", "nan", "inf"],
)
def test_bad_scenario_probabilities_rejected(probs):
    scen = np.array([[0.1, -0.05], [0.02, 0.08], [-0.04, 0.03]])
    with pytest.raises(ValueError):
        portfolio_optimize(None, scen, probs=probs, cvar_alpha=0.5)
    with pytest.raises(ValueError):
        DroProblem(scen, make_divergence("kl"), 0.3, probs=probs)


def test_simplex_mean_projection_at_a_tiny_mean_spread():
    # the row's excess is of order 1e-181, so its bisection compares signs of
    # values whose products underflow; the projection of 0 is then the point of
    # the row nearest the centroid, (1/4, 1/4, 1/2)
    means = np.array([0.0, 0.0, 3.9607638001401375e-181])
    x = _project_simplex_mean(np.zeros(3), means, 0.5 * means[2])
    assert np.max(np.abs(x - [0.25, 0.25, 0.5])) <= 1e-12


@given(
    st.integers(2, 8).flatmap(lambda n: st.tuples(*[st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)] * 2)),
    st.one_of(st.floats(0.0, 1.0), st.sampled_from([-1e-12, 1.0 + 1e-12])),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_simplex_mean_projection_is_exact(wm, frac):
    w, means = np.array(wm[0]), np.array(wm[1])
    lo, hi = float(means.min()), float(means.max())
    t = lo + frac * (hi - lo)
    x = _project_simplex_mean(w, means, t)
    assert np.all(x >= 0.0) and abs(float(x.sum()) - 1.0) <= 1e-12
    t_in = min(max(t, lo), hi)
    assert abs(float(means @ x) - t_in) <= 1e-12 * (1.0 + abs(t))
    # the KKT form x = simplex projection of w - b means: on the support w - x
    # is affine in the means, off it w lies below that line (checked where the
    # support's means spread enough to fit the line well)
    support = x > 0.0
    scale = 1e-10 * (1.0 + float(np.max(np.abs(w))))
    if np.ptp(means[support]) > 0.1:
        b, theta = np.polyfit(means[support], (w - x)[support], 1)
        assert np.max(np.abs(theta + b * means[support] - (w - x)[support])) <= scale
        assert np.all(w[~support] <= theta + b * means[~support] + scale)
        assert np.max(np.abs(_project_simplex(w - b * means) - x)) <= scale
    # optimality: (w - x).(y - x) <= 0 at every vertex y of the feasible set,
    # a single asset at the target mean or a pair straddling it
    vertices = [np.eye(w.size)[i] for i in range(w.size) if means[i] == t_in]
    for i, j in itertools.permutations(range(w.size), 2):
        if means[i] < t_in < means[j]:
            y = np.zeros(w.size)
            y[i], y[j] = (means[j] - t_in) / (means[j] - means[i]), (t_in - means[i]) / (means[j] - means[i])
            vertices.append(y)
    assert all(float((w - x) @ (y - x)) <= scale for y in vertices)


def _project_simplex_unshifted(w):
    # the projection before it shifted its input by max(w): the sweep's oracle
    n = w.size
    u = np.sort(w)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, n + 1) > (css - 1.0))[0][-1]
    return np.maximum(w - (css[rho] - 1.0) / float(rho + 1), 0.0)


def test_simplex_projection_of_an_entry_far_above_the_rest():
    # unshifted, u_1 * 1 > css_1 - 1 rounds to false here and no index qualifies
    with pytest.raises(IndexError):
        _project_simplex_unshifted(np.array([2.0**54, 0.0, 0.0]))
    assert _project_simplex(np.array([2.0**54, 0.0, 0.0])).tolist() == [1.0, 0.0, 0.0]
    assert _project_simplex(np.array([0.0, -1e300, 1e300])).tolist() == [0.0, 0.0, 1.0]


def test_simplex_projection_at_large_offsets():
    rng = np.random.default_rng(91)
    eps = np.finfo(float).eps
    for offset in (0.0, 1.0, -1.0, 1e3, -1e3, 1e6, -1e6, 1e9, -1e9, 1e12, -1e12, 1e15, -1e15):
        for _ in range(60):
            n = int(rng.integers(1, 9))
            w = offset + rng.uniform(-3.0, 3.0, n) * rng.choice([1e-3, 1.0, 10.0])
            x = _project_simplex(w)
            assert np.all(x >= 0.0) and abs(float(x.sum()) - 1.0) <= 1e-12
            # w - offset is exact (Sterbenz), so shift invariance holds bit for bit
            assert np.array_equal(x, _project_simplex(w - offset))
            old = _project_simplex_unshifted(w)
            if np.all(np.isfinite(old)):
                assert np.max(np.abs(x - old)) <= 2.0 * n * eps * (1.0 + float(np.max(np.abs(w))))


def test_bare_callable_portfolio_keeps_its_mean_row():
    # the projected descent for a risk without LP data: its weights meet the
    # mean row, and so cannot beat the LP of the same problem
    for seed in (70, 71):
        rng = np.random.default_rng(seed)
        scen = rng.uniform(-1.0, 1.0, size=(6, 3))
        probs = rng.dirichlet(np.ones(6))
        means = probs @ scen
        target = 0.5 * (means.min() + means.max())
        w, v = portfolio_optimize(lambda x: cvar_direct(x, 0.5), scen, probs=probs, target_mean=target, steps=300)
        _, v_lp = portfolio_optimize(None, scen, probs=probs, target_mean=target, cvar_alpha=0.5)
        assert np.all(w >= 0.0) and within(w.sum(), 1.0)
        assert within(float(means @ w), target)
        assert v >= v_lp - 1e-12 * (1.0 + abs(v_lp))


def test_portfolio_mean_constraint():
    scen = np.array([[0.1, -0.05], [0.02, 0.08], [-0.04, 0.03]])
    means = scen.mean(axis=0)
    target = 0.5 * (means[0] + means[1])
    w, v = portfolio_optimize(None, scen, cvar_alpha=0.5, target_mean=target)
    assert float(w @ means) == pytest.approx(target, abs=1e-8)
    with pytest.raises(ValueError):
        portfolio_optimize(None, scen, cvar_alpha=0.5, target_mean=1.0)
