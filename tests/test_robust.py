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

import riskquad.robust as robust
from riskquad.divergence import make_divergence_quadrangle

from helpers import LP_FAMILIES, cvar2_rank_weights, cvar_rank_weights, epi_l2_slsqp, highs_affine, inf_convolution, random_rv, spectral_lp, within


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
    # convexity of the epi-regularized risk on a shared atom grid; each
    # r.v. sorts its atoms, so each takes the envelope of its own probabilities
    rng = np.random.default_rng(11)
    p = np.array([0.4, 0.6])

    def primal(v):
        x = DiscreteRv(v, p)
        return epi_risk_primal(_cvar_spec(0.5, x.probs, 0.8), x)

    for _ in range(4):
        a = rng.uniform(-2, 2, 2)
        b = rng.uniform(-2, 2, 2)
        assert primal(0.5 * (a + b)) <= 0.5 * (primal(a) + primal(b)) + 1e-7


def test_epi_envelope_must_follow_the_sorted_atoms():
    # X lists 1 before -1, but its atoms sort to (-1, 1) with probabilities
    # (0.6, 0.4): an envelope built on (0.4, 0.6) would pair each atom with
    # the other's mass, giving dual 0.4236 and primal 0.4264 where 0.3917 is right
    x = DiscreteRv([1.0, -1.0], [0.4, 0.6])
    spec = _cvar_spec(0.5, np.array([0.4, 0.6]), 0.8)
    for fn in (epi_risk_dual, epi_risk_primal, epi_regret):
        with pytest.raises(ValueError, match="positive multiple of the probabilities"):
            fn(spec, x)
    right = _cvar_spec(0.5, x.probs, 0.8)
    assert epi_risk_dual(right, x) == pytest.approx(0.3917, abs=1e-4)
    assert abs(epi_risk_primal(right, x) - epi_risk_dual(right, x)) <= 1e-12
    # a positive multiple of the probabilities is the same row
    scaled = dataclasses.replace(right, base_envelope=dataclasses.replace(right.base_envelope, a_eq=2.0 * right.base_envelope.a_eq, b_eq=2.0 * right.base_envelope.b_eq))
    assert epi_risk_dual(scaled, x) == pytest.approx(epi_risk_dual(right, x), abs=1e-12)


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
    spec = _cvar_spec(0.5, np.ones(1), 1.0)
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
            base_envelope=cvar_envelope(0.5, x.probs),
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
    import riskquad.solvers as solvers

    solves = []

    def counting(problem):
        solves.append(problem)
        return solve_lp(problem)

    monkeypatch.setattr(solvers, "solve_lp", counting)
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


@pytest.fixture
def planes(monkeypatch):
    """The results of the cutting planes that ``portfolio_optimize`` runs."""
    runs = []

    def recording(*args, **kwargs):
        runs.append(robust_cutting_planes(*args, **kwargs))
        return runs[-1]

    robust_cutting_planes = robust.cutting_planes
    monkeypatch.setattr(robust, "cutting_planes", recording)
    return runs


def _strip_lp_data(q):
    """The quadrangle with its regret's LP data dropped, its subgradient kept."""
    return dataclasses.replace(q, regret_fn=dataclasses.replace(q.regret_fn, loss=None, moment_max=None))


def test_regret_without_lp_data_keeps_its_breakpoints():
    # the quantile regret without its moment-max form is scanned by its values
    # at the same breakpoints, and the slope route of the full regret agrees
    q = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.5}))
    stripped = _strip_lp_data(q).regret_fn
    for x in (DiscreteRv([1.0, 2.0, 3.0, 4.0], None), DiscreteRv([-1.0, 0.5, 2.0], [0.2, 0.5, 0.3])):
        value, interval = regret_to_risk(stripped, x)
        assert (value, interval) == regret_to_risk(q.regret_fn, x)
        assert interval == q.statistic(x) and within(value, q.risk(x))


def test_portfolio_generic_quartet_route(planes):
    # the quantile quadrangle without LP data runs the cutting planes on its
    # regret's subgradient; the LP route and a HiGHS oracle pin the optimum
    q = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.5}))
    rng = np.random.default_rng(8)
    scen = rng.uniform(-1.0, 1.0, size=(3, 2))
    w_lp, v_lp = portfolio_optimize(None, scen, cvar_alpha=0.5)
    w_gen, v_gen = portfolio_optimize(_strip_lp_data(q), scen)
    (res,) = planes
    assert abs(v_gen - v_lp) <= res.gap + 1e-12 * (1.0 + abs(v_lp))
    theta = spectral_lp(scen, np.zeros(3), cvar_rank_weights(3, 0.5), np.zeros(2), [(0.0, None)] * 2, np.ones((1, 2)), [1.0])
    v_or = q.risk(DiscreteRv(-(scen @ theta), None))
    assert abs(v_gen - v_or) <= res.gap + 1e-12 * (1.0 + abs(v_or))


@pytest.mark.parametrize("i", range(len(LP_FAMILIES)))
def test_portfolio_lp_at_least_as_good_as_descent(i):
    # a quadrangle whose regret carries LP data solves one LP; a HiGHS LP
    # written from the same data is the oracle
    q = make_catalog_quadrangle(CatalogSpec(*LP_FAMILIES[i]))
    rng = np.random.default_rng(60 + i)
    m, k = ((3, 2), (6, 3))[i % 2]
    scen = rng.uniform(-1.0, 1.0, size=(m, k))
    probs = rng.dirichlet(np.ones(m))
    a, cost = np.hstack((scen, np.ones((m, 1)))), np.append(np.zeros(k), 1.0)
    bounds = [(0.0, None)] * k + [(None, None)]

    def oracle(a_eq, b_eq):
        theta = highs_affine(q.regret_fn, a, np.zeros(m), probs, cost, bounds, a_eq, b_eq)
        return q.risk(DiscreteRv(-(scen @ theta[:k]), probs))

    w, v = portfolio_optimize(q, scen, probs=probs)
    assert v <= oracle(np.append(np.ones(k), 0.0)[None, :], [1.0]) + 1e-12 * (1.0 + abs(v))
    assert within(q.risk(DiscreteRv(-(scen @ w), probs)), v)
    assert np.all(w >= 0.0) and within(w.sum(), 1.0)
    # a mean target halfway between the extreme asset means: the row holds
    # and the minimum cannot fall
    means = probs @ scen
    target = 0.5 * (means.min() + means.max())
    w_t, v_t = portfolio_optimize(q, scen, probs=probs, target_mean=target)
    assert within(float(means @ w_t), target) and v_t >= v - 1e-12 * (1.0 + abs(v))
    if q.flags.positively_homogeneous:
        # the same decision at 1e-9 and 1e9 times the returns
        for s in (1e-9, 1e9):
            w_s, v_s = portfolio_optimize(q, s * scen, probs=probs)
            assert np.max(np.abs(w_s - w)) <= 1e-9 and abs(v_s / s - v) <= 1e-12 * (1.0 + abs(v))
    assert within(q.risk(DiscreteRv(-(scen @ w_t), probs)), v_t)
    rows = np.array([np.append(np.ones(k), 0.0), np.append(means, 0.0)])
    assert v_t <= oracle(rows, [1.0, target]) + 1e-12 * (1.0 + abs(v_t))


def _slsqp_portfolio(fun, scen, extra, target=None):
    """min fun(w, extra) over the simplex (and the mean row) by SLSQP (scipy)."""
    from scipy.optimize import minimize

    k = scen.shape[1]
    cons = [{"type": "eq", "fun": lambda z: z[:k].sum() - 1.0}]
    if target is not None:
        cons.append({"type": "eq", "fun": lambda z: scen.mean(axis=0) @ z[:k] - target})
    res = minimize(lambda z: fun(z[:k], z[k:]), np.append(np.full(k, 1.0 / k), extra[0]), method="SLSQP",
                   bounds=[(0.0, 1.0)] * k + extra[1], constraints=cons, options={"ftol": 1e-15, "maxiter": 2000})
    return res.x[:k]


@pytest.mark.parametrize("family", ["cvar2", "qsa", "tv", "standard_mean", "expectile_mse", "kl"])
def test_portfolio_cutting_planes_match_the_oracles(family, planes):
    # cvar2, qsa and tv are spectral risks, LPs at equal probabilities (HiGHS);
    # the smooth risks take SLSQP over the weights and their one multiplier
    rng = np.random.default_rng(21)
    scen = rng.normal(0.01, 0.05, size=(12, 3))
    means = scen.mean(axis=0)
    if family in ("kl", "tv"):
        q = make_divergence_quadrangle(make_divergence(family), 0.5)
    else:
        q = make_catalog_quadrangle(CatalogSpec(family, {"standard_mean": {"lam": 1.0}, "expectile_mse": {"q": 0.7}}.get(family, {"alpha": 0.5})))
    for target in (None, 0.5 * (means.min() + means.max())):
        planes.clear()
        w, v = portfolio_optimize(q, scen, target_mean=target)
        (res,) = planes
        assert res.gap <= 1e-4 * (1.0 + abs(v)) and within(q.risk(DiscreteRv(-(scen @ w), None)), v, 1e-9)
        assert np.all(w >= 0.0) and within(w.sum(), 1.0)
        if target is not None:
            assert within(float(means @ w), target)
        rows = [np.ones(3)] + ([] if target is None else [means])
        if family in ("cvar2", "qsa", "tv"):
            weights = {
                "cvar2": cvar2_rank_weights(12, 0.5),
                "qsa": 0.75 * cvar_rank_weights(12, 0.25) + 0.25 * cvar_rank_weights(12, 0.75),
                # beta ess sup + (1 - beta) CVaR_beta at beta = 0.25
                "tv": 0.25 * cvar_rank_weights(12, 11.0 / 12.0) + 0.75 * cvar_rank_weights(12, 0.25),
            }[family]
            w_or = spectral_lp(scen, np.zeros(12), weights, np.zeros(3), [(0.0, None)] * 3, np.array(rows), [1.0] + ([] if target is None else [target]))
            tol = 1e-12
        elif family == "standard_mean":
            w_or = _slsqp_portfolio(lambda w, _: float(np.mean(-(scen @ w)) + np.std(scen @ w)), scen, (np.zeros(0), []), target)
            tol = 1e-7
        elif family == "expectile_mse":
            def fun(w, c):
                z = -(scen @ w) - c[0]
                return float(c[0] + np.mean(z + 0.7 * np.maximum(z, 0.0) ** 2 + 0.3 * np.minimum(z, 0.0) ** 2))
            w_or = _slsqp_portfolio(fun, scen, (np.zeros(1), [(None, None)]), target)
            tol = 1e-7
        else:
            def fun(w, lam):
                z = -(scen @ w)
                top = z.max()
                return float(top + lam[0] * (0.5 + np.log(np.mean(np.exp((z - top) / lam[0])))))
            w_or = _slsqp_portfolio(fun, scen, (np.full(1, 0.05), [(1e-6, None)]), target)
            tol = 1e-7
        v_or = q.risk(DiscreteRv(-(scen @ w_or), None))
        # the certificate holds: the optimum lies in [v - gap, v], at or below the oracle's value
        assert v - res.gap <= v_or + 1e-12 * (1.0 + abs(v_or))
        assert v <= v_or + res.gap + tol * (1.0 + abs(v_or))
        if q.regret_fn.flags.positively_homogeneous:
            # the same decision at 1e-9 and 1e9 times the returns
            for s in (1e-9, 1e9):
                w_s, v_s = portfolio_optimize(q, s * scen, target_mean=None if target is None else s * target)
                assert np.max(np.abs(w_s - w)) <= 1e-6 and abs(v_s / s - v) <= 1e-9 * abs(v)


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


def test_bare_callable_portfolio_keeps_its_mean_row(planes):
    # the cutting planes keep the simplex and the mean row as rows of their
    # master, so their weights meet the row and cannot beat the LP of the same
    # problem; a bare risk callable carries no regret to decide by
    q = _strip_lp_data(make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.5})))
    for seed in (70, 71):
        rng = np.random.default_rng(seed)
        scen = rng.uniform(-1.0, 1.0, size=(6, 3))
        probs = rng.dirichlet(np.ones(6))
        means = probs @ scen
        target = 0.5 * (means.min() + means.max())
        w, v = portfolio_optimize(q, scen, probs=probs, target_mean=target)
        _, v_lp = portfolio_optimize(None, scen, probs=probs, target_mean=target, cvar_alpha=0.5)
        assert np.all(w >= 0.0) and within(w.sum(), 1.0)
        assert within(float(means @ w), target)
        assert v >= v_lp - 1e-12 * (1.0 + abs(v_lp))
        with pytest.raises(ValueError, match="bare risk callable"):
            portfolio_optimize(lambda x: cvar_direct(x, 0.5), scen, probs=probs, target_mean=target)
    # tv's regret decides by its envelope density, certified by the planes
    tv = make_divergence_quadrangle(make_divergence("tv"), 0.5)
    planes.clear()
    w, v = portfolio_optimize(tv, scen)
    (res,) = planes
    assert res.gap <= 1e-4 * (1.0 + abs(v)) and within(tv.risk(DiscreteRv(-(scen @ w), None)), v, 1e-9)


def test_portfolio_mean_constraint():
    scen = np.array([[0.1, -0.05], [0.02, 0.08], [-0.04, 0.03]])
    means = scen.mean(axis=0)
    target = 0.5 * (means[0] + means[1])
    w, v = portfolio_optimize(None, scen, cvar_alpha=0.5, target_mean=target)
    assert float(w @ means) == pytest.approx(target, abs=1e-8)
    with pytest.raises(ValueError):
        portfolio_optimize(None, scen, cvar_alpha=0.5, target_mean=1.0)
