import math

import numpy as np
import pytest
from scipy.integrate import quad

from riskquad.core import DiscreteRv, StatInterval, cvar_direct, expectation, quantile_interval
from riskquad.constructions import project_error, regret_to_risk
from riskquad.checks import run_quadrangle_checks
from riskquad.measures import (
    CatalogSpec,
    alpha_set,
    cvar2_regret,
    cvar2_risk,
    expectile_value,
    make_catalog_quadrangle,
    qsau_printed_risk,
    qsau_statistic_union,
)

from helpers import interval_gap, random_rv, random_rvs

U5 = DiscreteRv.uniform([1, 2, 3, 4, 5])
SYM = DiscreteRv([-1, 1], [0.5, 0.5])

ALL_SPECS = [
    CatalogSpec("standard_mean", {"lam": 1.0}),
    CatalogSpec("quantile", {"alpha": 0.6}),
    CatalogSpec("cvar2", {"alpha": 0.5}),
    CatalogSpec("qsa", {"alpha": 0.5}),
    CatalogSpec("qsau", {"eps": 0.25}),
    CatalogSpec("expectile_mse", {"q": 0.75}),
    CatalogSpec("expectile_pl", {"K": 0.5}),
    CatalogSpec("mean_pl", {}),
    CatalogSpec("biased_mean", {"x": 0.7}),
]


def test_spec_validation():
    with pytest.raises(ValueError):
        CatalogSpec("nope", {})
    with pytest.raises(ValueError):
        CatalogSpec("quantile", {"alpha": 1.2})
    with pytest.raises(ValueError):
        CatalogSpec("quantile", {})
    with pytest.raises(ValueError):
        CatalogSpec("expectile_pl", {"K": -2.0})
    with pytest.raises(ValueError):
        CatalogSpec("qsau", {"eps": -0.1})


@pytest.mark.parametrize("family, name", [("standard_mean", "lam"), ("quantile", "alpha"), ("qsau", "eps"), ("biased_mean", "x")])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spec_rejects_a_parameter_that_is_not_finite(family, name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be a finite number"):
        CatalogSpec(family, {name: value})


def test_quantile_family_values():
    q = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.6}))
    assert q.risk(U5) == pytest.approx(4.5, abs=1e-12)
    assert q.statistic(U5) == quantile_interval(U5, 0.6) == StatInterval(3, 4)


def test_standard_mean_values():
    q = make_catalog_quadrangle(CatalogSpec("standard_mean", {"lam": 1.0}))
    assert (q.risk(SYM), q.deviation(SYM), q.regret(SYM), q.error(SYM)) == (1.0, 1.0, 1.0, 1.0)


def test_mean_pl_values():
    q = make_catalog_quadrangle(CatalogSpec("mean_pl", {}))
    assert q.deviation(SYM) == pytest.approx(0.5)
    assert q.error(SYM) == pytest.approx(0.5)


def test_biased_mean_x0_reduces_to_mean_pl():
    q0 = make_catalog_quadrangle(CatalogSpec("biased_mean", {"x": 0.0}))
    ref = make_catalog_quadrangle(CatalogSpec("mean_pl", {}))
    rng = np.random.default_rng(0)
    for x in random_rvs(rng, 10):
        for fn0, fn1 in ((q0.risk, ref.risk), (q0.deviation, ref.deviation), (q0.regret, ref.regret), (q0.error, ref.error)):
            assert fn0(x) == pytest.approx(fn1(x), abs=1e-12)


def test_qsau_error_value():
    q = make_catalog_quadrangle(CatalogSpec("qsau", {"eps": 1.0}))
    assert q.error(DiscreteRv([-2, 2], [0.5, 0.5])) == pytest.approx(1.0)


def test_cvar2_constant_fidelity():
    q = make_catalog_quadrangle(CatalogSpec("cvar2", {"alpha": 0.3}))
    assert q.risk(DiscreteRv.constant(2.2)) == pytest.approx(2.2, abs=1e-12)


def test_cvar2_against_quadrature():
    rng = np.random.default_rng(1)
    for _ in range(6):
        x = random_rv(rng, max_atoms=6)
        alpha = float(rng.uniform(0.1, 0.8))
        pts = list(np.cumsum(x.probs))[:-1]
        num = quad(lambda b: cvar_direct(x, b), alpha, 1, points=pts, limit=200)[0] / (1 - alpha)
        assert cvar2_risk(x, alpha) == pytest.approx(num, abs=1e-6)
        num_reg = quad(lambda b: max(cvar_direct(x, b), 0.0), 0, 1, points=pts, limit=200)[0] / (1 - alpha)
        assert cvar2_regret(x, alpha) == pytest.approx(num_reg, abs=1e-6)


def test_cvar2_statistic_is_cvar():
    q = make_catalog_quadrangle(CatalogSpec("cvar2", {"alpha": 0.5}))
    rng = np.random.default_rng(2)
    for x in random_rvs(rng, 5):
        _, s = regret_to_risk(q.regret_fn, x)
        assert s.contains(cvar_direct(x, 0.5), tol=1e-4)


# -- expectiles -------------------------------------------------------------------


def test_expectile_examples():
    assert expectile_value(DiscreteRv.uniform([0, 1]), 0.75) == pytest.approx(0.75, abs=1e-12)
    assert expectile_value(DiscreteRv.constant(3.3), 0.9) == 3.3
    rng = np.random.default_rng(3)
    for x in random_rvs(rng, 10):
        assert expectile_value(x, 0.5) == pytest.approx(x.mean(), abs=1e-12)


def test_expectile_balance_equation():
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = random_rv(rng)
        q = float(rng.uniform(0.05, 0.95))
        c = expectile_value(x, q)
        lhs = q * x.shift(-c).mean_pos()
        rhs = (1 - q) * x.shift(-c).mean_neg()
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_expectile_families_agree():
    # asymmetric-MSE statistic == piecewise-linear statistic under K = (1-q)/(2q-1)
    rng = np.random.default_rng(5)
    for q_level in (0.6, 0.75, 0.9):
        k = (1 - q_level) / (2 * q_level - 1)
        qa = make_catalog_quadrangle(CatalogSpec("expectile_mse", {"q": q_level}))
        qb = make_catalog_quadrangle(CatalogSpec("expectile_pl", {"K": k}))
        for x in random_rvs(rng, 8):
            assert interval_gap(qa.statistic(x), qb.statistic(x)) <= 1e-7


def test_expectile_pl_residual_identity():
    # C - E[X] = E[(X - C)_+] / K at the statistic
    rng = np.random.default_rng(6)
    for _ in range(15):
        x = random_rv(rng)
        k = float(rng.uniform(0.2, 3.0))
        q = make_catalog_quadrangle(CatalogSpec("expectile_pl", {"K": k}))
        c = q.statistic(x).midpoint
        assert c - x.mean() == pytest.approx(x.shift(-c).mean_pos() / k, abs=1e-8)


def test_expectile_pl_coherent_flags():
    q = make_catalog_quadrangle(CatalogSpec("expectile_pl", {"K": 0.5}))
    assert q.flags.monotone and q.flags.positively_homogeneous and q.flags.coherent


# -- qsa --------------------------------------------------------------------------


def test_qsa_error_is_scaled_cvar_norm_and_risk_identity():
    alpha = 0.5
    q = make_catalog_quadrangle(CatalogSpec("qsa", {"alpha": alpha}))
    rng = np.random.default_rng(7)
    for x in random_rvs(rng, 10):
        assert q.error(x) == pytest.approx((1 - alpha) * cvar_direct(x.abs(), alpha), abs=1e-12)
        r_route, _ = regret_to_risk(q.regret_fn, x)
        want = 0.5 * ((1 + alpha) * cvar_direct(x, (1 - alpha) / 2) + (1 - alpha) * cvar_direct(x, (1 + alpha) / 2))
        assert r_route == pytest.approx(want, abs=1e-6)


def test_qsa_projection_of_two_close_atoms_is_their_midpoint():
    # at scale 1e-9 the sloped segment between the atoms once read as flat
    # through an absolute noise floor, and the interval took half the spread
    q = make_catalog_quadrangle(CatalogSpec("qsa", {"alpha": 0.5}))
    x = DiscreteRv([-8.579444853899652e-10, -8.367871545558106e-10], [2.0 / 7.0, 5.0 / 7.0])
    for scale in (1.0, 1e9, 1e18):
        y = x.scale(scale)
        stat = q.statistic(y)
        assert stat == StatInterval.point(0.5 * (y.values[0] + y.values[1]))
        assert project_error(q.error_fn, y)[1] == stat and regret_to_risk(q.regret_fn, y)[1] == stat, scale


# -- the alpha-set ------------------------------------------------------------------


def test_alpha_set_examples():
    z = DiscreteRv([-2, 2], [0.5, 0.5])
    with pytest.raises(ValueError):
        alpha_set(z, 2.0)  # bound is strict
    cells = alpha_set(z, 1.0)
    assert any(c.contains(0.0) for c in cells)
    cells0 = alpha_set(DiscreteRv.uniform([0, 1, 2]), 0.0)
    assert any(c.contains(0.0) for c in cells0)


def test_union_matches_argmin_interval():
    rng = np.random.default_rng(8)
    for _ in range(30):
        x = random_rv(rng)
        spread = 0.5 * (x.values[-1] - x.values[0])
        eps = float(rng.uniform(0.0, 0.95 * spread))
        q = make_catalog_quadrangle(CatalogSpec("qsau", {"eps": eps}))
        s = q.statistic(x)
        union = qsau_statistic_union(x, eps)
        lo = min(u.lo for u in union)
        hi = max(u.hi for u in union)
        assert abs(lo - s.lo) <= 1e-7 and abs(hi - s.hi) <= 1e-7


def test_qsau_printed_risk_constant_over_alpha_set():
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = random_rv(rng)
        spread = 0.5 * (x.values[-1] - x.values[0])
        eps = float(rng.uniform(0.0, 0.9 * spread))
        q = make_catalog_quadrangle(CatalogSpec("qsau", {"eps": eps}))
        r = q.risk(x)
        for cell in alpha_set(x, eps):
            for a in {cell.lo, cell.midpoint, cell.hi}:
                assert qsau_printed_risk(x, eps, a) == pytest.approx(r, abs=1e-6)


# -- full invariant sweep -----------------------------------------------------------


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_catalog_invariant_suite(spec):
    q = make_catalog_quadrangle(spec)
    results = run_quadrangle_checks(q, rng=np.random.default_rng(17), n_rvs=12)
    failures = [r for r in results if not r.passed]
    assert not failures, failures


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_printed_deviation_equals_projection(spec):
    # projection identity for the printed closed forms: min_C E(X - C)
    # reproduces the printed deviation
    q = make_catalog_quadrangle(spec)
    rng = np.random.default_rng(23)
    for x in random_rvs(rng, 8):
        dev, _ = project_error(q.error_fn, x)
        assert dev == pytest.approx(q.deviation(x), abs=1e-6)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_catalog_statistic_inside_argmin(spec):
    # the printed statistic selects from the projection argmin interval; where the
    # projection is smooth, its slope crossing is the printed point itself
    q = make_catalog_quadrangle(spec)
    rng = np.random.default_rng(19)
    for x in random_rvs(rng, 6):
        s = q.statistic(x)
        _, argmin = project_error(q.error_fn, x)
        assert argmin.lo - 1e-6 <= s.lo and s.hi <= argmin.hi + 1e-6
        if spec.family in ("standard_mean", "cvar2", "expectile_mse"):
            tol = 1e-12 * max(1.0, float(np.max(np.abs(x.values))))
            assert abs(argmin.lo - s.lo) <= tol and abs(argmin.hi - s.hi) <= tol
