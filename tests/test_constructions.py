import dataclasses
import math

import numpy as np
import pytest

from riskquad.core import DiscreteRv, StatInterval, cvar_direct, expectation, p_norm
from riskquad.constructions import (
    ErrorFn,
    Flags,
    RegretFn,
    ScalarLoss,
    SubregularityError,
    check_monotone_error,
    error_from_coherent_risk,
    error_from_loss,
    expectation_quadrangle,
    mean_center_error,
    mean_center_regret,
    minimize_affine,
    mix_quadrangles,
    project_error,
    quadrangle_from_error,
    regret_to_risk,
    revert_quadrangles,
    scale_quadrangle,
)
from riskquad.measures import (
    CatalogSpec,
    asymmetric_mse_loss,
    koenker_bassett_loss,
    make_catalog_quadrangle,
    vapnik_loss,
)

from helpers import interval_gap, primal_affine, random_rv, random_rvs

SYM = DiscreteRv([-1, 1], [0.5, 0.5])
U5 = DiscreteRv.uniform([1, 2, 3, 4, 5])


def l2_error(lam=1.0):
    return ErrorFn(fn=lambda x: lam * p_norm(x, 2), flags=Flags(True, False, False), label="l2")


# -- projection ---------------------------------------------------------------


def test_project_koenker_bassett_median():
    err = error_from_loss(koenker_bassett_loss(0.5), Flags(True, True, True))
    u3 = DiscreteRv.uniform([1, 2, 3])
    dev, stat = project_error(err, u3)
    # oracle: enumerate candidate shifts on the atom grid
    cands = [err.fn(u3.shift(-c)) for c in (1.0, 2.0, 3.0)]
    assert dev == pytest.approx(min(cands), abs=1e-12)
    assert stat == StatInterval(2, 2)
    assert dev == pytest.approx(err.fn(u3.shift(-2.0)), abs=1e-12)
    assert dev == pytest.approx(2.0 / 3.0)


def test_project_l2_is_stddev():
    dev, stat = project_error(l2_error(), SYM)
    assert dev == pytest.approx(SYM.std(), abs=1e-9)
    assert abs(stat.midpoint) <= 1e-6


def test_project_constant_rv():
    for err in (l2_error(), error_from_loss(koenker_bassett_loss(0.3), Flags(True, True, True))):
        dev, stat = project_error(err, DiscreteRv.constant(1.7))
        assert dev == pytest.approx(0.0, abs=1e-10)
        assert stat.contains(1.7, tol=1e-7)


def test_regret_to_risk_cvar():
    v = RegretFn(
        fn=lambda x: x.mean_pos() / 0.25,
        flags=Flags(True, True, True),
        loss=ScalarLoss.from_pieces([(4.0, 0.0), (0.0, 0.0)]),
    )
    risk, stat = regret_to_risk(v, SYM)
    assert risk == pytest.approx(cvar_direct(SYM, 0.75), abs=1e-12)


def test_regret_to_risk_l2():
    v = mean_center_error(l2_error())
    risk, _ = regret_to_risk(v, SYM)
    assert risk == pytest.approx(1.0, abs=1e-8)  # mean 0 + sigma 1
    risk_c, _ = regret_to_risk(v, DiscreteRv.constant(0.4))
    assert risk_c == pytest.approx(0.4, abs=1e-9)


def test_mean_center_roundtrip():
    err = l2_error()
    v = mean_center_error(err)
    assert v.fn(SYM) == pytest.approx(1.0)
    assert mean_center_regret(v).fn(SYM) == pytest.approx(err.fn(SYM))
    vap = error_from_loss(vapnik_loss(1.0), Flags(False, True, True))
    z = DiscreteRv([-2, 2], [0.5, 0.5])
    assert mean_center_error(vap).fn(z) == pytest.approx(1.0)


# -- quadrangle_from_error -----------------------------------------------------


def test_quadrangle_from_error_l2_matches_standard_mean():
    q = quadrangle_from_error(l2_error(), label="l2")
    ref = make_catalog_quadrangle(CatalogSpec("standard_mean", {"lam": 1.0}))
    rng = np.random.default_rng(0)
    for x in random_rvs(rng, 10):
        assert q.risk(x) == pytest.approx(ref.risk(x), abs=1e-7)
        assert q.deviation(x) == pytest.approx(ref.deviation(x), abs=1e-7)
        assert q.error(x) == pytest.approx(ref.error(x), abs=1e-12)
    assert not q.flags.monotone


def test_quadrangle_from_error_vapnik_matches_qsau():
    err = error_from_loss(vapnik_loss(0.5), Flags(False, True, True))
    q = quadrangle_from_error(err)
    ref = make_catalog_quadrangle(CatalogSpec("qsau", {"eps": 0.5}))
    rng = np.random.default_rng(1)
    for x in random_rvs(rng, 10):
        assert q.risk(x) == pytest.approx(ref.risk(x), abs=1e-9)
        assert interval_gap(q.statistic(x), ref.statistic(x)) <= 1e-9
    assert q.flags.monotone


def test_quadrangle_from_error_asymmetric_mse():
    q = quadrangle_from_error(error_from_loss(asymmetric_mse_loss(0.75), Flags(False, False, True)))
    ref = make_catalog_quadrangle(CatalogSpec("expectile_mse", {"q": 0.75}))
    rng = np.random.default_rng(2)
    for x in random_rvs(rng, 6):
        assert q.deviation(x) == pytest.approx(ref.deviation(x), abs=1e-7)
        assert q.statistic(x).midpoint == pytest.approx(ref.statistic(x).midpoint, abs=1e-6)


def test_subregularity_rejects_bad_error():
    bad = ErrorFn(fn=lambda x: 0.0, flags=Flags())
    with pytest.raises(SubregularityError):
        quadrangle_from_error(bad)
    negative = ErrorFn(fn=lambda x: -abs(x.mean()), flags=Flags())
    with pytest.raises(SubregularityError):
        quadrangle_from_error(negative)


def test_monotone_flag_sampling():
    assert check_monotone_error(error_from_loss(koenker_bassett_loss(0.5), Flags()))
    assert not check_monotone_error(error_from_loss(asymmetric_mse_loss(0.5), Flags()))


# -- mixing ---------------------------------------------------------------------


def test_mix_weight_validation():
    q = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.5}))
    with pytest.raises(ValueError):
        mix_quadrangles([q, q], [0.5, 0.6])
    with pytest.raises(ValueError):
        mix_quadrangles([q, q], [1.2, -0.2])


def test_mix_single_is_identity():
    q = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.5}))
    mixed = mix_quadrangles([q], [1.0])
    assert mixed.risk(U5) == pytest.approx(q.risk(U5), abs=1e-12)
    assert mixed.error(U5) == pytest.approx(q.error(U5), abs=1e-12)


def test_mix_quantiles_risk_and_statistic():
    q1 = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.25}))
    q2 = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.75}))
    mixed = mix_quadrangles([q1, q2], [0.5, 0.5])
    want = 0.5 * cvar_direct(U5, 0.25) + 0.5 * cvar_direct(U5, 0.75)
    assert mixed.risk(U5) == pytest.approx(want, abs=1e-12)
    from riskquad.core import quantile_interval

    s_want = StatInterval.weighted_sum([quantile_interval(U5, 0.25), quantile_interval(U5, 0.75)], [0.5, 0.5])
    assert interval_gap(mixed.statistic(U5), s_want) <= 1e-12


def test_mix_regret_route_agrees():
    # regret_to_risk of the constrained-minimization mixed regret == mixed risk
    q1 = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.3}))
    q2 = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.8}))
    mixed = mix_quadrangles([q1, q2], [0.4, 0.6])
    rng = np.random.default_rng(3)
    for x in random_rvs(rng, 6, max_atoms=5):
        r_route, _ = regret_to_risk(RegretFn(fn=mixed.regret), x)
        assert r_route == pytest.approx(mixed.risk(x), abs=1e-6)


def test_mix_generic_path_agrees_with_lp():
    # the dual over the constraint's multiplier vs the LP, on quantile
    # components stripped of their LP data, with two and three components
    from riskquad.constructions import _mixed_error_value

    rng = np.random.default_rng(4)
    for alphas, w in (((0.3, 0.8), [0.4, 0.6]), ((0.2, 0.5, 0.8), [0.3, 0.3, 0.4])):
        errs = [make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": a})).error_fn for a in alphas]
        # bare errors: no loss, so the dual's inner minima run golden section
        bare = [ErrorFn(fn=e.fn, flags=e.flags) for e in errs]
        w = np.array(w)
        for x in random_rvs(rng, 6, max_atoms=5):
            lp = _mixed_error_value(errs, w, x)
            gen = _mixed_error_value(bare, w, x)
            assert gen == pytest.approx(lp, abs=1e-8)


def _smooth_mix():
    """quantile(0.3), expectile_mse(0.75) and mean_pl at weights (.2, .3, .5):
    the exact scan, the derivative crossing and the exact scan again."""
    qs = [
        make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.3})),
        make_catalog_quadrangle(CatalogSpec("expectile_mse", {"q": 0.75})),
        make_catalog_quadrangle(CatalogSpec("mean_pl", {})),
    ]
    return qs, np.array([0.2, 0.3, 0.5])


def _smooth_mix_oracle(x, w, alpha=0.3, q=0.75):
    """The mixed error of ``_smooth_mix`` by SLSQP on the epigraph QP of the
    problem reduced to C_1, C_2 (C_3 = -(w_1 C_1 + w_2 C_2) / w_3).

    Variables z = (C_1, C_2, t, u, M) with n atoms each in t and u:
    t_i >= the quantile loss at x_i - C_1 piece by piece, u_i >= (x_i - C_3)_+
    and M >= max(E[u] - E[X - C_3], E[u]), mean_pl's error.
    """
    from scipy.optimize import minimize

    v, p = x.values, x.probs
    n = v.size
    s = alpha / (1.0 - alpha)
    w1, w2, w3 = w
    t, u = slice(2, 2 + n), slice(2 + n, 2 + 2 * n)

    def expectile(z):
        d = v - z[1]
        return p @ (q * np.maximum(d, 0.0) ** 2 + (1.0 - q) * np.maximum(-d, 0.0) ** 2)

    def objective(z):
        return w1 * p @ z[t] + w2 * expectile(z) + w3 * z[-1]

    def gradient(z):
        d = v - z[1]
        g = np.zeros_like(z)
        g[1] = w2 * p @ (-2.0 * q * np.maximum(d, 0.0) + 2.0 * (1.0 - q) * np.maximum(-d, 0.0))
        g[t], g[-1] = w1 * p, w3
        return g

    def rows(z):
        c1, c3 = z[0], -(w1 * z[0] + w2 * z[1]) / w3
        eu = p @ z[u]
        return np.concatenate((z[t] - s * (v - c1), z[t] + (v - c1), z[u] - (v - c3), z[u], [z[-1] - eu + p @ v - c3, z[-1] - eu]))

    def rows_jac(z):
        jac = np.zeros((4 * n + 2, z.size))
        i = np.arange(n)
        jac[i, 2 + i], jac[i, 0] = 1.0, s
        jac[n + i, 2 + i], jac[n + i, 0] = 1.0, -1.0
        jac[2 * n + i, 2 + n + i], jac[2 * n + i, 0], jac[2 * n + i, 1] = 1.0, -w1 / w3, -w2 / w3
        jac[3 * n + i, 2 + n + i] = 1.0
        jac[4 * n, -1], jac[4 * n, u], jac[4 * n, 0], jac[4 * n, 1] = 1.0, -p, w1 / w3, w2 / w3
        jac[4 * n + 1, -1], jac[4 * n + 1, u] = 1.0, -p
        return jac

    z0 = np.concatenate(([0.0, 0.0], np.maximum(s * v, -v), np.maximum(v, 0.0), [np.abs(v).max()]))
    res = minimize(
        objective, z0, jac=gradient, method="SLSQP",
        constraints=[{"type": "ineq", "fun": rows, "jac": rows_jac}], options={"ftol": 1e-15, "maxiter": 1000},
    )
    assert res.success, res.message
    return float(res.fun)


@pytest.mark.parametrize(
    "x",
    [DiscreteRv([-1.0, 2.0], [0.4, 0.6]), DiscreteRv(np.random.default_rng(1).standard_normal(8))],
    ids=["two-atoms", "eight-normal-atoms"],
)
def test_mixed_error_by_the_dual_matches_the_qp_oracle(x):
    # no component but expectile_mse lacks LP data, so the error is the dual;
    # on two atoms its multiplier sits at 3/7, the edge of quantile(0.3)'s domain
    qs, w = _smooth_mix()
    got = mix_quadrangles(qs, w).error(x)
    want = _smooth_mix_oracle(x, w)
    assert abs(got - want) <= 1e-9 * (1.0 + abs(want))


def test_mixing_identity_smooth_components():
    # E_mix(X - C) = sum_k w_k D_k(X) at C = sum_k w_k S_k(X), and E_mix rises on both sides
    qs, w = _smooth_mix()
    mix = mix_quadrangles(qs, w)
    for x in (DiscreteRv([-1.0, 2.0], [0.4, 0.6]), DiscreteRv(np.random.default_rng(1).standard_normal(8))):
        want = sum(wk * q.deviation(x) for wk, q in zip(w, qs))
        cstar = mix.statistic(x).midpoint
        at = mix.error(x.shift(-cstar))
        assert abs(at - want) <= 1e-9 * (1.0 + abs(want))
        for delta in (-1e-3, 1e-3):
            assert mix.error(x.shift(-cstar - delta)) > at


def test_mix_three_components():
    qs = [make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": a})) for a in (0.2, 0.5, 0.8)]
    w = np.array([0.3, 0.3, 0.4])
    mixed = mix_quadrangles(qs, w)
    x = DiscreteRv([-1.5, 0.2, 2.0], [0.3, 0.4, 0.3])
    want = sum(wk * q.risk(x) for wk, q in zip(w, qs))
    assert mixed.risk(x) == pytest.approx(want, abs=1e-12)
    r_route, _ = regret_to_risk(RegretFn(fn=mixed.regret), x)
    assert r_route == pytest.approx(want, abs=1e-6)


def test_mixing_identity_three_components():
    # min_C E_mix(X - C) = sum_k w_k D_k(X): the projection's golden section
    # runs on the mixed error, one exact LP per evaluation
    qs = [
        make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.3})),
        make_catalog_quadrangle(CatalogSpec("mean_pl", {})),
        make_catalog_quadrangle(CatalogSpec("expectile_pl", {"K": 0.5})),
    ]
    w = np.array([0.2, 0.3, 0.5])
    mix = mix_quadrangles(qs, w)
    rng = np.random.default_rng(12)
    for scale in (1e-3, 1.0, 1e3):
        for _ in range(3):
            k = int(rng.integers(1, 7))
            x = DiscreteRv(scale * rng.uniform(-3.0, 3.0, size=k), rng.dirichlet(np.ones(k)))
            want = sum(wk * q.deviation(x) for wk, q in zip(w, qs))
            got, _ = project_error(mix.error_fn, x)
            assert abs(got - want) <= 1e-8 * (1.0 + abs(want)), (scale, x.values)


# -- scaling ---------------------------------------------------------------------


def test_scale_affine_identity_and_formula():
    q = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.6}))
    same = scale_quadrangle(q, 1.0, "affine")
    two = scale_quadrangle(q, 2.0, "affine")
    rng = np.random.default_rng(5)
    for x in random_rvs(rng, 8):
        m = x.mean()
        assert same.risk(x) == pytest.approx(q.risk(x), abs=1e-12)
        assert two.risk(x) == pytest.approx(-m + 2.0 * q.risk(x), abs=1e-12)
        assert two.deviation(x) == pytest.approx(2.0 * q.deviation(x), abs=1e-12)
        assert two.error(x) == pytest.approx(2.0 * q.error(x), abs=1e-12)
        assert interval_gap(two.statistic(x), q.statistic(x)) == 0.0
    assert not two.flags.monotone  # cleared above lambda = 1
    assert scale_quadrangle(q, 0.7, "affine").flags.monotone


def test_scale_affine_on_standard_mean():
    base = make_catalog_quadrangle(CatalogSpec("standard_mean", {"lam": 1.0}))
    doubled = scale_quadrangle(base, 2.0, "affine")
    ref = make_catalog_quadrangle(CatalogSpec("standard_mean", {"lam": 2.0}))
    rng = np.random.default_rng(6)
    for x in random_rvs(rng, 6):
        assert doubled.deviation(x) == pytest.approx(ref.deviation(x), abs=1e-12)
        assert doubled.risk(x) == pytest.approx(ref.risk(x), abs=1e-12)


def test_scale_perspective_identity_on_homogeneous():
    q = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.6}))
    p = scale_quadrangle(q, 2.0, "perspective")
    rng = np.random.default_rng(7)
    for x in random_rvs(rng, 6):
        assert p.risk(x) == pytest.approx(q.risk(x), abs=1e-12)
        assert p.error(x) == pytest.approx(q.error(x), abs=1e-12)
        assert interval_gap(p.statistic(x), q.statistic(x)) <= 1e-12


def test_scale_rejects_nonpositive():
    q = make_catalog_quadrangle(CatalogSpec("mean_pl", {}))
    with pytest.raises(ValueError):
        scale_quadrangle(q, 0.0, "affine")
    with pytest.raises(ValueError):
        scale_quadrangle(q, -1.0, "perspective")


# -- reverting -------------------------------------------------------------------


def test_revert_quantile_symmetric():
    q = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.5}))
    r = revert_quadrangles(q, q)
    # deviation: (D(X) + D(-X))/2 with D(X) = D(-X) = 1 on the symmetric rv
    assert r.deviation(SYM) == pytest.approx(1.0, abs=1e-12)
    assert not r.flags.monotone


def test_revert_equal_components_keeps_deviation():
    q = make_catalog_quadrangle(CatalogSpec("standard_mean", {"lam": 1.0}))
    r = revert_quadrangles(q, q)
    rng = np.random.default_rng(8)
    for x in random_rvs(rng, 6):
        want = 0.5 * (q.deviation(x) + q.deviation(x.neg()))
        assert r.deviation(x) == pytest.approx(want, abs=1e-12)
        # sigma is symmetric, so the reverted deviation equals it
        assert r.deviation(x) == pytest.approx(q.deviation(x), abs=1e-12)


def test_revert_statistic_interval_arithmetic_vs_minimization():
    q = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.6}))
    r = revert_quadrangles(q, q)
    s = r.statistic(U5)
    # oracle: direct minimization of the reverted error over shifts
    err = ErrorFn(fn=r.error, flags=Flags())
    dev, s_direct = project_error(err, U5)
    assert s_direct.lo >= s.lo - 1e-6 and s_direct.hi <= s.hi + 1e-6
    assert r.deviation(U5) == pytest.approx(dev, abs=1e-7)


def test_revert_error_projection_identity():
    # projection identity for the reverted quadrangle: min_C E_rev(X - C) = D_rev(X)
    q1 = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.4}))
    q2 = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.7}))
    r = revert_quadrangles(q1, q2)
    rng = np.random.default_rng(9)
    for x in random_rvs(rng, 5, max_atoms=5):
        err = ErrorFn(fn=r.error, flags=Flags())
        dev, _ = project_error(err, x)
        assert dev == pytest.approx(r.deviation(x), abs=1e-7)


# -- expectation quadrangles -------------------------------------------------------


def test_expectation_quadrangle_squared_loss():
    sq = ScalarLoss(
        fn=lambda z: np.asarray(z, dtype=float) ** 2,
        d_left=lambda z: 2.0 * np.asarray(z, dtype=float),
        d_right=lambda z: 2.0 * np.asarray(z, dtype=float),
    )
    q = expectation_quadrangle(sq, label="mse")
    assert interval_gap(q.statistic(U5), StatInterval(3, 3)) <= 1e-9
    assert q.deviation(U5) == pytest.approx(2.0, abs=1e-10)
    assert q.flags.expectation_type and not q.flags.monotone


def test_expectation_quadrangle_koenker_bassett():
    q = expectation_quadrangle(koenker_bassett_loss(0.6))
    ref = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.6}))
    rng = np.random.default_rng(10)
    for x in random_rvs(rng, 8):
        assert q.risk(x) == pytest.approx(ref.risk(x), abs=1e-9)
        assert interval_gap(q.statistic(x), ref.statistic(x)) <= 1e-9
    assert q.flags.monotone and q.flags.positively_homogeneous and q.flags.coherent


def test_expectation_quadrangle_vapnik_statistic():
    q = expectation_quadrangle(vapnik_loss(1.0))
    z = DiscreteRv([-2, 2], [0.5, 0.5])
    assert interval_gap(q.statistic(z), StatInterval(-1, 1)) <= 1e-9
    assert q.flags.monotone and not q.flags.positively_homogeneous


def test_expectation_quadrangle_rejects_bad_loss():
    shifted = ScalarLoss(
        fn=lambda z: np.asarray(z, dtype=float) ** 2 + 1.0,
        d_left=lambda z: 2.0 * np.asarray(z, dtype=float),
        d_right=lambda z: 2.0 * np.asarray(z, dtype=float),
    )
    with pytest.raises(SubregularityError):
        expectation_quadrangle(shifted)
    one_sided = ScalarLoss(
        fn=lambda z: np.maximum(np.asarray(z, dtype=float), 0.0),
        d_left=lambda z: (np.asarray(z, dtype=float) > 0).astype(float),
        d_right=lambda z: (np.asarray(z, dtype=float) >= 0).astype(float),
    )
    with pytest.raises(SubregularityError):
        expectation_quadrangle(one_sided)


# -- seminorm error from a coherent risk ----------------------------------------------


def test_error_from_coherent_risk_cvar():
    err = error_from_coherent_risk(lambda x: cvar_direct(x, 0.5), Flags(True, True, False))
    assert err.fn(SYM) == pytest.approx(1.0)
    assert err.fn(DiscreteRv.constant(0.0)) == 0.0
    # matches the qsa error up to the (1 - alpha) factor
    qsa = make_catalog_quadrangle(CatalogSpec("qsa", {"alpha": 0.5}))
    rng = np.random.default_rng(11)
    for x in random_rvs(rng, 6):
        assert 0.5 * err.fn(x) == pytest.approx(qsa.error(x), abs=1e-12)


def test_error_from_mean_risk():
    err = error_from_coherent_risk(lambda x: x.mean(), Flags(True, True, False))
    assert err.fn(DiscreteRv([-2, 2], [0.5, 0.5])) == pytest.approx(2.0)


def test_error_from_nonmonotone_rejected():
    with pytest.raises(ValueError):
        error_from_coherent_risk(lambda x: x.mean() + x.std(), Flags(True, False, False))


# -- flag semantics -----------------------------------------------------------------


def test_homogeneity_flag_holds_on_samples():
    rng = np.random.default_rng(12)
    for fam, params in (("quantile", {"alpha": 0.7}), ("mean_pl", {}), ("expectile_pl", {"K": 1.0})):
        q = make_catalog_quadrangle(CatalogSpec(fam, params))
        assert q.flags.positively_homogeneous
        for x in random_rvs(rng, 4):
            for lam in (0.5, 2.0, 7.0):
                for fn in (q.risk, q.deviation, q.regret, q.error):
                    assert fn(x.scale(lam)) == pytest.approx(lam * fn(x), rel=1e-9, abs=1e-9)


from hypothesis import example, given, settings, strategies as st


@given(
    st.lists(st.tuples(st.floats(-20, 20, allow_nan=False), st.floats(0.05, 1.0)), min_size=2, max_size=6),
    st.floats(0.1, 0.9),
    st.floats(-8, 8, allow_nan=False),
)
# a subnormal gap between candidates: pinned, as this test is not derandomized
@example([(0.0, 0.5), (5e-324, 0.5)], 0.5, 1.0)
@settings(max_examples=40, deadline=None)
def test_projection_translation_covariance(atoms, alpha, c):
    vals = [a[0] for a in atoms]
    raw = np.array([a[1] for a in atoms])
    x = DiscreteRv(vals, raw / raw.sum())
    err = error_from_loss(koenker_bassett_loss(alpha), Flags(True, True, True))
    dev, stat = project_error(err, x)
    dev_c, stat_c = project_error(err, x.shift(c))
    assert dev_c == pytest.approx(dev, abs=1e-9)
    assert stat_c.lo == pytest.approx(stat.lo + c, abs=1e-9)
    assert stat_c.hi == pytest.approx(stat.hi + c, abs=1e-9)


def test_monotone_flag_and_deviation_bound():
    rng = np.random.default_rng(13)
    q = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.6}))
    from riskquad.core import ess_bounds

    for x in random_rvs(rng, 8):
        bump = np.abs(rng.uniform(0, 1, x.n_atoms))
        y = DiscreteRv(x.values + bump, x.probs)
        assert q.risk(x) <= q.risk(y) + 1e-9
        assert q.deviation(x) <= ess_bounds(x)[1] - x.mean() + 1e-9


# -- one functional type, one flags type ----------------------------------------------


def test_flags_coherent_is_derived():
    assert Flags(True, True, False).coherent
    assert not Flags(True, False, False).coherent
    assert not Flags(False, True, True).coherent


def test_exported_names_resolve():
    import ast
    import pathlib

    import riskquad

    tree = ast.parse(pathlib.Path(riskquad.__file__).read_text())
    names = [a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]
    assert {"ErrorFn", "RegretFn", "Flags"} <= set(names)
    for name in names:
        assert getattr(riskquad, name) is not None
    assert riskquad.ErrorFn is riskquad.RegretFn


def _stat_from_derivatives_200_steps(loss, x):
    """The derivative criterion with a fixed 200 bisection steps per endpoint."""
    v, p = x.values, x.probs

    def g_plus(c):
        return float(np.dot(p, loss.d_right(v - c)))

    def g_minus(c):
        return float(np.dot(p, loss.d_left(v - c)))

    span0 = max(1.0, float(v[-1] - v[0]))

    def expand(g, start, direction, want):
        c, step = start, span0
        for _ in range(60):
            val = g(c)
            ok = val >= 0.0 if want == "nonneg" else (val > 0.0 if want == "pos" else (val < 0.0 if want == "neg" else val <= 0.0))
            if ok:
                return c
            c += direction * step
            step *= 2.0
        return c

    def mono_crossing(g, target_sign):
        if target_sign > 0:
            a = expand(g, float(v[0]) - span0, -1.0, "nonneg")
            b = expand(g, float(v[-1]) + span0, +1.0, "neg")
        else:
            a = expand(g, float(v[0]) - span0, -1.0, "pos")
            b = expand(g, float(v[-1]) + span0, +1.0, "nonpos")
        for _ in range(200):
            m = 0.5 * (a + b)
            gm = g(m)
            if target_sign > 0:
                if gm >= 0.0:
                    a = m
                else:
                    b = m
            else:
                if gm <= 0.0:
                    b = m
                else:
                    a = m
        return a if target_sign > 0 else b

    hi = mono_crossing(g_plus, +1)
    lo = mono_crossing(g_minus, -1)
    if loss.kinks:
        candidates = np.unique((v[:, None] - np.asarray(loss.kinks)[None, :]).ravel())
        for i, c in enumerate((lo, hi)):
            near = candidates[np.abs(candidates - c) <= 1e-8 * (1.0 + abs(c))]
            if near.size:
                snapped = float(near[np.argmin(np.abs(near - c))])
                if i == 0:
                    lo = snapped
                else:
                    hi = snapped
    if hi < lo:
        lo = hi = 0.5 * (lo + hi)
    return StatInterval(lo, hi)


def test_derivative_bisection_stops_at_adjacent_floats_with_the_same_endpoints():
    from riskquad.constructions import _stat_from_derivatives

    rng = np.random.default_rng(17)
    rvs = random_rvs(rng, 12, max_atoms=9) + [
        DiscreteRv.constant(3.0),
        DiscreteRv([-1e6, 1e6 + 0.5], [0.5, 0.5]),
        DiscreteRv(1e-9 * np.array([1.0, 2.0, 7.0]), [0.2, 0.3, 0.5]),
        DiscreteRv(1e9 + np.array([0.0, 1.0, 5.0]), [0.6, 0.3, 0.1]),
    ]
    losses = [asymmetric_mse_loss(0.3), asymmetric_mse_loss(0.75), koenker_bassett_loss(0.4)]
    for loss in losses:
        calls = []

        def counted(d, calls=calls):
            def f(z):
                calls.append(1)
                return d(z)

            return f

        fast = dataclasses.replace(loss, d_left=counted(loss.d_left), d_right=counted(loss.d_right))
        for x in rvs:
            calls.clear()
            assert _stat_from_derivatives(fast.shift_slopes(x), x, fast) == _stat_from_derivatives_200_steps(loss, x)
            # bisection settles in about 60 halvings per endpoint, not 200
            assert len(calls) < 2 * (60 + 80), len(calls)


def test_shift_minimum_raises_where_the_tilted_objective_is_unbounded():
    # min_C tilt * C + E(X - C) has a minimum only for tilts within the slopes of E(X - C) at -inf and +inf
    from riskquad.constructions import _shift_minimum
    from riskquad.solvers import UnboundedObjectiveError

    x = DiscreteRv([-1.0, 0.5, 2.0], [0.3, 0.3, 0.4])
    # quantile(0.5) has loss |z| with affine pieces: the exact scan, bounded for tilts in [-1, 1]
    scanned = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.5})).error_fn
    # sqrt(1 + z^2) - 1 with slopes tending to -1 and 1 and no pieces: the derivative crossing
    def fn(z):
        return np.hypot(1.0, z) - 1.0

    def d(z):
        return np.asarray(z, dtype=float) / np.hypot(1.0, z)

    smooth = error_from_loss(ScalarLoss(fn=fn, d_left=d, d_right=d))
    for err in (scanned, smooth):
        for tilt in (-1.5, 1.5):
            with pytest.raises(UnboundedObjectiveError):
                _shift_minimum(err, x, tilt, 1e-11, False, "error")
        # inside, both routes agree with golden section on a copy that carries no structure
        bare = ErrorFn(fn=err.fn, flags=err.flags)
        for tilt in (-0.5, 0.0, 0.5):
            got = _shift_minimum(err, x, tilt, 1e-11, False, "error")[0]
            assert got == pytest.approx(_shift_minimum(bare, x, tilt, 1e-11, False, "error")[0], abs=1e-9)
    # at the edge of its range the scanned objective is flat out to -inf: a minimum, not an unbounded one
    assert _shift_minimum(scanned, x, 1.0, 1e-11, False, "error")[0] == pytest.approx(x.mean(), abs=1e-12)


def test_exact_scan_reports_the_smallest_scanned_value():
    # g(C) = tilt C + E|X - C| on X = {0, 1, 2}: its slope on (0, 1) is -5e-10, read exactly from the
    # masses, so the argmin is the point 1; the minimum is g(1), 5e-10 below g(0)
    from riskquad.constructions import _shift_minimum

    x = DiscreteRv.uniform([0.0, 1.0, 2.0])
    tilt = 1.0 / 3.0 - 5e-10
    err = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.5})).error_fn
    value, interval = _shift_minimum(err, x, tilt, 1e-11, True, "error")
    assert interval == StatInterval(1.0, 1.0)
    assert value == pytest.approx(tilt + 2.0 / 3.0, abs=1e-15)
    assert value == pytest.approx(min(tilt * c + err.fn(x.shift(-c)) for c in (0.0, 1.0, 2.0)), abs=1e-15)


# -- subgradients -----------------------------------------------------------------------


def _subgradient_cases():
    from riskquad.constructions import mean_center_error, scale_quadrangle
    from riskquad.divergence import make_divergence, make_divergence_quadrangle
    from riskquad.measures import asymmetric_mse_loss

    cat = lambda family, **params: make_catalog_quadrangle(CatalogSpec(family, params))
    return {
        "koenker_bassett_loss": cat("quantile", alpha=0.3).error_fn,
        "asymmetric_mse_loss": cat("expectile_mse", q=0.7).error_fn,
        "mean_centred_loss": mean_center_error(error_from_loss(asymmetric_mse_loss(0.4))),
        "affine_scaled": scale_quadrangle(cat("cvar2", alpha=0.6), 2.5).error_fn,
        "l2_error": cat("standard_mean", lam=1.5).error_fn,
        "cvar2_regret": cat("cvar2", alpha=0.5).regret_fn,
        "cvar2_error": cat("cvar2", alpha=0.8).error_fn,
        "cvar_norm": cat("qsa", alpha=0.4).error_fn,
        "moment_max": cat("expectile_pl", K=0.5).error_fn,
        "quantile_regret": cat("quantile", alpha=0.7).regret_fn,
        "kl_regret": make_divergence_quadrangle(make_divergence("kl"), 0.5).regret_fn,
        "pearson_regret": make_divergence_quadrangle(make_divergence("pearson"), 0.8).regret_fn,
        "tv_regret": make_divergence_quadrangle(make_divergence("tv"), 0.7).regret_fn,
    }


@pytest.mark.parametrize("name", list(_subgradient_cases()))
def test_subgradients_satisfy_the_subgradient_inequality(name):
    # f(Y) >= f(X) + E[(Y - X) g] for Y on the atoms of X, at scales 1e-9, 1
    # and 1e9, to rounding
    f = _subgradient_cases()[name]
    rel = 1e-12
    rng = np.random.default_rng(17)
    for scale in (1e-9, 1.0, 1e9):
        for _ in range(12):
            x = random_rv(rng, max_atoms=7, span=3.0).scale(scale)
            g = np.asarray(f.subgradient(x), dtype=float)
            assert g.shape == x.values.shape and np.all(np.isfinite(g))
            fx = f.fn(x)
            for _ in range(4):
                y = x.values + scale * rng.normal(size=x.values.size) * rng.choice([1e-3, 1.0, 3.0])
                fy = f.fn(DiscreteRv(y, x.probs))
                step = np.dot(x.probs, (y - x.values) * g)
                assert fy >= fx + step - rel * (abs(fx) + abs(fy) + np.dot(x.probs, np.abs((y - x.values) * g)))
            if f.flags.positively_homogeneous:
                # Euler: a homogeneous f is its subgradient's expectation at X
                assert abs(fx - np.dot(x.probs, x.values * g)) <= rel * (abs(fx) + np.dot(x.probs, np.abs(x.values * g)))


# -- decisions: the boxed dual against the primal epigraph ---------------------------------


def _fit_terms(model, params, n, rng, weights=False):
    err = make_catalog_quadrangle(CatalogSpec(model, params)).error_fn
    x = rng.standard_normal((n, 3))
    y = 1.0 + x @ rng.uniform(-2.0, 2.0, 3) + rng.standard_t(3, n)
    p = rng.dirichlet(np.ones(n)) if weights else np.full(n, 1.0 / n)
    return [(err, np.hstack((np.ones((n, 1)), x)), y, p, 1.0)], np.zeros(4), None, None, None


def _portfolio_terms(alpha, m, k, rng, mean_row):
    # min_(w, C) C + V(-S w - C) over the simplex, V the quantile(alpha) regret
    regret = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": alpha})).regret_fn
    s = 0.05 + 0.12 * rng.standard_normal((m, k))
    a_eq = [np.append(np.ones(k), 0.0)] + ([np.append(s.mean(axis=0), 0.0)] if mean_row else [])
    b_eq = [1.0] + ([float(np.median(s.mean(axis=0)))] if mean_row else [])
    terms = [(regret, np.hstack((s, np.ones((m, 1)))), np.zeros(m), np.full(m, 1.0 / m), 1.0)]
    return terms, np.append(np.zeros(k), 1.0), [(0.0, None)] * k + [(None, None)], np.array(a_eq), np.array(b_eq)


def _mix_terms(specs, w, n, rng):
    # the mixed error's LP over the shifts C_k, sum_k w_k C_k = 0
    x = DiscreteRv(rng.standard_normal(n))
    errs = [make_catalog_quadrangle(CatalogSpec(*spec)).error_fn for spec in specs]
    r = len(errs)
    terms = [(e, np.eye(r)[np.full(n, k)], x.values, x.probs, wk) for k, (e, wk) in enumerate(zip(errs, w))]
    return terms, np.zeros(r), None, np.array([w]), np.zeros(1)


def _decision_cases():
    rng = np.random.default_rng(19)
    cases = []
    for alpha in (0.1, 0.5, 0.9):
        for n in (7, 50, 200):
            cases.append((f"quantile-{alpha}-{n}", _fit_terms("quantile", {"alpha": alpha}, n, rng, weights=n == 50)))
    for n in (12, 200):
        cases.append((f"qsau-{n}", _fit_terms("qsau", {"eps": 0.3}, n, rng)))
    # thick optimal sets: a tube around a perfect line, the median of an even count
    x = rng.uniform(-2.0, 2.0, 8)
    svr = make_catalog_quadrangle(CatalogSpec("qsau", {"eps": 0.2})).error_fn
    cases.append(("qsau-perfect-line", ([(svr, np.column_stack((np.ones(8), x)), 1.0 + 2.0 * x, np.full(8, 0.125), 1.0)], np.zeros(2), None, None, None)))
    median = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.5})).error_fn
    cases.append(("median-of-six", ([(median, np.ones((6, 1)), rng.standard_normal(6), np.full(6, 1.0 / 6.0), 1.0)], np.zeros(1), None, None, None)))
    for alpha, m, k, mean_row in ((0.8, 40, 4, False), (0.95, 120, 6, True), (0.5, 60, 3, True)):
        cases.append((f"portfolio-{alpha}-{m}x{k}", _portfolio_terms(alpha, m, k, rng, mean_row)))
    cases.append(("mix-quantiles", _mix_terms([("quantile", {"alpha": 0.3}), ("quantile", {"alpha": 0.8})], [0.4, 0.6], 9, rng)))
    cases.append(("mix-qsau", _mix_terms([("quantile", {"alpha": 0.2}), ("qsau", {"eps": 0.4})], [0.5, 0.5], 11, rng)))
    cases.append(("mix-mean_pl", _mix_terms([("quantile", {"alpha": 0.3}), ("mean_pl", {})], [0.3, 0.7], 10, rng)))
    return cases


@pytest.mark.parametrize("case", [c for _, c in _decision_cases()], ids=[name for name, _ in _decision_cases()])
def test_decisions_match_the_primal_epigraph_oracle(case):
    # the boxed dual (one-form terms) and the epigraph (mix-mean_pl) against
    # the primal loss-piece compile solved by the same simplex
    terms, cost, bounds, a_eq, b_eq = case
    theta, value, nonunique = minimize_affine(terms, cost, bounds, a_eq, b_eq)
    want_theta, want, want_nonunique = primal_affine(terms, cost, bounds, a_eq, b_eq)
    assert abs(value - want) <= 1e-12 * (1.0 + abs(want))
    assert nonunique == want_nonunique
    if not nonunique:
        assert np.allclose(theta, want_theta, rtol=1e-12, atol=1e-12)
