import math

import numpy as np
import pytest

from riskquad.core import DiscreteRv, cvar_direct
from riskquad.constructions import ErrorFn, project_error
from riskquad.measures import CatalogSpec, alpha_set, expectile_value, make_catalog_quadrangle, qsau_statistic_union
from riskquad.regression import (
    Dataset,
    fit_linear,
    fit_named,
    named_quadrangle,
    nu_svc,
    regression_equivalence_check,
    track_statistic,
)

from helpers import LP_FAMILIES, cvar2_rank_weights, cvar_rank_weights, highs_affine, random_rv, spectral_lp, within


def _random_dataset(rng, n=8, d=2, noise=0.4):
    X = rng.uniform(-2, 2, size=(n, d))
    coefs = rng.uniform(-2, 2, size=d)
    y = 0.7 + X @ coefs + rng.normal(scale=noise, size=n)
    return Dataset(X, y)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 1)), [1.0, 2.0])
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 1)), [1.0, 2.0], weights=[0.9, 0.9])
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 1)), [1.0, 2.0], weights=[-0.1, 1.1])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["features", "target", "weights"])
def test_dataset_refuses_a_non_finite_entry_naming_it(capfd, name, bad):
    # a nan weight passed the sum test (every comparison with nan is false) and reached LAPACK
    arrays = {"features": np.array([[0.0], [1.0], [2.0]]), "target": np.array([1.0, 2.0, 4.0]), "weights": np.full(3, 1.0 / 3.0)}
    arrays[name][1] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        Dataset(**arrays)
    assert capfd.readouterr() == ("", "")


def test_perfect_linear_data_zero_objective():
    rng = np.random.default_rng(0)
    X = rng.uniform(-2, 2, size=(8, 1))
    y = 1.0 + 2.0 * X[:, 0]
    data = Dataset(X, y)
    for model, params in (
        ("quantile", {"alpha": 0.35}),
        ("svr", {"eps": 0.2}),
        ("expectile_pl", {"K": 0.8}),
        ("mean_pl", {}),
        ("expectile_mse", {"q": 0.6}),
    ):
        fit = fit_named(model, data, **params)
        assert fit.objective == pytest.approx(0.0, abs=1e-7)
        if model == "svr":
            # the tube makes the optimal set thick: any intercept within eps
            assert abs(fit.intercept - 1.0) <= params["eps"] + 1e-6
            assert fit.statistic_of_residual.contains(0.0, tol=1e-9)
        else:
            assert fit.intercept == pytest.approx(1.0, abs=1e-4)
        assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-4)


def test_nonunique_flags_alternate_optima_through_slack_columns():
    # the svr tube makes the optimal set thick on a perfect line: intercept 0.8
    # with coefficient 2 and intercept 0.984 with coefficient 1.888 both fit
    # exactly, and the edge between them leaves through a slack column
    rng = np.random.default_rng(0)
    X = rng.uniform(-2, 2, size=(8, 1))
    fit = fit_named("svr", Dataset(X, 1.0 + 2.0 * X[:, 0]), eps=0.2)
    assert fit.objective == pytest.approx(0.0, abs=1e-7)
    assert fit.nonunique
    # a quantile fit on data in general position has one optimum
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 2))
    fit = fit_named("quantile", Dataset(X, X @ [1.0, -2.0] + rng.standard_t(3, 40)), alpha=0.3)
    assert not fit.nonunique


def test_intercept_only_median():
    data = Dataset(np.zeros((3, 1)), [1.0, 2.0, 3.0])
    fit = fit_named("quantile", data, alpha=0.5)
    assert fit.intercept == pytest.approx(2.0)
    assert fit.objective == pytest.approx(2.0 / 3.0)


def test_intercept_only_expectile():
    data = Dataset(np.zeros((2, 1)), [0.0, 1.0])
    fit = fit_named("expectile_mse", data, q=0.75)
    assert fit.intercept == pytest.approx(0.75, abs=1e-5)
    fit_pl = fit_named("expectile_pl", data, K=0.5)
    assert fit_pl.intercept == pytest.approx(0.75, abs=1e-9)


def test_expectile_routes_agree_where_statistic_pins_them():
    # the two expectile errors share the statistic, so their fits coincide on
    # intercept-only data (both equal the sample expectile) and on perfectly
    # specified models; on generic noisy data only the statistic agrees
    rng = np.random.default_rng(1)
    for q_level in (0.6, 0.8):
        k = (1 - q_level) / (2 * q_level - 1)
        y = rng.uniform(-3, 3, 7)
        d0 = Dataset(np.zeros((7, 1)), y)
        ia = fit_named("expectile_mse", d0, q=q_level).intercept
        ib = fit_named("expectile_pl", d0, K=k).intercept
        want = expectile_value(DiscreteRv(y), q_level)
        assert ia == pytest.approx(want, abs=1e-5)
        assert ib == pytest.approx(want, abs=1e-5)
        assert abs(ia - ib) <= 1e-5
        # perfect model: both recover it exactly
        X = rng.uniform(-2, 2, size=(7, 1))
        data = Dataset(X, 0.3 - 1.2 * X[:, 0])
        fa = fit_named("expectile_mse", data, q=q_level)
        fb = fit_named("expectile_pl", data, K=k)
        assert np.max(np.abs(fa.predict(X) - fb.predict(X))) <= 1e-5


def test_quantile_lp_equals_breakpoint_search():
    rng = np.random.default_rng(2)
    for _ in range(10):
        y = rng.uniform(-3, 3, 7)
        alpha = float(rng.uniform(0.1, 0.9))
        data = Dataset(np.zeros((7, 1)), y)
        fit = fit_named("quantile", data, alpha=alpha)
        q = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": alpha}))
        # oracle: intercepts can only be atoms; scan exactly
        vals = [q.error(DiscreteRv(y).shift(-c)) for c in np.unique(y)]
        assert fit.objective == pytest.approx(min(vals), abs=1e-12)


def test_svr_large_eps_interval():
    data = Dataset(np.zeros((3, 1)), [1.0, 2.0, 3.0])
    fit = fit_named("svr", data, eps=5.0)
    assert fit.objective == pytest.approx(0.0, abs=1e-12)
    stat = fit.statistic_of_residual
    assert stat.width == pytest.approx(8.0, abs=1e-9)  # [max-eps, min+eps] relative to residuals


def test_svr_optimum_in_symmetric_quantile_union():
    rng = np.random.default_rng(3)
    for _ in range(10):
        y = rng.uniform(-3, 3, 7)
        rv = DiscreteRv(y)
        spread = 0.5 * (rv.values[-1] - rv.values[0])
        eps = float(rng.uniform(0.05, 0.9) * spread)
        data = Dataset(np.zeros((7, 1)), y)
        fit = fit_named("svr", data, eps=eps)
        union = qsau_statistic_union(rv, eps)
        assert any(u.contains(fit.intercept, tol=1e-7) for u in union)


def _spectral_fit_oracle(family, alpha, data):
    """The least deviation R(Z) - E[Z] over the slopes, for the cvar2 and qsa
    risks at equal weights, by their spectral LP (HiGHS): by the regression
    theorem, the least error over intercept and slopes.  Returns the
    quadrangle's deviation at the LP's slopes."""
    n = data.n_obs
    if family == "cvar2":
        weights = cvar2_rank_weights(n, alpha)
    else:
        weights = 0.5 * ((1.0 + alpha) * cvar_rank_weights(n, (1.0 - alpha) / 2.0) + (1.0 - alpha) * cvar_rank_weights(n, (1.0 + alpha) / 2.0))
    design = np.hstack([np.ones((n, 1)), data.features])
    theta = spectral_lp(design, data.target, weights, design.mean(axis=0))
    q = make_catalog_quadrangle(CatalogSpec(family, {"alpha": alpha}))
    return q.deviation(DiscreteRv(data.target - design @ theta))


def _ls_unit(data):
    """max |Y - least-squares fit|: the unit of a homogeneous error's cutting planes."""
    design = np.hstack([np.ones((data.n_obs, 1)), data.features])
    return float(np.max(np.abs(data.target - design @ np.linalg.lstsq(design, data.target, rcond=None)[0])))


def _assert_certified(fit, v_oracle, data):
    # the rounds close the gap to 1e-12 (1 + |value|) in units of the residual's scale
    assert 0.0 <= fit.gap <= 1e-12 * (_ls_unit(data) + abs(fit.objective))
    assert abs(fit.objective - v_oracle) <= fit.gap + 1e-12 * (1.0 + abs(fit.objective))


def _normal_draw(seed, n, d):
    # X, beta and the noise standard normal, drawn in that order
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    beta = rng.standard_normal(d)
    return Dataset(X, X @ beta + rng.standard_normal(n))


@pytest.mark.parametrize("family", ["cvar2", "qsa"])
@pytest.mark.parametrize("seed,n,d", [(0, 7, 2), (1, 50, 3)])
def test_cutting_plane_fits_match_the_spectral_lp(family, seed, n, d):
    data = _normal_draw(seed, n, d)
    q = make_catalog_quadrangle(CatalogSpec(family, {"alpha": 0.5}))
    fit = fit_linear(q.error_fn, data)
    v_oracle = _spectral_fit_oracle(family, 0.5, data)
    _assert_certified(fit, v_oracle, data)
    assert within(q.error(fit.residual_rv), fit.objective)
    # the error is positively homogeneous, so the fit of s Y is s times the fit, to the same relative gap
    for s in (1e-9, 1e9):
        scaled = fit_linear(q.error_fn, Dataset(data.features, s * data.target))
        assert abs(scaled.objective / s - v_oracle) <= scaled.gap / s + 1e-12 * (1.0 + abs(v_oracle))
        assert scaled.gap / s <= 1e-12 * (_ls_unit(data) + abs(v_oracle))
    if (family, seed) == ("cvar2", 0):
        assert fit.objective == pytest.approx(0.8758833331, abs=1e-10)


@pytest.mark.parametrize("family,budget", [("cvar2", 1000), ("qsa", 500)])
def test_cutting_plane_fits_keep_within_a_pivot_budget(family, budget, monkeypatch):
    # every master goes on from the last one's basis: a round costs a pivot or
    # two where a master from the slack basis took about 140 at 1000 x 5
    import riskquad.regression as regression

    runs = []
    planes = regression.cutting_planes
    monkeypatch.setattr(regression, "cutting_planes", lambda *args, **kw: runs.append(planes(*args, **kw)) or runs[-1])
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1000, 5))
    y = 1.0 + x @ rng.uniform(-2.0, 2.0, 5) + rng.standard_t(3, 1000)
    fit = fit_linear(make_catalog_quadrangle(CatalogSpec(family, {"alpha": 0.5})).error_fn, Dataset(x, y))
    (res,) = runs
    assert res.pivots <= budget
    assert 0.0 <= fit.gap <= 1e-10 * (1.0 + abs(fit.objective))


def test_least_squares_routes_are_exact():
    # standard_mean: the normal equations; expectile_mse: least squares weighted
    # by the signs of an optimal residual, which are its own fixed point
    for seed in range(4):
        data = _normal_draw(10 + seed, 30, 3)
        design = np.hstack([np.ones((30, 1)), data.features])
        w = data.weights
        beta = np.linalg.solve(design.T @ (design * w[:, None]), design.T @ (w * data.target))
        fit = fit_named("expectile_mse", data, q=0.5)
        assert np.max(np.abs(np.append(fit.intercept, fit.coefficients) - beta)) <= 1e-12 * (1.0 + np.max(np.abs(beta)))
        for lam in (1.0, 3.0):
            l2 = make_catalog_quadrangle(CatalogSpec("standard_mean", {"lam": lam}))
            fit = fit_linear(l2.error_fn, data)
            assert np.max(np.abs(np.append(fit.intercept, fit.coefficients) - beta)) <= 1e-12 * (1.0 + np.max(np.abs(beta)))
            assert fit.gap == 0.0
        for q_level in (0.2, 0.8):
            fit = fit_named("expectile_mse", data, q=q_level)
            z = fit.residual_rv
            resid = data.target - design @ np.append(fit.intercept, fit.coefficients)
            ww = w * np.where(resid > 0.0, q_level, 1.0 - q_level)
            again = np.linalg.solve(design.T @ (design * ww[:, None]), design.T @ (ww * data.target))
            assert np.max(np.abs(again - np.append(fit.intercept, fit.coefficients))) <= 1e-12 * (1.0 + np.max(np.abs(again)))
            # the gradient of E[q Z_+^2 + (1-q) Z_-^2] vanishes
            assert np.max(np.abs(design.T @ (ww * resid))) <= 1e-12 * (1.0 + np.max(np.abs(data.target)))
            assert fit.gap == 0.0 and within(fit.objective, z.moment(lambda t: q_level * np.maximum(t, 0.0) ** 2 + (1 - q_level) * np.minimum(t, 0.0) ** 2))


def test_fit_linear_finite_across_catalog():
    rng = np.random.default_rng(4)
    specs = [
        CatalogSpec("quantile", {"alpha": 0.4}),
        CatalogSpec("qsau", {"eps": 0.3}),
        CatalogSpec("expectile_pl", {"K": 1.0}),
        CatalogSpec("mean_pl", {}),
        CatalogSpec("biased_mean", {"x": 0.4}),
        CatalogSpec("expectile_mse", {"q": 0.7}),
        CatalogSpec("standard_mean", {"lam": 1.0}),
        CatalogSpec("cvar2", {"alpha": 0.5}),
        CatalogSpec("qsa", {"alpha": 0.5}),
    ]
    for spec in specs:
        q = make_catalog_quadrangle(spec)
        for _ in range(3):
            data = _random_dataset(rng, n=7, d=2)
            fit = fit_linear(q.error_fn, data)
            assert np.all(np.isfinite(fit.coefficients)) and math.isfinite(fit.intercept)
            assert math.isfinite(fit.objective)
            if spec.family in ("cvar2", "qsa"):
                # the cutting planes' value is certified against the exact spectral LP
                _assert_certified(fit, _spectral_fit_oracle(spec.family, 0.5, data), data)


@pytest.mark.parametrize("i", range(len(LP_FAMILIES)))
def test_fit_linear_lp_at_least_as_good_as_descent(i):
    # a HiGHS LP written from the error's own LP data is the oracle; the same
    # error stripped of that data keeps its subgradient and takes the cutting
    # planes, certified against the LP
    family, params = LP_FAMILIES[i]
    err = make_catalog_quadrangle(CatalogSpec(family, params)).error_fn
    n, d = ((5, 1), (8, 2))[i % 2]
    data = _random_dataset(np.random.default_rng(40 + i), n=n, d=d)
    fit = fit_linear(err, data)
    design = np.hstack([np.ones((n, 1)), data.features])
    theta = highs_affine([(err, design, data.target, data.weights, 1.0)], np.zeros(d + 1))
    v_oracle = err.fn(DiscreteRv(data.target - design @ theta, data.weights))
    assert fit.objective <= v_oracle + 1e-12 * (1.0 + abs(v_oracle))
    assert within(err.fn(fit.residual_rv), fit.objective)
    if err.flags.positively_homogeneous:
        # the same fit at 1e-9 and 1e9 times the target
        for s in (1e-9, 1e9):
            scaled = fit_linear(err, Dataset(data.features, s * data.target, data.weights))
            beta = np.append(scaled.intercept, scaled.coefficients) / s
            assert np.allclose(beta, np.append(fit.intercept, fit.coefficients), rtol=1e-9, atol=1e-9)
            assert abs(scaled.objective / s - fit.objective) <= 1e-12 * (1.0 + abs(fit.objective))
    planes = fit_linear(ErrorFn(fn=err.fn, flags=err.flags, subgradient=err.subgradient), data)
    assert planes.gap <= 1e-12 * (1.0 + abs(planes.objective))
    assert abs(planes.objective - fit.objective) <= planes.gap + 1e-12 * (1.0 + abs(fit.objective))
    with pytest.raises(ValueError, match="needs LP data, square weights or a subgradient"):
        fit_linear(ErrorFn(fn=err.fn, flags=err.flags), data)


def test_translation_shifts_only_intercept():
    rng = np.random.default_rng(5)
    data = _random_dataset(rng, n=8, d=2)
    shifted = Dataset(data.features, data.target + 3.7, data.weights)
    for model, params in (("quantile", {"alpha": 0.3}), ("mean_pl", {}), ("expectile_pl", {"K": 0.5})):
        f0 = fit_named(model, data, **params)
        f1 = fit_named(model, shifted, **params)
        assert f1.intercept - f0.intercept == pytest.approx(3.7, abs=1e-6)
        assert np.allclose(f0.coefficients, f1.coefficients, atol=1e-6)
        assert f1.objective == pytest.approx(f0.objective, abs=1e-8)


def test_equivalence_check_koenker_bassett():
    rng = np.random.default_rng(6)
    q = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.5}))
    for _ in range(4):
        data = _random_dataset(rng, n=7, d=2)
        rep = regression_equivalence_check(q.error_fn, data)
        assert rep["gap"] <= 1e-6
        assert rep["tracking"]


def test_equivalence_check_l2_matches_least_squares():
    rng = np.random.default_rng(7)
    q = make_catalog_quadrangle(CatalogSpec("standard_mean", {"lam": 1.0}))
    data = _random_dataset(rng, n=8, d=2)
    rep = regression_equivalence_check(q.error_fn, data)
    assert rep["gap"] <= 1e-5
    # normal-equations oracle: the deviation route is least squares with
    # mean-zero residuals
    design = np.hstack([np.ones((data.n_obs, 1)), data.features])
    w = data.weights
    wd = design * w[:, None]
    beta = np.linalg.solve(design.T @ wd, design.T @ (w * data.target))
    resid = data.target - design @ beta
    sigma = math.sqrt(float(np.dot(w, resid**2)))
    assert rep["unconstrained_objective"] == pytest.approx(sigma, abs=1e-5)


def test_equivalence_zero_residual():
    X = np.linspace(-1, 1, 6).reshape(-1, 1)
    y = 2.0 - X[:, 0]
    q = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.4}))
    rep = regression_equivalence_check(q.error_fn, Dataset(X, y))
    assert rep["unconstrained_objective"] == pytest.approx(0.0, abs=1e-9)
    assert rep["constrained_objective"] == pytest.approx(0.0, abs=1e-9)


def test_tracking_on_synthetic_model():
    rng = np.random.default_rng(8)
    n = 10
    X = rng.uniform(-1, 1, size=(n, 1))
    noise = rng.choice([-0.5, 0.5], size=n)  # symmetric two-point: median 0
    y = 1.0 + 2.0 * X[:, 0] + noise
    data = Dataset(X, y)
    q = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.5}))
    fit = fit_named("quantile", data, alpha=0.5)
    assert track_statistic(fit, q)
    # deliberately perturbed coefficients lose tracking
    from riskquad.regression import FitResult, _residual_rv

    bad = FitResult(
        intercept=fit.intercept + 1.3,
        coefficients=fit.coefficients,
        objective=math.nan,
        residual_rv=_residual_rv(data, fit.intercept + 1.3, fit.coefficients),
        statistic_of_residual=fit.statistic_of_residual,
    )
    assert not track_statistic(bad, q)


def test_biased_mean_tracking():
    rng = np.random.default_rng(9)
    data = _random_dataset(rng, n=8, d=1)
    x0 = 0.6
    fit = fit_named("biased_mean", data, x=x0)
    q = make_catalog_quadrangle(CatalogSpec("biased_mean", {"x": x0}))
    # the fitted residual carries zero inside its argmin interval
    _, stat = project_error(q.error_fn, fit.residual_rv)
    assert stat.contains(0.0, tol=1e-7)


# -- nu-SVC -------------------------------------------------------------------------


def test_nu_svc_separable():
    data = Dataset(np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]))
    wb, w0, obj = nu_svc(0.5, data)
    assert obj < -0.5  # negative margins achievable
    assert abs(np.linalg.norm(wb) - 1.0) <= 1e-6


def test_nu_svc_inseparable():
    data = Dataset(np.array([[1.0], [1.0]]), np.array([1.0, -1.0]))
    _, _, obj = nu_svc(0.5, data)
    assert obj >= -1e-9


def test_nu_svc_alpha_zero_matches_mean_loss():
    # balanced labels keep the mean margin loss bounded in the offset, and the
    # optimum over the unit ball is then analytic: minus the norm of E[y x]
    rng = np.random.default_rng(10)
    X = rng.uniform(-1, 1, size=(6, 2))
    y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    data = Dataset(X, y)
    _, _, obj = nu_svc(0.0, data)
    direction = data.weights @ (y[:, None] * X)
    assert obj == pytest.approx(-float(np.linalg.norm(direction)), abs=1e-4)


def test_nu_svc_rejects_bad_labels():
    with pytest.raises(ValueError):
        nu_svc(0.5, Dataset(np.zeros((2, 1)), np.array([0.0, 1.0])))


def test_named_quadrangle_names_a_missing_parameter():
    with pytest.raises(ValueError, match=r"family 'quantile' takes params \['alpha'\], got \[\]"):
        named_quadrangle("quantile")
    with pytest.raises(ValueError, match=r"family 'qsau' takes params \['eps'\], got \[\]"):
        named_quadrangle("svr", alpha=0.5)
    assert named_quadrangle("quantile", alpha=0.3, eps=1.0).label == named_quadrangle("quantile", alpha=0.3).label
