"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import math

import numpy as np
import pytest

from riskquad.core import DiscreteRv, StatInterval, cvar_direct, ess_bounds, expectation, quantile_interval
from riskquad.constructions import ErrorFn, Flags, RegretFn, project_error, regret_to_risk
from riskquad.divergence import (
    StochasticDivergenceJ,
    _kl_risk,
    family_eval_envelope,
    family_eval_perspective,
    make_divergence,
    make_divergence_quadrangle,
)
from riskquad.dual import cvar_envelope, envelope_sup
from riskquad.measures import (
    CatalogSpec,
    alpha_set,
    expectile_value,
    make_catalog_quadrangle,
    qsau_printed_risk,
    qsau_statistic_union,
)
from riskquad.regression import Dataset, fit_named, regression_equivalence_check
from riskquad.robust import (
    DroProblem,
    EpiSpec,
    dro_solve,
    epi_regret_fn,
    epi_risk_dual,
    epi_risk_primal,
    kernel_quadratic_regret,
    portfolio_optimize,
)

from helpers import dro_envelope_value, random_rv, random_rvs


def _report(number: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d}: {status} - {description}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {number}: {description} ({detail})"


ALL_SPECS = [
    CatalogSpec("standard_mean", {"lam": 1.0}),
    CatalogSpec("quantile", {"alpha": 0.65}),
    CatalogSpec("cvar2", {"alpha": 0.5}),
    CatalogSpec("qsa", {"alpha": 0.5}),
    CatalogSpec("qsau", {"eps": 0.25}),
    CatalogSpec("expectile_mse", {"q": 0.75}),
    CatalogSpec("expectile_pl", {"K": 0.5}),
    CatalogSpec("mean_pl", {}),
    CatalogSpec("biased_mean", {"x": 0.6}),
]


def test_01_quadrangle_identity_suite():
    rng = np.random.default_rng(101)
    worst_q3 = 0.0
    worst_stat = 0.0
    for spec in ALL_SPECS:
        q = make_catalog_quadrangle(spec)
        for _ in range(50):
            x = random_rv(rng)
            m = x.mean()
            worst_q3 = max(
                worst_q3,
                abs(q.risk(x) - q.deviation(x) - m),
                abs(q.regret(x) - q.error(x) - m),
            )
            _, s1 = project_error(q.error_fn, x)
            _, s2 = regret_to_risk(q.regret_fn, x)
            worst_stat = max(worst_stat, abs(s1.lo - s2.lo), abs(s1.hi - s2.hi))
    _report(
        1,
        "quadrangle identities R-D=E, V-E=E at 1e-9 and route statistics at 1e-7 over 9 families x 50 rvs",
        worst_q3 <= 1e-9 and worst_stat <= 1e-7,
        f"identity gap {worst_q3:.2e}, statistic gap {worst_stat:.2e}",
    )


def test_02_cvar_cross_check():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        x = random_rv(rng)
        alpha = float(rng.uniform(0.05, 0.95))
        scale = 1.0 / (1.0 - alpha)
        v = RegretFn(
            fn=lambda y, s=scale: s * y.mean_pos(),
            flags=Flags(True, True, True),
            loss=None,
            shift_breakpoints=lambda y: y.values,
        )
        risk, _ = regret_to_risk(v, x)
        worst = max(worst, abs(risk - cvar_direct(x, alpha)))
    u5 = DiscreteRv.uniform([1, 2, 3, 4, 5])
    exact = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.6})).risk(u5)
    _report(
        2,
        "shifted-regret route equals the direct tail average at 1e-9 on 100 rvs; uniform{1..5} at 0.6 gives 4.5",
        worst <= 1e-9 and exact == 4.5,
        f"max gap {worst:.2e}, value {exact}",
    )


def test_03_expectile_consistency():
    rng = np.random.default_rng(103)
    worst_stat = 0.0
    worst_resid = 0.0
    for q_level in (0.6, 0.75, 0.9):
        k = (1.0 - q_level) / (2.0 * q_level - 1.0)
        qa = make_catalog_quadrangle(CatalogSpec("expectile_mse", {"q": q_level}))
        qb = make_catalog_quadrangle(CatalogSpec("expectile_pl", {"K": k}))
        for _ in range(12):
            x = random_rv(rng)
            sa, sb = qa.statistic(x), qb.statistic(x)
            worst_stat = max(worst_stat, abs(sa.lo - sb.lo), abs(sa.hi - sb.hi))
            c = sb.midpoint
            worst_resid = max(worst_resid, abs((c - x.mean()) - x.shift(-c).mean_pos() / k))
    point = expectile_value(DiscreteRv.uniform([0, 1]), 0.75)
    _report(
        3,
        "squared and piecewise-linear expectile statistics agree at 1e-7; balance residual at 1e-8; 0.75 on {0,1}",
        worst_stat <= 1e-7 and worst_resid <= 1e-8 and abs(point - 0.75) <= 1e-12,
        f"stat gap {worst_stat:.2e}, residual {worst_resid:.2e}, point {point}",
    )


def test_04_perspective_worked_example():
    rng = np.random.default_rng(104)
    parent = lambda y: y.moment(lambda v: v * v)
    worst = 0.0
    for tau in (0.25, 1.0, 4.0):
        for _ in range(20):
            x = random_rv(rng)
            want = 2.0 * math.sqrt(tau) * math.sqrt(max(x.moment(lambda v: v * v), 0.0))
            worst = max(worst, abs(family_eval_perspective(parent, tau, x) - want))
    _report(
        4,
        "perspective transform of the squared-moment parent reproduces 2 sqrt(tau) ||X||_2 at 1e-8",
        worst <= 1e-8,
        f"max gap {worst:.2e}",
    )


def test_05_divergence_closed_forms():
    rng = np.random.default_rng(105)
    u5 = DiscreteRv.uniform([1, 2, 3, 4, 5])
    # total variation
    worst_tv = 0.0
    for _ in range(8):
        x = random_rv(rng)
        beta = float(rng.uniform(0.2, 1.6))
        q = make_divergence_quadrangle(make_divergence("tv"), beta)
        want = 0.5 * beta * ess_bounds(x)[1] + (1.0 - 0.5 * beta) * cvar_direct(x, beta / 2.0)
        worst_tv = max(worst_tv, abs(q.risk(x) - want))
    # extended Pearson
    worst_ep = 0.0
    for _ in range(8):
        x = random_rv(rng)
        beta = float(rng.uniform(0.2, 2.5))
        q = make_divergence_quadrangle(make_divergence("extended_pearson"), beta)
        worst_ep = max(worst_ep, abs(q.risk(x) - (x.mean() + math.sqrt(beta) * x.std())))
    # generalized extended Pearson statistic is the expectile, independent of beta
    stats = []
    for beta in (0.5, 1.0, 2.0):
        qg = make_divergence_quadrangle(make_divergence("gen_extended_pearson", q=0.75), beta)
        stats.append(qg.statistic(u5).midpoint)
    spread = max(stats) - min(stats)
    stat_err = abs(stats[0] - expectile_value(u5, 0.75))
    # entropic tail risk stationarity
    worst_res = 0.0
    for _ in range(8):
        x = random_rv(rng, span=2.0)
        beta = float(rng.uniform(0.2, 1.0))
        val, lam = _kl_risk(x, beta)[:2]
        if lam > 0:
            v, p = x.values, x.probs
            mgf = float(np.dot(p, np.exp((v - v[-1]) / lam)))
            mean_tilt = float(np.dot(p, v * np.exp((v - v[-1]) / lam))) / mgf
            worst_res = max(worst_res, abs(lam * beta + lam * (math.log(mgf) + v[-1] / lam) - mean_tilt))
    ok = worst_tv <= 1e-6 and worst_ep <= 1e-6 and spread <= 1e-6 and stat_err <= 1e-6 and worst_res <= 1e-6
    _report(
        5,
        "divergence closed forms: TV risk, mean + sqrt(beta Var), beta-free expectile statistic, entropic stationarity",
        ok,
        f"tv {worst_tv:.2e}, ep {worst_ep:.2e}, spread {spread:.2e}, stationarity {worst_res:.2e}",
    )


def test_06_limit_behavior():
    x = DiscreteRv([0.05, 0.3, 0.55, 0.9], [0.3, 0.3, 0.2, 0.2])
    worst_lo = worst_hi = 0.0
    for name in ("kl", "tv"):
        j = StochasticDivergenceJ.from_phi(make_divergence(name), normalized=True)
        lo, _ = family_eval_envelope(j, 1e-6, x)
        hi, _ = family_eval_envelope(j, 1e6, x)
        worst_lo = max(worst_lo, abs(lo - expectation(x)))
        worst_hi = max(worst_hi, abs(hi - ess_bounds(x)[1]))
    _report(
        6,
        "family values approach the mean at tau=1e-6 and the essential supremum at tau=1e6 within 1e-3",
        worst_lo <= 1e-3 and worst_hi <= 1e-3,
        f"mean gap {worst_lo:.2e}, sup gap {worst_hi:.2e}",
    )


def test_07_envelope_duality():
    rng = np.random.default_rng(107)
    worst_cvar = 0.0
    for _ in range(30):
        x = random_rv(rng, max_atoms=5)
        alpha = float(rng.uniform(0.05, 0.9))
        sup, _ = envelope_sup(cvar_envelope(alpha, x.probs), x.values)
        worst_cvar = max(worst_cvar, abs(sup - cvar_direct(x, alpha)))

    # perspective vs envelope on 3-atom instances with a simplex grid oracle
    kl = make_divergence("kl")
    j = StochasticDivergenceJ.from_phi(kl, normalized=True)

    def parent_risk(y):
        v, p = y.values, y.probs
        vmax = float(v[-1])
        return vmax + math.log(float(np.dot(p, np.exp(v - vmax))))

    worst_pd = 0.0
    grid_ok = True
    for _ in range(3):
        x = random_rv(rng, max_atoms=3, span=1.5)
        while x.n_atoms != 3:
            x = random_rv(rng, max_atoms=3, span=1.5)
        tau = float(rng.uniform(0.05, 0.5))
        v_env, _ = family_eval_envelope(j, tau, x)
        v_per = family_eval_perspective(parent_risk, tau, x)
        worst_pd = max(worst_pd, abs(v_env - v_per))
        # density-simplex grid oracle at resolution 1/200
        p = x.probs
        best = -math.inf
        for q1 in np.linspace(0.0, 1.0 / p[0], 201):
            rem = 1.0 - p[0] * q1
            if rem < -1e-12:
                continue
            for q2 in np.linspace(0.0, 1.0 / p[1], 201):
                q3 = (rem - p[1] * q2) / p[2]
                if q3 < 0:
                    continue
                qv = np.array([q1, q2, q3])
                if j.fn(qv, p) <= tau:
                    best = max(best, float(np.dot(p, qv * x.values)))
        grid_ok &= v_env >= best - 1e-6 and abs(v_env - best) <= 0.06 * (1.0 + abs(best))
    _report(
        7,
        "tail-average envelope support equals the primal at 1e-7; perspective vs envelope at 1e-5 with grid oracle",
        worst_cvar <= 1e-7 and worst_pd <= 1e-5 and grid_ok,
        f"cvar gap {worst_cvar:.2e}, route gap {worst_pd:.2e}",
    )


def test_08_mixing_scaling_reverting():
    from riskquad.constructions import mix_quadrangles, revert_quadrangles, scale_quadrangle

    rng = np.random.default_rng(108)
    q1 = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.3}))
    q2 = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": 0.8}))
    mixed = mix_quadrangles([q1, q2], [0.4, 0.6])
    worst_mix = 0.0
    for _ in range(8):
        x = random_rv(rng, max_atoms=5)
        want = 0.4 * q1.risk(x) + 0.6 * q2.risk(x)
        r_route, _ = regret_to_risk(RegretFn(fn=mixed.regret), x)
        worst_mix = max(worst_mix, abs(r_route - want))

    lam = 0.7
    scaled = scale_quadrangle(q1, lam, "affine")
    worst_scale = 0.0
    for _ in range(8):
        x = random_rv(rng)
        m = x.mean()
        worst_scale = max(
            worst_scale,
            abs(scaled.risk(x) - ((1.0 - lam) * m + lam * q1.risk(x))),
            abs(scaled.deviation(x) - lam * q1.deviation(x)),
            abs(scaled.regret(x) - ((1.0 - lam) * m + lam * q1.regret(x))),
            abs(scaled.error(x) - lam * q1.error(x)),
        )

    rev = revert_quadrangles(q1, q2)
    worst_rev = 0.0
    for _ in range(8):
        x = random_rv(rng)
        want = 0.5 * (q1.deviation(x) + q2.deviation(x.neg()))
        worst_rev = max(worst_rev, abs(rev.deviation(x) - want))
    _report(
        8,
        "mixed risk equals the weighted sum at 1e-7 (regret route); affine scaling exact; reverted deviation at 1e-7",
        worst_mix <= 1e-7 and worst_scale == 0.0 and worst_rev <= 1e-7,
        f"mix {worst_mix:.2e}, scale {worst_scale:.2e}, revert {worst_rev:.2e}",
    )


def test_09_regression_theorem():
    rng = np.random.default_rng(109)
    specs = [
        CatalogSpec("quantile", {"alpha": 0.5}),
        CatalogSpec("qsau", {"eps": 0.3}),
        CatalogSpec("expectile_pl", {"K": 0.5}),
    ]
    worst = 0.0
    count = 0
    for spec in specs:
        q = make_catalog_quadrangle(spec)
        for _ in range(7):
            n = int(rng.integers(6, 10))
            X = rng.uniform(-2, 2, size=(n, 2))
            y = 0.5 + X @ rng.uniform(-1.5, 1.5, 2) + rng.normal(scale=0.4, size=n)
            rep = regression_equivalence_check(q.error_fn, Dataset(X, y))
            worst = max(worst, rep["gap"])
            count += 1

    # intercept-only quantile LP equals exhaustive breakpoint search exactly
    worst_bp = 0.0
    for _ in range(10):
        yv = rng.uniform(-3, 3, 7)
        alpha = float(rng.uniform(0.1, 0.9))
        fit = fit_named("quantile", Dataset(np.zeros((7, 1)), yv), alpha=alpha)
        qq = make_catalog_quadrangle(CatalogSpec("quantile", {"alpha": alpha}))
        oracle = min(qq.error(DiscreteRv(yv).shift(-c)) for c in np.unique(yv))
        worst_bp = max(worst_bp, abs(fit.objective - oracle))
    _report(
        9,
        f"error vs constrained-deviation objectives agree at 1e-6 over {count} datasets; quantile LP = breakpoint scan",
        worst <= 1e-6 and worst_bp <= 1e-12,
        f"equivalence gap {worst:.2e}, breakpoint gap {worst_bp:.2e}",
    )


def test_10_svr_union():
    rng = np.random.default_rng(110)
    ok_member = True
    worst_risk = 0.0
    for _ in range(12):
        yv = rng.uniform(-3, 3, 7)
        rv = DiscreteRv(yv)
        spread = 0.5 * (rv.values[-1] - rv.values[0])
        eps = float(rng.uniform(0.05, 0.9)) * spread
        fit = fit_named("svr", Dataset(np.zeros((7, 1)), yv), eps=eps)
        union = qsau_statistic_union(rv, eps)
        ok_member &= any(u.contains(fit.intercept, tol=1e-7) for u in union)
        q = make_catalog_quadrangle(CatalogSpec("qsau", {"eps": eps}))
        r = q.risk(rv)
        for cell in alpha_set(rv, eps):
            for a in {cell.lo, cell.midpoint, cell.hi}:
                worst_risk = max(worst_risk, abs(qsau_printed_risk(rv, eps, a) - r))
    _report(
        10,
        "tube-regression optimum lies in the symmetric-quantile-average union; risk constant over the level set at 1e-6",
        ok_member and worst_risk <= 1e-6,
        f"risk spread {worst_risk:.2e}",
    )


def test_11_epi_regularization():
    rng = np.random.default_rng(111)
    kern, kconj = kernel_quadratic_regret()

    def spec_for(x, eps):
        return EpiSpec(
            base_risk=lambda y: cvar_direct(y, 0.5),
            kernel=kern,
            epsilon=eps,
            base_envelope=cvar_envelope(0.5, x.probs),
            kernel_conj=kconj,
        )

    consts_exact = all(
        epi_risk_primal(spec_for(DiscreteRv.constant(c), 1.0), DiscreteRv.constant(c)) == c for c in (-2.0, 0.0, 3.5)
    )
    worst_bounds = 0.0
    worst_pd = 0.0
    worst_identity = 0.0
    grid_ok = True
    for trial in range(3):
        k = 2 if trial == 0 else 3
        x = random_rv(rng, max_atoms=k, span=2.0)
        while x.n_atoms != k:
            x = random_rv(rng, max_atoms=k, span=2.0)
        eps = float(rng.uniform(0.4, 1.5))
        spec = spec_for(x, eps)
        vp = epi_risk_primal(spec, x)
        vd = epi_risk_dual(spec, x)
        worst_pd = max(worst_pd, abs(vp - vd))
        worst_bounds = max(worst_bounds, expectation(x) - vp, vp - cvar_direct(x, 0.5))
        r_route, _ = regret_to_risk(epi_regret_fn(spec), x, want_interval=False)
        worst_identity = max(worst_identity, abs(r_route - vp))
        if k == 2:
            # grid oracle over Y, on numpy grids: CVaR_0.5 of two atoms puts
            # weight min(p, 0.5)/0.5 on the larger and the rest on the smaller
            (x1, x2), (p1, p2) = x.values, x.probs

            def val_at(y1, y2):
                w1, w2 = x1 - y1, x2 - y2
                top = np.minimum(np.where(w1 >= w2, p1, p2), 0.5) / 0.5
                cvar = top * np.maximum(w1, w2) + (1.0 - top) * np.minimum(w1, w2)
                return cvar + p1 * (y1 + eps * y1 * y1) + p2 * (y2 + eps * y2 * y2)

            y = np.array([0.3, -0.2])
            assert val_at(*y) == pytest.approx(
                cvar_direct(DiscreteRv(x.values - y, x.probs), 0.5) + kern(DiscreteRv(eps * y, x.probs)) / eps, abs=1e-15
            )
            a, b = np.meshgrid(np.linspace(-3, 3, 121), np.linspace(-3, 3, 121), indexing="ij")
            coarse = val_at(a, b)
            i = np.argmin(coarse)
            best, a0, b0 = coarse.flat[i], a.flat[i], b.flat[i]
            da, db = np.meshgrid(np.linspace(-0.08, 0.08, 65), np.linspace(-0.08, 0.08, 65), indexing="ij")
            best = min(best, float(np.min(val_at(a0 + da, b0 + db))))
            grid_ok &= abs(vp - best) <= 1e-4
    _report(
        11,
        "epi-regularization: exact constant fidelity, E <= value <= R, primal/dual at 1e-4, projection identity at 1e-5",
        consts_exact and worst_bounds <= 1e-9 and worst_pd <= 1e-4 and worst_identity <= 1e-5 and grid_ok,
        f"pd gap {worst_pd:.2e}, identity gap {worst_identity:.2e}",
    )


def test_12_dro():
    rng = np.random.default_rng(112)
    scen = rng.uniform(-1.0, 1.0, size=(3, 2))
    tau = 0.4
    prob = DroProblem(scen, make_divergence("kl"), tau)
    sol = dro_solve(prob, steps=800)
    env_val = dro_envelope_value(prob, sol.weights)
    route_gap = abs(env_val - sol.value)

    # direct entropic-tail minimization over a refined weight grid
    def evar_at(w1):
        w = np.array([w1, 1.0 - w1])
        return _kl_risk(DiscreteRv(-(scen @ w), None), tau)[0]

    coarse = np.arange(0.0, 1.0001, 0.0025)
    vals = [evar_at(w1) for w1 in coarse]
    i = int(np.argmin(vals))
    fine = np.linspace(max(coarse[i] - 0.0025, 0.0), min(coarse[i] + 0.0025, 1.0), 201)
    evar_best = min(min(vals), min(evar_at(w1) for w1 in fine))
    evar_gap = abs(sol.value - evar_best)

    # CVaR LP portfolio vs the weight-grid oracle
    from test_robust import _grid_cvar_portfolio

    worst_lp = 0.0
    for _ in range(3):
        sc = rng.uniform(-1.0, 1.0, size=(3, 2))
        _, v_lp = portfolio_optimize(None, sc, cvar_alpha=0.5)
        worst_lp = max(worst_lp, abs(v_lp - _grid_cvar_portfolio(sc, 0.5)))
    _report(
        12,
        "DRO regret/envelope routes agree at 1e-4; KL ball equals direct entropic-tail minimization; CVaR LP vs grid",
        route_gap <= 1e-4 and evar_gap <= 1e-4 and worst_lp <= 1e-4,
        f"route {route_gap:.2e}, evar {evar_gap:.2e}, lp {worst_lp:.2e}",
    )
