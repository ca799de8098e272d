import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskquad.core import DiscreteRv, cvar_direct, expectation
from riskquad.dual import (
    conjugate_eval,
    cvar_envelope,
    dual_axiom_check,
    envelope_extract,
    envelope_sup,
    envelope_sup_direction,
    expectile_envelope,
    mean_abs_risk_envelope,
    mean_envelope,
    stddev_deviation_envelope,
)
from riskquad.measures import CATALOG, CatalogSpec, expectile_value, make_catalog_quadrangle

from helpers import pair_rows, pair_rows_contain, pair_rows_lp, random_rv, random_rvs


def test_cvar_support_equals_primal():
    rng = np.random.default_rng(0)
    for _ in range(30):
        m = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(m))
        vals = rng.uniform(-4, 4, m)
        alpha = float(rng.uniform(0.05, 0.9))
        env = cvar_envelope(alpha, p)
        sup, q = envelope_sup(env, vals)
        assert sup == pytest.approx(cvar_direct(DiscreteRv(vals, p), alpha), abs=1e-7)
        assert env.contains(q)


def test_cvar_vertex_example():
    p = np.array([0.5, 0.5])
    sup, q = envelope_sup(cvar_envelope(0.5, p), np.array([-1.0, 1.0]))
    assert sup == pytest.approx(1.0)
    assert np.allclose(q, [0.0, 2.0], atol=1e-9)


def test_mean_envelope_is_singleton():
    p = np.array([0.3, 0.7])
    env = mean_envelope(p)
    sup, _ = envelope_sup(env, np.array([2.0, -1.0]))
    assert sup == pytest.approx(p @ [2.0, -1.0])


def test_mean_abs_risk_envelope_matches_primal():
    q = make_catalog_quadrangle(CatalogSpec("mean_pl", {}))
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = random_rv(rng, max_atoms=5)
        env = mean_abs_risk_envelope(x.probs)
        sup, _ = envelope_sup(env, x.values)
        assert sup == pytest.approx(q.risk(x), abs=1e-7)


def test_expectile_envelope_matches_primal():
    k = 0.5
    q_level = (1 + k) / (1 + 2 * k)
    rng = np.random.default_rng(2)
    for _ in range(15):
        x = random_rv(rng, max_atoms=5)
        env = expectile_envelope(q_level, x.probs)
        sup, _ = envelope_sup(env, x.values)
        assert sup == pytest.approx(expectile_value(x, q_level), abs=1e-7)


def test_stddev_envelope_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = random_rv(rng, max_atoms=5)
        env = stddev_deviation_envelope(1.3, x.probs)
        sup, _ = envelope_sup(env, x.values)
        assert sup == pytest.approx(1.3 * x.std(), abs=1e-12)


def _argmax_cases(rng, tiny):
    """(X, its masses, scale) over the input classes of the vertex scans:
    random and rounded (tied) values, single atoms, scales 1e-9 to 1e9, some
    at an offset ten times the scale; Dirichlet masses, floored at 1e-12
    when ``tiny``."""
    for trial in range(240):
        m = 1 if trial % 12 == 0 else int(rng.integers(2, 9))
        p = rng.dirichlet(np.full(m, 0.05 if tiny else 1.0))
        if tiny:
            p = np.maximum(p, 1e-12)
            p /= p.sum()
        s = 10.0 ** rng.uniform(-9.0, 9.0)
        x = s * (rng.normal(size=m) + (10.0 * rng.normal() if trial % 5 == 0 else 0.0))
        if trial % 3 == 0:
            x = s * np.round(x / s)
        yield x, p, s


def _argmax_envelopes(rng, p, x):
    """cvar at alpha 0, 0.5 and 0.99, mean_abs and an expectile envelope on
    masses p, each with its primal risk of X and its pair rows (None for
    cvar, a box and a row)."""
    rv = DiscreteRv(x, p)
    q_level = float(rng.uniform(0.51, 0.99))
    mean_pl = make_catalog_quadrangle(CatalogSpec("mean_pl", {}))
    envs = [(cvar_envelope(alpha, p), cvar_direct(rv, alpha), None) for alpha in (0.0, 0.5, 0.99)]
    return envs + [
        (mean_abs_risk_envelope(p), mean_pl.risk(rv), pair_rows(p.size, 1.0, -1.0, 1.0)),
        (expectile_envelope(q_level, p), expectile_value(rv, q_level), pair_rows(p.size, 1.0 - q_level, -q_level, 0.0)),
    ]


@pytest.mark.parametrize("tiny", [False, True], ids=["dirichlet", "masses-to-1e-12"])
def test_envelope_argmax_is_the_exact_maximizer(tiny):
    # the vertex scans against the primal risk, and against solve_lp on the
    # envelope's box and row, cut by its pair rows where it has them, with
    # the direction at unit scale; their Q lies in the set and has E[Q] = 1.
    # Masses below solve_lp's pivot tolerance (1e-9) leave its atoms at their
    # starting bound, so the LP is compared only on unfloored masses
    rng = np.random.default_rng(29)
    for x, p, s in _argmax_cases(rng, tiny):
        d = p * x
        for env, primal, rows in _argmax_envelopes(rng, p, x):
            v, q = env.argmax(d)
            tol = 1e-12 * (s + abs(v))
            assert abs(v - primal) <= tol, (env.label, v, primal)
            assert abs(v - float(d @ q)) <= tol
            assert env.contains(q) and abs(float(p @ q) - 1.0) <= 1e-12, env.label
            if not tiny:
                unit = float(np.max(np.abs(d))) or 1.0
                if rows is None:
                    lp, _ = envelope_sup_direction(dataclasses.replace(env, argmax=None), d / unit)
                else:
                    lp = pair_rows_lp(env, d / unit, rows)
                assert abs(v - unit * lp) <= tol, (env.label, v, unit * lp)


@st.composite
def _membership_cases(draw):
    """A mean_abs or expectile envelope on 1 to 8 atoms with its pair rows, and
    a density to test: an argmax output, its 1e-10 relative perturbation, or
    a random Q on the row E[Q] = 1 with tied entries, its spread exactly at
    the bound, within 1e-12 or 1e-8 of it, or scaled off it."""
    m = draw(st.integers(1, 8))
    p = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m)))
    p /= p.sum()
    if draw(st.booleans()):
        env, rows, ratio = mean_abs_risk_envelope(p), pair_rows(m, 1.0, -1.0, 1.0), None
    else:
        q_level = draw(st.floats(0.51, 0.99))
        env, rows, ratio = expectile_envelope(q_level, p), pair_rows(m, 1.0 - q_level, -q_level, 0.0), q_level / (1.0 - q_level)
    how = draw(st.sampled_from(["argmax", "perturbed", "random"]))
    if how != "random":
        q = env.argmax(np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=m, max_size=m))))[1]
        if how == "perturbed":
            q = q * (1.0 + 1e-10 * np.array(draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=m, max_size=m))))
        return env, rows, q
    # levels u in [0, 1], ties from a coarse grid, with the ends 0 and 1 both taken where m > 1
    u = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=m, max_size=m)))
    if m > 1:
        u[:2] = 0.0, 1.0
    spread = draw(st.sampled_from([1.0, 1.0, 0.5, 1.5, 1.0 + 1e-12, 1.0 - 1e-12, 1.0 + 1e-8, 1.0 - 1e-8]))
    if ratio is None:
        q = 1.0 + spread * (u - float(p @ u))  # max Q - min Q = spread
    else:
        q = 1.0 + (spread * ratio - 1.0) * u  # max Q / min Q = spread * ratio
        q /= float(p @ q)
    return env, rows, q


@given(_membership_cases())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_envelope_membership_matches_the_pair_rows(case):
    # the O(m) tests max Q - min Q <= 1 and (1 - q) max Q - q min Q <= 0
    # against the m(m - 1) pair rows they replace, at the same tolerance
    env, rows, q = case
    assert env.contains(q) == pair_rows_contain(env, rows, q), (env.label, q)


@pytest.mark.parametrize(
    "env, q",
    [
        # max Q - min Q and (1 - q) max Q - q min Q exceed their bounds by 1e-7 and 5e-8
        (mean_abs_risk_envelope([0.5, 0.5]), [0.5 - 5e-8, 1.5 + 5e-8]),
        (expectile_envelope(0.75, [0.5, 0.5]), [0.5 - 5e-8, 1.5 + 5e-8]),
        # the box 0 <= Q <= 2, left by 5e-8 at both ends
        (cvar_envelope(0.5, [0.5, 0.5]), [-5e-8, 2.0 + 5e-8]),
    ],
)
def test_membership_and_box_share_one_tolerance(env, q):
    assert env.contains(q, tol=1e-6)
    assert not env.contains(q)


def test_stddev_argmax_is_the_scaled_deviation():
    # E[QX] = lam sigma(X), and Q lies in the ball
    rng = np.random.default_rng(31)
    for x, p, s in _argmax_cases(rng, False):
        env = stddev_deviation_envelope(1.3, p)
        v, q = env.argmax(p * x)
        sigma = DiscreteRv(x, p).std()
        assert abs(v - 1.3 * sigma) <= 1e-12 * (s + v)
        assert abs(float(np.dot(p, q * x)) - v) <= 1e-12 * (s + v)
        assert env.contains(q)


def test_catalog_envelopes_at_100000_atoms():
    # box, row, membership test and argmax are all O(m): at 10^5 atoms the
    # m(m - 1) pair rows of mean_abs and expectile, or the m x m identity of
    # the mean, would not fit in memory
    rng = np.random.default_rng(7)
    x = DiscreteRv(rng.standard_normal(100_000), rng.dirichlet(np.ones(100_000)))
    for family, params in (("quantile", {"alpha": 0.7}), ("mean_pl", {}), ("expectile_pl", {"K": 0.5})):
        env = CATALOG[family].envelope(probs=x.probs, **params)
        sup, q = envelope_sup(env, x.values)
        risk = make_catalog_quadrangle(CatalogSpec(family, params)).risk(x)
        assert abs(sup - risk) <= 1e-12 * (1.0 + abs(risk)), (family, sup, risk)
        assert env.contains(q), family
        assert dual_axiom_check(env).passed, family
    env = mean_envelope(x.probs)
    sup, q = envelope_sup(env, x.values)
    assert abs(sup - x.mean()) <= 1e-12 * (1.0 + abs(x.mean()))
    assert env.contains(q)
    rep = dual_axiom_check(env)
    assert rep.clauses["center_membership"] and rep.clauses["hyperplane"] and not rep.clauses["separation"]


# -- conjugates ----------------------------------------------------------------


def test_conjugate_of_quadratic():
    p = np.array([0.5, 0.5])
    f = lambda x: x.moment(lambda v: v * v)
    got = conjugate_eval(f, np.ones(2), p)
    assert got == pytest.approx(0.25, abs=1e-6)
    rng = np.random.default_rng(4)
    for _ in range(5):
        q = rng.uniform(-2, 2, 2)
        want = float(np.dot(p, q * q)) / 4.0
        assert conjugate_eval(f, q, p) == pytest.approx(want, abs=1e-6)


def test_conjugate_of_mean_is_indicator():
    p = np.array([0.5, 0.5])
    f = lambda x: x.mean()
    assert conjugate_eval(f, np.ones(2), p) == pytest.approx(0.0, abs=1e-9)
    assert conjugate_eval(f, np.array([0.5, 1.5]), p) == math.inf


def test_conjugate_of_cvar_is_envelope_indicator():
    p = np.array([0.5, 0.5])
    f = lambda x: cvar_direct(x, 0.5)
    assert conjugate_eval(f, np.array([0.5, 1.5]), p) == pytest.approx(0.0, abs=1e-9)
    assert conjugate_eval(f, np.array([0.0, 3.0]), p) == math.inf
    assert conjugate_eval(f, np.array([1.0, 1.2]), p) == math.inf  # off the hyperplane


def test_biconjugate_small_instances():
    # Fenchel-Moreau on a 2-atom space: f** == f for closed convex f
    p = np.array([0.5, 0.5])
    f = lambda x: cvar_direct(x, 0.5)
    rng = np.random.default_rng(5)
    grid = np.linspace(0.0, 2.0, 21)  # envelope box for cvar 0.5
    for _ in range(4):
        vals = rng.uniform(-2, 2, 2)
        x = DiscreteRv(vals, p)
        best = -math.inf
        for q1 in grid:
            q2 = (1.0 - p[0] * q1) / p[1]
            if not 0 <= q2 <= 2.0:
                continue
            q = np.array([q1, q2])
            best = max(best, float(np.dot(p, q * vals)) - conjugate_eval(f, q, p))
        assert best == pytest.approx(f(x), abs=1e-4)


# -- envelope extraction -----------------------------------------------------------


def test_envelope_extract_accepts_known():
    p = np.array([0.25, 0.5, 0.25])
    env = envelope_extract(lambda x: cvar_direct(x, 0.5), p, known=cvar_envelope(0.5, p))
    assert env.label == "cvar(0.5)"


def test_envelope_extract_rejects_inhomogeneous():
    p = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        envelope_extract(lambda x: x.moment(lambda v: v * v), p)


def test_envelope_extract_oracle_membership():
    p = np.array([0.5, 0.5])
    env = envelope_extract(lambda x: cvar_direct(x, 0.5), p)
    assert env.contains(np.array([0.5, 1.5]))
    assert not env.contains(np.array([0.0, 3.0]))


# -- axiom checks -------------------------------------------------------------------


def test_dual_axioms_cvar():
    rep = dual_axiom_check(cvar_envelope(0.6, np.array([0.25, 0.5, 0.25])))
    assert rep.passed, rep.clauses


def test_dual_axioms_stddev_deviation():
    rep = dual_axiom_check(stddev_deviation_envelope(1.0, np.array([0.5, 0.5])))
    assert rep.passed, rep.clauses


def test_dual_axioms_expectile_and_mean_abs():
    p = np.array([0.3, 0.3, 0.4])
    assert dual_axiom_check(expectile_envelope(0.75, p)).passed
    assert dual_axiom_check(mean_abs_risk_envelope(p)).passed


def test_singleton_regret_envelope_fails_separation():
    rep = dual_axiom_check(mean_envelope(np.array([0.5, 0.5])), kind="regret")
    assert rep.clauses["center_membership"]
    assert not rep.clauses["separation"]
