import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskquad.core import (
    DiscreteRv,
    InvalidDistribution,
    StatInterval,
    cvar_direct,
    ess_bounds,
    expectation,
    p_norm,
    quantile_interval,
)

U5 = DiscreteRv.uniform([1, 2, 3, 4, 5])
SYM = DiscreteRv([-1, 1], [0.5, 0.5])


def test_expectation_examples():
    assert expectation(SYM) == 0.0
    assert expectation(DiscreteRv.constant(4.2)) == 4.2
    assert expectation(U5) == pytest.approx(3.0, abs=1e-15)


def test_p_norm_examples():
    assert p_norm(SYM, 2) == 1.0
    assert p_norm(DiscreteRv.constant(0.0), 7) == 0.0
    assert p_norm(DiscreteRv([3, -4], [0.5, 0.5]), 2) == pytest.approx(math.sqrt(12.5))
    assert p_norm(DiscreteRv([3, -4], [0.5, 0.5]), math.inf) == 4.0
    with pytest.raises(ValueError):
        p_norm(SYM, 0.5)


def test_quantile_interval_examples():
    assert quantile_interval(U5, 0.6) == StatInterval(3, 4)
    assert quantile_interval(U5, 0.5) == StatInterval(3, 3)
    assert quantile_interval(DiscreteRv.constant(2.5), 0.3) == StatInterval(2.5, 2.5)
    with pytest.raises(ValueError):
        quantile_interval(U5, 0.0)
    with pytest.raises(ValueError):
        quantile_interval(U5, 1.0)


def test_quantile_interval_tiny_atom_mass():
    # F(0) = 1e-13 > alpha: both quantiles sit at the tiny atom
    x = DiscreteRv([0.0, 1.0], [1e-13, 1.0 - 1e-13])
    assert quantile_interval(x, 5e-14) == StatInterval(0.0, 0.0)
    assert quantile_interval(x, 1e-13) == StatInterval(0.0, 1.0)
    assert quantile_interval(x, 2e-13) == StatInterval(1.0, 1.0)


def test_cvar_examples():
    assert cvar_direct(U5, 0.6) == pytest.approx(4.5, abs=1e-15)
    assert cvar_direct(U5, 0.0) == pytest.approx(expectation(U5), abs=1e-15)
    assert cvar_direct(SYM, 0.75) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        cvar_direct(U5, 1.0)


def test_ess_bounds():
    assert ess_bounds(U5) == (1.0, 5.0)
    assert ess_bounds(DiscreteRv.constant(-3)) == (-3.0, -3.0)
    assert ess_bounds(DiscreteRv([-2, 2], [0.5, 0.5])) == (-2.0, 2.0)
    # zero-probability atoms carry no mass
    assert ess_bounds(DiscreteRv([-9, 0, 9], [0.0, 1.0, 0.0])) == (0.0, 0.0)


def test_construction_normalizes_and_merges():
    x = DiscreteRv([2, 1, 1], [0.3, 0.35, 0.35])
    assert x.n_atoms == 2
    assert x.values.tolist() == [1.0, 2.0]
    assert x.probs.tolist() == pytest.approx([0.7, 0.3])
    y = DiscreteRv([0, 1], [0.5, 0.4999999999])  # within rescale tolerance
    assert y.probs.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InvalidDistribution):
        DiscreteRv([0, 1], [0.7, 0.7])
    with pytest.raises(InvalidDistribution):
        DiscreteRv([0, 1], [-0.2, 1.2])
    with pytest.raises(InvalidDistribution):
        DiscreteRv([math.nan], [1.0])


def test_statinterval_arithmetic():
    s = StatInterval(1, 3)
    assert s.shift(2) == StatInterval(3, 5)
    assert s.scale(-1) == StatInterval(-3, -1)
    assert s.reflect() == StatInterval(-3, -1)
    assert (s + StatInterval(0, 1)) == StatInterval(1, 4)
    assert s.contains(3.0) and not s.contains(3.1)
    with pytest.raises(ValueError):
        StatInterval(2, 1)


atoms_strategy = st.lists(
    st.tuples(
        st.floats(-50, 50, allow_nan=False),
        st.floats(0.01, 1.0),
    ),
    min_size=1,
    max_size=8,
)


def _build(atoms):
    vals = [a[0] for a in atoms]
    raw = np.array([a[1] for a in atoms])
    return DiscreteRv(vals, raw / raw.sum())


@given(atoms_strategy, st.floats(0.0, 0.99))
@settings(max_examples=60, deadline=None)
def test_cvar_monotone_in_alpha_and_above_mean(atoms, alpha):
    x = _build(atoms)
    lo = cvar_direct(x, alpha)
    hi = cvar_direct(x, min(alpha + 0.07, 0.995))
    assert hi >= lo - 1e-9
    assert lo >= expectation(x) - 1e-9
    assert cvar_direct(x, 0.0) == pytest.approx(expectation(x), abs=1e-9)


@given(atoms_strategy, st.floats(0.01, 0.99), st.floats(-20, 20, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_quantile_translation_and_bounds(atoms, alpha, c):
    x = _build(atoms)
    q = quantile_interval(x, alpha)
    lo, hi = ess_bounds(x)
    assert lo <= q.lo <= q.hi <= hi
    qc = quantile_interval(x.shift(c), alpha)
    assert qc.lo == q.lo + c and qc.hi == q.hi + c


def test_cvar_equals_mean_iff_constant():
    assert cvar_direct(DiscreteRv.constant(1.5), 0.7) == pytest.approx(1.5)
    x = DiscreteRv([0, 1], [0.5, 0.5])
    assert cvar_direct(x, 0.7) > expectation(x) + 1e-9


def test_quantile_level_ordering():
    rng = np.random.default_rng(0)
    for _ in range(25):
        k = int(rng.integers(2, 8))
        x = DiscreteRv(rng.uniform(-5, 5, k), rng.dirichlet(np.ones(k)))
        q1 = quantile_interval(x, 0.3)
        q2 = quantile_interval(x, 0.7)
        assert q2.lo >= q1.lo - 1e-12 and q2.hi >= q1.hi - 1e-12


# -- transforms that keep the atoms sorted skip the merge ---------------------


@given(atoms_strategy, st.sampled_from([2.5, 1e-9, 1e9, -0.75, -1.0, -1e9, 0.0]), st.floats(-1e6, 1e6, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_transforms_match_the_full_constructor(atoms, a, c):
    x = _build(atoms)
    for got, want in (
        (x.shift(c), DiscreteRv(x.values + c, x.probs)),
        (x.scale(a), DiscreteRv(x.values * a, x.probs)),
        (x.neg(), DiscreteRv(-x.values, x.probs)),
    ):
        assert np.array_equal(got.values, want.values)
        # the full constructor renormalizes probabilities that already sum to 1
        np.testing.assert_allclose(got.probs, want.probs, rtol=4 * np.finfo(float).eps, atol=0.0)
        assert not got.values.flags.writeable and not got.probs.flags.writeable


def test_transforms_merge_atoms_that_collide_by_rounding():
    x = DiscreteRv([1.0, 1.0 + 2.0**-52, 3.0], [0.25, 0.25, 0.5])
    assert x.n_atoms == 3
    # at 1e6 one ulp is about 1.2e-10, so the two lower atoms land on one value
    y = x.shift(1e6)
    assert y.n_atoms == 2 and y == DiscreteRv(x.values + 1e6, x.probs)
    assert y.probs.tolist() == [0.5, 0.5]
    # a positive scale that underflows the gap between atoms merges them too
    z = DiscreteRv([1e-300, 2e-300], [0.5, 0.5]).scale(1e-30)
    assert z.n_atoms == 1 and z.probs.tolist() == [1.0]
    assert DiscreteRv([1e-300, 2e-300], [0.5, 0.5]).scale(-1e-30).values.tolist() == [-0.0]
    # scaling by zero collapses every atom onto one
    assert x.scale(0.0) == DiscreteRv.constant(0.0)
    with pytest.raises(InvalidDistribution), np.errstate(over="ignore"):
        DiscreteRv([1e300, 2e300]).scale(1e10)
