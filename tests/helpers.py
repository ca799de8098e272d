"""Shared sampling helpers for the test suite."""

import dataclasses

from riskquad.core import sample_rvs
from riskquad.divergence import make_divergence_quadrangle


def random_rv(rng, max_atoms=8, span=3.0, offset=0.0):
    return sample_rvs(rng, 1, max_atoms=max_atoms, span=span, offset=offset)[0]


def random_rvs(rng, n, **kw):
    return sample_rvs(rng, n, **kw)


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


def within(a, b, rel=1e-12):
    """|a - b| <= rel * (1 + |b|)."""
    return abs(a - b) <= rel * (1.0 + abs(b))


def generic_divergence_quadrangle(div, beta):
    """The quadrangle of ``div`` at ``beta`` without its closed forms: the
    phi-regret projected by golden section, the oracle for the closed routes."""
    return make_divergence_quadrangle(dataclasses.replace(div, closed_forms=None), beta)
