"""Shared sampling helpers for the test suite."""

from riskquad.core import sample_rvs


def random_rv(rng, max_atoms=8, span=3.0, offset=0.0):
    return sample_rvs(rng, 1, max_atoms=max_atoms, span=span, offset=offset)[0]


def random_rvs(rng, n, **kw):
    return sample_rvs(rng, n, **kw)


def interval_gap(a, b):
    return max(abs(a.lo - b.lo), abs(a.hi - b.hi))
