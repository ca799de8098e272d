"""Finite discrete random variables, tail statistics, and statistic intervals.

Atoms are kept sorted by value with exactly-equal values merged, so quantile
and tail-mass scans can assume a canonical support.  Instances are immutable
and every operation here is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DiscreteRv",
    "StatInterval",
    "InvalidDistribution",
    "expectation",
    "p_norm",
    "quantile_interval",
    "cvar_direct",
    "ess_bounds",
    "sample_rvs",
    "SortedSums",
    "map_chunks",
    "chunk_rows",
]

# Probability vectors further off than this from summing to one are rejected
# rather than silently rescaled (tolerates CSV rounding, not bugs).
PROB_SUM_TOL = 1e-9

# CDF comparisons allow the rounding of the cumulative sum and of levels
# computed from probabilities: this many ulps of 1 per atom, never more than
# an absolute 1e-12.
_CDF_ULPS_PER_ATOM = 4.0
_CDF_EPS_MAX = 1e-12

# cells of one batched temporary (rows x columns) in ``map_chunks``, 32 KB:
# 16 K cells made the 100-atom row-sort scans of qsa (a test oracle since)
# no faster and raised the peak memory of the process running them by 0.5 MB.
_CHUNK_CELLS = 4096


class InvalidDistribution(ValueError):
    """Atoms do not form a valid finite probability distribution."""


class DiscreteRv:
    """Finite discrete random variable given by atoms ``(value, prob)``.

    Probabilities within ``PROB_SUM_TOL`` of summing to one are rescaled at
    construction; equal values are merged and zero-probability atoms dropped.
    """

    __slots__ = ("values", "probs")

    def __init__(self, values, probs=None):
        v = np.atleast_1d(np.asarray(values, dtype=float))
        if v.ndim != 1 or v.size == 0:
            raise InvalidDistribution("need at least one atom")
        if not np.all(np.isfinite(v)):
            raise InvalidDistribution("atom values must be finite")
        if probs is None:
            p = np.full(v.size, 1.0 / v.size)
        else:
            p = np.atleast_1d(np.asarray(probs, dtype=float))
            if p.shape != v.shape:
                raise InvalidDistribution("values and probs must have equal length")
            if not np.all(np.isfinite(p)):
                raise InvalidDistribution("probabilities must be finite")
            if np.any(p < -1e-12):
                raise InvalidDistribution("negative probability")
            p = np.maximum(p, 0.0)
            s = float(p.sum())
            if abs(s - 1.0) > PROB_SUM_TOL:
                raise InvalidDistribution(f"probabilities sum to {s}, not 1")
            p = p / s
        uvals, inverse = np.unique(v, return_inverse=True)
        up = np.bincount(inverse, weights=p)
        keep = up > 0.0
        if not np.any(keep):
            raise InvalidDistribution("all atoms have zero probability")
        self.values = uvals[keep]
        self.probs = up[keep]
        self.values.setflags(write=False)
        self.probs.setflags(write=False)

    @classmethod
    def _trusted(cls, values: np.ndarray, probs: np.ndarray) -> "DiscreteRv":
        """Atoms from a transform that keeps them sorted: skips the merge and the
        renormalization unless rounding made values collide or overflow."""
        if not (np.all(np.isfinite(values)) and np.all(values[1:] > values[:-1])):
            return cls(values, probs)
        rv = cls.__new__(cls)
        rv.values = values
        rv.probs = probs
        values.setflags(write=False)
        return rv

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, c: float) -> "DiscreteRv":
        return cls([c], [1.0])

    @classmethod
    def uniform(cls, values) -> "DiscreteRv":
        return cls(values)

    # -- views --------------------------------------------------------------

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return list(zip(self.values.tolist(), self.probs.tolist()))

    @property
    def n_atoms(self) -> int:
        return self.values.size

    def is_constant(self) -> bool:
        return self.values[-1] == self.values[0]

    def atom_index(self, values) -> np.ndarray:
        """The atom that each of ``values``, those this r.v. was built from, was
        merged into; a value of zero probability, dropped, takes its neighbour's."""
        return np.minimum(np.searchsorted(self.values, values), self.values.size - 1)

    def __repr__(self) -> str:
        inner = ", ".join(f"({v:g},{p:g})" for v, p in self.atoms)
        return f"DiscreteRv[{inner}]"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiscreteRv)
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.probs, other.probs)
        )

    def __hash__(self):
        return hash((self.values.tobytes(), self.probs.tobytes()))

    # -- pointwise transforms ------------------------------------------------

    def shift(self, c: float) -> "DiscreteRv":
        return DiscreteRv._trusted(self.values + c, self.probs)

    def scale(self, a: float) -> "DiscreteRv":
        if a > 0:
            return DiscreteRv._trusted(self.values * a, self.probs)
        if a < 0:
            return DiscreteRv._trusted(self.values[::-1] * a, self.probs[::-1])
        return DiscreteRv(self.values * a, self.probs)

    def neg(self) -> "DiscreteRv":
        return self.scale(-1.0)

    def abs(self) -> "DiscreteRv":
        return DiscreteRv(np.abs(self.values), self.probs)

    # -- moments -------------------------------------------------------------

    def moment(self, fn: Callable[[np.ndarray], np.ndarray]) -> float:
        """E[fn(X)] for a vectorized fn (may return +inf)."""
        return float(np.dot(self.probs, fn(self.values)))

    def mean(self) -> float:
        return float(np.dot(self.probs, self.values))

    def mean_pos(self) -> float:
        """E[X_+]."""
        return float(np.dot(self.probs, np.maximum(self.values, 0.0)))

    def mean_neg(self) -> float:
        """E[X_-] = E[max(-X, 0)]."""
        return float(np.dot(self.probs, np.maximum(-self.values, 0.0)))

    def variance(self) -> float:
        d = self.values - self.mean()
        return float(np.dot(self.probs, d * d))

    def std(self) -> float:
        return math.sqrt(max(self.variance(), 0.0))


# -- module-level operations -------------------------------------------------


def expectation(x: DiscreteRv) -> float:
    """E[X] = sum_i value_i * prob_i."""
    return x.mean()


def p_norm(x: DiscreteRv, p: float) -> float:
    """||X||_p = (E[|X|^p])^(1/p); for p = inf the largest |value| in the support."""
    if p == math.inf:
        return float(np.max(np.abs(x.values)))
    if p < 1.0:
        raise ValueError(f"p-norm requires p >= 1, got {p}")
    a = np.abs(x.values)
    return float(np.dot(x.probs, a**p) ** (1.0 / p))


def cdf_tol(n_atoms: int) -> float:
    """The tolerance of a comparison of masses summed over ``n_atoms`` atoms."""
    return min(_CDF_EPS_MAX, _CDF_ULPS_PER_ATOM * n_atoms * np.finfo(float).eps)


def quantile_interval(x: DiscreteRv, alpha: float) -> "StatInterval":
    """The alpha-quantile interval [q^-_alpha, q^+_alpha] via one CDF scan.

    q^-_alpha = sup{v : F(v) < alpha}, q^+_alpha = inf{v : F(v) > alpha}.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"quantile level must be in (0,1), got {alpha}")
    cum = np.cumsum(x.probs)
    m = cum.size
    tol = cdf_tol(m)
    i_lo = int(np.searchsorted(cum, alpha - tol, side="left"))
    i_hi = int(np.searchsorted(cum, alpha + tol, side="right"))
    i_lo = min(i_lo, m - 1)
    i_hi = min(i_hi, m - 1)
    return StatInterval(float(x.values[i_lo]), float(x.values[i_hi]))


def cvar_direct(x: DiscreteRv, alpha: float) -> float:
    """Tail average of the quantile function on (alpha, 1).

    Splits the probability mass of the atom straddling level alpha, so the
    result is continuous in alpha and agrees with the tail integral.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"cvar level must be in [0,1), got {alpha}")
    tail = 1.0 - alpha
    v = x.values[::-1]
    p = x.probs[::-1]
    cum = np.cumsum(p)
    before = cum - p
    take = np.clip(tail - before, 0.0, p)
    return float(np.dot(take, v) / tail)


def ess_bounds(x: DiscreteRv) -> tuple[float, float]:
    """(ess inf, ess sup) over atoms with positive probability."""
    return float(x.values[0]), float(x.values[-1])


def sample_rvs(rng: np.random.Generator, n: int, max_atoms: int = 8, span: float = 3.0, offset: float = 0.0) -> list[DiscreteRv]:
    """n random r.v.s of 2..max_atoms atoms uniform on offset + [-span, span]."""
    out = []
    for _ in range(n):
        k = int(rng.integers(2, max_atoms + 1))
        vals = rng.uniform(-span, span, size=k) + offset
        probs = rng.dirichlet(np.ones(k))
        out.append(DiscreteRv(vals, probs))
    return out


class SortedSums:
    """Prefix and suffix sums of mass and first moment over the sorted atoms.

    Values are centred at a reference atom ``ref``, so the rounding of every
    partial moment scales with the spread of X, not with its offset.
    """

    __slots__ = ("ref", "u", "lo_p", "lo_s", "hi_p", "hi_s", "mean_u")

    def __init__(self, x: DiscreteRv):
        self.ref = float(x.values[x.n_atoms // 2])
        self.u = x.values - self.ref
        p, pu = x.probs, x.probs * self.u
        self.lo_p = np.concatenate(([0.0], np.cumsum(p)))
        self.lo_s = np.concatenate(([0.0], np.cumsum(pu)))
        self.hi_p = np.concatenate((np.cumsum(p[::-1])[::-1], [0.0]))
        self.hi_s = np.concatenate((np.cumsum(pu[::-1])[::-1], [0.0]))
        self.mean_u = float(np.dot(p, self.u))

    def split(self, t, side: str = "left"):
        """Mass and centred first moment below and above ``ref + t``.

        Returns (P_lo, S_lo, P_hi, S_hi) with the atoms at ``ref + t`` counted
        above for ``side="left"`` and below for ``side="right"``.
        """
        i = np.searchsorted(self.u, t, side)
        return self.lo_p[i], self.lo_s[i], self.hi_p[i], self.hi_s[i]


def chunk_rows(width: int) -> int:
    """Rows of ``width`` cells that fit in one batched temporary."""
    return max(1, _CHUNK_CELLS // max(1, width))


def map_chunks(fn: Callable[[np.ndarray], np.ndarray], cs: np.ndarray, width: int) -> np.ndarray:
    """fn over row chunks of ``cs``, for an fn whose widest temporary holds
    ``width`` cells per row of ``cs``."""
    step = chunk_rows(width)
    if cs.size <= step:
        return fn(cs)
    return np.concatenate([fn(cs[i : i + step]) for i in range(0, cs.size, step)])


# -- statistic intervals -------------------------------------------------------


@dataclass(frozen=True)
class StatInterval:
    """Closed bounded interval [lo, hi]; the value type of every statistic."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if self.lo > self.hi:
            if self.lo - self.hi > 1e-9:
                raise ValueError(f"empty interval [{self.lo}, {self.hi}]")
            mid = 0.5 * (self.lo + self.hi)
            object.__setattr__(self, "lo", mid)
            object.__setattr__(self, "hi", mid)

    @classmethod
    def point(cls, c: float) -> "StatInterval":
        return cls(c, c)

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def shift(self, c: float) -> "StatInterval":
        return StatInterval(self.lo + c, self.hi + c)

    def scale(self, a: float) -> "StatInterval":
        if a >= 0:
            return StatInterval(self.lo * a, self.hi * a)
        return StatInterval(self.hi * a, self.lo * a)

    def reflect(self) -> "StatInterval":
        """The interval of -C over C in self."""
        return StatInterval(-self.hi, -self.lo)

    def __add__(self, other: "StatInterval") -> "StatInterval":
        return StatInterval(self.lo + other.lo, self.hi + other.hi)

    def contains(self, c: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= c <= self.hi + tol

    @staticmethod
    def weighted_sum(intervals: Sequence["StatInterval"], weights) -> "StatInterval":
        """Minkowski sum of positively weighted intervals."""
        lo = sum(w * it.lo for it, w in zip(intervals, weights))
        hi = sum(w * it.hi for it, w in zip(intervals, weights))
        return StatInterval(lo, hi)
