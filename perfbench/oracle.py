"""Independent numpy oracles for the benchmark's correctness checks.

Nothing here calls riskquad: every reference value is computed from the
generated atoms with the textbook formula, so a fast but wrong answer from
the program fails its check.  Tolerances follow the invariant suite (1e-9 for
identities, 1e-7 for route agreement), applied relative to the magnitude of
the inputs and never below the suite's absolute unit-scale value.
"""

from __future__ import annotations

import math

import numpy as np

ID_TOL = 1e-9
ROUTE_TOL = 1e-7
# cells of an (n_candidates x n_atoms) matrix evaluated at once
_CHUNK = 1 << 20


def magnitude(values) -> float:
    return max(1.0, float(np.max(np.abs(values))))


def cvar(values, probs, alpha: float) -> float:
    """Mean of the upper (1 - alpha) tail, splitting the straddling atom."""
    return float(cvar_rows(np.asarray(values, dtype=float)[None, :], np.asarray(probs, dtype=float), alpha)[0])


def cvar_rows(mat: np.ndarray, probs: np.ndarray, alpha: float) -> np.ndarray:
    """``cvar`` of every row of ``mat`` under the shared atom probabilities."""
    order = np.argsort(-mat, axis=1)
    v = np.take_along_axis(mat, order, axis=1)
    p = probs[order]
    tail = 1.0 - alpha
    before = np.cumsum(p, axis=1) - p
    take = np.clip(tail - before, 0.0, p)
    return np.sum(take * v, axis=1) / tail


# -- catalog errors as functions of the shift C ----------------------------------------


class PwlError:
    """A catalog error E whose map C -> E(X - C) is convex piecewise linear,
    with the candidate shifts that contain every kink of that map."""

    def __init__(self, family: str, params: dict):
        self.family = family
        self.params = params

    def values_at(self, x: np.ndarray, p: np.ndarray, cs: np.ndarray) -> np.ndarray:
        """E(X - c) for every c in ``cs``, evaluated in row chunks."""
        out = np.empty(cs.size)
        step = max(1, _CHUNK // max(1, x.size))
        for i in range(0, cs.size, step):
            z = x[None, :] - cs[i : i + step, None]
            out[i : i + step] = self._rows(z, p)
        return out

    def _rows(self, z: np.ndarray, p: np.ndarray) -> np.ndarray:
        f, par = self.family, self.params
        if f == "quantile":
            s = par["alpha"] / (1.0 - par["alpha"])
            return (s * np.maximum(z, 0.0) + np.maximum(-z, 0.0)) @ p
        if f == "qsau":
            return np.maximum(np.abs(z) - par["eps"], 0.0) @ p
        if f == "qsa":
            return (1.0 - par["alpha"]) * cvar_rows(np.abs(z), p, par["alpha"])
        mean = z @ p
        pos = np.maximum(z, 0.0) @ p
        return np.max([a * mean + b * pos + c for a, b, c in self._moment_terms()], axis=0)

    def _moment_terms(self) -> list[tuple[float, float, float]]:
        """E(Z) = max_j (a_j E[Z] + b_j E[Z_+] + c_j) for the max-of-moments errors."""
        f, par = self.family, self.params
        if f == "expectile_pl":
            return [(-1.0, 0.0, 0.0), (0.0, 1.0 / par["K"], 0.0)]
        if f == "mean_pl":
            return [(-1.0, 1.0, 0.0), (0.0, 1.0, 0.0)]
        if f == "biased_mean":
            x0 = par["x"]
            return [(-1.0, 1.0, -max(x0, 0.0)), (0.0, 1.0, -max(-x0, 0.0))]
        raise KeyError(f)

    def candidates(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Every shift at which C -> E(X - C) can change slope."""
        f, par = self.family, self.params
        u = np.unique(x)
        if f == "quantile":
            return u
        if f == "qsau":
            eps = par["eps"]
            return np.unique(np.concatenate([u - eps, u + eps]))
        if f == "qsa":
            mids = 0.5 * (u[:, None] + u[None, :])
            return np.unique(np.concatenate([u, mids[np.triu_indices(u.size, 1)]]))
        return np.unique(np.concatenate([u, self._branch_crossings(x, p, u)]))

    def _branch_crossings(self, x, p, u) -> np.ndarray:
        # between consecutive atoms E[(X-C)_+] = S - P C with S, P the mass and
        # first moment strictly above C, so each branch is a line in C
        mean = float(np.dot(p, x))
        edges = np.concatenate(([-np.inf], u, [np.inf]))
        pts = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            above = x > lo
            big_p, big_s = float(p[above].sum()), float(np.dot(p[above], x[above]))
            lines = [(a * mean + b * big_s + c, -(a + b * big_p)) for a, b, c in self._moment_terms()]
            for j in range(len(lines)):
                for k in range(j + 1, len(lines)):
                    (i1, s1), (i2, s2) = lines[j], lines[k]
                    if s1 != s2:
                        c = (i2 - i1) / (s1 - s2)
                        if lo <= c <= hi and math.isfinite(c):
                            pts.append(c)
        return np.asarray(pts, dtype=float)


PWL_FAMILIES = ("quantile", "qsau", "qsa", "expectile_pl", "mean_pl", "biased_mean")


def brute_min(err: PwlError, x: np.ndarray, p: np.ndarray) -> tuple[float, float]:
    """(min_C E(X - C), a minimizing C) by evaluating every kink candidate."""
    cs = err.candidates(x, p)
    vals = err.values_at(x, p, cs)
    i = int(np.argmin(vals))
    return float(vals[i]), float(cs[i])


# -- regression objectives ------------------------------------------------------------------


def regression_error(model: str, params: dict, resid: np.ndarray) -> float:
    """The catalog error of a residual vector with equal atom weights."""
    family = {"svr": "qsau"}.get(model, model)
    w = np.full(resid.size, 1.0 / resid.size)
    return float(PwlError(family, params).values_at(resid, w, np.zeros(1))[0])
