"""The catalog of concrete quadrangles with closed-form fast paths.

Families: scaled standard-deviation (mean-based), quantile (CVaR), second-order
CVaR, quantile symmetric average (CVaR-norm), its union variant (Vapnik /
epsilon-insensitive), expectile in squared and piecewise-linear form, the
piecewise-linear mean family, and the biased mean family.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import DiscreteRv, SortedSums, StatInterval, cdf_tol, cvar_direct, ess_bounds, p_norm, quantile_interval
from .constructions import (
    ErrorFn,
    Flags,
    MomentMaxSpec,
    Quadrangle,
    RegretFn,
    ScalarLoss,
    complete_quadrangle,
    error_from_loss,
    error_from_moment_max,
    mean_center_error,
    mean_center_regret,
    project_error,
    regret_to_risk,
)

__all__ = [
    "CatalogSpec",
    "make_catalog_quadrangle",
    "expectile_value",
    "alpha_set",
    "qsau_statistic_union",
    "qsau_printed_risk",
    "cvar2_risk",
    "cvar2_regret",
    "koenker_bassett_loss",
    "vapnik_loss",
    "asymmetric_mse_loss",
    "CATALOG_FAMILIES",
]

CATALOG_FAMILIES = {
    "standard_mean": ("lam",),
    "quantile": ("alpha",),
    "cvar2": ("alpha",),
    "qsa": ("alpha",),
    "qsau": ("eps",),
    "expectile_mse": ("q",),
    "expectile_pl": ("K",),
    "mean_pl": (),
    "biased_mean": ("x",),
}


@dataclass(frozen=True)
class CatalogSpec:
    """Family name plus its parameters; validated on construction."""

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in CATALOG_FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {sorted(CATALOG_FAMILIES)}")
        wanted = set(CATALOG_FAMILIES[self.family])
        got = set(self.params)
        if got != wanted:
            raise ValueError(f"family {self.family!r} takes params {sorted(wanted)}, got {sorted(got)}")
        p = self.params
        if self.family == "standard_mean" and not p["lam"] > 0:
            raise ValueError("lam must be positive")
        if self.family in ("quantile", "cvar2", "qsa") and not 0.0 < p["alpha"] < 1.0:
            raise ValueError("alpha must lie in (0,1)")
        if self.family == "qsau" and not p["eps"] >= 0.0:
            raise ValueError("eps must be nonnegative")
        if self.family == "expectile_mse" and not 0.0 < p["q"] < 1.0:
            raise ValueError("q must lie in (0,1)")
        if self.family == "expectile_pl" and not p["K"] > 0.0:
            raise ValueError(
                "K must be positive: the expectile changes character across q = 1/2, "
                "and the piecewise-linear family is only exposed on the coherent side"
            )


# -- scalar losses for the expectation-type families -------------------------------


def koenker_bassett_loss(alpha: float) -> ScalarLoss:
    """e(z) = (alpha/(1-alpha)) z_+ + z_-."""
    s = alpha / (1.0 - alpha)
    return ScalarLoss.from_pieces([(s, 0.0), (-1.0, 0.0)], label=f"koenker_bassett({alpha:g})")


def vapnik_loss(eps: float) -> ScalarLoss:
    """e(z) = (|z| - eps)_+, the epsilon-insensitive loss."""
    if eps == 0.0:
        return ScalarLoss.from_pieces([(1.0, 0.0), (-1.0, 0.0)], label="vapnik(0)")
    return ScalarLoss.from_pieces([(1.0, -eps), (-1.0, -eps), (0.0, 0.0)], label=f"vapnik({eps:g})")


def asymmetric_mse_loss(q: float) -> ScalarLoss:
    """e(z) = q z_+^2 + (1-q) z_-^2."""

    def fn(z):
        z = np.asarray(z, dtype=float)
        return q * np.maximum(z, 0.0) ** 2 + (1.0 - q) * np.maximum(-z, 0.0) ** 2

    def deriv(z):
        z = np.asarray(z, dtype=float)
        return 2.0 * q * np.maximum(z, 0.0) - 2.0 * (1.0 - q) * np.maximum(-z, 0.0)

    return ScalarLoss(fn, deriv, deriv, kinks=(), pieces=None, label=f"asymmetric_mse({q:g})")


# -- expectiles -----------------------------------------------------------------------


def expectile_value(x: DiscreteRv, q: float) -> float:
    """The unique C with q E[(X-C)_+] = (1-q) E[(X-C)_-].

    The balance function is piecewise linear and strictly decreasing in C,
    so it is evaluated at every atom in one prefix-sum pass, and the root is
    solved exactly on the first segment where it changes sign.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("expectile level must lie in (0,1)")
    v = x.values
    if x.is_constant():
        return float(v[0])
    # h(C) = q E[(X-C)_+] - (1-q) E[(X-C)_-], with the atoms at C counted in neither
    sums = SortedSums(x)
    lo_p, lo_s, _, _ = sums.split(sums.u, side="left")
    _, _, hi_p, hi_s = sums.split(sums.u, side="right")
    hs = q * (hi_s - sums.u * hi_p) - (1.0 - q) * (sums.u * lo_p - lo_s)
    crossing = np.nonzero((hs[:-1] >= 0.0) & (hs[1:] <= 0.0))[0]
    idx = int(crossing[0]) if crossing.size else 0
    a, b = float(v[idx]), float(v[idx + 1])
    ha, hb = float(hs[idx]), float(hs[idx + 1])
    if ha == hb:
        return 0.5 * (a + b)
    return a - ha * (b - a) / (hb - ha)


def _expectile_q_from_k(k: float) -> float:
    return (1.0 + k) / (1.0 + 2.0 * k)


# -- second-order CVaR integrals --------------------------------------------------------


def _cvar2_segments(x: DiscreteRv):
    """The tail segments of X centred at a reference atom, as in ``SortedSums``.

    On segment i, where 1 - b runs from the mass m_i of the atoms from i up
    to m_{i+1}, CVaR_b = ref + u_i + k_i / (1 - b), with
    k_i = sum_{j>i} p_j (u_j - u_i) summed over the gaps, so it has no
    cancellation.  CVaR_b is nondecreasing in b, and ``start`` holds its
    values, less ref, at the segment starts.  Returns (ref, u, mass, k,
    start), with mass[n] = 0 and k = 0 on the last segment, where CVaR_b is
    ess sup throughout.
    """
    v, p = x.values, x.probs
    ref = float(v[v.size // 2])
    u = v - ref
    mass = np.append(np.cumsum(p[::-1])[::-1], 0.0)
    k = np.append(np.cumsum((np.diff(v) * mass[1:-1])[::-1])[::-1], 0.0)
    return ref, u, mass, k, u + k / mass[:-1]


def _cvar2_whole(x: DiscreteRv, u, mass, k, j: int) -> float:
    """The integral of CVaR_b - ref over the whole segments j.., from
    ``_cvar2_segments``: p_i u_i + k_i log(m_i / m_{i+1}) on segment i, and
    p_i u_i on the last, where CVaR_b is ess sup throughout."""
    p = x.probs
    return float(np.dot(p[j:], u[j:]) + np.dot(k[j:-1], np.log1p(p[j:-1] / mass[j + 1 : -1])))


def cvar2_risk(x: DiscreteRv, alpha: float) -> float:
    """(1/(1-alpha)) * integral of CVaR_beta over (alpha, 1), exactly.

    With w = 1 - alpha, the integral is ref w plus the whole segments j..
    above alpha (m_j <= w) and the part of segment j - 1 from 1 - b = m_j
    up to w.
    """
    ref, u, mass, k, _ = _cvar2_segments(x)
    w = 1.0 - alpha
    j = int(np.count_nonzero(mass > w))
    part = 0.0
    if j > 0:
        i = j - 1
        part = u[i] * (w - mass[j]) + (k[i] * np.log(w / mass[j]) if j < x.n_atoms else 0.0)
    return float(ref + (part + _cvar2_whole(x, u, mass, k, j)) / w)


def _cvar2_root(x: DiscreteRv):
    """``_cvar2_segments`` with d = -ref, the index j of the first segment
    wholly above C = 0, by one ``searchsorted`` over the segment starts, and
    w = 1 - b* for the root b* of CVaR_b = 0: k_i / (-ref - u_i) on the
    segment j - 1 that holds it when 0 < j < n, 1 and 0 at the ends."""
    ref, u, mass, k, start = _cvar2_segments(x)
    d = -ref
    j = int(np.searchsorted(start, d, side="right"))
    w = mass[j]
    if 0 < j < x.n_atoms:
        i = j - 1
        w = min(max(k[i] / (d - u[i]), mass[j]), mass[i]) if d > u[i] else mass[i]
    return d, u, mass, k, j, w


def cvar2_regret(x: DiscreteRv, alpha: float) -> float:
    """(1/(1-alpha)) * integral of [CVaR_beta]_+ over (0, 1), exactly: the
    partial log-integral from b* (``_cvar2_root``) to its segment's end plus
    the integrals of the whole segments above it."""
    d, u, mass, k, j, w = _cvar2_root(x)
    part = 0.0
    if 0 < j < x.n_atoms:
        i = j - 1
        part = (u[i] - d) * (w - mass[j]) + k[i] * np.log(w / mass[j])
    return float((part + _cvar2_whole(x, u, mass, k, j) - d * mass[j]) / (1.0 - alpha))


def _cvar2_regret_subgradient(x: DiscreteRv, alpha: float) -> np.ndarray:
    """(1/(1-alpha)) * the integral of CVaR_b's tail density over the b where
    CVaR_b(X) > 0, (b*, 1), as rank weights over p: atom i, on the CDF
    segment (a_i, c_i], weighs G(c_i) - G(max(a_i, b*)), with G(t) =
    t log(1 - b*) + (1 - t) log(1 - t) + t.  In the tail mass s = 1 - t that
    is h(s) = s (log(s / (1 - b*)) - 1), up to a constant, at the tail
    masses clipped to 1 - b*."""
    *_, mass, _, _, w = _cvar2_root(x)
    if w == 0.0:
        return np.zeros(x.n_atoms)
    s = np.minimum(mass, w)
    h = s * (np.log(np.where(s > 0.0, s / w, 1.0)) - 1.0)
    return (h[1:] - h[:-1]) / (x.probs * (1.0 - alpha))


def _cvar2_shift_slopes(alpha: float):
    """C -> the left and right slopes of C -> cvar2 regret of X - C at every C
    of an array: -|{b : CVaR_b(X) >= C}| / (1 - alpha) and
    -|{b : CVaR_b(X) > C}| / (1 - alpha).

    Built once per X from ``_cvar2_segments``.  Each set is (b*, 1), and
    ``searchsorted`` over the segment starts, with ties counted above for >=
    and below for >, finds the segment of its end b*: 1 - b* = k_i / (C - ref
    - u_i) there, clipped to the segment.  Below the first start the set is
    all of (0, 1); past the last it is empty.
    """
    scale = 1.0 / (1.0 - alpha)

    def shift_slopes(x: DiscreteRv):
        ref, u, mass, k, start = _cvar2_segments(x)
        # segment j - 1 at index j, between 1 - b = 1 below the mean at index 0
        # and 1 - b = 0 past ess sup at index n: k, u, and 1 - b at its start and end
        k_, u_ = np.append(0.0, k), np.append(0.0, u)
        top = np.concatenate(([1.0], mass[:-2], [0.0]))
        end = np.append(1.0, mass[1:])

        def slopes(cs):
            d = np.asarray(cs, dtype=float) - ref
            j = np.stack((np.searchsorted(start, d, side="left"), np.searchsorted(start, d, side="right")))
            kj, uj, tj = k_[j], u_[j], top[j]
            w = np.divide(kj, d - uj, out=tj.copy(), where=d > uj)
            return -scale * np.minimum(np.maximum(w, end[j]), tj)

        return slopes

    return shift_slopes


# -- the alpha-set of the union family ----------------------------------------------------


def _half_spread_interval(x: DiscreteRv, alpha: float) -> StatInterval:
    """The set (1/2)(q_{(1+alpha)/2}(X) - q_{(1-alpha)/2}(X)) as an interval."""
    qh = quantile_interval(x, (1.0 + alpha) / 2.0)
    ql = quantile_interval(x, (1.0 - alpha) / 2.0)
    return StatInterval(0.5 * (qh.lo - ql.hi), 0.5 * (qh.hi - ql.lo))


def _alpha_breakpoints(x: DiscreteRv) -> np.ndarray:
    # the levels alpha at which (1 - alpha)/2 or (1 + alpha)/2 is a cumulative mass
    a = np.abs(2.0 * np.cumsum(x.probs)[:-1] - 1.0)
    return np.unique(np.concatenate(([0.0], a[(a > 0.0) & (a < 1.0)])))


def alpha_set(x: DiscreteRv, eps: float) -> list[StatInterval]:
    """The set of levels alpha in [0,1) whose symmetric quantile half-spread covers eps.

    Returned as a finite union of closed intervals computed from the
    piecewise-constant quantile functions on the atom grid.
    """
    lo_b, hi_b = ess_bounds(x)
    bound = 0.5 * (hi_b - lo_b)
    if not 0.0 <= eps < bound:
        raise ValueError(f"eps must satisfy 0 <= eps < {bound} for this r.v.")
    bps = _alpha_breakpoints(x)
    # candidate points: breakpoints and midpoints of the cells between them
    edges = list(bps) + [1.0]
    qualifying = []
    for i, a in enumerate(edges[:-1]):
        nxt = edges[i + 1]
        here = _half_spread_interval(x, a).contains(eps, tol=1e-12)
        mid_a = 0.5 * (a + nxt)
        mid = _half_spread_interval(x, mid_a).contains(eps, tol=1e-12)
        qualifying.append((a, nxt, here, mid))
    intervals: list[list[float]] = []

    def push(lo, hi):
        if intervals and lo <= intervals[-1][1] + 1e-15:
            intervals[-1][1] = max(intervals[-1][1], hi)
        else:
            intervals.append([lo, hi])

    for a, nxt, here, mid in qualifying:
        if here:
            push(a, a)
        if mid:
            push(a, nxt if nxt < 1.0 else nxt - 1e-12)
    return [StatInterval(lo, hi) for lo, hi in intervals]


def qsau_statistic_union(x: DiscreteRv, eps: float) -> list[StatInterval]:
    """Union over the alpha-set of the symmetric quantile averages.

    The two quantile selections are coupled through the spread equation:
    contributed midpoints are (a + b)/2 over a in q_{(1+alpha)/2},
    b in q_{(1-alpha)/2} with (a - b)/2 = eps, i.e. the interval
    [max(ql.lo + eps, qh.lo - eps), min(ql.hi + eps, qh.hi - eps)].
    """
    cells = alpha_set(x, eps)
    bps = _alpha_breakpoints(x)
    out: list[list[float]] = []

    def push(a: float):
        qh, ql = quantile_interval(x, (1.0 + a) / 2.0), quantile_interval(x, (1.0 - a) / 2.0)
        lo = max(ql.lo + eps, qh.lo - eps)
        hi = min(ql.hi + eps, qh.hi - eps)
        if lo <= hi + 1e-12:
            out.append([lo, max(lo, hi)])

    for cell in cells:
        probe = {cell.lo, cell.hi}
        inside = bps[(bps > cell.lo) & (bps < cell.hi)]
        probe.update(float(b) for b in inside)
        ordered = sorted(probe)
        for a, b in zip(ordered, ordered[1:] + [None]):
            push(a)
            if b is not None:
                push(0.5 * (a + b))
    merged = sorted((lo, hi) for lo, hi in out)
    final: list[list[float]] = []
    for lo, hi in merged:
        if final and lo <= final[-1][1] + 1e-12:
            final[-1][1] = max(final[-1][1], hi)
        else:
            final.append([lo, hi])
    return [StatInterval(lo, hi) for lo, hi in final]


# -- the catalog --------------------------------------------------------------------------


def make_catalog_quadrangle(spec: CatalogSpec) -> Quadrangle:
    """Instantiate a catalog family with its printed closed forms."""
    return _CONSTRUCTORS[spec.family](*(spec.params[k] for k in CATALOG_FAMILIES[spec.family]))


def _l2_shift_slopes(lam: float):
    """C -> the left and right slopes of C -> lam * ||X - C||_2 =
    lam * sqrt(Var X + (E X - C)^2) at every C of an array:
    lam (C - E X) / sqrt(Var X + (E X - C)^2), and -lam and lam at the kink of
    a constant X.  The variance is taken from values centred at a reference
    atom."""

    def shift_slopes(x: DiscreteRv):
        sums = SortedSums(x)
        sd = np.sqrt(np.dot(x.probs, (sums.u - sums.mean_u) ** 2))

        def slopes(cs):
            gap = np.asarray(cs, dtype=float) - sums.ref - sums.mean_u
            norm = np.hypot(sd, gap)
            right = lam * np.divide(gap, norm, out=np.ones_like(norm), where=norm > 0.0)
            return np.stack((np.where(norm > 0.0, right, -lam), right))

        return slopes

    return shift_slopes


def _standard_mean(lam: float) -> Quadrangle:
    err = ErrorFn(
        fn=lambda x: lam * p_norm(x, 2.0),
        flags=Flags(positively_homogeneous=True, monotone=False, expectation_type=False),
        label=f"l2_error({lam:g})",
        shift_slopes=_l2_shift_slopes(lam),
        # lam X / ||X||_2 (Cauchy-Schwarz), and 0 at X = 0
        subgradient=lambda x: lam * x.values / (p_norm(x, 2.0) or 1.0),
        square_weights=(1.0, 1.0),
    )
    return complete_quadrangle(
        err, lambda x: StatInterval.point(x.mean()), f"standard_mean({lam:g})", deviation=lambda x: lam * x.std()
    )


def _quantile(alpha: float) -> Quadrangle:
    err = error_from_loss(koenker_bassett_loss(alpha), Flags(True, True, True))
    spec = MomentMaxSpec(((0.0, 1.0 / (1.0 - alpha), 0.0),))
    v_regret = error_from_moment_max(spec, Flags(True, True, True), label=f"scaled_partial_moment({alpha:g})")
    return complete_quadrangle(
        err,
        lambda x: quantile_interval(x, alpha),
        f"quantile({alpha:g})",
        risk=lambda x: cvar_direct(x, alpha),
        deviation=lambda x: cvar_direct(x.shift(-x.mean()), alpha),
        regret_fn=v_regret,
    )


def _cvar2(alpha: float) -> Quadrangle:
    v_regret = RegretFn(
        fn=lambda x: cvar2_regret(x, alpha),
        flags=Flags(True, True, False),
        label=f"cvar2_regret({alpha:g})",
        shift_slopes=_cvar2_shift_slopes(alpha),
        subgradient=lambda x: _cvar2_regret_subgradient(x, alpha),
    )
    err = replace(mean_center_regret(v_regret), label=f"cvar2_error({alpha:g})")
    return complete_quadrangle(
        err,
        lambda x: StatInterval.point(cvar_direct(x, alpha)),
        f"cvar2({alpha:g})",
        risk=lambda x: cvar2_risk(x, alpha),
        regret_fn=v_regret,
    )


def _qsa_breakpoints(x: DiscreteRv) -> np.ndarray:
    """The atoms and their pairwise midpoints, 0.5 * (x_i + x_j) for i <= j,
    unsorted."""
    v = x.values
    i, j = np.triu_indices(v.size)
    return 0.5 * (v[i] + v[j])


def _cvar_norm_shift_slopes(alpha: float):
    """C -> the left and right slopes of C -> (1 - alpha) CVaR_alpha(|X - C|)
    at every C of an array: the mass of the top 1 - alpha of |X - C| taken
    below C minus that taken above, 0 within the CDF tolerance.

    That top is the bottom s and the top m - s of the mass, m = 1 - alpha,
    where the window [q(s), q(s + alpha)] of the quantile function is centred
    on C.  The levels at which either end steps to its next atom split [0, m]
    into pieces, each with a pair of atoms whose midpoint, the float of
    ``_qsa_breakpoints``, grows along them: s starts the first piece whose
    midpoint is above C (at least C for the left slope), one searchsorted.
    """
    m = 1.0 - alpha

    def shift_slopes(x: DiscreteRv):
        v, cum = x.values, np.cumsum(x.probs)[:-1]
        levels = np.concatenate((cum, cum - alpha))
        order = np.argsort(levels, kind="stable")
        i = np.concatenate(([0], np.cumsum(order < cum.size)))
        mids = 0.5 * (v[i] + v[np.arange(order.size + 1) - i])
        starts = np.concatenate(([0.0], np.clip(levels[order], 0.0, m), [m]))
        tol = cdf_tol(x.n_atoms)

        def slopes(cs):
            cs = np.asarray(cs, dtype=float)
            below = starts[np.stack((np.searchsorted(mids, cs, "left"), np.searchsorted(mids, cs, "right")))]
            gap = below - (m - below)
            return np.where(np.abs(gap) <= tol, 0.0, gap)

        return slopes

    return shift_slopes


def _cvar_norm_subgradient(x: DiscreteRv, alpha: float) -> np.ndarray:
    """sign(X) times the top 1 - alpha of mass of |X| as a density, the atoms
    of one |x| sharing their level's take in proportion to their mass."""
    _, level = np.unique(-np.abs(x.values), return_inverse=True)
    mass = np.bincount(level, weights=x.probs)
    take = np.clip((1.0 - alpha) - (np.cumsum(mass) - mass), 0.0, mass)
    return np.sign(x.values) * (take / mass)[level]


def _qsa(alpha: float) -> Quadrangle:
    err = ErrorFn(
        fn=lambda x: (1.0 - alpha) * cvar_direct(x.abs(), alpha),
        flags=Flags(True, True, False),
        label=f"cvar_norm({alpha:g})",
        shift_breakpoints=_qsa_breakpoints,
        shift_slopes=_cvar_norm_shift_slopes(alpha),
        subgradient=lambda x: _cvar_norm_subgradient(x, alpha),
    )
    a_lo, a_hi = (1.0 - alpha) / 2.0, (1.0 + alpha) / 2.0

    def statistic(x):
        return StatInterval.weighted_sum([quantile_interval(x, a_lo), quantile_interval(x, a_hi)], [0.5, 0.5])

    return complete_quadrangle(err, statistic, f"qsa({alpha:g})", risk=lambda x: _qsa_risk(x, alpha))


def _qsa_risk(x: DiscreteRv, alpha: float) -> float:
    """The average of CVaR at (1 - alpha)/2 and (1 + alpha)/2, weighted by 1 + alpha and 1 - alpha."""
    return 0.5 * ((1.0 + alpha) * cvar_direct(x, (1.0 - alpha) / 2.0) + (1.0 - alpha) * cvar_direct(x, (1.0 + alpha) / 2.0))


def _qsau(eps: float) -> Quadrangle:
    ph = eps == 0.0
    err = error_from_loss(vapnik_loss(eps), Flags(ph, True, True))
    v_regret = mean_center_error(err)
    return complete_quadrangle(
        err,
        lambda x: project_error(err, x)[1],
        f"qsau({eps:g})",
        risk=lambda x: regret_to_risk(v_regret, x)[0],
        regret_fn=v_regret,
    )


def qsau_printed_risk(x: DiscreteRv, eps: float, alpha: float) -> float:
    """The closed-form risk at a level alpha drawn from the alpha-set."""
    return _qsa_risk(x, alpha) - (1.0 - alpha) * eps


def _expectile_mse(q: float) -> Quadrangle:
    err = replace(error_from_loss(asymmetric_mse_loss(q), Flags(False, False, True)), square_weights=(1.0 - q, q))

    def deviation(x):
        e = expectile_value(x, q)
        d = x.values - e
        return float(np.dot(x.probs, q * np.maximum(d, 0.0) ** 2 + (1.0 - q) * np.maximum(-d, 0.0) ** 2))

    return complete_quadrangle(
        err, lambda x: StatInterval.point(expectile_value(x, q)), f"expectile_mse({q:g})", deviation=deviation
    )


def _expectile_pl(k: float) -> Quadrangle:
    q = _expectile_q_from_k(k)
    spec = MomentMaxSpec(((-1.0, 0.0, 0.0), (0.0, 1.0 / k, 0.0)))
    err = error_from_moment_max(spec, Flags(True, True, False), label=f"expectile_pl_error({k:g})")
    return complete_quadrangle(
        err,
        lambda x: StatInterval.point(expectile_value(x, q)),
        f"expectile_pl({k:g})",
        risk=lambda x: expectile_value(x, q),
        deviation=lambda x: expectile_value(x.shift(-x.mean()), q),
    )


def _mean_pl() -> Quadrangle:
    spec = MomentMaxSpec(((-1.0, 1.0, 0.0), (0.0, 1.0, 0.0)))
    err = error_from_moment_max(spec, Flags(True, True, False), label="adjusted_mean_abs_error")
    return complete_quadrangle(
        err, lambda x: StatInterval.point(x.mean()), "mean_pl", deviation=lambda x: x.shift(-x.mean()).mean_pos()
    )


def _biased_mean(x0: float) -> Quadrangle:
    xp, xn = max(x0, 0.0), max(-x0, 0.0)
    spec = MomentMaxSpec(((-1.0, 1.0, -xp), (0.0, 1.0, -xn)))
    err = error_from_moment_max(spec, Flags(x0 == 0.0, True, False), label=f"superexpectation_error({x0:g})")
    return complete_quadrangle(
        err,
        lambda x: StatInterval.point(x0 + x.mean()),
        f"biased_mean({x0:g})",
        deviation=lambda x: x.shift(-x.mean() - x0).mean_pos() - xn,
    )


_CONSTRUCTORS = {
    "standard_mean": _standard_mean,
    "quantile": _quantile,
    "cvar2": _cvar2,
    "qsa": _qsa,
    "qsau": _qsau,
    "expectile_mse": _expectile_mse,
    "expectile_pl": _expectile_pl,
    "mean_pl": _mean_pl,
    "biased_mean": _biased_mean,
}
