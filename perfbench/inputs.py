"""Seeded input generation for the benchmark workloads.

Every input is drawn from ``numpy.random.default_rng(seed)``; the program
under test only ever sees the generated atoms, datasets and scenario files.
Each input class exists for a reason, recorded next to it:

* ``draw_rv`` varies three properties the calculus cost depends on:
  - probabilities uniform or Dirichlet-drawn: uniform atoms hit the
    ``probs=None`` fast path of the CSV reader, Dirichlet ones exercise the
    weighted tail scans and produce tiny masses;
  - values continuous or on a grid: grid values tie, so ``DiscreteRv``
    merges atoms and the merge path runs;
  - scale 1e-3, 1 or 1e3 with an offset of a few scales: auto-bracketing,
    ``flat_interval`` expansion and the breakpoint noise floors all depend
    on the magnitude of the values.
* ``draw_dataset``: linear model with Student-t (3 dof) noise, the heavy tails
  that make quantile and SVR regression differ from least squares.
* ``draw_scenarios``: asset returns at annual scale (sigma about 0.12); the
  daily-scale matrix is the same draw times ``DAILY``, so positively
  homogeneous risk values must scale exactly.
"""

from __future__ import annotations

import numpy as np

SCALES = (1e-3, 1.0, 1e3)
DAILY = 1e-2


class RvSpec:
    """Atoms of one generated random variable, before tie merging."""

    __slots__ = ("values", "probs")

    def __init__(self, values, probs):
        self.values = values
        self.probs = probs


def draw_rv(rng: np.random.Generator, n_atoms: int, scale: float, grid_step: float = 0.5) -> RvSpec:
    """One random variable of ``n_atoms`` raw atoms (before tie merging).

    The caller picks the scale, cycling through ``SCALES``, so every run holds
    the same mix of magnitudes whatever the seed.
    """
    offset = scale * float(rng.uniform(-3.0, 3.0))
    z = rng.standard_normal(n_atoms)
    if rng.integers(2):
        z = np.round(z / grid_step) * grid_step
    probs = rng.dirichlet(np.ones(n_atoms)) if rng.integers(2) else np.full(n_atoms, 1.0 / n_atoms)
    return RvSpec(offset + scale * z, probs)


def draw_dataset(rng: np.random.Generator, n: int, d: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Features and target of a linear model with Student-t noise."""
    x = rng.standard_normal((n, d))
    beta = rng.uniform(-2.0, 2.0, size=d)
    y = 1.0 + x @ beta + rng.standard_t(3, size=n)
    return x, y


def draw_scenarios(rng: np.random.Generator, m: int, n_assets: int) -> np.ndarray:
    """Annual-scale scenario returns: per-asset drift plus normal noise."""
    mu = rng.uniform(0.02, 0.10, size=n_assets)
    return mu + 0.12 * rng.standard_normal((m, n_assets))


# -- CSV writers in the formats the CLI reads ---------------------------------------


def _fmt(v: float) -> str:
    return repr(float(v))


def write_rv_csv(path: str, rv: RvSpec) -> None:
    with open(path, "w") as fh:
        fh.write("value,prob\n")
        for v, p in zip(rv.values, rv.probs):
            fh.write(f"{_fmt(v)},{_fmt(p)}\n")


def write_dataset_csv(path: str, x: np.ndarray, y: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(",".join([f"f{j}" for j in range(x.shape[1])] + ["y"]) + "\n")
        for row, t in zip(x, y):
            fh.write(",".join(_fmt(v) for v in row) + f",{_fmt(t)}\n")


def write_scenarios_csv(path: str, s: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(f"a{j}" for j in range(s.shape[1])) + "\n")
        for row in s:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
