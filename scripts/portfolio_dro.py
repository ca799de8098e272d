"""Compare a nominal tail-average portfolio with its distributionally robust
counterpart over a KL ball, reporting the worst-case density the adversary
would pick.

Usage: python scripts/portfolio_dro.py [tau]
"""

import sys

import numpy as np

from riskquad.core import DiscreteRv, cvar_direct
from riskquad.divergence import make_divergence
from riskquad.robust import DroProblem, dro_solve, portfolio_optimize


def main():
    tau = float(sys.argv[1]) if len(sys.argv) > 1 else 0.25
    rng = np.random.default_rng(7)
    n_scen, n_assets = 6, 3
    scen = rng.normal(0.04, 0.12, size=(n_scen, n_assets))
    print("scenario returns (rows = states, columns = assets):")
    for row in scen:
        print("  " + "  ".join(f"{r:+.4f}" for r in row))

    w_nom, v_nom = portfolio_optimize(None, scen, cvar_alpha=0.8)
    print(f"\nnominal tail-average portfolio (alpha = 0.8):")
    print("  weights:", np.round(w_nom, 4), f" risk = {v_nom:.6f}")

    sol = dro_solve(DroProblem(scen, make_divergence("kl"), tau), steps=1500)
    print(f"\nrobust portfolio over the KL ball (tau = {tau}):")
    print("  weights:", np.round(sol.weights, 4), f" worst-case loss = {sol.value:.6f}")
    print("  route gap (certified bound on the value):", f"{sol.route_gap:.2e}")
    print("  adversarial density:", np.round(sol.worst_case_density, 4))

    nominal_rv = DiscreteRv(-(scen @ sol.weights))
    print(f"\nnominal expected loss of the robust book: {nominal_rv.mean():+.6f}")
    print(f"nominal tail average (alpha = 0.8):        {cvar_direct(nominal_rv, 0.8):+.6f}")


if __name__ == "__main__":
    main()
