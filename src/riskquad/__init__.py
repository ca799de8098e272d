"""Risk quadrangle calculus on finite discrete random variables.

Risk, deviation, regret, and error functionals with their shared statistic;
construction theorems (projection, mixing, scaling, reverting, expectation
form); the catalog of named quadrangles; divergence-generated families with
their dual envelopes; generalized regression; and distributionally robust
optimization with epi-regularization.
"""

from .core import (
    DiscreteRv,
    InvalidDistribution,
    StatInterval,
    cvar_direct,
    ess_bounds,
    expectation,
    p_norm,
    quantile_interval,
)
from .constructions import (
    ErrorFn,
    Flags,
    MomentMaxSpec,
    Quadrangle,
    RegretFn,
    ScalarLoss,
    error_from_coherent_risk,
    error_from_loss,
    error_from_moment_max,
    expectation_quadrangle,
    mean_center_error,
    mean_center_regret,
    mix_quadrangles,
    project_error,
    quadrangle_from_error,
    regret_to_risk,
    revert_quadrangles,
    scale_quadrangle,
)
from .measures import (
    CatalogSpec,
    alpha_set,
    expectile_value,
    make_catalog_quadrangle,
    qsau_statistic_union,
)
from .divergence import (
    DivergenceFn,
    StochasticDivergenceJ,
    classify_divergence,
    divergence_value,
    family_eval_envelope,
    family_eval_perspective,
    make_divergence,
    make_divergence_quadrangle,
    perspective_quadrangle,
)
from .dual import Envelope, conjugate_eval, dual_axiom_check, envelope_extract, envelope_sup
from .regression import Dataset, FitResult, fit_linear, fit_named, nu_svc, regression_equivalence_check, track_statistic
from .robust import DroProblem, EpiSpec, dro_solve, epi_regret, epi_risk_dual, epi_risk_primal, portfolio_optimize

__version__ = "0.1.0"
