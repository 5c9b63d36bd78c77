"""Equilibria of an infinite coagulation-death model of dust-laden cells.

Free quartz at concentration x is ingested by macrophage cohorts M_i
(cells holding i particles) at rates k_i; cohorts leave by clearance
(p_i, load removed) or death (q_i, load re-released).  The package
computes certified values of the equilibrium series, classifies when an
equilibrium exists for a given inflow, expands the series for large x,
and integrates the truncated dynamics as an independent cross-check.

Public surface: coefficient families, certified series evaluation,
piecewise-constant closed forms and root solving, power-law regime
classification, large-x asymptotics, and the truncated-system
integrator.  The acceptance registry lives in `quartzeq.acceptance`
(run it as `python3 -m quartzeq.acceptance` or `quartzeq reproduce`).
"""

from .errors import (
    QuartzeqError,
    DomainError,
    ConvergenceError,
    ConsistencyError,
    IntegrationError,
)
from .coefficients import (
    CoefficientFamily,
    PiecewiseConstantFamily,
    PowerLawFamily,
    TabulatedFamily,
    family_from_config,
    load_family,
)
from .series import (
    BoundedValue,
    EquilibriumProfile,
    evaluate,
    F_equilibrium,
    cohort_profile,
    audit_G_identity,
    audit_d_identity,
    DEFAULT_TOL,
    DEFAULT_TERM_CAP,
)
from .piecewise import (
    RootReport,
    F_piecewise,
    stationary_point,
    alpha_star,
    solve_roots,
    sum_kM_closed,
    sum_iqM_closed,
)
from .powerlaw import (
    Regime,
    RegimeVerdict,
    MEstimate,
    classify_regime,
    estimate_m_with_error,
    existence_verdict,
    count_equilibria_probe,
    SUPREMUM_AT_INFINITY,
)
from .asymptotics import (
    ExpansionTerm,
    AsymptoticExpansion,
    R_sum_direct,
    R_expansion,
    power_sum,
    K_direct,
    K_expansion_refined,
    h10_closed_form,
    cutoff_index,
    relative_tail_beyond_cutoff,
    TailEnvelope,
    fit_tail_envelope,
)
from .dynamics import (
    SystemState,
    TrajectorySummary,
    integrate,
    initial_state,
    state_from_profile,
    conservation_residual,
    equilibrium_residual,
)

__version__ = "0.1.0"

__all__ = [
    "QuartzeqError", "DomainError", "ConvergenceError", "ConsistencyError",
    "IntegrationError",
    "CoefficientFamily", "PiecewiseConstantFamily", "PowerLawFamily",
    "TabulatedFamily", "family_from_config", "load_family",
    "BoundedValue", "EquilibriumProfile", "evaluate",
    "F_equilibrium", "cohort_profile", "audit_G_identity", "audit_d_identity",
    "DEFAULT_TOL", "DEFAULT_TERM_CAP",
    "RootReport", "F_piecewise", "stationary_point", "alpha_star",
    "solve_roots", "sum_kM_closed", "sum_iqM_closed",
    "Regime", "RegimeVerdict", "MEstimate", "classify_regime",
    "estimate_m_with_error", "existence_verdict", "count_equilibria_probe",
    "SUPREMUM_AT_INFINITY",
    "ExpansionTerm", "AsymptoticExpansion", "R_sum_direct", "R_expansion",
    "power_sum", "K_direct", "K_expansion_refined", "h10_closed_form",
    "cutoff_index", "relative_tail_beyond_cutoff", "TailEnvelope",
    "fit_tail_envelope",
    "SystemState", "TrajectorySummary", "integrate", "initial_state",
    "state_from_profile", "conservation_residual", "equilibrium_residual",
    "__version__",
]
