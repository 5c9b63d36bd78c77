"""The package's public surface: each module's __all__ declares its public
names once, and quartzeq re-exports exactly their concatenation."""

import quartzeq
from quartzeq import asymptotics, coefficients, dynamics, errors, piecewise, powerlaw, series

MODULES = (errors, coefficients, series, piecewise, powerlaw, asymptotics, dynamics)

# the 53 exported names, pinned so that an edit to any module's __all__ shows here
PINNED = sorted([
    "QuartzeqError", "DomainError", "ConvergenceError", "ConsistencyError",
    "IntegrationError",
    "CoefficientFamily", "PiecewiseConstantFamily", "PowerLawFamily",
    "TabulatedFamily", "family_from_config", "load_family",
    "BoundedValue", "EquilibriumProfile", "evaluate",
    "F_equilibrium", "cohort_profile", "identity_audit",
    "DEFAULT_TOL", "DEFAULT_TERM_CAP",
    "RootReport", "F_piecewise", "stationary_point", "alpha_star",
    "solve_roots", "sum_kM_closed", "sum_iqM_closed",
    "Regime", "RegimeVerdict", "MEstimate", "classify_regime",
    "estimate_m_with_error", "existence_verdict", "count_equilibria_probe",
    "SUPREMUM_AT_INFINITY",
    "ExpansionTerm", "AsymptoticExpansion", "R_sum_direct", "R_expansion",
    "power_sum", "K_direct", "K_expansion_refined", "h10_closed_form",
    "cutoff_index", "relative_tail_beyond_cutoff", "tail_envelope",
    "SystemState", "TrajectorySummary", "integrate", "initial_state",
    "state_from_profile", "conservation_residual", "equilibrium_residual",
    "__version__",
])


def test_all_is_the_module_lists_once_each():
    joined = [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert quartzeq.__all__ == joined
    assert len(set(joined)) == len(joined)
    assert sorted(joined) == PINNED


def test_star_import_binds_each_module_object():
    namespace = {}
    exec("from quartzeq import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PINNED
    assert namespace["__version__"] == quartzeq.__version__
    for module in MODULES:
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), (module.__name__, name)
