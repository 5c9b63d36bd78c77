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
integrator.  Each module's `__all__` is the one declaration of its
public names, and the package re-exports them all.  `acceptance`, `cli`
and `special` are not re-exported; the acceptance registry lives in
`quartzeq.acceptance` (run it as `python3 -m quartzeq.acceptance` or
`quartzeq reproduce`).
"""

from . import asymptotics, coefficients, dynamics, errors, piecewise, powerlaw, series
from .errors import *
from .coefficients import *
from .series import *
from .piecewise import *
from .powerlaw import *
from .asymptotics import *
from .dynamics import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__, *coefficients.__all__, *series.__all__, *piecewise.__all__,
    *powerlaw.__all__, *asymptotics.__all__, *dynamics.__all__, "__version__",
]
