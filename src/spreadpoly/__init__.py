"""Spreading measures of Rakhmanov densities of classical orthonormal
polynomials (Hermite, Laguerre, Jacobi).

The density of degree n is rho_n(x) = p_n(x)^2 w(x) with p_n orthonormal
against the weight w.  The package computes its standard deviation,
Fisher length, Renyi/Onicescu lengths, and Shannon length through
independent closed-form, series, and quadrature routes that cross-check
one another.
"""

from .context import ParameterError, PrecisionContext, PrecisionError
from .families import Family, RenyiOrder
from .orthopoly import evaluate_recurrence, orthonormal_coeffs, zeros
from .closed_form import (
    AsymptoticRate,
    asymptotic_cramer_rao,
    cramer_rao_product,
    fisher_information,
    fisher_length,
    moment,
    moment_quadrature,
    stddev,
)
from .quadrature import QuadratureError, gauss_rule, integrate_density_power
from .bell import (
    length_from_power_integral,
    renyi_length_bell,
    renyi_power_integral_bell,
)
from .lauricella import (
    lauricella_fa_terminating,
    renyi_length_laguerre_lauricella,
)
from .shannon import (
    ShannonResult,
    jacobi_trivial_bound,
    optimize_bound,
    ratio_constant,
    shannon_asymptotic,
    shannon_bound_hermite,
    shannon_bound_laguerre,
    shannon_inequality_check,
    shannon_numeric,
)
from .report import measures_table
from .verification import Check, run_scope

# no module above uses the exact 2F1 any more (it is a test oracle), but the
# per-layer tracer of bench/tracing.py finds hyp2f1_terminating among the
# loaded modules, so the package still loads it
from . import hypergeom  # noqa: F401

__version__ = "0.1.0"

__all__ = [
    "AsymptoticRate",
    "Check",
    "Family",
    "ParameterError",
    "PrecisionContext",
    "PrecisionError",
    "QuadratureError",
    "RenyiOrder",
    "ShannonResult",
    "asymptotic_cramer_rao",
    "cramer_rao_product",
    "evaluate_recurrence",
    "fisher_information",
    "fisher_length",
    "gauss_rule",
    "integrate_density_power",
    "jacobi_trivial_bound",
    "lauricella_fa_terminating",
    "length_from_power_integral",
    "measures_table",
    "moment",
    "moment_quadrature",
    "optimize_bound",
    "orthonormal_coeffs",
    "ratio_constant",
    "renyi_length_bell",
    "renyi_length_laguerre_lauricella",
    "renyi_power_integral_bell",
    "shannon_asymptotic",
    "shannon_bound_hermite",
    "shannon_bound_laguerre",
    "shannon_inequality_check",
    "shannon_numeric",
    "stddev",
    "zeros",
    "__version__",
]
