"""ti2kit: inverse-tangent-integral numerics and identity verification.

A small special-function library built around the inverse tangent integral
Ti2(y) = integral_0^y arctan(x)/x dx and its connections to the complex
dilogarithm, the Clausen function, Hurwitz zeta, and the exponential
integral -- plus a verification harness that certifies each supported
identity as an LHS-vs-RHS residual within declared tolerances.
"""

from .decomp import (
    catalan_family,
    corollary2_series,
    h_quadrature,
    h_series,
    k1_closed,
    lemma1_catalan,
    pointwise_identity,
    remark1_partial,
    s_r,
    xi_k,
)
from .endpoint import (
    AdmissibilityResult,
    EndpointSolution,
    admissibility,
    aux_closed_F,
    aux_integral_I,
    catalan_via_endpoint,
    phi,
    phi_derivative,
    psi,
    solve_endpoint_b,
    theorem1_identity,
)
from .numerics import (
    BracketError,
    BudgetError,
    DomainError,
    QuadratureResult,
    SeriesResult,
    find_root_increasing,
    integrate_adaptive,
    sum_series,
)
from .polylog import BranchCutError, clausen2, li2, li2_derivative, li2_upper_boundary
from .report import IdentityReport, render_json, render_table, write_reports
from .special import (
    EULER_GAMMA,
    PoleError,
    catalan_reference,
    cot_partial_fraction_sum,
    digamma,
    digamma_gap,
    ei_negative,
    expint_T,
    hurwitz_zeta,
    kummer_sine_log_sum,
    log_gamma,
    loggamma_im_gap,
)
from .ti2core import ti2, ti2_clausen_form, ti2_proposition_form, ti2_via_quadrature
from .verify import IDENTITY_NAMES, VerificationConfig, run_all, run_identity

__version__ = "1.0.0"

__all__ = [
    "AdmissibilityResult",
    "BracketError",
    "BranchCutError",
    "BudgetError",
    "DomainError",
    "EULER_GAMMA",
    "EndpointSolution",
    "IDENTITY_NAMES",
    "IdentityReport",
    "PoleError",
    "QuadratureResult",
    "SeriesResult",
    "VerificationConfig",
    "admissibility",
    "aux_closed_F",
    "aux_integral_I",
    "catalan_family",
    "catalan_reference",
    "catalan_via_endpoint",
    "clausen2",
    "corollary2_series",
    "cot_partial_fraction_sum",
    "digamma",
    "digamma_gap",
    "ei_negative",
    "expint_T",
    "find_root_increasing",
    "h_quadrature",
    "h_series",
    "hurwitz_zeta",
    "integrate_adaptive",
    "k1_closed",
    "kummer_sine_log_sum",
    "lemma1_catalan",
    "li2",
    "li2_derivative",
    "li2_upper_boundary",
    "log_gamma",
    "loggamma_im_gap",
    "phi",
    "phi_derivative",
    "pointwise_identity",
    "psi",
    "remark1_partial",
    "render_json",
    "render_table",
    "run_all",
    "run_identity",
    "s_r",
    "solve_endpoint_b",
    "sum_series",
    "theorem1_identity",
    "ti2",
    "ti2_clausen_form",
    "ti2_proposition_form",
    "ti2_via_quadrature",
    "write_reports",
    "xi_k",
]
