"""ti2kit: inverse-tangent-integral numerics and identity verification.

A small special-function library built around the inverse tangent integral
Ti2(y) = integral_0^y arctan(x)/x dx and its connections to the complex
dilogarithm, the Clausen function, Hurwitz zeta, and the exponential
integral -- plus a verification harness that certifies each supported
identity as an LHS-vs-RHS residual within declared tolerances.

Importing the package loads none of its modules.  Each public name is
imported from its module on first access (PEP 562) and then kept here, so
``from ti2kit import ti2`` loads only ``ti2core`` and what it imports.
"""

import importlib

__version__ = "1.0.0"

# module -> the public names it defines; each module's __all__ is its entry.
_EXPORTS = {
    "decomp": (
        "h_series",
        "k1_closed",
        "remark1_partial",
        "s_r",
    ),
    "endpoint": (
        "AdmissibilityResult",
        "EndpointSolution",
        "admissibility",
        "aux_closed_F",
        "aux_integral_I",
        "phi",
        "psi",
        "solve_endpoint_b",
    ),
    "numerics": (
        "BudgetError",
        "DomainError",
        "QuadratureResult",
        "SeriesResult",
        "integrate_adaptive",
    ),
    "polylog": ("clausen2", "li2"),
    "report": ("IdentityReport", "render_json", "render_table"),
    "special": (
        "EULER_GAMMA",
        "catalan_reference",
        "cot_partial_fraction_sum",
        "digamma_gap",
        "ei_negative",
        "hurwitz_zeta",
        "log_gamma",
        "loggamma_im_gap",
    ),
    "ti2core": (
        "ti2",
        "ti2_clausen_form",
        "ti2_method",
        "ti2_proposition_form",
        "ti2_via_quadrature",
    ),
    "verify": ("IDENTITY_NAMES", "VerificationConfig", "run_identity"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        # Importing a submodule binds it in this namespace.
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})

