"""Shared test oracles.

Every frozen expected value in this suite was produced by one of the
independent routes below (bracketing partial sums, direct summation with a
rigorous tail, quadrature, or finite differences) -- never by the code path
under test.
"""

import math

import numpy as np
import pytest

from ti2kit.verify import VerificationConfig, run_identity

PI = math.pi

# Reference digits reproduced by the bracketing oracle below (and by at
# least three independent routes in the acceptance suite).
CATALAN = 0.9159655941772190


def catalan_bracket(n_pairs: int = 200_000) -> tuple[float, float]:
    """Rigorous bracket for sum (-1)^n/(2n+1)^2 from consecutive partial sums.

    For an alternating series with decreasing terms, s_{2N} and s_{2N+1}
    enclose the limit.
    """
    n = np.arange(0, 2 * n_pairs + 1, dtype=np.float64)
    terms = (-1.0) ** n / (2.0 * n + 1.0) ** 2
    partial = float(terms.sum())  # ends on an even (positive) term
    return partial - 1.0 / (4.0 * n_pairs + 1.0) ** 2, partial


def li2_series_oracle(z: complex, n_terms: int = 400) -> complex:
    """Direct power-series partial sum; valid inside the unit disk."""
    total = 0j
    zn = z
    for n in range(1, n_terms + 1):
        total += zn / (n * n)
        zn *= z
    return total


def li2_series_tail(z: complex, n_terms: int) -> float:
    """Tail bound |z|^{N+1}/(N+1)^2 * 1/(1-|z|) for the series oracle."""
    r = abs(z)
    return r ** (n_terms + 1) / (n_terms + 1) ** 2 / (1.0 - r)


def clausen_series_oracle(theta: float, n_terms: int = 200_000) -> tuple[float, float]:
    """Direct sin-series partial sum with an Abel-summation tail bound."""
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    value = float(np.sum(np.sin(n * theta) / n ** 2))
    bound = 2.0 / (abs(math.sin(theta / 2.0)) * (n_terms + 1) ** 2)
    return value, bound


# identity -> the VerificationConfig grid that holds its points.
_GRIDS = {
    "theorem1": "a_grid",
    "corollary2": "A_alpha_grid",
    "corollary3": "n_grid",
    "corollary4": "theta_grid",
    "pointwise": "alpha_x_grid",
}


def identity_report(name: str, point=None):
    """The report verify's ``name`` row makes at one grid point.

    ``point`` is an entry of the identity's grid (a pair for corollary2 and
    pointwise); identities without a grid take none.
    """
    grid = {_GRIDS[name]: (point,)} if name in _GRIDS else {}
    return run_identity(name, VerificationConfig(**grid))[0]


def central_difference(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


@pytest.fixture(scope="session")
def catalan_oracle() -> float:
    lo, hi = catalan_bracket()
    assert hi - lo < 1e-10
    mid = 0.5 * (lo + hi)
    assert abs(mid - CATALAN) < 1e-10, "frozen Catalan digits disagree with bracket"
    return mid
