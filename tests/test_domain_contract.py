"""One domain contract for every public function and every compute op.

Each float-taking name of ``ti2kit.__all__`` runs over every tuple of
extreme floats its arity takes.  It must return a finite value (every float
field of a returned record finite) or raise DomainError, within 2 s, and
raise DomainError wherever its docstring's domain rules the input out.
Every ``compute`` op runs through ``cli.main`` over the same values as
strings and must exit 0, 2 or 3, printing no nan or inf.
"""

import inspect
import itertools
import math
import sys
import time

import pytest

import ti2kit
from ti2kit import cli

PI = math.pi
BIG = sys.float_info.max

EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 0.5, 1.0, -1.0, 2.5, PI / 2, PI,
            1e308, -1e308, BIG, -BIG, math.inf, -math.inf, math.nan)

# Public names that take no float: records, constants, the report writers,
# the verify entry point, and the quadrature loop that takes the caller's function.
NOT_FLOAT_TAKING = {
    "AdmissibilityResult", "BudgetError", "DomainError", "EULER_GAMMA", "EndpointSolution",
    "IDENTITY_NAMES", "IdentityReport", "QuadratureResult", "SeriesResult",
    "VerificationConfig", "integrate_adaptive", "render_json", "render_table",
    "run_identity",
}


def _positive(a):
    return 0.0 < a < math.inf


def _off_pole(b):
    return math.isfinite(b) and abs(math.sin(b)) >= 1e-10


# name -> the documented domain of its required arguments, or None where the
# docstring names none that a float test can tell (b(a) needs admissible a).
DOMAINS = {
    "admissibility": _positive,
    "aux_closed_F": lambda a, b: _positive(a) and 0.0 < b < PI,
    "aux_integral_I": lambda a, b: _positive(a) and 0.0 < b < PI,
    "catalan_reference": lambda tol: not math.isnan(tol),
    "clausen2": lambda phi: 0.0 <= phi <= 2.0 * PI,
    "cot_partial_fraction_sum": _off_pole,
    "digamma_gap": lambda x, h: h >= 0.0 and x - h >= 12.0,
    "ei_negative": lambda x: x > 0.0,
    "h_series": lambda A, alpha: _positive(A) and 1e-10 < alpha < PI - 1e-10,
    "hurwitz_zeta": lambda s, c: 1.0 < s < math.inf and _positive(c),
    "k1_closed": lambda: True,
    "li2": lambda x: x <= 1.0,
    "log_gamma": _positive,
    "loggamma_im_gap": lambda x, y, h: (
        math.isfinite(x) and math.isfinite(y) and h >= 0.0 and x - h >= 12.0
    ),
    "phi": lambda a, b: _positive(a) and 0.0 <= b <= PI,
    "psi": _positive,
    # An integer K in 1..100000: no float is one.
    "remark1_partial": lambda K: False,
    "s_r": lambda r: r >= 1.0 and r % 2.0 == 1.0,
    "solve_endpoint_b": None,
    "ti2": math.isfinite,
    "ti2_clausen_form": lambda theta: 1e-6 <= theta <= PI / 2 - 1e-6,
    "ti2_method": lambda y: True,
    "ti2_proposition_form": lambda a: a > 0.0,
    "ti2_via_quadrature": lambda y: y >= 0.0,
}


def _finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, complex):
        return math.isfinite(value.real) and math.isfinite(value.imag)
    if isinstance(value, tuple):
        return all(_finite(v) for v in value)
    return isinstance(value, (bool, int, str))


def _arity(fn) -> int:
    return sum(p.default is p.empty for p in inspect.signature(fn).parameters.values())


def test_every_float_taking_export_has_a_row():
    assert set(DOMAINS) == set(ti2kit.__all__) - NOT_FLOAT_TAKING
    for name, domain in DOMAINS.items():
        if domain is not None:
            assert _arity(domain) == _arity(getattr(ti2kit, name)), name


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_finite_or_domain_error_over_extreme_floats(name):
    fn, domain = getattr(ti2kit, name), DOMAINS[name]
    broken = []
    for args in itertools.product(EXTREMES, repeat=_arity(fn)):
        start = time.perf_counter()
        try:
            value = fn(*args)
            outcome = "finite" if _finite(value) else f"not finite: {value!r}"
        except ti2kit.DomainError:
            outcome = "DomainError"
        except Exception as exc:  # any other exception breaks the contract
            outcome = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if domain is not None and not domain(*args) and outcome != "DomainError":
            outcome = f"off its domain, got {outcome}"
        elif outcome in ("finite", "DomainError") and seconds <= 2.0:
            continue
        broken.append((args, outcome, round(seconds, 2)))
    assert broken == []


@pytest.mark.parametrize("op", sorted(cli._COMPUTE_FNS))
def test_compute_exits_0_2_or_3_over_extreme_strings(op, capsys):
    arity, _ = cli._COMPUTE_FNS[op]
    broken = []
    for args in itertools.product(map(repr, EXTREMES), repeat=arity):
        start = time.perf_counter()
        code = cli.main(["compute", op, *args])
        seconds = time.perf_counter() - start
        out = capsys.readouterr().out
        if code not in (0, 2, 3) or "nan" in out or "inf" in out or seconds > 2.0:
            broken.append((args, code, out, round(seconds, 2)))
    assert broken == []
