"""Kernel error map: every row of bench/error_map.py against mpmath, under
the id of the accuracy test it replaced (its ``test`` field; test_special.py
binds those with a class) or as test_error_map[<row>].  A failure names the
worst error and its argument.
"""

import importlib.util
import io
import json
import math
from pathlib import Path

import pytest

from ti2kit.polylog import li2
from ti2kit.ti2core import (INVERSION_FROM, METHOD_IMAGINARY_DILOG, METHOD_INVERSION,
                             METHOD_SERIES, SERIES_CUTOFF, _ti2_series, ti2, ti2_method)

mpmath = pytest.importorskip("mpmath")
_SPEC = importlib.util.spec_from_file_location(
    "error_map", Path(__file__).resolve().parents[1] / "bench" / "error_map.py")
error_map = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(error_map)
ROWS = {row.name: row for row in error_map.ROWS}
KEPT_IDS = {}  # test id -> the rows it runs, in table order; None -> the rows without one
for _row in error_map.ROWS:
    KEPT_IDS.setdefault(_row.test, []).append(_row.name)


def check(*names, points=None):
    """Fail unless each row named, on ``points`` if given, keeps within its bound."""
    for name in names:
        row = ROWS[name] if points is None else ROWS[name]._replace(points=lambda: points)
        worst, at, samples = error_map.run(row)
        assert samples >= row.min_samples, f"{name}: {samples} samples"
        assert worst <= row.bound, f"{name}: worst {worst:.3g} at {at!r}, bound {row.bound:g}"


def kept_test(test_id):
    return lambda *_: check(*KEPT_IDS[test_id])  # *_: a method's self


globals().update((_id, kept_test(_id)) for _id in KEPT_IDS if _id and "::" not in _id)


@pytest.mark.parametrize("name", KEPT_IDS[None])
def test_error_map(name):
    check(name)


def test_a_nan_or_a_nonzero_value_at_a_zero_reference_is_infinite():
    for got, ref, measure in ((math.nan, 1, error_map.relative), (1e-300, 0, error_map.relative),
                              (complex(1.0, math.nan), 1 + 1j, error_map.componentwise)):
        row = error_map.Row("row", lambda x: got, lambda: [1.0], lambda x: ref, 1.0, None, measure)
        assert error_map.run(row) == (math.inf, 1.0, 1), got


def test_writer_prints_one_record_per_row():
    # sqrt(4) is exact; sqrt(2) is rounded.
    row = error_map.Row("sqrt", math.sqrt, lambda: [4.0, 2.0], mpmath.sqrt, 1e-15, digits=30)
    out = io.StringIO()
    error_map.write([row], out)
    (record,) = map(json.loads, out.getvalue().splitlines())
    assert 0.0 < record.pop("worst") <= 2.0**-53
    assert record == {"name": "sqrt", "argument": "2.0", "bound": 1e-15, "samples": 2,
                      "digits": 30}


_TI2_ROUTES = {
    METHOD_SERIES: _ti2_series,
    METHOD_IMAGINARY_DILOG: lambda y: li2(complex(0.0, y)).imag,
    METHOD_INVERSION: lambda y: _ti2_series(1.0 / y) + math.pi / 2.0 * math.log(y),
}


@pytest.mark.parametrize(
    "edge, below, above",
    [
        (0.5, METHOD_SERIES, METHOD_SERIES),  # Horner bands, then the term loop
        (SERIES_CUTOFF, METHOD_SERIES, METHOD_IMAGINARY_DILOG),
        (INVERSION_FROM, METHOD_IMAGINARY_DILOG, METHOD_INVERSION),
    ],
)
def test_ti2_method_names_the_route_taken(edge, below, above):
    # Each switchover belongs to the route below it, except 2, which the
    # inversion takes.
    at = above if edge == INVERSION_FROM else below
    for y, method in ((math.nextafter(edge, 0.0), below), (edge, at),
                      (math.nextafter(edge, 3.0), above)):
        assert ti2_method(y) == ti2_method(-y) == method, y
        assert ti2(y) == -ti2(-y) == _TI2_ROUTES[method](y), y
