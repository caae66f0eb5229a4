"""Command-line surface: compute single values, run identity verifications.

    ti2kit compute <fn> <args...>
    ti2kit verify <identity|all> [--a --theta --n --A --alpha --K
                                  --tol --format json|table --out PATH
                                  --config PATH]

--K is Remark 1's partial-sum depth; Lemma 1's Hurwitz series, the pole
sums of corollaries 2 and 3 and the pointwise identity are summed to the
end and take no depth.

Exit codes: 0 all checks passed, 1 some check failed or no check ran,
2 usage/config error, 3 domain error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Optional, Sequence

from . import _LazyModule
from .numerics import BracketError, DomainError

# A process imports only the modules its command runs: each of these is
# imported on first use, and is a plain module from then on.
decomp = _LazyModule(globals(), ".decomp")
endpoint = _LazyModule(globals(), ".endpoint")
polylog = _LazyModule(globals(), ".polylog")
report = _LazyModule(globals(), ".report")
special = _LazyModule(globals(), ".special")
ti2core = _LazyModule(globals(), ".ti2core")
verify = _LazyModule(globals(), ".verify")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

# compute functions: name -> (arity, callable returning float or complex)
_COMPUTE_FNS = {
    "ti2": (1, lambda a: ti2core.ti2(a[0])),
    "li2": (2, lambda a: polylog.li2(complex(a[0], a[1]))),
    "clausen2": (1, lambda a: polylog.clausen2(a[0])),
    "hurwitz": (2, lambda a: special.hurwitz_zeta(a[0], a[1])),
    "ei": (1, lambda a: special.ei_negative(a[0])),
    "catalan": (0, lambda a: special.catalan_reference(1e-14)),
    "psi": (1, lambda a: endpoint.psi(a[0])),
    "phi": (2, lambda a: endpoint.phi(a[0], a[1])),
    "b-of-a": (1, lambda a: endpoint.solve_endpoint_b(a[0]).b),
    "H": (2, lambda a: decomp.h_series(a[0], a[1]).value),
    "K1": (0, lambda a: decomp.k1_closed()),
}


def _format_value(v) -> str:
    if isinstance(v, complex):
        return f"{v.real:.15g} {v.imag:.15g}"
    return f"{v:.15g}"


# Every negative float literal, exponent notation included ("-6.02e-05").
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on its own errors, matching the usage-error contract.
    # Its own negative-number pattern misses exponent notation, so "-6.02e-05"
    # would be read as an unknown option; no option here looks like a number,
    # so every negative literal can be taken as a value.  Subparsers are
    # built from this class too.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="ti2kit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="evaluate one function and print it")
    p_compute.add_argument("function", help=f"one of {', '.join(_COMPUTE_FNS)}")
    p_compute.add_argument("args", nargs="*", type=float, help="numeric arguments")

    p_verify = sub.add_parser("verify", help="run identity verifications")
    p_verify.add_argument("identity", help="an identity name, or 'all'")
    p_verify.add_argument("--a", action="append", type=float, default=None)
    p_verify.add_argument("--theta", action="append", type=float, default=None)
    p_verify.add_argument("--n", action="append", type=int, default=None)
    p_verify.add_argument("--A", action="append", type=float, default=None)
    p_verify.add_argument("--alpha", action="append", type=float, default=None)
    p_verify.add_argument("--K", type=int, default=None, help="remark1 partial-sum depth")
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--format", choices=("json", "table"), default=None)
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--config", default=None, help="key=value defaults file")
    return parser


def _parse_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()
    return entries


_CONFIG_KEYS = {"K", "tol", "format", "out"}


def _apply_config(cfg: verify.VerificationConfig, entries: dict[str, str], identity: str) -> None:
    for key, value in entries.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        if key == "K":
            cfg.K = int(value)
        elif key == "tol":
            _set_tolerance(cfg, identity, float(value))
        elif key == "format":
            cfg.format = value
        elif key == "out":
            cfg.out = value


def _set_tolerance(cfg: verify.VerificationConfig, identity: str, tol: float) -> None:
    names = verify.IDENTITY_NAMES if identity == "all" else (identity,)
    for name in names:
        cfg.tolerances[name] = tol


def _cmd_compute(args: argparse.Namespace) -> int:
    fn = args.function
    if fn not in _COMPUTE_FNS:
        print(f"error: unknown function {fn!r}; expected one of "
              f"{', '.join(_COMPUTE_FNS)}", file=sys.stderr)
        return EXIT_USAGE
    arity, call = _COMPUTE_FNS[fn]
    if len(args.args) != arity:
        print(f"error: {fn} takes {arity} argument(s), got {len(args.args)}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        value = call(args.args)
    except (DomainError, BracketError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    print(_format_value(value))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    identity = args.identity
    if identity != "all" and identity not in verify.IDENTITY_NAMES:
        print(f"error: unknown identity {identity!r}; expected one of "
              f"{', '.join(verify.IDENTITY_NAMES)} or 'all'", file=sys.stderr)
        return EXIT_USAGE

    cfg = verify.VerificationConfig()
    try:
        if args.config is not None:
            _apply_config(cfg, _parse_config_file(args.config), identity)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    # Flags override config-file entries.
    if args.a is not None:
        cfg.a_grid = tuple(args.a)
    if args.theta is not None:
        cfg.theta_grid = tuple(args.theta)
    if args.n is not None:
        cfg.n_grid = tuple(args.n)
    if args.A is not None or args.alpha is not None:
        if args.A is None or args.alpha is None or len(args.A) != len(args.alpha):
            print("error: --A and --alpha must be given together, pairwise",
                  file=sys.stderr)
            return EXIT_USAGE
        cfg.A_alpha_grid = tuple(zip(args.A, args.alpha))
        cfg.alpha_x_grid = tuple(zip(args.alpha, args.A))
    if args.K is not None:
        cfg.K = args.K
    if args.tol is not None:
        _set_tolerance(cfg, identity, args.tol)
    if args.format is not None:
        cfg.format = args.format
    if args.out is not None:
        cfg.out = args.out

    try:
        cfg.validate()
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        reports = verify.run_identity(identity, cfg)
    except (DomainError, BracketError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN

    try:
        report.write_reports(reports, cfg.format, destination=cfg.out)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    if not reports:
        # all([]) is true: an empty run must not read as a pass.
        print(f"error: no check ran: no grid point of {identity!r} was admissible",
              file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "compute":
        return _cmd_compute(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
