from __future__ import annotations

import re
import sys
from types import SimpleNamespace
from typing import Optional, Sequence

import ti2kit  # its public names load their modules on first use

# The help text is an assigned constant, not a docstring, so that python -OO
# (which strips docstrings) still has the usage lines main prints.  It is the
# module docstring as well.
HELP = """Command-line surface: compute single values, run identity verifications.

usage: ti2kit compute <fn> [<x> ...]
       ti2kit verify <identity|all> [--<option> <value> ...]
       ti2kit [compute | verify] -h | --help

compute prints one value to 15 significant digits; <fn> and its arguments
are one of: ti2 y, li2 re im (prints re im), clausen2 t, hurwitz s c, ei x,
catalan, psi a, phi a b, b-of-a a, H A alpha, K1.

verify runs theorem1, corollary1, corollary2, corollary3, corollary4,
remark1, lemma1, pointwise, or all of them, and reports every grid point.
Options are spelled out in full, as --opt value or --opt=value, before or
after the identity; a value that starts with "-" must be a negative number.

  --a, --theta, --n, --A, --alpha X   grid points, repeatable (--A and
                                      --alpha pairwise; for pointwise
                                      each pair is (alpha, x))
  --K N            remark1's partial-sum depth
  --tol X          tolerance of every identity run
  --format json|table
  --out PATH       write the reports to PATH

Lemma 1's Hurwitz series, the pole sums of corollaries 2 and 3 and the
pointwise identity are summed to the end and take no depth.

Exit codes: 0 all checks passed, 1 some check failed or no check ran,
2 usage/config error, 3 domain error, 4 I/O error.
"""
__doc__ = HELP

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

# compute functions: name -> (arity, callable returning float or complex)
_COMPUTE_FNS = {
    "ti2": (1, lambda a: ti2kit.ti2(a[0])),
    "li2": (2, lambda a: ti2kit.li2(complex(a[0], a[1]))),
    "clausen2": (1, lambda a: ti2kit.clausen2(a[0])),
    "hurwitz": (2, lambda a: ti2kit.hurwitz_zeta(a[0], a[1])),
    "ei": (1, lambda a: ti2kit.ei_negative(a[0])),
    "catalan": (0, lambda a: ti2kit.catalan_reference(1e-14)),
    "psi": (1, lambda a: ti2kit.psi(a[0])),
    "phi": (2, lambda a: ti2kit.phi(a[0], a[1])),
    "b-of-a": (1, lambda a: ti2kit.solve_endpoint_b(a[0]).b),
    "H": (2, lambda a: ti2kit.h_series(a[0], a[1]).value),
    "K1": (0, lambda a: ti2kit.k1_closed()),
}


def _format_value(v) -> str:
    if isinstance(v, complex):
        return f"{v.real:.15g} {v.imag:.15g}"
    return f"{v:.15g}"


# Every negative float literal, exponent notation included ("-6.02e-05").
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _UsageError(Exception):
    """A malformed command line; main prints it under the usage lines."""


# verify's options: name -> (conversion, repeats).  A repeating option keeps
# every value in order, any other its last one; an option not given is None.
# VerificationConfig.validate checks --format.
_VERIFY_OPTIONS = {
    "a": (float, True),
    "theta": (float, True),
    "n": (int, True),
    "A": (float, True),
    "alpha": (float, True),
    "K": (int, False),
    "tol": (float, False),
    "format": (str, False),
    "out": (str, False),
}


def _is_option(token: str) -> bool:
    # No option looks like a number, so every negative literal is a value.
    return token.startswith("-") and not _NEGATIVE_NUMBER.match(token)


def _parse_args(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The command line as a namespace, or None when it asks for help.

    ``command`` is compute, with ``function`` and float ``args``, or verify,
    with ``identity`` and one attribute per ``_VERIFY_OPTIONS`` entry.
    Raises _UsageError for anything else.
    """
    args = SimpleNamespace(**dict.fromkeys(_VERIFY_OPTIONS))
    words = []
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        if not _is_option(token):
            words.append(token)
            continue
        name, has_value, value = token[2:].partition("=")
        if words[:1] != ["verify"] or not token.startswith("--") or name not in _VERIFY_OPTIONS:
            raise _UsageError(f"unrecognized argument {token!r}")
        if not has_value:
            value = next(tokens, None)
            if value is None or _is_option(value):
                raise _UsageError(f"argument --{name}: expected one value")
        convert, repeats = _VERIFY_OPTIONS[name]
        try:
            value = convert(value)
        except ValueError as exc:
            raise _UsageError(f"argument --{name}: {exc}") from None
        setattr(args, name, (getattr(args, name) or []) + [value] if repeats else value)

    args.command, *rest = words or [None]
    if args.command == "compute" and rest:
        args.function, *values = rest
        try:
            args.args = [float(v) for v in values]
        except ValueError as exc:
            raise _UsageError(f"compute {args.function}: {exc}") from None
    elif args.command == "verify" and len(rest) == 1:
        args.identity = rest[0]
    else:
        raise _UsageError(f"expected a command and its arguments as above, got {words}")
    return args


def _cmd_compute(args: SimpleNamespace) -> int:
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
    except ti2kit.DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    print(_format_value(value))
    return EXIT_OK


def _cmd_verify(args: SimpleNamespace) -> int:
    identity = args.identity
    if identity != "all" and identity not in ti2kit.IDENTITY_NAMES:
        print(f"error: unknown identity {identity!r}; expected one of "
              f"{', '.join(ti2kit.IDENTITY_NAMES)} or 'all'", file=sys.stderr)
        return EXIT_USAGE
    names = ti2kit.IDENTITY_NAMES if identity == "all" else (identity,)

    cfg = ti2kit.VerificationConfig(tol=args.tol)
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
    if args.format is not None:
        cfg.format = args.format

    try:
        cfg.validate()
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    # One identity's domain error leaves the other reports of `all` standing.
    reports, domain_error = [], False
    for name in names:
        try:
            reports += ti2kit.run_identity(name, cfg)
        except ti2kit.DomainError as exc:
            print(f"domain error: {name}: {exc}", file=sys.stderr)
            domain_error = True
    if domain_error and not reports:
        return EXIT_DOMAIN

    text = (ti2kit.render_json if cfg.format == "json" else ti2kit.render_table)(reports)
    try:
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    if domain_error:
        return EXIT_DOMAIN
    if not reports:
        # all([]) is true: an empty run must not read as a pass.
        print(f"error: no check ran: no grid point of {identity!r} was admissible",
              file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        usage = HELP.split("\n\n")[1]  # the usage lines
        print(f"{usage}\nti2kit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args is None:
        print(HELP, end="")
        return EXIT_OK
    if args.command == "compute":
        return _cmd_compute(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
