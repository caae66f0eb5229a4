"""Seeded inputs for the three workloads.

Everything here is a pure function of the seed.  Continuous domains are
sampled one point per equal-probability stratum (shuffled), so each seed
covers its whole domain, including the expensive end, and the cost of a pool
changes little from seed to seed while every value in it does.  Nothing here
imports ti2kit: the library only ever sees the generated values.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal

import oracle

PI = math.pi

# compute: the eleven functions behind `ti2kit compute`, with their share of
# the op stream.  Chosen so that no function takes more than half of the busy
# time (H, the costliest per call, takes about a third; the measured shares
# are printed with every result).
COMPUTE_WEIGHTS = {
    "ti2": 16,
    "li2": 12,
    "clausen2": 12,
    "hurwitz": 8,
    "ei": 12,
    "catalan": 4,
    "psi": 8,
    "phi": 8,
    "b-of-a": 6,
    "H": 1,
    "K1": 3,
}
POOL_SIZE = 64
# One compute schedule block holds each function weight * BLOCK_REPEAT times,
# so every entry of every pool is called `weight` times per block.
BLOCK_REPEAT = POOL_SIZE

# verify: grid points per identity in one pass.  theorem1 gets enough points
# that quadrature and root-finding are a visible share next to the K = 2000
# pole sums of corollary2/corollary3.
VERIFY_POINTS = {
    "theorem1": 24,
    "corollary1": 1,
    "corollary2": 4,
    "corollary3": 3,
    "corollary4": 5,
    "remark1": 1,
    "lemma1": 1,
    "pointwise": 10,
}

# cli: length of the argv cycle, and the mix of its kinds.
CLI_ARGVS = 40
CLI_VERIFY_ALL_EVERY = 10  # one `verify all` per this many processes

# Points of the ei defect probe checked in every compute run.
PROBE_EI_POINTS = 16


def _strata(rng: random.Random, n: int) -> list[float]:
    us = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(us)
    return us


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _uniform(u: float, lo: float, hi: float) -> float:
    return lo + (hi - lo) * u


def _log_uniform_outside(u: float, lo: float, hi: float, gap: tuple[float, float]) -> float:
    """Log-uniform over [lo, hi] with the interval (gap[0], gap[1]] left out."""
    g0, g1 = gap
    left = math.log(g0 / lo)
    t = u * (left + math.log(hi / g1))
    return lo * math.exp(t) if t <= left else g1 * math.exp(t - left)


def _admissible_a(rng: random.Random, n: int) -> list[float]:
    """``n`` values of ``a`` inside the admissibility window, one per stratum.

    The window is about (0.4515, 19); admissibility is decided by the
    mpmath oracle, never by the library, and an inadmissible draw is redrawn
    inside its own stratum of log(a) over [log 0.45, log 19].
    """
    lo, hi = math.log(0.45), math.log(19.0)
    width = (hi - lo) / n
    out = []
    for k in rng.sample(range(n), n):
        while True:
            a = math.exp(lo + (k + rng.random()) * width)
            if oracle.admissible(a):
                out.append(a)
                break
    return out


def _pool(rng: random.Random, fn: str, n: int) -> list[list[float]]:
    us = _strata(rng, n)
    if fn == "ti2":
        # Three quarters log-uniform over [1e-3, 1e3]; the rest in the band
        # around the 0.99 series/dilogarithm switchover, where the series
        # runs up to its 1500-term limit.
        n_band = n // 4
        return [
            [_uniform(u, 0.9, 1.01)] if i < n_band else [_log_uniform(u, 1e-3, 1e3)]
            for i, u in enumerate(us)
        ]
    if fn == "li2":
        # |z| log-uniform over [1e-3, 10] (near the zero, inside the disk,
        # and through the inversion law), argument uniform.
        out = []
        for u in us:
            r = _log_uniform(u, 1e-3, 10.0)
            t = rng.uniform(-PI, PI)
            out.append([r * math.cos(t), r * math.sin(t)])
        return out
    if fn == "clausen2":
        return [[_uniform(u, 0.0, 2.0 * PI)] for u in us]
    if fn == "hurwitz":
        # c up to 1e2, so the 16*ceil(c) direct terms show.
        return [[rng.uniform(1.1, 6.0), _log_uniform(u, 1e-2, 1e2)] for u in us]
    if fn == "ei":
        # (2, 6] is a known defect (oracle.KNOWN_DEFECTS), checked by the
        # defect probe instead; both routes, series and continued fraction,
        # are still sampled.
        return [[_log_uniform_outside(u, 1e-3, 700.0, oracle.EI_DEFECT)] for u in us]
    if fn == "psi":
        return [[_log_uniform(u, 1e-2, 1e2)] for u in us]
    if fn == "phi":
        return [[_log_uniform(u, 1e-2, 1e2), rng.uniform(0.0, PI)] for u in us]
    if fn == "b-of-a":
        return [[a] for a in _admissible_a(rng, n)]
    if fn == "H":
        # A down to 0.01, where h_series needs J = ceil(16.1/A) terms.
        return [[_log_uniform(u, 0.01, 10.0), rng.uniform(0.01, PI - 0.01)] for u in us]
    if fn in ("catalan", "K1"):
        return [[]]
    raise KeyError(fn)


def compute_inputs(seed: int) -> dict:
    """Pools of arguments per function and the op schedule that cycles them.

    The schedule is one block holding each function ``weight * BLOCK_REPEAT``
    times in a seeded order, each op naming a pool entry.
    """
    rng = random.Random(f"compute:{seed}")
    pools = {fn: _pool(rng, fn, POOL_SIZE) for fn in COMPUTE_WEIGHTS}
    schedule = []
    for fn, w in COMPUTE_WEIGHTS.items():
        size = len(pools[fn])
        schedule += [[fn, i % size] for i in range(w * BLOCK_REPEAT)]
    rng.shuffle(schedule)
    return {"pools": pools, "schedule": schedule}


def defect_probe(seed: int) -> dict:
    """Seeded inputs inside each known defect, checked outside the timed region.

    ``ei``: PROBE_EI_POINTS arguments in (2, 6], one per stratum.  ``cli``: a
    ``compute li2`` argv whose negative real part is written with an exponent.
    """
    rng = random.Random(f"probe:{seed}")
    lo, hi = oracle.EI_DEFECT
    ei = [[hi - _uniform(u, 0.0, hi - lo)] for u in _strata(rng, PROBE_EI_POINTS)]
    x = -_log_uniform(rng.random(), 1e-6, 1e-5)
    cli = ["compute", "li2", repr(x), cli_arg(rng.uniform(0.001, 0.5))]
    return {"ei": ei, "cli": cli}


def cli_arg(v: float) -> str:
    """``repr(v)``'s digits in positional notation, such as -0.0000602 for -6.02e-05."""
    return format(Decimal(repr(v)), "f")


def verify_grid(seed: int) -> list[list]:
    """One pass: a list of ``[identity, grid point]`` ops.

    Only domains where each identity genuinely holds: ``a`` admissible,
    ``A <= 2`` and ``alpha`` in (0.2, 3) for corollary2, ``n`` in 2..12,
    ``x <= 4`` for pointwise.  Identities without a grid get an empty point.
    """
    rng = random.Random(f"verify:{seed}")
    ops: list[list] = []
    for a in _admissible_a(rng, VERIFY_POINTS["theorem1"]):
        ops.append(["theorem1", {"a": a}])
    ops.append(["corollary1", {}])
    for u in _strata(rng, VERIFY_POINTS["corollary2"]):
        ops.append(["corollary2", {"A": _log_uniform(u, 0.05, 2.0), "alpha": rng.uniform(0.2, 3.0)}])
    for n in rng.sample(range(2, 13), VERIFY_POINTS["corollary3"]):
        ops.append(["corollary3", {"n": n}])
    for u in _strata(rng, VERIFY_POINTS["corollary4"]):
        ops.append(["corollary4", {"theta": _uniform(u, 0.02, PI / 2.0 - 0.02)}])
    ops.append(["remark1", {}])
    ops.append(["lemma1", {}])
    for u in _strata(rng, VERIFY_POINTS["pointwise"]):
        ops.append(["pointwise", {"alpha": rng.uniform(0.2, 3.0), "x": _uniform(u, 0.05, 4.0)}])
    return ops


def _verify_argv(rng: random.Random, identity: str) -> list[str]:
    argv = ["verify", identity, "--format", "json"]
    if identity == "theorem1":
        for a in _admissible_a(rng, 2):
            argv += ["--a", repr(a)]
    elif identity == "corollary2":
        argv += ["--A", repr(_log_uniform(rng.random(), 0.05, 2.0)),
                 "--alpha", repr(rng.uniform(0.2, 3.0))]
    elif identity == "pointwise":
        for _ in range(3):
            argv += ["--alpha", repr(rng.uniform(0.2, 3.0)), "--A", repr(rng.uniform(0.05, 4.0))]
    elif identity == "corollary3":
        argv += ["--n", str(rng.randint(2, 12))]
    elif identity == "corollary4":
        argv += ["--theta", repr(rng.uniform(0.02, PI / 2.0 - 0.02))]
    return argv


def cli_inputs(seed: int) -> list[list[str]]:
    """The argv cycle for one-shot ``python -m ti2kit.cli`` processes.

    About half are ``compute <fn> <args>``, the rest ``verify <identity>
    --format json`` on seeded single points, with one ``verify all --format
    json`` per CLI_VERIFY_ALL_EVERY processes.  The cycle starts with a
    compute, whose process is also the one timed for set-up.
    """
    rng = random.Random(f"cli:{seed}")
    fns = list(COMPUTE_WEIGHTS)
    identities = list(VERIFY_POINTS)
    argvs = []
    for i in range(CLI_ARGVS):
        if i % CLI_VERIFY_ALL_EVERY == CLI_VERIFY_ALL_EVERY - 1:
            argvs.append(["verify", "all", "--format", "json"])
        elif i % 2 == 0:
            fn = fns[(i // 2) % len(fns)]
            args = _pool(rng, fn, 1)[0]
            argvs.append(["compute", fn] + [cli_arg(v) for v in args])
        else:
            argvs.append(_verify_argv(rng, identities[(i // 2) % len(identities)]))
    return argvs
