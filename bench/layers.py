"""Per-layer timings of ti2kit, written to a BENCH_*.json file.

    python bench/layers.py --out BENCH_layers.json [--parent DIR] [--repeat N]

It times, in microseconds per call:

- run_identity(name) on the default grid, for every identity;
- decomp._hurwitz_n_series at lemma1's point (A = alpha = 1, m = 0) and at
  one pole tail, corollary2's default point A = 2, alpha = 2.5 with m the
  K0 that the checkout's _pole_direct_terms gives;
- hurwitz_zeta over a fixed, seeded set of 64 points shaped like perfbench's
  compute pool (s uniform in [1.1, 6], c log-uniform in [1e-2, 1e2]);
- the kernels at fixed arguments, through public names only (KERNELS):
  ti2 at 0.3, 0.7, 0.99, 1.5 and 3, ei_negative at 0.5, 2 and 30,
  k1_closed(), h_series(3, 1), aux_integral_I at theorem1's points
  (a, b(a)) and tolerance 1e-13 for a = 0.46, 0.75 and 3, and
  solve_endpoint_b at 0.46, 0.75, 1, 3 and 15 with its default tolerance.

Each checkout is timed in its own child process, with ti2kit imported from
its src directory.  Each round makes a fixed number of calls per timing
after one warm-up call.  The file keeps, per checkout, the per-call min and
median over the rounds, the round count, the Python version, the CPU count
and the checkout's git commit ("+dirty" when its tracked files differ from
it).

Without --parent only this checkout is timed, under "change".  With
--parent DIR, the checkout at DIR is timed under "parent" in a second child
process, the two children take turns round by round, and which goes first
alternates each round, so that host drift reaches both sides alike.  Then
"ratio" holds, per timing, the median over rounds of change / parent in the
same round: below 1 means this checkout is faster.
"""

import argparse
import json
import math
import multiprocessing
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

CALLS_PER_ROUND = 10
POLE_TAIL_POINT = (2.0, 2.5)
# (name, public function, arguments) of each kernel_us timing; each timed
# call makes KERNEL_CALLS calls of the function.  The b(a) are the solved
# endpoints at 1e-14.
KERNELS = (
    *((f"ti2({y:g})", "ti2", (y,)) for y in (0.3, 0.7, 0.99, 1.5, 3.0)),
    *((f"ei_negative({x:g})", "ei_negative", (x,)) for x in (0.5, 2.0, 30.0)),
    ("k1_closed", "k1_closed", ()),
    ("h_series(3, 1)", "h_series", (3.0, 1.0)),
    *((f"aux_integral_I({a:g}, b({a:g}))", "aux_integral_I", (a, b, 1e-13))
      for a, b in ((0.46, 3.0039167202877635), (0.75, 2.508633634796271),
                   (3.0, 2.4765670555140837))),
    *((f"solve_endpoint_b({a:g})", "solve_endpoint_b", (a,)) for a in (0.46, 0.75, 1.0, 3.0, 15.0)),
)
KERNEL_CALLS = 20
HERE = Path(__file__).resolve().parent.parent


def _commit(root: Path):
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(root), *args], capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        head = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("+dirty" if dirty else "")


def _timings():
    # (section, name, call, calls it makes): every timing of one round.
    import ti2kit
    from ti2kit import decomp
    from ti2kit.special import hurwitz_zeta
    from ti2kit.verify import IDENTITY_NAMES, run_identity

    A, alpha = POLE_TAIL_POINT
    m = decomp._pole_direct_terms(A, alpha)
    rng = random.Random(32)
    points = [
        (rng.uniform(1.1, 6.0), math.exp(rng.uniform(math.log(1e-2), math.log(1e2))))
        for _ in range(64)
    ]

    def hurwitz():
        for s, c in points:
            hurwitz_zeta(s, c)

    def kernel(fn, args):
        def call():
            for _ in range(KERNEL_CALLS):
                fn(*args)

        return call

    out = [("run_identity_us", n, lambda n=n: run_identity(n), 1) for n in IDENTITY_NAMES]
    out.append(("n_series_us", "lemma1", lambda: decomp._hurwitz_n_series(1.0, 1.0, 0), 1))
    out.append(("n_series_us", "pole_tail", lambda: decomp._hurwitz_n_series(A, alpha, m), 1))
    out.append(("hurwitz_zeta_us", "compute_pool", hurwitz, len(points)))
    for name, fn, args in KERNELS:
        out.append(("kernel_us", name, kernel(getattr(ti2kit, fn), args), KERNEL_CALLS))
    return out, {"A": A, "alpha": alpha, "m": m}


def _child(src: str, conn) -> None:
    # Imports ti2kit from src, then times one round per request until None.
    sys.path.insert(0, src)
    timings, point = _timings()
    for _, _, call, _ in timings:
        call()
    conn.send(point)
    while conn.recv() is not None:
        row = {}
        for section, name, call, calls in timings:
            start = time.perf_counter()
            for _ in range(CALLS_PER_ROUND):
                call()
            row[section, name] = (time.perf_counter() - start) / (CALLS_PER_ROUND * calls) * 1e6
        conn.send(row)
    conn.close()


def _record(root: Path, point, rounds, repeat: int) -> dict:
    record = {
        "commit": _commit(root),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "repeat": repeat,
        "calls_per_round": CALLS_PER_ROUND,
        "pole_tail_point": point,
    }
    for key in rounds[0]:
        samples = [row[key] for row in rounds]
        section, name = key
        record.setdefault(section, {})[name] = {
            "min": min(samples),
            "median": statistics.median(samples),
        }
    return record


def measure(roots: dict, repeat: int) -> dict:
    """Time each checkout of roots ({label: checkout}) in its own child, rounds alternated."""
    ctx = multiprocessing.get_context("spawn")
    sides = {}
    for label, root in roots.items():
        mine, theirs = ctx.Pipe()
        proc = ctx.Process(target=_child, args=(str(root / "src"), theirs))
        proc.start()
        sides[label] = (proc, mine)
    try:
        points = {label: conn.recv() for label, (_, conn) in sides.items()}
        rounds = {label: [] for label in sides}
        order = list(sides)
        for i in range(repeat):
            for label in order if i % 2 == 0 else order[::-1]:
                conn = sides[label][1]
                conn.send(True)
                rounds[label].append(conn.recv())
    finally:
        for proc, conn in sides.values():
            conn.send(None)
            proc.join()
    data = {label: _record(roots[label], points[label], rounds[label], repeat) for label in sides}
    if "parent" in sides:
        ratio = {}
        for key in rounds["change"][0]:
            samples = [c[key] / p[key] for c, p in zip(rounds["change"], rounds["parent"])]
            section, name = key
            ratio.setdefault(section, {})[name] = statistics.median(samples)
        data["ratio"] = ratio
    return data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0] if __doc__ else None)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--parent", type=Path, help="a second checkout, timed under 'parent'")
    parser.add_argument("--repeat", type=int, default=40)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    roots = {"change": HERE}
    if args.parent is not None:
        if not (args.parent / "src" / "ti2kit").is_dir():
            parser.error(f"--parent {args.parent} has no src/ti2kit")
        roots = {"parent": args.parent.resolve(), "change": HERE}
    args.out.write_text(json.dumps(measure(roots, args.repeat), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
