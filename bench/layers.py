"""Per-layer timings of ti2kit, stored under a label in a BENCH_*.json file.

    python bench/layers.py --out BENCH_layers.json [--label NAME] [--src DIR] [--repeat N]

With ti2kit imported from DIR (default: the src next to this script), it
times, in microseconds per call:

- run_identity(name) on the default grid, for every identity;
- decomp._hurwitz_n_series at lemma1's point (A = alpha = 1, m = 0) and at
  one pole tail, corollary2's default point A = 2, alpha = 2.5 with m the
  K0 that DIR's _pole_direct_terms gives.

Each timing is N rounds (default 15) of a fixed number of calls after one
warm-up call; the file keeps the per-call min and median over the rounds,
the round count, the Python version, the CPU count and DIR's git commit
("+dirty" when its tracked files differ from it).  The record goes under
NAME in the output file, beside the labels already there, so that two
checkouts timed by the same script share one file.  It claims no gain by
itself: compare two labels taken on the same machine.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

CALLS_PER_ROUND = 10
POLE_TAIL_POINT = (2.0, 2.5)


def _commit(src: Path):
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(src), *args], capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        head = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("+dirty" if dirty else "")


def _time(call, repeat: int) -> dict:
    call()
    rounds = []
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(CALLS_PER_ROUND):
            call()
        rounds.append((time.perf_counter() - start) / CALLS_PER_ROUND * 1e6)
    return {"min": min(rounds), "median": statistics.median(rounds)}


def measure(repeat: int) -> dict:
    from ti2kit import decomp
    from ti2kit.verify import IDENTITY_NAMES, run_identity

    A, alpha = POLE_TAIL_POINT
    m = decomp._pole_direct_terms(A, alpha)
    return {
        "run_identity_us": {
            name: _time(lambda name=name: run_identity(name), repeat) for name in IDENTITY_NAMES
        },
        "n_series_us": {
            "lemma1": _time(lambda: decomp._hurwitz_n_series(1.0, 1.0, 0), repeat),
            "pole_tail": _time(lambda: decomp._hurwitz_n_series(A, alpha, m), repeat),
        },
        "pole_tail_point": {"A": A, "alpha": alpha, "m": m},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0] if __doc__ else None)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--label", default="current")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("--repeat", type=int, default=15)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    sys.path.insert(0, str(args.src.resolve()))
    record = {
        "commit": _commit(args.src),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "repeat": args.repeat,
        "calls_per_round": CALLS_PER_ROUND,
        **measure(args.repeat),
    }
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data[args.label] = record
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
