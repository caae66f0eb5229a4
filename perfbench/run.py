"""Layered benchmark of ti2kit: three closed-loop workloads, every output checked.

    python3 perfbench/run.py --workload compute|verify|cli|all --seed N \\
        --seconds S --trace 0|1

The library is imported from the checkout's ``src`` directory (it is not
installed).  All load comes from one client with one op in flight:

  compute  seeded calls to the eleven functions behind ``ti2kit compute``, in
           one process: the kernels (polylog, special, ti2core), the endpoint
           root solve and h_series.
  verify   repeated passes over all eight identities, one ``run_identity``
           call per seeded grid point: decomp's pole sums, with theorem1's
           quadrature and root solves as a visible share.
  cli      one-shot ``python -m ti2kit.cli`` processes (compute, single
           identities, an occasional ``verify all``): interpreter start, the
           ti2kit import, the CLI and report rendering.

Every compute value is checked against mpmath at 40 digits (``oracle.py``),
every verify report must pass, and every CLI process must exit 0 with
correct output.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
replays the start of the run with every public ti2kit function wrapped and
reports per-layer self times and counts.  The last line printed is one JSON
object with the keys correct, attempted, failed and metrics; a ``row`` line
and an ``env`` line above it give the remaining figures.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from importlib.metadata import version
from pathlib import Path
from time import perf_counter

import inputs
import oracle
import speed
import tracer
import worker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PY = sys.executable

SETUP_RUNS = 9  # fresh interpreters timed for setup_s; the median is reported
PROBE_RUNS = 5  # bare-interpreter and import-only processes in a traced run
# Ops replayed with tracing on.  Fixed, so that counts repeat exactly for a seed.
TRACED_OPS = {"compute": sum(inputs.COMPUTE_WEIGHTS.values()) * inputs.BLOCK_REPEAT,
              "verify": 4 * sum(inputs.VERIFY_POINTS.values()),
              "cli": inputs.CLI_VERIFY_ALL_EVERY}  # up to and including one `verify all`
WORKLOADS = ("compute", "verify", "cli")

# The end-to-end metrics, in row order, with their units.  Times are scaled to
# the nominal machine speed (speed.py); the wall_* figures and `speed`
# (nominal over measured reference time) give the raw clock.  The gated ones
# (BENCHMARK.json) go into the result line; the rest are printed in the row:
# latency_tail_us varies by 15-40% between runs of one seed on a shared
# 2-vCPU host, too much for any allowed bound, and fail_frac, defect_fail_frac
# (misses of the known-defect probe, oracle.KNOWN_DEFECTS), max_rel_err and
# worst_budget are counts of defects or properties of one workload's inputs.
ROW = (
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("fail_frac", "ratio"),
    ("defect_fail_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("max_rel_err", "ratio"),
    ("worst_budget", "abs"),
    ("wall_ops_per_s", "1/s"),
    ("wall_latency_p50_us", "us"),
    ("wall_setup_s", "s"),
    ("speed", "ratio"),
)
END_TO_END = tuple((name, unit) for name, unit in ROW
                   if name in ("ops_per_s", "latency_p50_us", "setup_s", "peak_rss_mb"))

_FUNCTIONS = (
    ("numerics.integrate_adaptive", ("calls", "self_s", "evals")),
    ("numerics.find_root_increasing", ("calls", "self_s")),
    ("numerics.sum_series", ("calls", "self_s", "terms")),
    ("polylog.li2", ("calls", "self_s")),
    ("polylog.clausen2", ("calls", "self_s")),
    ("polylog.li2_upper_boundary", ("calls",)),
    ("special.hurwitz_zeta", ("calls", "self_s")),
    ("special.ei_negative", ("calls", "self_s")),
    ("special.log_gamma", ("calls", "self_s")),
    ("special.catalan_reference", ("calls", "self_s")),
    ("ti2core.ti2", ("calls", "self_s", "series_share")),
    ("ti2core.ti2_clausen_form", ("calls", "self_s")),
    ("endpoint.admissibility", ("calls", "self_s")),
    ("endpoint.psi", ("calls", "self_s")),
    ("endpoint.phi", ("calls", "self_s")),
    ("endpoint.solve_endpoint_b", ("calls", "self_s", "iterations")),
    ("endpoint.aux_integral_I", ("calls", "self_s", "evals")),
    ("endpoint.theorem1_identity", ("self_s",)),
    ("decomp.corollary2_series", ("self_s",)),
    ("decomp.catalan_family", ("self_s",)),
    ("decomp.pointwise_identity", ("self_s",)),
    ("decomp.lemma1_catalan", ("self_s",)),
    ("decomp.remark1_partial", ("self_s",)),
    ("decomp.k1_closed", ("self_s",)),
    ("decomp.h_series", ("calls", "self_s", "terms")),
    ("report.IdentityReport.build", ("calls", "self_s")),
    ("report.render_json", ("self_s", "bytes")),
    ("verify.run_identity", ("calls", "self_s")),
    ("cli.main", ("self_s",)),
)
_UNITS = {"self_s": "s", "series_share": "ratio"}
PER_LAYER = (
    tuple((f"{fn}.{what}", _UNITS.get(what, "count")) for fn, whats in _FUNCTIONS for what in whats)
    + (("decomp.pole_terms", "count"), ("cli.interpreter_s", "s"), ("cli.import_s", "s"))
    + tuple((f"{layer}.self_s", "s") for layer in tracer.LAYERS[:-1] + ("bench",))
    + (("trace.untraced_ops_per_s", "1/s"), ("trace.traced_ops_per_s", "1/s"),
       ("trace.span_cost_us", "us"), ("trace.spans", "count"), ("trace.accounted_share", "ratio"))
)


class BenchError(RuntimeError):
    """The benchmark could not run: no result is printed."""


def child_env() -> dict:
    # One BLAS thread: ti2kit never calls BLAS (numpy only sums one arctan
    # array), yet importing numpy starts a BLAS pool of nproc threads, which
    # on two CPUs made CLI process times bimodal (per-process IQR 0.27 of the
    # median, against 0.11 with one thread) and the load no longer single-threaded.
    return dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


class Spawner:
    """The helper process (``spawner.py``) that starts every measured child.

    Children forked from it report their own peak RSS, not this process's.
    """

    def __init__(self):
        OUT.mkdir(exist_ok=True)
        self.proc = subprocess.Popen([PY, str(BENCH / "spawner.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, cwd=ROOT)

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=150)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str], stdin: bytes | None = None, timeout: float = 120.0) -> dict:
        """Run one child to completion: exit code, stdout, stderr, wall time, peak RSS."""
        req = {"argv": argv, "stdin": base64.b64encode(stdin).decode() if stdin is not None else None,
               "env": child_env(), "cwd": str(ROOT), "timeout": timeout, "stderr": str(OUT / "stderr.txt")}
        self.proc.stdin.write(json.dumps(req).encode() + b"\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the spawner process ended early")
        reply = json.loads(line)
        reply["out"] = base64.b64decode(reply["out"])
        return reply


def latency_stats(lat: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    s = sorted(lat)
    n = len(s)
    tail_rank = n - 11 if n > 10 else n - 1  # with fewer samples, the maximum
    return {"p50": statistics.median(s), "tail": s[tail_rank],
            "tail_pct": 100.0 * (tail_rank + 1) / n, "beyond": n - tail_rank - 1, "n": n}


def cycle_counts(keys: list, n: int) -> Counter:
    """How often each key occurs in the first ``n`` items of ``keys`` repeated."""
    full, rest = divmod(n, len(keys))
    counts = Counter()
    for k in keys:
        counts[k] += full
    for k in keys[:rest]:
        counts[k] += 1
    return counts


class Tally:
    """Attempted and failed ops, the failures' reasons, and the worst oracle error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = 0  # failed ops inside a known defect (oracle.KNOWN_DEFECTS)
        self.reasons: list[str] = []
        self.max_err = 0.0
        self.err_by_fn: dict[str, float] = {}

    def fail(self, n: int, reason: str, known: bool = False) -> None:
        if n <= 0:
            return
        self.failed += n
        self.known += n if known else 0
        if len(self.reasons) < 10:
            self.reasons.append(f"{n} x {reason}")

    def check_value(self, fn: str, args: list, value, ref, hits: int) -> None:
        ok, err = oracle.check(fn, args, value, ref)
        self.max_err = max(self.max_err, err)
        self.err_by_fn[fn] = max(self.err_by_fn.get(fn, 0.0), err)
        if not ok:
            self.fail(hits, f"{fn}{tuple(args)} = {value!r}: error {err:.3g} over tolerance",
                      oracle.known_defect(fn, args))

    @property
    def correct(self) -> bool:
        return self.failed == self.known


def run_worker(sp: Spawner, job: dict, timeout: float) -> dict:
    r = sp.run([PY, str(BENCH / "worker.py")], json.dumps(job).encode(), timeout)
    if r["code"] != 0:
        raise BenchError(f"worker exited {r['code']}: {r['err'][-2000:]}")
    out = json.loads(r["out"])
    for key in ("lat", "traced_lat"):
        if key in out:
            out[key] = worker.unpack(out[key])
    return out


def start_s(sp: Spawner) -> float:
    """Wall time of a bare interpreter start: the speed reference for a process."""
    return sp.run([PY, "-c", "pass"], None, 60.0)["wall"]


def setup_times(sp: Spawner, argv: list[str], stdin: bytes | None = None) -> dict:
    """Wall times of SETUP_RUNS fresh processes, and each scaled by the start just before it."""
    walls, scaled = [], []
    for _ in range(SETUP_RUNS):
        ref = start_s(sp)
        r = sp.run(argv, stdin, 60.0)
        if r["code"] != 0:
            raise BenchError(f"set-up run exited {r['code']}: {r['err'][-2000:]}")
        walls.append(r["wall"])
        scaled.append(r["wall"] * speed.NOMINAL_START_S / ref)
    return {"wall": walls, "scaled": scaled}


def probe_times(sp: Spawner) -> dict:
    """Bare interpreter start, and a fresh ``import ti2kit`` minus that start."""
    def median_wall(code: str) -> float:
        return statistics.median(sp.run([PY, "-c", code], None, 60.0)["wall"] for _ in range(PROBE_RUNS))

    interpreter = median_wall("pass")
    return {"cli.interpreter_s": interpreter, "cli.import_s": median_wall("import ti2kit") - interpreter}


def layer_metrics(summary: dict, extra: dict) -> dict:
    def value(name: str):
        if name in extra:
            return extra[name]
        base, _, what = name.rpartition(".")
        if what == "calls":
            return summary["calls"].get(base, 0)
        if what == "self_s" and base in tracer.LAYERS + ("bench",):
            return sum(v for k, v in summary["self_s"].items() if k.startswith(base + "."))
        if what == "self_s":
            return summary["self_s"].get(base, 0.0)
        if what == "series_share":
            calls = summary["calls"].get(base, 0)
            return summary["counts"].get(base + ".series", 0) / calls if calls else 0.0
        return summary["counts"].get(name, 0)

    return {name: {"value": value(name), "unit": unit} for name, unit in PER_LAYER}


def trace_extra(summary: dict, untraced: list[float], traced: list[float], outside_s: float = 0.0) -> dict:
    """Tracing overhead, and how much of the untraced busy time the self times explain.

    The overhead-corrected self time of every span under the op roots, plus
    ``outside_s`` (time no span can see, such as process start), as a share
    of the untraced busy time of the same ops.
    """
    n = len(traced)
    plain_busy = sum(untraced[:n])
    by_root = summary["self_by_root"]
    explained = (by_root["bench.op"] if "bench.op" in by_root else sum(by_root.values())) + outside_s
    cost = summary["cost"]
    return {"trace.untraced_ops_per_s": n / plain_busy, "trace.traced_ops_per_s": n / sum(traced),
            "trace.span_cost_us": (cost["inside"] + cost["outside"]) * 1e6, "trace.spans": summary["spans"],
            "trace.accounted_share": explained / plain_busy}


def in_worker(sp: Spawner, workload: str, data, seconds: float, trace: bool, probe=None) -> dict:
    """Time set-up, then run the workload's closed loop in a worker process."""
    job = {"workload": workload, "seconds": seconds, "inputs": data, "probe": probe or {}}
    res = {}
    if trace:
        job.update(trace=TRACED_OPS[workload], spans_path=str(OUT / f"{workload}.spans"))
    else:
        res["setup"] = setup_times(sp, [PY, str(BENCH / "worker.py"), "--setup"], json.dumps(job).encode())
    out = run_worker(sp, job, seconds + 120.0)
    out["scaled"] = speed.scale(out["lat"], out["refs"], out["ref_at"])
    out["speed"] = speed.NOMINAL_S / statistics.median(out["refs"])
    res.update(out=out, tally=Tally())
    res["tally"].attempted = len(out["lat"]) + len(out.get("traced_lat", ()))
    return res


def run_compute(sp: Spawner, seed: int, seconds: float, trace: bool) -> dict:
    data = inputs.compute_inputs(seed)
    pools = data["pools"]
    refs = {fn: [oracle.reference(fn, args) for args in pool] for fn, pool in pools.items()}
    probe = {"ei": inputs.defect_probe(seed)["ei"]}
    res = in_worker(sp, "compute", data, seconds, trace, probe)
    out, tally = res["out"], res["tally"]
    probe_tally = Tally()
    for fn, pool in probe.items():
        for args, value in zip(pool, out["probe"][fn]):
            probe_tally.attempted += 1
            if isinstance(value, str):
                probe_tally.fail(1, f"{fn}{tuple(args)} {value}")
            else:
                probe_tally.check_value(fn, args, value, oracle.reference(fn, args), 1)
    keys = [tuple(k) for k in data["schedule"]]
    hits = cycle_counts(keys, len(out["lat"])) + cycle_counts(keys, len(out.get("traced_lat", ())))
    for fn, pool in pools.items():
        for idx, args in enumerate(pool):
            key = (fn, idx)
            if str(idx) in out["raised"][fn]:
                tally.fail(hits[key], f"{fn}{tuple(args)} raised {out['raised'][fn][str(idx)]}")
            elif str(idx) in out["values"][fn]:
                tally.check_value(fn, args, out["values"][fn][str(idx)], refs[fn][idx], hits[key])
    tally.fail(out["nondeterministic_count"], f"outputs changed between calls: {out['nondeterministic']}")
    res.update(probe=probe_tally, extra={"max_rel_err": max(tally.max_err, probe_tally.max_err)},
               env={"weights": inputs.COMPUTE_WEIGHTS, "pool_size": inputs.POOL_SIZE,
                    "max_err_by_fn": tally.err_by_fn})
    return res


def run_verify(sp: Spawner, seed: int, seconds: float, trace: bool) -> dict:
    grid = inputs.verify_grid(seed)
    res = in_worker(sp, "verify", grid, seconds, trace)
    out, tally = res["out"], res["tally"]
    for j, count in enumerate(out["fails"]):
        tally.fail(count, f"{grid[j][0]} {grid[j][1]}: {out['reasons'].get(str(j))}")
    tally.fail(out["render_mismatches"], "pass rendered differently from the first pass")
    if out["first_json"] is not None:
        rendered = json.loads(out["first_json"])
        if [r["name"] for r in rendered] != [name for name, _ in grid] or not all(r["pass"] is True for r in rendered):
            tally.fail(1, "first pass JSON does not list every grid point as passed")
    res.update(extra={"worst_budget": out["worst_budget"]},
               env={"points": inputs.VERIFY_POINTS, "passes": out["passes"]})
    return res


def _expected_reports(argv: list[str]) -> int:
    flag = {"theorem1": "--a", "corollary2": "--A", "pointwise": "--alpha",
            "corollary3": "--n", "corollary4": "--theta"}.get(argv[1])
    return argv.count(flag) if flag else 1


def check_cli(argv: list[str], r: dict, refs: dict, tally: Tally) -> None:
    """One CLI process: exit 0, and stdout matching the oracle or all-pass JSON."""
    if r["code"] != 0:
        tally.fail(1, f"{argv} exited {r['code']}: {r['err'][-300:]}",
                   r["code"] == 2 and oracle.known_cli_usage_defect(argv))
        return
    text = r["out"].decode()
    try:
        if argv[0] == "compute":
            fields = [float(v) for v in text.split()]
            value = fields if argv[1] == "li2" else fields[0]
            args = [float(v) for v in argv[2:]]
            tally.check_value(argv[1], args, value, refs[tuple(argv)], 1)
            return
        reports = json.loads(text)
    except (ValueError, IndexError) as exc:
        tally.fail(1, f"{argv} printed unreadable output {text[:200]!r}: {exc}")
        return
    names = [rep["name"] for rep in reports]
    if argv[1] == "all":
        complete = set(names) == set(inputs.VERIFY_POINTS)
    else:
        complete = names == [argv[1]] * _expected_reports(argv)
    if not complete or not all(rep["pass"] is True for rep in reports):
        tally.fail(1, f"{argv}: reports {names} not all present and passed")


def run_cli(sp: Spawner, seed: int, seconds: float, trace: bool) -> dict:
    argvs = inputs.cli_inputs(seed)
    probe_argv = inputs.defect_probe(seed)["cli"]
    refs = {tuple(a): oracle.reference(a[1], [float(v) for v in a[2:]])
            for a in argvs + [probe_argv] if a[0] == "compute"}
    cli = [PY, "-m", "ti2kit.cli"]
    probe_tally = Tally()
    probe_tally.attempted = 1
    check_cli(probe_argv, sp.run(cli + probe_argv), refs, probe_tally)
    res = {"probe": probe_tally}
    if not trace:
        res["setup"] = setup_times(sp, cli + argvs[0])
    tally = Tally()
    lat, scaled, starts, rss = [], [], [], 0
    deadline = perf_counter() + seconds
    while True:
        argv = argvs[len(lat) % len(argvs)]
        starts.append(start_s(sp))
        r = sp.run(cli + argv)
        lat.append(r["wall"])
        scaled.append(r["wall"] * speed.NOMINAL_START_S / starts[-1])
        rss = max(rss, r["rss_kb"])
        check_cli(argv, r, refs, tally)
        if perf_counter() >= deadline:
            break
    out = {"lat": lat, "scaled": scaled, "speed": speed.NOMINAL_START_S / statistics.median(starts),
           "rss_kb": rss, "busy_by": {}}
    for i, t in enumerate(lat):
        key = " ".join(argvs[i % len(argvs)][:2])
        out["busy_by"][key] = out["busy_by"].get(key, 0.0) + t
    if trace:
        child = [PY, str(BENCH / "cli_child.py")]
        r = sp.run(child + ["--calibrate"])
        if r["code"] != 0:
            raise BenchError(f"calibration exited {r['code']}: {r['err'][-2000:]}")
        cost = json.loads(r["out"])
        summaries, traced = [], []
        for i in range(min(TRACED_OPS["cli"], len(lat))):
            path = OUT / f"cli-{i}.spans"
            r = sp.run(child + [str(path)] + argvs[i])
            traced.append(r["wall"])
            check_cli(argvs[i], r, refs, tally)
            summaries.append(tracer.read(path, cost))
        out["traced_lat"] = traced
        out["trace"] = tracer.merge(summaries)
    tally.attempted = len(lat) + len(out.get("traced_lat", ()))
    res.update(out=out, tally=tally, extra={"max_rel_err": max(tally.max_err, probe_tally.max_err)},
               env={"argvs": len(argvs)})
    return res


RUNNERS = {"compute": run_compute, "verify": run_verify, "cli": run_cli}


def git_commit() -> str | None:
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                           env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)), timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ti2kit").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def measure(sp: Spawner, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return its result metrics, row figures and environment."""
    res = RUNNERS[workload](sp, seed, seconds, trace)
    out, tally = res["out"], res["tally"]
    busy = sum(out["lat"])
    scaled = out["scaled"]
    stats = latency_stats(scaled)
    row = {"ops_per_s": len(scaled) / sum(scaled), "latency_p50_us": stats["p50"] * 1e6,
           "latency_tail_us": stats["tail"] * 1e6, "fail_frac": tally.failed / tally.attempted,
           "peak_rss_mb": out["rss_kb"] / 1024.0, **res["extra"],
           **({"defect_fail_frac": res["probe"].failed / res["probe"].attempted} if "probe" in res else {}),
           "wall_ops_per_s": len(out["lat"]) / busy, "wall_latency_p50_us": statistics.median(out["lat"]) * 1e6,
           "speed": out["speed"]}
    if trace:
        extra = probe_times(sp)
        outside = (extra["cli.interpreter_s"] + extra["cli.import_s"]) * len(out["traced_lat"]) \
            if workload == "cli" else 0.0
        extra.update(trace_extra(out["trace"], out["lat"], out["traced_lat"], outside))
        metrics = layer_metrics(out["trace"], extra)
    else:
        row["setup_s"] = statistics.median(res["setup"]["scaled"])
        row["wall_setup_s"] = statistics.median(res["setup"]["wall"])
        metrics = {name: {"value": row[name], "unit": unit} for name, unit in END_TO_END}
    shares = {k: round(v / busy, 4) for k, v in sorted(out["busy_by"].items(), key=lambda kv: -kv[1])}
    env = {"python": platform.python_version(), "nproc": os.cpu_count(), "numpy": version("numpy"),
           "mpmath": version("mpmath"), "commit": git_commit(), "src_sha256": src_digest(),
           "seed": seed, "workload": workload, "seconds": seconds, "trace": trace,
           "attempted": tally.attempted, "failed": tally.failed, "known_defect_failures": tally.known,
           "failures": tally.reasons, "time_shares": shares,
           **({"defect_probe": {"attempted": res["probe"].attempted, "failed": res["probe"].failed,
                                "failures": res["probe"].reasons}} if "probe" in res else {}),
           "latency_tail": {"percentile": stats["tail_pct"], "samples_beyond": stats["beyond"],
                            "samples": stats["n"]}, **res["env"]}
    if not trace:
        env["setup_runs_s"] = res["setup"]["wall"]
    return {"metrics": metrics, "row": row, "env": env, "tally": tally, "probe": res.get("probe")}


def format_row(workload: str, m: dict) -> str:
    """All end-to-end figures of one workload on one line, by name, with units."""
    r, tail = m["row"], m["env"]["latency_tail"]
    parts = [f"{name}={r[name]:.6g} {unit}" for name, unit in ROW if name in r]
    parts.append(f"(tail = p{tail['percentile']:.3f}: {tail['samples_beyond']} of {tail['samples']} samples beyond)")
    return f"row {workload:8s} " + "  ".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ti2kit" / "__init__.py").is_file():
        print(f"error: no ti2kit sources under {SRC}; run from a ti2kit checkout", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for w in names:
            # A fresh spawner per workload: relaying a large result grows its
            # RSS, which the next children would inherit as their floor.
            with Spawner() as sp:
                results[w] = measure(sp, w, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for w, m in results.items():
        print("env " + json.dumps(m["env"], sort_keys=True))
    for w, m in results.items():
        print(format_row(w, m))
    tallies = [m["tally"] for m in results.values()]
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, m in results.items() for k, v in m["metrics"].items()}
    probes = [m["probe"] for m in results.values() if m["probe"] is not None]
    print(json.dumps({"correct": all(t.correct for t in tallies + probes),
                      "attempted": sum(t.attempted for t in tallies),
                      "failed": sum(t.failed for t in tallies),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
