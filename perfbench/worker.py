"""Runs the in-process `compute` or `verify` workload in a fresh interpreter.

Reads one JSON job on stdin and prints one JSON result on stdout:

    python perfbench/worker.py            # the timed closed loop
    python perfbench/worker.py --setup    # import ti2kit, run the first op, exit

The loop is closed with one client: the next op starts when the previous one
returns.  Only the library call sits between the two clock reads; recording
and checking happen outside them, and so do the speed slices (``speed.py``)
timed every 0.2 s.  An untimed warm-up comes first, so that every run is
timed with caches filled and the CPU already under load.  With ``"trace": N`` in the job the untraced
loop is followed by a traced replay of its first N ops (see ``tracer.py``).
Correctness against the mpmath oracle is judged by the caller, from the
outputs returned here.
"""

from __future__ import annotations

import base64
import json
import resource
import sys
from array import array
from time import perf_counter

import speed

WARMUP_S = 1.5


def compute_calls(t) -> dict:
    """The public function each `ti2kit compute` name maps to, as the CLI maps it."""
    return {
        "ti2": lambda a: t.ti2(a[0]),
        "li2": lambda a: t.li2(complex(a[0], a[1])),
        "clausen2": lambda a: t.clausen2(a[0]),
        "hurwitz": lambda a: t.hurwitz_zeta(a[0], a[1]),
        "ei": lambda a: t.ei_negative(a[0]),
        "catalan": lambda a: t.catalan_reference(1e-14),
        "psi": lambda a: t.psi(a[0]),
        "phi": lambda a: t.phi(a[0], a[1]),
        "b-of-a": lambda a: t.solve_endpoint_b(a[0]).b,
        "H": lambda a: t.h_series(a[0], a[1]).value,
        "K1": lambda a: t.k1_closed(),
    }


def verify_config(t, identity: str, point: dict):
    """A default VerificationConfig whose grid for ``identity`` is the one point."""
    grid = {
        "theorem1": lambda p: {"a_grid": (p["a"],)},
        "corollary2": lambda p: {"A_alpha_grid": ((p["A"], p["alpha"]),)},
        "corollary3": lambda p: {"n_grid": (p["n"],)},
        "corollary4": lambda p: {"theta_grid": (p["theta"],)},
        "pointwise": lambda p: {"alpha_x_grid": ((p["alpha"], p["x"]),)},
    }.get(identity, lambda p: {})
    return t.VerificationConfig(format="json", **grid(point))


class Compute:
    """Ops are ``(name, pool index)``; outputs are kept per distinct input.

    ``job["probe"]`` maps a function name to the arguments of its known-defect
    probe, called once each outside the timed loops.
    """

    def __init__(self, job, t):
        self.probe = job.get("probe", {})
        self.pools = job["inputs"]["pools"]
        self.ops = [(fn, idx, self.pools[fn][idx]) for fn, idx in job["inputs"]["schedule"]]
        self.t = t
        self.bind()
        self.values: dict[str, dict[int, object]] = {fn: {} for fn in self.pools}
        self.raised: dict[str, dict[int, str]] = {fn: {} for fn in self.pools}
        self.nondeterministic: list = []

    def bind(self):
        self.calls = compute_calls(self.t)

    def new_phase(self) -> None:
        pass

    def call(self, op):
        return self.calls[op[0]](op[2])

    def record(self, i, op, out, exc) -> None:
        fn, idx = op[0], op[1]
        if exc is not None:
            self.raised[fn].setdefault(idx, f"{type(exc).__name__}: {exc}")
            return
        if isinstance(out, complex):
            out = [out.real, out.imag]
        seen = self.values[fn]
        if idx not in seen:
            seen[idx] = out
        elif seen[idx] != out:
            self.nondeterministic.append([fn, idx])

    def probe_outputs(self) -> dict:
        values: dict[str, list] = {}
        for fn, pool in self.probe.items():
            values[fn] = []
            for args in pool:
                try:
                    values[fn].append(self.calls[fn](args))
                except Exception as exc:
                    values[fn].append(f"raised {type(exc).__name__}: {exc}")
        return values

    def result(self) -> dict:
        return {"values": self.values, "raised": self.raised, "probe": self.probe_outputs(),
                "nondeterministic": self.nondeterministic[:20],
                "nondeterministic_count": len(self.nondeterministic)}


class Verify:
    """Ops are one ``run_identity(name, cfg)`` call for one grid point.

    Every pass over the grid is rendered with ``render_json`` and must be
    byte-identical to the first pass.
    """

    def __init__(self, job, t):
        self.t = t
        self.grid = job["inputs"]
        self.ops = [(name, verify_config(t, name, point)) for name, point in self.grid]
        self.bind()
        self.fails = [0] * len(self.ops)
        self.reasons: dict[int, str] = {}
        self.pass_reports: list = []
        self.first_json = None
        self.render_mismatches = 0
        self.passes = 0
        self.worst_budget = 0.0

    def bind(self):
        self.run_identity = self.t.run_identity
        self.render_json = self.t.render_json

    def new_phase(self) -> None:
        # A phase ends mid-pass; the next one starts a fresh pass at op 0.
        self.pass_reports = []

    def call(self, op):
        return self.run_identity(op[0], op[1])

    def record(self, i, op, out, exc) -> None:
        j = i % len(self.ops)
        reason = None
        if exc is not None:
            reason = f"raised {type(exc).__name__}: {exc}"
        elif len(out) != 1:
            reason = f"{len(out)} reports for 1 grid point"
        elif out[0].name != op[0] or not out[0].passed:
            reason = f"report {out[0].name!r} passed={out[0].passed}"
        if reason is not None:
            self.fails[j] += 1
            self.reasons.setdefault(j, reason)
        for r in out or ():
            self.worst_budget = max(self.worst_budget, r.tolerance + (r.tail_bound or 0.0))
        self.pass_reports.extend(out or ())
        if j == len(self.ops) - 1:
            self.end_pass()

    def end_pass(self) -> None:
        text = self.render_json(self.pass_reports)
        self.pass_reports = []
        self.passes += 1
        if self.first_json is None:
            self.first_json = text
        elif text != self.first_json:
            self.render_mismatches += 1

    def result(self) -> dict:
        return {"fails": self.fails, "reasons": {str(k): v for k, v in self.reasons.items()},
                "first_json": self.first_json, "passes": self.passes,
                "render_mismatches": self.render_mismatches, "worst_budget": self.worst_budget}


def loop(w, seconds: float, max_ops: int, stop=lambda: False, slices: bool = False) -> dict:
    """Closed loop: one op in flight, until ``seconds`` pass or ``max_ops`` ops.

    With ``slices``, a speed slice is timed before the first op, every
    ``speed.EVERY_S`` between ops, and after the last op.
    """
    w.new_phase()
    lat = array("f")  # 4 bytes a sample keeps the harness's own memory small
    busy_by: dict[str, float] = {}
    refs: list[float] = []
    ref_at: list[int] = []
    ops = w.ops
    n = len(ops)
    call = w.call
    t1 = perf_counter()
    deadline = t1 + seconds
    next_slice = t1 if slices else float("inf")
    i = 0
    while True:
        if t1 >= next_slice:
            refs.append(speed.slice_s())
            ref_at.append(i)
            next_slice = perf_counter() + speed.EVERY_S
        op = ops[i % n]
        t0 = perf_counter()
        try:
            out, exc = call(op), None
        except Exception as e:  # an op that raises is a failed op, not a crash
            out, exc = None, e
        t1 = perf_counter()
        lat.append(t1 - t0)
        busy_by[op[0]] = busy_by.get(op[0], 0.0) + (t1 - t0)  # op[0]: function or identity name
        w.record(i, op, out, exc)
        i += 1
        if i >= max_ops or t1 >= deadline or stop():
            break
    if slices:
        refs.append(speed.slice_s())
        ref_at.append(i)
    return {"lat": lat, "busy_by": busy_by, "refs": refs, "ref_at": ref_at}


def pack(lat: array) -> str:
    return base64.b64encode(lat.tobytes()).decode()


def unpack(text: str) -> list[float]:
    lat = array("f")
    lat.frombytes(base64.b64decode(text))
    return lat.tolist()


def main() -> int:
    job = json.load(sys.stdin)
    import ti2kit as t

    workload = Compute if job["workload"] == "compute" else Verify
    w = workload(job, t)
    if "--setup" in sys.argv[1:]:
        loop(w, 0.0, 1)
        return 0

    loop(w, WARMUP_S, sys.maxsize)
    w = workload(job, t)  # the timed run starts over at op 0 with clean tallies
    plain = loop(w, job["seconds"], sys.maxsize, slices=True)
    lat = plain["lat"]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    res = {"lat": pack(lat), "busy_by": plain["busy_by"], "refs": plain["refs"], "ref_at": plain["ref_at"],
           "rss_kb": rss_kb}
    if job.get("trace"):
        import tracer

        tr = tracer.Tracer()
        tracer.install(tr)
        tr.calibrate()
        w.bind()
        w.call = tr.wrap("bench.op", w.call)
        tr.active = True
        traced = loop(w, float("inf"), min(job["trace"], len(lat)), tr.full)
        tr.active = False
        tr.write(job["spans_path"])
        res["traced_lat"] = pack(traced["lat"])
        res["trace"] = tr.summary()
    res.update(w.result())
    json.dump(res, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
