"""Tests of the benchmark itself.

    python -m pytest perfbench/test_perfbench.py

The smoke runs take about a minute: each one runs a workload for one second.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    r = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace)
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    spec = SPEC["end_to_end" if trace == "0" else "per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name
        if trace == "0":
            assert m["value"] > 0, name


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    r = bench("--workload", "compute", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert r.returncode != 0
    assert '"correct"' not in r.stdout


def test_seed_determines_inputs():
    for make in (inputs.compute_inputs, inputs.verify_grid, inputs.cli_inputs):
        assert make(7) == make(7)
        assert make(7) != make(8)


def test_verify_grid_stays_where_identities_hold():
    for name, point in inputs.verify_grid(3):
        if name == "theorem1":
            assert oracle.admissible(point["a"])
        if name == "corollary2":
            assert point["A"] <= 2.0 and 0.2 < point["alpha"] < 3.0
        if name == "corollary3":
            assert 2 <= point["n"] <= 12
        if name == "pointwise":
            assert point["x"] <= 4.0


def test_timed_inputs_keep_out_of_known_defects_and_the_probe_stays_in_them():
    for seed in (1, 2, 3):
        for [x] in inputs.compute_inputs(seed)["pools"]["ei"]:
            assert not oracle.known_defect("ei", [x]) and 1e-3 <= x <= 700.0
        for argv in inputs.cli_inputs(seed):
            assert not oracle.known_cli_usage_defect(argv)
        probe = inputs.defect_probe(seed)
        assert all(oracle.known_defect("ei", args) for args in probe["ei"])
        assert oracle.known_cli_usage_defect(probe["cli"])


def test_cli_args_are_the_drawn_values():
    for v in (-6.02e-05, 1e-7, 0.1 + 0.2, -9.5, 123.456):
        assert float(inputs.cli_arg(v)) == v and "e" not in inputs.cli_arg(v)


def test_injected_wrong_compute_value_is_a_failure():
    args = [0.5]
    ref = oracle.reference("ti2", args)
    good, bad = run.Tally(), run.Tally()
    good.check_value("ti2", args, float(ref), ref, hits=3)
    bad.check_value("ti2", args, float(ref) * (1 + 1e-9), ref, hits=3)
    assert (good.failed, good.correct) == (0, True)
    assert (bad.failed, bad.correct) == (3, False)
    assert bad.max_err == pytest.approx(1e-9, rel=1e-3)


def test_known_defect_fails_but_keeps_the_run_correct():
    args = [4.0]
    ref = oracle.reference("ei", args)
    tally = run.Tally()
    tally.check_value("ei", args, float(ref) * (1 + 1e-11), ref, hits=2)
    assert (tally.failed, tally.known, tally.correct) == (2, 2, True)


def test_negative_exponent_usage_error_is_a_known_cli_defect():
    argv = ["compute", "li2", "-6.02e-05", "0.0017"]
    tally = run.Tally()
    run.check_cli(argv, {"code": 2, "out": b"", "err": "unrecognized arguments"}, {}, tally)
    assert (tally.failed, tally.known, tally.correct) == (1, 1, True)
    tally = run.Tally()
    run.check_cli(["compute", "li2", "-0.5", "0.25"], {"code": 2, "out": b"", "err": ""}, {}, tally)
    assert (tally.failed, tally.known, tally.correct) == (1, 0, False)


def test_injected_wrong_cli_output_is_a_failure():
    argv = ["compute", "ti2", "0.5"]
    refs = {tuple(argv): oracle.reference("ti2", [0.5])}
    for out, code in ((b"0.4\n", 0), (b"", 1), (b"garbage\n", 0)):
        tally = run.Tally()
        run.check_cli(argv, {"code": code, "out": out, "err": ""}, refs, tally)
        assert tally.failed == 1
    tally = run.Tally()
    report = '[{"name": "corollary4", "pass": false}]'
    run.check_cli(["verify", "corollary4", "--format", "json", "--theta", "0.5"],
                  {"code": 0, "out": report.encode(), "err": ""}, refs, tally)
    assert tally.failed == 1


def test_failed_dropped_or_changed_verify_reports_are_failures():
    import ti2kit

    grid = [["corollary4", {"theta": 0.5}], ["corollary4", {"theta": 0.7}]]
    w = worker.Verify({"inputs": grid}, ti2kit)
    good = ti2kit.run_identity("corollary4", w.ops[0][1])
    failing = [ti2kit.IdentityReport.build("corollary4", {"theta": 0.7}, 1.0, 2.0, 1e-10, "x", "y")]
    w.record(0, w.ops[0], good, None)
    w.record(1, w.ops[1], failing, None)  # verdict false
    w.record(2, w.ops[0], [], None)  # point dropped
    w.record(3, w.ops[1], failing, None)
    assert w.fails == [1, 2]
    assert w.passes == 2 and w.render_mismatches == 1
