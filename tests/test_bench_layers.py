"""Smoke test of bench/layers.py: one round, every field present."""

import json
import subprocess
import sys
from pathlib import Path

from ti2kit.verify import IDENTITY_NAMES

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "bench" / "layers.py"
KERNEL_NAMES = {
    "ti2(0.3)", "ti2(0.7)", "ti2(0.99)", "ti2(1.5)", "ti2(3)",
    "ei_negative(0.5)", "ei_negative(2)", "ei_negative(30)", "k1_closed", "h_series(3, 1)",
    "aux_integral_I(0.46, b(0.46))", "aux_integral_I(0.75, b(0.75))", "aux_integral_I(3, b(3))",
    "solve_endpoint_b(0.46)", "solve_endpoint_b(0.75)", "solve_endpoint_b(1)",
    "solve_endpoint_b(3)", "solve_endpoint_b(15)",
}


def _check_record(record, repeat):
    assert record["repeat"] == repeat
    assert record["calls_per_round"] >= 1
    assert record["python"] == ".".join(map(str, sys.version_info[:3]))
    assert record["cpus"] >= 1
    assert record["commit"] is None or len(record["commit"].split("+")[0]) == 40
    assert set(record["run_identity_us"]) == set(IDENTITY_NAMES)
    assert set(record["n_series_us"]) == {"lemma1", "pole_tail"}
    assert set(record["hurwitz_zeta_us"]) == {"compute_pool"}
    assert set(record["kernel_us"]) == KERNEL_NAMES
    timings = [
        *record["run_identity_us"].values(),
        *record["n_series_us"].values(),
        *record["hurwitz_zeta_us"].values(),
        *record["kernel_us"].values(),
    ]
    for timing in timings:
        assert 0.0 < timing["min"] <= timing["median"]
    assert record["pole_tail_point"] == {"A": 2.0, "alpha": 2.5, "m": 12}


def test_one_round_writes_every_field(tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(out), "--repeat", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    data = json.loads(out.read_text())
    assert set(data) == {"change"}
    _check_record(data["change"], 1)


def test_parent_rounds_alternate_between_two_checkouts(tmp_path):
    # This checkout against itself: both sides and the per-round ratio.
    out = tmp_path / "BENCH_pair.json"
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(out), "--parent", str(ROOT), "--repeat", "2"],
        capture_output=True, text=True, timeout=240,
    )
    assert done.returncode == 0, done.stderr
    data = json.loads(out.read_text())
    assert set(data) == {"parent", "change", "ratio"}
    _check_record(data["parent"], 2)
    _check_record(data["change"], 2)
    for section in ("run_identity_us", "n_series_us", "hurwitz_zeta_us", "kernel_us"):
        assert set(data["ratio"][section]) == set(data["change"][section])
        assert all(ratio > 0.0 for ratio in data["ratio"][section].values())


def test_rejects_a_round_count_below_one(tmp_path):
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(tmp_path / "b.json"), "--repeat", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "--repeat must be at least 1" in done.stderr
    assert not (tmp_path / "b.json").exists()


def test_rejects_a_parent_without_a_package(tmp_path):
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(tmp_path / "b.json"), "--parent", str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "has no src/ti2kit" in done.stderr
    assert not (tmp_path / "b.json").exists()
