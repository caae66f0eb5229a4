"""Smoke test of bench/layers.py: one round, every field present."""

import json
import subprocess
import sys
from pathlib import Path

from ti2kit.verify import IDENTITY_NAMES

SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def test_one_round_writes_every_field_beside_other_labels(tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    out.write_text(json.dumps({"other": {"kept": True}}))
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(out), "--label", "smoke", "--repeat", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    data = json.loads(out.read_text())
    assert data["other"] == {"kept": True}
    record = data["smoke"]
    assert record["repeat"] == 1
    assert record["calls_per_round"] >= 1
    assert record["python"] == ".".join(map(str, sys.version_info[:3]))
    assert record["cpus"] >= 1
    assert record["commit"] is None or len(record["commit"].split("+")[0]) == 40
    assert set(record["run_identity_us"]) == set(IDENTITY_NAMES)
    assert set(record["n_series_us"]) == {"lemma1", "pole_tail"}
    timings = [*record["run_identity_us"].values(), *record["n_series_us"].values()]
    for timing in timings:
        assert 0.0 < timing["min"] <= timing["median"]
    assert record["pole_tail_point"] == {"A": 2.0, "alpha": 2.5, "m": 12}


def test_rejects_a_round_count_below_one(tmp_path):
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--out", str(tmp_path / "b.json"), "--repeat", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "--repeat must be at least 1" in done.stderr
    assert not (tmp_path / "b.json").exists()
