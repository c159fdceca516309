"""The benchmark's own test: smoke runs of every workload, the manifest, and
the statistics and tracer helpers. Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_manifest_matches_definitions():
    assert MANIFEST == run.manifest()
    assert len(MANIFEST["per_layer"]) <= 128
    assert 1 <= MANIFEST["run_seconds"] <= 60
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in MANIFEST["workloads"]])
def test_smoke_run(workload, trace):
    proc = smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = MANIFEST["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in want}
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = smoke("shadow-d4", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("df, x", [(1, 3.841459), (2, 5.991465), (3, 7.814728), (4, 9.487729), (7, 14.06714)])
def test_chi2_sf_at_five_percent_points(df, x):
    assert workloads.chi2_sf(x, df) == pytest.approx(0.05, abs=1e-6)


def test_tail_keeps_ten_samples_beyond():
    values = [float(v) for v in range(1, 41)]
    assert run.tail(values) == (30.0, 75.0)
    assert run.tail(values[:5]) == (5.0, 100.0)


def test_stopwatch_scales_each_lap_by_its_readings(monkeypatch):
    readings = iter([0.02, 0.01, 0.03])
    monkeypatch.setattr(speed, "reading", lambda: next(readings))
    clock = iter([0.0, 1.0, 1.0, 3.0, 3.0])
    monkeypatch.setattr(speed, "perf_counter", lambda: next(clock))
    watch = speed.Stopwatch()
    watch.lap()  # 1 s between readings 0.02 and 0.01
    watch.lap()  # 2 s between readings 0.01 and 0.03
    assert watch.wall == pytest.approx(3.0)
    assert watch.scaled == pytest.approx(speed.REFERENCE_S * (1.0 / 0.015 + 2.0 / 0.02))
    assert watch.readings == [0.02, 0.01, 0.03]


def test_tracer_self_time_and_missing_targets():
    mod = types.ModuleType("fakepkg")
    mod.inner = lambda: sum(range(1000))
    mod.outer = lambda: mod.inner() + mod.inner()
    sys.modules["fakepkg"] = mod
    try:
        tracer = spans.Tracer("fakepkg")
        assert tracer.install("fakepkg", "inner", "inner")
        assert tracer.install("fakepkg", "outer", "outer")
        assert not tracer.install("fakepkg", "deleted_function", "gone")
        tracer.phase = "ops"
        token = tracer.begin_op(0)
        mod.outer()
        tracer.end_op(token)
        tracer.uninstall()
        assert tracer.calls("inner") == 2 and tracer.calls("outer") == 1 and tracer.calls("gone") == 0
        outer_total = tracer.totals["ops"]["outer"][2]
        inner_total = tracer.totals["ops"]["inner"][2]
        assert tracer.self_s("outer") == pytest.approx(outer_total - inner_total, abs=1e-9)
        assert not hasattr(mod.inner, "__wrapped__")
    finally:
        del sys.modules["fakepkg"]
