"""Smoke test of the benchmark itself: tiny scenes, every workload, both modes.

    python -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"
BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
E2E_NAMES = (
    "setup_s", "wall_s", "wall_clock_s", "stripe_s", "simulate_s", "verify_s", "ridge_s",
    "roundtrip_s", "peak_rss_mb", "arc_yield", "tri_err_max", "tri_missing",
    "verify_violations", "failed_ops", "bundle_bytes",
)


def _run(run_py: Path, out: Path, workload: str, trace: int, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_timed_run_prints_every_end_to_end_metric(tmp_path):
    proc = _run(RUN, tmp_path, "stripe-flat", 0)
    result = _result(proc)
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    for name in E2E_NAMES:
        assert f"  {name} " in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_confirms_the_layer_split(tmp_path, workload):
    result = _result(_run(RUN, tmp_path, workload, 1))
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    m = {k: v["value"] for k, v in result["metrics"].items()}
    ridging_counts = ("ridging.build_ridging.calls", "ridging.mesh_ridging.calls",
                      "ridging.bands", "ridging.mesh_vertices", "ridging.mesh_triangles")
    if workload.startswith("stripe"):
        assert m["foliation.radial_roots.ridging.calls"] == 0
        assert all(m[k] == 0 for k in ridging_counts)
        assert m["striping.integrate_toolpath.calls"] > 0
        assert m["simulate.find_glints.arc_s"] > 0
    else:
        assert m["striping.integrate_toolpath.calls"] == 0
        assert m["foliation.radial_roots.ridging.calls"] > 0
        assert all(m[k] > 0 for k in ridging_counts)
    spans = json.loads(next(tmp_path.glob("*-spans.json")).read_text(encoding="utf-8"))
    assert spans["spans"] and all(s[4] >= s[3] for s in spans["spans"])


def test_counts_repeat_at_a_fixed_seed(tmp_path):
    runs = [_result(_run(RUN, tmp_path / str(k), "ridge-point", 1)) for k in range(2)]
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"] in ("count", "bytes")}
        for r in runs
    ]
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path / "bench" / "run.py", tmp_path / "out", "stripe-flat", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
