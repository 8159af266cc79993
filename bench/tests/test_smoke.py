"""End-to-end runs of the benchmark command at toy sizes."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(args, cwd, timeout=170):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_of_all_workloads(tmp_path, trace):
    t = time.perf_counter()
    res = run_bench(["--smoke", "--trace", str(trace), "--out", str(tmp_path)], ROOT)
    elapsed = time.perf_counter() - t
    assert res.returncode == 0, res.stderr[-3000:]
    assert elapsed < 60
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {f"{w['name']}/{m['name']}" for w in SPEC["workloads"] for m in specs}
    assert set(out["metrics"]) == expected
    units = {m["name"]: m["unit"] for m in specs}
    for key, metric in out["metrics"].items():
        assert metric["unit"] == units[key.split("/", 1)[1]]
    if not trace:
        assert all(out["metrics"][k]["value"] > 0 for k in expected)
    results = list(tmp_path.glob("*-trace*.json"))
    assert len(results) == len(SPEC["workloads"])
    stamp = json.loads(results[0].read_text())["stamp"]
    assert stamp["threads"] == {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                                "MKL_NUM_THREADS": "1"}
    if trace:
        for w in SPEC["workloads"]:
            events = json.loads((tmp_path / f"trace-{w['name']}-seed0.json").read_text())
            assert events["traceEvents"]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    res = run_bench(["--workload", "offline-lowdim", "--seed", "1", "--seconds", "1",
                     "--trace", "0"], tmp_path, timeout=60)
    assert res.returncode != 0
    assert "correct" not in res.stdout
