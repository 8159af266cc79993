"""The CI bench-regression gate refuses implausible wins.

``benchmarks/check_regression.py`` is a script, not a package module, so
the test loads it by path.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "check_regression.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_regression", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cluster(scaling: float) -> dict:
    nodes = [
        {"n_shards": s, "throughput_qps": 100.0 * s, "speedup": float(s)}
        for s in (1, 2, 4)
    ]
    return {"scaling": scaling, "nodes": nodes}


def _serving(speedup: float, mean_batch: float) -> dict:
    return {
        "speedup": speedup,
        "batched": {"throughput_qps": 1000.0, "mean_batch": mean_batch},
    }


def _write(tmp_path: Path, sub: str, name: str, payload: dict) -> Path:
    path = tmp_path / sub / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload))
    return path


def test_scaling_above_shard_count_is_implausible(gate, tmp_path):
    ok = _write(tmp_path, "a", "BENCH_cluster.json", _cluster(3.9))
    bad = _write(tmp_path, "b", "BENCH_cluster.json", _cluster(9.9))
    assert gate.implausible(ok) == []
    (line,) = gate.implausible(bad)
    assert "9.900" in line and "4.000" in line


def test_speedup_above_mean_batch_is_implausible(gate, tmp_path):
    ok = _write(tmp_path, "a", "BENCH_serving.json", _serving(13.4, 46.5))
    bad = _write(tmp_path, "b", "BENCH_serving.json", _serving(50.0, 36.6))
    assert gate.implausible(ok) == []
    assert len(gate.implausible(bad)) == 1


def test_gate_fails_on_an_implausible_baseline(gate, tmp_path):
    # the fresh run is plausible; the committed baseline is not
    base = _write(tmp_path, "base", "BENCH_cluster.json", _cluster(9.9))
    fresh = _write(tmp_path, "fresh", "BENCH_cluster.json", _cluster(3.0))
    argv = ["--baseline", str(base), "--fresh", str(fresh), "--tolerance", "0.9"]
    assert gate.main(argv) == 1
    base.write_text(json.dumps(_cluster(3.0)))
    assert gate.main(argv) == 0


def test_files_without_a_ceiling_pass(gate, tmp_path):
    path = _write(tmp_path, "a", "BENCH_router.json", {"mixed": {}})
    assert gate.implausible(path) == []
