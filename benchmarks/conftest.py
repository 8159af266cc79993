"""Shared fixtures and helpers for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper (see the
experiment index in DESIGN.md §3).  Output conventions:

* each benchmark prints its table and writes it to ``benchmarks/out/``;
* timing uses ``benchmark.pedantic(..., rounds=1)`` — an experiment is a
  one-shot measurement, not a microbenchmark to be repeated;
* algorithmic comparisons (who wins, by what factor) are made on distance
  evaluations and machine-model times, which are deterministic — not on
  the host's wall clock.
"""

from __future__ import annotations

import os
import pathlib
import platform

import numpy as np
import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def out_dir() -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture
def report(out_dir):
    """Returns a function that prints a table and persists it to out/."""

    def _report(name: str, text: str) -> None:
        print("\n" + text)
        (out_dir / f"{name}.txt").write_text(text + "\n")

    return _report


def host_stamp() -> dict:
    """Facts about the host a BENCH file was recorded on, as ``bench/``
    stamps its results: wall-clock numbers only compare on equal facts."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # no dict form before numpy 1.25
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def bench_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
