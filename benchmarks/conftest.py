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

import pathlib

import numpy as np
import pytest

import repro.runtime.autotune as autotune_mod

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(autouse=True)
def _memory_tuner(monkeypatch):
    """Keep autotuner plans in-memory so benchmarks never touch ~/.cache."""
    monkeypatch.setattr(
        autotune_mod, "default_autotuner", autotune_mod.Autotuner(persist=False)
    )


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


def bench_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
