"""Shared fixtures for the test suite."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.runtime.autotune as autotune_mod


@pytest.fixture
def pin_plan(monkeypatch):
    """``pin_plan(strategy)`` pins the autotuner's flat/grouped pick, so a
    quantized index runs the scan a test names whatever the cost model
    would choose for the test's data."""

    def pin(strategy: str) -> None:
        class Pinned(autotune_mod.Autotuner):
            def plan_for(self, *args, **kwargs):
                plan = super().plan_for(*args, **kwargs)
                return dataclasses.replace(plan, strategy=strategy)

        monkeypatch.setattr(autotune_mod, "default_autotuner", Pinned())

    return pin


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_vectors(rng) -> tuple[np.ndarray, np.ndarray]:
    """A small (X, Q) pair of generic float vectors."""
    X = rng.normal(size=(400, 7))
    Q = rng.normal(size=(25, 7))
    return X, Q


@pytest.fixture
def clustered(rng) -> tuple[np.ndarray, np.ndarray]:
    """Clustered data where pruning is effective: (X, Q) from one pool."""
    from repro.data import manifold

    full = manifold(3100, 16, 3, seed=7)
    return full[:3000], full[3000:3050]
