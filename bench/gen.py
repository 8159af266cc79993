"""Workload inputs, generated from a seed by code that lives in ``bench/``.

Nothing here imports ``repro``: a change under ``src/`` cannot change what
a workload measures.  The program under test receives only the arrays made
here.

* :func:`tiny8` ports the paper-analog ``tiny8`` generator (Table 1): 16x16
  patches of smooth random image fields, reduced to 8 dimensions by a
  Johnson-Lindenstrauss projection.  Patches repeat (64 fields x 48x48
  positions), so the data has exact duplicates and therefore distance ties.
* :func:`gaussian` is i.i.d. standard normal data, where intrinsic and
  ambient dimension coincide and the RBC pruning rules cannot pay.
* :func:`arrivals` makes open-loop arrival times: a Poisson process.
* :func:`uniform_queries` and :func:`hotkey_queries` pick what each request
  asks: pool rows drawn uniformly, or Zipf-skewed over a few hot
  prototypes (a port of the zipfian scenario).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

__all__ = [
    "tiny8",
    "gaussian",
    "split",
    "arrivals",
    "uniform_queries",
    "hotkey_queries",
    "write_mask",
    "checksum",
]


#: seed of the tiny8 corpus: the image fields and the projection map
TINY8_WORLD = 0


def tiny8(n_rows: int, seed: int, *, dim: int = 8, patch: int = 16,
          n_fields: int = 64) -> np.ndarray:
    """``n_rows`` image-patch descriptors projected to ``dim`` dimensions.

    The corpus is fixed, as a real image collection is: the fields come
    from ``TINY8_WORLD`` and the projection map from ``TINY8_WORLD + 1``,
    drawn as ``repro.data``'s ``image_patches`` and ``random_projection``
    draw them.  ``seed`` chooses which
    patches (field and position) are sampled, so runs with different
    seeds see different samples of one dataset rather than different
    datasets.  Patches are gathered and projected in chunks so the
    ``(n_rows, patch**2)`` raw matrix never exists at once.
    """
    world = np.random.default_rng(TINY8_WORLD)
    size = 4 * patch
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64) / size
    fields = np.zeros((n_fields, size, size))
    for f in range(n_fields):
        for _ in range(6):  # a few random low-frequency waves per field
            fx, fy = world.uniform(0.5, 3.0, size=2)
            ph = world.uniform(0, 2 * np.pi)
            amp = world.uniform(0.3, 1.0)
            fields[f] += amp * np.sin(2 * np.pi * (fx * xx + fy * yy) + ph)
    rng = np.random.default_rng(seed)
    field_of = rng.integers(n_fields, size=n_rows)
    pos = rng.integers(0, size - patch, size=(n_rows, 2))
    proj = np.random.default_rng(TINY8_WORLD + 1).normal(size=(patch * patch, dim))
    proj /= np.sqrt(dim)
    off = np.arange(patch)
    out = np.empty((n_rows, dim))
    for lo in range(0, n_rows, 8192):
        hi = min(lo + 8192, n_rows)
        rows = pos[lo:hi, 0, None, None] + off[None, :, None]
        cols = pos[lo:hi, 1, None, None] + off[None, None, :]
        raw = fields[field_of[lo:hi, None, None], rows, cols]
        out[lo:hi] = raw.reshape(hi - lo, -1) @ proj
    return out


def gaussian(n_rows: int, seed: int, *, dim: int = 16) -> np.ndarray:
    """``n_rows`` i.i.d. standard normal points in ``dim`` dimensions."""
    return np.random.default_rng(seed).normal(size=(n_rows, dim))


def split(full: np.ndarray, sizes: list[int], seed: int) -> list[np.ndarray]:
    """Disjoint random row subsets of ``full`` with the given sizes
    (database first, then held-out query pools)."""
    perm = np.random.default_rng(seed + 999).permutation(full.shape[0])
    out, lo = [], 0
    for size in sizes:
        out.append(full[perm[lo : lo + size]])
        lo += size
    return out


def arrivals(rate: float, duration: float, seed) -> np.ndarray:
    """Arrival offsets of a Poisson process at ``rate`` over ``[0, duration)``."""
    rng = np.random.default_rng(seed)
    due = np.cumsum(rng.exponential(1.0 / rate, size=int(rate * duration * 1.5) + 64))
    while due[-1] < duration:
        due = np.concatenate([due, due[-1] + np.cumsum(rng.exponential(1.0 / rate, size=due.size))])
    return due[due < duration]


def uniform_queries(pool: np.ndarray, n: int, seed) -> np.ndarray:
    """``n`` queries drawn uniformly from the pool."""
    return pool[np.random.default_rng(seed).integers(0, pool.shape[0], size=n)]


def hotkey_queries(
    pool: np.ndarray,
    n: int,
    seed,
    *,
    n_hot: int = 32,
    alpha: float = 1.1,
    exact_frac: float = 0.5,
    jitter: float = 1e-4,
    background_frac: float = 0.2,
) -> np.ndarray:
    """``n`` queries of Zipf hot-key traffic.

    ``1 - background_frac`` of requests ask one of ``n_hot`` prototypes,
    chosen with Zipf(``alpha``) popularity; of those, ``exact_frac`` are
    byte-exact repeats and the rest carry Gaussian ``jitter``.  The
    background requests are uniform pool rows.
    """
    rng = np.random.default_rng(seed)
    p = np.arange(1, n_hot + 1, dtype=np.float64) ** (-float(alpha))
    p /= p.sum()
    protos = pool[rng.integers(0, pool.shape[0], size=n_hot)]
    queries = protos[rng.choice(n_hot, size=n, p=p)].copy()
    u = rng.random(n)
    background = u < background_frac
    jittered = ~background & (u >= background_frac + (1.0 - background_frac) * exact_frac)
    queries[jittered] += rng.normal(scale=jitter, size=(int(jittered.sum()), pool.shape[1]))
    queries[background] = pool[rng.integers(0, pool.shape[0], size=int(background.sum()))]
    return queries


def write_mask(n: int, every: int, seed) -> np.ndarray:
    """Boolean mask marking every ``every``-th request (random phase) as a
    write, so a window holds a fixed share of writes rather than a random
    count."""
    phase = int(np.random.default_rng(seed).integers(every))
    return (np.arange(n) % every) == phase


def checksum(arr: np.ndarray) -> str:
    """Short digest of an array's shape and rounded content.

    Rounding to 6 significant digits absorbs last-bit differences between
    BLAS builds in the projection, and still moves with any change of the
    generator's draws or arithmetic.
    """
    a = np.asarray(arr, dtype=np.float64)
    summary = {
        "shape": list(a.shape),
        "col_sum": [float(f"{v:.6g}") for v in a.sum(axis=0).ravel()],
        "col_sumsq": [float(f"{v:.6g}") for v in (a * a).sum(axis=0).ravel()],
        "head": [float(f"{v:.6g}") for v in a[:3].ravel()],
    }
    return hashlib.sha256(json.dumps(summary).encode()).hexdigest()[:16]
