"""repro — Random Ball Cover nearest-neighbor search on manycore systems.

A faithful, laptop-runnable reproduction of L. Cayton, *Accelerating
Nearest Neighbor Search on Manycore Systems* (IPPS 2012 / arXiv:1103.2635):
the Random Ball Cover data structure with its one-shot and exact search
algorithms, the brute-force primitive they factor into, baselines (brute
force, Cover Tree, kd-tree, ball tree), machine models that stand in for
the paper's 48-core server and Tesla GPU, and the full evaluation suite.

Quick start::

    import numpy as np
    from repro import ExactRBC, OneShotRBC

    X = np.random.default_rng(0).normal(size=(50_000, 32))
    Q = np.random.default_rng(1).normal(size=(100, 32))

    exact = ExactRBC(metric="euclidean", seed=0).build(X)
    dist, idx = exact.query(Q, k=5)          # guaranteed exact

    fast = OneShotRBC(seed=0).build(X, n_reps=600, s=600)
    dist, idx = fast.query(Q, k=5)           # fast, high-probability

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from .baselines import BallTree, BruteForceIndex, CoverTree, KDTree
from .core import ExactRBC, OneShotRBC, oneshot_params, standard_n_reps
from .index import (
    BufferKDTree,
    Capabilities,
    Index,
    RPForest,
    Router,
    UnsupportedCapability,
    available_indexes,
    capabilities_of,
    create_index,
)
from .metrics import available_metrics, get_metric
from .obs import MetricsRegistry, SLOMonitor, Tracer
from .parallel import bf_knn, bf_nn, bf_range
from .runtime import ExecContext, RunReport, StreamReport
from .serving import (
    BatchPolicy,
    ShardedStreamingSearcher,
    StreamingSearcher,
)

__version__ = "1.0.0"

__all__ = [
    "BallTree",
    "BatchPolicy",
    "BruteForceIndex",
    "BufferKDTree",
    "Capabilities",
    "CoverTree",
    "Index",
    "KDTree",
    "RPForest",
    "Router",
    "UnsupportedCapability",
    "available_indexes",
    "capabilities_of",
    "create_index",
    "ExactRBC",
    "ExecContext",
    "MetricsRegistry",
    "OneShotRBC",
    "RunReport",
    "SLOMonitor",
    "ShardedStreamingSearcher",
    "StreamingSearcher",
    "StreamReport",
    "Tracer",
    "oneshot_params",
    "standard_n_reps",
    "available_metrics",
    "get_metric",
    "bf_knn",
    "bf_nn",
    "bf_range",
    "__version__",
]
