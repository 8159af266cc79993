"""Quickstart: build a Random Ball Cover and search it.

Run:  python examples/quickstart.py

Covers the three public entry points in ~60 lines:
  * exhaustive search with the brute-force primitive (the baseline),
  * ``ExactRBC`` — guaranteed-exact search at a fraction of the work,
  * ``OneShotRBC`` — approximate search with a provable success rate.
"""

import numpy as np

from repro import ExactRBC, OneShotRBC, bf_knn
from repro.data import manifold

# A database with low intrinsic dimensionality (3-d structure embedded in
# 20 ambient dimensions) — the regime the RBC is designed for.
pool = manifold(50_200, ambient_dim=20, intrinsic_dim=3, seed=0)
X, Q = pool[:50_000], pool[50_000:]
print(f"database: {X.shape[0]} points in {X.shape[1]} dims, {len(Q)} queries")

# ------------------------------------------------------- brute force
true_dist, true_idx = bf_knn(Q, X, metric="euclidean", k=5)
print(f"\nbrute force: {X.shape[0]} distance evaluations per query")

# ------------------------------------------------------- exact RBC
exact = ExactRBC(metric="euclidean", seed=0)
exact.build(X)  # one BF(X, R) call; n_reps defaults to sqrt(n)
dist, idx = exact.query(Q, k=5)

assert np.allclose(dist, true_dist), "exact search must match brute force"
stats = exact.last_stats
print(
    f"exact RBC:   {stats.per_query_evals():.0f} evaluations per query "
    f"({X.shape[0] / stats.per_query_evals():.1f}x less work), "
    "answers identical"
)
print(
    f"             pruning: {stats.pruned_by_psi / len(Q):.1f} reps/query by the"
    f" psi rule, {stats.pruned_by_3gamma / len(Q):.1f} by the owner bound"
)

# ------------------------------------------------------- one-shot RBC
# Theorem 2 parameters: exact answer with probability >= 1 - delta.
oneshot = OneShotRBC(metric="euclidean", seed=0)
oneshot.build(X, delta=0.05, c=2.0)
dist1, idx1 = oneshot.query(Q, k=5)

agreement = float(np.isclose(dist1[:, 0], true_dist[:, 0]).mean())
print(
    f"one-shot:    {oneshot.last_stats.per_query_evals():.0f} evaluations per "
    f"query, found the true NN for {agreement:.0%} of queries "
    f"(guarantee: >= 95%)"
)
