"""The Random Ball Cover data structure (paper §4).

The RBC is a single-level cover of a metric space: a random subset ``R`` of
the database acts as representatives, each representative ``r`` owns a list
``L_r`` of database points, and stores the radius ``psi_r`` of that list
(the distance to the furthest owned point).  The two search algorithms use
slightly different ownership rules:

* **exact** build (:class:`~repro.core.exact.ExactRBC`): each database
  point joins the list of its *nearest representative* — one ``BF(X, R)``;
* **one-shot** build (:class:`~repro.core.oneshot.OneShotRBC`): each
  representative owns its ``s`` *nearest database points* — one
  ``BF(R, X)`` — so lists typically overlap.

Both builds are single calls of the brute-force primitive, which is the
whole point: construction parallelizes exactly like the searches do.

This module holds the shared machinery: representative sampling, list
storage (sorted by distance-to-representative, enabling the Claim-2 trim),
and radii.
"""

from __future__ import annotations

import numpy as np

from ..index.protocol import Capabilities, Index
from ..metrics import get_metric
from ..metrics.base import Metric, VectorMetric
from ..metrics.engine import operand_cache
from ..metrics.quantize import supports_quantization
from ..parallel.pool import Executor
from ..runtime.context import ExecContext, resolve_ctx
from ..simulator.trace import NULL_RECORDER, TraceRecorder
from .packed import PackedLists
from .stats import BuildStats, SearchStats

__all__ = ["RBCBase", "sample_representatives"]


def sample_representatives(
    n: int,
    n_reps: int,
    rng: np.random.Generator,
    *,
    scheme: str = "bernoulli",
) -> np.ndarray:
    """Choose representative ids from ``range(n)``.

    ``scheme="bernoulli"`` follows the paper exactly: each point is chosen
    independently with probability ``n_reps / n`` (so the count is random
    with mean ``n_reps``; the theory's geometric-distribution argument in
    Claim 1 relies on this independence).  ``scheme="exact"`` draws exactly
    ``n_reps`` without replacement — handy when reproducible sizes matter
    more than the letter of the analysis.
    """
    if not 1 <= n_reps <= n:
        raise ValueError(f"need 1 <= n_reps <= n, got n_reps={n_reps}, n={n}")
    if scheme == "bernoulli":
        mask = rng.random(n) < (n_reps / n)
        ids = np.flatnonzero(mask)
        if ids.size == 0:  # resample guard: an empty R is never usable
            ids = rng.choice(n, size=1, replace=False)
        return ids.astype(np.int64)
    if scheme == "exact":
        return np.sort(rng.choice(n, size=n_reps, replace=False)).astype(np.int64)
    raise ValueError(f"unknown sampling scheme {scheme!r}")


class RBCBase(Index):
    """State and helpers shared by the two RBC search structures.

    Parameters
    ----------
    metric:
        metric name or :class:`~repro.metrics.base.Metric` instance.
    seed:
        seed (or Generator) for representative sampling; builds are
        deterministic given the seed.
    executor:
        executor spec forwarded to the brute-force calls.
    rep_scheme:
        ``"bernoulli"`` (paper) or ``"exact"`` representative sampling.
    engine:
        enable the prepared-operand kernel engine (cached norms, packed
        candidate gathers).  On by default for vector databases; disable
        to force the straightforward gather-per-call formulation.  Both
        compute in float64, the one compute precision.
    """

    def __init__(
        self,
        metric: str | Metric = "euclidean",
        *,
        seed: int | np.random.Generator | None = 0,
        executor: str | Executor | None = None,
        rep_scheme: str = "bernoulli",
        engine: bool = True,
    ) -> None:
        self.metric = get_metric(metric)
        self.rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )
        self.executor = executor
        self.rep_scheme = rep_scheme
        self.engine = bool(engine)

        # populated by build()
        self.X = None
        self.n: int = 0
        #: liveness per database row; deletions tombstone rows so global
        #: ids stay stable (None until the first update touches it)
        self._active: np.ndarray | None = None
        self.rep_ids: np.ndarray | None = None
        self.rep_data = None
        #: packed ownership lists (ids + distances + offsets); the
        #: ``lists``/``list_dists`` properties expose per-list views
        self._packed: PackedLists | None = None
        #: psi_r = max_{x in L_r} rho(x, r)
        self.radii: np.ndarray | None = None
        self.build_stats: BuildStats | None = None
        self.last_stats: SearchStats | None = None

        #: database append buffer: ``X`` is a length-``n`` view of it once
        #: the first insert over-allocates (capacity/length split)
        self._X_buf: np.ndarray | None = None
        #: version stamp for the prepared-operand caches; bumped by every
        #: build and dynamic update so stale norms can never be served
        self._version: int = 0
        #: per-structure prepared operands: name -> (version, Prepared)
        self._prep: dict = {}

    # ------------------------------------------------------------- helpers
    @property
    def is_built(self) -> bool:
        return self.rep_ids is not None

    @property
    def lists(self):
        """Per-representative arrays of owned global ids, ascending by
        distance to the representative (contiguous views into the packed
        storage)."""
        return [] if self._packed is None else self._packed.id_views

    @property
    def list_dists(self):
        """Distances aligned with ``lists`` (contiguous views)."""
        return [] if self._packed is None else self._packed.dist_views

    @property
    def packed(self) -> PackedLists | None:
        """The underlying CSR-style list storage."""
        return self._packed

    @property
    def n_reps(self) -> int:
        self._require_built()
        return int(self.rep_ids.size)

    def _require_built(self) -> None:
        if not self.is_built:
            raise RuntimeError("call build(X) before querying")

    def _require_true_metric(self, why: str) -> None:
        if not getattr(self.metric, "is_true_metric", True):
            raise ValueError(
                f"{type(self.metric).__name__} does not satisfy the triangle "
                f"inequality, which {why} requires"
            )

    def _validate_input(self, X) -> None:
        """Run the metric's dataset validation (e.g. finiteness) if any."""
        validate = getattr(self.metric, "validate", None)
        if validate is not None and isinstance(X, np.ndarray):
            validate(X)

    def _finish_build(
        self,
        X,
        rep_ids: np.ndarray,
        lists: list[np.ndarray],
        list_dists: list[np.ndarray],
        build_evals: int,
    ) -> None:
        self.X = X
        self._X_buf = None
        self.n = self.metric.length(X)
        self.rep_ids = rep_ids
        self.rep_data = self.metric.take(X, rep_ids)
        self._packed = PackedLists(lists, list_dists)
        self.radii = np.array(
            [d[-1] if len(d) else 0.0 for d in list_dists], dtype=np.float64
        )
        self.build_stats = BuildStats(
            n_points=self.n,
            n_reps=int(rep_ids.size),
            build_evals=build_evals,
            list_sizes=[len(lst) for lst in lists],
        )
        self._bump_version()

    # ------------------------------------------------------- kernel engine
    #: refined per-structure by the subclasses (one-shot is approximate
    #: and scans no codes, exact supports range queries);
    #: ``quantizable``/``rescorable`` are resolved against the configured
    #: metric in :meth:`capabilities`.
    CAPS = Capabilities(
        exact=True,
        range_queries=False,
        mutable=True,
        process_safe=True,
        quantizable=True,
        rescorable=True,
        warmable=True,
    )

    def capabilities(self) -> Capabilities:
        return self.CAPS.replace(
            quantizable=self.CAPS.quantizable
            and supports_quantization(self.metric),
            rescorable=self.CAPS.rescorable and self._rescorable_now(),
        )

    def _bump_version(self) -> None:
        """Invalidate every prepared operand derived from the index state."""
        self._version += 1
        self._prep.clear()

    def warm(self, ctx: ExecContext | None = None) -> "RBCBase":
        """Pre-populate the per-version caches the query hot path fills
        lazily (prepared representatives and candidate matrix), so a
        serving front-end pays the one-time preparation cost before the
        first query arrives instead of inside its latency budget.
        Idempotent; invalidated like everything else by the next
        build/insert/delete.  Subclasses extend this with their own
        derived structures."""
        self._require_built()
        ctx = self._base_ctx() if ctx is None else ctx.overriding(self._base_ctx())
        if self._engine_active(ctx):
            self._prepared_reps()
            self._prepared_cands()
        return self

    # ---------------------------------------------------- execution context
    def _base_ctx(self) -> ExecContext:
        """The index's own configuration as an execution context: the
        fallback every per-call context merges over."""
        return ExecContext(executor=self.executor)

    def _call_ctx(
        self,
        ctx: ExecContext | None,
        *,
        recorder: TraceRecorder | None = None,
        executor=None,
    ) -> ExecContext:
        """Resolve one call's execution context.

        Merge order (first set wins): explicit ``ctx`` fields, then the
        legacy per-call kwargs, then the index configuration — so
        ``query(..., recorder=r)`` and ``query(..., ctx=ExecContext(
        recorder=r))`` are the same run.
        """
        call = resolve_ctx(ctx, recorder=recorder, executor=executor)
        return call.overriding(self._base_ctx())

    def _engine_active(self, ctx: ExecContext | None = None) -> bool:
        """Whether the prepared-operand kernels run: the index's ``engine``
        switch is on, the metric is a vector metric over an ndarray
        database, and the run is not on the process backend (workers own
        their operand copies, so there is nothing to share)."""
        ctx = self._base_ctx() if ctx is None else ctx
        return (
            self.engine
            and isinstance(self.metric, VectorMetric)
            and isinstance(self.X, np.ndarray)
            and not ctx.uses_processes
        )

    def _prepared_reps(self):
        """Prepared representative block (cached until the next update)."""
        ent = self._prep.get("reps")
        if ent is None:
            ent = operand_cache.get(
                self.metric, self.rep_data, version=self._version
            )
            self._prep["reps"] = ent
        return ent

    def _prepared_cands(self):
        """Prepared pre-gathered candidate matrix, aligned with the packed
        list storage: backing row ``t`` holds the database point
        ``packed.ids[t]``, so every stage-2 list prefix is a contiguous
        slice of compute-ready rows (slack rows are zero-filled)."""
        ent = self._prep.get("cands")
        if ent is None:
            packed = self._packed
            # clip slack/stale ids into range: those rows are never read
            safe_ids = np.clip(packed.ids, 0, self.n - 1)
            for j in range(packed.n_lists):
                lo, hi = packed.span(j)
                safe_ids[hi : packed.starts[j + 1]] = 0
            gathered = self.X[safe_ids]
            ent = operand_cache.get(
                self.metric, gathered, version=self._version
            )
            # keep the gathered matrix alive alongside its prepared form
            # (the cache holds only a weak reference to it)
            self._prep["cands"] = ent
            self._prep["cands_src"] = gathered
        return ent

    # ------------------------------------------------------ dynamic updates
    @property
    def active_ids(self) -> np.ndarray:
        """Global ids of live (non-deleted) database points."""
        self._require_built()
        if self._active is None:
            return np.arange(self.n, dtype=np.int64)
        return np.flatnonzero(self._active).astype(np.int64)

    @property
    def n_active(self) -> int:
        self._require_built()
        if self._active is None:
            return self.n
        return int(self._active.sum())

    def _require_vector_db(self, what: str) -> None:
        if not isinstance(self.X, np.ndarray):
            raise ValueError(f"{what} requires an ndarray database")

    def _append_point(self, x) -> int:
        """Append a row to the database; returns its global id.

        Amortized O(1): the database lives in an over-allocated append
        buffer (capacity/length split, doubled geometrically) and ``X`` is
        a length-``n`` view of it, so most appends are a single row copy.
        """
        x = np.asarray(x, dtype=np.float64).reshape(1, -1)
        if x.shape[1] != self.X.shape[1]:
            raise ValueError(
                f"dimension mismatch: point has d={x.shape[1]}, "
                f"database has d={self.X.shape[1]}"
            )
        if self._X_buf is None or self.n + 1 > self._X_buf.shape[0]:
            cap = max(self.n + 1, 2 * self.n, 8)
            buf = np.empty((cap, self.X.shape[1]), dtype=np.float64)
            buf[: self.n] = self.X
            self._X_buf = buf
        self._X_buf[self.n] = x[0]
        self.n += 1
        self.X = self._X_buf[: self.n]
        if self._active is None:
            self._active = np.ones(self.n - 1, dtype=bool)
        self._active = np.append(self._active, True)
        self._bump_version()
        return self.n - 1

    def _tombstone(self, gid: int) -> None:
        if self._active is None:
            self._active = np.ones(self.n, dtype=bool)
        if not 0 <= gid < self.n or not self._active[gid]:
            raise ValueError(f"point {gid} does not exist or is deleted")
        self._active[gid] = False
        self._bump_version()

    def memory_footprint(self) -> int:
        """Approximate bytes held by the cover: ids + distances + radii,
        counting *allocated capacity* (packed-list slack and the database
        append buffer's tail included), not just live entries."""
        self._require_built()
        total = self.rep_ids.nbytes + self.radii.nbytes
        if self._packed is not None:
            total += self._packed.nbytes
        if self._X_buf is not None and isinstance(self.X, np.ndarray):
            # slack rows beyond the live view
            total += (self._X_buf.shape[0] - self.n) * self.X.itemsize * (
                self.X.shape[1] if self.X.ndim == 2 else 1
            )
        for key, val in self._prep.items():
            if key == "cands_src" or (
                isinstance(key, tuple) and key[0] == "quant"
            ):
                total += val.nbytes
        return total

    # ------------------------------------------------------------ interface
    def build(
        self,
        X,
        n_reps: int | None = None,
        *,
        recorder: TraceRecorder = NULL_RECORDER,
        ctx: ExecContext | None = None,
    ) -> "RBCBase":
        raise NotImplementedError

    def query(
        self,
        Q,
        k: int = 1,
        *,
        recorder: TraceRecorder = NULL_RECORDER,
        ctx: ExecContext | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            f"n={self.n}, n_reps={self.rep_ids.size}" if self.is_built else "unbuilt"
        )
        return f"{type(self).__name__}({self.metric.name}, {state})"
