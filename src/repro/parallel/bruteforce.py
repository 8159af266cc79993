"""The brute-force primitive ``BF(Q, X[L])`` (paper §3).

Everything in this package — RBC build, one-shot search, exact search — is
structured as calls to this primitive, because its two steps parallelize
like dense linear algebra:

1. **distance step** — all pairwise distances, computed tile-by-tile with
   the block decomposition of :mod:`repro.parallel.blocking` (matmul-like
   structure);
2. **comparison step** — per-query nearest (or k-nearest) selection, done as
   per-tile top-k selections merged through the inverted-binary-tree reduce
   of :mod:`repro.parallel.reduce`.

Row chunks and tiles are mapped over an :class:`~repro.parallel.pool.Executor`,
and every tile/merge is optionally recorded into a
:class:`~repro.simulator.trace.TraceRecorder` so the machine models can
replay the exact work performed.  Both, and the chunk sizes, are carried
by the one per-call argument ``ctx=``, an
:class:`~repro.runtime.context.ExecContext`.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..metrics import get_metric
from ..metrics.base import Metric, VectorMetric
from ..metrics.engine import Prepared, prepare_operands
from ..obs.tracing import NULL_TRACER, SpanContext, Tracer
from ..runtime.context import ExecContext, resolve_ctx
from ..simulator.trace import NULL_RECORDER, Op, TraceRecorder
from .blocking import choose_tile_cols, row_chunks
from .pool import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    SharedArray,
    get_executor,
    operand_store,
)
from .reduce import EMPTY_IDX, merge_topk, topk_of_block, tree_reduce
from .scheduler import plan_row_chunks

__all__ = [
    "bf_knn",
    "bf_nn",
    "bf_range",
    "bf_knn_processes",
    "register_resident_operands",
]

#: queries per row chunk; chunks are the unit mapped over the executor
_DEFAULT_ROW_CHUNK = 512


#: rows per recorded sub-op: the schedulable grain of a distance tile.
#: A dense tile is itself data-parallel (it is a GEMM), so the machine
#: models see it as independent row-band ops; the database slab's memory
#: traffic is amortized across the bands, which share it through the cache.
_RECORD_SUB_ROWS = 32


def _record_dist_tile(
    recorder: TraceRecorder,
    metric: Metric,
    rows: int,
    cols: int,
    dim: int,
    tag: str,
) -> None:
    if not recorder.enabled or rows <= 0 or cols <= 0:
        return
    fpe = metric.flops_per_eval(dim)
    # float64 operands: 8 bytes per element moved
    slab_bytes = 8.0 * cols * dim  # database slab, streamed once per tile
    done = 0
    while done < rows:
        r = min(_RECORD_SUB_ROWS, rows - done)
        recorder.record(
            Op(
                kind="gemm",
                flops=r * cols * fpe,
                bytes=8.0 * (r * dim + r * cols) + slab_bytes * (r / rows),
                vectorizable=True,
                tag=tag,
            )
        )
        done += r


def _record_select(
    recorder: TraceRecorder,
    rows: int,
    cols: int,
    tag: str,
) -> None:
    # the selection streams the (rows, cols) float64 distance block once
    if not recorder.enabled or rows <= 0 or cols <= 0:
        return
    recorder.record(
        Op(
            kind="reduce",
            flops=float(rows * cols),
            bytes=8.0 * rows * cols,
            vectorizable=True,
            tag=tag,
        )
    )


def _merge_candidates(
    candidates: list,
    m: int,
    k: int,
    recorder: TraceRecorder,
    tag: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Tree-merge per-tile top-k candidate blocks (recorded)."""
    if len(candidates) == 1:
        return candidates[0]
    with recorder.phase(f"{tag}:merge"):

        def merge(a, b):
            if recorder.enabled:
                # each merge reads two (m, k) candidate blocks: float64
                # distances plus int64 ids
                recorder.record(
                    Op(
                        kind="reduce",
                        flops=4.0 * m * k,
                        bytes=2.0 * m * k * 16.0,
                        vectorizable=True,
                        tag=f"{tag}:merge",
                    )
                )
            return merge_topk(a, b)

        return tree_reduce(candidates, merge)


def _knn_one_chunk(
    metric: Metric,
    Qc,
    X,
    k: int,
    tile_cols: int,
    recorder: TraceRecorder,
    dim: int,
    tag: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k for one row chunk of queries: tiles then tree-merge."""
    n = metric.length(X)
    m = metric.length(Qc)
    candidates = []
    with recorder.phase(f"{tag}:dist+select"):
        for lo, hi in row_chunks(n, tile_cols):
            Xt = metric.take(X, np.arange(lo, hi)) if (lo, hi) != (0, n) else X
            D = metric.pairwise(Qc, Xt)
            _record_dist_tile(recorder, metric, m, hi - lo, dim, tag)
            candidates.append(topk_of_block(D, k, col_offset=lo))
            _record_select(recorder, m, hi - lo, tag)
    return _merge_candidates(candidates, m, k, recorder, tag)


def _knn_one_chunk_prepared(
    metric: VectorMetric,
    Qp,
    Xp,
    k: int,
    tile_cols: int,
    recorder: TraceRecorder,
    dim: int,
    tag: str,
    squared: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Engine variant of :func:`_knn_one_chunk` over prepared operands.

    Tiles are contiguous *views* of the prepared database (no gathers, no
    norm recomputation) and, for ``squared_ok`` metrics, distances stay in
    the squared domain — same ranking, so the elementwise root is deferred
    to the ``(m, k)`` result instead of the ``(m, n)`` block.
    """
    n = len(Xp)
    m = len(Qp)
    candidates = []
    with recorder.phase(f"{tag}:dist+select"):
        for lo, hi in row_chunks(n, tile_cols):
            Xt = Xp.slice(lo, hi) if (lo, hi) != (0, n) else Xp
            D = metric.pairwise_prepared(Qp, Xt, squared=squared)
            _record_dist_tile(recorder, metric, m, hi - lo, dim, tag)
            candidates.append(topk_of_block(D, k, col_offset=lo))
            _record_select(recorder, m, hi - lo, tag)
    return _merge_candidates(candidates, m, k, recorder, tag)


def bf_knn(
    Q,
    X,
    metric: str | Metric = "euclidean",
    k: int = 1,
    *,
    ids: np.ndarray | None = None,
    x_prepared=None,
    quantizer: str | None = None,
    ctx: ExecContext | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """k nearest neighbors of each query by exhaustive search.

    Parameters
    ----------
    Q, X:
        query set and database, in whatever form ``metric`` understands
        (``(m, d)`` / ``(n, d)`` arrays for vector metrics).
    metric:
        metric name or instance.
    k:
        neighbors per query.
    ids:
        optional integer id list ``L``; restricts the search to ``X[L]``
        (the paper's ``BF(Q, X[L])``) and reports *global* indices into X.
    x_prepared:
        optional :class:`~repro.metrics.engine.Prepared` form of ``X``
        (vector metrics only, incompatible with ``ids``).  Index structures
        pass their cached operands here so repeated calls against a fixed
        database recompute nothing.
    quantizer:
        the reduced-precision path: run the scan on compressed codes —
        ``"int8"``, ``"float16"`` or ``"pq"`` — with a certified float64
        re-rank, so the answer ids match the float64 search exactly (see
        :mod:`repro.metrics.quantize`).  Vector metrics with a
        ``gram``/``angular`` kernel only; in-process backends only
        (``executor="processes"`` raises — workers own plain float
        copies).  Without it every distance is computed in float64.
    ctx:
        optional :class:`~repro.runtime.context.ExecContext`: the
        executor row chunks are mapped over (``None``/``"serial"``,
        ``"threads"``, ``"processes"`` or an :class:`Executor`), the
        trace recorder for the machine models, ``row_chunk`` and
        ``tile_cols`` (database columns per tile, auto-sized to ~8 MB of
        operands if unset).  The process backend runs in worker processes
        (shared-memory operands for vector metrics, pickled chunks
        otherwise), so it requires a metric the workers can rebuild from
        the registry by name — a name string or a default-constructed
        registry instance; customized instances raise ``TypeError``.
        Distance evaluations then happen in the workers and are credited
        to the caller's counter as one bulk update (``n_evals`` stays
        exact, ``n_calls`` becomes a single call), and tracing is
        unsupported (``ValueError`` if the recorder is enabled).

    Returns
    -------
    (dist, idx):
        ``(m, k)`` arrays, rows sorted ascending.  When fewer than ``k``
        points are available, trailing slots hold ``inf`` / ``-1``.
    """
    ctx = resolve_ctx(ctx)
    recorder = ctx.recorder
    row_chunk = ctx.row_chunk if ctx.row_chunk is not None else _DEFAULT_ROW_CHUNK
    metric_spec = metric
    metric = get_metric(metric)
    if k < 1:
        raise ValueError("k must be >= 1")
    if x_prepared is not None and ids is not None:
        raise ValueError(
            "x_prepared and ids are incompatible: pass a prepared operand "
            "for the restricted set instead"
        )
    Qb = Q if _is_batch(metric, Q) else metric._as_batch(Q)
    m = metric.length(Qb)
    if ids is not None:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return (
                np.full((m, k), np.inf),
                np.full((m, k), EMPTY_IDX, dtype=np.int64),
            )
        X = metric.take(X, ids)
    n = metric.length(X)
    if n == 0:
        raise ValueError("database is empty")
    dim = metric.dim(X)
    tile_cols = ctx.tile_cols or choose_tile_cols(n, dim)

    if quantizer is not None:
        from ..metrics.quantize import (
            check_quantizer,
            quant_search,
            supports_quantization,
        )

        check_quantizer(quantizer)
        if ctx.uses_processes:
            raise ValueError(
                "quantized bf_knn runs in-process (worker processes own "
                "plain float copies); use executor='threads' or 'serial'"
            )
        if not isinstance(metric, VectorMetric) or not supports_quantization(
            metric
        ):
            raise ValueError(
                f"quantizer= needs a vector metric with a 'gram' or "
                f"'angular' prepared kernel; {type(metric).__name__} has "
                f"neither"
            )
        if x_prepared is not None:
            raise ValueError(
                "x_prepared and quantizer are incompatible: the quantized "
                "operand is derived from the raw database"
            )
        from ..metrics.engine import operand_cache

        # key the cache on the caller's array (quantize_prepared coerces
        # via the cached float64 parent); a fresh temporary here would
        # defeat the id()-keyed cache and re-train PQ on every call
        qop = operand_cache.get_quantized(metric, X, quantizer)
        with ctx.span("bf:knn", backend="quant", m=m, n=n, k=k,
                      quantizer=quantizer):
            dist, idx = quant_search(metric, Qb, X, qop, k)[:2]
        if ids is not None:
            mask = idx >= 0
            idx[mask] = ids[idx[mask]]
        return dist, idx

    if ctx.uses_processes:
        # Worker processes cannot unpickle the chunk closure below, so the
        # string spec is routed to module-level workers that rebuild the
        # metric by registry name.
        name = metric_spec if isinstance(metric_spec, str) else _registry_name(metric)
        if recorder.enabled:
            raise ValueError(
                "executor='processes' cannot record traces (the ops happen "
                "in worker processes); use 'threads' or 'serial' when tracing"
            )
        if x_prepared is not None:
            raise ValueError(
                "executor='processes' does not take prepared operands "
                "(workers own their copies); use 'threads' or 'serial'"
            )
        pool = ctx.executor if isinstance(ctx.executor, ProcessExecutor) else None
        with ctx.span("bf:knn", backend="processes", m=m, n=n, k=k):
            if isinstance(metric, VectorMetric):
                # a gathered ids-subset is a fresh array per call:
                # registering it would churn the resident store for zero
                # reuse
                dist, idx = bf_knn_processes(
                    Qb, X, name, k=k, n_workers=ctx.n_workers,
                    row_chunk=row_chunk, tile_cols=tile_cols, executor=pool,
                    resident=ids is None, tracer=ctx.tracer,
                )
            else:
                span_ctx = ctx.tracer.context()
                tasks = [
                    (
                        lo,
                        metric.take(Qb, np.arange(lo, hi)),
                        X, name, k, tile_cols, span_ctx,
                    )
                    for lo, hi in row_chunks(m, row_chunk)
                ]
                if pool is not None:
                    parts = pool.map(_proc_chunk_knn_pickled, tasks)
                else:
                    with get_executor("processes", ctx.n_workers) as ex:
                        parts = ex.map(_proc_chunk_knn_pickled, tasks)
                for p in parts:
                    ctx.tracer.adopt(p[3])
                parts.sort(key=lambda t: t[0])
                dist = np.concatenate([p[1] for p in parts], axis=0)
                idx = np.concatenate([p[2] for p in parts], axis=0)
        # workers evaluate every (q, x) pair; credit the caller's counter in
        # one bulk update so work accounting survives the process boundary
        metric.counter.add(m * n)
        if ids is not None:
            mask = idx >= 0
            idx[mask] = ids[idx[mask]]
        return dist, idx

    if isinstance(metric, VectorMetric):
        # engine path: prepared operands (hoisted coercion + norms) and,
        # for squared_ok metrics, squared-domain selection.  Bit-identical
        # to the plain path.
        if x_prepared is not None:
            Xp = x_prepared
        elif ids is None and isinstance(X, np.ndarray):
            # fixed-database case: route through the process-wide cache so
            # repeated calls prepare X exactly once
            Xp = prepare_operands(metric, X)
        else:
            # transient operand (gathered subset / duck array): prepare
            # directly, don't pollute the cache with one-shot entries
            Xp = metric.prepare(X)
        Qp_full = metric.prepare(Qb)
        squared = metric.squared_ok

        def task(chunk):
            lo, hi = chunk
            Qp = Qp_full.slice(lo, hi) if (lo, hi) != (0, m) else Qp_full
            return _knn_one_chunk_prepared(
                metric, Qp, Xp, k, tile_cols, recorder, dim, "bf", squared
            )

    else:

        def task(chunk):
            lo, hi = chunk
            Qc = metric.take(Qb, np.arange(lo, hi)) if (lo, hi) != (0, m) else Qb
            return _knn_one_chunk(metric, Qc, X, k, tile_cols, recorder, dim, "bf")

    # one preallocated output pair per chunk plan: every task writes its
    # own row slice in place, so the tail-end concatenate (a full extra
    # copy of the result, allocated per call) disappears from the thread
    # and serial backends
    dist = np.full((m, k), np.inf)
    idx = np.full((m, k), EMPTY_IDX, dtype=np.int64)

    tracer = ctx.tracer
    with tracer.span("bf:knn", m=m, n=n, k=k) as bf_span, \
            ctx.executor_scope() as exec_:
        if ctx.row_chunk is None and not isinstance(exec_, SerialExecutor):
            # no explicit chunking: let the scheduler size chunks to the
            # pool (static split for small inputs, dynamic oversubscription
            # for large ones) instead of a fixed one-size row count
            chunks = plan_row_chunks(m, exec_.n_workers)
        else:
            chunks = row_chunks(m, row_chunk)
        bf_span.set(backend=type(exec_).__name__, chunks=len(chunks))

        def traced_task(chunk, _parent=tracer.context()):
            # worker threads start with an empty span stack; parent their
            # chunk spans under the submitting bf:knn span explicitly
            with tracer.span_under(
                _parent, "bf:chunk", lo=chunk[0], hi=chunk[1]
            ):
                return task(chunk)

        run = task if not tracer.enabled else traced_task

        def run_into(chunk):
            d, i = run(chunk)
            lo, hi = chunk
            dist[lo:hi] = d
            idx[lo:hi] = i

        if len(chunks) == 1 or isinstance(exec_, SerialExecutor):
            for c in chunks:
                run_into(c)
        else:
            exec_.map(run_into, chunks)

    if isinstance(metric, VectorMetric) and squared:
        dist = metric.from_squared(dist)
    if ids is not None:
        mask = idx >= 0
        idx[mask] = ids[idx[mask]]
    return dist, idx


def _is_batch(metric: Metric, Q) -> bool:
    """Heuristic: is Q already a batch (vs a single point)?"""
    if isinstance(Q, np.ndarray):
        return Q.ndim >= 2 or not np.issubdtype(Q.dtype, np.floating)
    if isinstance(Q, str):
        return False
    return True


def bf_nn(
    Q,
    X,
    metric: str | Metric = "euclidean",
    *,
    ctx: ExecContext | None = None,
    **kwargs,
) -> tuple[np.ndarray, np.ndarray]:
    """1-NN convenience wrapper: returns ``(m,)`` distance and index arrays."""
    dist, idx = bf_knn(Q, X, metric, k=1, ctx=ctx, **kwargs)
    return dist[:, 0], idx[:, 0]


def bf_range(
    Q,
    X,
    eps: float,
    metric: str | Metric = "euclidean",
    *,
    ids: np.ndarray | None = None,
    ctx: ExecContext | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """ε-range search: all database points within distance ``eps`` of each
    query.  Returns, per query, ``(dist, idx)`` sorted by distance.

    ``ctx`` carries the recorder and tile sizing.  The scan itself is a
    single pass, so the context's executor is not consulted here.
    """
    ctx = resolve_ctx(ctx)
    recorder = ctx.recorder
    metric = get_metric(metric)
    if eps < 0:
        raise ValueError("eps must be non-negative")
    if ids is not None:
        ids = np.asarray(ids, dtype=np.int64)
        X = metric.take(X, ids)
    n = metric.length(X)
    dim = metric.dim(X)
    tile_cols = ctx.tile_cols or choose_tile_cols(n, dim)
    Qb = Q if _is_batch(metric, Q) else metric._as_batch(Q)
    m = metric.length(Qb)

    engine = isinstance(metric, VectorMetric)
    if engine:
        if ids is None and isinstance(X, np.ndarray):
            Xp = prepare_operands(metric, X)
        else:
            Xp = metric.prepare(X)
        Qp = metric.prepare(Qb)

    hits_d: list[list[np.ndarray]] = [[] for _ in range(m)]
    hits_i: list[list[np.ndarray]] = [[] for _ in range(m)]
    with recorder.phase("bf-range:dist"):
        for lo, hi in row_chunks(n, tile_cols):
            if engine:
                Xt = Xp.slice(lo, hi) if (lo, hi) != (0, n) else Xp
                D = metric.pairwise_prepared(Qp, Xt)
            else:
                Xt = metric.take(X, np.arange(lo, hi)) if (lo, hi) != (0, n) else X
                D = metric.pairwise(Qb, Xt)
            _record_dist_tile(recorder, metric, m, hi - lo, dim, "bf-range")
            rows, cols = np.nonzero(D <= eps)
            for r in np.unique(rows):
                sel = cols[rows == r]
                hits_d[r].append(D[r, sel])
                hits_i[r].append(sel + lo)

    out = []
    for r in range(m):
        if hits_d[r]:
            d = np.concatenate(hits_d[r])
            i = np.concatenate(hits_i[r]).astype(np.int64)
            order = np.argsort(d, kind="stable")
            d, i = d[order], i[order]
        else:
            d = np.empty(0)
            i = np.empty(0, dtype=np.int64)
        if ids is not None:
            i = ids[i]
        out.append((d, i))
    return out


# --------------------------------------------------------------- processes
def _state_equal(a, b) -> bool:
    if a is b:
        return True
    try:
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return bool(np.array_equal(a, b))
        return bool(a == b)
    except Exception:
        return False


def _registry_name(metric: Metric) -> str:
    """Name under which worker processes can rebuild ``metric``.

    Only default-constructed registry metrics qualify: the workers rebuild
    the metric from the registry by name, so a metric that is not registered
    (``GraphMetric``) or carries customized state (``Minkowski(p=3)``,
    ``Mahalanobis(VI)``) would silently compute different distances.
    """
    name = getattr(metric, "name", "")
    try:
        fresh = get_metric(name)
    except (ValueError, TypeError):
        fresh = None
    if fresh is None or type(fresh) is not type(metric):
        raise TypeError(
            f"executor='processes' requires a metric that worker processes "
            f"can rebuild from the registry by name; "
            f"{type(metric).__name__} is not a registry metric — pass the "
            f"metric's registry name, or use executor='threads'"
        )
    mine = {k: v for k, v in vars(metric).items() if k != "counter"}
    theirs = {k: v for k, v in vars(fresh).items() if k != "counter"}
    if mine.keys() != theirs.keys() or not all(
        _state_equal(mine[k], theirs[k]) for k in mine
    ):
        raise TypeError(
            f"executor='processes' cannot ship customized "
            f"{type(metric).__name__} state to worker processes; pass the "
            f"registry name for a default-constructed metric, or use "
            f"executor='threads'"
        )
    return name


def _worker_tracer(span_ctx: SpanContext | None) -> Tracer:
    """A tracer for one worker task: children of the submitting span.

    The submitting span's identity rides the pickled task payload as a
    :class:`~repro.obs.tracing.SpanContext`; the worker's spans are minted
    in its own pid namespace, parented under the submitter, and returned
    (as dicts) with the task result for the parent tracer to adopt.
    """
    return Tracer(root=span_ctx) if span_ctx is not None else NULL_TRACER


def _proc_chunk_knn_pickled(args) -> tuple[int, np.ndarray, np.ndarray, list]:
    """Process-pool worker for non-vector metrics: operands travel pickled."""
    lo, Qc, X, metric_name, k, tile_cols, span_ctx = args
    metric = get_metric(metric_name)
    wtracer = _worker_tracer(span_ctx)
    with wtracer.span("bf:chunk", lo=lo, rows=metric.length(Qc)):
        dist, idx = _knn_one_chunk(
            metric, Qc, X, k, tile_cols, NULL_RECORDER, metric.dim(X), "bf"
        )
    return lo, dist, idx, wtracer.export() if wtracer.enabled else []


def _proc_chunk_knn(args) -> tuple[int, np.ndarray, np.ndarray, list]:
    """Process-pool worker: top-k for one row chunk from shared memory."""
    qh, xh, lo, hi, metric_name, k, tile_cols, span_ctx = args
    Q = qh.open()
    X = xh.open()
    metric = get_metric(metric_name)
    wtracer = _worker_tracer(span_ctx)
    with wtracer.span("bf:chunk", lo=lo, hi=hi):
        dist, idx = _knn_one_chunk(
            metric, Q[lo:hi], X, k, tile_cols, NULL_RECORDER, X.shape[1], "bf"
        )
    qh.close()
    xh.close()
    return lo, dist, idx, wtracer.export() if wtracer.enabled else []


def _as_shared_f64(A) -> np.ndarray:
    """The canonical shared-memory operand form (and store-identity key)."""
    return np.ascontiguousarray(np.atleast_2d(np.asarray(A, dtype=np.float64)))


def register_resident_operands(metric, X: np.ndarray, *, version: int = 0) -> dict:
    """Register ``X``'s prepared float64 operands in the process-wide
    :data:`~repro.parallel.pool.operand_store`.

    One shared-memory copy of the metric-prepared data plus its hoisted
    per-row terms (norms) per ``(metric, array, version)`` — repeated
    process-backend calls against the same database then ship only the
    returned picklable handles, and resident workers keep their
    attachments.  Serving front-ends call this once per index epoch (and
    ``operand_store.release_for(X)`` on teardown).
    """
    metric = get_metric(metric)

    def build(arr):
        p = metric.prepare(arr, dtype="float64")
        return {"data": p.data, "sqnorms": p.sqnorms, "norms": p.norms}

    return operand_store.get(metric.cache_token(), X, version=version, build=build)


#: worker-side attachment cache: data-segment name -> (handles, Prepared).
#: Resident workers serve many calls; re-attaching (and rebuilding the
#: Prepared views) per task would throw away exactly the residency the
#: store buys.  Bounded FIFO; eviction closes the attachments.
_ATTACH_MAX = 8
_attach_cache: OrderedDict = OrderedDict()


def _attach_prepared(handles: dict) -> Prepared:
    key = handles["data"].name
    ent = _attach_cache.get(key)
    if ent is None:
        opened = {name: h.open() for name, h in handles.items()}
        ent = (
            handles,
            Prepared(
                opened["data"], opened.get("sqnorms"), opened.get("norms")
            ),
        )
        _attach_cache[key] = ent
        while len(_attach_cache) > _ATTACH_MAX:
            old, _ = _attach_cache.popitem(last=False)
            for h in old.values():
                h.close()
    else:
        _attach_cache.move_to_end(key)
    return ent[1]


def _proc_chunk_knn_resident(args) -> tuple[int, np.ndarray, np.ndarray]:
    """Process-pool worker over store-resident prepared operands.

    The database arrives as operand-store handles: data and norms are
    attached once per worker (cached across tasks), so nothing about the
    database is copied, pickled, or recomputed per call.  ``squared_ok``
    metrics select in the squared domain with the root deferred to the
    ``(chunk, k)`` result, exactly like the in-process engine path.
    """
    qh, handles, lo, hi, metric_name, k, tile_cols, span_ctx = args
    metric = get_metric(metric_name)
    wtracer = _worker_tracer(span_ctx)
    with wtracer.span("bf:chunk", lo=lo, hi=hi, resident=True):
        Xp = _attach_prepared(handles)
        Q = qh.open()
        Qp = metric.prepare(Q[lo:hi])
        squared = metric.squared_ok
        dist, idx = _knn_one_chunk_prepared(
            metric, Qp, Xp, k, tile_cols, NULL_RECORDER,
            Xp.data.shape[1], "bf", squared,
        )
        if squared:
            dist = metric.from_squared(dist)
    qh.close()
    return lo, dist, idx, wtracer.export() if wtracer.enabled else []


def bf_knn_processes(
    Q: np.ndarray,
    X: np.ndarray,
    metric: str = "euclidean",
    k: int = 1,
    *,
    n_workers: int | None = None,
    row_chunk: int = _DEFAULT_ROW_CHUNK,
    tile_cols: int | None = None,
    executor: Executor | None = None,
    resident: bool = True,
    tracer: Tracer = NULL_TRACER,
) -> tuple[np.ndarray, np.ndarray]:
    """Process-parallel ``bf_knn`` for vector metrics.

    With ``resident=True`` (default) the database's prepared operands live
    in the :data:`~repro.parallel.pool.operand_store`: the shared-memory
    copy and the norm hoist happen once per ``(metric, database)``, task
    payloads carry only handles, and resident workers keep their
    attachments across calls — so a query stream pays O(query) per call,
    not O(database).  ``resident=False`` restores the transient per-call
    segments (used for one-shot gathered subsets).  Only the query block
    is ever copied per call.

    Distance evaluations happen in worker processes and are *not*
    reflected in the parent's metric counters
    (a process-backend :func:`bf_knn` credits them in bulk).  An
    already-running :class:`ProcessExecutor` can be passed as ``executor``
    to reuse its pool; it is left open.  String-spec pools come from the
    process-wide :class:`~repro.parallel.pool.ExecutorPool` registry and
    stay warm between calls.
    """
    if not isinstance(metric, str):
        raise TypeError("process backend needs a registry metric name")
    Q = _as_shared_f64(Q)
    X = _as_shared_f64(X)
    tile_cols = tile_cols or choose_tile_cols(X.shape[0], X.shape[1])
    # the submitting span's ids ride the pickled payloads; worker spans
    # come back in the results and are adopted into the caller's timeline
    span_ctx = tracer.context() if tracer.enabled else None
    qh = SharedArray.from_array(Q)
    xh = None
    try:
        if resident:
            handles = register_resident_operands(get_metric(metric), X)
            worker = _proc_chunk_knn_resident
            tasks = [
                (qh, handles, lo, hi, metric, k, tile_cols, span_ctx)
                for lo, hi in row_chunks(Q.shape[0], row_chunk)
            ]
        else:
            xh = SharedArray.from_array(X)
            worker = _proc_chunk_knn
            tasks = [
                (qh, xh, lo, hi, metric, k, tile_cols, span_ctx)
                for lo, hi in row_chunks(Q.shape[0], row_chunk)
            ]
        if executor is not None:
            parts = executor.map(worker, tasks)
        else:
            with get_executor("processes", n_workers) as ex:
                parts = ex.map(worker, tasks)
    finally:
        qh.unlink()
        if xh is not None:
            xh.unlink()
    for p in parts:
        tracer.adopt(p[3])
    parts.sort(key=lambda t: t[0])
    dist = np.concatenate([p[1] for p in parts], axis=0)
    idx = np.concatenate([p[2] for p in parts], axis=0)
    return dist, idx
