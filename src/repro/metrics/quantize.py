"""Quantized operand tier below the kernel engine.

The engine (PR 2) removed *recompute* from the brute-force primitive; this
module attacks *per-evaluation cost*, following the quantization playbook
of the André thesis (PAPERS.md): store the database in a compressed code
form whose scan moves fewer bytes and cheaper instructions per distance,
and let an exact float64 re-rank (``refine_topk``) repair the precision.

Three code kinds are supported, all derived from a metric's float64
:class:`~repro.metrics.engine.Prepared` operand so the transform-carrying
metrics (Mahalanobis) and the angular metric quantize uniformly:

* ``int8``  — per-dimension symmetric scalar quantization (scale =
  ``max|x_d| / 127``), 4x smaller than float32;
* ``float16`` — a storage-only half-precision cast (numpy has no half
  GEMM, so scans always run on the decode cache);
* ``pq`` — product quantization: the dimensions split into ``M``
  subspaces, each coded by one byte indexing a 256-centroid codebook
  learned with a small seeded k-means; scans via asymmetric distance
  tables (ADC) under the JIT backend.

Correctness is *not* statistical.  Each database row carries its exact
reconstruction residual ``resid_j = rho(x_j, decode(code_j))``; by the
triangle inequality (both the Euclidean family and the geodesic angular
distance are true metrics on their prepared spaces)::

    |rho(q, x_j) - rho(q, decode(code_j))| <= resid_j

so approximate scan distances bracket the true ones.  :func:`quant_topk`
selects an over-fetched frontier of ``k' = c k`` candidates per query and
*certifies* it covers the true top-k: the k-th smallest upper bound among
the selected must not exceed the best possible lower bound of anything
unselected.  Rows that fail the certificate (adversarial inputs, huge
residuals) fall back to an exact bound filter over the full row — slower,
never wrong.  The survivors are re-scored in float64, so the returned ids
are identical to the uncompressed engine's answers.

The scan itself has two backends (see :mod:`repro.metrics.jit`): plain
numpy runs a float32 GEMM over the *decode cache* (BLAS speed, the codes
supply only the bound structure), while the optional numba backend scans
the 1-byte codes directly — the bytes-moved win quantization promises.
"""

from __future__ import annotations

import numpy as np

from .engine import Prepared, refine_topk

__all__ = [
    "QUANT_KINDS",
    "QuantizedOperand",
    "quantize_prepared",
    "quant_topk",
    "quant_search",
    "supports_quantization",
]

#: code kinds the tier accepts (``quantizer=`` knob values; ``"auto"`` is
#: resolved by the autotuner before reaching this module)
QUANT_KINDS = ("int8", "float16", "pq")

#: relative slack widening every certificate/bound compare: float32 scan
#: arithmetic carries ~1e-7 relative error, 1e-4 leaves ample headroom at
#: the cost of an occasional extra candidate (extra candidates are
#: harmless — the float64 re-rank discards them)
_SLACK = 1e-4
#: absolute floor for the slack (distances can legitimately be 0.0)
_ATOL = 1e-9

#: default over-fetch multiplier: k' = max(ck, k + 16) candidates are
#: selected before the float64 re-rank (the ``c`` in the Issue's k'=ck)
DEFAULT_OVER_FETCH = 4


def check_quantizer(kind: str) -> str:
    """Validate a ``quantizer=`` knob value (``"auto"`` handled upstream)."""
    if kind not in QUANT_KINDS:
        raise ValueError(
            f"quantizer must be one of {QUANT_KINDS}, got {kind!r}"
        )
    return kind


def supports_quantization(metric) -> bool:
    """Quantized scans exist for the GEMM-shaped prepared kernels only."""
    return getattr(metric, "prepared_kernel", None) in ("gram", "angular")


class QuantizedOperand:
    """A database in code form plus everything the certified scan needs.

    ``codes`` is the compressed representation (int8 rows, float16 rows,
    or uint8 PQ code matrix); ``decoded`` is a float32
    :class:`~repro.metrics.engine.Prepared` decode cache the numpy scan
    backend runs its GEMM on (the numba backend reads only its squared
    norms); ``resid`` holds
    each row's exact float64 reconstruction distance and ``rmax`` its
    maximum over valid rows.  ``ids`` maps scan columns to global database
    ids (identity when ``None``), and ``valid`` masks slack rows of a
    packed layout out of every scan.
    """

    __slots__ = (
        "kind", "kernel", "codes", "scale", "inv_norm", "codebooks",
        "decoded", "resid", "rmax", "ids", "valid", "_invalid_cols",
    )

    def __init__(
        self,
        kind: str,
        kernel: str,
        codes: np.ndarray,
        decoded: Prepared,
        resid: np.ndarray,
        *,
        scale: np.ndarray | None = None,
        inv_norm: np.ndarray | None = None,
        codebooks: np.ndarray | None = None,
        ids: np.ndarray | None = None,
        valid: np.ndarray | None = None,
    ) -> None:
        self.kind = kind
        self.kernel = kernel  # e.g. "gram/int8", "angular/pq"
        self.codes = codes
        self.scale = scale
        self.inv_norm = inv_norm
        self.codebooks = codebooks
        self.decoded = decoded
        self.resid = resid
        self.ids = ids
        self.valid = valid
        self._invalid_cols = (
            None if valid is None or bool(valid.all())
            else np.flatnonzero(~valid)
        )
        self.rmax = float(resid.max()) if resid.size else 0.0

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def code_bytes(self) -> int:
        """Bytes the code representation occupies (the scan's working set
        under the JIT backend; the decode cache is counted separately)."""
        total = self.codes.nbytes
        for extra in (self.scale, self.inv_norm, self.codebooks):
            if extra is not None:
                total += extra.nbytes
        return total

    @property
    def nbytes(self) -> int:
        return self.code_bytes + self.decoded.nbytes + self.resid.nbytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuantizedOperand({self.kernel}, n={len(self.codes)}, "
            f"rmax={self.rmax:.3g})"
        )


def _pq_layout(d: int) -> int:
    """Subspace count: the largest of 8/4/2/1 dividing ``d``."""
    for m in (8, 4, 2, 1):
        if d % m == 0 and d // m >= 1:
            return m
    return 1  # pragma: no cover - unreachable (1 always divides)


def _pq_train(base: np.ndarray, n_sub: int, seed: int):
    """Seeded per-subspace k-means codebooks (Lloyd on a bounded sample).

    Returns ``(codes (n, M) uint8, codebooks (M, K, d_sub) float64)``.
    """
    n, d = base.shape
    d_sub = d // n_sub
    k_cb = min(256, n)
    rng = np.random.default_rng(seed)
    sample = (
        base if n <= 4096
        else base[rng.choice(n, size=4096, replace=False)]
    )
    codes = np.empty((n, n_sub), dtype=np.uint8)
    codebooks = np.empty((n_sub, k_cb, d_sub))
    for m in range(n_sub):
        sub = sample[:, m * d_sub : (m + 1) * d_sub]
        centers = sub[rng.choice(len(sub), size=k_cb, replace=False)].copy()
        for _ in range(8):  # Lloyd iterations; seeded, deterministic
            d2 = (
                ((sub**2).sum(axis=1))[:, None]
                - 2.0 * (sub @ centers.T)
                + (centers**2).sum(axis=1)[None, :]
            )
            assign = d2.argmin(axis=1)
            for c in range(k_cb):
                sel = assign == c
                if sel.any():
                    centers[c] = sub[sel].mean(axis=0)
        full = base[:, m * d_sub : (m + 1) * d_sub]
        d2 = (
            ((full**2).sum(axis=1))[:, None]
            - 2.0 * (full @ centers.T)
            + (centers**2).sum(axis=1)[None, :]
        )
        codes[:, m] = d2.argmin(axis=1).astype(np.uint8)
        codebooks[m] = centers
    return codes, codebooks


def quantize_prepared(
    metric,
    prepared: Prepared,
    kind: str,
    *,
    seed: int = 0,
    ids: np.ndarray | None = None,
    valid: np.ndarray | None = None,
) -> QuantizedOperand:
    """Quantize a float64 prepared operand into code form.

    Works on ``prepared.data`` — the metric's *prepared space* — so the
    Mahalanobis transform and the angular normalization are handled
    uniformly: residuals are geodesic arc distances for ``"angular"``
    kernels and Euclidean distances in prepared space for ``"gram"``.
    ``valid`` marks live rows of a packed layout (slack rows get residual
    0 and are masked out of every scan); ``ids`` maps rows to global ids.
    """
    check_quantizer(kind)
    kernel = getattr(metric, "prepared_kernel", None)
    if kernel not in ("gram", "angular"):
        raise ValueError(
            f"{type(metric).__name__} has no quantizable prepared kernel "
            f"(need 'gram' or 'angular', got {kernel!r})"
        )
    base = np.asarray(prepared.data, dtype=np.float64)
    angular = kernel == "angular"
    if angular:
        base = base / prepared.norms[:, None]
    if valid is not None and not valid.all():
        base = np.where(valid[:, None], base, 0.0)
        if angular:
            # zeroed slack rows would renormalize to nan; park them on a
            # harmless unit vector (they are masked out of scans anyway)
            base[~valid, 0] = 1.0

    scale = inv_norm = codebooks = None
    if kind == "int8":
        scale = np.abs(base).max(axis=0) / 127.0
        scale[scale == 0.0] = 1.0
        codes = np.clip(np.rint(base / scale), -127, 127).astype(np.int8)
        dec64 = codes * scale
    elif kind == "float16":
        codes = base.astype(np.float16)
        dec64 = codes.astype(np.float64)
    else:  # pq
        codes, codebooks = _pq_train(base, _pq_layout(base.shape[1]), seed)
        d_sub = base.shape[1] // codebooks.shape[0]
        dec64 = np.concatenate(
            [
                codebooks[m][codes[:, m]]
                for m in range(codebooks.shape[0])
            ],
            axis=1,
        )
        assert dec64.shape[1] == d_sub * codebooks.shape[0]

    if angular:
        norms = np.sqrt((dec64**2).sum(axis=1))
        norms[norms == 0.0] = 1.0
        inv_norm = (1.0 / norms).astype(np.float32)
        unit = dec64 / norms[:, None]
        resid = np.arccos(np.clip((base * unit).sum(axis=1), -1.0, 1.0))
        dec32 = np.ascontiguousarray(unit, dtype=np.float32)
        decoded = Prepared(
            dec32, norms=np.ones(len(dec32), dtype=np.float32)
        )
    else:
        resid = np.sqrt(((base - dec64) ** 2).sum(axis=1))
        dec32 = np.ascontiguousarray(dec64, dtype=np.float32)
        decoded = Prepared(
            dec32, sqnorms=(dec64**2).sum(axis=1).astype(np.float32)
        )
    if valid is not None:
        resid = np.where(valid, resid, 0.0)
        mx = float(resid[valid].max()) if valid.any() else 0.0
    op = QuantizedOperand(
        kind,
        f"{kernel}/{kind}",
        codes,
        decoded,
        resid,
        scale=None if scale is None else scale.astype(np.float32),
        inv_norm=inv_norm,
        codebooks=codebooks,
        ids=ids,
        valid=valid,
    )
    if valid is not None:
        op.rmax = mx
    return op


# --------------------------------------------------------------- flat scan
def _scan_block(metric, qop: QuantizedOperand, q32, q2, lo, hi, backend):
    """One (chunk, n) block of approximate scan scores, ascending = closer.

    ``gram`` kernels return squared Euclidean distances in prepared space;
    ``angular`` kernels return *negated* cosine similarities (the arccos
    is applied only to the selected frontier).  Invalid (slack) columns
    are pushed to ``+inf``.
    """
    from .jit import scan_codes_block

    angular = qop.kernel.startswith("angular")
    S = None
    if backend == "numba":
        S = scan_codes_block(qop, q32[lo:hi], q2 if q2 is None else q2[lo:hi])
    if S is None:
        dec = qop.decoded
        G = q32[lo:hi] @ dec.data.T
        if angular:
            np.negative(G, out=G)
        else:
            G *= -2.0
            G += q2[lo:hi, None]
            G += dec.sqnorms[None, :]
            np.maximum(G, 0.0, out=G)
        S = G
    if qop._invalid_cols is not None:
        S[:, qop._invalid_cols] = np.inf
    return S


def _root(S_sel, angular: bool) -> np.ndarray:
    """Selected scores -> distance domain (root / arccos)."""
    if angular:
        return np.arccos(np.clip(-S_sel, -1.0, 1.0))
    return np.sqrt(S_sel)


def quant_topk(
    metric,
    Qb,
    qop: QuantizedOperand,
    k: int,
    *,
    over_fetch: int = DEFAULT_OVER_FETCH,
    row_chunk: int = 64,
    backend: str | None = None,
    counter: bool = True,
):
    """Certified candidate generation on the quantized operand.

    Returns ``(cand (m, k'), info)``: per query, ``k' = max(ck, k+16)``
    candidate *global* ids (``-1`` padded) guaranteed to contain the true
    top-k, plus an info dict (``k_prime``, ``n_fallback``,
    ``approx_ids`` — the pre-re-rank top-k, for recall accounting).

    Per chunk of queries the scan block stays cache-resident: select the
    ``k'+1`` smallest approximate scores with one ``argpartition``, then
    certify via the triangle-inequality bounds that nothing unselected can
    reach the top-k (the k-th smallest selected upper bound must be below
    the frontier's lower bound).  Rows failing the certificate re-filter
    the full row with exact per-row bounds — never wrong, merely slower.
    """
    from .jit import kernel_backend

    if backend is None:
        backend = kernel_backend(qop.kind)
    angular = qop.kernel.startswith("angular")
    Qp = metric.prepare(np.atleast_2d(np.asarray(Qb)), dtype="float32")
    if angular:
        q32 = Qp.data / Qp.norms[:, None]
        q2 = None
    else:
        q32, q2 = Qp.data, Qp.sqnorms
    m = len(q32)
    n = len(qop.codes)
    n_valid = n if qop.valid is None else int(qop.valid.sum())
    k_eff = min(k, n_valid) if n_valid else 1
    k2 = min(n - 1, max(over_fetch * k, k + 16))
    width = min(n, k2 + 1)
    full = width >= n_valid  # selecting everything: trivially certified

    resid32 = qop.resid.astype(np.float32)
    rmax = qop.rmax
    cand = np.full((m, width), -1, dtype=np.int64)
    approx = np.full((m, k_eff), -1, dtype=np.int64)
    n_fallback = 0
    fallback_rows: list[tuple[int, np.ndarray]] = []

    for lo in range(0, m, row_chunk):
        hi = min(lo + row_chunk, m)
        S = _scan_block(metric, qop, q32, q2, lo, hi, backend)
        if full:
            order = np.argsort(S, axis=1, kind="stable")[:, :width]
            if width > n_valid:
                # the sort tail past the live rows holds +inf slack
                # columns; leave those slots -1 so the ids mapping cannot
                # resurrect a packed slack row as a real candidate
                order[:, n_valid:] = -1
            cand[lo:hi] = order
            approx[lo:hi] = order[:, :k_eff]
            continue
        part = np.argpartition(S, k2, axis=1)[:, : k2 + 1]
        ps = np.take_along_axis(S, part, axis=1)
        order = np.argsort(ps, axis=1, kind="stable")
        part = np.take_along_axis(part, order, axis=1)
        ps = np.take_along_axis(ps, order, axis=1)
        dist = _root(ps, angular)  # (chunk, k2+1) selected distances
        sel_resid = resid32[part]
        ub = dist + sel_resid
        # U = k-th smallest selected upper bound >= true k-th NN distance
        U = np.partition(ub, k_eff - 1, axis=1)[:, k_eff - 1]
        U = U * (1.0 + _SLACK) + _ATOL
        # everything unselected sits beyond the frontier's approx distance,
        # so its true distance is at least frontier - rmax
        frontier_lb = dist[:, -1] - rmax
        ok = U <= frontier_lb
        cand[lo:hi] = part
        approx[lo:hi] = part[:, :k_eff]
        for r in np.flatnonzero(~ok):
            # exact per-row bound filter: keep every column whose lower
            # bound can still reach the certified upper bound U
            if angular:
                thr = np.cos(np.clip(U[r] + resid32, 0.0, np.pi))
                keep = np.flatnonzero(-S[r] >= thr)
            else:
                keep = np.flatnonzero(S[r] <= (U[r] + resid32) ** 2)
            n_fallback += 1
            if keep.size > width:
                cand[lo + r] = -1
                fallback_rows.append((lo + r, keep))
            else:
                cand[lo + r, : keep.size] = keep
                cand[lo + r, keep.size :] = -1
    if counter:
        metric.counter.add(int(m) * n_valid)
    if qop.ids is not None:
        gids = np.where(cand >= 0, qop.ids[np.clip(cand, 0, None)], -1)
        approx_g = np.where(
            approx >= 0, qop.ids[np.clip(approx, 0, None)], -1
        )
        fallback_rows = [(r, qop.ids[kp]) for r, kp in fallback_rows]
    else:
        gids, approx_g = cand, approx
    info = {
        "quantizer": qop.kind,
        "backend": backend,
        "k_prime": int(width),
        "n_fallback": int(n_fallback),
        "code_bytes": int(qop.code_bytes),
        "approx_ids": approx_g,
    }
    return gids, fallback_rows, info


def quant_search(
    metric,
    Qb,
    X,
    qop: QuantizedOperand,
    k: int,
    *,
    over_fetch: int = DEFAULT_OVER_FETCH,
    row_chunk: int = 64,
    backend: str | None = None,
):
    """Certified quantized scan + exact float64 re-rank.

    The returned ``(dist, idx)`` are id-identical to an uncompressed
    float64 brute-force top-k over the live rows of ``qop`` (ties broken
    by candidate order).  ``info``
    additionally reports ``recall_before_rerank`` — the fraction of final
    ids already present in the approximate top-k, i.e. what a
    re-rank-free quantized answer would have scored.
    """
    Qb = np.atleast_2d(np.asarray(Qb))
    gids, fallback_rows, info = quant_topk(
        metric, Qb, qop, k,
        over_fetch=over_fetch, row_chunk=row_chunk, backend=backend,
    )
    dist, idx = refine_topk(metric, Qb, X, gids, k)
    for r, keep_ids in fallback_rows:
        # oversized fallback rows re-rank their full bound-filtered set
        dist[r : r + 1], idx[r : r + 1] = refine_topk(
            metric, Qb[r : r + 1], X, keep_ids[None, :], k
        )
    approx = info.pop("approx_ids")
    hit = (approx[:, :, None] == idx[:, None, :]) & (idx[:, None, :] >= 0)
    n_real = np.maximum((idx >= 0).sum(axis=1), 1)
    info["recall_before_rerank"] = float(
        (hit.any(axis=1).sum(axis=1) / n_real).mean()
    ) if len(idx) else 1.0
    return dist, idx, info
