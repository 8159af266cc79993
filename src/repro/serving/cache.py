"""Proximity-keyed semantic result cache: answer near-duplicate queries
from a cached neighbor's result, with **zero recall loss**.

Real query traffic is skewed — Zipfian hot keys, flash crowds around one
topic, users re-issuing the same embedding with tiny perturbations.  The
paper's stage-2 machinery already pays for the tool that exploits this:
the triangle inequality.  A cached entry stores a *key* query ``q0``, its
exact top-``k`` answer, and a **certified tolerance radius**

.. math::

    r \\;=\\; \\tfrac{1}{2}\\,(d_{k+1} - d_k)

derived from the gap between the key's ``k``-th and ``(k+1)``-th neighbor
distances (the serving front-end over-fetches one extra neighbor on every
miss to learn the gap).  For a new query ``q`` with ``delta = rho(q, q0)
<= r`` the triangle inequality gives, for every cached member ``p`` and
every outside point ``p'``::

    rho(q, p)  <= d_k     + delta          (cached members stay close)
    rho(q, p') >= d_{k+1} - delta          (everything else stays far)

so ``delta <= r`` implies the cached id set *is* ``q``'s exact top-``k``
set — the hit is **certificate-checked**, never heuristic.  Hits are
re-scored through the paired kernel
(:func:`~repro.metrics.engine.rescore_pairs`) so the returned distances
are exact for the *new* query, and re-ranked with the same structural
tie-break the batched stage-2 kernels use, keeping cache-served rows
id-identical to a cache-off server.

Lookup itself rides the existing kernel engine: the key set lives in one
contiguous buffer whose prepared form (hoisted norms) is cached in the
process-wide :data:`~repro.metrics.engine.operand_cache` under a version
stamp, so a lookup is a single small ``BF(Q, keys)`` GEMM.

Staleness is impossible by construction: the cache snapshots the index's
mutation version (the ``RBCBase._version`` stamp *and* the
:class:`~repro.core.packed.PackedLists` mutation version), and any
lookup after an ``insert``/``delete``/rebuild clears every entry before
answering.  Entries also carry a TTL and are evicted LRU beyond
``max_entries``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..index.protocol import capabilities_for
from ..metrics.engine import operand_cache, rescore_pairs

__all__ = ["CachePolicy", "CacheCounters", "ProximityCache"]

#: structural rank for ids outside every ownership list (tombstoned or
#: padding): sorts after any real candidate among equal distances
_RANK_FAR = np.iinfo(np.int64).max // 2

#: relative shrink of every certified radius before it is trusted,
#: absorbing the few-ulp float error between the exact real arithmetic of
#: the certificate and the computed distances; it costs a vanishing
#: fraction of hits and buys the zero-recall guarantee back from floating
#: point
RADIUS_SAFETY = 1e-9


@dataclass(frozen=True)
class CachePolicy:
    """Knobs of a :class:`ProximityCache`: its capacity (LRU eviction
    beyond ``max_entries``) and each entry's time to live."""

    max_entries: int = 2048
    ttl_s: float = math.inf

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if not self.ttl_s > 0:
            raise ValueError("ttl_s must be positive")


class CacheCounters:
    """Lifetime tallies of cache activity (diffed per stream).

    ``rejects`` counts *certified rejects*: lookups whose nearest key
    existed but whose certificate failed (``delta > r``) — every reject
    is also a miss, so ``hits + misses`` is the lookup total.
    """

    __slots__ = (
        "hits",
        "misses",
        "rejects",
        "admitted",
        "evicted",
        "expired",
        "invalidated",
    )

    def __init__(self, **kw) -> None:
        for name in self.__slots__:
            setattr(self, name, int(kw.get(name, 0)))

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def snapshot(self) -> "CacheCounters":
        return CacheCounters(**self.to_dict())

    def since(self, t0: "CacheCounters") -> "CacheCounters":
        """Counter deltas accumulated after snapshot ``t0``."""
        return CacheCounters(
            **{n: getattr(self, n) - getattr(t0, n) for n in self.__slots__}
        )

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(f"{n}={getattr(self, n)}" for n in self.__slots__)
        return f"CacheCounters({body})"


class ProximityCache:
    """Certificate-checked result cache over one built exact index.

    Parameters
    ----------
    index:
        a built **exact** index over an ndarray database whose metric
        satisfies the triangle inequality (the certificate is meaningless
        without it).  :class:`~repro.core.exact.ExactRBC` is the primary
        client; any exact registry backend works.
    k:
        neighbors per served answer.  The serving front-end fetches
        ``k + 1`` on misses; :meth:`admit` consumes the widened rows.
    policy:
        :class:`CachePolicy`; defaults are sized for a serving session.

    The cache reads the index's mutation stamps on every call and clears
    itself whenever they move, so a certified answer can never outlive
    the database state it was computed against.
    """

    def __init__(
        self, index, k: int, *, policy: CachePolicy | None = None
    ) -> None:
        caps = capabilities_for(index)
        if not caps.exact:
            raise ValueError(
                "ProximityCache requires an exact index: the certificate "
                "radius is derived from exact neighbor distances"
            )
        if not getattr(index.metric, "is_true_metric", False):
            raise ValueError(
                f"{type(index.metric).__name__} does not satisfy the "
                "triangle inequality, which the cache certificate requires"
            )
        getattr(index, "_require_built", lambda: None)()
        if not isinstance(getattr(index, "X", None), np.ndarray):
            raise ValueError("ProximityCache requires an ndarray database")
        if k < 1:
            raise ValueError("k must be >= 1")
        self.index = index
        self.metric = index.metric
        self.k = int(k)
        self.policy = policy or CachePolicy()
        self.counters = CacheCounters()
        d = int(index.X.shape[1])
        self._d = d
        #: compact entry store: row i of each array is one live entry
        self._keys = np.zeros((0, d))
        self._idx = np.zeros((0, self.k), dtype=np.int64)
        self._radius = np.zeros(0)
        self._born = np.zeros(0)
        self._used = np.zeros(0)
        self._n = 0
        #: operand-cache stamp for the key buffer; bumped by any mutation
        self._buf_version = 0
        self._seen = self._data_version()
        self._ranks: np.ndarray | None = None
        #: serving front-ends skip a disabled cache entirely (the
        #: quality monitor's breach hook flips this — recall pressure
        #: takes the cache out of the path until re-enabled)
        self.enabled = True
        #: why the cache was last disabled (diagnostics)
        self.disabled_reason: str | None = None
        #: per-batch lookup detail for EXPLAIN: ``delta`` / ``radius``
        #: per row (``None`` while the store is empty) and the hit mask
        self.last_lookup: dict | None = None

    # ------------------------------------------------------------- gating
    def disable(self, reason: str | None = None) -> None:
        """Take the cache out of the serving path (entries are kept;
        :meth:`enable` puts it back)."""
        self.enabled = False
        self.disabled_reason = reason

    def enable(self) -> None:
        self.enabled = True
        self.disabled_reason = None

    # ------------------------------------------------------------ liveness
    def __len__(self) -> int:
        return self._n

    def _data_version(self) -> tuple:
        """The index state this cache's certificates were computed
        against: the prepared-operand version stamp, the packed-list
        mutation version, and the database buffer identity."""
        idx = self.index
        packed = getattr(idx, "packed", None)
        return (
            getattr(idx, "_version", 0),
            getattr(packed, "version", -1) if packed is not None else -1,
            id(idx.X),
        )

    def _sync(self) -> None:
        """Drop everything if the index mutated since the last call."""
        v = self._data_version()
        if v != self._seen:
            self.counters.invalidated += self._n
            self._n = 0
            self._buf_version += 1
            self._seen = v
            self._ranks = None

    def invalidate(self) -> None:
        """Explicitly drop all entries (mutation hooks call :meth:`_sync`
        lazily, so this is only needed for out-of-band database edits the
        version stamps cannot see)."""
        self.counters.invalidated += self._n
        self._n = 0
        self._buf_version += 1
        self._ranks = None

    # ------------------------------------------------------- tie structure
    def _struct_ranks(self) -> np.ndarray:
        """Global id -> enumeration rank of the batched stage-2 scan.

        The exact kernels enumerate candidates in packed-storage order
        (ascending list, ascending within-list position) and their final
        stable sort keeps that order among equal distances; re-ranking a
        hit with the same key keeps cache-served ties bit-identical to a
        fresh query.  Indexes without packed lists (brute force) scan in
        id order, so the rank *is* the id.
        """
        if self._ranks is None:
            n = int(self.index.n)
            packed = getattr(self.index, "packed", None)
            if packed is None:
                self._ranks = np.arange(n, dtype=np.int64)
            else:
                rank = np.full(n, _RANK_FAR, dtype=np.int64)
                for j in range(packed.n_lists):
                    lo, hi = packed.span(j)
                    rank[packed.ids[lo:hi]] = np.arange(lo, hi)
                self._ranks = rank
        return self._ranks

    # ------------------------------------------------------------- storage
    def _grow(self, need: int) -> None:
        cap = max(64, 2 * self._keys.shape[0], need)
        cap = min(cap, max(self.policy.max_entries, need))

        def widen(a: np.ndarray) -> np.ndarray:
            out = np.zeros((cap,) + a.shape[1:], dtype=a.dtype)
            out[: self._n] = a[: self._n]
            return out

        self._keys = widen(self._keys)
        self._idx = widen(self._idx)
        self._radius = widen(self._radius)
        self._born = widen(self._born)
        self._used = widen(self._used)

    def _discard(self, rows: np.ndarray) -> None:
        """Swap-delete ``rows`` (descending), keeping the store compact."""
        for r in sorted((int(r) for r in rows), reverse=True):
            last = self._n - 1
            if r != last:
                for a in (
                    self._keys,
                    self._idx,
                    self._radius,
                    self._born,
                    self._used,
                ):
                    a[r] = a[last]
            self._n -= 1
        self._buf_version += 1

    def _expire(self, now: float) -> None:
        if not math.isfinite(self.policy.ttl_s) or self._n == 0:
            return
        old = np.flatnonzero(
            now - self._born[: self._n] > self.policy.ttl_s
        )
        if old.size:
            self.counters.expired += int(old.size)
            self._discard(old)

    # -------------------------------------------------------------- lookup
    def _key_dists(self, Qb: np.ndarray) -> np.ndarray:
        """``BF(Q, keys)`` through the kernel engine: the key buffer's
        prepared form (hoisted norms) is cached process-wide under this
        cache's version stamp, so steady-state lookups prepare only the
        query block."""
        prepare = getattr(self.metric, "prepare", None)
        if prepare is None:  # non-vector metrics: plain kernel
            return self.metric.pairwise(Qb, self._keys[: self._n])
        Kp = operand_cache.get(
            self.metric, self._keys, version=self._buf_version
        )
        return self.metric.pairwise_prepared(
            prepare(Qb), Kp.slice(0, self._n)
        )

    def lookup(
        self, Qb: np.ndarray, *, now: float = 0.0
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """Try to answer a query batch from cache.

        Returns ``(hit_mask, dist, idx)``: ``hit_mask`` flags the rows of
        ``Qb`` served from cache, and ``dist``/``idx`` hold one
        ``(n_hits, k)`` row per flagged query (both ``None`` when nothing
        hit).  Counters: a certified hit increments ``hits``; any other
        lookup is a ``miss``, and the subset whose nearest key existed
        but failed the certificate also counts as a ``reject``.
        """
        self._sync()
        self._expire(now)
        Qb = np.atleast_2d(np.asarray(Qb, dtype=np.float64))
        m = int(Qb.shape[0])
        hit = np.zeros(m, dtype=bool)
        if self._n == 0:
            self.counters.misses += m
            self.last_lookup = {"hit": hit.copy(), "delta": None, "radius": None}
            return hit, None, None

        D = self._key_dists(Qb)
        j = np.argmin(D, axis=1)
        delta = D[np.arange(m), j]
        ok = (delta <= self._radius[: self._n][j]) | (delta == 0.0)
        # the Gram-trick distance between *identical* vectors cancels
        # catastrophically to ~sqrt(eps)*norm, not zero — recover the
        # exact-repeat hit (the hot-key fast path) by comparing
        # coordinates, filtered to near-zero rows so the scan stays O(1)
        scale = 1.0 + np.sqrt(np.einsum("ij,ij->i", Qb, Qb))
        maybe = np.flatnonzero(~ok & (delta <= 1e-6 * scale))
        for r in maybe:
            if np.array_equal(Qb[r], self._keys[j[r]]):
                ok[r] = True
        hit[:] = ok
        self.last_lookup = {
            "hit": hit.copy(),
            "delta": delta.copy(),
            "radius": self._radius[: self._n][j].copy(),
        }

        n_hit = int(np.count_nonzero(ok))
        self.counters.hits += n_hit
        self.counters.misses += m - n_hit
        self.counters.rejects += m - n_hit
        if n_hit == 0:
            return hit, None, None

        rows = np.flatnonzero(ok)
        ent = j[rows]
        self._used[ent] = now
        hi = self._idx[ent]
        d_re = rescore_pairs(self.metric, Qb[rows], self.index.X, hi)
        ranks = self._struct_ranks()
        r_keys = np.where(hi >= 0, ranks[np.clip(hi, 0, None)], _RANK_FAR)
        order = np.lexsort((r_keys, d_re))
        hd = np.take_along_axis(d_re, order, axis=1)
        hi = np.take_along_axis(hi, order, axis=1)
        hi = np.where(np.isfinite(hd), hi, -1)
        return hit, hd, hi

    # --------------------------------------------------------------- admit
    def admit(
        self,
        Qb: np.ndarray,
        dist: np.ndarray,
        idx: np.ndarray,
        *,
        now: float = 0.0,
    ) -> int:
        """Insert freshly-answered queries as keys.

        ``dist``/``idx`` are the over-fetched ``(m, k + 1)`` served rows
        (exact, re-scored); column ``k`` exists only to certify the
        radius and is not stored.  Rows the policy cannot certify (NaN
        distances) are skipped.  Returns the number admitted.
        """
        self._sync()
        Qb = np.atleast_2d(np.asarray(Qb, dtype=np.float64))
        m = int(Qb.shape[0])
        if dist.shape != (m, self.k + 1) or idx.shape != (m, self.k + 1):
            raise ValueError(
                f"admit needs (m, k+1) = ({m}, {self.k + 1}) rows, got "
                f"dist {dist.shape}, idx {idx.shape}"
            )
        d_k = dist[:, self.k - 1]
        d_k1 = dist[:, self.k]
        with np.errstate(invalid="ignore"):
            radius = 0.5 * (d_k1 - d_k)
        # inf - inf: fewer than k live points — the answer is the whole
        # database for any query, so the certificate holds at any radius
        radius = np.where(np.isnan(radius), np.inf, radius)
        finite = np.isfinite(radius)
        radius[finite] = np.maximum(
            0.0, radius[finite] * (1.0 - RADIUS_SAFETY)
        )
        keep = ~np.isnan(d_k1)
        take = np.flatnonzero(keep)[: self.policy.max_entries]
        if take.size == 0:
            return 0

        need = self._n + int(take.size)
        if need > self._keys.shape[0]:
            self._grow(min(need, self.policy.max_entries))
        over = self._n + int(take.size) - self.policy.max_entries
        if over > 0:
            lru = np.argpartition(self._used[: self._n], over - 1)[:over]
            self.counters.evicted += int(lru.size)
            self._discard(lru)

        lo = self._n
        hi = lo + int(take.size)
        self._keys[lo:hi] = Qb[take]
        self._idx[lo:hi] = idx[take, : self.k]
        self._radius[lo:hi] = radius[take]
        self._born[lo:hi] = now
        self._used[lo:hi] = now
        self._n = hi
        self._buf_version += 1
        self.counters.admitted += int(take.size)
        return int(take.size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProximityCache(k={self.k}, entries={self._n}/"
            f"{self.policy.max_entries}, hit_rate={self.counters.hit_rate:.3f})"
        )
