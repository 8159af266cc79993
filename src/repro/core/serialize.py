"""Index persistence: save/load a built RBC to a single ``.npz`` file.

The RBC's state is flat — representative ids, concatenated ownership
lists with offsets, radii, the database itself and the live-row mask that
deletions leave behind — so it round-trips
through NumPy's archive format without pickling.  Only vector datasets
with registry-named metrics are supported (string/graph datasets carry
Python objects whose persistence belongs to the caller).
"""

from __future__ import annotations

import numpy as np

__all__ = ["save_index", "load_index"]

_FORMAT_VERSION = 1


def save_index(index, path) -> None:
    """Persist a built :class:`ExactRBC` or :class:`OneShotRBC`.

    Raises ``ValueError`` for unbuilt indexes, non-array databases, or
    metrics without a registry name (custom instances cannot be
    reconstructed from a file).
    """
    from .exact import ExactRBC
    from .oneshot import OneShotRBC

    if not index.is_built:
        raise ValueError("cannot save an unbuilt index")
    if not isinstance(index.X, np.ndarray):
        raise ValueError("only vector (ndarray) databases can be saved")
    from ..metrics.registry import _REGISTRY

    metric_name = None
    for name, factory in _REGISTRY.items():
        try:
            if type(factory()) is type(index.metric):
                metric_name = name
                break
        except TypeError:  # factories needing kwargs (minkowski)
            continue
    if metric_name is None:
        raise ValueError(
            f"metric {type(index.metric).__name__} has no zero-argument "
            "registry entry; cannot serialize"
        )

    if isinstance(index, ExactRBC):
        kind = "exact"
    elif isinstance(index, OneShotRBC):
        kind = "oneshot"
    else:
        raise ValueError(f"unsupported index type {type(index).__name__}")

    packed = index.packed
    offsets = np.zeros(packed.n_lists + 1, dtype=np.int64)
    np.cumsum(packed.lengths, out=offsets[1:])
    if packed.capacity == packed.total:
        # tight layout (fresh build): the packed backing arrays *are* the
        # serialized form — no per-list concatenation
        list_ids, list_dists = packed.ids, packed.dists
    elif offsets[-1]:
        # updates left slack between segments; compact the live entries
        list_ids = np.concatenate(list(packed.id_views))
        list_dists = np.concatenate(list(packed.dist_views))
    else:
        list_ids = np.empty(0, dtype=np.int64)
        list_dists = np.empty(0)
    np.savez_compressed(
        path,
        format_version=_FORMAT_VERSION,
        kind=kind,
        metric=metric_name,
        X=index.X,
        rep_ids=index.rep_ids,
        list_offsets=offsets,
        list_ids=list_ids,
        list_dists=list_dists,
        s=getattr(index, "s", -1),
        # deleted rows stay in X (global ids are stable); the live mask
        # keeps them deleted after a reload
        **({} if index._active is None else {"active": index._active}),
    )


def load_index(path):
    """Reconstruct a saved index; returns ExactRBC or OneShotRBC."""
    from .exact import ExactRBC
    from .oneshot import OneShotRBC

    with np.load(path, allow_pickle=False) as z:
        version = int(z["format_version"])
        if version > _FORMAT_VERSION:
            raise ValueError(f"file written by a newer format (v{version})")
        kind = str(z["kind"])
        cls = {"exact": ExactRBC, "oneshot": OneShotRBC}[kind]
        # files from earlier releases may carry a compute ``dtype`` field;
        # it is ignored, since float64 is the only compute precision
        index = cls(metric=str(z["metric"]))
        offsets = z["list_offsets"]
        list_ids = z["list_ids"]
        list_dists = z["list_dists"]
        lists = [
            list_ids[offsets[j] : offsets[j + 1]].copy()
            for j in range(offsets.size - 1)
        ]
        dists = [
            list_dists[offsets[j] : offsets[j + 1]].copy()
            for j in range(offsets.size - 1)
        ]
        index._finish_build(
            z["X"].copy(), z["rep_ids"].copy(), lists, dists, build_evals=0
        )
        s = int(z["s"])
        if kind == "oneshot":
            index.s = s
        # archives written before the mask was saved load every row live
        if "active" in z.files:
            index._active = z["active"].copy()
    return index
