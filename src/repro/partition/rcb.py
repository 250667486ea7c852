"""Recursive coordinate bisection (RCB) partitioning.

A geometric partitioner: recursively split the point set along its widest
axis at the weighted median, assigning sub-part counts proportionally.
Fast, deterministic, and produces compact parts — used as the default for
large meshes and as the spatial sub-decomposition inside ranks.

:func:`segmented_rcb` runs the unit-weight recursion of many independent
point sets (one per MPI rank) level by level in whole-array passes; it is
label-for-label equal to :func:`rcb_partition` on each set.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["rcb_partition", "segmented_rcb"]


def rcb_partition(points: np.ndarray, nparts: int,
                  weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Partition ``points`` (n, d) into ``nparts`` by recursive bisection.

    Returns (n,) int32 part labels in [0, nparts).  Weighted: each part
    receives approximately ``sum(weights)/nparts`` total weight.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {points.shape}")
    n = points.shape[0]
    if nparts < 1:
        raise ValueError(f"nparts must be >= 1, got {nparts}")
    if weights is None:
        weights = np.ones(n)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (n,):
            raise ValueError("weights must be (n,)")
        if (weights < 0).any():
            raise ValueError("weights must be non-negative")
    labels = np.zeros(n, dtype=np.int32)
    if nparts == 1 or n == 0:
        return labels
    _rcb(points, weights, np.arange(n), nparts, 0, labels)
    return labels


def _rcb(points: np.ndarray, weights: np.ndarray, idx: np.ndarray,
         nparts: int, offset: int, labels: np.ndarray) -> None:
    if nparts == 1 or len(idx) == 0:
        labels[idx] = offset
        return
    if len(idx) <= nparts:
        # degenerate: one point per part (some parts may stay empty only
        # when there are genuinely fewer points than parts)
        for i, v in enumerate(idx):
            labels[v] = offset + (i % nparts)
        return
    k_left = nparts // 2
    k_right = nparts - k_left
    sub = points[idx]
    spans = sub.max(axis=0) - sub.min(axis=0)
    axis = int(np.argmax(spans))
    order = np.argsort(sub[:, axis], kind="stable")
    w = weights[idx][order]
    total = w.sum()
    if total <= 0:
        # all-zero weights: split by count
        cut = len(idx) * k_left // nparts
    else:
        target = total * k_left / nparts
        cum = np.cumsum(w)
        cut = int(np.searchsorted(cum, target))
        # Each side must receive at least as many points as parts it will
        # be split into (we know len(idx) > nparts here).
        cut = max(k_left, min(cut, len(idx) - k_right))
    left = idx[order[:cut]]
    right = idx[order[cut:]]
    _rcb(points, weights, left, k_left, offset, labels)
    _rcb(points, weights, right, k_right, offset + k_left, labels)


def segmented_rcb(points: np.ndarray, bounds: np.ndarray,
                  nparts: np.ndarray) -> np.ndarray:
    """Unit-weight RCB of many segments at once.

    Segment ``i`` is ``points[bounds[i]:bounds[i + 1]]``, split into
    ``nparts[i]`` parts (0 is allowed for an empty segment).  Returns (n,)
    int32 segment-local labels, equal on every segment to
    ``rcb_partition(points[bounds[i]:bounds[i + 1]], nparts[i])``.

    Each level of the recursion handles every open segment in one pass:
    the widest axis comes from ``reduceat`` spans (``argmax`` picks the
    first maximum, as :func:`_rcb` does), and one stable ``lexsort`` keyed
    by (segment, coordinate) sorts all segments while keeping ties in
    their current order.  With unit weights the weighted-median search of
    :func:`_rcb` — the first ``i`` with ``cumsum(w)[i] = i + 1 >= n *
    k_left / nparts`` — is ``ceil(n * k_left / nparts) - 1``, computed here
    in integers; the float quotient of two integers below 2**53 never
    rounds across an integer, so the two agree exactly.
    """
    points = np.asarray(points, dtype=np.float64)
    bounds = np.asarray(bounds, dtype=np.int64)
    parts = np.asarray(nparts, dtype=np.int64)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {points.shape}")
    start = bounds[:-1]
    length = np.diff(bounds)
    if ((parts < 1) & (length > 0)).any():
        raise ValueError("nparts must be >= 1 for every non-empty segment")
    labels = np.zeros(points.shape[0], dtype=np.int32)
    perm = np.arange(points.shape[0])
    offset = np.zeros(len(start), dtype=np.int64)
    while len(start):
        whole = (parts == 1) | (length == 0)
        few = ~whole & (length <= parts)
        done = whole | few
        if done.any():
            # one part: every point gets the offset; no more points than
            # parts: one point per part (the round-robin of _rcb)
            pos, within = _segment_positions(start[done], length[done])
            spread = np.repeat(few[done], length[done])
            labels[perm[pos]] = (np.repeat(offset[done], length[done])
                                 + np.where(spread, within, 0))
        start, length, parts, offset = (
            start[~done], length[~done], parts[~done], offset[~done])
        if not len(start):
            break
        pos, _ = _segment_positions(start, length)
        idx = perm[pos]
        sub = points[idx]
        first = np.cumsum(length) - length
        spans = (np.maximum.reduceat(sub, first, axis=0)
                 - np.minimum.reduceat(sub, first, axis=0))
        axis = np.repeat(np.argmax(spans, axis=1), length)
        segment = np.repeat(np.arange(len(start)), length)
        perm[pos] = idx[np.lexsort((sub[np.arange(len(sub)), axis],
                                    segment))]
        k_left = parts // 2
        k_right = parts - k_left
        cut = (length * k_left + parts - 1) // parts - 1
        cut = np.maximum(k_left, np.minimum(cut, length - k_right))
        start = np.concatenate((start, start + cut))
        length = np.concatenate((cut, length - cut))
        parts = np.concatenate((k_left, k_right))
        offset = np.concatenate((offset, offset + k_left))
    return labels


def _segment_positions(start: np.ndarray, length: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Positions covered by the segments, concatenated, and each
    position's index within its segment."""
    first = np.cumsum(length) - length
    within = np.arange(int(length.sum())) - np.repeat(first, length)
    return np.repeat(start, length) + within, within
