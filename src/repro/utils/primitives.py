"""Parallel-algorithm primitives mirrored from the GPU building blocks.

The paper's kernels are built from three primitives: prefix sums (used to
build CSR row pointers and bin offsets), segmented reductions (the
``seg_parallel_red`` of *Kernel-SubvectorX*), and full work-group tree
reductions (the ``parallel_red`` of *Kernel-Vector*).  This module
implements each of them with vectorised NumPy.

:func:`segmented_reduce_tree` deliberately reproduces the *association
order* of a binary tree reduction (pairwise halving) rather than calling
``np.sum``, so that the floating-point result of the simulated kernels
matches what the OpenCL kernels would produce lane-for-lane.  The cheap
``reduceat``-based :func:`segmented_sum` is used on cost-model paths where
association order does not matter.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_1d

__all__ = [
    "exclusive_scan",
    "inclusive_scan",
    "segment_ids_from_offsets",
    "segmented_sum",
    "segmented_max",
    "segmented_reduce_tree",
]


def inclusive_scan(values: np.ndarray) -> np.ndarray:
    """Inclusive prefix sum of a 1-D array (``out[i] = sum(values[:i+1])``)."""
    values = check_1d(values, "values")
    return np.cumsum(values)


def exclusive_scan(values: np.ndarray, *, dtype=None) -> np.ndarray:
    """Exclusive prefix sum with the total appended.

    Returns an array of length ``len(values) + 1`` whose first element is
    zero and whose last element is the grand total -- exactly the shape of
    a CSR ``rowptr`` built from per-row counts.

    >>> exclusive_scan(np.array([1, 2, 3]))
    array([0, 1, 3, 6])
    """
    values = check_1d(values, "values")
    if dtype is None:
        dtype = values.dtype if values.dtype.kind in "iu" else np.int64
    out = np.zeros(len(values) + 1, dtype=dtype)
    np.cumsum(values, out=out[1:])
    return out


def segment_ids_from_offsets(offsets: np.ndarray, total: int | None = None) -> np.ndarray:
    """Expand CSR-style ``offsets`` into one segment id per element.

    ``offsets`` has length ``nsegments + 1``; the result has length
    ``offsets[-1]`` (or ``total`` if given, which must match) and maps each
    element to the segment containing it.  Empty segments are skipped.

    >>> segment_ids_from_offsets(np.array([0, 2, 2, 5]))
    array([0, 0, 2, 2, 2])
    """
    offsets = check_1d(offsets, "offsets")
    if len(offsets) == 0:
        raise ValueError("offsets must have at least one element")
    n = int(offsets[-1])
    if total is not None and total != n:
        raise ValueError(f"total={total} does not match offsets[-1]={n}")
    nseg = len(offsets) - 1
    ids = np.zeros(n, dtype=np.int64)
    starts = offsets[:-1]
    # Mark segment starts; empty segments contribute repeated marks that
    # accumulate correctly under cumsum of scattered +1 deltas.
    np.add.at(ids, starts[starts < n], 1)
    np.cumsum(ids, out=ids)
    ids -= 1
    # Elements before the first non-empty segment start cannot exist
    # (offsets[0] is by convention 0), but guard anyway.
    np.clip(ids, 0, max(nseg - 1, 0), out=ids)
    return ids


def segmented_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment sums along axis 0 for CSR-style ``offsets``.

    ``values`` is 1-D or an ``(n, k)`` block; the result has one entry
    (or one row) per segment, zero for empty segments.  Column ``j`` of
    a block result is exactly ``segmented_sum(values[:, j], offsets)``
    -- ``reduceat`` adds the same elements in the same order whether it
    walks a 1-D column or axis 0 of the block, so batched SpMV stays
    bit-identical to ``k`` independent single-vector passes.
    """
    values = np.asarray(values)
    offsets = check_1d(offsets, "offsets")
    nseg = len(offsets) - 1
    if nseg <= 0:
        return np.zeros((0,) + values.shape[1:], dtype=values.dtype)
    out = np.zeros((nseg,) + values.shape[1:],
                   dtype=np.result_type(values.dtype, np.float64)
                   if values.dtype.kind == "f" else values.dtype)
    starts = np.asarray(offsets[:-1], dtype=np.int64)
    ends = np.asarray(offsets[1:], dtype=np.int64)
    nonempty = ends > starts
    if not np.any(nonempty):
        return out
    # ``reduceat`` misbehaves on empty segments (repeats the next value),
    # so reduce only the non-empty ones and scatter back.
    out[nonempty] = np.add.reduceat(values, starts[nonempty], axis=0)
    return out


def segmented_max(values: np.ndarray, offsets: np.ndarray, *, empty=0) -> np.ndarray:
    """Per-segment maxima for CSR-style ``offsets`` (empty segments -> ``empty``)."""
    values = check_1d(values, "values")
    offsets = check_1d(offsets, "offsets")
    nseg = len(offsets) - 1
    if nseg <= 0:
        return np.zeros(0, dtype=values.dtype)
    out = np.full(nseg, empty, dtype=values.dtype)
    starts = np.asarray(offsets[:-1], dtype=np.int64)
    ends = np.asarray(offsets[1:], dtype=np.int64)
    nonempty = ends > starts
    if not np.any(nonempty):
        return out
    out[nonempty] = np.maximum.reduceat(values, starts[nonempty])
    return out


def segmented_reduce_tree(buffer: np.ndarray, seg_width: int) -> np.ndarray:
    """Tree-reduce every ``seg_width`` consecutive elements of ``buffer``.

    This reproduces the pairwise association order of the GPU segmented
    parallel reduction: at step ``s`` lane ``i`` adds lane ``i + 2**s``
    within its segment.  ``seg_width`` must be a power of two and must
    divide ``len(buffer)``.

    Returns one value per segment (the value lane 0 would hold).
    """
    buffer = check_1d(buffer, "buffer")
    if seg_width <= 0 or (seg_width & (seg_width - 1)) != 0:
        raise ValueError(f"seg_width must be a positive power of two, got {seg_width}")
    if len(buffer) % seg_width != 0:
        raise ValueError(
            f"buffer length {len(buffer)} is not a multiple of seg_width {seg_width}"
        )
    work = buffer.reshape(-1, seg_width).copy()
    stride = seg_width // 2
    while stride >= 1:
        work[:, :stride] += work[:, stride : 2 * stride]
        stride //= 2
    return work[:, 0].copy()
