"""Batched plan execution: one tuned plan, many right-hand sides.

Multi-RHS batching is the standard throughput lever for repeated SpMV
traffic: the matrix (and its plan) is read once per *batch* instead of
once per *vector*, so the bandwidth-bound matrix traffic and all
per-launch overheads amortise over ``k`` columns.  This module runs one
:class:`~repro.core.plan.ExecutionPlan` against an ``(ncols, k)`` block
on either backend:

- the :class:`~repro.device.executor.SimulatedDevice`, via a
  :class:`~repro.device.executor.BoundPlan` (plan charged once,
  bandwidth terms scaled by ``k``);
- the real :class:`~repro.device.cpu.CPUExecutor`, via its
  gather + ``reduceat`` SpMM path (wall-clock measured).

Column ``j`` of every batched result is bit-identical to the
single-vector execution on ``X[:, j]`` -- the differential suite pins
this down.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.plan import ExecutionPlan
from repro.device.cpu import CPUExecutor, PartitionStrategy
from repro.device.executor import (
    BoundPlan,
    SimulatedDevice,
    SpMMResult,
    SpMVResult,
    iter_column_blocks,
)
from repro.formats.csr import CSRMatrix
from repro.utils.validation import check_spmm_operand

__all__ = [
    "run_plan_spmv",
    "run_plan_spmm",
    "cpu_batch_spmm",
    "iter_column_blocks",
    "CPUBatchResult",
]


def run_plan_spmv(
    device: SimulatedDevice,
    matrix: CSRMatrix,
    v: np.ndarray,
    plan: ExecutionPlan,
) -> SpMVResult:
    """Execute a plan for one RHS, charging its binning overhead."""
    overhead = plan.scheme.overhead_seconds(matrix, device.spec)
    return device.run_spmv(matrix, v, plan.dispatches(),
                           extra_seconds=overhead)


def run_plan_spmm(
    device: SimulatedDevice,
    matrix: CSRMatrix,
    dense: np.ndarray,
    plan: ExecutionPlan,
    *,
    max_rhs: Optional[int] = None,
) -> SpMMResult:
    """Execute a plan against a multi-RHS block.

    The binning overhead is paid once for the whole block -- the plan is
    inspected once however wide the batch is.  Kernel launches are paid
    once per *pass*: without ``max_rhs`` (or when ``k <= max_rhs``) the
    whole block is one pass and launches amortise fully; with a cap the
    block is split into column blocks, each re-paying the plan's
    launches (see :meth:`~repro.device.executor.BoundPlan.run`), and
    the pass count is surfaced as ``SpMMResult.n_passes``.
    """
    dense = check_spmm_operand(matrix.ncols, dense)
    overhead = plan.scheme.overhead_seconds(matrix, device.spec)
    return BoundPlan(
        device, matrix, plan.dispatches(), extra_seconds=overhead
    ).run(matrix, dense, max_rhs)


@dataclass(frozen=True)
class CPUBatchResult:
    """Outcome of one wall-clock batched execution on the host CPU."""

    U: np.ndarray
    #: Measured wall seconds for the whole block.
    seconds: float
    n_rhs: int


def cpu_batch_spmm(
    executor: CPUExecutor,
    matrix: CSRMatrix,
    dense: np.ndarray,
    *,
    strategy: PartitionStrategy = PartitionStrategy.NNZ,
) -> CPUBatchResult:
    """Run a multi-RHS block on the real CPU executor, timed.

    The thread pool partitions rows exactly as for single-vector SpMV;
    each chunk computes all ``k`` columns in one gather + ``reduceat``
    pass, so the matrix is streamed once per batch.
    """
    t0 = time.perf_counter()
    U = executor.spmm(matrix, dense, strategy=strategy)
    return CPUBatchResult(
        U=U, seconds=time.perf_counter() - t0, n_rhs=dense.shape[1]
    )
