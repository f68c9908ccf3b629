"""Simulated device executor: run a binned plan, account its time.

The paper's framework executes SpMV as a *sequence of kernel launches*,
one per non-empty bin (each bin's rows processed by that bin's selected
kernel).  This module does the same in two steps, split along the
inspector--executor line:

- :class:`BoundPlan` binds a dispatch sequence to one matrix
  *structure*: it checks that the launches cover every row once,
  measures the gather locality and keeps each launch's rows and row
  lengths, the binning overhead, the launch cost and each launch's
  simulated seconds (memoised per batch width ``k``).  None of it
  depends on values or right-hand sides.
- :meth:`BoundPlan.run` executes it against a vector (SpMV) or an
  ``(ncols, k)`` block (SpMM, one pass per column block under a
  ``max_rhs`` cap) on its :class:`SimulatedDevice`.  Every launch
  gathers and reduces its rows for all columns at once and is charged
  its bound seconds plus the fixed launch overhead.

SpMV is the ``k = 1`` case of the same body, with the vector kept 1-D.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.device.dispatch import DispatchStats, dispatch_seconds
from repro.device.memory import effective_gather_locality
from repro.device.spec import DeviceSpec
from repro.errors import DeviceError
from repro.formats.csr import CSRMatrix
from repro.kernels.base import Kernel, row_products
from repro.observe.registry import MetricsRegistry, get_registry
from repro.observe.spans import current_trace, trace_event
from repro.utils.primitives import segmented_sum
from repro.utils.validation import check_spmm_operand, check_spmv_operand

__all__ = [
    "SimulatedDevice",
    "BoundPlan",
    "SpMVResult",
    "SpMMResult",
    "Dispatch",
    "iter_column_blocks",
]

#: One unit of launch work: a kernel and the actual row indices it covers.
Dispatch = Tuple[Kernel, np.ndarray]


@dataclass(frozen=True)
class SpMVResult:
    """Outcome of one simulated binned SpMV execution."""

    #: The numerical result vector (length = matrix rows).
    u: np.ndarray
    #: Total simulated seconds (kernel time + launch overheads).
    seconds: float
    #: Per-dispatch simulated seconds (excluding the fixed launch cost).
    dispatch_seconds: Tuple[float, ...]
    #: Seconds spent in fixed kernel-launch overhead.
    launch_seconds: float

    #: Right-hand sides served (always one).
    n_rhs = 1
    #: Dispatch sequences run (always one).
    n_passes = 1

    @property
    def y(self) -> np.ndarray:
        """The result, under the name :class:`SpMMResult` shares."""
        return self.u

    @property
    def n_dispatches(self) -> int:
        """Number of kernel launches the plan needed."""
        return len(self.dispatch_seconds)


@dataclass(frozen=True)
class SpMMResult:
    """Outcome of one simulated *batched* (multi-RHS) execution."""

    #: The numerical result block (``nrows x k``).
    U: np.ndarray
    #: Total simulated seconds (kernel time + launch overheads).
    seconds: float
    #: Per-dispatch simulated seconds (excluding the fixed launch cost).
    dispatch_seconds: Tuple[float, ...]
    #: Seconds spent in fixed kernel-launch overhead.
    launch_seconds: float
    #: Number of right-hand sides served.
    n_rhs: int
    #: Dispatch sequences that produced this result: 1 without a
    #: ``max_rhs`` cap, the number of column blocks when a cap made
    #: :meth:`BoundPlan.run` split the block (each pass re-pays the
    #: plan's kernel launches).
    n_passes: int = 1

    @property
    def y(self) -> np.ndarray:
        """The result, under the name :class:`SpMVResult` shares."""
        return self.U

    @property
    def n_dispatches(self) -> int:
        """Total kernel launches across all passes (independent of k)."""
        return len(self.dispatch_seconds)


def _scale_stats_for_rhs(stats: DispatchStats, n_rhs: int) -> DispatchStats:
    """Multi-RHS cost scaling for one dispatch.

    Streaming terms grow with the batch width: every extra column pays
    its own gather/store traffic and its own FMAs, so ``memory_lines``
    and the instruction counts scale by ``k``.  The latency chain does
    not -- the column walk that produces the dependent loads is traversed
    once, with the extra columns riding on the same ``colidx`` stream --
    and the dispatch geometry (waves, workgroups, LDS) is unchanged, so
    the plan's launch overhead is paid once however wide the batch is.
    """
    if n_rhs <= 1:
        return stats
    k = float(n_rhs)
    return DispatchStats(
        compute_instructions=stats.compute_instructions * k,
        longest_wave_instructions=stats.longest_wave_instructions * k,
        longest_dependent_iterations=stats.longest_dependent_iterations,
        memory_lines=stats.memory_lines * k,
        n_waves=stats.n_waves,
        n_workgroups=stats.n_workgroups,
        lds_bytes_per_wg=stats.lds_bytes_per_wg,
    )




def iter_column_blocks(k: int, width: int) -> Iterator[Tuple[int, int]]:
    """Yield ``[lo, hi)`` column ranges of at most ``width`` columns."""
    if width <= 0:
        raise ValueError(f"width must be > 0, got {width}")
    for lo in range(0, k, width):
        yield lo, min(lo + width, k)


def _check_coverage(matrix: CSRMatrix, dispatches: Sequence[Dispatch]) -> None:
    """Raise unless the dispatches partition the matrix's row set."""
    covered = np.concatenate(
        [np.asarray(rows, dtype=np.int64) for _, rows in dispatches]
    ) if dispatches else np.zeros(0, dtype=np.int64)
    if len(covered) != matrix.nrows or (
        len(covered)
        and not np.array_equal(np.sort(covered), np.arange(matrix.nrows))
    ):
        raise DeviceError(
            f"dispatches cover {len(covered)} rows "
            f"(unique {len(np.unique(covered))}), matrix has {matrix.nrows}"
        )


class BoundPlan:
    """A dispatch sequence bound to one matrix structure.

    Binding pays, once, everything that depends only on the sparsity
    structure: the coverage check, the gather locality, each launch's
    rows and row lengths, the fixed launch cost and ``extra_seconds``
    (e.g. the binning scheme's overhead); each launch's simulated
    seconds are costed on first use per batch width ``k`` and memoised.
    :meth:`run` then computes and sums, nothing else, so a bound plan
    kept across requests (the process backend's workers do) serves any
    matrix with the bound structure, whatever its values.

    Parameters
    ----------
    device:
        Runs every pass: its spec costs the launches, and its registry,
        tracing and any chaos wrapper observe them.
    matrix:
        The structure to bind to.
    dispatches:
        ``(kernel, row_indices)`` pairs; each non-empty pair becomes one
        kernel launch covering exactly those rows.  Empty row sets are
        skipped (no launch, no cost) -- the framework only launches
        non-empty bins.
    locality:
        Pre-computed gather locality; measured from the matrix when
        omitted.
    check_coverage:
        When true (default), verify the dispatches partition the row
        set -- a malformed plan raises instead of silently producing
        zeros or double-counted rows.
    extra_seconds:
        Accounted once per :meth:`run`, however many passes it takes.
    """

    __slots__ = ("device", "nrows", "dispatches", "locality",
                 "extra_seconds", "launch_cost", "_seconds")

    def __init__(
        self,
        device: "SimulatedDevice",
        matrix: CSRMatrix,
        dispatches: Sequence[Dispatch],
        *,
        locality: Optional[float] = None,
        check_coverage: bool = True,
        extra_seconds: float = 0.0,
    ):
        spec = device.spec
        self.device = device
        self.nrows = matrix.nrows
        self.locality = (effective_gather_locality(matrix, spec)
                         if locality is None else float(locality))
        if check_coverage:
            _check_coverage(matrix, dispatches)
        lengths = matrix.row_lengths()
        launches = ((kernel, np.asarray(rows, dtype=np.int64))
                    for kernel, rows in dispatches)
        #: ``(kernel, rows, row lengths)`` per launch, in launch order.
        self.dispatches = tuple(
            (kernel, rows, lengths[rows])
            for kernel, rows in launches if len(rows)
        )
        self.extra_seconds = extra_seconds
        #: Fixed overhead of one kernel launch.
        self.launch_cost = spec.seconds(spec.kernel_launch_cycles)
        self._seconds: Dict[int, Tuple[float, ...]] = {}

    def dispatch_seconds(self, k: int = 1) -> Tuple[float, ...]:
        """Simulated seconds of each launch at batch width ``k``
        (without the fixed launch cost), memoised per ``k``."""
        times = self._seconds.get(k)
        if times is None:
            times = tuple(
                self.device.time_dispatch(
                    kernel, lengths, self.locality,
                    include_launch=False, n_rhs=k,
                )
                for kernel, _rows, lengths in self.dispatches
            )
            self._seconds[k] = times
        return times

    def run(
        self,
        matrix: CSRMatrix,
        operand: np.ndarray,
        max_rhs: Optional[int] = None,
    ) -> Union[SpMVResult, SpMMResult]:
        """Execute against a vector or an ``(ncols, k)`` block.

        A 1-D ``operand`` yields an :class:`SpMVResult`, a 2-D one an
        :class:`SpMMResult`; ``matrix`` must have the bound structure
        and an operand of matching shape (callers validate it).  The
        whole block is one pass unless ``max_rhs`` caps its width: then
        every column block is a separate dispatch sequence that re-pays
        the plan's launches -- a capped-width device cannot launch one
        kernel over columns it never holds -- while ``extra_seconds`` is
        charged once for the call.
        """
        if operand.ndim == 1 or max_rhs is None or operand.shape[1] <= max_rhs:
            return self.device._run_pass(
                self, matrix, operand, self.extra_seconds
            )
        if max_rhs <= 0:
            raise ValueError(f"max_rhs must be > 0, got {max_rhs}")
        k = operand.shape[1]
        U = np.zeros((self.nrows, k))
        seconds = self.extra_seconds
        times: List[float] = []
        launch_s = 0.0
        n_passes = 0
        for lo, hi in iter_column_blocks(k, max_rhs):
            res = self.device._run_pass(self, matrix, operand[:, lo:hi], 0.0)
            U[:, lo:hi] = res.U
            seconds += res.seconds
            times.extend(res.dispatch_seconds)
            launch_s += res.launch_seconds
            n_passes += 1
        return SpMMResult(
            U=U,
            seconds=float(seconds),
            dispatch_seconds=tuple(times),
            launch_seconds=launch_s,
            n_rhs=k,
            n_passes=n_passes,
        )


class SimulatedDevice:
    """Executes kernel dispatch sequences on the analytical device model.

    Parameters
    ----------
    spec:
        Device constants; defaults to the paper's Kaveri APU.
    registry:
        Metrics registry receiving per-kernel dispatch counters
        (``device_dispatches_total{kernel=...}``), per-kernel simulated
        dispatch-time histograms and the accumulated launch-overhead
        counter.  Defaults to the process-global registry.
    """

    def __init__(
        self,
        spec: Optional[DeviceSpec] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.spec = spec if spec is not None else DeviceSpec.kaveri_apu()
        self.registry = get_registry() if registry is None else registry
        self._m_launch_seconds = self.registry.counter(
            "device_kernel_launch_seconds_total",
            help_text="Simulated seconds of fixed kernel-launch overhead.",
        )

    def _record_dispatch(self, kernel: Kernel, seconds: float,
                         op: str) -> None:
        """Feed one kernel launch into the registry."""
        labels = {"kernel": kernel.name, "op": op}
        self.registry.counter(
            "device_dispatches_total", labels,
            help_text="Kernel launches per kernel and operation.",
        ).inc()
        self.registry.histogram(
            "device_dispatch_seconds", labels,
            help_text="Simulated seconds per kernel launch "
                      "(excluding fixed launch overhead).",
        ).observe(seconds)

    # ------------------------------------------------------------------
    def time_dispatch(
        self,
        kernel: Kernel,
        row_lengths: np.ndarray,
        locality: float,
        *,
        include_launch: bool = True,
        n_rhs: int = 1,
    ) -> float:
        """Simulated seconds for one kernel launch over the given rows.

        ``n_rhs > 1`` accounts a batched (multi-RHS) launch: bandwidth
        and instruction terms scale with the batch width while the
        launch overhead stays fixed (see :func:`_scale_stats_for_rhs`).
        """
        stats = _scale_stats_for_rhs(
            kernel.cost(row_lengths, locality, self.spec), n_rhs
        )
        t = dispatch_seconds(stats, self.spec)
        if include_launch and len(np.atleast_1d(row_lengths)) > 0:
            t += self.spec.seconds(self.spec.kernel_launch_cycles)
        return t

    # ------------------------------------------------------------------
    def run_spmv(
        self,
        matrix: CSRMatrix,
        v: np.ndarray,
        dispatches: Sequence[Dispatch],
        *,
        locality: Optional[float] = None,
        check_coverage: bool = True,
        extra_seconds: float = 0.0,
    ) -> SpMVResult:
        """Execute a binned SpMV plan: bind it, then run it once.

        ``dispatches``, ``locality``, ``check_coverage`` and
        ``extra_seconds`` are as for :class:`BoundPlan`.
        """
        v = check_spmv_operand(matrix.ncols, v)
        return BoundPlan(
            self, matrix, dispatches, locality=locality,
            check_coverage=check_coverage, extra_seconds=extra_seconds,
        ).run(matrix, v)

    def run_spmm(
        self,
        matrix: CSRMatrix,
        dense: np.ndarray,
        dispatches: Sequence[Dispatch],
        *,
        locality: Optional[float] = None,
        check_coverage: bool = True,
        extra_seconds: float = 0.0,
    ) -> SpMMResult:
        """Execute one binned plan against a multi-RHS block ``(ncols, k)``.

        The same dispatch sequence as :meth:`run_spmv` runs *once*, each
        launch computing all ``k`` output columns of its rows in a
        single gather + ``reduceat`` pass.  Column ``j`` of the result
        is bit-identical to ``run_spmv(matrix, dense[:, j],
        dispatches).u``; simulated time charges each launch (and
        ``extra_seconds``) once, with bandwidth/instruction terms scaled
        by ``k``.
        """
        dense = check_spmm_operand(matrix.ncols, dense)
        return BoundPlan(
            self, matrix, dispatches, locality=locality,
            check_coverage=check_coverage, extra_seconds=extra_seconds,
        ).run(matrix, dense)

    # ------------------------------------------------------------------
    def _run_pass(
        self,
        bound: BoundPlan,
        matrix: CSRMatrix,
        operand: np.ndarray,
        extra_seconds: float,
    ) -> Union[SpMVResult, SpMMResult]:
        """One dispatch sequence of ``bound`` over a vector or a block.

        The execution body of every path: each launch gathers and
        reduces its rows for every column at once, is charged its bound
        simulated seconds, is counted in the registry and -- inside a
        trace -- is recorded as a ``device.dispatch`` event.  A chaos
        wrapper injects its faults here, once per pass.
        """
        batch = operand.ndim == 2
        k = operand.shape[1] if batch else 1
        op = "spmm" if batch else "spmv"
        out = np.zeros((bound.nrows,) + operand.shape[1:])
        times = bound.dispatch_seconds(k)
        # One boolean decides per-launch tracing for the whole loop;
        # untraced runs pay a single thread-local read, nothing per
        # dispatch.
        traced = current_trace() is not None
        for (kernel, rows, _lengths), t in zip(bound.dispatches, times):
            if traced:
                w0 = perf_counter()
            products, offsets = row_products(matrix, operand, rows)
            out[rows] = segmented_sum(products, offsets)
            if traced:
                attrs = {"kernel": kernel.name, "op": op,
                         "rows": int(len(rows))}
                if batch:
                    attrs["n_rhs"] = k
                attrs["simulated_seconds"] = t
                trace_event("device.dispatch", w0, perf_counter(),
                            attrs=attrs)
            self._record_dispatch(kernel, t, op=op)
        launch_s = len(times) * bound.launch_cost
        self._m_launch_seconds.inc(launch_s)
        total = float(sum(times) + launch_s + extra_seconds)
        if batch:
            return SpMMResult(U=out, seconds=total, dispatch_seconds=times,
                              launch_seconds=launch_s, n_rhs=k)
        return SpMVResult(u=out, seconds=total, dispatch_seconds=times,
                          launch_seconds=launch_s)
