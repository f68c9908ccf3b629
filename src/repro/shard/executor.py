"""Sharded execution: per-shard plans on a pool of concurrent devices.

One level above the paper's binning: the :class:`ShardedExecutor`
partitions a matrix into row-shards (:mod:`repro.shard.partition`),
plans *each shard independently* (a long-tail shard can pick
``kernel-vector`` while the banded bulk gets ``kernel-subvector4``),
executes the per-shard plans concurrently -- one simulated device per
shard slot, driven by a thread pool -- and scatter-gathers the output
vector by row range.

Accounting follows the parallel-hardware model: the executor's
``seconds`` is the *makespan* (the slowest shard's simulated seconds),
because the shards run on independent devices; the per-shard times and
their imbalance ratio (max/mean, the metric the paper's load-balancing
story is about) are surfaced alongside.  The host-side gather is real
wall time and is recorded as a metric, not added to simulated time.

Resilience is per shard: with a
:class:`~repro.resilient.ResiliencePolicy`, a failing shard retries,
trips its own breaker and degrades to the serial reference path on the
unwrapped device -- without poisoning its sibling shards, which complete
normally.

Observability: ``shard.partition`` / ``shard.plan`` / ``shard.execute``
/ ``shard.gather`` spans plus ``shard_*`` metrics (shard count,
imbalance-ratio histogram, gather-time histogram, degraded-shard
counter) land in the metrics registry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.plan import ExecutionPlan, fallback_plan
from repro.device.executor import SimulatedDevice
from repro.errors import DeviceError
from repro.formats.csr import CSRMatrix
from repro.observe.registry import MetricsRegistry, get_registry
from repro.observe.spans import activate_trace, span, trace_event
from repro.trace.context import TraceContext, capture_context
from repro.resilient.executor import ResiliencePolicy, ResilientExecutor
from repro.resilient.faults import unwrap_device
from repro.serve.batch import run_plan_spmm, run_plan_spmv
from repro.serve.fingerprint import (
    FingerprintCache,
    MatrixFingerprint,
    fingerprint_matrix,
)
from repro.serve.plan_cache import CacheStats, PlanCache
from repro.shard.backend import (
    ExecutionBackend,
    InlineShardBackend,
    ProcessShardBackend,
    ThreadShardBackend,
    WorkerCrashError,
)
from repro.shard.partition import (
    PartitionStrategy,
    ShardDescriptor,
    extract_row_block,
    make_shards,
)
from repro.utils.validation import check_spmm_operand, check_spmv_operand

__all__ = [
    "ShardingPolicy",
    "ShardSummary",
    "ShardedResult",
    "ShardExecutorStats",
    "ShardedExecutor",
]

#: Bound on cached (descriptors, shard fingerprints) shard sets.
_SHARD_SET_CAPACITY = 32

#: Signature of anything that can produce a plan for one shard matrix.
Planner = Callable[[CSRMatrix], ExecutionPlan]

#: Imbalance-ratio histogram buckets (ratio = max/mean shard seconds;
#: 1.0 is perfect balance, >2 means one shard dominates the makespan).
_IMBALANCE_BUCKETS = (1.0, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 25.0)


@dataclass(frozen=True)
class ShardingPolicy:
    """How a matrix is sharded across workers.

    Parameters
    ----------
    n_shards:
        Requested shard count ``K``; the effective count can be smaller
        when the matrix has fewer rows (empty row ranges are dropped).
    strategy:
        ``ROWS`` for equal row counts, ``NNZ`` (default) for
        equal-non-zero balancing -- the same trade-off as the CPU
        executor's thread partitioning, one level up.
    max_workers:
        Thread-pool width executing shards; defaults to ``n_shards``.
    plan_cache_capacity:
        Bound on cached per-shard plans (keyed by shard fingerprint).
    backend:
        Where shard work runs -- ``ExecutionBackend.THREAD`` (default,
        the legacy pool; faithful simulation accounting, wall-clock
        GIL-bound), ``INLINE`` (sequential on the caller thread, the
        differential baseline) or ``PROCESS`` (a process pool over
        shared-memory CSR blocks -- the wall-clock path).  A string
        (``"process"``) is accepted and coerced.
    process_workers:
        Process-pool width (``PROCESS`` backend only); defaults to
        ``min(n_shards, os.cpu_count())``.
    """

    n_shards: int = 4
    strategy: PartitionStrategy = PartitionStrategy.NNZ
    max_workers: Optional[int] = None
    plan_cache_capacity: int = 256
    backend: ExecutionBackend = ExecutionBackend.THREAD
    process_workers: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "backend", ExecutionBackend.coerce(self.backend)
        )
        if self.n_shards <= 0:
            raise ValueError(f"n_shards must be > 0, got {self.n_shards}")
        if self.max_workers is not None and self.max_workers <= 0:
            raise ValueError(
                f"max_workers must be > 0, got {self.max_workers}"
            )
        if self.plan_cache_capacity <= 0:
            raise ValueError(
                f"plan_cache_capacity must be > 0, "
                f"got {self.plan_cache_capacity}"
            )
        if self.process_workers is not None and self.process_workers <= 0:
            raise ValueError(
                f"process_workers must be > 0, got {self.process_workers}"
            )


@dataclass(frozen=True)
class ShardSummary:
    """Array-free view of one sharded execution (rides on SubmitResult)."""

    #: Effective shard count (after dropping empty row ranges).
    n_shards: int
    #: Simulated seconds per shard, in shard order.
    shard_seconds: Tuple[float, ...]
    #: max/mean of ``shard_seconds`` (1.0 = perfectly balanced).
    imbalance: float
    #: Sum of ``shard_seconds`` (the serial-equivalent simulated cost).
    total_shard_seconds: float
    #: Shard ids served by the degraded serial path.
    degraded_shards: Tuple[int, ...]
    #: Host wall seconds spent scattering shard outputs into place.
    gather_seconds: float


@dataclass(frozen=True)
class ShardedResult:
    """Outcome of one sharded SpMV/SpMM execution."""

    #: Result: shape ``(nrows,)`` for SpMV, ``(nrows, k)`` for SpMM.
    y: np.ndarray
    #: Simulated makespan: the slowest shard's seconds (shards run on
    #: independent devices concurrently).
    seconds: float
    #: Kernel launches summed across all shards.
    n_dispatches: int
    #: True when every shard's plan came from the plan cache.
    cache_hit: bool
    #: Tuned-plan attempts summed across shards (equals the shard count
    #: without resilience).
    attempts: int
    #: Right-hand sides served (1 for SpMV).
    n_rhs: int
    summary: ShardSummary

    @property
    def n_shards(self) -> int:
        """Effective shard count of this execution."""
        return self.summary.n_shards

    @property
    def imbalance(self) -> float:
        """max/mean shard simulated seconds (1.0 = perfect balance)."""
        return self.summary.imbalance

    @property
    def degraded_shards(self) -> Tuple[int, ...]:
        """Shard ids that fell back to the serial reference path."""
        return self.summary.degraded_shards


@dataclass(frozen=True)
class ShardExecutorStats:
    """Point-in-time snapshot of one executor's accounting."""

    #: ``run_spmv`` + ``run_spmm`` calls served.
    executions: int
    #: Shards executed across all calls.
    shards_executed: int
    #: Shards served by the degraded serial path.
    degraded_shards: int
    #: Worst imbalance ratio seen so far (0.0 before the first run).
    max_imbalance: float
    #: Per-shard plan-cache counters.
    cache: CacheStats

    def describe(self) -> str:
        """Readable one-per-line summary (CLI / logs)."""
        return "\n".join([
            f"executions         : {self.executions} "
            f"({self.shards_executed} shards, "
            f"{self.degraded_shards} degraded)",
            f"worst imbalance    : {self.max_imbalance:.2f}x (max/mean)",
            f"shard plan cache   : {self.cache.hits} hits / "
            f"{self.cache.misses} misses "
            f"(hit rate {self.cache.hit_rate:.1%})",
        ])


@dataclass(frozen=True)
class _ShardContribution:
    """Backend-neutral per-shard outcome (what the gather consumes)."""

    descriptor: ShardDescriptor
    y: np.ndarray
    seconds: float
    n_dispatches: int
    attempts: int
    degraded: bool

    @classmethod
    def of(cls, descriptor: ShardDescriptor, result, attempts: int = 1,
           degraded: bool = False) -> "_ShardContribution":
        """From any result with ``y``/``seconds``/``n_dispatches``: a
        device result or a worker's :class:`ShardRunReport`."""
        return cls(descriptor, result.y, result.seconds,
                   result.n_dispatches, attempts, degraded)


def _run_plan(device: SimulatedDevice, matrix: CSRMatrix, rhs: np.ndarray,
              plan: ExecutionPlan, max_rhs: Optional[int]):
    """``run_plan_spmm`` for a block, ``run_plan_spmv`` for a vector.

    Looked up through this module's names, so a tracer that wraps them
    here (the benchmark's traced run does) sees every execution.
    """
    if rhs.ndim == 2:
        return run_plan_spmm(device, matrix, rhs, plan, max_rhs=max_rhs)
    return run_plan_spmv(device, matrix, rhs, plan)


def _finite(result) -> bool:
    """Resilience validator: no NaN/Inf in the shard's output."""
    return bool(np.isfinite(result.y).all())


class ShardedExecutor:
    """Plan and execute row-shards concurrently, one device per shard.

    Parameters
    ----------
    policy:
        Shard count, balancing strategy, worker-pool width.
    planner:
        Per-shard planner (a fitted tuner's ``plan`` or the serve
        layer's heuristic); each shard's sub-matrix is planned as a
        matrix in its own right.  Defaults to
        :func:`~repro.serve.server.heuristic_planner`.
    device_factory:
        Builds one :class:`SimulatedDevice` per shard slot (workers
        must not share mutable device state with each other in general;
        the simulated device happens to be pure, but a chaos wrapper is
        not).  Defaults to fresh Kaveri devices on ``registry``.
    resilience:
        Optional per-shard resilience: retries + breaker + degradation
        to the serial path on the unwrapped device.  A failing shard
        degrades alone; its siblings complete normally.
    registry:
        Metrics registry for ``shard_*`` instruments and spans.
    """

    def __init__(
        self,
        policy: ShardingPolicy = ShardingPolicy(),
        *,
        planner: Optional[Planner] = None,
        device_factory: Optional[Callable[[], SimulatedDevice]] = None,
        resilience: Optional[ResiliencePolicy] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.policy = policy
        self.registry = get_registry() if registry is None else registry
        if planner is None:
            from repro.serve.server import heuristic_planner

            planner = heuristic_planner
        self._planner = planner
        factory = device_factory or (
            lambda: SimulatedDevice(registry=self.registry)
        )
        self.devices: Tuple[SimulatedDevice, ...] = tuple(
            factory() for _ in range(policy.n_shards)
        )
        self.cache = PlanCache(
            capacity=policy.plan_cache_capacity, registry=self.registry
        )
        self.resilience = resilience
        self._resilient = (
            ResilientExecutor(resilience, registry=self.registry)
            if resilience is not None else None
        )
        if policy.backend is ExecutionBackend.PROCESS:
            self._backend = ProcessShardBackend(
                n_workers=policy.process_workers,
                n_shards_hint=policy.n_shards,
                device_spec=self.devices[0].spec,
                registry=self.registry,
            )
        elif policy.backend is ExecutionBackend.INLINE:
            self._backend = InlineShardBackend()
        else:
            self._backend = ThreadShardBackend(
                policy.max_workers or policy.n_shards
            )
        self._fingerprints = FingerprintCache()
        # Parent digest -> (descriptors, shard fingerprints), so a warm
        # request skips partitioning and per-shard hashing, and
        # invalidate(digest) can drop exactly the matching shard plans.
        # Descriptors carry no arrays -- the current request's values
        # always come from row-block views of the current matrix (or
        # the shared segment, on the process backend).
        self._shard_sets: "OrderedDict[str, tuple]" = OrderedDict()
        self._closed = False
        self._lock = threading.Lock()
        self._executions = 0
        self._shards_executed = 0
        self._degraded_shards = 0
        self._max_imbalance = 0.0
        self._m_executions = self.registry.counter(
            "shard_executions_total",
            help_text="Sharded run_spmv/run_spmm calls served.",
        )
        self._m_shards = self.registry.counter(
            "shard_shards_executed_total",
            help_text="Shards executed across all sharded calls.",
        )
        self._m_degraded = self.registry.counter(
            "shard_degraded_total",
            help_text="Shards served by the degraded serial path.",
        )
        self._m_count = self.registry.gauge(
            "shard_count",
            help_text="Effective shard count of the most recent "
                      "sharded execution.",
        )
        self._m_imbalance = self.registry.histogram(
            "shard_imbalance_ratio",
            buckets=_IMBALANCE_BUCKETS,
            help_text="max/mean per-shard simulated seconds per "
                      "execution (1.0 = perfectly balanced).",
        )
        self._m_gather = self.registry.histogram(
            "shard_gather_seconds",
            help_text="Host wall seconds scattering shard outputs "
                      "into the result.",
        )

    # -- lifecycle -------------------------------------------------------
    def __enter__(self) -> "ShardedExecutor":
        if self._closed:
            raise DeviceError(
                "ShardedExecutor is closed; create a new instance"
            )
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut the execution backend down permanently (idempotent).

        For the thread backend this joins the worker pool; for the
        process backend it also unlinks every published shared-memory
        segment (leak-free teardown -- attaching one of its segment
        names afterwards raises ``FileNotFoundError``).  A closed
        executor raises :class:`~repro.errors.DeviceError` on further
        ``run_spmv``/``run_spmm`` calls -- use-after-close is a caller
        bug, mirroring :class:`~repro.device.cpu.CPUExecutor`.
        """
        self._backend.close()
        self._closed = True

    @property
    def closed(self) -> bool:
        """True once :meth:`close` (or ``__exit__``) has run."""
        return self._closed

    @property
    def backend(self):
        """The live execution backend (kind, chaos hooks, restart count)."""
        return self._backend

    def _check_open(self) -> None:
        if self._closed:
            raise DeviceError(
                "ShardedExecutor used after close(); create a new instance"
            )

    # -- partitioning + planning -----------------------------------------
    def _partition(
        self, matrix: CSRMatrix, digest: str
    ) -> Tuple[Tuple[ShardDescriptor, ...], Tuple[MatrixFingerprint, ...]]:
        """Shard descriptors and per-shard fingerprints, cached per digest.

        Both depend on the structure alone, so only the first request
        for a structure (or the first after :meth:`invalidate`) pays
        the partition and the shard hashes; warm requests of every
        backend take row-block views of the current matrix instead.
        The fingerprints key the per-shard plan cache and breakers.
        """
        with self._lock:
            cached = self._shard_sets.get(digest)
            if cached is not None:
                self._shard_sets.move_to_end(digest)
                return cached
        with span("shard.partition", self.registry):
            shards = make_shards(
                matrix, self.policy.n_shards, self.policy.strategy,
                with_features=False,
            )
            entry = (
                tuple(s.descriptor for s in shards),
                tuple(fingerprint_matrix(s.matrix) for s in shards),
            )
        with self._lock:
            self._shard_sets[digest] = entry
            while len(self._shard_sets) > _SHARD_SET_CAPACITY:
                self._shard_sets.popitem(last=False)
        return entry

    def _plan_shards(
        self,
        matrix: CSRMatrix,
        descriptors: Sequence[ShardDescriptor],
        fps: Sequence[MatrixFingerprint],
    ) -> Tuple[List[ExecutionPlan], bool]:
        """Plan every shard through the per-shard cache.

        Returns ``(plans, all_hit)``; ``all_hit`` is True when no shard
        needed a fresh planner run.  A miss plans the shard's row block
        as a matrix in its own right.
        """
        plans: List[ExecutionPlan] = []
        all_hit = True
        with span("shard.plan", self.registry):
            for d, fp in zip(descriptors, fps):
                plan, hit = self.cache.get_or_build(
                    fp, lambda d=d: self._planner(
                        extract_row_block(matrix, d.row_lo, d.row_hi)
                    )
                )
                plans.append(plan)
                all_hit &= hit
        return plans, all_hit

    def _shard_set_for(
        self, matrix: CSRMatrix, digest: str
    ) -> Tuple[Tuple[ShardDescriptor, ...], List[ExecutionPlan], bool]:
        """Descriptors, per-shard plans and ``all_hit`` for one structure
        (what driving a backend's ``execute`` directly needs)."""
        descriptors, fps = self._partition(matrix, digest)
        return (descriptors, *self._plan_shards(matrix, descriptors, fps))

    # -- shard workers ---------------------------------------------------
    def _run_shard(
        self,
        matrix: CSRMatrix,
        descriptor: ShardDescriptor,
        fp: MatrixFingerprint,
        plan: ExecutionPlan,
        rhs: np.ndarray,
        max_rhs: Optional[int],
        trace_ctx: Optional[TraceContext],
    ) -> _ShardContribution:
        """Execute one shard on its own device (worker-thread body).

        ``trace_ctx`` is the submitting request's trace, captured on
        the submitting thread; activating it here parents this worker's
        spans to the request's ``shard.execute`` stage across the
        thread boundary.
        """
        if trace_ctx is None:
            return self._execute_shard(
                matrix, descriptor, fp, plan, rhs, max_rhs
            )
        with activate_trace(trace_ctx):
            with span("shard.worker", self.registry,
                      attrs={"shard": descriptor.shard_id,
                             "rows": descriptor.n_rows}):
                return self._execute_shard(
                    matrix, descriptor, fp, plan, rhs, max_rhs
                )

    def _execute_shard(
        self,
        matrix: CSRMatrix,
        descriptor: ShardDescriptor,
        fp: MatrixFingerprint,
        plan: ExecutionPlan,
        rhs: np.ndarray,
        max_rhs: Optional[int],
    ) -> _ShardContribution:
        block = extract_row_block(matrix, descriptor.row_lo, descriptor.row_hi)
        device = self.devices[descriptor.shard_id % len(self.devices)]

        def _tuned():
            return _run_plan(device, block, rhs, plan, max_rhs)

        if self._resilient is None:
            return _ShardContribution.of(descriptor, _tuned())
        result, outcome = self._resilient.execute(
            fp,
            _tuned,
            fallback=lambda: _run_plan(
                unwrap_device(device), block, rhs, fallback_plan(block),
                max_rhs,
            ),
            validate=_finite,
            on_degrade=lambda cause: self.cache.invalidate(fp),
        )
        return _ShardContribution.of(
            descriptor, result, outcome.attempts, outcome.degraded
        )

    # -- execution -------------------------------------------------------
    def run_spmv(
        self,
        matrix: CSRMatrix,
        x: np.ndarray,
        *,
        fingerprint: Optional[MatrixFingerprint] = None,
    ) -> ShardedResult:
        """Sharded SpMV: partition, plan per shard, execute, gather.

        ``fingerprint`` lets a caller that already fingerprinted the
        matrix (the server) hand the identity down; the shard-set cache
        (and the process backend's shared segments) key on it.
        """
        x = check_spmv_operand(matrix.ncols, x)
        return self._run(matrix, x, None, fingerprint)

    def run_spmm(
        self,
        matrix: CSRMatrix,
        dense: np.ndarray,
        *,
        max_rhs: Optional[int] = None,
        fingerprint: Optional[MatrixFingerprint] = None,
    ) -> ShardedResult:
        """Sharded multi-RHS execution; each shard runs the whole block."""
        dense = check_spmm_operand(matrix.ncols, dense)
        return self._run(matrix, dense, max_rhs, fingerprint)

    def _run(
        self,
        matrix: CSRMatrix,
        rhs: np.ndarray,
        max_rhs: Optional[int],
        fingerprint: Optional[MatrixFingerprint],
    ) -> ShardedResult:
        """The body of both entry points: a vector and a block alike."""
        self._check_open()
        fp = (fingerprint if fingerprint is not None
              else self._fingerprints.fingerprint(matrix))
        descriptors, shard_fps = self._partition(matrix, fp.digest)
        plans, all_hit = self._plan_shards(matrix, descriptors, shard_fps)
        with span("shard.execute", self.registry):
            # Captured inside the stage span so worker spans parent to
            # it (not to the whole request) across the thread hop.
            ctx = capture_context()
            if isinstance(self._backend, ProcessShardBackend):
                contributions = self._run_process(
                    matrix, fp, descriptors, plans, rhs, max_rhs, ctx
                )
            else:
                contributions = self._backend.run_tasks([
                    (lambda d=d, shard_fp=shard_fp, plan=plan:
                        self._run_shard(matrix, d, shard_fp, plan, rhs,
                                        max_rhs, ctx))
                    for d, shard_fp, plan in zip(
                        descriptors, shard_fps, plans
                    )
                ])
        return self._finalize(matrix, rhs, contributions, all_hit)

    # -- invalidation ----------------------------------------------------
    def invalidate(self, digest: str) -> bool:
        """Drop every cached artefact derived from this parent digest.

        Three layers go stale together and must be dropped together:
        the (descriptors, fingerprints) shard-set entry, the per-shard
        plan-cache entries it references, and the backend's own state
        (the process backend's pre-pickled spec blobs plus a generation
        bump that forces worker-side bound plans to rebind on the next
        dispatch).  Returns True when any cached state was dropped.
        """
        with self._lock:
            entry = self._shard_sets.pop(digest, None)
        dropped = entry is not None
        for fp in entry[1] if entry is not None else ():
            dropped |= self.cache.invalidate(fp)
        self._backend.invalidate(digest)
        return dropped

    def clear_caches(self) -> None:
        """Drop every cached plan, shard set and fingerprint (all digests).

        The counters survive, mirroring :meth:`PlanCache.clear`; the
        backend invalidates every digest it has served so worker-side
        bound plans rebind on the next dispatch.
        """
        with self._lock:
            self._shard_sets.clear()
        self.cache.clear()
        self._fingerprints.clear()
        self._backend.invalidate_all()

    # -- process backend path --------------------------------------------
    def _run_process(
        self,
        matrix: CSRMatrix,
        fp: MatrixFingerprint,
        descriptors: Sequence[ShardDescriptor],
        plans: Sequence[ExecutionPlan],
        rhs: np.ndarray,
        max_rhs: Optional[int],
        ctx: Optional[TraceContext],
    ) -> List[_ShardContribution]:
        backend: ProcessShardBackend = self._backend
        trace_ref = (
            (ctx.trace_id, ctx.span_id) if ctx is not None else (None, None)
        )
        try:
            reports = backend.execute(
                matrix, fp.digest, descriptors, plans, rhs,
                batch=rhs.ndim == 2, max_rhs=max_rhs, trace_ref=trace_ref,
            )
        except WorkerCrashError:
            # Dead worker == shard fault: every shard of the broken
            # dispatch re-drives through the resilience path (remote
            # retry on the healed pool, serial parent-side fallback).
            return [
                self._process_shard_fault(
                    matrix, fp, d, plan, rhs, max_rhs, trace_ref
                )
                for d, plan in zip(descriptors, plans)
            ]
        if ctx is not None:
            for r in reports:
                trace_event(
                    "shard.worker", r.wall_start, r.wall_end,
                    attrs={"shard": r.shard_id,
                           "rows": r.row_hi - r.row_lo,
                           "backend": "process",
                           "pid": r.pid},
                )
        return [
            _ShardContribution.of(d, r) for d, r in zip(descriptors, reports)
        ]

    def _process_shard_fault(
        self,
        matrix: CSRMatrix,
        fp: MatrixFingerprint,
        descriptor: ShardDescriptor,
        plan: ExecutionPlan,
        rhs: np.ndarray,
        max_rhs: Optional[int],
        trace_ref,
    ) -> _ShardContribution:
        """Re-drive one shard after a worker death.

        The *attempt* is a remote single-shard execution on the healed
        pool -- a transient crash heals with a correct result and no
        degradation.  The *fallback* is the parent-side serial
        reference path over a fresh row-block of the current matrix.
        """
        backend: ProcessShardBackend = self._backend

        def _attempt():
            return backend.execute_single(
                matrix, fp.digest, descriptor, plan, rhs,
                batch=rhs.ndim == 2, max_rhs=max_rhs, trace_ref=trace_ref,
            )

        def _fallback():
            sub = extract_row_block(
                matrix, descriptor.row_lo, descriptor.row_hi
            )
            clean = unwrap_device(
                self.devices[descriptor.shard_id % len(self.devices)]
            )
            return _run_plan(clean, sub, rhs, fallback_plan(sub), max_rhs)

        if self._resilient is None:
            try:
                return _ShardContribution.of(descriptor, _attempt())
            except WorkerCrashError:
                return _ShardContribution.of(
                    descriptor, _fallback(), degraded=True
                )

        result, outcome = self._resilient.execute(
            (fp.digest, descriptor.shard_id),
            _attempt,
            fallback=_fallback,
            validate=_finite,
            on_degrade=lambda cause: self.invalidate(fp.digest),
        )
        return _ShardContribution.of(
            descriptor, result, outcome.attempts, outcome.degraded
        )

    # -- gather + accounting ---------------------------------------------
    def _finalize(
        self,
        matrix: CSRMatrix,
        rhs: np.ndarray,
        contributions: Sequence[_ShardContribution],
        all_hit: bool,
    ) -> ShardedResult:
        with span("shard.gather", self.registry) as sp_gather:
            y = np.zeros((matrix.nrows,) + rhs.shape[1:])
            for c in contributions:
                y[c.descriptor.row_lo : c.descriptor.row_hi] = c.y
        shard_seconds = tuple(c.seconds for c in contributions)
        makespan = max(shard_seconds, default=0.0)
        mean = sum(shard_seconds) / len(shard_seconds) if shard_seconds else 0.0
        imbalance = makespan / mean if mean > 0.0 else 1.0
        degraded = tuple(
            c.descriptor.shard_id for c in contributions if c.degraded
        )
        summary = ShardSummary(
            n_shards=len(contributions),
            shard_seconds=shard_seconds,
            imbalance=imbalance,
            total_shard_seconds=float(sum(shard_seconds)),
            degraded_shards=degraded,
            gather_seconds=sp_gather.seconds,
        )
        self._account(summary)
        return ShardedResult(
            y=y,
            seconds=float(makespan),
            n_dispatches=sum(c.n_dispatches for c in contributions),
            cache_hit=all_hit,
            attempts=sum(c.attempts for c in contributions),
            n_rhs=rhs.shape[1] if rhs.ndim == 2 else 1,
            summary=summary,
        )

    def _account(self, summary: ShardSummary) -> None:
        with self._lock:
            self._executions += 1
            self._shards_executed += summary.n_shards
            self._degraded_shards += len(summary.degraded_shards)
            self._max_imbalance = max(self._max_imbalance, summary.imbalance)
        self._m_executions.inc()
        self._m_shards.inc(summary.n_shards)
        if summary.degraded_shards:
            self._m_degraded.inc(len(summary.degraded_shards))
        self._m_count.set(summary.n_shards)
        self._m_imbalance.observe(summary.imbalance)
        self._m_gather.observe(summary.gather_seconds)

    # -- observability ---------------------------------------------------
    def resilience_stats(self):
        """Per-shard resilience accounting, or ``None`` without a policy.

        Returns a :class:`~repro.resilient.executor.ResilienceStats`;
        the server surfaces it in ``ServerStats.resilience`` so the
        sharded and unsharded paths report through the same field.
        """
        return (
            self._resilient.stats() if self._resilient is not None else None
        )

    def stats(self) -> ShardExecutorStats:
        """Immutable snapshot of the sharding accounting."""
        with self._lock:
            return ShardExecutorStats(
                executions=self._executions,
                shards_executed=self._shards_executed,
                degraded_shards=self._degraded_shards,
                max_imbalance=self._max_imbalance,
                cache=self.cache.stats(),
            )
