"""Execution backends: where shard work actually runs.

``BENCH_serving.json`` documented the embarrassment that motivates this
module: sharding across a thread pool yields a 1.71x *simulated*
speedup while wall-clock throughput regresses, because the shard
workers are pure Python/NumPy driver code serialising on the GIL.  The
paper's thesis -- auto-tuned SpMV should scale with cores -- needs real
parallelism, which in CPython means processes.

Three backends implement one contract (selected by
``ShardingPolicy(backend=...)``):

- :class:`InlineShardBackend` -- shards execute sequentially on the
  submitting thread.  No pool, no handoff; the baseline the
  differential suite pins every other backend against.
- :class:`ThreadShardBackend` -- the existing ``ThreadPoolExecutor``
  path, kept for simulation accounting (its *simulated* makespan is
  what the paper's model predicts; its wall-clock regression is
  documented, not deleted).
- :class:`ProcessShardBackend` -- a ``ProcessPoolExecutor`` fed
  through ``multiprocessing.shared_memory``.  The parent publishes the
  CSR arrays into one shared segment per structural digest, so only
  plan + shard *descriptors* (:class:`ShardTaskSpec`: row range, scheme
  object, bin->kernel map, trace ids) cross the pickle boundary --
  never the matrix data.

Process-backend hot path
------------------------
Workers keep two module-level caches, both keyed so a restarted worker
rebuilds transparently:

- an *attachment* cache (segment name -> read-only NumPy views over the
  shared buffer); mutation of a mapped block raises in the worker and
  the parent's data is untouched;
- a *bound plan* cache (``(segment, shard_id, generation)`` -> the
  shard's sub-CSR view and its :class:`~repro.device.executor.BoundPlan`,
  the same bound plan every simulated device runs).  After warm-up a
  request costs the worker one gather + ``reduceat`` per dispatch --
  fingerprinting, cost modelling and coverage checks are all paid once
  at bind time, and results *and* simulated seconds are the inline
  path's by construction.

Values are refreshed into the segment by the parent on *every* lease
(an ``nnz``-sized memcpy): solver traffic re-submits one structure with
evolving values, and the structural digest deliberately cannot see
that.  The per-segment lock makes the copy-dispatch-gather window
atomic against concurrent same-structure requests.

Crash handling: a worker death breaks the whole pool
(``BrokenProcessPool``).  The backend restarts the pool, bumps
``shard_worker_restarts_total`` and raises :class:`WorkerCrashError` --
a :class:`~repro.errors.TransientDeviceError`, so the sharded
executor's resilience path treats the dead worker exactly like a shard
fault: bounded remote retries on the healed pool, then degradation to
the parent-side serial reference path.  Either way the caller sees a
correct result.

Trace propagation: spans cannot cross a process boundary, so each
:class:`ShardTaskSpec` carries its request's ``trace_id`` and parent
span id and each :class:`ShardRunReport` echoes them back alongside the
worker-measured wall interval (``perf_counter`` is CLOCK_MONOTONIC on
Linux -- comparable across processes on one machine); the parent
records the interval into the active trace via
:func:`~repro.observe.spans.trace_event`.
"""

from __future__ import annotations

import enum
import os
import pickle
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import multiprocessing as mp
import numpy as np

from repro.binning.base import BinningScheme
from repro.core.plan import ExecutionPlan
from repro.device.executor import BoundPlan, SimulatedDevice
from repro.device.spec import DeviceSpec
from repro.errors import DeviceError, TransientDeviceError
from repro.formats.csr import CSRMatrix
from repro.observe.registry import (
    NULL_REGISTRY,
    MetricsRegistry,
    get_registry,
)
from repro.shard.partition import ShardDescriptor, extract_row_block

__all__ = [
    "ExecutionBackend",
    "WorkerCrashError",
    "SharedMatrixHandle",
    "SharedMatrixStore",
    "ShardTaskSpec",
    "ShardRunReport",
    "InlineShardBackend",
    "ThreadShardBackend",
    "ProcessShardBackend",
]

_INDEX_ITEM = np.dtype(np.int64).itemsize
_VALUE_ITEM = np.dtype(np.float64).itemsize


class ExecutionBackend(enum.Enum):
    """Where shard work runs: caller thread, thread pool, process pool."""

    INLINE = "inline"
    THREAD = "thread"
    PROCESS = "process"

    @classmethod
    def coerce(cls, value) -> "ExecutionBackend":
        """Accept an enum member or its string name (CLI friendliness)."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            names = ", ".join(m.value for m in cls)
            raise ValueError(
                f"unknown execution backend {value!r}; expected one of {names}"
            ) from None


class WorkerCrashError(TransientDeviceError):
    """A pool worker died mid-request (the pool has been restarted).

    Subclasses :class:`~repro.errors.TransientDeviceError` on purpose:
    the resilience layer only catches :class:`~repro.errors.ReproError`
    subclasses, and a dead worker *is* a transient device fault -- the
    request must retry on the healed pool or degrade to the serial
    path, never surface a raw ``BrokenProcessPool`` to the caller.
    """


# ---------------------------------------------------------------------------
# Shared-memory matrix store (parent side)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SharedMatrixHandle:
    """Picklable pointer to one published CSR matrix.

    Everything a worker needs to attach: the segment name, the shape
    that sections the flat buffer into ``rowptr | colidx | val``, and
    the structural digest the worker keys its caches by.
    """

    #: OS name of the ``multiprocessing.shared_memory`` segment.
    segment: str
    #: Structural digest of the published matrix (cache key).
    digest: str
    shape: Tuple[int, int]
    nnz: int

    @property
    def total_bytes(self) -> int:
        """Size of the flat segment layout."""
        return (
            (self.shape[0] + 1) * _INDEX_ITEM
            + self.nnz * _INDEX_ITEM
            + self.nnz * _VALUE_ITEM
        )


class _Segment:
    """One live shared segment plus its parent-side views and lock."""

    __slots__ = ("shm", "handle", "lock", "rowptr", "colidx", "val")

    def __init__(self, shm, handle: SharedMatrixHandle):
        self.shm = shm
        self.handle = handle
        self.lock = threading.Lock()
        self.rowptr, self.colidx, self.val = _section_views(
            shm.buf, handle, writeable=True
        )


def _section_views(
    buf, handle: SharedMatrixHandle, *, writeable: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slice one flat segment buffer into the three CSR arrays."""
    m = handle.shape[0]
    nnz = handle.nnz
    o1 = (m + 1) * _INDEX_ITEM
    o2 = o1 + nnz * _INDEX_ITEM
    rowptr = np.frombuffer(buf, dtype=np.int64, count=m + 1, offset=0)
    colidx = np.frombuffer(buf, dtype=np.int64, count=nnz, offset=o1)
    val = np.frombuffer(buf, dtype=np.float64, count=nnz, offset=o2)
    for arr in (rowptr, colidx, val):
        arr.flags.writeable = writeable
    return rowptr, colidx, val


class SharedMatrixStore:
    """Parent-side registry of published matrices, one segment per digest.

    ``lease`` is the only access path: it publishes the structure on
    first sight, refreshes the *values* on every call (the structural
    digest cannot see value changes -- solver traffic mutates values in
    place between submits), and holds the segment's lock for the
    duration of the caller's ``with`` block so concurrent
    same-structure requests cannot tear each other's value windows.

    ``close`` unlinks every segment; ``SharedMemory.unlink`` also
    unregisters from the parent's ``resource_tracker``, so a closed
    store leaks nothing and triggers no tracker warnings at exit.
    """

    def __init__(self, capacity: int = 8):
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._segments: "OrderedDict[str, _Segment]" = OrderedDict()
        self._closed = False

    @contextmanager
    def lease(self, digest: str, matrix: CSRMatrix) -> Iterator[SharedMatrixHandle]:
        """Publish-or-refresh ``matrix`` and hold its segment lock."""
        seg = self._acquire_segment(digest, matrix)
        with seg.lock:
            # Values refresh on every lease: an O(nnz) memcpy buys
            # correctness against in-place value mutation, which the
            # structural digest is blind to by design.
            np.copyto(seg.val, matrix.val)
            yield seg.handle

    def _acquire_segment(self, digest: str, matrix: CSRMatrix) -> _Segment:
        from multiprocessing import shared_memory

        with self._lock:
            if self._closed:
                raise DeviceError(
                    "SharedMatrixStore used after close(); "
                    "create a new backend"
                )
            seg = self._segments.get(digest)
            if seg is not None:
                self._segments.move_to_end(digest)
                return seg
            handle_shape = matrix.shape
            nnz = matrix.nnz
            size = max(
                1,
                (handle_shape[0] + 1) * _INDEX_ITEM
                + nnz * (_INDEX_ITEM + _VALUE_ITEM),
            )
            shm = shared_memory.SharedMemory(create=True, size=size)
            handle = SharedMatrixHandle(
                segment=shm.name, digest=digest,
                shape=handle_shape, nnz=nnz,
            )
            seg = _Segment(shm, handle)
            np.copyto(seg.rowptr, matrix.rowptr)
            np.copyto(seg.colidx, matrix.colidx)
            self._segments[digest] = seg
            while len(self._segments) > self.capacity:
                self._evict_one()
            return seg

    def _evict_one(self) -> None:
        """Drop the least-recently-leased idle segment (holds _lock)."""
        for key, seg in self._segments.items():
            if seg.lock.acquire(blocking=False):
                try:
                    del self._segments[key]
                    _destroy_segment(seg)
                finally:
                    seg.lock.release()
                return
        # Every segment is mid-lease: let the store run over capacity
        # rather than unlink a mapped-and-active segment.
        return

    def segment_names(self) -> Tuple[str, ...]:
        """OS names of the live segments (leak-check hooks for tests)."""
        with self._lock:
            return tuple(s.handle.segment for s in self._segments.values())

    def digests(self) -> Tuple[str, ...]:
        """Structural digests of the currently published matrices."""
        with self._lock:
            return tuple(self._segments.keys())

    def close(self) -> None:
        """Unlink every segment (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            segments = list(self._segments.values())
            self._segments.clear()
        for seg in segments:
            _destroy_segment(seg)

    def __len__(self) -> int:
        with self._lock:
            return len(self._segments)


def _destroy_segment(seg: _Segment) -> None:
    # Drop the NumPy views first: SharedMemory.close() refuses (on
    # CPython with exports tracking) while buffer exports are alive.
    seg.rowptr = seg.colidx = seg.val = None
    seg.shm.close()
    try:
        seg.shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass


# ---------------------------------------------------------------------------
# The pickle boundary: task specs out, run reports back
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShardTaskSpec:
    """Everything that crosses the pickle boundary for one shard.

    Deliberately *no* matrix arrays: the worker rebuilds the shard
    sub-CSR from the shared segment plus the ``[row_lo, row_hi)``
    range, and rebuilds the binning deterministically from the scheme
    object (``scheme.bin_rows`` is a pure function of structure).
    """

    digest: str
    shard_id: int
    row_lo: int
    row_hi: int
    #: The shard plan's binning scheme (small plain object, picklable).
    scheme: BinningScheme
    #: ``bin_id -> kernel name`` from the shard's plan.
    bin_kernels: Dict[int, str]
    #: Plan generation of this spec's digest.  Worker-side bound-plan
    #: caches key on it: when the parent invalidates a matrix (device
    #: change, degraded plan, planner swap) it bumps the generation, so
    #: the next dispatch *rebinds* against the fresh plan instead of
    #: silently reusing a stale bound plan.
    generation: int = 0
    #: Trace identity propagated across the process boundary; echoed
    #: back in the :class:`ShardRunReport` and used by the parent to
    #: record the worker interval into the request's trace.
    trace_id: Optional[str] = None
    parent_span_id: Optional[str] = None
    #: Chaos hook: the worker exits hard before computing (seeded
    #: crash-safety tests only).
    kill: bool = False


@dataclass(frozen=True)
class ShardRunReport:
    """One shard's result as shipped back from a worker process."""

    shard_id: int
    row_lo: int
    row_hi: int
    #: ``(n_rows,)`` for SpMV, ``(n_rows, k)`` for SpMM.
    y: np.ndarray
    #: Simulated seconds (identical accounting to the inline path).
    seconds: float
    dispatch_seconds: Tuple[float, ...]
    launch_seconds: float
    n_passes: int
    #: Worker-measured wall interval (CLOCK_MONOTONIC, comparable to
    #: the parent's ``perf_counter`` on the same machine).
    wall_start: float
    wall_end: float
    #: Worker process id (observability; restart tests assert it moves).
    pid: int
    #: Trace identity echoed back from the task spec.
    trace_id: Optional[str] = None
    parent_span_id: Optional[str] = None

    @property
    def n_dispatches(self) -> int:
        """Kernel launches this shard issued."""
        return len(self.dispatch_seconds)


# ---------------------------------------------------------------------------
# Worker side (runs inside pool processes; module-level for picklability)
# ---------------------------------------------------------------------------

#: segment name -> (SharedMemory, rowptr, colidx, val) read-only views.
_ATTACHED: "OrderedDict[str, tuple]" = OrderedDict()
#: (segment name, shard_id, generation) -> (shard sub-CSR view, bound plan).
_BOUND: "OrderedDict[tuple, Tuple[CSRMatrix, BoundPlan]]" = OrderedDict()
#: blob key -> unpickled spec group (skips ``pickle.loads`` of scheme
#: objects on every warm request; the parent caches the ``dumps`` side).
_SPEC_GROUPS: "OrderedDict[tuple, Tuple[ShardTaskSpec, ...]]" = OrderedDict()
_MAX_ATTACHED = 8
_MAX_BOUND = 64
_MAX_SPEC_GROUPS = 64


def _cached_specs(key: tuple, blob: bytes) -> Tuple[ShardTaskSpec, ...]:
    """The worker's side of the spec-blob cache."""
    specs = _SPEC_GROUPS.get(key)
    if specs is None:
        specs = pickle.loads(blob)
        _SPEC_GROUPS[key] = specs
        while len(_SPEC_GROUPS) > _MAX_SPEC_GROUPS:
            _SPEC_GROUPS.popitem(last=False)
    else:
        _SPEC_GROUPS.move_to_end(key)
    return specs


def _worker_attach(handle: SharedMatrixHandle):
    """Attach (or reuse) the shared segment, as read-only views."""
    entry = _ATTACHED.get(handle.segment)
    if entry is not None:
        _ATTACHED.move_to_end(handle.segment)
        return entry
    from multiprocessing import resource_tracker, shared_memory

    # Attaching must NOT register with a resource tracker: ownership
    # stays with the parent store.  With a worker-private tracker
    # (spawn, or fork-before-the-parent's-tracker-started) the worker's
    # death would unlink the segment out from under the parent; with a
    # shared tracker (fork-after-start) an unregister here would steal
    # the parent's registration and its own unlink would double-free.
    # ``track=False`` exists only on 3.13+; suppressing registration
    # for the attach call is the 3.10-compatible equivalent.
    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        shm = shared_memory.SharedMemory(name=handle.segment)
    finally:
        resource_tracker.register = original_register
    rowptr, colidx, val = _section_views(shm.buf, handle, writeable=False)
    entry = (shm, rowptr, colidx, val)
    _ATTACHED[handle.segment] = entry
    while len(_ATTACHED) > _MAX_ATTACHED:
        old_segment, (old_shm, *_views) = _ATTACHED.popitem(last=False)
        # Bound plans hold views into the evicted mapping; drop them
        # first or ``close()`` trips on live buffer exports.
        for key in [k for k in _BOUND if k[0] == old_segment]:
            del _BOUND[key]
        del _views
        try:
            old_shm.close()
        except BufferError:  # pragma: no cover - exports elsewhere
            pass
    return entry


def _worker_bound(handle: SharedMatrixHandle, spec: ShardTaskSpec,
                  device_spec: DeviceSpec) -> Tuple[CSRMatrix, BoundPlan]:
    """The shard's sub-CSR view and bound plan, cached per generation.

    Binding rebuilds the shard's binning from the spec's scheme (a pure
    function of structure) over a row block of the shared segment --
    the ``colidx``/``val`` slices stay read-only zero-copy views, so a
    cached plan always computes with the values the parent refreshed
    for this lease.
    """
    # Generation is part of the key on purpose: a parent-side
    # invalidation bumps it, which makes every stale bound plan for the
    # digest unreachable (LRU eviction reclaims them) and forces a
    # rebind against the spec's *current* scheme + kernel map.
    key = (handle.segment, spec.shard_id, spec.generation)
    entry = _BOUND.get(key)
    if entry is not None:
        _BOUND.move_to_end(key)
        return entry
    _shm, rowptr, colidx, val = _worker_attach(handle)
    matrix = extract_row_block(
        CSRMatrix(rowptr, colidx, val, handle.shape),
        spec.row_lo, spec.row_hi,
    )
    plan = ExecutionPlan(
        scheme=spec.scheme,
        binning=spec.scheme.bin_rows(matrix),
        bin_kernels=dict(spec.bin_kernels),
        source="backend",
    )
    entry = (matrix, BoundPlan(
        SimulatedDevice(spec=device_spec, registry=NULL_REGISTRY),
        matrix, plan.dispatches(),
        extra_seconds=spec.scheme.overhead_seconds(matrix, device_spec),
    ))
    _BOUND[key] = entry
    while len(_BOUND) > _MAX_BOUND:
        _BOUND.popitem(last=False)
    return entry


def _worker_run(
    handle: SharedMatrixHandle,
    device_spec: DeviceSpec,
    specs: Optional[Tuple[ShardTaskSpec, ...]],
    rhs: np.ndarray,
    max_rhs: Optional[int],
    blob: Optional[bytes] = None,
    blob_key: Optional[tuple] = None,
    trace_id: Optional[str] = None,
    parent_span_id: Optional[str] = None,
) -> List[ShardRunReport]:
    """Pool-worker entry point: run a group of shards, report back.

    The hot path sends ``(blob, blob_key)`` instead of ``specs``: the
    pickled spec group travels as opaque bytes (a memcpy for the pool's
    own pickler) and is unpickled once per key, with the per-request
    trace identity carried in the two explicit arguments.
    """
    if specs is None:
        specs = _cached_specs(blob_key, blob)
    reports: List[ShardRunReport] = []
    for spec in specs:
        matrix, bound = _worker_bound(handle, spec, device_spec)
        if spec.kill:
            # Chaos hook: die the way a segfaulting worker would --
            # no exception, no cleanup, the pool just breaks.
            os._exit(23)
        w0 = perf_counter()
        res = bound.run(matrix, rhs, max_rhs)
        w1 = perf_counter()
        reports.append(ShardRunReport(
            shard_id=spec.shard_id,
            row_lo=spec.row_lo,
            row_hi=spec.row_hi,
            y=res.y,
            seconds=res.seconds,
            dispatch_seconds=res.dispatch_seconds,
            launch_seconds=res.launch_seconds,
            n_passes=res.n_passes,
            wall_start=w0,
            wall_end=w1,
            pid=os.getpid(),
            trace_id=trace_id if trace_id is not None else spec.trace_id,
            parent_span_id=(
                parent_span_id if parent_span_id is not None
                else spec.parent_span_id
            ),
        ))
    return reports


def _worker_probe_mutation(handle: SharedMatrixHandle) -> str:
    """Try to mutate the mapped block (read-only verification hook).

    Returns the exception class name the write raised, or
    ``"mutated"`` if the write silently succeeded (test failure).
    """
    _shm, _rowptr, _colidx, val = _worker_attach(handle)
    try:
        val[0] = -1.0
    except (ValueError, TypeError) as exc:
        return type(exc).__name__
    return "mutated"  # pragma: no cover - would be a real bug


# ---------------------------------------------------------------------------
# Parent-side backends
# ---------------------------------------------------------------------------

class InlineShardBackend:
    """Shards run sequentially on the submitting thread."""

    kind = ExecutionBackend.INLINE

    def run_tasks(self, thunks: Sequence[Callable[[], object]]) -> list:
        return [thunk() for thunk in thunks]

    def invalidate(self, digest: str) -> None:
        """No backend-side plan state to drop (plans live in the caller)."""

    def invalidate_all(self) -> None:
        """No backend-side plan state to drop."""

    def close(self) -> None:
        """Nothing to release."""


class ThreadShardBackend:
    """Shards run on a lazily-created thread pool (the legacy path)."""

    kind = ExecutionBackend.THREAD

    def __init__(self, max_workers: int):
        if max_workers <= 0:
            raise ValueError(f"max_workers must be > 0, got {max_workers}")
        self._max_workers = max_workers
        self._pool: Optional[ThreadPoolExecutor] = None

    def run_tasks(self, thunks: Sequence[Callable[[], object]]) -> list:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self._max_workers)
        futures = [self._pool.submit(t) for t in thunks]
        return [f.result() for f in futures]

    def invalidate(self, digest: str) -> None:
        """No backend-side plan state to drop (plans live in the caller)."""

    def invalidate_all(self) -> None:
        """No backend-side plan state to drop."""

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def _preferred_mp_context():
    """``fork`` when the platform has it (cheap, shares imports), else
    the platform default (``spawn`` on macOS/Windows)."""
    method = os.environ.get("REPRO_MP_START_METHOD")
    if method:
        return mp.get_context(method)
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()


def _check_rank(rhs: np.ndarray, batch: bool) -> None:
    """Reject a ``batch`` flag that contradicts the operand's rank."""
    if batch != (rhs.ndim == 2):
        raise ValueError(
            f"batch={batch} does not match a {rhs.ndim}-D operand"
        )


def _chunk(specs: List[ShardTaskSpec], n_groups: int):
    """Split specs into at most ``n_groups`` contiguous task groups.

    Task fusion is the wall-clock lever on narrow machines: one group
    per *worker* (not per shard) keeps the request at
    ``min(workers, shards)`` IPC round trips.
    """
    n_groups = max(1, min(n_groups, len(specs)))
    bounds = np.linspace(0, len(specs), n_groups + 1).astype(int)
    return [
        tuple(specs[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
    ]


class ProcessShardBackend:
    """Shards run in a process pool over shared-memory CSR blocks.

    Parameters
    ----------
    n_workers:
        Pool width; defaults to ``min(n_shards_hint, os.cpu_count())``.
    device_spec:
        The simulated device constants workers cost plans against
        (must match the parent's devices for bit-identical seconds).
    registry:
        Receives ``shard_worker_restarts_total``.
    store_capacity:
        Published segments kept (LRU beyond it, idle segments only).
    """

    kind = ExecutionBackend.PROCESS

    def __init__(
        self,
        *,
        n_workers: Optional[int] = None,
        n_shards_hint: int = 4,
        device_spec: Optional[DeviceSpec] = None,
        registry: Optional[MetricsRegistry] = None,
        store_capacity: int = 8,
    ):
        if n_workers is not None and n_workers <= 0:
            raise ValueError(f"n_workers must be > 0, got {n_workers}")
        self.registry = get_registry() if registry is None else registry
        self.n_workers = n_workers or max(
            1, min(n_shards_hint, os.cpu_count() or 1)
        )
        self.device_spec = (
            device_spec if device_spec is not None
            else DeviceSpec.kaveri_apu()
        )
        self.store = SharedMatrixStore(capacity=store_capacity)
        self._ctx = _preferred_mp_context()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()
        self._closed = False
        self._restarts = 0
        self._seq = 0
        #: (digest, n_shards) -> [(blob_key, pickled spec group), ...].
        #: Spec groups are pure functions of the shard set (trace ids and
        #: chaos flags travel separately), so the ``pickle.dumps`` of the
        #: scheme objects is paid once per structure, not per request.
        self._blobs: "OrderedDict[tuple, list]" = OrderedDict()
        #: digest -> plan generation.  Bumped by :meth:`invalidate`;
        #: rides in every :class:`ShardTaskSpec` and keys the worker's
        #: bound-plan cache, so stale worker-side plans rebind.
        self._generations: Dict[str, int] = {}
        #: Chaos hooks (seeded crash tests): request sequence numbers
        #: whose first shard's worker dies, or kill on *every* dispatch.
        self.kill_requests: set = set()
        self.kill_all = False
        self._m_restarts = self.registry.counter(
            "shard_worker_restarts_total",
            help_text="Process-pool restarts after a worker death.",
        )

    # -- pool lifecycle ---------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise DeviceError(
                    "ProcessShardBackend used after close(); "
                    "create a new executor"
                )
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.n_workers, mp_context=self._ctx
                )
            return self._pool

    def _handle_crash(self, exc: BaseException) -> WorkerCrashError:
        """Restart the pool after a worker death; count it."""
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None
            self._restarts += 1
        self._m_restarts.inc()
        # Structured incident signal: a worker death is exactly the
        # moment a forensic snapshot is worth its cost (the blackbox
        # listens for this event name).
        self.registry.emit(
            "worker_crash",
            restarts=self._restarts,
            error=type(exc).__name__,
        )
        return WorkerCrashError(
            f"process-pool worker died mid-request ({exc}); "
            f"pool restarted"
        )

    @property
    def restarts(self) -> int:
        """Pool restarts after worker deaths so far."""
        with self._lock:
            return self._restarts

    def close(self) -> None:
        """Shut the pool down and unlink every shared segment."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        self.store.close()

    # -- invalidation -----------------------------------------------------
    def generation(self, digest: str) -> int:
        """The digest's current plan generation (0 until invalidated)."""
        with self._lock:
            return self._generations.get(digest, 0)

    def invalidate(self, digest: str) -> None:
        """Drop this digest's pre-pickled spec blobs; bump its generation.

        The bump is what reaches the workers: the next dispatch's specs
        (and rebuilt blobs) carry the new generation, which misses every
        worker-side bound plan and spec-group cache entry keyed
        under the old one -- the shard plans rebind against whatever the
        parent re-plans, instead of silently serving stale plans.
        """
        with self._lock:
            self._generations[digest] = self._generations.get(digest, 0) + 1
            for key in [k for k in self._blobs if k[0] == digest]:
                del self._blobs[key]

    def invalidate_all(self) -> None:
        """:meth:`invalidate` every digest this backend has ever served."""
        with self._lock:
            digests = set(self._generations) | set(
                k[0] for k in self._blobs
            )
        for digest in digests | set(self.store.digests()):
            self.invalidate(digest)

    # -- task-spec construction -------------------------------------------
    def _specs(
        self,
        digest: str,
        descriptors: Sequence[ShardDescriptor],
        plans: Sequence[ExecutionPlan],
        trace_ref: Tuple[Optional[str], Optional[str]],
        *,
        kill_first: bool = False,
    ) -> List[ShardTaskSpec]:
        trace_id, parent_span_id = trace_ref
        with self._lock:
            generation = self._generations.get(digest, 0)
        return [
            ShardTaskSpec(
                digest=digest,
                shard_id=d.shard_id,
                row_lo=d.row_lo,
                row_hi=d.row_hi,
                scheme=plan.scheme,
                bin_kernels=dict(plan.bin_kernels),
                generation=generation,
                trace_id=trace_id,
                parent_span_id=parent_span_id,
                kill=self.kill_all or (kill_first and d.shard_id == 0),
            )
            for d, plan in zip(descriptors, plans)
        ]

    def _group_blobs(
        self,
        digest: str,
        descriptors: Sequence[ShardDescriptor],
        plans: Sequence[ExecutionPlan],
    ) -> list:
        """Chunked, pre-pickled spec groups for the warm path (cached).

        The worker-side blob key carries the digest's current plan
        generation: after an :meth:`invalidate` the rebuilt blobs hash
        to fresh keys, so a restarted-or-warm worker can never serve the
        new specs from its stale ``_SPEC_GROUPS`` entry.
        """
        cache_key = (digest, len(descriptors))
        with self._lock:
            groups = self._blobs.get(cache_key)
            if groups is not None:
                self._blobs.move_to_end(cache_key)
                return groups
        specs = self._specs(digest, descriptors, plans, (None, None))
        generation = specs[0].generation if specs else 0
        groups = [
            ((digest, len(descriptors), generation, i), pickle.dumps(group))
            for i, group in enumerate(_chunk(specs, self.n_workers))
        ]
        with self._lock:
            self._blobs[cache_key] = groups
            while len(self._blobs) > _MAX_SPEC_GROUPS:
                self._blobs.popitem(last=False)
        return groups

    # -- execution --------------------------------------------------------
    def execute(
        self,
        matrix: CSRMatrix,
        digest: str,
        descriptors: Sequence[ShardDescriptor],
        plans: Sequence[ExecutionPlan],
        rhs: np.ndarray,
        *,
        batch: bool,
        max_rhs: Optional[int],
        trace_ref: Tuple[Optional[str], Optional[str]] = (None, None),
    ) -> List[ShardRunReport]:
        """Run every shard remotely; raise ``WorkerCrashError`` on death.

        Shards are fused into ``min(n_workers, n_shards)`` task groups
        (one pickle round trip each).  A worker death breaks the whole
        pool, so the crash path is all-or-nothing: the pool restarts
        and the caller (the sharded executor) re-drives each shard
        through the resilience path.  ``batch`` must state the rank of
        ``rhs`` (a 2-D block is SpMM); the workers run either through
        one bound-plan body.
        """
        _check_rank(rhs, batch)
        with self._lock:
            seq = self._seq
            self._seq += 1
        kill_first = seq in self.kill_requests
        pool = self._ensure_pool()
        trace_id, parent_span_id = trace_ref
        with self.store.lease(digest, matrix) as handle:
            if kill_first or self.kill_all:
                # Chaos path: per-request kill flags make the specs
                # uncacheable, so they travel uncompressed.
                specs = self._specs(
                    digest, descriptors, plans, trace_ref,
                    kill_first=kill_first,
                )
                futures = [
                    pool.submit(
                        _worker_run, handle, self.device_spec, group,
                        rhs, max_rhs,
                    )
                    for group in _chunk(specs, self.n_workers)
                ]
            else:
                futures = [
                    pool.submit(
                        _worker_run, handle, self.device_spec, None,
                        rhs, max_rhs, blob, blob_key,
                        trace_id, parent_span_id,
                    )
                    for blob_key, blob in self._group_blobs(
                        digest, descriptors, plans
                    )
                ]
            try:
                reports = [r for f in futures for r in f.result()]
            except BrokenProcessPool as exc:
                raise self._handle_crash(exc) from exc
        return sorted(reports, key=lambda r: r.shard_id)

    def execute_single(
        self,
        matrix: CSRMatrix,
        digest: str,
        descriptor: ShardDescriptor,
        plan: ExecutionPlan,
        rhs: np.ndarray,
        *,
        batch: bool,
        max_rhs: Optional[int],
        trace_ref: Tuple[Optional[str], Optional[str]] = (None, None),
    ) -> ShardRunReport:
        """Retry one shard remotely (the resilience path's attempt)."""
        _check_rank(rhs, batch)
        specs = self._specs(digest, [descriptor], [plan], trace_ref)
        pool = self._ensure_pool()
        with self.store.lease(digest, matrix) as handle:
            future = pool.submit(
                _worker_run, handle, self.device_spec, tuple(specs),
                rhs, max_rhs,
            )
            try:
                return future.result()[0]
            except BrokenProcessPool as exc:
                raise self._handle_crash(exc) from exc

    # -- test hooks -------------------------------------------------------
    def probe_mutation(self, matrix: CSRMatrix, digest: str) -> str:
        """Ask a worker to mutate the shared block (read-only check)."""
        pool = self._ensure_pool()
        with self.store.lease(digest, matrix) as handle:
            return pool.submit(_worker_probe_mutation, handle).result()
