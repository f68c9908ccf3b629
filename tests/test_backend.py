"""Execution-backend proof layer (``pytest -m backend``).

The process backend's whole claim is "same answer, same simulated
accounting, better wall clock" -- this module is the evidence:

- differential sweep: the process backend is **bit-identical** to the
  inline baseline (results *and* simulated seconds) across every
  pathological family and shard count, and matches the scipy reference
  within the repo-wide tolerance policy for multi-RHS blocks;
- shared-memory discipline: workers see read-only views (a write
  raises, the parent's arrays never change), segments are unlinked on
  ``close()`` (attaching one afterwards raises ``FileNotFoundError``);
- crash safety: a seeded worker kill mid-dispatch restarts the pool,
  re-drives every shard through the resilience path and never returns
  an incorrect result; ``kill_all`` forces degradation to the
  parent-side serial reference path;
- wall clock: on hosts with real cores, sharded process execution
  undercuts the unsharded submit path's p50 latency;
- fingerprint identity fast path: one structural hash for N submits of
  the same matrix object, correct results after in-place value
  mutation, rehash after explicit invalidation;
- scheduler integration: coalesced multi-client traffic over the
  process backend stays correct and shares the fingerprint cache.
"""

import gc
import os
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import shared_memory

import numpy as np
import pytest

from tests.differential import (
    assert_matches_reference,
    make_rhs,
    make_rhs_block,
    pathological_matrices,
)
from repro.errors import DeviceError
from repro.matrices import generators as gen
from repro.observe import NULL_REGISTRY, MetricsRegistry
from repro.resilient import ResiliencePolicy, RetryPolicy
from repro.serve import FingerprintCache, SpMVServer, fingerprint_matrix
from repro.shard import CoalescePolicy
from repro.shard.backend import (
    ExecutionBackend,
    ProcessShardBackend,
    SharedMatrixStore,
    WorkerCrashError,
)
from repro.shard.executor import ShardedExecutor, ShardingPolicy
from repro.trace import TracingPolicy

pytestmark = pytest.mark.backend

FAMILIES = pathological_matrices(0)
FAMILY_IDS = [name for name, _ in FAMILIES]
SHARD_COUNTS = (1, 2, 4, 8)


def _fast_resilience() -> ResiliencePolicy:
    return ResiliencePolicy(
        retry=RetryPolicy(max_attempts=2, backoff_base=1e-6,
                          backoff_max=1e-5),
    )


# ---------------------------------------------------------------------------
# Shared executors for the differential sweep (pool startup is the
# expensive part; the sweep itself is cheap).
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pools():
    cache = {}

    def get(n_shards: int, backend: str) -> ShardedExecutor:
        key = (n_shards, backend)
        if key not in cache:
            cache[key] = ShardedExecutor(
                policy=ShardingPolicy(n_shards=n_shards, backend=backend),
                registry=NULL_REGISTRY,
            )
        return cache[key]

    yield get
    for ex in cache.values():
        ex.close()


# ---------------------------------------------------------------------------
# Backend selection / policy validation
# ---------------------------------------------------------------------------


class TestBackendSelection:
    @pytest.mark.parametrize("name,member", [
        ("inline", ExecutionBackend.INLINE),
        ("thread", ExecutionBackend.THREAD),
        ("process", ExecutionBackend.PROCESS),
    ])
    def test_coerce_accepts_strings(self, name, member):
        assert ExecutionBackend.coerce(name) is member
        assert ExecutionBackend.coerce(name.upper()) is member

    def test_coerce_passes_members_through(self):
        assert (ExecutionBackend.coerce(ExecutionBackend.PROCESS)
                is ExecutionBackend.PROCESS)

    def test_coerce_rejects_unknown(self):
        with pytest.raises(ValueError, match="inline, thread, process"):
            ExecutionBackend.coerce("gpu")

    def test_policy_coerces_backend_string(self):
        policy = ShardingPolicy(n_shards=2, backend="process")
        assert policy.backend is ExecutionBackend.PROCESS

    def test_policy_rejects_bad_process_workers(self):
        with pytest.raises(ValueError, match="process_workers"):
            ShardingPolicy(n_shards=2, process_workers=0)

    def test_executor_exposes_backend_kind(self):
        with ShardedExecutor(
            policy=ShardingPolicy(n_shards=2, backend="inline"),
            registry=NULL_REGISTRY,
        ) as ex:
            assert ex.backend.kind is ExecutionBackend.INLINE


# ---------------------------------------------------------------------------
# Differential sweep: process vs inline vs reference
# ---------------------------------------------------------------------------


class TestProcessDifferential:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("family,matrix", FAMILIES, ids=FAMILY_IDS)
    def test_spmv_bit_identical_to_inline(self, pools, family, matrix,
                                          n_shards):
        x = make_rhs(matrix, seed=3)
        got = pools(n_shards, "process").run_spmv(matrix, x)
        ref = pools(n_shards, "inline").run_spmv(matrix, x)
        assert np.array_equal(got.y, ref.y)
        assert got.seconds == ref.seconds
        assert got.n_dispatches == ref.n_dispatches
        assert got.summary.shard_seconds == ref.summary.shard_seconds
        assert_matches_reference(got.y, matrix, x)

    @pytest.mark.parametrize("k", (2, 4, 8))
    @pytest.mark.parametrize(
        "family,matrix",
        [f for f in FAMILIES
         if f[0] in ("all_empty", "empty_rows_mix",
                     "power_law_rows", "tall_ragged")],
        ids=["all_empty", "empty_rows_mix", "power_law_rows",
             "tall_ragged"],
    )
    def test_spmm_matches_inline_and_reference(self, pools, family,
                                               matrix, k):
        X = make_rhs_block(matrix, k, seed=5)
        got = pools(3, "process").run_spmm(matrix, X)
        ref = pools(3, "inline").run_spmm(matrix, X)
        assert np.array_equal(got.y, ref.y)
        assert got.seconds == ref.seconds
        assert_matches_reference(got.y, matrix, X)

    def test_spmm_column_blocking_matches_inline(self, pools):
        matrix = dict(FAMILIES)["power_law_rows"]
        X = make_rhs_block(matrix, 8, seed=9)
        got = pools(3, "process").run_spmm(matrix, X, max_rhs=3)
        ref = pools(3, "inline").run_spmm(matrix, X, max_rhs=3)
        assert np.array_equal(got.y, ref.y)
        assert got.seconds == ref.seconds
        assert got.n_dispatches == ref.n_dispatches

    @pytest.mark.parametrize(
        "family,matrix",
        [f for f in FAMILIES
         if f[0] in ("zero_rows", "power_law_rows", "wide_short")],
        ids=["zero_rows", "power_law_rows", "wide_short"],
    )
    def test_thread_backend_bit_identical_to_inline(self, pools, family,
                                                    matrix):
        x = make_rhs(matrix, seed=3)
        got = pools(3, "thread").run_spmv(matrix, x)
        ref = pools(3, "inline").run_spmv(matrix, x)
        assert np.array_equal(got.y, ref.y)
        assert got.seconds == ref.seconds

    @pytest.mark.parametrize("backend", [None, "inline", "thread", "process"])
    def test_submit_is_submit_batch_with_one_column(self, backend):
        # SpMV is SpMM with k=1: a vector and the same vector as a
        # one-column block share one execution body end to end.
        matrix = dict(FAMILIES)["power_law_rows"]
        x = make_rhs(matrix, seed=5)
        sharding = (None if backend is None
                    else ShardingPolicy(n_shards=3, backend=backend))
        with SpMVServer(sharding=sharding, registry=NULL_REGISTRY) as server:
            for _ in range(2):  # cold, then warm plans
                single = server.submit(matrix, x)
                batch = server.submit_batch(matrix, x[:, None])
                assert batch.y.shape == (matrix.nrows, 1)
                assert np.array_equal(single.y, batch.y.ravel())
                assert single.seconds == batch.seconds
                assert single.n_dispatches == batch.n_dispatches

    def test_warm_request_hits_shard_set_cache(self, pools):
        matrix = dict(FAMILIES)["uniform_small"]
        x = make_rhs(matrix, seed=1)
        ex = pools(4, "process")
        ex.run_spmv(matrix, x)
        assert ex.run_spmv(matrix, x).cache_hit

    def test_spec_blob_cache_is_reused(self):
        matrix = gen.power_law_graph(400, seed=2)
        x = make_rhs(matrix, seed=2)
        with ShardedExecutor(
            policy=ShardingPolicy(n_shards=2, backend="process"),
            registry=NULL_REGISTRY,
        ) as ex:
            ex.run_spmv(matrix, x)
            blobs = dict(ex.backend._blobs)
            ex.run_spmv(matrix, x)
            assert dict(ex.backend._blobs) == blobs


# ---------------------------------------------------------------------------
# Shared-memory discipline
# ---------------------------------------------------------------------------


class TestSharedMemory:
    def test_worker_views_are_read_only(self):
        matrix = gen.power_law_graph(300, seed=0)
        with ShardedExecutor(
            policy=ShardingPolicy(n_shards=2, backend="process"),
            registry=NULL_REGISTRY,
        ) as ex:
            x = make_rhs(matrix, seed=0)
            ex.run_spmv(matrix, x)
            digest = fingerprint_matrix(matrix).digest
            # The worker's attempted write must raise, not be silently
            # applied to the mapping.
            assert ex.backend.probe_mutation(matrix, digest) == "ValueError"

    def test_parent_arrays_unchanged_after_probe(self):
        matrix = gen.power_law_graph(300, seed=1)
        val_before = matrix.val.copy()
        with ShardedExecutor(
            policy=ShardingPolicy(n_shards=2, backend="process"),
            registry=NULL_REGISTRY,
        ) as ex:
            x = make_rhs(matrix, seed=0)
            y0 = ex.run_spmv(matrix, x).y
            digest = fingerprint_matrix(matrix).digest
            ex.backend.probe_mutation(matrix, digest)
            assert np.array_equal(matrix.val, val_before)
            assert np.array_equal(ex.run_spmv(matrix, x).y, y0)

    def test_segment_reused_across_warm_requests(self):
        matrix = gen.power_law_graph(300, seed=2)
        with ShardedExecutor(
            policy=ShardingPolicy(n_shards=2, backend="process"),
            registry=NULL_REGISTRY,
        ) as ex:
            x = make_rhs(matrix, seed=0)
            ex.run_spmv(matrix, x)
            names = ex.backend.store.segment_names()
            assert len(names) == 1
            for _ in range(3):
                ex.run_spmv(matrix, x)
            assert ex.backend.store.segment_names() == names

    def test_in_place_value_mutation_served_fresh(self):
        # The structural digest is blind to values on purpose; the
        # store refreshes the shared value section on every lease so a
        # solver mutating A.val in place still gets A @ x, not A_old @ x.
        matrix = gen.power_law_graph(300, seed=3)
        x = make_rhs(matrix, seed=0)
        with ShardedExecutor(
            policy=ShardingPolicy(n_shards=2, backend="process"),
            registry=NULL_REGISTRY,
        ) as ex:
            y0 = ex.run_spmv(matrix, x).y
            matrix.val[:] = matrix.val * 2.0
            y1 = ex.run_spmv(matrix, x).y
            assert np.allclose(y1, 2.0 * y0)
            assert_matches_reference(y1, matrix, x)

    def test_close_unlinks_every_segment(self):
        matrices = [gen.power_law_graph(200, seed=s) for s in range(3)]
        ex = ShardedExecutor(
            policy=ShardingPolicy(n_shards=2, backend="process"),
            registry=NULL_REGISTRY,
        )
        for m in matrices:
            ex.run_spmv(m, make_rhs(m, seed=0))
        names = ex.backend.store.segment_names()
        assert len(names) == 3
        ex.close()
        assert ex.backend.store.segment_names() == ()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_store_capacity_evicts_idle_segments(self):
        store = SharedMatrixStore(capacity=2)
        try:
            digests = []
            for s in range(3):
                m = gen.power_law_graph(100, seed=s)
                d = fingerprint_matrix(m).digest
                digests.append(d)
                with store.lease(d, m):
                    pass
            assert len(store.segment_names()) == 2
        finally:
            store.close()
        assert store.segment_names() == ()


# ---------------------------------------------------------------------------
# Crash safety
# ---------------------------------------------------------------------------


class TestCrashSafety:
    def _fresh(self, registry=None, resilience=None):
        return ShardedExecutor(
            policy=ShardingPolicy(n_shards=3, backend="process"),
            registry=NULL_REGISTRY if registry is None else registry,
            resilience=resilience,
        )

    def test_seeded_kill_recovers_with_correct_result(self):
        matrix = gen.power_law_graph(500, seed=0)
        x = make_rhs(matrix, seed=0)
        with self._fresh() as ex:
            ex.run_spmv(matrix, x)           # seq 0: warm
            ex.backend.kill_requests.add(1)  # seq 1 dies mid-dispatch
            res = ex.run_spmv(matrix, x)
            assert_matches_reference(res.y, matrix, x)
            # The healed pool served the retry remotely: no degradation.
            assert res.degraded_shards == ()
            assert ex.backend.restarts >= 1

    def test_seeded_kill_with_resilience_zero_incorrect_results(self):
        matrix = gen.power_law_graph(500, seed=1)
        x = make_rhs(matrix, seed=0)
        ref = ShardedExecutor(
            policy=ShardingPolicy(n_shards=3, backend="inline"),
            registry=NULL_REGISTRY,
        )
        with self._fresh(resilience=_fast_resilience()) as ex:
            expected = ref.run_spmv(matrix, x).y
            ex.run_spmv(matrix, x)
            ex.backend.kill_requests.update({1, 3})
            for _ in range(5):
                res = ex.run_spmv(matrix, x)
                assert np.array_equal(res.y, expected)
            assert ex.backend.restarts >= 2
        ref.close()

    def test_restart_metric_counts_pool_deaths(self):
        registry = MetricsRegistry()
        matrix = gen.power_law_graph(400, seed=2)
        x = make_rhs(matrix, seed=0)
        with self._fresh(registry=registry) as ex:
            ex.run_spmv(matrix, x)
            ex.backend.kill_requests.add(1)
            ex.run_spmv(matrix, x)
            assert registry.counter(
                "shard_worker_restarts_total"
            ).value >= 1

    def test_kill_all_degrades_to_parent_serial_path(self):
        matrix = gen.power_law_graph(500, seed=3)
        x = make_rhs(matrix, seed=0)
        with self._fresh(resilience=_fast_resilience()) as ex:
            ex.run_spmv(matrix, x)
            ex.backend.kill_all = True
            res = ex.run_spmv(matrix, x)
            ex.backend.kill_all = False
            # Every worker dispatch died, so every shard fell back to
            # the parent-side serial reference path -- and the answer
            # is still right.
            assert res.degraded_shards == (0, 1, 2)
            assert_matches_reference(res.y, matrix, x)
            assert sum(ex.resilience_stats().fallbacks.values()) >= 3
            # The pool healed: the next request serves remotely again.
            assert ex.run_spmv(matrix, x).degraded_shards == ()

    def test_pool_self_heals_onto_new_worker_pids(self):
        matrix = gen.power_law_graph(400, seed=4)
        x = make_rhs(matrix, seed=0)
        with self._fresh() as ex:
            digest = fingerprint_matrix(matrix).digest
            descs, plans, _ = ex._shard_set_for(matrix, digest)
            backend: ProcessShardBackend = ex.backend
            before = {r.pid for r in backend.execute(
                matrix, digest, descs, plans, x, batch=False, max_rhs=None,
            )}
            backend.kill_requests.add(1)
            with pytest.raises(WorkerCrashError):
                backend.execute(
                    matrix, digest, descs, plans, x,
                    batch=False, max_rhs=None,
                )
            after = {r.pid for r in backend.execute(
                matrix, digest, descs, plans, x, batch=False, max_rhs=None,
            )}
            assert backend.restarts == 1
            assert before.isdisjoint(after)


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_use_after_close_raises(self):
        matrix = gen.power_law_graph(100, seed=0)
        ex = ShardedExecutor(
            policy=ShardingPolicy(n_shards=2, backend="process"),
            registry=NULL_REGISTRY,
        )
        ex.close()
        with pytest.raises(DeviceError, match="close"):
            ex.run_spmv(matrix, make_rhs(matrix, seed=0))

    def test_close_is_idempotent(self):
        ex = ShardedExecutor(
            policy=ShardingPolicy(n_shards=2, backend="process"),
            registry=NULL_REGISTRY,
        )
        ex.close()
        ex.close()
        assert ex.closed

    def test_context_manager_closes_backend(self):
        matrix = gen.power_law_graph(100, seed=1)
        with ShardedExecutor(
            policy=ShardingPolicy(n_shards=2, backend="process"),
            registry=NULL_REGISTRY,
        ) as ex:
            ex.run_spmv(matrix, make_rhs(matrix, seed=0))
        assert ex.closed
        assert ex.backend.store.segment_names() == ()

    def test_server_close_tears_down_process_backend(self):
        matrix = gen.power_law_graph(200, seed=2)
        server = SpMVServer(
            registry=NULL_REGISTRY,
            sharding=ShardingPolicy(n_shards=2, backend="process"),
        )
        x = make_rhs(matrix, seed=0)
        server.submit(matrix, x)
        names = server._sharded.backend.store.segment_names()
        assert names
        server.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


# ---------------------------------------------------------------------------
# Wall clock (needs real cores to mean anything)
# ---------------------------------------------------------------------------


class TestWallClock:
    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 4,
        reason="wall-clock acceptance needs >= 4 cores "
               "(the 1-core gate lives in BENCH-SERVING)",
    )
    def test_process_sharding_beats_unsharded_wall_p50(self):
        from time import perf_counter

        matrix = gen.power_law_graph(20_000, seed=0)
        x = make_rhs(matrix, seed=0)

        def p50(server):
            for _ in range(3):
                server.submit(matrix, x)
            samples = []
            for _ in range(15):
                t = perf_counter()
                server.submit(matrix, x)
                samples.append(perf_counter() - t)
            server.close()
            return float(np.median(samples))

        unsharded = p50(SpMVServer(registry=NULL_REGISTRY))
        process = p50(SpMVServer(
            registry=NULL_REGISTRY,
            sharding=ShardingPolicy(n_shards=4, backend="process"),
        ))
        assert process < unsharded


# ---------------------------------------------------------------------------
# Trace propagation across the process boundary
# ---------------------------------------------------------------------------


class TestTracePropagation:
    def test_reports_echo_trace_identity(self):
        matrix = gen.power_law_graph(300, seed=0)
        x = make_rhs(matrix, seed=0)
        with ShardedExecutor(
            policy=ShardingPolicy(n_shards=2, backend="process"),
            registry=NULL_REGISTRY,
        ) as ex:
            digest = fingerprint_matrix(matrix).digest
            descs, plans, _ = ex._shard_set_for(matrix, digest)
            reports = ex.backend.execute(
                matrix, digest, descs, plans, x,
                batch=False, max_rhs=None,
                trace_ref=("trace-xyz", "span-abc"),
            )
            assert all(r.trace_id == "trace-xyz" for r in reports)
            assert all(r.parent_span_id == "span-abc" for r in reports)
            assert all(r.wall_end >= r.wall_start for r in reports)
            assert all(r.pid != os.getpid() for r in reports)

    def test_server_trace_contains_worker_spans(self):
        matrix = gen.power_law_graph(300, seed=1)
        x = make_rhs(matrix, seed=0)
        with SpMVServer(
            registry=NULL_REGISTRY,
            sharding=ShardingPolicy(n_shards=2, backend="process"),
            tracing=TracingPolicy(),
        ) as server:
            server.submit(matrix, x)
            res = server.submit(matrix, x)
            workers = [
                r for r in server.trace_recorder.records(res.trace_id)
                if r.name == "shard.worker"
            ]
            assert len(workers) == 2
            assert all(r.attrs["backend"] == "process" for r in workers)
            assert all(r.attrs["pid"] != os.getpid() for r in workers)


# ---------------------------------------------------------------------------
# Fingerprint identity fast path
# ---------------------------------------------------------------------------


class TestFingerprintIdentity:
    def test_one_hash_for_repeated_identical_submits(self):
        matrix = gen.power_law_graph(300, seed=0)
        x = make_rhs(matrix, seed=0)
        with SpMVServer(registry=NULL_REGISTRY) as server:
            for _ in range(5):
                server.submit(matrix, x)
            stats = server.stats().fingerprints
            assert stats.hashes == 1
            assert stats.identity_hits == 4

    def test_value_mutation_served_correctly_without_rehash(self):
        matrix = gen.power_law_graph(300, seed=1)
        x = make_rhs(matrix, seed=0)
        with SpMVServer(registry=NULL_REGISTRY) as server:
            y0 = server.submit(matrix, x).y
            matrix.val[:] = matrix.val * 3.0
            y1 = server.submit(matrix, x).y
            assert np.allclose(y1, 3.0 * y0)
            assert_matches_reference(y1, matrix, x)
            # Structure did not change, so neither did the hash count.
            assert server.stats().fingerprints.hashes == 1

    def test_invalidate_forces_rehash(self):
        matrix = gen.power_law_graph(300, seed=2)
        x = make_rhs(matrix, seed=0)
        with SpMVServer(registry=NULL_REGISTRY) as server:
            server.submit(matrix, x)
            server.invalidate(matrix)
            server.submit(matrix, x)
            stats = server.stats().fingerprints
            assert stats.invalidations == 1
            assert stats.hashes == 2

    def test_identity_requires_the_same_arrays(self):
        matrix = gen.power_law_graph(300, seed=3)
        clone = type(matrix)(
            matrix.rowptr.copy(), matrix.colidx.copy(),
            matrix.val.copy(), matrix.shape,
        )
        cache = FingerprintCache()
        fp_a = cache.fingerprint(matrix)
        fp_b = cache.fingerprint(clone)
        assert fp_a.digest == fp_b.digest
        assert cache.stats().hashes == 2

    def test_dead_matrices_are_evicted(self):
        cache = FingerprintCache()
        matrix = gen.power_law_graph(200, seed=4)
        cache.fingerprint(matrix)
        assert cache.stats().size == 1
        del matrix
        gc.collect()
        assert cache.stats().size == 0


# ---------------------------------------------------------------------------
# Scheduler integration over the process backend
# ---------------------------------------------------------------------------


class TestSchedulerIntegration:
    def test_coalesced_traffic_over_process_backend(self):
        matrix = gen.power_law_graph(500, seed=0)
        rng = np.random.default_rng(0)
        xs = [rng.standard_normal(matrix.ncols) for _ in range(12)]
        with SpMVServer(
            registry=NULL_REGISTRY,
            sharding=ShardingPolicy(n_shards=2, backend="process"),
            scheduler=CoalescePolicy(max_batch=4, max_wait_seconds=0.05),
        ) as server:
            with ThreadPoolExecutor(max_workers=6) as pool:
                results = list(pool.map(
                    lambda x: server.submit(matrix, x), xs
                ))
            for x, res in zip(xs, results):
                assert_matches_reference(res.y, matrix, x)
            stats = server.stats()
            assert stats.scheduler.batches < len(xs)
            assert stats.scheduler.mean_width > 1.0

    def test_scheduler_shares_the_fingerprint_cache(self):
        matrix = gen.power_law_graph(400, seed=1)
        rng = np.random.default_rng(1)
        xs = [rng.standard_normal(matrix.ncols) for _ in range(8)]
        with SpMVServer(
            registry=NULL_REGISTRY,
            scheduler=CoalescePolicy(max_batch=4, max_wait_seconds=0.05),
        ) as server:
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(lambda x: server.submit(matrix, x), xs))
            # Coalesce keys, plan lookups and submits all went through
            # the one identity cache: a single structural hash total.
            assert server.stats().fingerprints.hashes == 1
