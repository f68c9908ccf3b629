"""Property and differential tests for ``repro.shard``.

Covers the three layers of the subsystem:

- partitioner: boundary invariants (every row in exactly one chunk,
  including the edge cases ``n_chunks > nrows``, all-empty rows, one
  dense row dominating the NNZ balance) and zero-copy sub-CSR views;
- sharded executor: output matches the single-device plan path within
  the differential tolerance policy (same as ``tests/differential.py``)
  across matrix families, both strategies and K in {1, 2, 4, 8};
  per-shard resilience degrades a failing shard without poisoning its
  siblings;
- request scheduler: coalesced results are bit-identical per column,
  backpressure raises ``QueueFullError``, close() drains pending work.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tests.differential import (
    ATOL,
    RTOL,
    make_rhs,
    make_rhs_block,
    pathological_matrices,
)
from repro.device.executor import SimulatedDevice
from repro.errors import DeviceError, QueueFullError
from repro.formats.csr import CSRMatrix
from repro.matrices import generators as gen
from repro.observe import NULL_REGISTRY, MetricsRegistry
from repro.resilient import (
    ChaosDevice,
    FaultKind,
    FaultSchedule,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.serve.batch import run_plan_spmv
from repro.serve.server import SpMVServer, heuristic_planner
from repro.shard import (
    CoalescePolicy,
    PartitionStrategy,
    RequestScheduler,
    ShardedExecutor,
    ShardingPolicy,
    extract_row_block,
    make_shards,
    row_partition,
)

pytestmark = pytest.mark.shard


def _matrix(seed=0, nrows=300, ncols=300, max_len=12):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, max_len, size=nrows)
    return CSRMatrix.from_row_lengths(lengths, ncols, rng=rng)


class TestRowPartition:
    """Boundary invariants of the promoted partitioner."""

    def _check_bounds(self, m, bounds, n_chunks):
        assert len(bounds) == n_chunks + 1
        assert bounds[0] == 0 and bounds[-1] == m.nrows
        assert np.all(np.diff(bounds) >= 0)  # every row in exactly one chunk

    @pytest.mark.parametrize("strategy", list(PartitionStrategy))
    @pytest.mark.parametrize("n_chunks", [1, 2, 3, 7, 16])
    def test_bounds_cover_rows_exactly_once(self, strategy, n_chunks):
        m = _matrix(0)
        self._check_bounds(m, row_partition(m, n_chunks, strategy), n_chunks)

    @pytest.mark.parametrize("strategy", list(PartitionStrategy))
    def test_more_chunks_than_rows(self, strategy):
        # n_chunks > nrows: some chunks are empty but coverage is exact.
        m = _matrix(1, nrows=5, ncols=5, max_len=4)
        bounds = row_partition(m, 12, strategy)
        self._check_bounds(m, bounds, 12)

    @pytest.mark.parametrize("strategy", list(PartitionStrategy))
    def test_all_empty_rows(self, strategy):
        m = CSRMatrix.empty((40, 8))
        bounds = row_partition(m, 4, strategy)
        self._check_bounds(m, bounds, 4)

    def test_one_dense_row_dominates_nnz(self):
        # One row holds ~all non-zeros: it swallows several NNZ targets,
        # leaving empty chunks around it -- must not crash or drop rows.
        m = gen.dense_row_outliers(200, outlier_count=1, seed=2)
        bounds = row_partition(m, 8, PartitionStrategy.NNZ)
        self._check_bounds(m, bounds, 8)

    def test_nnz_balances_better_than_rows_on_skew(self):
        m = gen.power_law_graph(2_000, seed=3)

        def worst_chunk(strategy):
            b = row_partition(m, 8, strategy)
            return max(
                int(m.rowptr[hi] - m.rowptr[lo])
                for lo, hi in zip(b[:-1], b[1:])
            )

        assert (worst_chunk(PartitionStrategy.NNZ)
                <= worst_chunk(PartitionStrategy.ROWS))

    def test_rejects_bad_chunk_count(self):
        with pytest.raises(ValueError):
            row_partition(_matrix(4), 0, PartitionStrategy.ROWS)

    def test_cpu_reexport_is_same_object(self):
        # device.cpu re-exports for compatibility; must stay one object
        # so isinstance/identity checks across layers agree.
        from repro.device import cpu

        assert cpu.row_partition is row_partition
        assert cpu.PartitionStrategy is PartitionStrategy


class TestExtractRowBlock:
    def test_zero_copy_views(self):
        m = _matrix(5)
        sub = extract_row_block(m, 50, 150)
        assert np.shares_memory(sub.colidx, m.colidx)
        assert np.shares_memory(sub.val, m.val)
        assert sub.shape == (100, m.ncols)

    def test_matches_dense_slice(self):
        m = _matrix(6, nrows=80, ncols=40)
        sub = extract_row_block(m, 17, 63)
        np.testing.assert_array_equal(sub.to_dense(), m.to_dense()[17:63])

    def test_empty_range_and_full_range(self):
        m = _matrix(7, nrows=30, ncols=30)
        assert extract_row_block(m, 10, 10).nrows == 0
        np.testing.assert_array_equal(
            extract_row_block(m, 0, m.nrows).to_dense(), m.to_dense()
        )

    def test_rejects_bad_range(self):
        m = _matrix(8, nrows=10, ncols=10, max_len=8)
        with pytest.raises(ValueError):
            extract_row_block(m, 5, 3)
        with pytest.raises(ValueError):
            extract_row_block(m, 0, 11)


class TestMakeShards:
    @pytest.mark.parametrize("strategy", list(PartitionStrategy))
    def test_shards_cover_every_row_once(self, strategy):
        m = _matrix(9)
        shards = make_shards(m, 6, strategy)
        spans = sorted(
            (s.descriptor.row_lo, s.descriptor.row_hi) for s in shards
        )
        assert spans[0][0] == 0 and spans[-1][1] == m.nrows
        for (_, hi), (lo, _) in zip(spans[:-1], spans[1:]):
            assert hi == lo  # contiguous, no gaps, no overlap

    def test_empty_chunks_dropped_and_ids_renumbered(self):
        m = _matrix(10, nrows=3, ncols=3, max_len=3)
        shards = make_shards(m, 10, PartitionStrategy.ROWS)
        assert 0 < len(shards) <= 3
        assert [s.descriptor.shard_id for s in shards] == list(
            range(len(shards))
        )

    def test_per_shard_features_present(self):
        m = _matrix(11)
        shards = make_shards(m, 4)
        for s in shards:
            assert s.features is not None
            assert s.features.m == s.descriptor.n_rows
        assert all(
            s.features is None for s in make_shards(m, 4, with_features=False)
        )

    def test_zero_row_matrix_yields_one_empty_shard(self):
        shards = make_shards(CSRMatrix.empty((0, 7)), 4)
        assert len(shards) == 1
        assert shards[0].descriptor.n_rows == 0


class TestShardedExecutorDifferential:
    """Sharded output must match the single-device plan path.

    Tolerance policy matches ``tests/differential.py``: shards split
    rows (never one row's partial sums), so each output element is
    computed by exactly one shard and the comparison should hold to
    RTOL/ATOL; K=1 is exactly the unsharded execution and must be
    bit-identical.
    """

    @pytest.mark.parametrize("strategy", list(PartitionStrategy))
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    def test_matches_single_device_across_families(self, strategy, n_shards):
        for name, m in pathological_matrices(17):
            x = make_rhs(m, 1)
            ref = run_plan_spmv(
                SimulatedDevice(registry=NULL_REGISTRY), m, x,
                heuristic_planner(m),
            )
            with ShardedExecutor(
                ShardingPolicy(n_shards=n_shards, strategy=strategy),
                registry=NULL_REGISTRY,
            ) as ex:
                res = ex.run_spmv(m, x)
            np.testing.assert_allclose(
                res.y, ref.u, rtol=RTOL, atol=ATOL,
                err_msg=f"{name} K={n_shards} {strategy}",
            )

    def test_single_shard_bit_identical(self):
        for name, m in pathological_matrices(23):
            x = make_rhs(m, 2)
            ref = run_plan_spmv(
                SimulatedDevice(registry=NULL_REGISTRY), m, x,
                heuristic_planner(m),
            )
            with ShardedExecutor(
                ShardingPolicy(n_shards=1), registry=NULL_REGISTRY
            ) as ex:
                res = ex.run_spmv(m, x)
            np.testing.assert_array_equal(res.y, ref.u, err_msg=name)
            assert res.n_shards == 1

    def test_spmm_columns_match_spmv(self):
        m = gen.power_law_graph(600, seed=4)
        X = make_rhs_block(m, 5, 3)
        with ShardedExecutor(
            ShardingPolicy(n_shards=4), registry=NULL_REGISTRY
        ) as ex:
            batch = ex.run_spmm(m, X)
            for j in range(X.shape[1]):
                single = ex.run_spmv(m, X[:, j])
                # batched kernels compute each column independently.
                np.testing.assert_array_equal(batch.y[:, j], single.y)
        assert batch.n_rhs == 5


class TestShardedExecutorBehaviour:
    def test_accounting_and_summary(self):
        reg = MetricsRegistry()
        m = gen.banded(800, bandwidth=6, seed=5)
        x = make_rhs(m, 6)
        with ShardedExecutor(
            ShardingPolicy(n_shards=4), registry=reg
        ) as ex:
            first = ex.run_spmv(m, x)
            second = ex.run_spmv(m, x)
            stats = ex.stats()
        # Makespan model: parallel time is the slowest shard, and the
        # serial-equivalent cost is the sum.
        assert first.seconds == max(first.summary.shard_seconds)
        assert first.summary.total_shard_seconds == pytest.approx(
            sum(first.summary.shard_seconds)
        )
        assert first.imbalance >= 1.0
        assert first.summary.gather_seconds >= 0.0
        # Second run of the same pattern hits all per-shard plans.
        assert not first.cache_hit and second.cache_hit
        assert stats.executions == 2
        assert stats.shards_executed == first.n_shards + second.n_shards
        assert stats.cache.hits >= first.n_shards
        assert "imbalance" in stats.describe()

    def test_sharding_beats_single_device_makespan(self):
        # The point of sharding: simulated makespan (max shard seconds)
        # undercuts the single-device time on a large enough matrix.
        m = gen.power_law_graph(4_000, seed=6)
        x = make_rhs(m, 7)
        ref = run_plan_spmv(
            SimulatedDevice(registry=NULL_REGISTRY), m, x,
            heuristic_planner(m),
        )
        with ShardedExecutor(
            ShardingPolicy(n_shards=4), registry=NULL_REGISTRY
        ) as ex:
            res = ex.run_spmv(m, x)
        assert res.seconds < ref.seconds

    def test_failing_shard_degrades_without_poisoning_siblings(self):
        # Device 0 always hard-fails; shard 0 must degrade to the
        # serial path on the unwrapped device while the other shards
        # run tuned, and the gathered result must still be correct.
        m = gen.banded(600, bandwidth=5, seed=8)
        x = make_rhs(m, 9)
        built = []

        def factory():
            if not built:
                dev = ChaosDevice(
                    SimulatedDevice(registry=NULL_REGISTRY),
                    FaultSchedule(script=[FaultKind.DEVICE] * 64),
                )
            else:
                dev = SimulatedDevice(registry=NULL_REGISTRY)
            built.append(dev)
            return dev

        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=2, backoff_base=1e-6,
                              backoff_max=1e-5),
        )
        with ShardedExecutor(
            ShardingPolicy(n_shards=4),
            device_factory=factory,
            resilience=policy,
            registry=NULL_REGISTRY,
        ) as ex:
            res = ex.run_spmv(m, x)
            assert res.degraded_shards == (0,)
            np.testing.assert_allclose(res.y, m @ x, rtol=RTOL, atol=ATOL)
            assert ex.stats().degraded_shards == 1
            assert ex.resilience_stats() is not None

    @pytest.mark.parametrize("resilient", [False, True])
    @pytest.mark.parametrize("backend", ["inline", "thread"])
    def test_warm_requests_redo_no_structure_work(self, monkeypatch,
                                                  backend, resilient):
        # Partitioning, shard features and shard hashing depend on the
        # structure alone: once it is known, a request only takes
        # row-block views of the matrix it was handed.
        import repro.core.framework as framework
        import repro.serve.fingerprint as fingerprint
        import repro.shard.executor as executor
        import repro.shard.partition as partition

        calls = {"make_shards": 0, "extract_features": 0,
                 "fingerprint_matrix": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(executor, "make_shards")
        counted(partition, "extract_features")
        counted(framework, "extract_features")
        counted(executor, "fingerprint_matrix")
        counted(fingerprint, "fingerprint_matrix")
        m = gen.power_law_graph(500, seed=12)
        x = make_rhs(m, 13)
        X = make_rhs_block(m, 3, 14)
        with SpMVServer(
            sharding=ShardingPolicy(n_shards=3, backend=backend),
            resilience=ResiliencePolicy() if resilient else None,
            registry=NULL_REGISTRY,
        ) as server:
            server.submit(m, x)
            server.submit_batch(m, X)
            calls.update(dict.fromkeys(calls, 0))
            for _ in range(3):
                res = server.submit(m, x)
                server.submit_batch(m, X)
            assert calls == dict.fromkeys(calls, 0)
            assert res.cache_hit
            np.testing.assert_allclose(res.y, m @ x, rtol=RTOL, atol=ATOL)

            m.val[:] *= -2.0  # in-place value update: same object
            res = server.submit(m, x)
            np.testing.assert_allclose(res.y, m @ x, rtol=RTOL, atol=ATOL)
            assert calls == dict.fromkeys(calls, 0)

            # A new object with the same structure is hashed once, as a
            # whole, by the server; the shard set is reused.
            clone = CSRMatrix(m.rowptr.copy(), m.colidx.copy(),
                              m.val * 0.5, m.shape)
            res = server.submit(clone, x)
            np.testing.assert_allclose(res.y, clone @ x, rtol=RTOL,
                                       atol=ATOL)
            batch = server.submit_batch(clone, X)
            np.testing.assert_allclose(batch.y, clone @ X, rtol=RTOL,
                                       atol=ATOL)
            assert res.cache_hit and batch.cache_hit
            assert calls == {"make_shards": 0, "extract_features": 0,
                             "fingerprint_matrix": 1}

    def test_use_after_close_raises(self):
        ex = ShardedExecutor(registry=NULL_REGISTRY)
        ex.close()
        ex.close()  # idempotent
        assert ex.closed
        m = _matrix(12, nrows=20, ncols=20)
        with pytest.raises(DeviceError, match="after close"):
            ex.run_spmv(m, np.ones(20))
        with pytest.raises(DeviceError, match="closed"):
            ex.__enter__()

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ShardingPolicy(n_shards=0)
        with pytest.raises(ValueError):
            ShardingPolicy(max_workers=0)
        with pytest.raises(ValueError):
            ShardingPolicy(plan_cache_capacity=0)


class TestRequestScheduler:
    def _server(self):
        return SpMVServer(registry=NULL_REGISTRY)

    def test_coalesced_columns_bit_identical_to_sequential(self):
        server = self._server()
        m = gen.banded(300, bandwidth=5, seed=10)
        rng = np.random.default_rng(11)
        xs = [rng.standard_normal(m.ncols) for _ in range(12)]
        sched = RequestScheduler(
            server.submit_batch,
            CoalescePolicy(max_batch=4, max_wait_seconds=0.2),
            registry=NULL_REGISTRY,
        )
        try:
            with ThreadPoolExecutor(max_workers=12) as pool:
                results = list(pool.map(lambda x: sched.submit(m, x), xs))
            for x, r in zip(xs, results):
                np.testing.assert_array_equal(
                    r.batch.y[:, r.column], server.submit(m, x).y
                )
            stats = sched.stats()
            assert stats.submitted == 12
            assert stats.batches == 3 and stats.max_width == 4
            assert stats.mean_width == pytest.approx(4.0)
            assert stats.flushes.get("full") == 3
            assert "mean width" in stats.describe()
        finally:
            sched.close()

    def test_different_values_never_share_a_dispatch(self):
        # The fingerprint ignores values by design; the scheduler must
        # not -- a revalued matrix computes a different product.
        server = self._server()
        m = gen.banded(200, bandwidth=4, seed=12)
        other = CSRMatrix(
            m.rowptr, m.colidx, m.val * 3.0, m.shape
        )
        x = np.ones(m.ncols)
        sched = RequestScheduler(
            server.submit_batch,
            CoalescePolicy(max_batch=2, max_wait_seconds=0.05),
            registry=NULL_REGISTRY,
        )
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                fa = pool.submit(sched.submit, m, x)
                fb = pool.submit(sched.submit, other, x)
                ra, rb = fa.result(), fb.result()
            assert ra.width == 1 and rb.width == 1
            np.testing.assert_allclose(
                rb.batch.y[:, rb.column],
                3.0 * ra.batch.y[:, ra.column],
                rtol=RTOL, atol=ATOL,
            )
        finally:
            sched.close()

    def test_window_flush_when_batch_never_fills(self):
        server = self._server()
        m = gen.banded(150, bandwidth=3, seed=13)
        sched = RequestScheduler(
            server.submit_batch,
            CoalescePolicy(max_batch=64, max_wait_seconds=0.01),
            registry=NULL_REGISTRY,
        )
        try:
            res = sched.submit(m, np.ones(m.ncols))
            assert res.width == 1 and res.cause == "window"
            assert sched.stats().flushes.get("window") == 1
        finally:
            sched.close()

    def test_queue_full_raises_backpressure(self):
        # A long window + tiny queue: the admitted requests sit waiting
        # and the next submit must be rejected, not buffered.
        server = self._server()
        m = gen.banded(100, bandwidth=3, seed=14)
        sched = RequestScheduler(
            server.submit_batch,
            CoalescePolicy(max_batch=64, max_wait_seconds=30.0, max_queue=2),
            registry=NULL_REGISTRY,
        )
        pool = ThreadPoolExecutor(max_workers=2)
        try:
            waiters = [
                pool.submit(sched.submit, m, np.ones(m.ncols))
                for _ in range(2)
            ]
            # Wait until both are admitted (pending == max_queue).
            for _ in range(1000):
                if sched.stats().submitted == 2:
                    break
                threading.Event().wait(0.001)
            with pytest.raises(QueueFullError):
                sched.submit(m, np.ones(m.ncols))
            assert sched.stats().rejected == 1
        finally:
            sched.close()  # flushes the two waiters with cause "close"
            for w in waiters:
                assert w.result().cause == "close"
            pool.shutdown()

    def test_execute_failure_propagates_to_all_waiters(self):
        def boom(matrix, X):
            raise RuntimeError("dispatch exploded")

        m = gen.banded(100, bandwidth=3, seed=15)
        sched = RequestScheduler(
            boom, CoalescePolicy(max_batch=2, max_wait_seconds=5.0),
            registry=NULL_REGISTRY,
        )
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [
                    pool.submit(sched.submit, m, np.ones(m.ncols))
                    for _ in range(2)
                ]
                for f in futures:
                    with pytest.raises(RuntimeError, match="exploded"):
                        f.result()
        finally:
            sched.close()

    def test_submit_after_close_raises(self):
        sched = RequestScheduler(
            lambda m, X: None, CoalescePolicy(), registry=NULL_REGISTRY
        )
        sched.close()
        sched.close()  # idempotent
        assert sched.closed
        m = _matrix(16, nrows=10, ncols=10, max_len=8)
        with pytest.raises(DeviceError, match="after close"):
            sched.submit(m, np.ones(10))
        with pytest.raises(DeviceError, match="closed"):
            sched.__enter__()

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            CoalescePolicy(max_batch=0)
        with pytest.raises(ValueError):
            CoalescePolicy(max_wait_seconds=-1.0)
        with pytest.raises(ValueError):
            CoalescePolicy(max_queue=0)


class TestServerIntegration:
    """`sharding=` / `scheduler=` kwargs end to end through SpMVServer."""

    def test_sharded_server_matches_unsharded(self):
        m = gen.power_law_graph(900, seed=20)
        rng = np.random.default_rng(21)
        xs = [rng.standard_normal(m.ncols) for _ in range(4)]
        plain = SpMVServer(registry=NULL_REGISTRY)
        refs = [plain.submit(m, x).y for x in xs]
        with SpMVServer(
            registry=NULL_REGISTRY, sharding=ShardingPolicy(n_shards=4)
        ) as server:
            for x, ref in zip(xs, refs):
                res = server.submit(m, x)
                np.testing.assert_allclose(res.y, ref, rtol=RTOL, atol=ATOL)
                assert res.plan is None and res.shards is not None
            X = np.column_stack(xs)
            batch = server.submit_batch(m, X)
            np.testing.assert_allclose(
                batch.y, np.column_stack(refs), rtol=RTOL, atol=ATOL
            )
            stats = server.stats()
            assert stats.shards is not None
            assert stats.shards.executions == len(xs) + 1
            assert "sharding:" in stats.describe()

    def test_coalescing_server_stats_surface(self):
        m = gen.banded(250, bandwidth=4, seed=22)
        rng = np.random.default_rng(23)
        xs = [rng.standard_normal(m.ncols) for _ in range(8)]
        with SpMVServer(
            registry=NULL_REGISTRY,
            scheduler=CoalescePolicy(max_batch=4, max_wait_seconds=0.2),
        ) as server:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(lambda x: server.submit(m, x), xs))
            for x, res in zip(xs, results):
                np.testing.assert_allclose(
                    res.y, m @ x, rtol=1e-8, atol=1e-10
                )
            widths = {res.coalesced_width for res in results}
            assert widths == {4}
            stats = server.stats()
            assert stats.scheduler is not None
            assert stats.scheduler.submitted == 8
            assert "coalescing:" in stats.describe()
