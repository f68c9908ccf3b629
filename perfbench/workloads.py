"""The four closed-loop workloads: one process, one client thread each.

Every workload serves seeded inputs through an ``SpMVServer`` built on
an ``AutoTuner`` trained on one fixed corpus, in whole *rounds* of the
same operations.  Each request is timed by the shared
:class:`~harness.RefTimer` right before scipy computes the same product
(or, for a solve, the benchmark's own CG over scipy's ``A @ x``), and
the program's result is checked against that reference.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from harness import Checks, RefTimer, Tracer, positive_values
from repro import AutoTuner, TuningSpace, generate_collection, spd_system
from repro.blackbox import BlackboxPolicy
from repro.learn import LearningPolicy
from repro.matrices import generators as gen
from repro.resilient import ResiliencePolicy
from repro.serve import AdmissionPolicy, SpMVServer, TenantConfig
from repro.serve.batch import run_plan_spmv
from repro.shard import ShardingPolicy
from repro.solvers import SolverSession, cg
from repro.trace import SLOTarget, TracingPolicy

#: The training corpus is fixed, whatever the workload seed: every run
#: plans with the same tuner, so plan choice is not a source of spread.
TRAIN_SEED = 0
TRAIN_MATRICES = 36
TRAIN_ROWS = (1_000, 10_000)

#: CG stopping tolerance (relative residual) for ``cg_solve``.
CG_TOL = 1e-8
CG_MAX_ITERATIONS = 500


def training_corpus():
    return [spec.build() for spec in generate_collection(
        TRAIN_MATRICES, seed=TRAIN_SEED, size_range=TRAIN_ROWS)]


def fit_tuner(corpus) -> AutoTuner:
    """The paper's two-stage tuner over the paper's own tuning space
    (coarse-binning granularities only), so plans are binned plans."""
    tuner = AutoTuner(space=TuningSpace(include_single_bin=False),
                      seed=TRAIN_SEED)
    tuner.fit(corpus)
    return tuner


def policy_servers(tuner):
    """The bare server and one server per in-process policy, each alone."""
    return {
        "bare": SpMVServer(tuner),
        "frontdoor": SpMVServer(tuner, admission=admission_policy()),
        "trace": SpMVServer(tuner, tracing=tracing_policy()),
        "blackbox": SpMVServer(tuner, blackbox=BlackboxPolicy()),
        "resilient": SpMVServer(tuner, resilience=ResiliencePolicy()),
        "learn": SpMVServer(tuner, learning=LearningPolicy(epsilon=0.0)),
        "shard": SpMVServer(tuner, sharding=ShardingPolicy(
            n_shards=2, backend="inline")),
    }


def admission_policy() -> AdmissionPolicy:
    """Two tenants, one per priority class, with rates that never bind."""
    return AdmissionPolicy(tenants={
        "interactive": TenantConfig(priority="latency", rate=1e9, burst=1e9),
        "bulk": TenantConfig(priority="batch", rate=1e9, burst=1e9),
    })


def tracing_policy() -> TracingPolicy:
    return TracingPolicy(slo=SLOTarget(p99=1.0))


def reference_cg(A, b: np.ndarray, tol: float, max_iterations: int):
    """Plain CG over scipy's ``A @ x``, step for step the program's
    method (zero start, same stopping rule); returns ``(x, iterations)``."""
    x = np.zeros_like(b)
    r = b.copy()
    norm_b = float(np.linalg.norm(b))
    threshold = norm_b if norm_b > 0.0 else 1.0
    if float(np.linalg.norm(r)) <= tol * threshold:
        return x, 0
    p = r.copy()
    rs = float(r @ r)
    iterations = 0
    for _ in range(max_iterations):
        Ap = A @ p
        pAp = float(p @ Ap)
        iterations += 1
        if pAp <= 0.0:
            break
        alpha = rs / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        rs_next = float(r @ r)
        if np.sqrt(rs_next) <= tol * threshold:
            break
        p = r + (rs_next / rs) * p
        rs = rs_next
    return x, iterations


class Workload:
    """One workload: seeded inputs, a server, whole rounds of requests."""

    name = ""

    def __init__(self, seed: int, checks: Checks, tracer: Tracer):
        self.seed = seed
        self.checks = checks
        self.tracer = tracer
        self.timer = RefTimer()
        self.tuner = None
        self.server = None
        self.attempted = 0
        self.failed = 0
        self.last_error = ""
        self.plan_hits = 0
        self.plan_lookups = 0
        self.rounds = 0
        self.solves = 0
        self.solve_iterations = 0
        self.sim_tuned = 0.0
        self.sim_oracle = 0.0
        self._oracle_checked = set()

    # -- lifecycle -------------------------------------------------------
    def setup(self, tuner) -> None:
        """Build the server on ``tuner`` and warm its plans (timed)."""
        self.tuner = tuner
        self.server = self.build_server()
        self.warm()

    def build_server(self):
        return SpMVServer(self.tuner)

    def warm(self) -> None:
        """Plan and bind every warm matrix once."""

    def round(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    def probe_requests(self):
        """``(matrix, operand)`` pairs the traced run's layer probes serve."""
        raise NotImplementedError

    # -- shared request path ----------------------------------------------
    @contextmanager
    def untraced(self):
        active, self.tracer.active = self.tracer.active, False
        try:
            yield
        finally:
            self.tracer.active = active

    def request(self, key: str, matrix, operand, A, *, tenant=None):
        """One timed submit (or k-wide submit_batch) paired with scipy."""
        batch = operand.ndim == 2
        fn = self.server.submit_batch if batch else self.server.submit
        self.attempted += 1
        try:
            res, ref = self.timer.pair(
                lambda: fn(matrix, operand, tenant=tenant),
                lambda: A @ operand,
            )
        except Exception as exc:  # counted as a failed operation
            self.failed += 1
            self.last_error = f"{self.name}/{key}: {exc!r}"
            return None
        k = operand.shape[1] if batch else 1
        self.timer.account(flops=2.0 * matrix.nnz * k,
                           sim_seconds=res.seconds)
        self.plan_lookups += 1
        self.plan_hits += int(res.cache_hit)
        self.checks.close_to(res.y, np.asarray(ref), f"{self.name}/{key}")
        self.checks.same_sim((key, k), res.seconds, f"{self.name}/{key}")
        return res

    def check_oracle(self, key: str, matrix) -> None:
        """The tuned plan is never faster (simulated) than the exhaustive
        oracle's; the sums feed ``core.sim_vs_oracle``."""
        if key in self._oracle_checked:
            return
        self._oracle_checked.add(key)
        with self.untraced():
            device = self.tuner.device
            x = np.ones(matrix.ncols)
            tuned = run_plan_spmv(device, matrix, x,
                                  self.tuner.plan(matrix)).seconds
            best = run_plan_spmv(device, matrix, x,
                                 self.tuner.oracle_plan(matrix)).seconds
        self.sim_tuned += tuned
        self.sim_oracle += best
        # Both sides come from the same cost model; the slack only
        # absorbs summation-order rounding.
        self.checks.expect(
            tuned >= best * (1.0 - 1e-12),
            f"{self.name}/{key}: tuned plan {tuned!r} s beats the oracle "
            f"{best!r} s",
        )


class WarmIrregular(Workload):
    """Large irregular matrices, single-RHS submits on warm plans."""

    name = "warm_irregular"
    SUBMITS_PER_ROUND = 4

    def __init__(self, seed, checks, tracer):
        super().__init__(seed, checks, tracer)
        rng = np.random.default_rng([seed, 1])
        raw = {
            "power_law": gen.power_law_graph(24_000, seed=rng),
            "bimodal": gen.bimodal_rows(12_000, long_len=160, seed=rng),
            "dense_rows": gen.dense_row_outliers(
                24_000, outlier_count=6, outlier_len=3_000, seed=rng),
        }
        self.inputs = []
        for key, m in raw.items():
            m = positive_values(m, rng)
            xs = [rng.random(m.ncols) + 0.5
                  for _ in range(self.SUBMITS_PER_ROUND)]
            self.inputs.append((key, m, m.to_scipy(), xs))

    def warm(self):
        for _, m, _, xs in self.inputs:
            self.server.submit(m, xs[0])

    def round(self):
        for i in range(self.SUBMITS_PER_ROUND):
            for key, m, A, xs in self.inputs:
                self.request(key, m, xs[i], A)
        for key, m, _, _ in self.inputs:
            self.check_oracle(key, m)
        self.rounds += 1

    def probe_requests(self):
        return [(m, xs[0]) for _, m, _, xs in self.inputs]


class PlanChurn(Workload):
    """A stream of distinct matrices through a plan cache smaller than it."""

    name = "plan_churn"
    CACHE_CAPACITY = 6
    UPDATES_PER_ROUND = 2
    #: One matrix of each family per round, at a row count from a fixed
    #: ladder that rotates by round.  The seed draws each matrix's family
    #: parameters and structure; the mix of families and sizes is the same
    #: in every run, so the stream's totals do not swing with the seed.
    FAMILIES = ("banded", "mesh_dual", "road_network", "power_law_graph",
                "combinatorial", "random_uniform", "bimodal",
                "fem_constrained")
    ROWS = (1_000, 1_300, 1_700, 2_200, 2_800, 3_600, 4_700, 6_000)

    def __init__(self, seed, checks, tracer):
        super().__init__(seed, checks, tracer)
        self._probe = []

    def build_server(self):
        return SpMVServer(self.tuner, cache_capacity=self.CACHE_CAPACITY)

    def round(self):
        r = self.rounds
        rng = np.random.default_rng([self.seed, 2, r])
        n = len(self.ROWS)
        specs = [
            generate_collection(1, seed=rng, weights={family: 1.0},
                                size_range=(rows, rows))[0]
            for family, rows in zip(
                self.FAMILIES,
                self.ROWS[r % n:] + self.ROWS[:r % n])
        ]
        live = []
        # Each matrix is built when it is due and served twice in a row:
        # a plan build, then a cache hit.
        for i, spec in enumerate(specs):
            key = f"r{r}.m{i}.{spec.family}"
            m = positive_values(spec.build(), rng)
            A = m.to_scipy()
            for _ in range(2):
                self.request(key, m, rng.random(m.ncols) + 0.5, A)
            live.append([key, m, A])
        # Writes beside the reads: new values in place, then invalidate;
        # the next result must reflect the new values.
        for entry in live[:self.UPDATES_PER_ROUND]:
            key, m, _ = entry
            m.val[:] = rng.random(m.nnz) + 0.5
            self.attempted += 1
            try:
                self.server.invalidate(m)
            except Exception as exc:  # counted as a failed operation
                self.failed += 1
                self.last_error = f"{self.name}/{key}: {exc!r}"
            entry[2] = m.to_scipy()
            self.request(key, m, rng.random(m.ncols) + 0.5, entry[2])
        # A second pass over the round: its reuse distance exceeds the
        # cache capacity, so most of these plans were evicted.
        for key, m, A in live:
            self.request(key, m, rng.random(m.ncols) + 0.5, A)
        for key, m, _ in live:
            self.check_oracle(key, m)
        self._probe = [(m, np.full(m.ncols, 1.0)) for _, m, _ in live[:3]]
        self.rounds += 1

    def probe_requests(self):
        return self._probe


class StackSmall(Workload):
    """Small matrices with every in-process policy on."""

    name = "stack_small"
    BATCH_K = 8
    TENANTS = ("interactive", "bulk", "interactive")
    #: Each generator at three sizes (about 2.5k, 5k and 9k nnz): request
    #: costs are graded rather than bunched in five clusters, where a
    #: percentile falling between two clusters would jump from run to run.
    SCALES = (0.5, 1.0, 1.6)

    def __init__(self, seed, checks, tracer):
        super().__init__(seed, checks, tracer)
        rng = np.random.default_rng([seed, 3])
        raw = {}
        for s in self.SCALES:
            raw.update({
                f"power_law.{s}": gen.power_law_graph(int(1_500 * s),
                                                      seed=rng),
                f"banded.{s}": gen.banded(int(1_000 * s), avg_nnz=6.0,
                                          seed=rng),
                f"bimodal.{s}": gen.bimodal_rows(int(1_000 * s),
                                                 long_len=40, seed=rng),
                f"dense_rows.{s}": gen.dense_row_outliers(
                    int(1_500 * s), base_len=3, outlier_count=2,
                    outlier_len=300, seed=rng),
                f"mesh_dual.{s}": gen.mesh_dual(int(1_500 * s), seed=rng),
            })
        self.inputs = []
        for key, m in raw.items():
            m = positive_values(m, rng)
            xs = [rng.random(m.ncols) + 0.5 for _ in self.TENANTS]
            X = rng.random((m.ncols, self.BATCH_K)) + 0.5
            self.inputs.append((key, m, m.to_scipy(), xs, X))

    def build_server(self):
        return SpMVServer(
            self.tuner,
            admission=admission_policy(),
            tracing=tracing_policy(),
            blackbox=BlackboxPolicy(),
            resilience=ResiliencePolicy(),
            learning=LearningPolicy(epsilon=0.0),
            sharding=ShardingPolicy(n_shards=2, backend="inline"),
        )

    def warm(self):
        for _, m, _, xs, X in self.inputs:
            self.server.submit(m, xs[0], tenant="interactive")
            self.server.submit_batch(m, X, tenant="bulk")

    def round(self):
        for key, m, A, xs, X in self.inputs:
            for tenant, x in zip(self.TENANTS, xs):
                self.request(key, m, x, A, tenant=tenant)
            self.request(key, m, X, A, tenant="bulk")
        for key, m, *_ in self.inputs:
            self.check_oracle(key, m)
        self.rounds += 1

    def probe_requests(self):
        # The middle size of each generator keeps the probes short.
        out = []
        for key, m, _, xs, X in self.inputs:
            if not key.endswith(f".{self.SCALES[1]}"):
                continue
            out.extend((m, x) for x in xs)
            out.append((m, X))
        return out


class CGSolve(Workload):
    """CG on banded SPD systems, matvecs through an unsharded server.

    Not the process backend: three processes on two shared cores made its
    ratio to the single-process reference follow the host's load (a 23%
    quartile spread over ten seeds).  The traced run measures the process
    path beside every workload instead.
    """

    name = "cg_solve"
    #: Five systems of graded size, one right-hand side each.  Their solve
    #: ratios form five bands of a fifth of the requests each, so p50 and
    #: p90 fall inside a band (the middle and the top one), where they
    #: measure a system, not between two, where they would jump.
    ROWS = (2_500, 4_000, 6_000, 8_500, 12_000)

    def __init__(self, seed, checks, tracer):
        super().__init__(seed, checks, tracer)
        rng = np.random.default_rng([seed, 4])
        self.inputs = []
        for rows in self.ROWS:
            m = spd_system(rows, seed=rng)
            b = rng.standard_normal(m.nrows)
            self.inputs.append((f"spd{rows}", m, m.to_scipy(), b))
        self.sessions = []

    def warm(self):
        self.sessions = [SolverSession(m, self.server)
                         for _, m, _, _ in self.inputs]
        for _, m, _, b in self.inputs:
            self.server.submit(m, b)

    def close(self):
        for session in self.sessions:
            session.close()
        self.sessions = []
        super().close()

    def round(self):
        for session, (key, m, A, b) in zip(self.sessions, self.inputs):
            self.solve(session, key, m, A, b)
        for key, m, _, _ in self.inputs:
            self.check_oracle(key, m)
        self.rounds += 1

    def solve(self, session, key, m, A, b):
        self.attempted += 1
        try:
            with self.tracer.span("solvers.cg"):
                res, (_, ref_iterations) = self.timer.pair(
                    lambda: cg(session, b, tol=CG_TOL,
                               max_iterations=CG_MAX_ITERATIONS),
                    lambda: reference_cg(A, b, CG_TOL, CG_MAX_ITERATIONS),
                )
        except Exception as exc:  # counted as a failed operation
            self.failed += 1
            self.last_error = f"{self.name}/{key}: {exc!r}"
            return
        matvecs = sum(r.spmv_calls for r in res.history)
        self.timer.account(flops=2.0 * m.nnz * matvecs,
                           sim_seconds=res.simulated_seconds)
        self.solves += 1
        self.solve_iterations += res.iterations
        self.plan_lookups += matvecs
        self.plan_hits += sum(r.cache_hits for r in res.history)
        label = f"{self.name}/{key}"
        residual = (np.linalg.norm(b - A @ res.x) / np.linalg.norm(b))
        self.checks.expect(res.converged and residual <= CG_TOL,
                           f"{label}: residual {residual:.3e} > {CG_TOL}")
        self.checks.expect(
            res.iterations == ref_iterations,
            f"{label}: {res.iterations} iterations, reference CG took "
            f"{ref_iterations}")
        for rec in res.history:
            self.checks.same_sim((key, 1), rec.simulated_seconds, label)

    def probe_requests(self):
        return [(m, b) for _, m, _, b in self.inputs]


WORKLOADS = {w.name: w for w in (WarmIrregular, PlanChurn, StackSmall,
                                  CGSolve)}
