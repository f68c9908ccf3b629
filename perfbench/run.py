"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload warm_irregular --seed 1 \
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate traced run that reports the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from time import perf_counter

BENCH_DIR = pathlib.Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / ".out"

#: Set-ups per run; ``setup_s`` and ``core.fit_s`` report their median.
SETUP_REPEATS = 3
#: Interleaved repetitions of each layer probe in a traced run.
PROBE_REPEATS = 8


def import_program():
    """Put this checkout's ``src`` first on the path and import it."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    sys.path.insert(0, str(BENCH_DIR))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SRC_DIR / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC_DIR}")


def stop_child_processes() -> None:
    """End every process this run started, and wait for each.

    The traced run's process-backend probe joins its pool on close, but
    ``multiprocessing.shared_memory`` also starts a resource-tracker
    process that otherwise lives on past this one's exit.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the tracker's pipe and waits for it to exit
    elif getattr(tracker, "_pid", None) is not None:
        import os
        import signal

        os.kill(tracker._pid, signal.SIGTERM)
        os.waitpid(tracker._pid, 0)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def install_spans(tracer) -> None:
    """Wrap the program's layer entry points with benchmark spans."""
    import repro.core.framework as framework
    import repro.serve.fingerprint as fingerprint
    import repro.serve.server as server
    import repro.shard.executor as shard_executor
    import repro.shard.partition as partition
    from repro.binning.base import BinningScheme
    from repro.core.framework import AutoTuner
    from repro.serve import SpMVServer

    def submit_info(res):
        return {"k": 1 if res.y.ndim == 1 else res.y.shape[1],
                "n_dispatches": res.n_dispatches}

    tracer.wrap(AutoTuner, "plan", "core.plan")
    tracer.wrap(framework, "extract_features", "features.extract")
    tracer.wrap(partition, "extract_features", "features.extract")
    tracer.wrap(fingerprint, "fingerprint_matrix", "serve.fingerprint")
    tracer.wrap(shard_executor, "fingerprint_matrix", "serve.fingerprint")
    for module in (server, shard_executor):
        tracer.wrap(module, "run_plan_spmv", "device.run_plan_spmv")
        tracer.wrap(module, "run_plan_spmm", "device.run_plan_spmm")
    tracer.wrap(SpMVServer, "submit", "serve.submit", submit_info)
    tracer.wrap(SpMVServer, "submit_batch", "serve.submit_batch",
                submit_info)
    pending = list(BinningScheme.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "bin_rows" in cls.__dict__:
            tracer.wrap(cls, "bin_rows", "binning.bin_rows")


def probe_pairs(timer, calls, requests, repeats: int) -> None:
    """Serve ``requests`` through every call in ``calls``, each paired
    with scipy, rotating which call goes first."""
    for rep in range(repeats):
        for i, (matrix, operand) in enumerate(requests):
            A = matrix.to_scipy()
            order = list(calls)
            shift = (rep + i) % len(order)
            for name in order[shift:] + order[:shift]:
                timer[name].pair(lambda: calls[name](matrix, operand),
                                 lambda: A @ operand)


def layer_probes(w, workloads) -> dict:
    """Per-layer ratios measured beside the workload (traced run only)."""
    from harness import RefTimer
    from repro.serve import SpMVServer
    from repro.serve.batch import run_plan_spmm, run_plan_spmv
    from repro.shard import ShardingPolicy

    requests = w.probe_requests()
    device = w.tuner.device
    out = {}

    # run_plan_* on the cached (tuned) plan against scipy.
    plans = {id(m): w.tuner.plan(m) for m, _ in requests}

    def run_plan(m, operand):
        fn = run_plan_spmm if operand.ndim == 2 else run_plan_spmv
        return fn(device, m, operand, plans[id(m)])

    timer = {"run_plan": RefTimer()}
    probe_pairs(timer, {"run_plan": run_plan}, requests, PROBE_REPEATS)
    out["device.run_plan_vs_scipy"] = timer["run_plan"].wall_vs_ref

    # The bare server, then each in-process policy alone.
    servers = workloads.policy_servers(w.tuner)
    try:
        calls = {
            name: (lambda s: lambda m, v: (
                s.submit_batch(m, v) if v.ndim == 2 else s.submit(m, v)
            ))(s)
            for name, s in servers.items()
        }
        for m, v in requests:  # plan and bind outside the timing
            for call in calls.values():
                call(m, v)
        timer = {name: RefTimer() for name in calls}
        probe_pairs(timer, calls, requests, PROBE_REPEATS)
    finally:
        for s in servers.values():
            s.close()
    bare = timer["bare"].wall_vs_ref
    out["serve.bare_vs_scipy"] = bare
    for name, key in (("frontdoor", "serve.frontdoor"), ("trace", "trace"),
                      ("blackbox", "blackbox"), ("resilient", "resilient"),
                      ("learn", "learn"), ("shard", "shard")):
        out[f"{key}.added_vs_scipy"] = timer[name].wall_vs_ref - bare

    # The process backend's matvec (K=2, two workers).
    server = SpMVServer(w.tuner, sharding=ShardingPolicy(
        n_shards=2, backend="process", process_workers=2))
    try:
        single = [(m, v) for m, v in requests if v.ndim == 1]
        for m, v in single:
            server.submit(m, v)
        timer = {"process": RefTimer()}
        probe_pairs(timer, {"process": server.submit}, single,
                    PROBE_REPEATS)
        out["shard.process_matvec_vs_scipy"] = timer["process"].wall_vs_ref
        out["shard.max_imbalance"] = server.stats().shards.max_imbalance
    finally:
        server.close()
    return out


def layer_metrics(w, tracer, fits, timers, loop_spans, probes) -> dict:
    from harness import quantile

    setup_and_loop = tracer.spans[:loop_spans[1]]
    loop = tracer.spans[loop_spans[0]:loop_spans[1]]

    def p50_ms(name, spans=setup_and_loop):
        durs = [s["end"] - s["start"] for s in spans if s["name"] == name]
        return quantile(durs, 0.5) * 1e3 if durs else 0.0

    serving = [s for s in loop
               if s["name"] in ("serve.submit", "serve.submit_batch")]
    serve_s = sum(s["end"] - s["start"] for s in serving)
    rhs = sum(s["k"] for s in serving)
    solve = tracer.self_times().get("solvers.cg")
    traced_rounds = max(1, w.rounds // 2)
    m = {
        "core.fit_s": metric(quantile(fits, 0.5), "s"),
        "core.plan_ms_p50": metric(p50_ms("core.plan"), "ms"),
        "features.extract_ms_p50": metric(p50_ms("features.extract"), "ms"),
        "binning.bin_rows_ms_p50": metric(p50_ms("binning.bin_rows"), "ms"),
        "serve.fingerprint_ms_p50": metric(p50_ms("serve.fingerprint"),
                                           "ms"),
        "serve.plan_builds": metric(
            sum(s["name"] == "core.plan" for s in loop) / traced_rounds,
            "1/round"),
        "serve.plan_cache_hit_ratio": metric(
            w.plan_hits / max(1, w.plan_lookups), "ratio"),
        "core.sim_vs_oracle": metric(w.sim_tuned / w.sim_oracle, "x"),
        "device.dispatches_per_rhs": metric(
            sum(s["n_dispatches"] for s in serving) / max(1, rhs), "1/rhs"),
        "solvers.iterations_per_solve": metric(
            w.solve_iterations / max(1, w.solves), "count"),
        "solvers.self_share": metric(
            solve["self_s"] / solve["total_s"] if solve else 0.0, "ratio"),
        "serve.submit_ms_p50": metric(p50_ms("serve.submit", loop), "ms"),
        "serve.rhs_per_s": metric(rhs / serve_s if serve_s else 0.0, "1/s"),
        "bench.traced_over_untraced": metric(
            timers[True].wall_vs_ref / timers[False].wall_vs_ref, "x"),
    }
    for name, value in probes.items():
        m[name] = metric(value, "x")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads
    from harness import Checks, RefTimer, Tracer, peak_rss_mb, quantile

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    trace = bool(args.trace)
    tracer = Tracer()
    if trace:
        install_spans(tracer)
    checks = Checks()
    w = workloads.WORKLOADS[args.workload](args.seed, checks, tracer)
    corpus = workloads.training_corpus()
    try:
        setups, fits = [], []
        for _ in range(SETUP_REPEATS):
            w.close()
            t0 = perf_counter()
            tuner = workloads.fit_tuner(corpus)
            t1 = perf_counter()
            tracer.active = trace
            w.setup(tuner)
            tracer.active = False
            setups.append(perf_counter() - t0)
            fits.append(t1 - t0)

        # Closed loop, whole rounds.  A traced run alternates untraced
        # and traced rounds; their ratio is the spans' own cost.
        timers = {False: RefTimer(), True: RefTimer()}
        loop_start = len(tracer.spans)
        deadline = perf_counter() + args.seconds
        while True:
            traced_round = trace and w.rounds % 2 == 1
            w.timer = timers[traced_round]
            tracer.active = traced_round
            w.round()
            tracer.active = False
            if perf_counter() >= deadline and not (trace and w.rounds % 2):
                break
        loop_spans = (loop_start, len(tracer.spans))
        rss = peak_rss_mb()
        probes = layer_probes(w, workloads) if trace else {}
    finally:
        try:
            w.close()
            tracer.restore()
        finally:
            stop_child_processes()

    if trace:
        metrics = layer_metrics(w, tracer, fits, timers, loop_spans, probes)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{w.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans: {spans_path}")
        print(f"{'span':<24}{'count':>8}{'total s':>11}{'self s':>11}")
        for name, row in sorted(tracer.self_times().items()):
            print(f"{name:<24}{row['count']:>8}{row['total_s']:>11.4f}"
                  f"{row['self_s']:>11.4f}")
    else:
        e2e = timers[False].end_to_end()
        metrics = {
            "wall_vs_scipy": metric(e2e["wall_vs_scipy"], "x"),
            "request_vs_scipy_p50": metric(e2e["request_vs_scipy_p50"], "x"),
            "request_vs_scipy_p90": metric(e2e["request_vs_scipy_p90"], "x"),
            "sim_gflops": metric(e2e["sim_gflops"], "GFLOP/s"),
            "setup_s": metric(quantile(setups, 0.5), "s"),
            "peak_rss_mb": metric(rss, "MB"),
        }
    print(f"workload {w.name} seed {args.seed}: {w.rounds} rounds, "
          f"{len(timers[False].walls) + len(timers[True].walls)} timed "
          f"requests")
    if timers[False].walls:
        print(f"untraced request p50: program "
              f"{quantile(timers[False].walls, 0.5) * 1e3:.4f} ms, scipy "
              f"{quantile(timers[False].refs, 0.5) * 1e3:.4f} ms")
    for message in checks.messages:
        print(f"CHECK FAILED: {message}")
    if w.last_error:
        print(f"last failure: {w.last_error}")
    print(json.dumps({
        "correct": checks.correct,
        "attempted": w.attempted,
        "failed": w.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
