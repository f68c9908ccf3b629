"""Run one workload N times and summarise each metric against its bound.

Usage (from the repository root)::

    python3 perfbench/repeat.py --workload plan_churn --runs 10 \
        --first-seed 100 [--save perfbench/.out/a.json] \
        [--against perfbench/.out/a.json]

Each run gets its own seed (``--first-seed``, ``+1``, ...).  For every
metric the table shows the median and the quartiles of the runs
(``statistics.quantiles(values, n=4)``), the spread ``(Q3 - Q1) /
median`` and the metric's bound from ``BENCHMARK.json``.  ``--against``
compares this set's medians with a saved set: the change counts as worse
when it moves against the metric's direction by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # The absolute per-request figures behind the ratios, for reference.
    for line in lines:
        if line.startswith("untraced request p50:"):
            words = line.split()
            result["absolute_ms"] = {"program": float(words[4]),
                                     "scipy": float(words[7])}
    return result


def summarise(runs, specs) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (med, med, med))
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / abs(med) if med else 0.0,
                     "bound": specs.get(name, {}).get("bound"),
                     "better": specs.get(name, {}).get("better"),
                     "unit": runs[0]["metrics"][name]["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write this set's runs as JSON")
    parser.add_argument("--against", help="a set saved with --save")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        started = time.perf_counter()
        runs.append(run_once(args.workload, seed, seconds, args.trace))
        r = runs[-1]
        print(f"seed {seed} ({time.perf_counter() - started:.1f} s): "
              f"correct={r['correct']} attempted={r['attempted']}"
              f" failed={r['failed']} " + " ".join(
                  f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()),
              flush=True)
    if args.save:
        pathlib.Path(args.save).write_text(json.dumps(runs))

    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"\n{args.workload}: {len(runs)} runs of {seconds} s, "
          f"failed share(s) {sorted(shares)}, "
          f"all correct: {all(r['correct'] for r in runs)}")
    for side in ("program", "scipy"):
        values = [r["absolute_ms"][side] for r in runs if "absolute_ms" in r]
        if len(values) > 1:
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"absolute {side} request p50: median {med:.4g} ms, "
                  f"quartiles {q1:.4g}-{q3:.4g} ms")
    summary = summarise(runs, specs)
    before = (summarise(json.loads(pathlib.Path(args.against).read_text()),
                        specs) if args.against else {})
    print(f"{'metric':<34}{'median':>12}{'Q1':>12}{'Q3':>12}{'spread':>9}"
          f"{'bound':>7}  verdict" + ("   vs saved" if before else ""))
    for name, s in summary.items():
        bound = s["bound"]
        if bound is None:
            verdict = ""
        elif name == "setup_s":
            verdict = "median only"
        elif s["spread"] <= bound / 3:
            verdict = "steady"
        elif s["spread"] <= bound:
            verdict = "within bound"
        else:
            verdict = "OVER BOUND"
        line = (f"{name:<34}{s['median']:>12.5g}{s['q1']:>12.5g}"
                f"{s['q3']:>12.5g}{s['spread']:>9.2%}"
                f"{'' if bound is None else f'{bound:.2f}':>7}  {verdict}")
        if name in before and bound is not None:
            old = before[name]["median"]
            change = (s["median"] - old) / abs(old)
            worse = change if s["better"] == "lower" else -change
            line += (f"   {change:+.2%} "
                     f"{'WORSE THAN BOUND' if worse > bound else 'ok'}")
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
