"""Measurement machinery shared by every workload.

- :class:`RefTimer` times each program request and then its reference
  computation (scipy on the same operands) with the same clock, and keeps
  the pair.  Every wall-clock end-to-end metric is a ratio over those
  pairs, so most of the host's drift cancels: both sides of a pair run
  within milliseconds of each other.
- :class:`Checks` collects correctness failures; the reference result of
  each pair doubles as the oracle for that request.
- :class:`Tracer` records spans in memory around calls into the
  program's layer functions.  It wraps the functions from here, in the
  benchmark, so nothing in the program changes; the wrappers are only
  installed in a traced run.
"""

from __future__ import annotations

import json
import resource
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

#: Relative / absolute tolerance of every ``y`` against scipy.  The same
#: values as the program's differential test harness (tests/differential.py),
#: which also draws positive values so partial sums never cancel.
RTOL = 1e-10
ATOL = 1e-12


def positive_values(matrix, rng: np.random.Generator):
    """The same sparsity structure with values redrawn in ``[0.5, 1.5)``."""
    return type(matrix)(
        matrix.rowptr, matrix.colidx, rng.random(matrix.nnz) + 0.5,
        matrix.shape,
    )


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (``numpy.quantile``) of ``values``."""
    return float(np.quantile(np.asarray(values, dtype=float), q))


class Checks:
    """Correctness failures seen in a run (first few kept verbatim)."""

    def __init__(self) -> None:
        self.failures = 0
        self.messages: List[str] = []
        self._sim: Dict[tuple, float] = {}

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures += 1
            if len(self.messages) < 10:
                self.messages.append(message)

    def close_to(self, actual, reference, label: str) -> None:
        """``actual`` matches the reference product within RTOL/ATOL."""
        self.expect(
            actual.shape == reference.shape
            and bool(np.allclose(actual, reference, rtol=RTOL, atol=ATOL)),
            f"{label}: result differs from scipy beyond rtol={RTOL}",
        )

    def same_sim(self, key: tuple, seconds: float, label: str) -> None:
        """Repeated executions of one (matrix, plan, k) report identical
        simulated seconds."""
        first = self._sim.setdefault(key, seconds)
        self.expect(seconds == first,
                    f"{label}: simulated seconds {seconds!r} != {first!r} "
                    "on a repeat of the same matrix and plan")

    @property
    def correct(self) -> bool:
        return self.failures == 0


class RefTimer:
    """Interleaved program/reference timer: one pair per request."""

    def __init__(self) -> None:
        self.walls: List[float] = []
        self.refs: List[float] = []
        self.flops = 0.0
        self.sim_seconds = 0.0

    def pair(self, call: Callable, reference: Callable):
        """Run the program call, then its reference; return both results.

        An exception from ``call`` propagates before anything is
        recorded, so a failed request leaves no pair behind.
        """
        t0 = perf_counter()
        out = call()
        t1 = perf_counter()
        ref = reference()
        t2 = perf_counter()
        self.walls.append(t1 - t0)
        self.refs.append(t2 - t1)
        return out, ref

    def account(self, *, flops: float, sim_seconds: float) -> None:
        self.flops += flops
        self.sim_seconds += sim_seconds

    @property
    def wall_vs_ref(self) -> float:
        return sum(self.walls) / sum(self.refs)

    def request_ratios(self) -> np.ndarray:
        return np.asarray(self.walls) / np.asarray(self.refs)

    def end_to_end(self) -> Dict[str, float]:
        ratios = self.request_ratios()
        return {
            "wall_vs_scipy": self.wall_vs_ref,
            "request_vs_scipy_p50": quantile(ratios, 0.50),
            "request_vs_scipy_p90": quantile(ratios, 0.90),
            "sim_gflops": self.flops / self.sim_seconds / 1e9,
        }


def peak_rss_mb() -> float:
    """Peak resident set of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory spans around calls into the program's layers.

    ``wrap`` replaces a module function or class method with a wrapper
    that opens a span while :attr:`active` is true and otherwise calls
    straight through; ``restore`` puts every original back.  Spans nest
    on the one client thread, so a span's parent is the innermost span
    open when it started.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.active = False
        self._stack: List[int] = []
        self._originals: List[tuple] = []

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield {}
            return
        rec = {"name": name, "start": perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str,
             annotate: Optional[Callable] = None) -> None:
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            with tracer.span(name) as rec:
                out = original(*args, **kwargs)
                if annotate is not None:
                    rec.update(annotate(out))
                return out

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._originals.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -- analysis --------------------------------------------------------
    def self_times(self) -> Dict[str, dict]:
        """Per span name: count, total and self seconds (total minus the
        time its direct children cover)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: Dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            row = out.setdefault(s["name"],
                                 {"count": 0, "total_s": 0.0, "self_s": 0.0})
            dur = s["end"] - s["start"]
            row["count"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s}) + "\n")
