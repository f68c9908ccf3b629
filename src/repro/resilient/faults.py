"""Seeded fault injection: the chaos side of the resilience layer.

A production SpMV server must survive executors that fail -- raising
dispatches, silently corrupted outputs, latency spikes.  This module
makes those failures *manufacturable on demand and reproducible*:

- :class:`FaultKind` enumerates the failure modes the serving path must
  tolerate (retryable and non-retryable raises, NaN/Inf poisoning of
  outputs, latency inflation);
- :class:`FaultSchedule` decides, per dispatch-sequence execution,
  whether to inject and which kind -- either from a seeded RNG at a
  configurable rate, or from an explicit scripted sequence for
  deterministic unit tests;
- :class:`ChaosDevice` wraps a :class:`SimulatedDevice` and applies the
  schedule to every dispatch sequence it runs, counting each injection
  in the metrics registry (``chaos_faults_injected_total{kind=...}``).

Fault *injection* lives here; fault *handling* (retries, breakers,
fallback) lives in :mod:`repro.resilient.executor` -- the chaos test
suite drives the former against the latter and asserts every surviving
result still equals the reference ``A @ x``.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.device.executor import SimulatedDevice
from repro.errors import DeviceError, KernelError, TransientDeviceError

__all__ = [
    "FaultKind",
    "FaultSchedule",
    "ChaosDevice",
    "DEFAULT_FAULT_MIX",
    "unwrap_device",
]


class FaultKind(enum.Enum):
    """One injectable failure mode of the execution path."""

    #: Raise :class:`~repro.errors.TransientDeviceError` (retry may work).
    TRANSIENT = "transient"
    #: Raise :class:`~repro.errors.DeviceError` (hard dispatch failure).
    DEVICE = "device"
    #: Raise :class:`~repro.errors.KernelError` (bad launch parameters).
    KERNEL = "kernel"
    #: Return a result whose output vector contains NaN entries.
    NAN_POISON = "nan_poison"
    #: Return a result whose output vector contains +/-Inf entries.
    INF_POISON = "inf_poison"
    #: Return a correct result whose accounted time is inflated.
    LATENCY_SPIKE = "latency_spike"


#: Exception type raised for each raising fault kind.
_RAISES = {
    FaultKind.TRANSIENT: TransientDeviceError,
    FaultKind.DEVICE: DeviceError,
    FaultKind.KERNEL: KernelError,
}

#: Default relative weights of the fault kinds: transients dominate (as
#: they do in real fleets), silent corruption is rarer but present.
DEFAULT_FAULT_MIX: Mapping[FaultKind, float] = {
    FaultKind.TRANSIENT: 3.0,
    FaultKind.DEVICE: 1.0,
    FaultKind.KERNEL: 1.0,
    FaultKind.NAN_POISON: 2.0,
    FaultKind.INF_POISON: 1.0,
    FaultKind.LATENCY_SPIKE: 2.0,
}


@dataclass
class FaultSchedule:
    """Decides when (and which) faults fire; seeded for reproducibility.

    Parameters
    ----------
    rate:
        Probability in ``[0, 1]`` that any single execution is faulted.
    seed:
        RNG seed -- the same seed replays the same fault sequence for
        the same sequence of :meth:`draw` calls.
    mix:
        Relative weights per :class:`FaultKind`; kinds absent from the
        mapping are never drawn.  Defaults to :data:`DEFAULT_FAULT_MIX`.
    script:
        Optional explicit schedule: ``script[i]`` is the fault (or
        ``None``) for the ``i``-th execution; executions beyond the end
        of the script are fault-free.  Overrides ``rate``/``mix`` --
        unit tests use this to force exact failure sequences.
    """

    rate: float = 0.1
    seed: int = 0
    mix: Optional[Mapping[FaultKind, float]] = None
    script: Optional[Sequence[Optional[FaultKind]]] = None

    def __post_init__(self) -> None:
        if not 0.0 <= float(self.rate) <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        mix = DEFAULT_FAULT_MIX if self.mix is None else self.mix
        if not mix or any(w < 0 for w in mix.values()):
            raise ValueError(f"mix must be non-empty with weights >= 0, got {mix}")
        total = float(sum(mix.values()))
        if total <= 0.0:
            raise ValueError("mix weights sum to zero; no fault kind can fire")
        self._kinds: Tuple[FaultKind, ...] = tuple(mix)
        self._probs = np.asarray([mix[k] / total for k in self._kinds])
        self._rng = np.random.default_rng(self.seed)
        self._lock = threading.Lock()
        self._drawn = 0

    @property
    def drawn(self) -> int:
        """How many :meth:`draw` calls have been made."""
        return self._drawn

    def draw(self) -> Optional[FaultKind]:
        """The fault for the next execution, or ``None`` (thread-safe)."""
        with self._lock:
            i = self._drawn
            self._drawn += 1
            if self.script is not None:
                return self.script[i] if i < len(self.script) else None
            if self._rng.random() >= self.rate:
                return None
            return self._kinds[self._rng.choice(len(self._kinds), p=self._probs)]

    def rng(self) -> np.random.Generator:
        """The schedule's RNG (poisoning draws corrupt indices from it)."""
        return self._rng


@dataclass(frozen=True)
class _Injection:
    """Record of one injected fault (``ChaosDevice.injections``)."""

    kind: FaultKind
    op: str


class ChaosDevice(SimulatedDevice):
    """A :class:`SimulatedDevice` that injects faults per the schedule.

    Computes exactly what the wrapped device would (same spec, same
    registry, same accounting) and then, per execution, consults the
    :class:`FaultSchedule`:

    - raising kinds abort the execution *before* any compute;
    - poisoning kinds corrupt a random ``poison_fraction`` of the output
      entries with NaN or +/-Inf (silent-corruption model);
    - latency spikes multiply the accounted seconds by
      ``latency_factor`` while leaving the numbers correct.

    ``inner`` stays reachable so graceful degradation can bypass the
    chaos entirely (the fallback path must not itself be faultable).
    """

    def __init__(
        self,
        inner: SimulatedDevice,
        schedule: FaultSchedule,
        *,
        latency_factor: float = 25.0,
        poison_fraction: float = 0.05,
    ):
        super().__init__(inner.spec, registry=inner.registry)
        if latency_factor < 1.0:
            raise ValueError(f"latency_factor must be >= 1, got {latency_factor}")
        if not 0.0 < poison_fraction <= 1.0:
            raise ValueError(f"poison_fraction must be in (0, 1], got {poison_fraction}")
        self.inner = inner
        self.schedule = schedule
        self.latency_factor = float(latency_factor)
        self.poison_fraction = float(poison_fraction)
        self._injections: list[_Injection] = []
        self._inj_lock = threading.Lock()
        self._m_injected = {
            kind: self.registry.counter(
                "chaos_faults_injected_total", {"kind": kind.value},
                help_text="Faults injected by the chaos device, per kind.",
            )
            for kind in FaultKind
        }

    @property
    def injections(self) -> Tuple[_Injection, ...]:
        """Every fault injected so far, in order."""
        with self._inj_lock:
            return tuple(self._injections)

    def injected_counts(self) -> Mapping[str, int]:
        """``kind value -> count`` of injections so far."""
        out: dict[str, int] = {}
        for inj in self.injections:
            out[inj.kind.value] = out.get(inj.kind.value, 0) + 1
        return out

    # ------------------------------------------------------------------
    def _inject(self, op: str) -> Optional[FaultKind]:
        """Draw a fault; record it; raise immediately for raising kinds."""
        kind = self.schedule.draw()
        if kind is None:
            return None
        with self._inj_lock:
            self._injections.append(_Injection(kind=kind, op=op))
        self._m_injected[kind].inc()
        self.registry.emit("chaos_fault", kind=kind.value, op=op)
        exc = _RAISES.get(kind)
        if exc is not None:
            raise exc(f"injected {kind.value} fault on {op}")
        return kind

    def _poison(self, out: np.ndarray, kind: FaultKind) -> np.ndarray:
        """A corrupted copy of ``out`` (NaN or +/-Inf entries)."""
        flat = out.reshape(-1)
        if flat.size == 0:
            return out
        n_bad = max(1, int(round(self.poison_fraction * flat.size)))
        idx = self.schedule.rng().choice(flat.size, size=n_bad, replace=False)
        poisoned = flat.copy()
        poisoned[idx] = np.nan if kind is FaultKind.NAN_POISON else np.inf
        return poisoned.reshape(out.shape)

    # ------------------------------------------------------------------
    def _run_pass(self, bound, matrix, operand, extra_seconds):
        """Every dispatch sequence, SpMV or SpMM, is one draw."""
        kind = self._inject("spmm" if operand.ndim == 2 else "spmv")
        res = super()._run_pass(bound, matrix, operand, extra_seconds)
        if kind in (FaultKind.NAN_POISON, FaultKind.INF_POISON):
            field = "U" if operand.ndim == 2 else "u"
            return replace(res, **{field: self._poison(res.y, kind)})
        if kind is FaultKind.LATENCY_SPIKE:
            return replace(res, seconds=res.seconds * self.latency_factor)
        return res


def unwrap_device(device: SimulatedDevice) -> SimulatedDevice:
    """Peel every chaos wrapper: the innermost, injection-free device."""
    while isinstance(device, ChaosDevice):
        device = device.inner
    return device
