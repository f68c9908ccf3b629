"""Simulated many-core device model + real multi-core CPU execution.

The paper measures on an AMD A10-7850K APU (8 GCN compute units, 4x16
SIMD lanes each, 720 MHz, shared DDR3).  No such hardware (nor OpenCL)
exists in this environment, so this subpackage provides an *analytical
performance model* of that device:

- :mod:`repro.device.spec` -- :class:`DeviceSpec`, the machine constants.
- :mod:`repro.device.memory` -- coalescing/locality transaction models.
- :mod:`repro.device.occupancy` -- LDS/wavefront occupancy limits.
- :mod:`repro.device.dispatch` -- :class:`DispatchStats` and the
  roofline-style combination of compute, bandwidth and latency terms
  into simulated seconds.
- :mod:`repro.device.executor` -- :class:`BoundPlan`, a sequence of
  kernel dispatches (one per non-empty bin, as the paper's framework
  does) bound to one matrix structure, and :class:`SimulatedDevice`,
  which runs it for one vector or a block of them and accounts launch
  overheads.
- :mod:`repro.device.cpu` -- a *real* multi-core CPU SpMV path
  (thread-pool, chunked, optionally nnz-balanced) for the "multi-core"
  half of the paper's title, measured with wall clocks rather than
  simulated.

The model is first-principles: kernels are charged for the memory
transactions, SIMD-divergence-inflated instructions, reduction steps and
launch overheads their thread organisation implies.  Nothing in the
model encodes *which kernel should win* -- the auto-tuner learns that
from measurements of this model, exactly as the paper's tuner learns
from hardware measurements.
"""

from repro.device.cpu import CPUExecutor, PartitionStrategy
from repro.device.dispatch import DispatchStats, dispatch_seconds
from repro.device.executor import BoundPlan, SimulatedDevice
from repro.device.memory import gather_locality, gather_lines, stream_lines
from repro.device.occupancy import workgroup_occupancy
from repro.device.spec import DeviceSpec

__all__ = [
    "DeviceSpec",
    "DispatchStats",
    "dispatch_seconds",
    "SimulatedDevice",
    "BoundPlan",
    "gather_locality",
    "gather_lines",
    "stream_lines",
    "workgroup_occupancy",
    "CPUExecutor",
    "PartitionStrategy",
]
