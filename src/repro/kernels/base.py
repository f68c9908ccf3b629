"""Kernel abstraction shared by the whole pool.

A :class:`Kernel` is a *strategy*: the same mathematical operation
(per-row dot products with the input vector) realised with a particular
thread organisation.  The auto-tuner treats kernels as opaque -- it only
ever calls :meth:`Kernel.compute` (for results) and :meth:`Kernel.cost`
(for predicted :class:`~repro.device.dispatch.DispatchStats`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.device.dispatch import DispatchStats
from repro.device.spec import DeviceSpec
from repro.errors import KernelError, ShapeError
from repro.formats.csr import CSRMatrix
from repro.utils.primitives import exclusive_scan, segmented_sum

__all__ = ["Kernel", "row_products", "pad_reshape"]

#: Wavefront-instruction budget charged per row for prologue/epilogue
#: (index load from the bin array, rowptr reads, result store).
ROW_OVERHEAD_INSTR = 2.0
#: Per-wavefront fixed instructions (launch prologue).
WAVE_OVERHEAD_INSTR = 8.0


def row_products(
    matrix: CSRMatrix, operand: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gathered per-element products for the selected rows.

    ``operand`` is a vector of length ``ncols`` or an ``(ncols, k)``
    block of right-hand sides.  Returns ``(products, offsets)`` where
    ``products`` concatenates ``val[j] * operand[colidx[j]]`` for each
    selected row in order -- shape ``(nnz,)`` or ``(nnz, k)`` -- and
    ``offsets`` is the CSR-style boundary array (length
    ``len(rows)+1``).  Column ``c`` of a block result equals the vector
    result for ``operand[:, c]`` exactly, so batched execution reduces
    all ``k`` columns in one pass without changing any floating-point
    outcome.
    """
    operand = np.asarray(operand, dtype=np.float64)
    if operand.ndim not in (1, 2) or operand.shape[0] != matrix.ncols:
        raise ShapeError(
            f"operand has shape {operand.shape}, expected "
            f"({matrix.ncols},) or ({matrix.ncols}, k)"
        )
    rows = np.asarray(rows, dtype=np.int64)
    lengths = matrix.row_lengths()[rows]
    offsets = exclusive_scan(lengths)
    nnz = int(offsets[-1])
    if nnz == 0:
        return np.zeros((0,) + operand.shape[1:]), offsets
    within = np.arange(nnz) - np.repeat(offsets[:-1], lengths)
    src = np.repeat(matrix.rowptr[rows], lengths) + within
    vals = matrix.val[src]
    if operand.ndim == 2:
        vals = vals[:, None]
    return vals * operand[matrix.colidx[src]], offsets


def pad_reshape(values: np.ndarray, width: int, fill=0) -> np.ndarray:
    """Pad a 1-D array to a multiple of ``width`` and reshape to 2-D.

    The shared windowing helper of the cost models: one output row per
    wavefront-sized window.
    """
    if width <= 0:
        raise KernelError(f"width must be > 0, got {width}")
    values = np.asarray(values)
    n = len(values)
    n_win = -(-n // width) if n else 0
    padded = np.full(n_win * width, fill, dtype=values.dtype)
    padded[:n] = values
    return padded.reshape(n_win, width)


class Kernel(ABC):
    """One SpMV thread-organisation strategy."""

    #: Unique registry name, e.g. ``"serial"`` or ``"subvector16"``.
    name: str = "abstract"

    @abstractmethod
    def compute(
        self,
        matrix: CSRMatrix,
        v: np.ndarray,
        rows: np.ndarray,
        *,
        emulate: bool = False,
    ) -> np.ndarray:
        """Dot products of the selected ``rows`` of ``matrix`` with ``v``.

        With ``emulate=True`` the kernel reproduces the OpenCL
        implementation's lane-level staging and reduction order exactly
        (slow; for validation).  The default fast path is vectorised and
        equal up to floating-point association.
        """

    @abstractmethod
    def cost(
        self,
        row_lengths: np.ndarray,
        locality: float,
        spec: DeviceSpec,
    ) -> DispatchStats:
        """Predicted execution statistics for a bin with these row lengths.

        ``locality`` is the matrix's measured gather locality (see
        :func:`repro.device.memory.gather_locality`); ``row_lengths``
        holds the *actual* per-row non-zero counts of every row assigned
        to the bin, in launch order.
        """

    # Convenience shared by implementations ------------------------------
    @staticmethod
    def _fast_row_dots(
        matrix: CSRMatrix, v: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """Vectorised per-row dot products (fast path)."""
        products, offsets = row_products(matrix, v, rows)
        return segmented_sum(products, offsets)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
