"""Eigen-sequence generation (Section V-B, Figure 9).

QSTR-MED condenses each block's word-line program latencies into one bit per
(physical word-line layer, string): after all strings of a layer have been
programmed, the fastest half of the strings (two of four) are marked 0 and
the rest 1; ties are resolved "sequentially" — the first-programmed string
wins a fast slot.  Joining the per-layer bit groups in programming order
yields the block's *eigen sequence*, and the similarity distance between two
blocks is ``popcount(eigen_a XOR eigen_b)``.

This module is the exact BitVector twin of
:func:`repro.assembly.signatures.str_median_signature`; the test-suite
cross-checks the two representations bit for bit.

It also holds the batched record kernel: :func:`block_records` turns a
stack of whole-block latency matrices into finished
:class:`~repro.core.records.BlockRecord` values in one pass, bit-identical
to feeding every word-line through
:meth:`~repro.core.gathering.GatheringUnit.report`.  The offline QSTR-MED
assembler, ``GatheringUnit.gather_measurement``, the FTL's format and the
vector engine's seal all build records through it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.records import BlockRecord
from repro.nand.geometry import NandGeometry
from repro.utils.bitvec import BitVector


def layer_eigen_bits(latencies: Sequence[float], fast_slots: int = None) -> BitVector:
    """Speed bits of one physical word-line layer.

    ``latencies`` holds the layer's per-string program latencies in string
    order.  The ``fast_slots`` fastest strings (default: half) get bit 0,
    the rest bit 1; ties go to the lower string index.
    """
    values = np.asarray(latencies, dtype=float)
    if values.ndim != 1 or len(values) == 0:
        raise ValueError("latencies must be a non-empty 1-D sequence")
    if fast_slots is None:
        fast_slots = len(values) // 2
    if not 0 <= fast_slots <= len(values):
        raise ValueError(f"fast_slots {fast_slots} out of range")
    order = np.argsort(values, kind="stable")
    bits = [1] * len(values)
    for winner in order[:fast_slots]:
        bits[int(winner)] = 0
    return BitVector(bits)


def eigen_sequence(wl_latencies: np.ndarray, fast_slots: int = None) -> BitVector:
    """Eigen sequence of a fully-programmed block.

    ``wl_latencies`` is the (layers, strings) tPROG matrix; the result joins
    the per-layer bit groups in layer order (bit index = lwl index).
    """
    matrix = np.asarray(wl_latencies, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("wl_latencies must be (layers, strings)")
    parts = [layer_eigen_bits(matrix[layer], fast_slots) for layer in range(matrix.shape[0])]
    return BitVector.concat(parts)


def eigen_distance(a: BitVector, b: BitVector) -> int:
    """QSTR-MED similarity distance: popcount of the XOR (Figure 11)."""
    return a.hamming_distance(b)


def eigen_bits_for_geometry(geometry: NandGeometry) -> int:
    """Length of a block's eigen sequence (one bit per LWL)."""
    return geometry.lwls_per_block


# -- batched kernels (DESIGN.md §13) ----------------------------------------------


def _as_stack(stacks: np.ndarray) -> np.ndarray:
    arr = np.asarray(stacks, dtype=float)
    if arr.ndim != 3:
        raise ValueError(
            f"expected a (k, layers, strings) stack, got shape {arr.shape}"
        )
    return arr


def batch_str_median(stacks: np.ndarray) -> np.ndarray:
    """Per-layer speed bits per block (direction 8), shape ``(k, L)``.

    The fastest ``strings // 2`` strings of each layer get bit 0, the rest
    bit 1; ties resolve first-come exactly as :func:`layer_eigen_bits` and
    the scalar signature kernel do (``np.argsort(kind="stable")``).
    """
    arr = _as_stack(stacks)
    k, layers, strings = arr.shape
    fast_slots = strings // 2
    order = np.argsort(arr, axis=2, kind="stable")
    bits = np.ones((k, layers, strings), dtype=np.uint16)
    np.put_along_axis(bits, order[:, :, :fast_slots], np.uint16(0), axis=2)
    return bits.reshape(k, layers * strings)


def pack_eigen_bits(stacks: np.ndarray) -> np.ndarray:
    """STR-median eigen bits of every block, packed little-bit-first.

    Returns ``(k, ceil(L / 8))`` ``uint8``; bit ``j`` (LSB-first within each
    byte) is the eigen bit of LWL ``j``, i.e. ``BitVector`` bit ``j``.
    """
    bits = batch_str_median(stacks).astype(np.uint8)
    return np.packbits(bits, axis=1, bitorder="little")


def eigen_bitvectors(packed: np.ndarray, length: int) -> List[BitVector]:
    """Unpack rows of :func:`pack_eigen_bits` into :class:`BitVector` values."""
    return [
        BitVector(length=length, value=int.from_bytes(row.tobytes(), "little"))
        for row in np.asarray(packed, dtype=np.uint8)
    ]


def block_program_totals(member_latencies: np.ndarray) -> np.ndarray:
    """Sequential per-row latency sums of a ``(k, lwls)`` table.

    Matches the gathering unit's running ``latency_sum += latency_us`` in
    LWL order bit for bit: ``np.cumsum`` is a strict left fold, whereas
    ``np.sum`` (and Python's ``sum`` since 3.12) pair or compensate
    operands differently and drift in the last ulp.
    """
    table = np.asarray(member_latencies, dtype=float)
    if table.ndim != 2:
        raise ValueError(f"expected a (members, lwls) table, got {table.shape}")
    if table.shape[1] == 0:
        return np.zeros(table.shape[0])
    return np.cumsum(table, axis=1)[:, -1]


def block_records(
    keys: Sequence[Tuple[int, int, int, int]], matrices: Sequence[np.ndarray]
) -> List[BlockRecord]:
    """Finished records of whole measured blocks, built in one batched pass.

    ``keys[i]`` is block ``i``'s ``(lane, plane, block, pe_cycles)`` and
    ``matrices[i]`` its ``(layers, strings)`` tPROG matrix.  Each record
    equals the one the gathering unit completes after all of the block's
    word-lines were reported in programming order.
    """
    if len(keys) != len(matrices):
        raise ValueError(f"{len(keys)} keys for {len(matrices)} matrices")
    if not keys:
        return []
    stack = _as_stack(np.stack(matrices))
    k, layers, strings = stack.shape
    totals = block_program_totals(stack.reshape(k, layers * strings)).tolist()
    eigens = eigen_bitvectors(pack_eigen_bits(stack), layers * strings)
    return [
        BlockRecord(
            lane=lane,
            plane=plane,
            block=block,
            pgm_total_us=total,
            eigen=eigen,
            pe_cycles=pe_cycles,
        )
        for (lane, plane, block, pe_cycles), total, eigen in zip(keys, totals, eigens)
    ]
