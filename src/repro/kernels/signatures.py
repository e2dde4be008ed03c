"""Batch twins of the block-signature kernels (Section IV-A).

Each function takes a *stack* of per-block latency matrices, shape
``(k, layers, strings)``, and returns all ``k`` signatures at once.  The
scalar references in :mod:`repro.assembly.signatures` operate on one
:class:`~repro.characterization.datasets.BlockMeasurement`; these operate on
``measurement.wl_latencies_us`` arrays stacked along a new leading axis.

Equivalence contract (DESIGN.md §13): ranks are pure integer permutations
derived from ``np.argsort(kind="stable")`` — the identical primitive the
scalar kernels use — so batch row ``i`` equals the scalar signature of block
``i`` exactly, including tie-breaks (first-come, lower index wins).

The STR-median kernels (``batch_str_median``, ``pack_eigen_bits``,
``eigen_bitvectors``) live in :mod:`repro.core.eigen`, next to the scalar
eigen sequence they batch, because the gatherer and the FTL's format build
records with them; :mod:`repro.kernels` re-exports them.  Packed eigen
rows keep bit ``j`` at LWL ``j``, matching
:class:`~repro.utils.bitvec.BitVector` indexing, so pairwise similarity
(Equation 1's XOR-popcount) reduces to ``np.bitwise_count`` over an XOR
of the packed matrices.
"""

from __future__ import annotations

import numpy as np

from repro.core.eigen import _as_stack


def batch_lwl_rank(stacks: np.ndarray) -> np.ndarray:
    """All-LWL latency ranks per block (direction 5), shape ``(k, L)``."""
    arr = _as_stack(stacks)
    k, layers, strings = arr.shape
    flat = arr.reshape(k, layers * strings)
    order = np.argsort(flat, axis=1, kind="stable")
    ranks = np.empty((k, layers * strings), dtype=np.uint16)
    np.put_along_axis(
        ranks, order, np.arange(layers * strings, dtype=np.uint16)[None, :], axis=1
    )
    return ranks


def batch_pwl_rank(stacks: np.ndarray) -> np.ndarray:
    """Per-string layer ranks per block (direction 6), shape ``(k, L)``."""
    arr = _as_stack(stacks)
    k, layers, strings = arr.shape
    order = np.argsort(arr, axis=1, kind="stable")
    ranks = np.empty((k, layers, strings), dtype=np.uint16)
    np.put_along_axis(
        ranks, order, np.arange(layers, dtype=np.uint16)[None, :, None], axis=1
    )
    return ranks.reshape(k, layers * strings)


def batch_str_rank(stacks: np.ndarray) -> np.ndarray:
    """Per-layer string ranks per block (direction 7), shape ``(k, L)``."""
    arr = _as_stack(stacks)
    k, layers, strings = arr.shape
    order = np.argsort(arr, axis=2, kind="stable")
    ranks = np.empty((k, layers, strings), dtype=np.uint16)
    np.put_along_axis(
        ranks, order, np.arange(strings, dtype=np.uint16)[None, None, :], axis=2
    )
    return ranks.reshape(k, layers * strings)


def signature_distance_matrix(signatures: np.ndarray) -> np.ndarray:
    """Pairwise Equation-1 distances of ``(k, L)`` stacked signatures.

    ``out[i, j]`` equals ``signature_distance(signatures[i], signatures[j])``
    from the scalar module; the matrix is symmetric with a zero diagonal.
    """
    sig = np.asarray(signatures)
    if sig.ndim != 2:
        raise ValueError(f"expected a (k, L) signature stack, got {sig.shape}")
    diff = sig[:, None, :] != sig[None, :, :]
    return diff.sum(axis=2, dtype=np.int64)


def eigen_distance_matrix(packed: np.ndarray) -> np.ndarray:
    """Pairwise XOR-popcount distances of packed eigen matrices.

    ``out[i, j]`` equals ``BitVector.hamming_distance`` of blocks ``i`` and
    ``j`` when both rows came from :func:`~repro.core.eigen.pack_eigen_bits`
    (padding bits are zero in every row, so they never contribute to the
    XOR).
    """
    arr = np.asarray(packed, dtype=np.uint8)
    if arr.ndim != 2:
        raise ValueError(f"expected a (k, nbytes) packed stack, got {arr.shape}")
    xor = arr[:, None, :] ^ arr[None, :, :]
    return np.bitwise_count(xor).sum(axis=2, dtype=np.int64)
