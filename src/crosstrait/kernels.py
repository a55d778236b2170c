"""Blocked numerical kernels over compact genotype codes.

Genotypes are held as ``uint8`` allele counts in {0, 1, 2}; the standardized
matrix ``X_std = (codes - mean) / sd`` is never materialized.  All kernels
walk fixed-size column blocks in index order, so results are reproducible
bit-for-bit for a given block size.  Per-column reductions (``crossprod``)
do not depend on the block size, unless a block is a single column, which
einsum reduces on another loop; the accumulating matvec does, which is why
the block size is part of the recorded configuration.

Neither kernel converts a whole block to float64: a 2048-column block at
n = 2000 is 32 MiB, far more than a core's cache, and allocating it anew for
every block costs page faults as well.

* The scan hands the ``uint8`` block to einsum as it is.  einsum's buffered
  iterator converts it to float64 a few thousand elements at a time, in
  cache, and accumulates each column over the rows in the same order as an
  einsum over a converted C-ordered block, so the bits are the same.
* The score converts each block in row tiles of about ``_SCORE_TILE_BYTES``,
  each a multiple of ``_SCORE_TILE_ROWS`` rows, and the rows left over join
  the last tile.  A GEMV computes every row in the same column order
  whatever the row count, except the last ``rows % 4``, which OpenBLAS
  computes on a scalar path, and an operand of only 1-3 rows, which it
  computes on yet another unrolled loop.  A last tile of at least 64 rows
  that ends at row n has the same tail rows as the untiled block, so the
  tiled product is bitwise equal to the untiled one.  Tile sizes are private
  constants, never options, so no configuration can move the bits.

The score runs its GEMVs and the dot products of its offsets on one
OpenBLAS thread (``_one_blas_thread``) and restores the caller's thread
count afterwards.  A threaded GEMV splits the rows between threads and
computes the tail rows of each thread's share on the scalar path, so its
bits depend on the thread count when n % 4 != 0, and a threaded dot product
(more than 10,000 terms) adds partial sums in another order.  Pinned, the
serial path and the single-threaded pool workers agree at any size.
(OpenBLAS 0.3.31 threads a GEMV only from about 460,800 elements, above any
default tile, but that threshold belongs to the BLAS build, not to this
module.)

When a matvec block's columns are one ascending run (all SNPs, or any
contiguous range), the block is a slice copied in Fortran order rather than a
fancy-index gather.  A gather of columns from the row-major codes yields an
F-ordered block, and BLAS takes a different path (with different rounding in
the last bits) for a C-ordered operand, so the F-ordered slice is what keeps
both paths bitwise equal while skipping the gather.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os

import numpy as np

DEFAULT_BLOCK_SIZE = 2048

# row tiles of the score (see the module docstring)
_SCORE_TILE_BYTES = 1 << 20
_SCORE_TILE_ROWS = 64

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "column_counts",
    "column_stats",
    "stats_from_counts",
    "std_crossprod",
    "std_matvec",
]


def column_stats(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and population-style (1/n divisor) SD of the codes.

    The 1/n divisor makes the standardized columns satisfy
    ``x_std.T @ x_std == n`` exactly, which in turn makes the marginal OLS
    slope equal ``x_std.T @ y / n`` with no correction factor.
    """
    return stats_from_counts(*column_counts(codes), codes.shape[0])


def column_counts(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column int64 code sums and counts of 2s: exact, so the counts of
    row blocks add up to those of the stacked codes."""
    return codes.sum(axis=0, dtype=np.int64), np.count_nonzero(codes == 2, axis=0).astype(np.int64, copy=False)


def stats_from_counts(s: np.ndarray, n2: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Column mean and 1/n SD from the code sums ``s`` and the counts of 2s.

    For values in {0, 1, 2}, x^2 = x + 2*[x == 2], so the sum of squares is
    ``s + 2 * n2`` and no second pass over the codes is needed.
    """
    mean = s / n
    var = (s + 2.0 * n2) / n - mean * mean
    return mean, np.sqrt(np.maximum(var, 0.0))


def _tiles(length: int, size: int):
    """``(start, stop)`` of consecutive runs of ``size`` covering
    ``range(length)``; the remainder joins the last run, so no run is shorter
    than ``size`` unless ``length`` is."""
    bounds = [i * size for i in range(max(1, length // size))] + [length]
    return zip(bounds, bounds[1:])


@functools.cache
def _openblas():
    """``(set_num_threads, get_num_threads)`` of numpy's bundled OpenBLAS, or None.

    Wheels ship it as ``numpy.libs/lib*openblas*`` (``numpy/.dylibs`` on
    macOS); opening that file returns the copy numpy already loaded.
    """
    site = os.path.dirname(os.path.dirname(np.__file__))
    for pattern in ("numpy.libs/*openblas*", "numpy/.dylibs/*openblas*"):
        for path in sorted(glob.glob(os.path.join(site, pattern))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for prefix in ("scipy_openblas_", "openblas_"):
                for suffix in ("64_", ""):
                    set_threads = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                    get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                    if set_threads and get_threads:
                        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                        return set_threads, get_threads
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body on one OpenBLAS thread, then restore the caller's count;
    without a bundled OpenBLAS, threading is left as it is.  The count is
    process-wide, so bodies must not run concurrently in several threads."""
    blas = _openblas()
    if blas is None:
        yield
        return
    set_threads, get_threads = blas
    threads = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)


def std_crossprod(
    codes: np.ndarray,
    col_mean: np.ndarray,
    col_sd: np.ndarray,
    y: np.ndarray,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> np.ndarray:
    """Return ``X_std.T @ y`` (length p) without materializing ``X_std``.

    Uses the identity ``x_std_j.T y = (codes_j.T y - mean_j * sum(y)) / sd_j``.
    The per-column reduction runs in fixed row order (einsum, not BLAS gemv,
    whose strategy varies with the block shape), so the result is bitwise
    independent of the block size, unless a block is a single column.  The
    uint8 block goes to einsum unconverted (see the module docstring); for
    C-ordered codes, as ``GenotypeMatrix`` holds them, the bits are those of
    an einsum over the block converted to float64.
    """
    n, p = codes.shape
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n,):
        raise ValueError(f"phenotype length {y.shape} does not match n={n}")
    ysum = y.sum()
    out = np.empty(p, dtype=np.float64)
    for j0 in range(0, p, block_size):
        j1 = min(j0 + block_size, p)
        out[j0:j1] = np.einsum("ij,i->j", codes[:, j0:j1], y)
    return (out - col_mean * ysum) / col_sd


def std_matvec(
    codes: np.ndarray,
    col_mean: np.ndarray,
    col_sd: np.ndarray,
    weights: np.ndarray,
    indices: np.ndarray | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> np.ndarray:
    """Return ``X_std[:, indices] @ weights``: length n, or (n, k) for (q, k) weights.

    ``weights`` is aligned with ``indices`` when given, else with all p
    columns.  Computed as ``codes[:, idx] @ (w / sd) - sum(w * mean / sd)``,
    accumulating over column blocks in fixed index order, each converted and
    multiplied in row tiles on one BLAS thread (see the module docstring).  A
    block whose columns form one ascending run is sliced instead of gathered.
    With k weight columns each tile is converted once and multiplied by one
    GEMV per column, not one GEMM, whose rounding differs from a GEMV's.  Each
    column of the result is bitwise equal to a call with that column alone.
    """
    n, p = codes.shape
    weights = np.asarray(weights, dtype=np.float64)
    if indices is None:
        indices = np.arange(p)
    else:
        indices = np.asarray(indices, dtype=np.intp)
    if weights.ndim not in (1, 2) or weights.shape[0] != indices.shape[0]:
        raise ValueError("weights must have one row per index")
    w = weights[:, None] if weights.ndim == 1 else weights
    # one contiguous row of scaled weights, and of output, per score
    v = np.ascontiguousarray((w / col_sd[indices][:, None]).T)
    mean = col_mean[indices]
    out = np.zeros((v.shape[0], n), dtype=np.float64)
    with _one_blas_thread():
        offsets = np.array([np.dot(vc, mean) for vc in v])
        for k0 in range(0, len(indices), block_size):
            k1 = min(k0 + block_size, len(indices))
            cols = indices[k0:k1]
            a = int(cols[0])
            run = codes[:, a : a + len(cols)] if a >= 0 and np.all(np.diff(cols) == 1) else None
            quanta = max(1, _SCORE_TILE_BYTES // (8 * len(cols) * _SCORE_TILE_ROWS))
            for r0, r1 in _tiles(n, quanta * _SCORE_TILE_ROWS):
                if run is not None:
                    blk = run[r0:r1].astype(np.float64, order="F")
                else:
                    blk = codes[r0:r1, cols].astype(np.float64)
                for vc, oc in zip(v, out):
                    oc[r0:r1] += blk @ vc[k0:k1]
    out -= offsets[:, None]
    return out[0] if weights.ndim == 1 else out.T
