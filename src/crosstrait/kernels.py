"""Blocked numerical kernels over compact genotype codes.

Genotypes are held as ``uint8`` allele counts in {0, 1, 2}; the standardized
matrix ``X_std = (codes - mean) / sd`` is never materialized.  All kernels
walk fixed-size column blocks in index order, so results are reproducible
bit-for-bit for a given block size.  Per-column reductions (``crossprod``)
do not depend on the block size at all; the accumulating matvec does, which
is why the block size is part of the recorded configuration.

When a matvec block's columns are one ascending run (all SNPs, or any
contiguous range), the block is a slice copied in Fortran order rather than a
fancy-index gather.  A gather of columns from the row-major codes yields an
F-ordered block, and BLAS takes a different path (with different rounding in
the last bits) for a C-ordered operand, so the F-ordered slice is what keeps
both paths bitwise equal while skipping the gather.
"""

from __future__ import annotations

import numpy as np

DEFAULT_BLOCK_SIZE = 2048

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
    independent of the block size.
    """
    n, p = codes.shape
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n,):
        raise ValueError(f"phenotype length {y.shape} does not match n={n}")
    ysum = y.sum()
    out = np.empty(p, dtype=np.float64)
    for j0 in range(0, p, block_size):
        j1 = min(j0 + block_size, p)
        blk = codes[:, j0:j1].astype(np.float64)
        out[j0:j1] = np.einsum("ij,i->j", blk, y)
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
    accumulating over column blocks in fixed index order.  A block whose
    columns form one ascending run is sliced instead of gathered (see the
    module docstring for why the copy is F-ordered).  With k weight columns
    each block is converted once and multiplied by one GEMV per column, not
    one GEMM: a GEMM's rounding depends on the BLAS thread count, so pool
    workers and the serial path would disagree in the last bits.  Each
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
    offsets = np.array([np.dot(vc, mean) for vc in v])
    out = np.zeros((v.shape[0], n), dtype=np.float64)
    for k0 in range(0, len(indices), block_size):
        k1 = min(k0 + block_size, len(indices))
        cols = indices[k0:k1]
        a = int(cols[0])
        if a >= 0 and np.all(np.diff(cols) == 1):
            blk = codes[:, a : a + len(cols)].astype(np.float64, order="F")
        else:
            blk = codes[:, cols].astype(np.float64)
        for vc, oc in zip(v, out):
            oc += blk @ vc[k0:k1]
    out -= offsets[:, None]
    return out[0] if weights.ndim == 1 else out.T
