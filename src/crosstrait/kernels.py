"""Blocked numerical kernels over compact genotype codes.

Genotypes are held as ``uint8`` allele counts in {0, 1, 2}; the standardized
matrix ``X_std = (codes - mean) / sd`` is never materialized.  All kernels
walk fixed-size column blocks in index order, so results are reproducible
bit-for-bit for a given block size.  Per-column reductions (``crossprod``)
do not depend on the block size, unless a block is a single column, which
einsum reduces on another loop; the accumulating matvec does.  Every caller
above the kernels uses ``DEFAULT_BLOCK_SIZE``; the ``block_size`` parameter
lets tests force several blocks at small sizes.

Neither kernel calls BLAS, whose bits depend on its build, its thread count
and the row count of an operand.  Both reduce with einsum, whose loops are
numpy's own (compiled for numpy's baseline CPU target, not dispatched at run
time), so a given block size gives the same bits in the serial path and in
worker threads, at any ``OPENBLAS_NUM_THREADS``.  Neither converts a whole
block to float64: einsum's buffered iterator hands the ``uint8`` codes over
a few thousand elements at a time, in cache, with the bits of an einsum over
the converted C-ordered block.

``codes`` is an (n, p) source of ``uint8`` codes that has ``shape`` and is
read one row tile at a time: a numpy array is one tile, and a source with a
``row_tiles()`` method (``io_files.ContainerCodes``, the codes of a container
file) yields ``(first row, tile)`` pairs of consecutive rows.  A tile
supports the two reads the kernels make, ``tile[:, a:b]`` and
``tile.take(cols, axis=1)``; a container's tiles are ``io_files.PackedCodes``,
which decode each block from its 2-bit packed bytes when it is read, and a
freshly decoded block gives the bits of a view of the unpacked array.  Each
kernel walks ``for each row tile: for each column block`` and holds one
decoded block of one tile at a time, so the results of a tiled source are
bitwise those of the same codes as one array (see each kernel).  On a
container a kernel holds the tile's packed rows (about
``io_files._UNPACK_TILE_BYTES``), one decoded block of them, the decoder's
own tiles and a few float64 vectors of length n and p, whatever n is.
"""

from __future__ import annotations

import numpy as np

DEFAULT_BLOCK_SIZE = 2048

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "column_counts",
    "column_stats",
    "dot",
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


_COUNT_BLOCK = 256


def column_counts(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column int64 code sums and counts of 2s: exact, so the counts of
    row blocks add up to those of the stacked codes.  The 2s are counted
    through a boolean mask of ``_COUNT_BLOCK`` columns at a time."""
    p = codes.shape[1]
    twos = np.empty(p, dtype=np.int64)
    for a in range(0, p, _COUNT_BLOCK):
        twos[a:a + _COUNT_BLOCK] = np.count_nonzero(codes[:, a:a + _COUNT_BLOCK] == 2, axis=0)
    return codes.sum(axis=0, dtype=np.int64), twos


def stats_from_counts(s: np.ndarray, n2: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Column mean and 1/n SD from the code sums ``s`` and the counts of 2s.

    For values in {0, 1, 2}, x^2 = x + 2*[x == 2], so the sum of squares is
    ``s + 2 * n2`` and no second pass over the codes is needed.
    """
    mean = s / n
    var = (s + 2.0 * n2) / n - mean * mean
    return mean, np.sqrt(np.maximum(var, 0.0))


def dot(u: np.ndarray, v: np.ndarray) -> float:
    """``u . v`` as an einsum reduction of contiguous float64 copies.

    Not a BLAS call, whose bits depend on its thread count above about
    10,000 terms; and not an einsum over a strided view, which reduces on
    another loop than the contiguous copy.
    """
    u = np.ascontiguousarray(u, dtype=np.float64)
    v = np.ascontiguousarray(v, dtype=np.float64)
    return float(np.einsum("i,i->", u, v))


def _row_tiles(codes):
    """``(first row, tile)`` of each row tile of ``codes``: its
    ``row_tiles()``, or the whole array as one tile."""
    tiles = getattr(codes, "row_tiles", None)
    return ((0, codes),) if tiles is None else tiles()


# rows of codes that each float64 einsum continuing the scan's sums reduces
_SCAN_ROWS = 64


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

    The first row tile is reduced from zero as above, so a numpy array (one
    tile) makes one einsum per block.  A later tile continues each column's
    sum in row order: a float64 einsum over a buffer whose row 0 is the sum
    so far, weighted 1.0, and whose next rows are up to ``_SCAN_ROWS`` rows of
    the tile, which adds the rows one at a time as the one einsum does.
    einsum reduces a single column on another loop, which a later tile cannot
    continue, so a tiled source keeps the codes of a single-column block (n
    bytes) and reduces them whole after the last tile.
    """
    n, p = codes.shape
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n,):
        raise ValueError(f"phenotype length {y.shape} does not match n={n}")
    ysum = y.sum()
    out = np.zeros(p, dtype=np.float64)
    blocks = [(j0, min(j0 + block_size, p)) for j0 in range(0, p, block_size)]
    buf, w = np.empty((_SCAN_ROWS + 1) * min(block_size, p)), np.ones(_SCAN_ROWS + 1)
    lone = {}  # first column -> codes of a single-column block of a tiled source
    for r0, tile in _row_tiles(codes):
        r1 = r0 + tile.shape[0]
        for j0, j1 in blocks:
            blk = tile[:, j0:j1]
            if j1 - j0 == 1 and r1 - r0 < n:
                if j0 not in lone:
                    lone[j0] = np.empty((n, 1), dtype=np.uint8)
                lone[j0][r0:r1] = blk
            elif r0 == 0:
                out[j0:j1] = np.einsum("ij,i->j", blk, y[:r1])
            else:
                for s in range(0, r1 - r0, _SCAN_ROWS):
                    k = min(_SCAN_ROWS, r1 - r0 - s)
                    acc = buf[:(k + 1) * (j1 - j0)].reshape(k + 1, j1 - j0)
                    acc[0] = out[j0:j1]
                    acc[1:] = blk[s:s + k]
                    w[1:k + 1] = y[r0 + s:r0 + s + k]
                    out[j0:j1] = np.einsum("ij,i->j", acc, w[:k + 1])
            del blk  # so that the next block is not decoded while this one lives
    for j0, col in lone.items():
        out[j0:j0 + 1] = np.einsum("ij,i->j", col, y)
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
    accumulating one einsum per column block in fixed index order.  A block
    whose columns form one ascending run is a view of the codes; any other
    block is gathered with ``take``, which is C-ordered like the view, so
    both give the same bits.  Each column of the result is bitwise equal to a
    call with that column alone.  einsum reduces each row of a block on its
    own, so the rows of a row tile get the bits of the same rows of one
    array, and each row still adds its blocks in index order.
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
    # one contiguous row of scaled weights per score
    v = np.ascontiguousarray((w / col_sd[indices][:, None]).T)
    # (first index, last index, columns, first column of a run or None)
    blocks = []
    for k0 in range(0, len(indices), block_size):
        cols = indices[k0:k0 + block_size]
        a = int(cols[0])
        run = a >= 0 and np.all(np.diff(cols) == 1)
        blocks.append((k0, k0 + len(cols), cols, a if run else None))
    out = np.zeros((n, v.shape[0]), dtype=np.float64)
    for r0, tile in _row_tiles(codes):
        rows = out[r0:r0 + tile.shape[0]]
        for k0, k1, cols, a in blocks:
            blk = tile.take(cols, axis=1) if a is None else tile[:, a:a + k1 - k0]
            rows += np.einsum("ij,kj->ik", blk, v[:, k0:k1])
            del blk  # so that the next block is not decoded while this one lives
    out -= np.einsum("kj,j->k", v, col_mean[indices])
    return out[:, 0] if weights.ndim == 1 else out
