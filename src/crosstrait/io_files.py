"""File formats, configuration, and run manifests.

Text tables are tab-separated with a header row; floats are written with 17
significant digits so that write-then-read reproduces every IEEE double
bit-exactly.  A table is read in one ``np.loadtxt`` pass (numpy's C reader)
into a structured array, its text columns as str objects turned into str
arrays, its number columns as float64 and checked as arrays; a refused table
is walked line by line only to name its first faulty line.  A table is
written one chunk of rows of about ``_TABLE_CHUNK_CHARS`` characters at a
time from one row template, so no Python call runs per field and no more
than one chunk of text, and of the Python objects of its fields, is alive
at once; default ids are formatted from the row index.  Genotypes
have a compact binary container (2 bits per code, decoded two bytes per table
lookup) for large runs, whose codes stay in the file and are read one row
tile at a time, each tile decoded one column block at a time, and a
plain-TSV fallback for small fixtures, read one line at a time into a
preallocated code matrix.  A container is written one row tile at a time,
so the writer holds tile-sized memory beside the codes; codes outside
{0, 1, 2} are refused, not written.  A container stores each SNP's code
sum and count of 2s, not statistics; both readers end in
``GenotypeMatrix.from_counts``, whose refusals become ``DataFormatError``
naming the file.  All writes go through a temp-file-then-rename so
partially written outputs never appear under the final name.  Repeated SNP
or sample ids are refused when a file is read.
A run manifest hashes only its config, with ``hashlib``, which is imported
only when the hash is taken: it loads OpenSSL's libcrypto, which the file
commands (``gwas``, ``score``, ``estimate``) never need.
"""

from __future__ import annotations

import functools
import os
import platform
import struct
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain, islice
from operator import attrgetter

import numpy as np

from . import __version__, kernels
from .errors import DataFormatError, ParameterError
from .experiments import ExperimentResult
from .gwas import SummaryStats
from .moments import MomentCheckReport
from .synth import GenotypeMatrix, default_snp_ids

GENO_MAGIC = b"XTGT"
GENO_VERSION = 2
# magic, then <u4 version, <u8 n and <u8 p
_GENO_HEADER_BYTES = 24

# the four 2-bit codes of every byte value, low bits first, read as one <u4
# per byte
_UNPACK_LUT = (
    (np.arange(256, dtype=np.uint8)[:, None] >> np.array([0, 2, 4, 6], dtype=np.uint8)) & 3
).view("<u4")[:, 0]


@functools.cache
def _unpack_pair_lut() -> np.ndarray:
    """The eight codes of every little-endian byte pair, read as one <u8 per
    pair (512 KiB), so that unpacking is one table lookup per two bytes (as
    in PLINK's decoder).  Built on first use."""
    lut = _UNPACK_LUT.astype("<u8")
    return ((lut[:, None] << 32) | lut[None, :]).ravel()


# bytes of a tile: the decoder's rows, whose intp indices and <u8 lookups take
# about 512 KiB, so a tile stays in cache and no index array of the whole
# matrix is built; the writer's rows of codes; and the rows of packed codes
# that a container's reader reads from the file at once
_UNPACK_TILE_BYTES = 1 << 19

# characters of a written chunk of a table (reads take one pass): rows of up
# to 128 characters (a summary row has about 95).  A chunk's field objects
# take about 8 bytes per character: 0.5 MB at 64 K
_TABLE_CHUNK_CHARS = 1 << 16


def _chunk_rows() -> int:
    return max(1, _TABLE_CHUNK_CHARS // 128)


def fmt(x: float) -> str:
    return format(float(x), ".17g")


@contextmanager
def _atomic_file(path: str):
    """A binary file handle whose contents appear under ``path`` only once
    the block exits without raising."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    with _atomic_file(path) as fh:
        fh.write(text.encode("utf-8"))


def _finite(x: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise ValueError("is not finite")
    return x


def _not_nan(x: np.ndarray) -> np.ndarray:
    if np.isnan(x).any():
        raise ValueError("is NaN")
    return x


def _pvalues(x: np.ndarray) -> np.ndarray:
    if not np.all((x > 0.0) & (x <= 1.0)):
        raise ValueError("is not in (0, 1]")
    return x


def _ints(least: int):
    """Check of a column of integers >= ``least`` ("3.0" reads as 3),
    returned as int64."""
    def check(x: np.ndarray) -> np.ndarray:
        if not np.all((x >= least) & (x < 2.0**63) & (x == np.floor(x))):
            raise ValueError(f"is not an integer >= {least}")
        return x.astype(np.int64)
    return check


def _number(field: str) -> float:
    """A number field as ``np.loadtxt`` parses it: ``float`` of the field
    stripped of whitespace, refused if it holds ``_`` or a non-ASCII
    character, which ``float`` would accept (``1_000``, Arabic digits)."""
    s = field.strip()
    if "_" in s or not s.isascii():
        raise ValueError(field)
    return float(s)


def _data_lines(fh):
    """(line number, line without its newline) of each line after the first
    of an open table; blank lines hold no row and are skipped."""
    for lineno, line in enumerate(fh, start=2):
        if line != "\n":
            yield lineno, line.rstrip("\n")


def _line_of_row(path: str, row: int) -> int:
    """The line number of data row ``row`` (from 0) of a table."""
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        return next(islice(_data_lines(fh), row, None))[0]


def _repeat(ids: np.ndarray) -> tuple[int, int] | None:
    """(i, j) with ``ids[i] == ids[j]``, i < j and j the first position whose
    id occurs before it; None when the ids are distinct.  One stable sort of
    the array, so no Python object is made per id."""
    order = np.argsort(ids, kind="stable")
    ranked = ids[order]
    same = np.flatnonzero(ranked[1:] == ranked[:-1])
    if not same.size:
        return None
    j = int(order[same + 1].min())
    return int(np.flatnonzero(ids == ids[j])[0]), j


def _refuse_repeats(path: str, ids: np.ndarray, column: str, line_of=None) -> None:
    """Refuse a table whose column ``column`` (the ids of its data rows)
    repeats a value, naming it and the lines of both of its rows;
    ``line_of(row)`` is the line of a row, by default ``_line_of_row``."""
    rep = _repeat(ids)
    if rep is not None:
        line_of = line_of or functools.partial(_line_of_row, path)
        i, j = rep
        raise DataFormatError(f"{path}:{line_of(j)}: {column} {str(ids[j])!r} "
                              f"repeats line {line_of(i)}")


def _read_columns(path: str, header: list[str], checks: dict) -> list[np.ndarray]:
    """The columns of a tab-separated table whose first line is ``header``.

    The rows are read in one ``np.loadtxt`` pass (numpy's C reader, which
    parses a number as ``float`` does but refuses what ``_number`` refuses)
    into a structured array; blank lines are skipped.  Column ``j`` is a str array,
    or for the columns in ``checks`` a float64 array passed through
    ``checks[j]``, which returns an array and raises ``ValueError`` for a
    value it refuses.  A line with the wrong number of fields, or with a
    value in a ``checks`` column that is not a number or is refused, raises
    ``DataFormatError`` naming the first such line, as does a table with no
    rows.
    """
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.readline()
        if not head:
            raise DataFormatError(f"{path}:1: empty file")
        cols = head.rstrip("\n").split("\t")
        if cols != header:
            raise DataFormatError(f"{path}:1: expected header {header}, got {cols}")
        first = next(filter("\n".__ne__, iter(fh.readline, "")), None)
        if first is None:
            raise DataFormatError(f"{path}:2: no data rows")
        # text columns are objects, never a guessed U width that would cut ids
        dtype = [(str(j), np.float64 if j in checks else object) for j in range(len(header))]
        try:
            table = np.loadtxt(chain((first,), fh), dtype=dtype, delimiter="\t",
                               comments=None, ndmin=1)
            columns = []
            for j in range(len(header)):
                col = table[str(j)]
                if j in checks:
                    columns.append(checks[j](col.copy()))
                else:
                    columns.append(col.astype(str))
                    col[...] = None  # frees its str objects before more columns are made
            return columns
        except ValueError as exc:
            _raise_first_fault(path, header, checks)
            raise DataFormatError(f"{path}: {exc}") from None


def _raise_first_fault(path: str, header: list[str], checks: dict) -> None:
    """Walk the lines of a table in order, and raise for the first one with
    the wrong number of fields, or a non-number or a refused value in a
    ``checks`` column."""
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        for lineno, line in _data_lines(fh):
            fields = line.split("\t")
            if len(fields) != len(header):
                raise DataFormatError(
                    f"{path}:{lineno}: expected {len(header)} columns, got {len(fields)}"
                )
            for j, check in checks.items():
                try:
                    x = _number(fields[j])
                except ValueError:
                    raise DataFormatError(f"{path}:{lineno}: column {header[j]!r} "
                                          f"is not a number: {fields[j]!r}") from None
                try:
                    check(np.array([x]))
                except ValueError as exc:
                    raise DataFormatError(
                        f"{path}:{lineno}: column {header[j]!r} {exc}: {fields[j]!r}"
                    ) from None


def _write_rows(path: str, header: list[str], template: str, rows) -> None:
    """Write ``header`` and one ``template % row`` line per row, one chunk of
    rows at a time.  ``%.17g`` prints a float exactly as ``fmt`` does."""
    rows = iter(rows)
    with _atomic_file(path) as fh:
        fh.write(("\t".join(header) + "\n").encode("utf-8"))
        while chunk := list(islice(rows, _chunk_rows())):
            text = (template * len(chunk)) % tuple(chain.from_iterable(chunk))
            fh.write(text.encode("utf-8"))


def _rows_of(*columns):
    """The rows of equal-length columns (arrays or sequences), each column
    converted to Python values one chunk at a time."""
    step = _chunk_rows()
    for a in range(0, len(columns[0]), step):
        yield from zip(*(np.asarray(c[a:a + step]).tolist() for c in columns))


def _default_sample_ids(n: int) -> list[str]:
    return list(map("sample{:07d}".format, range(n)))


def _id_column(ids, n: int, default: str) -> tuple:
    """(an id column, its field of a row template): ``ids`` as ``%s``, or
    without ids the row indices, which ``default`` formats as the default
    ids, so that no id string is built before its chunk."""
    return (range(n), default) if ids is None else (ids, "%s")


# ---------------------------------------------------------------------------
# summary statistics
# ---------------------------------------------------------------------------

SUMMARY_HEADER = ["snp_id", "effect", "se", "tstat", "pvalue", "n"]


def write_summary_tsv(path: str, stats: SummaryStats) -> None:
    """Write a summary TSV; positional SNPs (``snp_id`` None) are written with
    the default ids, formatted from the row index, which read back as
    positional."""
    ids, id_fmt = _id_column(stats.snp_id, stats.p, "snp%07d")
    _write_rows(path, SUMMARY_HEADER, f"{id_fmt}\t%.17g\t%.17g\t%.17g\t%.17g\t{stats.n}\n",
                _rows_of(ids, stats.effect, stats.se, stats.tstat, stats.pvalue))


def read_summary_tsv(path: str) -> SummaryStats:
    """Read a summary TSV.  Its effects must be finite, its p-values in (0, 1],
    and its ``n`` one positive integer, the same on every row; ``se`` and
    ``tstat`` may be infinite, as ``marginal_gwas`` writes them when se is 0,
    but not NaN.  A repeated ``snp_id`` is refused."""
    ids, effect, se, tstat, pvalue, ns = _read_columns(
        path, SUMMARY_HEADER,
        {1: _finite, 2: _not_nan, 3: _not_nan, 4: _pvalues, 5: _ints(1)})
    other = np.flatnonzero(ns != ns[0])
    if other.size:
        row = int(other[0])
        raise DataFormatError(f"{path}:{_line_of_row(path, row)}: column 'n' is {ns[row]}, "
                              f"but {ns[0]} on the first row")
    _refuse_repeats(path, ids, "snp_id")
    return SummaryStats(
        snp_id=ids,
        effect=effect,
        se=se,
        tstat=tstat,
        pvalue=pvalue,
        n=int(ns[0]),
    )


# ---------------------------------------------------------------------------
# phenotypes and scores
# ---------------------------------------------------------------------------

def write_phenotype_tsv(path: str, y: np.ndarray, sample_ids=None) -> None:
    ids, id_fmt = _id_column(sample_ids, len(y), "sample%07d")
    _write_rows(path, ["sample_id", "value"], id_fmt + "\t%.17g\n", _rows_of(ids, y))


def read_phenotype_tsv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The values (finite) and sample ids (distinct, a str array) of a
    phenotype TSV."""
    ids, values = _read_columns(path, ["sample_id", "value"], {1: _finite})
    _refuse_repeats(path, ids, "sample_id")
    return values, ids


def read_phenotype_of(path: str, G: GenotypeMatrix, geno_path: str) -> np.ndarray:
    """The phenotype TSV ``path`` of the genotypes ``G`` read from
    ``geno_path``, refused unless its rows are G's samples in order: G's
    sample ids, or the default ids when G has none (a container stores none).
    """
    y, ids = read_phenotype_tsv(path)
    if y.shape[0] != G.n:
        raise DataFormatError(
            f"{path}: {y.shape[0]} phenotype rows, but {geno_path} holds {G.n} samples")
    want = np.asarray(_default_sample_ids(G.n) if G.sample_ids is None else G.sample_ids)
    bad = np.flatnonzero(ids != want)
    if bad.size:
        i = int(bad[0])
        note = "" if G.sample_ids is not None else ", as it stores no sample ids"
        raise DataFormatError(
            f"{path}:{_line_of_row(path, i)}: sample id {str(ids[i])!r}, but sample {i + 1} "
            f"of {geno_path} is {str(want[i])!r}{note}")
    return y


def write_scores_tsv(path: str, scores: np.ndarray, sample_ids=None) -> None:
    ids, id_fmt = _id_column(sample_ids, len(scores), "sample%07d")
    _write_rows(path, ["sample_id", "score"], id_fmt + "\t%.17g\n", _rows_of(ids, scores))


# ---------------------------------------------------------------------------
# genotypes
# ---------------------------------------------------------------------------

def pack_codes(codes: np.ndarray) -> np.ndarray:
    """Pack {0,1,2} codes 4-per-byte, row-major, little end of byte first.

    Byte j of a row is ``c0 | c1 << 2 | c2 << 4 | c3 << 6`` over columns
    4j to 4j + 3, built by four shift-ORs of the strided column views
    ``codes[:, k::4]``; the columns past p read as 0.  Codes are not checked.
    """
    n, p = codes.shape
    packed = np.zeros((n, -(-p // 4)), dtype=np.uint8)
    shifted = np.empty_like(packed)
    for k in range(4):
        field = codes[:, k::4]
        w = field.shape[1]
        np.left_shift(field, 2 * k, out=shifted[:, :w], casting="unsafe")
        packed[:, :w] |= shifted[:, :w]
    return packed


def unpack_codes(packed: np.ndarray, p: int) -> np.ndarray:
    """Inverse of ``pack_codes``: an (n, p) uint8 array of 2-bit fields.

    Rows are decoded in tiles, one table lookup per two bytes; the last byte
    of an odd-width row is paired with a zero byte, whose codes fall beyond
    column p.
    """
    n, row_bytes = packed.shape
    width = -(-row_bytes // 2)
    rows = max(1, _UNPACK_TILE_BYTES // (16 * max(width, 1)))
    lut = _unpack_pair_lut()
    codes = np.empty((n, p), dtype=np.uint8)
    tile = np.zeros((rows, 2 * width), dtype=np.uint8)
    index = np.empty((rows, width), dtype=np.intp)
    pairs = np.empty((rows, width), dtype="<u8")
    for r in range(0, n, rows):
        k = min(rows, n - r)
        tile[:k, :row_bytes] = packed[r:r + k]
        np.copyto(index[:k], tile[:k].view("<u2"))
        lut.take(index[:k], out=pairs[:k])
        codes[r:r + k] = pairs[:k].view(np.uint8)[:, :p]
    return codes


class PackedCodes:
    """(n, p) codes kept 2-bit packed as ``pack_codes`` writes them: an (n,
    ceil(p / 4)) uint8 array.  The row tiles of a container are these.

    Codes are decoded only by the two reads the kernels make, each of which
    returns a fresh uint8 block: ``codes[:, a:b]`` decodes the bytes that
    hold columns a to b, and ``codes.take(cols, axis=1)`` gathers the byte
    of each column and shifts its code out.  ``np.asarray(codes)`` decodes
    the whole matrix.
    """

    def __init__(self, packed: np.ndarray, p: int):
        self.packed = packed
        self.shape = (packed.shape[0], p)

    def __getitem__(self, key):
        rows, cols = key
        if rows != slice(None) or not isinstance(cols, slice) or cols.step not in (None, 1):
            raise TypeError("packed codes are read as [:, a:b] or take(cols, axis=1)")
        a, b, _ = cols.indices(self.shape[1])
        b = max(a, b)
        a4 = a - a % 4
        return unpack_codes(self.packed[:, a4 // 4:-(-b // 4)], b - a4)[:, a - a4:]

    def take(self, cols, axis: int) -> np.ndarray:
        if axis != 1:
            raise TypeError("packed codes are read as [:, a:b] or take(cols, axis=1)")
        cols = np.asarray(cols, dtype=np.intp)
        if cols.size and (cols.min() < 0 or cols.max() >= self.shape[1]):
            raise IndexError(f"column index out of range for p={self.shape[1]}")
        block = self.packed.take(cols >> 2, axis=1)
        block >>= (2 * (cols & 3)).astype(np.uint8)
        block &= 3
        return block

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("decoding packed codes makes a copy")
        codes = unpack_codes(self.packed, self.shape[1])
        return codes if dtype is None else codes.astype(dtype, copy=False)


def _stamp(fh) -> tuple:
    """What identifies the contents of an open file: its device, inode, size
    and modification time."""
    st = os.fstat(fh.fileno())
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


class ContainerCodes:
    """The (n, p) codes of a container file, read from the file one row tile
    at a time; nothing of them is held between reads.

    ``row_tiles()`` opens the file and yields ``(first row, PackedCodes)``
    for each tile of about ``_UNPACK_TILE_BYTES`` packed bytes of whole rows,
    each read into one buffer that the next tile overwrites.  A file whose
    stamp (``_stamp``) is not the one it had when it was read is refused
    with ``DataFormatError``, so codes that changed since their check for
    3s are never decoded.  ``np.asarray(codes)`` decodes the whole matrix.
    """

    def __init__(self, path: str, n: int, p: int, stamp: tuple):
        self.path = path
        self.shape = (n, p)
        self.stamp = stamp

    def row_tiles(self):
        n, p = self.shape
        row_bytes = -(-p // 4)
        rows = max(1, _UNPACK_TILE_BYTES // max(row_bytes, 1))
        with open(self.path, "rb") as fh:
            if _stamp(fh) != self.stamp:
                raise DataFormatError(f"{self.path}: container changed since it was read")
            fh.seek(_GENO_HEADER_BYTES)
            buf = np.empty((min(rows, n), row_bytes), dtype=np.uint8)
            for r in range(0, n, rows):
                tile = buf[:min(rows, n - r)]
                if fh.readinto(tile) != tile.nbytes:
                    raise DataFormatError(f"{self.path}: container changed since it was read")
                yield r, PackedCodes(tile, p)

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("decoding packed codes makes a copy")
        codes = np.empty(self.shape, dtype=np.uint8)
        for r, tile in self.row_tiles():
            codes[r:r + tile.shape[0]] = np.asarray(tile)
        return codes if dtype is None else codes.astype(dtype, copy=False)


def write_genotype_bin(path: str, G: GenotypeMatrix) -> None:
    """Write ``G`` as a container: the header, the packed codes, then the
    int64 code sums and counts of 2s of its p SNPs.

    The codes are checked and packed one tile of about
    ``_UNPACK_TILE_BYTES`` codes at a time (for ``ContainerCodes`` one of its
    row tiles, decoded) and written straight to the file, so the writer
    holds one tile beside the codes.  A code outside {0, 1, 2} is refused
    with ``ParameterError``, and nothing appears under ``path``.
    """
    codes = G.codes
    if isinstance(codes, ContainerCodes):
        tiles = (np.asarray(tile) for _, tile in codes.row_tiles())
    else:
        rows = max(1, _UNPACK_TILE_BYTES // max(G.p, 1))
        tiles = (codes[r:r + rows] for r in range(0, G.n, rows))
    with _atomic_file(path) as fh:
        fh.write(GENO_MAGIC + struct.pack("<IQQ", GENO_VERSION, G.n, G.p))
        for tile in tiles:
            lo, hi = tile.min(initial=0), tile.max(initial=0)
            if lo < 0 or hi > 2:
                raise ParameterError(
                    f"{path}: genotype code {hi if hi > 2 else lo} is not in {{0,1,2}}")
            fh.write(pack_codes(tile))
        fh.write(np.array([G.code_sum, G.twos], dtype="<i8"))


def _genotypes_of(path: str, codes, code_sum, twos, **ids) -> GenotypeMatrix:
    """``GenotypeMatrix.from_counts``, its refusals raised as
    ``DataFormatError`` naming ``path``."""
    try:
        return GenotypeMatrix.from_counts(codes, code_sum, twos, **ids)
    except ParameterError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def read_genotype_bin(path: str) -> GenotypeMatrix:
    """A container's genotypes, their codes left in the file
    (``ContainerCodes``); only the code sums and counts of 2s are read.

    Counts that no codes could give (negative, more 2s than half the code
    sum, or more non-zero codes than samples) are refused, naming the first
    such SNP.  The codes are checked here, one row tile at a time: a code 3
    in any of the p columns is refused; the padding past column p is not read.
    """
    with open(path, "rb") as fh:
        stamp = _stamp(fh)
        head = fh.read(_GENO_HEADER_BYTES)
        if head[:4] != GENO_MAGIC:
            raise DataFormatError(f"{path}: not a genotype container (bad magic)")
        if len(head) < _GENO_HEADER_BYTES:
            raise DataFormatError(f"{path}: truncated container header")
        version, n, p = struct.unpack("<IQQ", head[4:])
        if version != GENO_VERSION:
            raise DataFormatError(f"{path}: unsupported container version {version}")
        row_bytes = -(-p // 4)
        expected = _GENO_HEADER_BYTES + n * row_bytes + 2 * 8 * p
        if stamp[2] != expected:
            raise DataFormatError(
                f"{path}: container holds {stamp[2]} bytes, expected {expected} for n={n}, p={p}"
            )
        fh.seek(_GENO_HEADER_BYTES + n * row_bytes)
        code_sum, twos = np.fromfile(fh, dtype="<i8", count=2 * p).reshape(2, p)
    nonzero = code_sum - twos  # exact where neither count is negative
    bad = np.flatnonzero((code_sum < 0) | (twos < 0) | (twos > nonzero) | (nonzero > n))
    if bad.size:
        j = int(bad[0])
        raise DataFormatError(f"{path}: SNP {str(default_snp_ids(p)[j])!r} has code sum "
                              f"{code_sum[j]} and {twos[j]} codes of 2, which no {n} codes "
                              "in {0,1,2} give")
    G = _genotypes_of(path, ContainerCodes(path, int(n), int(p), stamp), code_sum, twos)
    # a code is 3 when both of its bits are set; the last byte of a row
    # masks the codes past column p
    mask = np.full(row_bytes, 0x55, dtype=np.uint8)
    if p % 4:
        mask[-1] = 0x55 >> 2 * (4 - p % 4)
    for _, tile in G.codes.row_tiles():
        t = tile.packed
        if np.any(t & (t >> 1) & mask):
            raise DataFormatError(f"{path}: corrupt codes (value 3 present)")
    return G


def read_genotype_tsv(path: str) -> GenotypeMatrix:
    """A genotype TSV: a ``sample_id`` column, then one column of codes in
    {0, 1, 2} per SNP, headed by its id; lines of whitespace are skipped.

    The rows are counted first, then each line is parsed into its row of a
    preallocated uint8 (n, p) matrix, so no Python object outlives its line.
    A code outside {0, 1, 2} and a repeated SNP or sample id are refused, as
    are what ``GenotypeMatrix.from_counts`` refuses.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header[:1] != ["sample_id"]:
            raise DataFormatError(f"{path}:1: first column must be sample_id")
        snp_ids = np.array(header[1:])
        rep = _repeat(snp_ids)
        if rep is not None:
            i, j = rep
            raise DataFormatError(f"{path}:1: SNP id {str(snp_ids[j])!r} heads columns "
                                  f"{i + 2} and {j + 2}")
        n = sum(1 for line in fh if line.strip())
        if not n:
            raise DataFormatError(f"{path}:2: no data rows")
        fh.seek(0)
        fh.readline()
        codes = np.empty((n, len(snp_ids)), dtype=np.uint8)
        sample_ids, linenos = [], []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            f = line.rstrip("\n").split("\t")
            if len(f) != len(header):
                raise DataFormatError(
                    f"{path}:{lineno}: expected {len(header)} columns, got {len(f)}"
                )
            try:
                row = list(map(int, f[1:]))
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: non-integer genotype code") from None
            if row and not 0 <= min(row) <= max(row) <= 2:
                bad = next(v for v in row if not 0 <= v <= 2)
                raise DataFormatError(
                    f"{path}:{lineno}: genotype code {bad} is not in {{0,1,2}}")
            codes[len(sample_ids)] = row
            sample_ids.append(f[0])
            linenos.append(lineno)
    sample_ids = np.array(sample_ids)
    _refuse_repeats(path, sample_ids, "sample_id", linenos.__getitem__)
    return _genotypes_of(path, codes, *kernels.column_counts(codes), snp_ids=snp_ids,
                         sample_ids=sample_ids)


def read_genotypes(path: str) -> GenotypeMatrix:
    """Dispatch on content: binary container or TSV fallback."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == GENO_MAGIC:
        return read_genotype_bin(path)
    return read_genotype_tsv(path)


# ---------------------------------------------------------------------------
# experiment outputs
# ---------------------------------------------------------------------------

REPLICATE_HEADER = ["scenario", "point_id", "estimator", "replicate", "raw", "corrected", "factor", "flag"]
AGGREGATE_HEADER = ["scenario", "point_id", "estimator", "mean", "sd", "n"]
MOMENT_HEADER = ["quantity_tag", "predicted", "empirical_mean", "empirical_se", "z"]


def write_replicates_tsv(path: str, rows: list) -> None:
    _write_rows(path, REPLICATE_HEADER, "%s\t%s\t%s\t%s\t%.17g\t%.17g\t%.17g\t%s\n",
                map(attrgetter(*REPLICATE_HEADER), rows))


def write_aggregates_tsv(path: str, rows: list) -> None:
    _write_rows(path, AGGREGATE_HEADER, "%s\t%s\t%s\t%.17g\t%.17g\t%s\n",
                map(attrgetter(*AGGREGATE_HEADER), rows))


def write_moment_report_tsv(path: str, reports: list[MomentCheckReport]) -> None:
    _write_rows(path, MOMENT_HEADER, "%s\t%.17g\t%.17g\t%.17g\t%.17g\n",
                map(attrgetter(*MOMENT_HEADER), reports))


# ---------------------------------------------------------------------------
# configuration and manifests
# ---------------------------------------------------------------------------

def parse_config(path: str) -> dict:
    """Flat key=value config file; '#' starts a comment line."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            if "=" not in s:
                raise DataFormatError(f"{path}:{lineno}: expected key=value, got {s!r}")
            key, _, value = s.partition("=")
            out[key.strip()] = value.strip()
    return out


def config_text(cfg: dict) -> str:
    return "".join(f"{k}={cfg[k]}\n" for k in sorted(cfg))


def config_hash(cfg: dict) -> str:
    import hashlib

    return hashlib.sha256(config_text(cfg).encode("utf-8")).hexdigest()


@dataclass
class RunManifest:
    """Provenance record emitted next to every output.

    Outputs are a pure function of (config_hash, master_seed); the
    timestamp and the ``info`` lines (how the run was executed) are
    informational and excluded from the hash, so reruns with an identical
    manifest reproduce outputs byte for byte.
    """

    config_hash: str
    master_seed: int
    toolkit_version: str = __version__
    created_utc: str = ""
    info: dict = field(default_factory=dict)

    def text(self) -> str:
        lines = [
            f"toolkit_version={self.toolkit_version}",
            f"config_hash={self.config_hash}",
            f"master_seed={self.master_seed}",
            f"created_utc={self.created_utc}",
        ]
        lines += [f"{k}={v}" for k, v in self.info.items()]
        return "\n".join(lines) + "\n"


def write_manifest(path: str, cfg: dict, master_seed: int, info: dict | None = None) -> RunManifest:
    manifest = RunManifest(
        config_hash=config_hash(cfg),
        master_seed=master_seed,
        created_utc=datetime.now(timezone.utc).isoformat(),
        info=info or {},
    )
    atomic_write_text(path, manifest.text())
    return manifest


def persist_experiment(out_dir: str, result: ExperimentResult) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_replicates_tsv(os.path.join(out_dir, "replicates.tsv"), result.replicate_rows)
    write_aggregates_tsv(os.path.join(out_dir, "aggregates.tsv"), result.aggregate_rows)
    cfg = result.config.to_dict()
    write_manifest(os.path.join(out_dir, "manifest.txt"), cfg, result.config.master_seed,
                   info={"workers": result.workers, "python": platform.python_version(),
                         "numpy": np.__version__, "machine": platform.machine()})
    if result.failures:
        _write_rows(os.path.join(out_dir, "failures.tsv"), ["point_id", "replicate", "reason"],
                    "%s\t%s\t%s\n", result.failures)
