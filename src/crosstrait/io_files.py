"""File formats, configuration, and run manifests.

Text tables are tab-separated with a header row; floats are written with 17
significant digits so that write-then-read reproduces every IEEE double
bit-exactly.  A table is read by columns (one split of the whole file, then
``float`` over each number column) and written from one row template, so no
Python call runs per field.  Genotypes have a compact binary container (2 bits
per code, decoded two bytes per table lookup) for large runs, whose codes stay
packed in memory and are decoded one column block at a time, and a plain-TSV
fallback for small fixtures.  All writes go through a temp-file-then-rename so
partially written outputs never appear under the final name.
"""

from __future__ import annotations

import functools
import hashlib
import os
import struct
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain, repeat
from operator import attrgetter

import numpy as np

from . import __version__
from .errors import DataFormatError
from .experiments import AggregateRow, ExperimentResult, ReplicateRow
from .gwas import SummaryStats
from .moments import MomentCheckReport
from .synth import GenotypeMatrix, default_snp_ids

GENO_MAGIC = b"XTGT"
GENO_VERSION = 1

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


# rows per decoded tile: their intp indices and <u8 lookups take about 512 KiB,
# so a tile stays in cache and no index array of the whole matrix is built
_UNPACK_TILE_BYTES = 1 << 19


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def atomic_write_bytes(path: str, data: bytes) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _floats(col: list[str]) -> np.ndarray:
    return np.array(list(map(float, col)))


def _finite(col: list[str]) -> np.ndarray:
    x = _floats(col)
    if not np.all(np.isfinite(x)):
        raise ValueError("is not finite")
    return x


def _pvalues(col: list[str]) -> np.ndarray:
    x = _floats(col)
    if not np.all((x > 0.0) & (x <= 1.0)):
        raise ValueError("is not in (0, 1]")
    return x


def _ints(least: int):
    """Parser of a column of integers >= ``least`` ("3.0" reads as 3); each
    distinct string is checked once."""
    def parse(col: list[str]) -> list[int]:
        distinct = list(dict.fromkeys(col))
        x = _floats(distinct)
        if not np.all((x >= least) & (x < 2.0**63) & (x == np.floor(x))):
            raise ValueError(f"is not an integer >= {least}")
        return list(map(dict(zip(distinct, x.astype(np.int64).tolist())).__getitem__, col))
    return parse


def _line_of_row(path: str, row: int) -> int:
    """The line number of data row ``row`` (from 0) of a table; blank lines
    hold no row."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    return [i for i, line in enumerate(lines[1:], start=2) if line][row]


def _read_columns(path: str, header: list[str], parse: dict) -> list:
    """The columns of a tab-separated table whose first line is ``header``.

    Blank lines are skipped.  Column ``j`` is a list of strings, or
    ``parse[j](strings)`` for the columns in ``parse``, whose functions parse
    with ``float`` and raise ``ValueError`` for a value they refuse.  A line
    with the wrong number of fields, or with a value in a ``parse`` column
    that is not a number or is refused, raises ``DataFormatError`` naming the
    first such line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not text:
        raise DataFormatError(f"{path}:1: empty file")
    head, _, body = text.partition("\n")
    cols = head.split("\t")
    if cols != header:
        raise DataFormatError(f"{path}:1: expected header {header}, got {cols}")
    rows = list(filter(None, body.split("\n")))
    k = len(header)
    try:
        if list(map(str.count, rows, repeat("\t"))).count(k - 1) != len(rows):
            raise ValueError("wrong number of fields")
        fields = "\t".join(rows).split("\t") if rows else []
        columns = [fields[j::k] for j in range(k)]
        for j, fn in parse.items():
            columns[j] = fn(columns[j])
    except ValueError:
        _raise_first_fault(path, header, parse, body)
        raise
    return columns


def _raise_first_fault(path: str, header: list[str], parse: dict, body: str) -> None:
    """Walk the lines of ``body`` (line 2 on) in order and raise for the first
    one with the wrong number of fields, or a non-number or a refused value in
    a ``parse`` column."""
    for lineno, line in enumerate(body.split("\n"), start=2):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != len(header):
            raise DataFormatError(
                f"{path}:{lineno}: expected {len(header)} columns, got {len(fields)}"
            )
        for j, fn in parse.items():
            try:
                float(fields[j])
            except ValueError:
                raise DataFormatError(
                    f"{path}:{lineno}: column {header[j]!r} is not a number: {fields[j]!r}"
                ) from None
            try:
                fn([fields[j]])
            except ValueError as exc:
                raise DataFormatError(
                    f"{path}:{lineno}: column {header[j]!r} {exc}: {fields[j]!r}"
                ) from None


def _write_rows(path: str, header: list[str], template: str, rows) -> None:
    """Write ``header`` and one ``template % row`` line per row.  ``%.17g``
    prints a float exactly as ``fmt`` does."""
    rows = list(rows)
    body = (template * len(rows)) % tuple(chain.from_iterable(rows))
    atomic_write_text(path, "\t".join(header) + "\n" + body)


def _default_sample_ids(n: int) -> list[str]:
    return list(map("sample{:07d}".format, range(n)))


# ---------------------------------------------------------------------------
# summary statistics
# ---------------------------------------------------------------------------

SUMMARY_HEADER = ["snp_id", "effect", "se", "tstat", "pvalue", "n"]


def write_summary_tsv(path: str, stats: SummaryStats) -> None:
    """Write a summary TSV; positional SNPs (``snp_id`` None) are written with
    the default ids, which read back as positional."""
    ids = default_snp_ids(stats.p) if stats.snp_id is None else stats.snp_id
    columns = (ids, stats.effect, stats.se, stats.tstat, stats.pvalue)
    _write_rows(path, SUMMARY_HEADER, "%s\t%.17g\t%.17g\t%.17g\t%.17g\t%s\n",
                zip(*(np.asarray(c).tolist() for c in columns), repeat(stats.n)))


def read_summary_tsv(path: str, trait_tag: str = "") -> SummaryStats:
    """Read a summary TSV.  Its effects must be finite, its p-values in (0, 1],
    and its ``n`` one positive integer, the same on every row; ``se`` and
    ``tstat`` may be infinite, as ``marginal_gwas`` writes them when se is 0."""
    ids, effect, se, tstat, pvalue, ns = _read_columns(
        path, SUMMARY_HEADER,
        {1: _finite, 2: _floats, 3: _floats, 4: _pvalues, 5: _ints(1)})
    if not ids:
        raise DataFormatError(f"{path}:2: no data rows")
    if ns.count(ns[0]) != len(ns):
        row = next(i for i, n in enumerate(ns) if n != ns[0])
        raise DataFormatError(f"{path}:{_line_of_row(path, row)}: column 'n' is {ns[row]}, "
                              f"but {ns[0]} on the first row")
    return SummaryStats(
        snp_id=np.array(ids),
        effect=effect,
        se=se,
        tstat=tstat,
        pvalue=pvalue,
        n=ns[0],
        trait_tag=trait_tag,
    )


# ---------------------------------------------------------------------------
# phenotypes and scores
# ---------------------------------------------------------------------------

def write_phenotype_tsv(path: str, y: np.ndarray, sample_ids=None) -> None:
    if sample_ids is None:
        sample_ids = _default_sample_ids(len(y))
    _write_rows(path, ["sample_id", "value"], "%s\t%.17g\n",
                zip(sample_ids, np.asarray(y).tolist()))


def read_phenotype_tsv(path: str) -> tuple[np.ndarray, list[str]]:
    """The values (finite) and sample ids of a phenotype TSV."""
    ids, values = _read_columns(path, ["sample_id", "value"], {1: _finite})
    if not ids:
        raise DataFormatError(f"{path}:2: no data rows")
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
    bad = np.flatnonzero(np.asarray(ids) != want)
    if bad.size:
        i = int(bad[0])
        note = "" if G.sample_ids is not None else ", as it stores no sample ids"
        raise DataFormatError(
            f"{path}:{_line_of_row(path, i)}: sample id {ids[i]!r}, but sample {i + 1} "
            f"of {geno_path} is {str(want[i])!r}{note}")
    return y


def write_scores_tsv(path: str, scores: np.ndarray, sample_ids=None) -> None:
    if sample_ids is None:
        sample_ids = _default_sample_ids(len(scores))
    _write_rows(path, ["sample_id", "score"], "%s\t%.17g\n",
                zip(sample_ids, np.asarray(scores).tolist()))


def read_scores_tsv(path: str) -> tuple[np.ndarray, list[str]]:
    ids, values = _read_columns(path, ["sample_id", "score"], {1: _floats})
    return values, ids


# ---------------------------------------------------------------------------
# genotypes
# ---------------------------------------------------------------------------

def pack_codes(codes: np.ndarray) -> np.ndarray:
    """Pack {0,1,2} codes 4-per-byte, row-major, little end of byte first."""
    n, p = codes.shape
    p_pad = -(-p // 4) * 4
    padded = np.zeros((n, p_pad), dtype=np.uint8)
    padded[:, :p] = codes
    grouped = padded.reshape(n, p_pad // 4, 4)
    weights = np.array([1, 4, 16, 64], dtype=np.uint8)
    return (grouped * weights).sum(axis=2, dtype=np.uint16).astype(np.uint8)


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
    """The (n, p) codes of a container, kept 2-bit packed as ``pack_codes``
    writes them: n * ceil(p / 4) bytes.

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


def write_genotype_bin(path: str, G: GenotypeMatrix) -> None:
    header = GENO_MAGIC + struct.pack("<IQQ", GENO_VERSION, G.n, G.p)
    packed = pack_codes(G.codes)
    blob = b"".join(
        [
            header,
            packed.tobytes(),
            G.maf.astype("<f8").tobytes(),
            G.col_mean.astype("<f8").tobytes(),
            G.col_sd.astype("<f8").tobytes(),
        ]
    )
    atomic_write_bytes(path, blob)


def read_genotype_bin(path: str) -> GenotypeMatrix:
    """A container's genotypes, their codes kept packed (``PackedCodes``).

    A code 3 in any of the p columns is refused here; the padding past
    column p is not read.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != GENO_MAGIC:
        raise DataFormatError(f"{path}: not a genotype container (bad magic)")
    if len(data) < 24:
        raise DataFormatError(f"{path}: truncated container header")
    version, n, p = struct.unpack("<IQQ", data[4:24])
    if version != GENO_VERSION:
        raise DataFormatError(f"{path}: unsupported container version {version}")
    row_bytes = -(-p // 4)
    expected = 24 + n * row_bytes + 3 * 8 * p
    if len(data) != expected:
        raise DataFormatError(
            f"{path}: container holds {len(data)} bytes, expected {expected} for n={n}, p={p}"
        )
    off = 24
    packed = np.frombuffer(data, dtype=np.uint8, count=n * row_bytes, offset=off).reshape(n, row_bytes)
    off += n * row_bytes
    maf = np.frombuffer(data, dtype="<f8", count=p, offset=off).copy()
    off += 8 * p
    mean = np.frombuffer(data, dtype="<f8", count=p, offset=off).copy()
    off += 8 * p
    sd = np.frombuffer(data, dtype="<f8", count=p, offset=off).copy()
    # a code is 3 when both of its bits are set; the last byte of a row
    # masks the codes past column p
    mask = np.full(row_bytes, 0x55, dtype=np.uint8)
    if p % 4:
        mask[-1] = 0x55 >> 2 * (4 - p % 4)
    rows = max(1, _UNPACK_TILE_BYTES // max(row_bytes, 1))
    for r in range(0, n, rows):
        tile = packed[r:r + rows]
        if np.any(tile & (tile >> 1) & mask):
            raise DataFormatError(f"{path}: corrupt codes (value 3 present)")
    return GenotypeMatrix(
        n=int(n), p=int(p), codes=PackedCodes(packed, int(p)), maf=maf, col_mean=mean, col_sd=sd
    )


def read_genotype_tsv(path: str) -> GenotypeMatrix:
    rows, sample_ids = [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header[:1] != ["sample_id"]:
            raise DataFormatError(f"{path}:1: first column must be sample_id")
        snp_ids = np.array(header[1:])
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            f = line.rstrip("\n").split("\t")
            if len(f) != len(header):
                raise DataFormatError(
                    f"{path}:{lineno}: expected {len(header)} columns, got {len(f)}"
                )
            sample_ids.append(f[0])
            try:
                rows.append([int(v) for v in f[1:]])
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: non-integer genotype code") from None
    if not rows:
        raise DataFormatError(f"{path}:2: no data rows")
    codes = np.array(rows, dtype=np.uint8)
    if codes.max(initial=0) > 2:
        raise DataFormatError(f"{path}: genotype codes must be in {{0,1,2}}")
    return GenotypeMatrix.from_codes(codes, snp_ids=snp_ids, sample_ids=np.array(sample_ids))


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


def read_replicates_tsv(path: str) -> list:
    scenario, point_id, estimator, replicate, raw, corrected, factor, flag = _read_columns(
        path, REPLICATE_HEADER, {3: _ints(0), 4: _floats, 5: _floats, 6: _floats})
    return list(map(ReplicateRow, scenario, point_id, estimator, replicate,
                    raw.tolist(), corrected.tolist(), factor.tolist(), flag))


def write_aggregates_tsv(path: str, rows: list) -> None:
    _write_rows(path, AGGREGATE_HEADER, "%s\t%s\t%s\t%.17g\t%.17g\t%s\n",
                map(attrgetter(*AGGREGATE_HEADER), rows))


def read_aggregates_tsv(path: str) -> list:
    scenario, point_id, estimator, mean, sd, n = _read_columns(
        path, AGGREGATE_HEADER, {3: _floats, 4: _floats, 5: _ints(0)})
    return list(map(AggregateRow, scenario, point_id, estimator,
                    mean.tolist(), sd.tolist(), n))


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
    return hashlib.sha256(config_text(cfg).encode("utf-8")).hexdigest()


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    """Provenance record emitted next to every output.

    Outputs are a pure function of (config_hash, master_seed, inputs); the
    timestamp and the ``info`` lines (how the run was executed) are
    informational and excluded from the hash, so reruns with an identical
    manifest reproduce outputs byte for byte.
    """

    config_hash: str
    master_seed: int
    toolkit_version: str = __version__
    created_utc: str = ""
    input_digests: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def text(self) -> str:
        lines = [
            f"toolkit_version={self.toolkit_version}",
            f"config_hash={self.config_hash}",
            f"master_seed={self.master_seed}",
            f"created_utc={self.created_utc}",
        ]
        lines += [f"{k}={v}" for k, v in self.info.items()]
        for name in sorted(self.input_digests):
            lines.append(f"input_digest:{name}={self.input_digests[name]}")
        return "\n".join(lines) + "\n"


def write_manifest(
    path: str, cfg: dict, master_seed: int, inputs: dict | None = None, info: dict | None = None
) -> RunManifest:
    manifest = RunManifest(
        config_hash=config_hash(cfg),
        master_seed=master_seed,
        created_utc=datetime.now(timezone.utc).isoformat(),
        input_digests={k: file_digest(v) for k, v in (inputs or {}).items()},
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
                   info={"workers": result.workers})
    if result.failures:
        _write_rows(os.path.join(out_dir, "failures.tsv"), ["point_id", "replicate", "reason"],
                    "%s\t%s\t%s\n", result.failures)
