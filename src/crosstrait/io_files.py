"""File formats, configuration, and run manifests.

Text tables are tab-separated with a header row; floats are written with 17
significant digits so that write-then-read reproduces every IEEE double
bit-exactly.  Genotypes have a compact binary container (2 bits per code)
for large runs and a plain-TSV fallback for small fixtures.  All writes go
through a temp-file-then-rename so partially written outputs never appear
under the final name.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import DataFormatError
from .experiments import AggregateRow, ExperimentResult, ReplicateRow
from .gwas import SummaryStats
from .moments import MomentCheckReport
from .synth import GenotypeMatrix

GENO_MAGIC = b"XTGT"
GENO_VERSION = 1

# the four 2-bit codes of every byte value, low bits first, read as one <u4
# per byte so that unpacking is a single table lookup (as in PLINK's decoder)
_UNPACK_LUT = (
    (np.arange(256, dtype=np.uint8)[:, None] >> np.array([0, 2, 4, 6], dtype=np.uint8)) & 3
).view("<u4")[:, 0]


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


def _read_table(path: str, expected_header: list[str] | None = None):
    """Yield (lineno, fields) for each data row; validates the header."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise DataFormatError(f"{path}:1: empty file")
        cols = header.rstrip("\n").split("\t")
        if expected_header is not None and cols != expected_header:
            raise DataFormatError(
                f"{path}:1: expected header {expected_header}, got {cols}"
            )
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if expected_header is not None and len(fields) != len(cols):
                raise DataFormatError(
                    f"{path}:{lineno}: expected {len(cols)} columns, got {len(fields)}"
                )
            yield lineno, fields


def _parse_float(path, lineno, col, s):
    try:
        return float(s)
    except ValueError:
        raise DataFormatError(f"{path}:{lineno}: column {col!r} is not a number: {s!r}") from None


# ---------------------------------------------------------------------------
# summary statistics
# ---------------------------------------------------------------------------

SUMMARY_HEADER = ["snp_id", "effect", "se", "tstat", "pvalue", "n"]


def write_summary_tsv(path: str, stats: SummaryStats) -> None:
    lines = ["\t".join(SUMMARY_HEADER)]
    for j in range(stats.p):
        lines.append(
            "\t".join(
                [
                    str(stats.snp_id[j]),
                    fmt(stats.effect[j]),
                    fmt(stats.se[j]),
                    fmt(stats.tstat[j]),
                    fmt(stats.pvalue[j]),
                    str(stats.n),
                ]
            )
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_summary_tsv(path: str, trait_tag: str = "") -> SummaryStats:
    ids, eff, se, t, pv, ns = [], [], [], [], [], []
    for lineno, f in _read_table(path, SUMMARY_HEADER):
        ids.append(f[0])
        eff.append(_parse_float(path, lineno, "effect", f[1]))
        se.append(_parse_float(path, lineno, "se", f[2]))
        t.append(_parse_float(path, lineno, "tstat", f[3]))
        pv.append(_parse_float(path, lineno, "pvalue", f[4]))
        ns.append(int(_parse_float(path, lineno, "n", f[5])))
    if not ids:
        raise DataFormatError(f"{path}:2: no data rows")
    return SummaryStats(
        snp_id=np.array(ids),
        effect=np.array(eff),
        se=np.array(se),
        tstat=np.array(t),
        pvalue=np.array(pv),
        n=ns[0],
        trait_tag=trait_tag,
    )


# ---------------------------------------------------------------------------
# phenotypes and scores
# ---------------------------------------------------------------------------

def write_phenotype_tsv(path: str, y: np.ndarray, sample_ids=None) -> None:
    if sample_ids is None:
        sample_ids = [f"sample{i:07d}" for i in range(len(y))]
    lines = ["sample_id\tvalue"]
    lines += [f"{sid}\t{fmt(v)}" for sid, v in zip(sample_ids, y)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_phenotype_tsv(path: str) -> tuple[np.ndarray, list[str]]:
    ids, vals = [], []
    for lineno, f in _read_table(path, ["sample_id", "value"]):
        ids.append(f[0])
        vals.append(_parse_float(path, lineno, "value", f[1]))
    if not ids:
        raise DataFormatError(f"{path}:2: no data rows")
    return np.array(vals), ids


def write_scores_tsv(path: str, scores: np.ndarray, sample_ids=None) -> None:
    if sample_ids is None:
        sample_ids = [f"sample{i:07d}" for i in range(len(scores))]
    lines = ["sample_id\tscore"]
    lines += [f"{sid}\t{fmt(v)}" for sid, v in zip(sample_ids, scores)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_scores_tsv(path: str) -> tuple[np.ndarray, list[str]]:
    ids, vals = [], []
    for lineno, f in _read_table(path, ["sample_id", "score"]):
        ids.append(f[0])
        vals.append(_parse_float(path, lineno, "score", f[1]))
    return np.array(vals), ids


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
    """Inverse of ``pack_codes``: an (n, p) uint8 array of 2-bit fields."""
    n = packed.shape[0]
    expanded = _UNPACK_LUT.take(packed).view(np.uint8).reshape(n, 4 * packed.shape[1])
    return np.ascontiguousarray(expanded[:, :p])


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
    codes = unpack_codes(packed, p)
    if codes.max(initial=0) > 2:
        raise DataFormatError(f"{path}: corrupt codes (value 3 present)")
    return GenotypeMatrix(
        n=int(n), p=int(p), codes=codes, maf=maf, col_mean=mean, col_sd=sd
    )


def write_genotype_tsv(path: str, G: GenotypeMatrix) -> None:
    ids = G.ids()
    lines = ["\t".join(["sample_id", *map(str, ids)])]
    for i in range(G.n):
        lines.append("\t".join([f"sample{i:07d}", *map(str, G.codes[i])]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_genotype_tsv(path: str) -> GenotypeMatrix:
    rows = []
    snp_ids = None
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
            try:
                rows.append([int(v) for v in f[1:]])
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: non-integer genotype code") from None
    if not rows:
        raise DataFormatError(f"{path}:2: no data rows")
    codes = np.array(rows, dtype=np.uint8)
    if codes.max(initial=0) > 2:
        raise DataFormatError(f"{path}: genotype codes must be in {{0,1,2}}")
    return GenotypeMatrix.from_codes(codes, snp_ids=snp_ids)


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
    lines = ["\t".join(REPLICATE_HEADER)]
    for r in rows:
        lines.append(
            "\t".join(
                [r.scenario, r.point_id, r.estimator, str(r.replicate),
                 fmt(r.raw), fmt(r.corrected), fmt(r.factor), r.flag]
            )
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_replicates_tsv(path: str) -> list:
    rows = []
    for lineno, f in _read_table(path, REPLICATE_HEADER):
        rows.append(
            ReplicateRow(
                scenario=f[0], point_id=f[1], estimator=f[2], replicate=int(f[3]),
                raw=_parse_float(path, lineno, "raw", f[4]),
                corrected=_parse_float(path, lineno, "corrected", f[5]),
                factor=_parse_float(path, lineno, "factor", f[6]),
                flag=f[7],
            )
        )
    return rows


def write_aggregates_tsv(path: str, rows: list) -> None:
    lines = ["\t".join(AGGREGATE_HEADER)]
    for r in rows:
        lines.append(
            "\t".join([r.scenario, r.point_id, r.estimator, fmt(r.mean), fmt(r.sd), str(r.n)])
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_aggregates_tsv(path: str) -> list:
    rows = []
    for lineno, f in _read_table(path, AGGREGATE_HEADER):
        rows.append(
            AggregateRow(
                scenario=f[0], point_id=f[1], estimator=f[2],
                mean=_parse_float(path, lineno, "mean", f[3]),
                sd=_parse_float(path, lineno, "sd", f[4]),
                n=int(f[5]),
            )
        )
    return rows


def write_moment_report_tsv(path: str, reports: list[MomentCheckReport]) -> None:
    lines = ["\t".join(MOMENT_HEADER)]
    for r in reports:
        lines.append(
            "\t".join(
                [r.quantity_tag, fmt(r.predicted), fmt(r.empirical_mean),
                 fmt(r.empirical_se), fmt(r.z)]
            )
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


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
    info = {"workers": result.workers,
            "blas_threads_per_worker": result.blas_threads_per_worker}
    write_manifest(os.path.join(out_dir, "manifest.txt"), cfg, result.config.master_seed,
                   info=info)
    if result.failures:
        lines = ["point_id\treplicate\treason"]
        lines += [f"{p}\t{r}\t{msg}" for p, r, msg in result.failures]
        atomic_write_text(os.path.join(out_dir, "failures.tsv"), "\n".join(lines) + "\n")
