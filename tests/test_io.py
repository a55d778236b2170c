import os
import re
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosstrait import io_files, kernels, prs
from crosstrait.cli import main
from crosstrait.errors import DataFormatError, ParameterError
from crosstrait.experiments import AggregateRow, ReplicateRow, aggregate
from crosstrait.gwas import SummaryStats, marginal_gwas
from crosstrait.moments import MomentCheckReport
from crosstrait.synth import (
    CohortSizes,
    GenotypeMatrix,
    TraitArchitecture,
    default_snp_ids,
    gen_genotypes,
    gen_independent_cohorts,
)
from tables import read_aggregates, read_replicates, read_scores

# doubles whose text form is easy to get wrong
SPECIAL = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1.7976931348623157e308]


def write_genotype_tsv(path, G, snp_ids, sample_ids=None):
    """A genotype TSV: a ``sample_id`` column, then one column of codes per SNP."""
    sample_ids = sample_ids or [f"sample{i:07d}" for i in range(G.n)]
    lines = ["\t".join(["sample_id", *snp_ids])]
    lines += ["\t".join([i, *map(str, row)]) for i, row in zip(sample_ids, G.codes)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def sample_values(k=60, seed=0):
    """The special doubles, then k doubles of scattered magnitude, then k in [0, 1)."""
    rng = np.random.default_rng(seed)
    scattered = rng.standard_normal(k) * 10.0 ** rng.integers(-300, 300, k)
    return np.concatenate([SPECIAL, scattered, rng.random(k)])


def field_oracle(header, rows, kinds):
    """A table printed one field at a time: ``format(float(x), ".17g")`` for
    the fields marked "f" in ``kinds``, ``str`` for those marked "s"."""
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(format(float(v), ".17g") if k == "f" else str(v)
                               for k, v in zip(kinds, row, strict=True)))
    return "\n".join(lines) + "\n"


def bits(xs):
    return np.asarray(xs, dtype=np.float64).view(np.uint64)


def traced_peak(run):
    """Peak bytes that Python and numpy allocate while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def container_400x20000(tmp_path_factory):
    """A container of n = 400, p = 20,000 codes, a phenotype of its samples
    and the summary of their scan; returns (n, p, paths)."""
    n, p = 400, 20_000
    d = tmp_path_factory.mktemp("container")
    G = gen_genotypes(n, p, seed=23)
    paths = {"geno": str(d / "geno.xtg"), "pheno": str(d / "pheno.tsv"),
             "summary": str(d / "summary.tsv"), "out": str(d / "out.tsv")}
    io_files.write_genotype_bin(paths["geno"], G)
    y = np.random.default_rng(24).standard_normal(n)
    io_files.write_phenotype_tsv(paths["pheno"], y)
    io_files.write_summary_tsv(paths["summary"], marginal_gwas(G, y))
    return n, p, paths


@pytest.fixture
def stats():
    G = gen_genotypes(60, 12, seed=0)
    y = np.random.default_rng(1).standard_normal(60)
    return marginal_gwas(G, y)


class TestWritersMatchFieldOracle:
    def test_summary(self, tmp_path):
        v = sample_values()
        stats = SummaryStats(snp_id=np.array([f"rs{j}" for j in range(v.size)]), effect=v,
                             se=v[::-1].copy(), tstat=np.roll(v, 7), pvalue=np.abs(v), n=1234)
        path = tmp_path / "sum.tsv"
        io_files.write_summary_tsv(str(path), stats)
        rows = zip(stats.snp_id, v, stats.se, stats.tstat, stats.pvalue, [1234] * v.size)
        assert path.read_text() == field_oracle(io_files.SUMMARY_HEADER, rows, "sffffs")

    @pytest.mark.parametrize("sample_ids", [None, ["a", "b%s", "c%d", "7"] * 33])
    def test_phenotype_and_scores(self, tmp_path, sample_ids):
        v = sample_values()
        ids = sample_ids or [f"sample{i:07d}" for i in range(v.size)]
        for writer, header in ((io_files.write_phenotype_tsv, ["sample_id", "value"]),
                               (io_files.write_scores_tsv, ["sample_id", "score"])):
            path = tmp_path / f"{header[1]}.tsv"
            writer(str(path), v, sample_ids=sample_ids)
            assert path.read_text() == field_oracle(header, zip(ids, v), "sf")

    def test_replicates(self, tmp_path):
        v = sample_values()
        rows = [ReplicateRow("fig2", f"pt{i}", "G", i, float(v[i]), np.float64(v[-i - 1]),
                             v[(7 * i) % v.size], "ok;q=3" if i % 3 else "flag%")
                for i in range(v.size)]
        path = tmp_path / "reps.tsv"
        io_files.write_replicates_tsv(str(path), rows)
        fields = [[getattr(r, f) for f in io_files.REPLICATE_HEADER] for r in rows]
        assert path.read_text() == field_oracle(io_files.REPLICATE_HEADER, fields, "ssssfffs")

    def test_aggregates(self, tmp_path):
        v = sample_values()
        rows = [AggregateRow("fig2", f"pt{i}", "G", v[i], v[i + 1], i) for i in range(v.size - 1)]
        path = tmp_path / "aggs.tsv"
        io_files.write_aggregates_tsv(str(path), rows)
        fields = [[getattr(r, f) for f in io_files.AGGREGATE_HEADER] for r in rows]
        assert path.read_text() == field_oracle(io_files.AGGREGATE_HEADER, fields, "sssffs")

    def test_moment_report(self, tmp_path):
        v = sample_values()
        reports = [MomentCheckReport(f"tag{i}", v[i], v[i + 1], v[i + 2], v[i + 3], 10, True)
                   for i in range(v.size - 3)]
        path = tmp_path / "moments.tsv"
        io_files.write_moment_report_tsv(str(path), reports)
        fields = [[getattr(r, f) for f in io_files.MOMENT_HEADER] for r in reports]
        assert path.read_text() == field_oracle(io_files.MOMENT_HEADER, fields, "sffff")

    def test_empty_tables_are_header_only(self, tmp_path):
        path = tmp_path / "reps.tsv"
        io_files.write_replicates_tsv(str(path), [])
        assert path.read_text() == "\t".join(io_files.REPLICATE_HEADER) + "\n"


# every double but NaN payloads other than float("nan")'s, which print as "nan"
doubles = st.floats(allow_nan=False) | st.just(float("nan"))


@given(st.lists(doubles, min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_write_read_round_trip_bitwise(xs):
    v = np.array(xs + SPECIAL)
    # summary effects and phenotype values are finite, se and tstat not NaN,
    # and p-values lie in (0, 1], as their readers require; scores take any
    # double
    finite = np.resize(v[np.isfinite(v)], v.size)
    number = np.resize(v[~np.isnan(v)], v.size)
    pvalue = np.abs(finite)
    pvalue = np.resize(np.append(pvalue[(pvalue > 0.0) & (pvalue <= 1.0)], 1.0), v.size)
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/t.tsv"
        io_files.write_summary_tsv(path, SummaryStats(
            snp_id=np.array([f"rs{j}" for j in range(v.size)]), effect=finite,
            se=number[::-1].copy(), tstat=np.roll(number, 1), pvalue=pvalue, n=17))
        back = io_files.read_summary_tsv(path)
        for got, want in ((back.effect, finite), (back.se, number[::-1]),
                          (back.tstat, np.roll(number, 1)), (back.pvalue, pvalue)):
            assert np.array_equal(bits(got), bits(want))
        assert back.n == 17

        for write, read, x in ((io_files.write_phenotype_tsv, io_files.read_phenotype_tsv, finite),
                               (io_files.write_scores_tsv, read_scores, v)):
            write(path, x)
            assert np.array_equal(bits(read(path)[0]), bits(x))

        # -nan prints as "nan" too, so the columns are rolled, not negated
        cols = [v.tolist(), np.roll(v, 1).tolist(), np.roll(v, 2).tolist()]
        rows = [ReplicateRow("s", "pt", "G", i, *xs, "ok") for i, xs in enumerate(zip(*cols))]
        io_files.write_replicates_tsv(path, rows)
        back = read_replicates(path)
        for f, col in zip(("raw", "corrected", "factor"), cols):
            assert np.array_equal(bits([getattr(r, f) for r in back]), bits(col))
        assert [r.replicate for r in back] == list(range(v.size))

        aggs = [AggregateRow("s", "pt", "G", x, y, i) for i, (x, y) in enumerate(zip(*cols[:2]))]
        io_files.write_aggregates_tsv(path, aggs)
        back = read_aggregates(path)
        assert np.array_equal(bits([r.mean for r in back]), bits(cols[0]))
        assert np.array_equal(bits([r.sd for r in back]), bits(cols[1]))


# table -> (reader, header, one valid row, indices of its number columns)
TABLES = {
    "summary": (io_files.read_summary_tsv, io_files.SUMMARY_HEADER,
                ["rs1", "0.5", "0.1", "5", "1e-06", "60"], [1, 2, 3, 4, 5]),
    "phenotype": (io_files.read_phenotype_tsv, ["sample_id", "value"], ["s1", "0.25"], [1]),
    "scores": (read_scores, ["sample_id", "score"], ["s1", "-1.5"], [1]),
    "replicates": (read_replicates, io_files.REPLICATE_HEADER,
                   ["sc", "pt", "G", "3", "0.5", "nan", "-0", "ok"], [4, 5, 6]),
    "aggregates": (read_aggregates, io_files.AGGREGATE_HEADER,
                   ["sc", "pt", "G", "0.5", "inf", "4"], [3, 4]),
}


def write_lines(tmp_path, *lines):
    path = tmp_path / "t.tsv"
    path.write_text("\n".join(lines))
    return str(path)


def raises_at(path, lineno, message):
    return pytest.raises(DataFormatError, match=re.escape(f"{path}:{lineno}: {message}"))


@pytest.mark.parametrize("table", sorted(TABLES))
class TestReaderErrors:
    def test_empty_file(self, tmp_path, table):
        read = TABLES[table][0]
        path = write_lines(tmp_path, "")
        with raises_at(path, 1, "empty file"):
            read(path)

    def test_wrong_header(self, tmp_path, table):
        read, header, row, _ = TABLES[table]
        path = write_lines(tmp_path, "\t".join(header[:-1] + ["x"]), "\t".join(row), "")
        with raises_at(path, 1, f"expected header {header}, got {header[:-1] + ['x']}"):
            read(path)

    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    def test_wrong_field_count(self, tmp_path, table, extra):
        read, header, row, _ = TABLES[table]
        bad = row[:-1] if extra < 0 else row + ["x"]
        good = "\t".join(row)
        path = write_lines(tmp_path, "\t".join(header), good, "", good, "\t".join(bad), good, "")
        with raises_at(path, 5, f"expected {len(header)} columns, got {len(header) + extra}"):
            read(path)

    def test_non_number_names_line_and_column(self, tmp_path, table):
        read, header, row, numbers = TABLES[table]
        good = "\t".join(row)
        for j in numbers:
            bad = list(row)
            bad[j] = "oops"
            path = write_lines(tmp_path, "\t".join(header), good, "", "", good,
                               "\t".join(bad), good, "")
            with raises_at(path, 6, f"column {header[j]!r} is not a number: 'oops'"):
                read(path)

    def test_first_fault_in_line_order(self, tmp_path, table):
        read, header, row, numbers = TABLES[table]
        bad = list(row)
        bad[numbers[-1]] = "oops"
        lines = ["\t".join(header), "\t".join(bad), "\t".join(row[:-1]), ""]
        with raises_at(write_lines(tmp_path, *lines), 2, f"column {header[numbers[-1]]!r}"):
            read(str(tmp_path / "t.tsv"))
        lines[1:3] = lines[2:0:-1]
        with raises_at(write_lines(tmp_path, *lines), 2, "expected"):
            read(str(tmp_path / "t.tsv"))
        bad[numbers[0]] = "first"
        with raises_at(write_lines(tmp_path, lines[0], "\t".join(bad)), 2,
                       f"column {header[numbers[0]]!r} is not a number: 'first'"):
            read(str(tmp_path / "t.tsv"))

    def test_blank_lines_skipped(self, tmp_path, table):
        read, header, row, _ = TABLES[table]
        # the rows differ in their first column, the id of a summary or a phenotype row
        good, other = "\t".join(row), "\t".join([row[0] + "b", *row[1:]])
        plain = read(write_lines(tmp_path, "\t".join(header), good, other, ""))
        spaced = read(write_lines(tmp_path, "\t".join(header), "", good, "", "", other, "", ""))
        assert repr(spaced) == repr(plain)


@pytest.mark.parametrize("table", ["summary", "phenotype"])
def test_no_data_rows(tmp_path, table):
    read, header, _, _ = TABLES[table]
    path = write_lines(tmp_path, "\t".join(header), "", "", "")
    with raises_at(path, 2, "no data rows"):
        read(path)


def test_cli_corrupt_summary_exits_3(tmp_path, capsys):
    geno = str(tmp_path / "geno.xtg")
    io_files.write_genotype_bin(geno, gen_genotypes(10, 3, seed=2))
    summary = write_lines(tmp_path, "\t".join(io_files.SUMMARY_HEADER),
                          "snp0000000\t0.5\t0.1\t5\t0.01\t10",
                          "snp0000001\t0.5\toops\t5\t0.01\t10", "")
    rc = main(["score", "--genotypes", geno, "--summary", summary,
               "--out", str(tmp_path / "scores.tsv")])
    assert rc == 3
    assert f"{summary}:3: column 'se' is not a number: 'oops'" in capsys.readouterr().err


def score_summary(tmp_path, *ns):
    """``crosstrait score`` of a summary TSV whose rows carry the ``n`` values
    ``ns``, a blank line after the first row; returns (summary path, exit code)."""
    geno = str(tmp_path / "geno.xtg")
    io_files.write_genotype_bin(geno, gen_genotypes(10, len(ns), seed=2))
    rows = [f"snp{j:07d}\t0.5\t0.1\t5\t0.01\t{n}" for j, n in enumerate(ns)]
    summary = write_lines(tmp_path, "\t".join(io_files.SUMMARY_HEADER), rows[0], "",
                          *rows[1:], "")
    return summary, main(["score", "--genotypes", geno, "--summary", summary,
                          "--out", str(tmp_path / "scores.tsv")])


NON_FINITE = ["nan", "inf", "-inf"]


class TestNonFiniteInput:
    """A summary effect or a phenotype value that is not finite, or a p-value
    outside (0, 1], is a data error naming its line."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_cli_refuses_summary_effect(self, tmp_path, capsys, bad):
        self._refuses_summary_field(tmp_path, capsys, 1, bad, "is not finite")

    @pytest.mark.parametrize("bad", ["nan", "0", "-0.5", "7", "inf"])
    def test_cli_refuses_summary_pvalue(self, tmp_path, capsys, bad):
        self._refuses_summary_field(tmp_path, capsys, 4, bad, "is not in (0, 1]")

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_cli_refuses_phenotype_value(self, tmp_path, capsys, bad):
        G = gen_genotypes(10, 3, seed=2)
        geno = str(tmp_path / "geno.xtg")
        io_files.write_genotype_bin(geno, G)
        pheno = str(tmp_path / "pheno.tsv")
        y = np.random.default_rng(3).standard_normal(10)
        io_files.write_phenotype_tsv(pheno, y)
        lines = open(pheno).read().split("\n")
        lines[4] = lines[4].split("\t")[0] + "\t" + bad
        write_lines(tmp_path, *lines)
        rc = main(["gwas", "--genotypes", geno, "--phenotype", str(tmp_path / "t.tsv"),
                   "--out", str(tmp_path / "summary.tsv")])
        assert rc == 3
        assert (f"{tmp_path / 't.tsv'}:5: column 'value' is not finite: {bad!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "summary.tsv").exists()

    def _refuses_summary_field(self, tmp_path, capsys, j, bad, message):
        geno = str(tmp_path / "geno.xtg")
        io_files.write_genotype_bin(geno, gen_genotypes(10, 3, seed=2))
        rows = [f"snp{k:07d}\t0.5\t0.1\t5\t0.01\t10".split("\t") for k in range(3)]
        rows[1][j] = bad
        summary = write_lines(tmp_path, "\t".join(io_files.SUMMARY_HEADER),
                              *map("\t".join, rows), "")
        rc = main(["score", "--genotypes", geno, "--summary", summary, "--rule", "pvalue",
                   "--cutoff", "0.05", "--out", str(tmp_path / "scores.tsv")])
        assert rc == 3
        header = io_files.SUMMARY_HEADER[j]
        assert f"{summary}:3: column {header!r} {message}: {bad!r}" in capsys.readouterr().err
        assert not (tmp_path / "scores.tsv").exists()


class TestSummaryN:
    @pytest.mark.parametrize("bad", ["60.9", "nan", "inf", "-inf", "0", "-3"])
    def test_cli_refuses_n_that_is_not_a_positive_integer(self, tmp_path, capsys, bad):
        summary, rc = score_summary(tmp_path, "60", "60", bad, "60")
        assert rc == 3
        err = capsys.readouterr().err
        assert f"{summary}:5: column 'n' is not an integer >= 1: {bad!r}" in err

    def test_cli_refuses_n_that_varies_between_rows(self, tmp_path, capsys):
        summary, rc = score_summary(tmp_path, "60", "60.0", "70", "60")
        assert rc == 3
        assert f"{summary}:5: column 'n' is 70, but 60 on the first row" in capsys.readouterr().err

    def test_cli_scores_a_constant_n(self, tmp_path):
        assert score_summary(tmp_path, "60", "60.0", "60", "60")[1] == 0

    @pytest.mark.parametrize("n, rc", [("9007199254740991", 0), ("9007199254740992", 3),
                                       ("9007199254740993", 3), ("1e300", 3)])
    def test_cli_refuses_n_a_float64_cannot_hold(self, tmp_path, capsys, n, rc):
        # 2^53 + 1 reads as the float64 2^53: only n below 2^53 reads back exactly
        summary, got = score_summary(tmp_path, n, n, n, n)
        assert got == rc
        if rc:
            assert capsys.readouterr().err == (
                f"error: {summary}:2: column 'n' is 2^53 or more, which a float64 does "
                f"not hold exactly: {n!r}\n")


class TestTextThatIsNotUtf8:
    """A text input holding a byte that is not UTF-8 exits 3 naming its path,
    for each text reader: summary, phenotype and genotype tables, and configs."""

    def files(self, tmp_path):
        G = gen_genotypes(10, 5, seed=2)
        P = {k: str(tmp_path / k) for k in ("geno.xtg", "pheno.tsv", "summary.tsv")}
        io_files.write_genotype_bin(P["geno.xtg"], G)
        io_files.write_phenotype_tsv(P["pheno.tsv"], np.arange(10.0))
        io_files.write_summary_tsv(P["summary.tsv"], marginal_gwas(G, np.arange(10.0)))
        return P

    @staticmethod
    def spoiled(path, line):
        """``path`` with byte 0xff put at the start of its line ``line``."""
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
        lines[line - 1] = b"\xff" + lines[line - 1]
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines))
        return path

    @pytest.mark.parametrize("which, line", [("summary.tsv", 1), ("summary.tsv", 4),
                                             ("pheno.tsv", 5)])
    def test_table_refused(self, tmp_path, capsys, which, line):
        P = self.files(tmp_path)
        bad = self.spoiled(P[which], line)
        out = str(tmp_path / "out.tsv")
        argv = (["score", "--genotypes", P["geno.xtg"], "--summary", bad, "--out", out]
                if which == "summary.tsv" else
                ["gwas", "--genotypes", P["geno.xtg"], "--phenotype", bad, "--out", out])
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text (invalid start byte)\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("content", [bytes(range(256)), b"sample_id\trs1\ns1\t\xff\n"],
                             ids=["binary", "genotype_tsv"])
    def test_genotypes_refused(self, tmp_path, capsys, content):
        P = self.files(tmp_path)
        geno = tmp_path / "geno.bin"
        geno.write_bytes(content)
        out = str(tmp_path / "scores.tsv")
        assert main(["score", "--genotypes", str(geno), "--summary", P["summary.tsv"],
                     "--out", out]) == 3
        assert capsys.readouterr().err.startswith(f"error: {geno}: not UTF-8 text (")
        assert not os.path.exists(out)

    def test_config_refused(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(b"scenario=fig2_all_snp\n# \xff\np=40\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == f"error: {cfg}: not UTF-8 text (invalid start byte)\n"
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("table, j", [("replicates", 3), ("aggregates", 5)])
@pytest.mark.parametrize("bad", ["-1", "1.5", "nan", "inf"])
def test_count_columns_refuse_non_integers(tmp_path, table, j, bad):
    read, header, row, _ = TABLES[table]
    wrong = list(row)
    wrong[j] = bad
    path = write_lines(tmp_path, "\t".join(header), "\t".join(row), "", "\t".join(wrong), "")
    with raises_at(path, 4, f"column {header[j]!r} is not an integer >= 0: {bad!r}"):
        read(path)


class TestSummaryTsv:
    def test_round_trip_bit_exact(self, stats, tmp_path):
        path = str(tmp_path / "sum.tsv")
        io_files.write_summary_tsv(path, stats)
        back = io_files.read_summary_tsv(path)
        assert np.array_equal(back.effect, stats.effect)
        assert np.array_equal(back.se, stats.se)
        assert np.array_equal(back.tstat, stats.tstat)
        assert np.array_equal(back.pvalue, stats.pvalue)
        assert back.n == stats.n
        # a scan of a matrix without ids is written with the default ids
        assert stats.snp_id is None
        assert list(back.snp_id) == list(default_snp_ids(stats.p))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\n1\t2\n")
        with pytest.raises(DataFormatError, match=":1:"):
            io_files.read_summary_tsv(str(path))

    def test_n_written_as_a_float_reads_as_an_int(self, tmp_path):
        rows = [f"rs{j}\t0.5\t0.1\t5\t0.01\t{n}" for j, n in enumerate(["60.0", "60", "6e1"])]
        path = write_lines(tmp_path, "\t".join(io_files.SUMMARY_HEADER), *rows, "")
        n = io_files.read_summary_tsv(path).n
        assert n == 60 and type(n) is int

    def test_bad_number_reports_line(self, stats, tmp_path):
        path = tmp_path / "sum.tsv"
        io_files.write_summary_tsv(str(path), stats)
        lines = path.read_text().splitlines()
        lines[3] = "\t".join(["x", "oops", "1", "1", "0.5", "60"])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=":4:"):
            io_files.read_summary_tsv(str(path))


# summary ids of 1 to 40 characters: no tab or line end, no lone surrogate
# (not UTF-8), and no NUL, which a str array drops from the end of an id
SNP_IDS = st.text(st.characters(blacklist_categories=("Cs",),
                                blacklist_characters="\t\n\r\x00"), min_size=1, max_size=40)
TINY = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_summary_round_trip_bitwise_with_any_ids(data):
    """``write_summary_tsv`` then ``read_summary_tsv`` gives back every id and
    every bit: subnormals and signed zeros anywhere, infinities in ``se`` and
    ``tstat``, and p-values down to the least subnormal."""
    k = data.draw(st.integers(1, 30))
    column = lambda values: data.draw(st.lists(values, min_size=k, max_size=k))  # noqa: E731
    stats = SummaryStats(
        snp_id=np.array(data.draw(st.lists(SNP_IDS, min_size=k, max_size=k, unique=True))),
        effect=np.array(column(st.floats(allow_nan=False, allow_infinity=False)
                               | st.sampled_from(TINY))),
        se=np.array(column(st.floats(allow_nan=False) | st.sampled_from(TINY))),
        tstat=np.array(column(st.sampled_from([np.inf, -np.inf]) | st.floats(allow_nan=False))),
        pvalue=np.array(column(st.floats(min_value=5e-324, max_value=1.0)
                               | st.sampled_from([5e-324, 1.0]))),
        n=data.draw(st.integers(1, 2**53 - 1)))  # a float64 holds these exactly
    with tempfile.TemporaryDirectory() as d:
        io_files.write_summary_tsv(f"{d}/s.tsv", stats)
        back = io_files.read_summary_tsv(f"{d}/s.tsv")
    assert back.snp_id.dtype == stats.snp_id.dtype
    assert back.snp_id.tolist() == stats.snp_id.tolist()
    for f in ("effect", "se", "tstat", "pvalue"):
        assert np.array_equal(bits(getattr(back, f)), bits(getattr(stats, f)))
    assert back.n == stats.n


class TestReaderThroughCli:
    """What the table reader accepts and refuses, seen through ``score`` on a
    genotype TSV whose SNPs carry ids."""

    IDS = ["rs1", "rs2", "rs3", "rs4"]

    def score(self, tmp_path, edit=lambda lines: lines, ids=IDS):
        """Exit code and scores of ``score`` on a summary whose lines (with
        their ends) ``edit`` may change; ``ids`` name the SNPs of both files."""
        G = gen_genotypes(12, len(ids), seed=5)
        geno, out = str(tmp_path / "geno.tsv"), tmp_path / "scores.tsv"
        write_genotype_tsv(geno, G, ids)
        stats = SummaryStats(snp_id=np.array(ids), effect=np.array([0.5, -0.25, 1.5, 0.125]),
                             se=np.full(4, 0.1), tstat=np.array([5.0, -2.5, 15.0, 1.25]),
                             pvalue=np.array([1e-6, 0.01, 1e-40, 0.2]), n=2000)
        summary = tmp_path / "summary.tsv"
        io_files.write_summary_tsv(str(summary), stats)
        summary.write_bytes("".join(edit(summary.read_text().splitlines(True))).encode())
        rc = main(["score", "--genotypes", geno, "--summary", str(summary), "--out", str(out)])
        return rc, out.read_bytes() if out.exists() else None

    @pytest.mark.parametrize("edit", [
        lambda lines: [line.replace("\n", "\r\n") for line in lines],
        lambda lines: [lines[0], "\n", *(line + "\n" for line in lines[1:])],
        # a space on each side of every number; the id keeps none
        lambda lines: [lines[0], *(line.replace("\t", " \t ").replace(" \t ", "\t", 1)
                                   for line in lines[1:])],
        lambda lines: [lines[0], *(line.replace("\t2000\n", "\t2000.0\n") for line in lines[1:])],
    ], ids=["crlf_line_ends", "blank_lines_between_rows", "spaces_around_numbers",
            "n_written_as_a_float"])
    def test_accepted_edits_score_the_same_bytes(self, tmp_path, edit):
        plain = self.score(tmp_path)
        assert plain[0] == 0
        assert self.score(tmp_path, edit) == plain

    def test_ids_holding_hash_and_quote(self, tmp_path):
        # the ids sort as IDS do, so the score sums its SNPs in the same order
        ids = ['#rs1"', '#rs2"', '#rs3"', '#rs4"']
        plain = self.score(tmp_path)
        assert self.score(tmp_path, ids=ids) == plain
        assert io_files.read_summary_tsv(str(tmp_path / "summary.tsv")).snp_id.tolist() == ids

    def test_empty_body_exits_3_without_a_warning(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out = self.score(tmp_path, lambda lines: [lines[0], "\n", "\r\n"])
        assert (rc, out) == (3, None)
        assert f"{tmp_path / 'summary.tsv'}:2: no data rows" in capsys.readouterr().err

    def test_underscore_in_a_number_is_refused(self, tmp_path, capsys):
        """``float`` reads ``1_000`` as 1000; numpy's reader, and so a table,
        refuses it."""
        rc, out = self.score(tmp_path, lambda lines: [*lines[:3], lines[3].replace(
            "\t2000\n", "\t2_000\n"), *lines[4:]])
        assert (rc, out) == (3, None)
        assert (f"{tmp_path / 'summary.tsv'}:4: column 'n' is not a number: '2_000'"
                in capsys.readouterr().err)


# characters per written chunk (at most 128 give one row per chunk), which
# a read ignores: a few characters, a few rows, and the default
CHUNKS = st.sampled_from([1, 3, 7, 200, 300, 1000, io_files._TABLE_CHUNK_CHARS])


@st.composite
def summary_texts(draw):
    """A summary table of up to 40 rows, with blank lines anywhere, LF or CRLF
    line ends and perhaps no final newline, and perhaps one effect that is
    not a number.  Returns (bytes, effects, line of that effect or None)."""
    k = draw(st.integers(0, 40))
    effects = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                            min_size=k, max_size=k))
    bad = draw(st.none() | st.integers(0, k - 1)) if k else None
    lines, bad_line = ["\t".join(io_files.SUMMARY_HEADER)], None
    for j, e in enumerate(effects):
        lines += [""] * draw(st.integers(0, 2))
        if j == bad:
            bad_line = len(lines) + 1
        lines.append(f"rs{j}\t{'oops' if j == bad else io_files.fmt(e)}\t0.5\t-inf\t0.25\t60")
    lines += [""] * draw(st.integers(0, 2))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode(), effects, bad_line


class TestTableChunks:
    """A table is written one chunk at a time and read in one pass; the chunk
    size moves no value, no byte and no line number."""

    @given(summary_texts(), CHUNKS)
    @settings(max_examples=200, deadline=None)
    def test_read_at_any_chunk_size(self, table, chunk):
        data, effects, bad_line = table
        with tempfile.TemporaryDirectory() as d, \
                mock.patch.object(io_files, "_TABLE_CHUNK_CHARS", chunk):
            path = f"{d}/s.tsv"
            with open(path, "wb") as fh:
                fh.write(data)
            if bad_line is not None:
                with raises_at(path, bad_line, "column 'effect' is not a number: 'oops'"):
                    io_files.read_summary_tsv(path)
            elif not effects:
                with raises_at(path, 2, "no data rows"):
                    io_files.read_summary_tsv(path)
            else:
                back = io_files.read_summary_tsv(path)
                assert bitwise_equal(back.effect, effects)
                assert list(back.snp_id) == [f"rs{j}" for j in range(len(effects))]
                assert np.all(back.tstat == -np.inf) and back.n == 60

    @given(st.lists(doubles, min_size=1, max_size=40), CHUNKS)
    @settings(max_examples=100, deadline=None)
    def test_write_at_any_chunk_size_round_trips(self, xs, chunk):
        v = np.array(xs)
        finite = np.resize(np.append(v[np.isfinite(v)], 0.5), v.size)
        number = np.resize(np.append(v[~np.isnan(v)], 0.5), v.size)  # se and tstat
        stats = SummaryStats(snp_id=np.array([f"rs{j}" for j in range(v.size)]), effect=finite,
                             se=number, tstat=number[::-1].copy(), pvalue=np.full(v.size, 0.5),
                             n=9)
        rows = [ReplicateRow("s", "pt", "G", i, x, x, x, "ok") for i, x in enumerate(xs)]
        writes = ((io_files.write_summary_tsv, stats), (io_files.write_phenotype_tsv, finite),
                  (io_files.write_scores_tsv, v), (io_files.write_replicates_tsv, rows))
        with tempfile.TemporaryDirectory() as d:
            for i, (write, x) in enumerate(writes):
                write(f"{d}/{i}.tsv", x)
            with mock.patch.object(io_files, "_TABLE_CHUNK_CHARS", chunk):
                for i, (write, x) in enumerate(writes):
                    write(f"{d}/chunked.tsv", x)
                    assert (open(f"{d}/chunked.tsv", "rb").read()
                            == open(f"{d}/{i}.tsv", "rb").read())
                back = io_files.read_summary_tsv(f"{d}/0.tsv")
                for got, want in ((back.effect, finite), (back.se, number),
                                  (back.tstat, number[::-1])):
                    assert bitwise_equal(got, want)
                assert bitwise_equal(io_files.read_phenotype_tsv(f"{d}/1.tsv")[0], finite)

    def test_bad_field_in_a_late_default_chunk_names_its_line(self, tmp_path):
        # 80,000 rows of about 26 characters span eight chunks of 256 Ki
        rows = [f"rs{j}\t0.5\t0.1\t5\t0.01\t60" for j in range(80_000)]
        rows[78_000] = "rs78000\t0.5\t0.1\t5\t0.01\t6x"
        path = write_lines(tmp_path, "\t".join(io_files.SUMMARY_HEADER), *rows, "")
        assert len(open(path).read()) > 7 * io_files._TABLE_CHUNK_CHARS
        with raises_at(path, 78_002, "column 'n' is not a number: '6x'"):
            io_files.read_summary_tsv(path)


class TestTableMemory:
    """A table's writer holds one chunk of text and of field objects beside
    the columns, and its reader little more than the columns."""

    P = 20_000

    def summary(self):
        rng = np.random.default_rng(31)
        return SummaryStats(snp_id=np.array([f"rs{j}" for j in range(self.P)]),
                            effect=rng.standard_normal(self.P), se=rng.random(self.P),
                            tstat=rng.standard_normal(self.P),
                            pvalue=rng.random(self.P) + 1e-12, n=2000)

    def test_write_summary_below_200_bytes_per_snp(self, tmp_path):
        stats = self.summary()
        path = str(tmp_path / "s.tsv")
        assert traced_peak(lambda: io_files.write_summary_tsv(path, stats)) < 200 * self.P

    def test_read_summary_below_300_bytes_per_snp(self, tmp_path):
        path = str(tmp_path / "s.tsv")
        io_files.write_summary_tsv(path, self.summary())
        assert traced_peak(lambda: io_files.read_summary_tsv(path)) < 300 * self.P

    def test_read_summary_ids_as_str_array_below_190_bytes_per_snp(self, tmp_path):
        """The ``snp_id`` column is a str array, its str objects freed before
        the number columns are copied; the ids read back with the writer's
        dtype."""
        stats = self.summary()
        path = str(tmp_path / "s.tsv")
        io_files.write_summary_tsv(path, stats)
        assert traced_peak(lambda: io_files.read_summary_tsv(path)) < 190 * self.P
        ids = io_files.read_summary_tsv(path).snp_id
        assert ids.dtype == stats.snp_id.dtype and np.array_equal(ids, stats.snp_id)

    def test_positional_write_formats_ids_below_40_bytes_per_snp(self, tmp_path):
        """A summary without ids is written with the default ids formatted
        from the row index: no array of p ids is built."""
        stats = self.summary()
        stats.snp_id = None
        default_snp_ids.cache_clear()
        path = str(tmp_path / "s.tsv")
        assert traced_peak(lambda: io_files.write_summary_tsv(path, stats)) < 40 * self.P

    @pytest.mark.parametrize("argv", [
        ["gwas", "--genotypes", "{geno}", "--phenotype", "{pheno}", "--out", "{out}"],
        ["score", "--genotypes", "{geno}", "--summary", "{summary}", "--out", "{out}"],
        ["score", "--genotypes", "{geno}", "--summary", "{summary}", "--rule", "pvalue",
         "--cutoff", "0.05", "--out", "{out}"],
    ], ids=["gwas", "score", "score_pvalue"])
    def test_cli_commands_below_1_25_unpacked_codes(self, container_400x20000, argv):
        """A whole command, its TSVs included, peaks below 1.25 times the
        n * p bytes of its unpacked codes."""
        n, p, paths = container_400x20000
        argv = [a.format(**paths) for a in argv]
        assert traced_peak(lambda: main(argv) == 0 or pytest.fail("command failed")) \
            < 1.25 * n * p


NAMED = ["alice", "bob", "carol", "dave", "erin", "frank"]


class TestRepeatedIds:
    """A repeated SNP or sample id is a data error naming it and both of its
    lines (or columns, in a genotype header)."""

    def genotype_tsv(self, tmp_path, snp_ids, sample_ids):
        G = gen_genotypes(len(sample_ids), len(snp_ids), seed=3)
        path = str(tmp_path / "geno.tsv")
        write_genotype_tsv(path, G, snp_ids, sample_ids)
        return path

    def gwas(self, tmp_path, geno, pheno_ids):
        pheno = str(tmp_path / "pheno.tsv")
        io_files.write_phenotype_tsv(pheno, np.linspace(-1.0, 1.0, len(pheno_ids)), pheno_ids)
        return main(["gwas", "--genotypes", geno, "--phenotype", pheno,
                     "--out", str(tmp_path / "summary.tsv")]), pheno

    @pytest.mark.parametrize("command", ["score", "estimate"])
    def test_cli_refuses_repeated_summary_snp_id(self, tmp_path, capsys, command):
        snps = [f"rs{j}" for j in range(8)]
        geno = self.genotype_tsv(tmp_path, snps, NAMED)
        stats = marginal_gwas(io_files.read_genotypes(geno), np.arange(6.0))
        stats.snp_id = np.array(snps[:6] + ["rs2"] + snps[7:])
        summary = str(tmp_path / "summary.tsv")
        io_files.write_summary_tsv(summary, stats)
        if command == "score":
            argv = ["score", "--genotypes", geno, "--summary", summary,
                    "--out", str(tmp_path / "scores.tsv")]
        else:
            argv = ["estimate", "--case", "summary-ab", "--summary-a", summary,
                    "--summary-b", summary, "--n1", "6", "--n2", "6", "--p", "8",
                    "--h2a", "1", "--h2b", "1"]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {summary}:8: snp_id 'rs2' repeats line 4\n"
        assert not (tmp_path / "scores.tsv").exists()

    def test_cli_refuses_repeated_genotype_snp_id(self, tmp_path, capsys):
        geno = self.genotype_tsv(tmp_path, ["rs0", "rs1", "rs2", "rs1", "rs1"], NAMED)
        rc, _ = self.gwas(tmp_path, geno, NAMED)
        assert rc == 3
        assert capsys.readouterr().err == f"error: {geno}:1: SNP id 'rs1' heads columns 3 and 5\n"
        assert not (tmp_path / "summary.tsv").exists()

    def test_cli_refuses_repeated_genotype_sample_id(self, tmp_path, capsys):
        samples = ["alice", "bob", "carol", "bob", "erin", "alice"]
        geno = self.genotype_tsv(tmp_path, [f"rs{j}" for j in range(4)], samples)
        rc, _ = self.gwas(tmp_path, geno, samples)
        assert rc == 3
        assert capsys.readouterr().err == f"error: {geno}:5: sample_id 'bob' repeats line 3\n"

    def test_cli_refuses_repeated_phenotype_sample_id(self, tmp_path, capsys):
        geno = self.genotype_tsv(tmp_path, [f"rs{j}" for j in range(4)], NAMED)
        rc, pheno = self.gwas(tmp_path, geno, NAMED[:5] + ["carol"])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {pheno}:7: sample_id 'carol' repeats line 4\n"
        assert not (tmp_path / "summary.tsv").exists()

    def test_distinct_ids_that_sort_together_are_accepted(self):
        assert io_files._repeat(np.array(["b", "a", "ab", "a "])) is None
        assert io_files._repeat(np.array(["x", "y", "y", "x"])) == (1, 2)


def shift_unpack(packed, p):
    """Reference 2-bit decoder: shift and mask each of the four fields."""
    fields = (packed[:, :, None] >> np.array([0, 2, 4, 6], dtype=np.uint8)) & 3
    return fields.reshape(packed.shape[0], -1)[:, :p].astype(np.uint8)


def weighted_sum_pack(codes):
    """Reference 2-bit encoder: pad to a multiple of four columns, weight the
    four codes of each byte by 1, 4, 16 and 64, and sum."""
    n, p = codes.shape
    p_pad = -(-p // 4) * 4
    padded = np.zeros((n, p_pad), dtype=np.uint8)
    padded[:, :p] = codes
    grouped = padded.reshape(n, p_pad // 4, 4)
    weights = np.array([1, 4, 16, 64], dtype=np.uint8)
    return (grouped * weights).sum(axis=2, dtype=np.uint16).astype(np.uint8)


def container_oracle(G):
    """The bytes of a container of ``G``, built in one piece."""
    return b"".join([io_files.GENO_MAGIC,
                     np.array([io_files.GENO_VERSION], "<u4").tobytes(),
                     np.array([G.n, G.p], "<u8").tobytes(),
                     weighted_sum_pack(np.asarray(G.codes)).tobytes(),
                     *(np.asarray(v, "<i8").tobytes() for v in (G.code_sum, G.twos))])


class TestGenotypeContainers:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 13),
           st.sampled_from(["C", "F", "strided"]))
    @settings(max_examples=100, deadline=None)
    def test_pack_equals_weighted_sum(self, seed, n, p, layout):
        rng = np.random.default_rng(seed)
        if layout == "strided":
            codes = rng.integers(0, 3, size=(n, 2 * p), dtype=np.uint8)[:, ::2]
        else:
            codes = np.asarray(rng.integers(0, 3, size=(n, p), dtype=np.uint8), order=layout)
        got = io_files.pack_codes(codes)
        assert got.dtype == np.uint8 and got.flags.c_contiguous
        assert np.array_equal(got, weighted_sum_pack(codes))

    # n = 7 is not a multiple of a tile of 3 rows; the default tile holds all
    @pytest.mark.parametrize("tile_rows", [1, 3, None])
    def test_container_bytes_equal_one_piece_oracle(self, tmp_path, tile_rows):
        G = gen_genotypes(7, 13, seed=8)
        path = tmp_path / "geno.xtg"
        tile = io_files._UNPACK_TILE_BYTES if tile_rows is None else tile_rows * G.p
        with mock.patch.object(io_files, "_UNPACK_TILE_BYTES", tile):
            io_files.write_genotype_bin(str(path), G)
            first = path.read_bytes()
            # a container read back holds PackedCodes, decoded tile by tile
            again = tmp_path / "again.xtg"
            io_files.write_genotype_bin(str(again), io_files.read_genotype_bin(str(path)))
        assert first == container_oracle(G)
        assert again.read_bytes() == first

    def test_writer_holds_a_tile_beside_the_codes(self, tmp_path):
        G = gen_genotypes(2000, 12000, seed=12)
        path = str(tmp_path / "geno.xtg")
        assert traced_peak(lambda: io_files.write_genotype_bin(path, G)) < 1 << 20

    @pytest.mark.parametrize("bad", [3, 4, 255])
    def test_writer_refuses_codes_outside_0_1_2(self, tmp_path, bad):
        G = gen_genotypes(9, 6, seed=13)
        codes = G.codes.copy()
        codes[8, 5] = bad
        path = tmp_path / "geno.xtg"
        with mock.patch.object(io_files, "_UNPACK_TILE_BYTES", 2 * G.p):
            with pytest.raises(ParameterError, match=f"genotype code {bad} is not in"):
                io_files.write_genotype_bin(
                    str(path), GenotypeMatrix.from_counts(codes, G.code_sum, G.twos))
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    @given(st.integers(0, 10**6), st.integers(1, 9), st.integers(2, 12))
    @settings(max_examples=30, deadline=None)
    def test_pack_unpack_property(self, seed, p, n):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 3, size=(n, p), dtype=np.uint8)
        assert np.array_equal(io_files.unpack_codes(io_files.pack_codes(codes), p), codes)

    # p % 8 in 0..7 gives rows of an odd and an even number of bytes
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7, 8, 400, 401, 402, 403, 404, 405, 406, 407])
    def test_unpack_matches_shift_decoder(self, p):
        packed = np.random.default_rng(p).integers(0, 256, size=(9, -(-p // 4)), dtype=np.uint8)
        got = io_files.unpack_codes(packed, p)
        assert got.dtype == np.uint8 and got.flags.c_contiguous
        assert np.array_equal(got, shift_unpack(packed, p))

    def test_unpack_every_byte_value(self):
        packed = np.arange(256, dtype=np.uint8).reshape(4, 64)
        assert np.array_equal(io_files.unpack_codes(packed, 256), shift_unpack(packed, 256))

    def test_unpack_every_byte_pair(self):
        # every little-endian pair once, 256 pairs a row; 300 rows of 256 pairs
        # leave a part-filled last tile
        packed = np.arange(65536, dtype="<u2").view(np.uint8).reshape(256, 512)
        packed = np.vstack([packed, packed[:44]])
        assert np.array_equal(io_files.unpack_codes(packed, 2048), shift_unpack(packed, 2048))
        odd = packed[:, :511]
        assert np.array_equal(io_files.unpack_codes(odd, 2043), shift_unpack(odd, 2043))

    def test_corrupt_code_in_last_byte_of_odd_row_rejected(self, tmp_path):
        G = gen_genotypes(6, 9, seed=4)  # 3 bytes per row
        path = tmp_path / "geno.xtg"
        io_files.write_genotype_bin(str(path), G)
        data = bytearray(path.read_bytes())
        data[24 + 2 * 3 + 2] |= 0b11  # code 8 (the last) of the third row becomes 3
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="value 3"):
            io_files.read_genotype_bin(str(path))

    def test_corrupt_code_rejected(self, tmp_path):
        G = gen_genotypes(6, 5, seed=4)
        path = tmp_path / "geno.xtg"
        io_files.write_genotype_bin(str(path), G)
        data = bytearray(path.read_bytes())
        data[24] |= 0b11  # first code of the first row becomes 3
        path.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="value 3"):
            io_files.read_genotype_bin(str(path))

    def test_binary_round_trip_bit_exact(self, tmp_path):
        G = gen_genotypes(37, 23, seed=5)
        path = str(tmp_path / "geno.xtg")
        io_files.write_genotype_bin(path, G)
        back = io_files.read_genotype_bin(path)
        assert np.array_equal(back.codes, G.codes)
        assert np.array_equal(back.code_sum, G.code_sum) and np.array_equal(back.twos, G.twos)
        # a container stores no MAFs: a read gives the sample estimate
        assert np.array_equal(back.maf, np.minimum(G.col_mean / 2, 1 - G.col_mean / 2))
        assert np.array_equal(back.col_mean, G.col_mean)
        assert np.array_equal(back.col_sd, G.col_sd)

    def test_tsv_round_trip(self, tmp_path):
        G = gen_genotypes(10, 6, seed=6)
        path = str(tmp_path / "geno.tsv")
        ids = [f"rs{j}" for j in range(G.p)]
        write_genotype_tsv(path, G, ids)
        back = io_files.read_genotype_tsv(path)
        assert np.array_equal(back.codes, G.codes)
        assert list(back.snp_ids) == ids
        assert list(back.sample_ids) == [f"sample{i:07d}" for i in range(G.n)]
        xtg = str(tmp_path / "geno.xtg")
        io_files.write_genotype_bin(xtg, G)
        assert io_files.read_genotypes(xtg).sample_ids is None

    def test_dispatch_on_magic(self, tmp_path):
        G = gen_genotypes(8, 4, seed=7)
        b = str(tmp_path / "geno.bin")
        t = str(tmp_path / "geno.tsv")
        io_files.write_genotype_bin(b, G)
        write_genotype_tsv(t, G, [f"rs{j}" for j in range(G.p)])
        assert np.array_equal(io_files.read_genotypes(b).codes, G.codes)
        assert np.array_equal(io_files.read_genotypes(t).codes, G.codes)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(DataFormatError):
            io_files.read_genotype_bin(str(path))

    def test_truncated_container(self, tmp_path):
        G = gen_genotypes(10, 6, seed=9)
        path = tmp_path / "geno.bin"
        io_files.write_genotype_bin(str(path), G)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(DataFormatError, match="expected"):
            io_files.read_genotype_bin(str(path))

    def test_tsv_code_out_of_range(self, tmp_path):
        path = tmp_path / "geno.tsv"
        path.write_text("sample_id\ts1\nsample0\t3\n")
        with pytest.raises(DataFormatError):
            io_files.read_genotype_tsv(str(path))

    @pytest.mark.parametrize("bad", ["-1", "256", "3", "10000000000000000000000"])
    def test_cli_refuses_tsv_code_outside_0_1_2(self, tmp_path, capsys, bad):
        geno = write_lines(tmp_path, "sample_id\trs1\trs2", "a\t0\t1", "", "b\t1\t2",
                           f"c\t2\t{bad}", "d\t0\t0", "")
        pheno = str(tmp_path / "pheno.tsv")
        io_files.write_phenotype_tsv(pheno, np.arange(4.0), ["a", "b", "c", "d"])
        rc = main(["gwas", "--genotypes", geno, "--phenotype", pheno,
                   "--out", str(tmp_path / "summary.tsv")])
        assert rc == 3
        assert capsys.readouterr().err == (f"error: {geno}:5: genotype code {bad} "
                                           "is not in {0,1,2}\n")

    def test_tsv_non_integer_code_names_its_line(self, tmp_path):
        path = write_lines(tmp_path, "sample_id\trs1", "a\t1", "b\t1.5", "")
        with raises_at(path, 3, "non-integer genotype code"):
            io_files.read_genotype_tsv(path)

    def test_tsv_reader_holds_about_two_code_matrices(self, tmp_path):
        """The codes are parsed line by line into one uint8 matrix; its column
        statistics count the 2s through a mask of a few hundred columns at a
        time, so the peak stays below two code matrices."""
        n, p = 500, 1000
        G = gen_genotypes(n, p, seed=11)
        path = str(tmp_path / "geno.tsv")
        write_genotype_tsv(path, G, [f"rs{j}" for j in range(p)])
        del G
        tracemalloc.start()
        try:
            io_files.read_genotype_tsv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.0 * n * p


@st.composite
def packed_reads(draw):
    """A code matrix (as n, p and a seed), a column range [a, b) and a list of
    column indices, sorted or not, with repeats."""
    n, p = draw(st.integers(1, 9)), draw(st.integers(1, 41))
    a = draw(st.integers(0, p - 1))
    b = draw(st.integers(a, p))
    cols = draw(st.lists(st.integers(0, p - 1), max_size=3 * p))
    if draw(st.booleans()):
        cols.sort()
    return n, p, draw(st.integers(0, 2**32 - 1)), a, b, cols


def bitwise_equal(u, v):
    return np.array_equal(bits(u), bits(v))


@st.composite
def streamed_reads(draw):
    """A code matrix (as n, p and a seed) of 1 to 40 rows, a column range
    [a, b) and a list of column indices, sorted or not, with repeats."""
    n, p = draw(st.integers(1, 40)), draw(st.sampled_from([1, 2, 5, 13, 2049]))
    a = draw(st.integers(0, p - 1))
    b = draw(st.integers(a + 1, p))
    cols = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=30))
    if draw(st.booleans()):
        cols.sort()
    return n, p, draw(st.integers(0, 2**32 - 1)), a, b, cols


def write_container_of_packed(path, packed, p, counts=None):
    """A container of the packed codes ``packed``, written in one piece, with
    the stored code sums and counts of 2s ``counts``; by default code sums
    n // 2 and no 2s: mean and SD 0.5 for an even n, as random codes in
    {0, 1} have on average."""
    n = packed.shape[0]
    code_sum, twos = (np.full(p, n // 2), np.zeros(p)) if counts is None else counts
    with open(path, "wb") as fh:
        fh.write(io_files.GENO_MAGIC + np.array([io_files.GENO_VERSION], "<u4").tobytes()
                 + np.array([n, p], "<u8").tobytes() + packed.tobytes())
        for v in (code_sum, twos):
            fh.write(np.asarray(v, "<i8").tobytes())


class TestPackedCodes:
    """A container's codes stay in the file and are read one row tile at a
    time; the kernels decode the blocks of a tile they read."""

    @given(packed_reads())
    @settings(max_examples=200, deadline=None)
    def test_reads_equal_the_dense_codes(self, case):
        n, p, seed, a, b, cols = case
        codes = np.random.default_rng(seed).integers(0, 3, size=(n, p), dtype=np.uint8)
        src = io_files.PackedCodes(io_files.pack_codes(codes), p)
        assert src.shape == codes.shape
        for got, want in ((src[:, a:b], codes[:, a:b]), (src[:, a:a + 1], codes[:, a:a + 1]),
                          (src.take(cols, axis=1), codes.take(cols, axis=1)),
                          (np.asarray(src), codes)):
            assert got.dtype == np.uint8
            assert np.array_equal(got, want)
        # blocks of 3 start at every residue mod 4; a contiguous run from a
        # is read as one range, a scattered list with take
        mean, sd = kernels.column_stats(codes)
        sd = np.where(sd > 0.0, sd, 1.0)
        y = np.random.default_rng(seed + 1).standard_normal(n)
        for block in (3, 2048):
            assert bitwise_equal(kernels.std_crossprod(src, mean, sd, y, block_size=block),
                                 kernels.std_crossprod(codes, mean, sd, y, block_size=block))
            for idx in (np.arange(a, max(a + 1, b)), np.array(cols or [a], dtype=np.intp)):
                w = np.random.default_rng(seed + 2).standard_normal((idx.size, 2))
                assert bitwise_equal(
                    kernels.std_matvec(src, mean, sd, w, indices=idx, block_size=block),
                    kernels.std_matvec(codes, mean, sd, w, indices=idx, block_size=block))

    def test_reads_outside_the_two_kernel_reads_are_refused(self):
        src = io_files.PackedCodes(io_files.pack_codes(np.ones((2, 5), dtype=np.uint8)), 5)
        for key in ((0, slice(None)), (slice(None), 3), (slice(None), slice(0, 4, 2))):
            with pytest.raises(TypeError):
                src[key]
        for cols in ([5], [-1]):
            with pytest.raises(IndexError):
                src.take(cols, axis=1)

    @given(streamed_reads())
    @settings(max_examples=40, deadline=None)
    def test_streamed_kernels_are_bitwise_those_in_memory(self, case):
        """A container read one row tile at a time gives the bits of its codes
        as one array, at tiles of 1 row, 3 rows and the default; p = 2049
        ends in a single-column block, as p = 13 does at blocks of 3."""
        n, p, seed, a, b, cols = case
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 3, size=(n, p), dtype=np.uint8)
        mean, sd = kernels.column_stats(codes)
        sd = np.where(sd > 0.0, sd, 1.0)
        y = rng.standard_normal(n)
        reads = [(idx, rng.standard_normal((idx.size, 2)))
                 for idx in (np.arange(a, b), np.array(cols, dtype=np.intp))]
        row_bytes = -(-p // 4)
        with tempfile.TemporaryDirectory() as d:
            # the codes may hold 1 row or constant columns, which a read
            # refuses, so the file's codes are served without one
            path = os.path.join(d, "geno.xtg")
            write_container_of_packed(path, io_files.pack_codes(codes), p)
            with open(path, "rb") as fh:
                stamp = io_files._stamp(fh)
            for tile in (row_bytes, 3 * row_bytes, io_files._UNPACK_TILE_BYTES):
                with mock.patch.object(io_files, "_UNPACK_TILE_BYTES", tile):
                    src = io_files.ContainerCodes(path, n, p, stamp)
                    for block in (3, kernels.DEFAULT_BLOCK_SIZE):
                        assert bitwise_equal(
                            kernels.std_crossprod(src, mean, sd, y, block_size=block),
                            kernels.std_crossprod(codes, mean, sd, y, block_size=block))
                        for idx, w in reads:
                            for weights in (w[:, 0], w):
                                assert bitwise_equal(
                                    kernels.std_matvec(src, mean, sd, weights, indices=idx,
                                                       block_size=block),
                                    kernels.std_matvec(codes, mean, sd, weights, indices=idx,
                                                       block_size=block))

    def test_gwas_and_score_are_bitwise_those_of_the_codes_in_memory(self, tmp_path):
        # p = 4101 spans three column blocks of 2048, the last of 5 columns
        G = gen_genotypes(50, 4101, seed=21)
        path = str(tmp_path / "geno.xtg")
        io_files.write_genotype_bin(path, G)
        F = io_files.read_genotypes(path)
        assert isinstance(F.codes, io_files.ContainerCodes)
        y = np.random.default_rng(22).standard_normal(50)
        mem, file = marginal_gwas(G, y), marginal_gwas(F, y)
        for f in ("effect", "se", "tstat", "pvalue"):
            assert bitwise_equal(getattr(file, f), getattr(mem, f))
        for rule in (prs.RULE_NONE, prs.ScreenRule("pvalue_cutoff", 0.3),
                     prs.ScreenRule("effect_cutoff", 0.1)):
            assert bitwise_equal(prs.score(F, mem, rule).scores, prs.score(G, mem, rule).scores)

    # what reading a container and scanning or scoring it holds at p = 20,000,
    # whatever n is: one row tile of about 512 KiB of packed codes, one decoded
    # block of it, the decoder's tiles and a few float64 vectors of length p
    STREAM_PEAK = 4 << 20

    def test_gwas_and_screened_score_hold_less_than_the_unpacked_codes(
            self, container_400x20000):
        """Reading a container and scanning or scoring it peaks below
        ``STREAM_PEAK``, half the n * p bytes of its unpacked codes; the TSV
        inputs are read before tracing starts (``TestTableMemory`` traces
        whole commands)."""
        n, p, paths = container_400x20000
        y, _ = io_files.read_phenotype_tsv(paths["pheno"])
        stats = io_files.read_summary_tsv(paths["summary"])
        rule = prs.ScreenRule("pvalue_cutoff", 0.05)
        for run in (lambda: marginal_gwas(io_files.read_genotypes(paths["geno"]), y),
                    lambda: prs.score(io_files.read_genotypes(paths["geno"]), stats, rule)):
            assert traced_peak(run) < self.STREAM_PEAK

    @pytest.mark.parametrize("n", [400, 4000])
    def test_gwas_and_screened_score_peak_does_not_grow_with_n(self, tmp_path, n):
        """The same bound at n = 400 and n = 4,000: 0.4 and 4 times the
        n * p / 4 bytes of the packed codes."""
        p = 20_000
        rng = np.random.default_rng(n)
        path = str(tmp_path / "geno.xtg")
        write_container_of_packed(path, rng.integers(0, 256, (n, p // 4), dtype=np.uint8) & 0x55, p)
        y = rng.standard_normal(n)
        stats = SummaryStats(snp_id=None, effect=rng.standard_normal(p) / n, se=np.ones(p),
                             tstat=np.ones(p), pvalue=rng.random(p) + 1e-12, n=n)
        rule = prs.ScreenRule("pvalue_cutoff", 0.05)
        for run in (lambda: marginal_gwas(io_files.read_genotypes(path), y),
                    lambda: prs.score(io_files.read_genotypes(path), stats, rule)):
            assert traced_peak(run) < self.STREAM_PEAK

    def test_score_holds_one_decoded_block(self, tmp_path):
        """``std_matvec`` on a container holds one decoded block of one row
        tile (104 rows of DEFAULT_BLOCK_SIZE codes at p = 20,000) beside the
        tile, plus the decoder's tiles and a few float64 vectors of length p:
        not a block of all n rows, and never two blocks."""
        n, p = 2000, 20_000
        path = str(tmp_path / "geno.xtg")
        # random codes in {0, 1}
        packed = np.random.default_rng(7).integers(0, 256, (n, p // 4), dtype=np.uint8) & 0x55
        write_container_of_packed(path, packed, p)
        src = io_files.read_genotype_bin(path).codes
        ones, w = np.ones(p), np.random.default_rng(8).standard_normal(p)
        assert traced_peak(lambda: kernels.std_matvec(src, ones, ones, w)) < 3 << 20

    @pytest.mark.parametrize("change", ["code_3", "truncated"])
    def test_container_changed_after_it_was_read_exits_3(self, tmp_path, capsys, change):
        """A container rewritten between its read (which checks its codes)
        and the score is refused, not decoded; nothing is written."""
        G = gen_genotypes(8, 10, seed=4)
        geno = tmp_path / "geno.xtg"
        io_files.write_genotype_bin(str(geno), G)
        summary = tmp_path / "summary.tsv"
        io_files.write_summary_tsv(str(summary), marginal_gwas(G, np.arange(8.0)))
        read = io_files.read_genotypes

        def read_then_change(path):
            F = read(path)
            data = bytearray(geno.read_bytes())
            if change == "code_3":
                data[24] |= 0b11  # first code of the first row becomes 3
                (tmp_path / "new.xtg").write_bytes(bytes(data))
                os.replace(tmp_path / "new.xtg", geno)
            else:
                geno.write_bytes(bytes(data[:-5]))
            return F

        with mock.patch.object(io_files, "read_genotypes", read_then_change):
            rc = main(["score", "--genotypes", str(geno), "--summary", str(summary),
                       "--out", str(tmp_path / "scores.tsv")])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {geno}: container changed since it was read\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["geno.xtg", "summary.tsv"]

    def test_code_3_in_a_column_the_screen_drops_exits_3(self, tmp_path, capsys):
        G = gen_genotypes(8, 10, seed=4)  # 3 bytes per row
        geno = tmp_path / "geno.xtg"
        io_files.write_genotype_bin(str(geno), G)
        data = bytearray(geno.read_bytes())
        data[24 + 2 * 3 + 2] |= 0b11  # column 8 of the third row becomes 3
        geno.write_bytes(bytes(data))
        stats = marginal_gwas(G, np.random.default_rng(5).standard_normal(8))
        stats.pvalue = np.full(10, 1e-3)
        stats.pvalue[8] = 1.0
        summary = str(tmp_path / "summary.tsv")
        io_files.write_summary_tsv(summary, stats)
        rc = main(["score", "--genotypes", str(geno), "--summary", summary, "--rule", "pvalue",
                   "--cutoff", "0.05", "--out", str(tmp_path / "scores.tsv")])
        assert rc == 3
        assert "corrupt codes (value 3 present)" in capsys.readouterr().err

    def test_code_3_in_the_padding_is_ignored(self, tmp_path):
        G = gen_genotypes(8, 9, seed=4)  # the last byte of a row holds 1 code
        path = tmp_path / "geno.xtg"
        io_files.write_genotype_bin(str(path), G)
        data = bytearray(path.read_bytes())
        for row in range(8):
            data[24 + 3 * row + 2] |= 0b11111100
        path.write_bytes(bytes(data))
        assert np.array_equal(io_files.read_genotype_bin(str(path)).codes, G.codes)


class TestDegenerateGenotypes:
    """Genotypes whose statistics cannot be formed are refused when they are
    read (exit 3), naming the file and, where there is one, the SNP; no
    output is written."""

    def run(self, tmp_path, command, geno, n, p):
        pheno = str(tmp_path / "pheno.tsv")
        io_files.write_phenotype_tsv(pheno, np.arange(float(max(n, 1))))
        summary = str(tmp_path / "summary.tsv")
        io_files.write_summary_tsv(summary, SummaryStats(
            snp_id=None, effect=np.ones(max(p, 1)), se=np.ones(max(p, 1)),
            tstat=np.ones(max(p, 1)), pvalue=np.full(max(p, 1), 0.5), n=10))
        out = tmp_path / "out.tsv"
        inputs = {"gwas": ["--phenotype", pheno], "score": ["--summary", summary]}[command]
        rc = main([command, "--genotypes", geno, *inputs, "--out", str(out)])
        assert not out.exists()
        return rc

    @pytest.mark.parametrize("n, p, command, message", [
        (0, 5, "score", "need at least 2 samples, got 0"),
        (1, 5, "gwas", "need at least 2 samples, got 1"),
        (4, 0, "gwas", "no SNPs"),
    ])
    def test_container_without_samples_or_snps(self, tmp_path, capsys, n, p, command, message):
        geno = str(tmp_path / "geno.xtg")
        write_container_of_packed(geno, np.zeros((n, -(-p // 4)), dtype=np.uint8), p)
        assert self.run(tmp_path, command, geno, n, p) == 3
        assert capsys.readouterr().err == f"error: {geno}: {message}\n"

    def test_container_without_snps_is_refused_before_its_rows_are_read(self, tmp_path):
        # with p = 0 a row takes 0 bytes, so a 24-byte file may claim any n;
        # walking its row tiles would take n / 2^19 reads
        geno = tmp_path / "geno.xtg"
        geno.write_bytes(io_files.GENO_MAGIC + np.array([io_files.GENO_VERSION], "<u4").tobytes()
                         + np.array([2**36, 0], "<u8").tobytes())
        with pytest.raises(DataFormatError, match="no SNPs"):
            io_files.read_genotype_bin(str(geno))

    @pytest.mark.parametrize("command", ["gwas", "score"])
    @pytest.mark.parametrize("code", [0, 2])
    def test_container_with_a_constant_snp(self, tmp_path, capsys, command, code):
        codes = gen_genotypes(20, 9, seed=3).codes.copy()
        codes[:, 6] = code
        geno = str(tmp_path / "geno.xtg")
        write_container_of_packed(geno, io_files.pack_codes(codes), 9,
                                  kernels.column_counts(codes))
        assert self.run(tmp_path, command, geno, 20, 9) == 3
        assert capsys.readouterr().err == (
            f"error: {geno}: SNP 'snp0000006' is monomorphic: all 20 codes are {code}\n")

    def test_tsv_without_snp_columns(self, tmp_path, capsys):
        geno = write_lines(tmp_path, "sample_id", "a", "b", "c", "")
        assert self.run(tmp_path, "gwas", geno, 3, 0) == 3
        assert capsys.readouterr().err == f"error: {geno}: no SNPs\n"

    def test_tsv_with_a_constant_column(self, tmp_path, capsys):
        geno = write_lines(tmp_path, "sample_id\trs1\trs2\trs3", "a\t0\t1\t2", "b\t1\t1\t0",
                           "c\t2\t1\t1", "")
        assert self.run(tmp_path, "gwas", geno, 3, 3) == 3
        assert capsys.readouterr().err == (
            f"error: {geno}: SNP 'rs2' is monomorphic: all 3 codes are 1\n")

    @pytest.mark.parametrize("field", [0, 1], ids=["code_sum", "twos"])
    def test_stored_count_times_10(self, tmp_path, capsys, field):
        """SNP 0 of the digest fixture (seed 18, n = 120, p = 481), its stored
        code sum or count of 2s multiplied by 10: no 120 codes give them."""
        n, p = 120, 481
        arch = TraitArchitecture.shared_causal(p, 60, phi=0.5, h2=0.5, traits=("alpha", "eta"))
        G = gen_independent_cohorts(arch, CohortSizes(n1=n), seed=18,
                                    traits=("alpha", "eta")).disc_alpha
        geno = tmp_path / "geno.xtg"
        io_files.write_genotype_bin(str(geno), G)
        data = bytearray(geno.read_bytes())
        at = 24 + n * -(-p // 4) + field * 8 * p
        counts = [int(G.code_sum[0]), int(G.twos[0])]
        counts[field] *= 10
        data[at:at + 8] = np.array(counts[field], "<i8").tobytes()
        geno.write_bytes(bytes(data))
        assert self.run(tmp_path, "gwas", str(geno), n, p) == 3
        assert capsys.readouterr().err == (
            f"error: {geno}: SNP 'snp0000000' has code sum {counts[0]} and {counts[1]} codes "
            f"of 2, which no {n} codes in {{0,1,2}} give\n")

    @pytest.mark.parametrize("code_sum, twos", [(-1, 0), (3, -1), (4, 3), (30, 5)])
    def test_impossible_counts(self, tmp_path, capsys, code_sum, twos):
        # n = 20: a negative count, more 2s than half the code sum, or more
        # non-zero codes (code sum minus 2s) than samples
        codes = gen_genotypes(20, 3, seed=5).codes
        s, t = kernels.column_counts(codes)
        s[1], t[1] = code_sum, twos
        geno = str(tmp_path / "geno.xtg")
        write_container_of_packed(geno, io_files.pack_codes(codes), 3, (s, t))
        assert self.run(tmp_path, "score", geno, 20, 3) == 3
        assert capsys.readouterr().err == (
            f"error: {geno}: SNP 'snp0000001' has code sum {code_sum} and {twos} codes of 2, "
            "which no 20 codes in {0,1,2} give\n")

    def test_version_1_container(self, tmp_path, capsys):
        """A container of the first layout, which stored float64 MAFs, means
        and SDs in place of the counts, is refused."""
        G = gen_genotypes(8, 5, seed=2)
        geno = tmp_path / "geno.xtg"
        geno.write_bytes(b"".join([
            io_files.GENO_MAGIC, np.array([1], "<u4").tobytes(), np.array([8, 5], "<u8").tobytes(),
            io_files.pack_codes(G.codes).tobytes(),
            *(np.asarray(v, "<f8").tobytes() for v in (G.maf, G.col_mean, G.col_sd))]))
        assert self.run(tmp_path, "gwas", str(geno), 8, 5) == 3
        assert capsys.readouterr().err == f"error: {geno}: unsupported container version 1\n"


class TestScoresAndPhenotypes:
    def test_scores_round_trip(self, tmp_path):
        vals = np.array([1.5, -2.25, 1e-17, 3.141592653589793])
        path = str(tmp_path / "scores.tsv")
        io_files.write_scores_tsv(path, vals)
        back, ids = read_scores(path)
        assert np.array_equal(back, vals)
        assert ids[0] == "sample0000000"

    def test_phenotype_round_trip(self, tmp_path):
        vals = np.random.default_rng(8).standard_normal(20)
        path = str(tmp_path / "pheno.tsv")
        io_files.write_phenotype_tsv(path, vals)
        back, _ = io_files.read_phenotype_tsv(path)
        assert np.array_equal(back, vals)


class TestSampleAlignment:
    """A phenotype's rows must be the genotypes' samples, in order."""

    NAMES = NAMED

    @given(st.permutations(range(6)), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_only_the_identity_order_is_accepted(self, order, named):
        # named: the genotypes carry sample ids (a TSV); otherwise their rows
        # are positional (a container) and the default ids are expected
        G = gen_genotypes(6, 3, seed=1)
        if named:
            G.sample_ids = np.array(self.NAMES)
        ids = list(G.sample_ids) if named else [f"sample{i:07d}" for i in range(6)]
        y = np.arange(6.0)
        with tempfile.TemporaryDirectory() as d:
            path = f"{d}/pheno.tsv"
            io_files.write_phenotype_tsv(path, y[list(order)], [ids[i] for i in order])
            if list(order) == sorted(order):
                assert np.array_equal(io_files.read_phenotype_of(path, G, "geno"), y)
            else:
                first = next(r for r, i in enumerate(order) if r != i)
                with pytest.raises(DataFormatError, match=rf"pheno.tsv:{first + 2}: .* geno "):
                    io_files.read_phenotype_of(path, G, "geno")

    def genotype_tsv(self, tmp_path):
        G = gen_genotypes(len(self.NAMES), 5, seed=3)
        path = str(tmp_path / "geno.tsv")
        write_genotype_tsv(path, G, [f"rs{j}" for j in range(G.p)], self.NAMES)
        return path

    def phenotype(self, tmp_path, ids):
        path = str(tmp_path / "pheno.tsv")
        io_files.write_phenotype_tsv(path, np.linspace(-1.0, 1.0, len(ids)), ids)
        return path

    def test_gwas_on_named_samples_in_order(self, tmp_path):
        geno = self.genotype_tsv(tmp_path)
        pheno = self.phenotype(tmp_path, self.NAMES)
        assert main(["gwas", "--genotypes", geno, "--phenotype", pheno,
                     "--out", str(tmp_path / "sum.tsv")]) == 0

    @pytest.mark.parametrize("command", ["gwas", "estimate"])
    @pytest.mark.parametrize("ids", ["swapped", "default"])
    def test_misaligned_phenotype_is_data_error(self, tmp_path, capsys, command, ids):
        geno = self.genotype_tsv(tmp_path)
        names = (["alice", "bob", "dave", "carol", "erin", "frank"] if ids == "swapped"
                 else [f"sample{i:07d}" for i in range(len(self.NAMES))])
        pheno = self.phenotype(tmp_path, names)
        if command == "gwas":
            argv = ["gwas", "--genotypes", geno, "--phenotype", pheno,
                    "--out", str(tmp_path / "out.tsv")]
        else:
            summary = str(tmp_path / "sum.tsv")
            io_files.write_summary_tsv(summary, marginal_gwas(
                gen_genotypes(len(self.NAMES), 5, seed=4), np.arange(6.0)))
            argv = ["estimate", "--case", "ae", "--target-geno", geno, "--target-pheno", pheno,
                    "--summary-a", summary, "--n1", "6", "--n3", "6", "--p", "5",
                    "--h2a", "1", "--h2e", "1"]
        assert main(argv) == 3
        row, got, want = ((2, "dave", "carol") if ids == "swapped"
                          else (0, "sample0000000", "alice"))
        assert (f"error: {pheno}:{row + 2}: sample id {got!r}, but sample {row + 1} of {geno} "
                f"is {want!r}\n") == capsys.readouterr().err
        assert not (tmp_path / "out.tsv").exists()

    @pytest.mark.parametrize("command", ["gwas", "estimate"])
    def test_permuted_phenotype_against_container_is_data_error(self, tmp_path, capsys,
                                                                 command):
        # each row keeps its own id, but a container's rows are positional
        G = gen_genotypes(6, 5, seed=5)
        geno = str(tmp_path / "geno.xtg")
        io_files.write_genotype_bin(geno, G)
        ids = [f"sample{i:07d}" for i in range(G.n)]
        pheno = self.phenotype(tmp_path, ids[::-1])
        summary = str(tmp_path / "sum.tsv")
        if command == "gwas":
            argv = ["gwas", "--genotypes", geno, "--phenotype", pheno, "--out", summary]
        else:
            io_files.write_summary_tsv(summary, marginal_gwas(G, np.arange(6.0)))
            argv = ["estimate", "--case", "ae", "--target-geno", geno, "--target-pheno", pheno,
                    "--summary-a", summary, "--n1", "6", "--n3", "6", "--p", "5",
                    "--h2a", "1", "--h2e", "1"]
        assert main(argv) == 3
        assert (f"error: {pheno}:2: sample id 'sample0000005', but sample 1 of {geno} is "
                "'sample0000000', as it stores no sample ids\n") == capsys.readouterr().err

    def test_scores_are_labelled_with_the_genotype_sample_ids(self, tmp_path):
        geno = self.genotype_tsv(tmp_path)
        summary = str(tmp_path / "sum.tsv")
        io_files.write_summary_tsv(summary, marginal_gwas(
            io_files.read_genotypes(geno), np.arange(6.0)))
        out = str(tmp_path / "scores.tsv")
        assert main(["score", "--genotypes", geno, "--summary", summary, "--out", out]) == 0
        assert read_scores(out)[1] == self.NAMES


class TestReplicatesAggregates:
    def test_round_trip_and_reaggregation(self, tmp_path):
        rows = [
            ReplicateRow("s", "pt", "G", 0, 0.123456789123456789, 0.25, 0.5, "ok"),
            ReplicateRow("s", "pt", "G", 1, -0.5, float("nan"), 0.5, "ok"),
        ]
        rpath = str(tmp_path / "reps.tsv")
        io_files.write_replicates_tsv(rpath, rows)
        back = read_replicates(rpath)
        assert back[0].raw == rows[0].raw
        assert np.isnan(back[1].corrected)
        apath = str(tmp_path / "aggs.tsv")
        io_files.write_aggregates_tsv(apath, aggregate(rows))
        assert read_aggregates(apath) == aggregate(back)


class TestConfigAndManifest:
    def test_parse_config(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("# comment\nscenario = fig2_all_snp\np=100\n\nn1=50\n")
        cfg = io_files.parse_config(str(path))
        assert cfg == {"scenario": "fig2_all_snp", "p": "100", "n1": "50"}

    def test_parse_config_bad_line(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("scenario=ok\nnot a pair\n")
        with pytest.raises(DataFormatError, match=":2:"):
            io_files.parse_config(str(path))

    def test_config_hash_order_independent(self):
        a = io_files.config_hash({"a": "1", "b": "2"})
        b = io_files.config_hash({"b": "2", "a": "1"})
        assert a == b
        assert a != io_files.config_hash({"a": "1", "b": "3"})

    def test_manifest_written(self, tmp_path):
        path = str(tmp_path / "manifest.txt")
        m = io_files.write_manifest(path, {"k": "v"}, 42)
        text = (tmp_path / "manifest.txt").read_text()
        assert f"config_hash={m.config_hash}" in text
        assert "master_seed=42" in text

    def test_manifest_version_is_package_version(self, tmp_path):
        import crosstrait

        m = io_files.write_manifest(str(tmp_path / "manifest.txt"), {}, 0)
        assert m.toolkit_version == crosstrait.__version__
        assert f"toolkit_version={crosstrait.__version__}\n" in (tmp_path / "manifest.txt").read_text()

    def test_atomic_write_replaces(self, tmp_path):
        path = str(tmp_path / "f.txt")
        io_files.atomic_write_text(path, "one")
        io_files.atomic_write_text(path, "two")
        assert open(path).read() == "two"
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp_")]
        assert not leftovers
