import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosstrait import io_files
from crosstrait.errors import DataFormatError
from crosstrait.experiments import ReplicateRow, aggregate
from crosstrait.gwas import marginal_gwas
from crosstrait.synth import gen_genotypes


@pytest.fixture
def stats():
    G = gen_genotypes(60, 12, seed=0)
    y = np.random.default_rng(1).standard_normal(60)
    return marginal_gwas(G, y)


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
        assert list(back.snp_id) == list(stats.snp_id)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\n1\t2\n")
        with pytest.raises(DataFormatError, match=":1:"):
            io_files.read_summary_tsv(str(path))

    def test_bad_number_reports_line(self, stats, tmp_path):
        path = tmp_path / "sum.tsv"
        io_files.write_summary_tsv(str(path), stats)
        lines = path.read_text().splitlines()
        lines[3] = "\t".join(["x", "oops", "1", "1", "0.5", "60"])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=":4:"):
            io_files.read_summary_tsv(str(path))


def shift_unpack(packed, p):
    """Reference 2-bit decoder: shift and mask each of the four fields."""
    fields = (packed[:, :, None] >> np.array([0, 2, 4, 6], dtype=np.uint8)) & 3
    return fields.reshape(packed.shape[0], -1)[:, :p].astype(np.uint8)


class TestGenotypeContainers:
    @given(st.integers(0, 10**6), st.integers(1, 9), st.integers(2, 12))
    @settings(max_examples=30, deadline=None)
    def test_pack_unpack_property(self, seed, p, n):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 3, size=(n, p), dtype=np.uint8)
        assert np.array_equal(io_files.unpack_codes(io_files.pack_codes(codes), p), codes)

    @pytest.mark.parametrize("p", [4, 5, 6, 7, 400, 401, 402, 403])
    def test_unpack_matches_shift_decoder(self, p):
        packed = np.random.default_rng(p).integers(0, 256, size=(9, -(-p // 4)), dtype=np.uint8)
        got = io_files.unpack_codes(packed, p)
        assert got.dtype == np.uint8 and got.flags.c_contiguous
        assert np.array_equal(got, shift_unpack(packed, p))

    def test_unpack_every_byte_value(self):
        packed = np.arange(256, dtype=np.uint8).reshape(4, 64)
        assert np.array_equal(io_files.unpack_codes(packed, 256), shift_unpack(packed, 256))

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
        assert np.array_equal(back.maf, G.maf)
        assert np.array_equal(back.col_mean, G.col_mean)
        assert np.array_equal(back.col_sd, G.col_sd)

    def test_tsv_round_trip(self, tmp_path):
        G = gen_genotypes(10, 6, seed=6)
        path = str(tmp_path / "geno.tsv")
        io_files.write_genotype_tsv(path, G)
        back = io_files.read_genotype_tsv(path)
        assert np.array_equal(back.codes, G.codes)
        assert list(back.snp_ids) == list(G.ids())

    def test_dispatch_on_magic(self, tmp_path):
        G = gen_genotypes(8, 4, seed=7)
        b = str(tmp_path / "geno.bin")
        t = str(tmp_path / "geno.tsv")
        io_files.write_genotype_bin(b, G)
        io_files.write_genotype_tsv(t, G)
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


class TestScoresAndPhenotypes:
    def test_scores_round_trip(self, tmp_path):
        vals = np.array([1.5, -2.25, 1e-17, 3.141592653589793])
        path = str(tmp_path / "scores.tsv")
        io_files.write_scores_tsv(path, vals)
        back, ids = io_files.read_scores_tsv(path)
        assert np.array_equal(back, vals)
        assert ids[0] == "sample0000000"

    def test_phenotype_round_trip(self, tmp_path):
        vals = np.random.default_rng(8).standard_normal(20)
        path = str(tmp_path / "pheno.tsv")
        io_files.write_phenotype_tsv(path, vals)
        back, _ = io_files.read_phenotype_tsv(path)
        assert np.array_equal(back, vals)


class TestReplicatesAggregates:
    def test_round_trip_and_reaggregation(self, tmp_path):
        rows = [
            ReplicateRow("s", "pt", "G", 0, 0.123456789123456789, 0.25, 0.5, "ok"),
            ReplicateRow("s", "pt", "G", 1, -0.5, float("nan"), 0.5, "ok"),
        ]
        rpath = str(tmp_path / "reps.tsv")
        io_files.write_replicates_tsv(rpath, rows)
        back = io_files.read_replicates_tsv(rpath)
        assert back[0].raw == rows[0].raw
        assert np.isnan(back[1].corrected)
        apath = str(tmp_path / "aggs.tsv")
        io_files.write_aggregates_tsv(apath, aggregate(rows))
        assert io_files.read_aggregates_tsv(apath) == aggregate(back)


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
        data = tmp_path / "input.txt"
        data.write_text("hello")
        path = str(tmp_path / "manifest.txt")
        m = io_files.write_manifest(path, {"k": "v"}, 42, inputs={"input": str(data)})
        text = (tmp_path / "manifest.txt").read_text()
        assert f"config_hash={m.config_hash}" in text
        assert "master_seed=42" in text
        assert "input_digest:input=" in text

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
