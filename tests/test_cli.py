import argparse
import os
import platform
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crosstrait import experiments, io_files, moments
from crosstrait.cli import build_parser, main
from crosstrait.gwas import SummaryStats, marginal_gwas
from crosstrait.synth import (
    CohortSizes,
    TraitArchitecture,
    gen_genotypes,
    gen_independent_cohorts,
)
from tables import moment_inputs, read_replicates, read_scores


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    """Genotype, phenotype, and summary files for an alpha/eta pair."""
    d = tmp_path_factory.mktemp("data")
    arch = TraitArchitecture.shared_causal(60, 20, phi=0.8, traits=("alpha", "eta"))
    b = gen_independent_cohorts(arch, CohortSizes(n1=120, n3=100), seed=42,
                                traits=("alpha", "eta"))
    paths = {
        "disc_geno": str(d / "disc.xtg"),
        "disc_pheno": str(d / "disc_pheno.tsv"),
        "target_geno": str(d / "target.xtg"),
        "target_pheno": str(d / "target_pheno.tsv"),
        "summary": str(d / "alpha.sumstats.tsv"),
    }
    io_files.write_genotype_bin(paths["disc_geno"], b.disc_alpha)
    io_files.write_phenotype_tsv(paths["disc_pheno"], b.y_alpha.y)
    io_files.write_genotype_bin(paths["target_geno"], b.target)
    io_files.write_phenotype_tsv(paths["target_pheno"], b.y_eta.y)
    stats = marginal_gwas(b.disc_alpha, b.y_alpha.y)
    io_files.write_summary_tsv(paths["summary"], stats)
    return paths


class TestCorrect:
    def test_ab_example(self, capsys):
        rc = main(["correct", "--raw", "0.45", "--n1", "10000", "--n2", "10000",
                   "--p", "10000", "--h2a", "1", "--h2b", "1", "--case", "ab"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        fields = out[1].split("\t")
        assert float(fields[2]) == pytest.approx(0.9)
        assert fields[3] == "consistent_regime"

    def test_zero_raw(self, capsys):
        rc = main(["correct", "--raw", "0", "--n1", "100", "--p", "50",
                   "--h2a", "1", "--h2e", "1", "--case", "ae"])
        assert rc == 0
        assert float(capsys.readouterr().out.splitlines()[1].split("\t")[2]) == 0.0

    @pytest.mark.parametrize("sizes", [["--n1", "10", "--h2a", "5e-324"],
                                       ["--n1", "0", "--h2a", "0.5"]],
                             ids=["underflow", "n1_zero"])
    def test_unscreened_zero_factor_message(self, capsys, sizes):
        rc = main(["correct", "--raw", "0.5", "--p", "10", "--h2e", "1", "--case", "ae", *sizes])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: bias factor is zero; it underflows" in err
        assert "screened" not in err

    def test_r2_published_row(self, capsys):
        rc = main(["correct", "--r2", "0.001974", "--n1", "55374", "--p", "129052",
                   "--h2a", "0.100", "--h2e", "0.660", "--case", "ae"])
        assert rc == 0
        val = float(capsys.readouterr().out.splitlines()[1].split("\t")[2])
        assert val == pytest.approx(0.0727, abs=5e-4)

    def test_missing_flags_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["correct", "--raw", "0.5", "--case", "ab", "--n1", "100"])
        assert exc.value.code == 2

    def test_degenerate_flag_emitted(self, capsys):
        rc = main(["correct", "--raw", "0.05", "--n1", "50", "--n3", "50",
                   "--p", "50000", "--h2a", "1", "--h2e", "1", "--case", "ae"])
        assert rc == 0
        assert "degenerate_regime" in capsys.readouterr().out

    @pytest.mark.parametrize("raw", ["nan", "5", "-1.5", "inf"])
    def test_raw_that_is_not_a_cosine_is_usage_error(self, capsys, raw):
        rc = main(["correct", "--raw", raw, "--n1", "100", "--p", "50",
                   "--h2a", "1", "--h2e", "1", "--case", "ae"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: raw cosine must lie in [-1, 1]" in err

    def test_corrected_out_of_range_is_flagged(self, capsys):
        # factor sqrt(100 / 1100) = 0.30, so 0.9 corrects to 2.98
        rc = main(["correct", "--raw", "0.9", "--n1", "100", "--p", "1000",
                   "--h2a", "1", "--h2e", "1", "--case", "ae"])
        assert rc == 0
        fields = capsys.readouterr().out.splitlines()[1].split("\t")
        assert float(fields[2]) > 1.0
        assert fields[3].endswith(";corrected_out_of_range")

    def test_strict_degenerate_refusal(self, capsys):
        rc = main(["correct", "--raw", "0.05", "--n1", "50", "--n3", "50",
                   "--p", "50000", "--h2a", "1", "--h2e", "1", "--case", "ae",
                   "--strict"])
        assert rc == 4


# one valid value for every design flag
DESIGN = {"n1": "800", "n2": "700", "n3": "500", "ns": "300", "p": "1200",
          "h2a": "0.6", "h2b": "0.5", "h2e": "0.7", "hae": "0.8", "hab": "0.9"}

# --case alias -> (flags its correction requires, the flags given in the
# pinned run, the pinned `correct --raw 0.37` output)
CASES = {
    "ae": (["n1", "p", "h2a", "h2e"], ["n1", "n3", "p", "h2a", "h2e"],
           "0.37\t0.44721359549995798\t0.82734515167492206\tconsistent_regime"),
    "ab": (["n1", "n2", "p", "h2a", "h2b"], ["n1", "n2", "n3", "p", "h2a", "h2b"],
           "0.37\t0.25400025400038101\t1.4566914566921849"
           "\tconsistent_regime;corrected_out_of_range"),
    "summary-ab": (["n1", "n2", "p", "h2a", "h2b"], ["n1", "n2", "p", "h2a", "h2b"],
                   "0.37\t0.25400025400038101\t1.4566914566921849"
           "\tconsistent_regime;corrected_out_of_range"),
    "overlap-i": (["n1", "n3", "ns", "p", "h2a", "h2e", "hae"],
                  ["n1", "n3", "ns", "p", "h2a", "h2e", "hae"],
                  "0.37\t0.60418889570904333\t0.61239126145439671\tconsistent_regime"),
    "overlap-ii": (["n1", "n2", "ns", "p", "h2a", "h2b", "hab"],
                   ["n1", "n2", "n3", "ns", "p", "h2a", "h2b", "hab"],
                   "0.37\t0.44052910931422301\t0.83989909446843014\tconsistent_regime"),
    "iii": (["n1", "p", "h2a", "h2b", "hab"], ["n1", "p", "h2a", "h2b", "hab"],
            "0.37\t0.71269664509979824\t0.51915496241488446\tconsistent_regime"),
    "iv": (["n1", "p", "h2a", "h2b", "hab"], ["n1", "p", "h2a", "h2b", "hab"],
           "0.37\t0.75220112179555654\t0.49188972108521217\tconsistent_regime"),
    "v": (["n1", "n2", "p", "h2a", "h2b"], ["n1", "n2", "p", "h2a", "h2b"],
          "0.37\t0.37106180177913101\t0.99713847727241123\tconsistent_regime"),
}


def design_argv(flags):
    return [arg for f in flags for arg in (f"--{f}", DESIGN[f])]


class TestCaseTable:
    @pytest.mark.parametrize("command", ["correct", "estimate"])
    def test_case_choices(self, command):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        case = next(a for a in sub.choices[command]._actions if a.dest == "case")
        assert sorted(case.choices) == sorted(CASES)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_each_required_flag_is_named(self, case, capsys):
        required = CASES[case][0]
        for missing in required:
            argv = ["correct", "--raw", "0.37", "--case", case]
            argv += design_argv(f for f in DESIGN if f != missing)
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"--{missing}" in capsys.readouterr().err.split("requires")[-1]

    def test_correct_refuses_a_flag_the_case_does_not_use(self, capsys):
        argv = ["correct", "--raw", "0.37", "--case", "ae"] + design_argv(CASES["ae"][1])
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--ns", "5"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("error: case 'ae' does not use --ns\n")

    def test_correct_usage_error_names_its_subcommand(self, capsys):
        argv = ["correct", "--raw", "0.3", "--case", "ae", "--n1", "100", "--p", "50",
                "--h2a", "1", "--h2e", "1", "--hae", "0.5"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: crosstrait correct ")
        assert err[-1] == "crosstrait correct: error: case 'ae' does not use --hae"

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_correct_raw_output_pinned(self, case, capsys):
        _, given, line = CASES[case]
        rc = main(["correct", "--raw", "0.37", "--case", case] + design_argv(given))
        assert rc == 0
        assert capsys.readouterr().out == "raw\tfactor\tcorrected\tregime_flag\n" + line + "\n"

    @pytest.mark.parametrize("case, files", [
        ("ae", "--target-geno --target-pheno --summary-a"),
        ("ab", "--target-geno --summary-a --summary-b"),
        ("summary-ab", "--summary-a --summary-b"),
    ], ids=["phenotype_score", "score_score", "effect_effect"])
    def test_estimate_names_missing_file_flags(self, case, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--case", case] + design_argv(DESIGN))
        assert exc.value.code == 2
        assert f"needs {files}" in capsys.readouterr().err

    def test_estimate_usage_error_names_its_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["estimate", "--case", "ae", "--h2a", "1"])
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: crosstrait estimate ")
        assert err[-1] == "crosstrait estimate: error: case 'ae' requires --h2e"


class TestPipelineCommands:
    def test_gwas_then_score(self, small_dataset, tmp_path, capsys):
        out_sum = str(tmp_path / "sum.tsv")
        rc = main(["gwas", "--genotypes", small_dataset["disc_geno"],
                   "--phenotype", small_dataset["disc_pheno"], "--out", out_sum])
        assert rc == 0
        regenerated = io_files.read_summary_tsv(out_sum)
        original = io_files.read_summary_tsv(small_dataset["summary"])
        assert np.array_equal(regenerated.effect, original.effect)

        out_scores = str(tmp_path / "scores.tsv")
        rc = main(["score", "--genotypes", small_dataset["target_geno"],
                   "--summary", out_sum, "--out", out_scores,
                   "--rule", "pvalue", "--cutoff", "0.5"])
        assert rc == 0
        scores, _ = read_scores(out_scores)
        assert scores.shape == (100,)
        assert np.linalg.norm(scores) > 0

    def test_score_cutoff_without_rule_refused(self, small_dataset, tmp_path, capsys):
        out = tmp_path / "scores.tsv"
        rc = main(["score", "--genotypes", small_dataset["target_geno"],
                   "--summary", small_dataset["summary"], "--cutoff", "0.05", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: --cutoff needs --rule pvalue or --rule effect\n"
        assert not out.exists()

    def test_estimate_ae(self, small_dataset, tmp_path, capsys):
        out = str(tmp_path / "est.tsv")
        rc = main(["estimate", "--case", "ae",
                   "--target-geno", small_dataset["target_geno"],
                   "--target-pheno", small_dataset["target_pheno"],
                   "--summary-a", small_dataset["summary"],
                   "--n1", "120", "--n3", "100", "--p", "60",
                   "--h2a", "1", "--h2e", "1", "--out", out])
        assert rc == 0
        text = open(out).read().splitlines()
        fields = text[1].split("\t")
        raw, factor, corrected = float(fields[1]), float(fields[2]), float(fields[3])
        assert corrected == pytest.approx(raw / factor)

    @pytest.mark.parametrize("h2e", ["1", "1e-6"])
    def test_estimate_flags_corrected_out_of_range(self, small_dataset, capsys, h2e):
        rc = main(["estimate", "--case", "ae",
                   "--target-geno", small_dataset["target_geno"],
                   "--target-pheno", small_dataset["target_pheno"],
                   "--summary-a", small_dataset["summary"],
                   "--n1", "120", "--n3", "100", "--p", "60", "--h2a", "1", "--h2e", h2e])
        assert rc == 0
        fields = capsys.readouterr().out.splitlines()[1].split("\t")
        out_of_range = abs(float(fields[3])) > 1.0
        assert out_of_range == (h2e != "1")
        assert fields[4].endswith(";corrected_out_of_range") == out_of_range

    def test_estimate_summary_ab_missing_file_flags(self, small_dataset):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--case", "summary-ab", "--summary-a",
                  small_dataset["summary"], "--n1", "120", "--n2", "120",
                  "--p", "60", "--h2a", "1", "--h2b", "1"])
        assert exc.value.code == 2

    def test_malformed_file_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("snp_id\teffect\tse\ttstat\tpvalue\tn\nrs1\tx\t1\t1\t0.5\t10\n")
        rc = main(["score", "--genotypes", str(bad), "--summary", str(bad),
                   "--out", str(tmp_path / "out.tsv")])
        assert rc == 3

    def test_permuted_summary_refused(self, small_dataset, tmp_path, capsys):
        # an .xtg carries no SNP ids; summary rows out of the default order
        # cannot be aligned with it
        head, *rows = open(small_dataset["summary"]).read().splitlines()
        permuted = tmp_path / "permuted.tsv"
        permuted.write_text("\n".join([head, *rows[::-1]]) + "\n")
        rc = main(["score", "--genotypes", small_dataset["target_geno"],
                   "--summary", str(permuted), "--out", str(tmp_path / "scores.tsv")])
        assert rc == 3
        assert "the genotypes carry no SNP ids" in capsys.readouterr().err
        assert not (tmp_path / "scores.tsv").exists()

    @pytest.mark.parametrize("command", ["gwas", "estimate"])
    def test_phenotype_of_wrong_length_is_data_error(self, small_dataset, tmp_path, capsys,
                                                     command):
        geno, pheno = (("disc_geno", "disc_pheno") if command == "gwas"
                       else ("target_geno", "target_pheno"))
        short = tmp_path / "short.tsv"
        short.write_text("".join(open(small_dataset[pheno]).readlines()[:-1]))
        if command == "gwas":
            argv = ["gwas", "--genotypes", small_dataset[geno], "--phenotype", str(short),
                    "--out", str(tmp_path / "sum.tsv")]
        else:
            argv = ["estimate", "--case", "ae", "--target-geno", small_dataset[geno],
                    "--target-pheno", str(short), "--summary-a", small_dataset["summary"],
                    "--n1", "120", "--n3", "100", "--p", "60", "--h2a", "1", "--h2e", "1"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert str(short) in err and small_dataset[geno] in err

    def test_missing_file_is_data_error(self, tmp_path):
        rc = main(["gwas", "--genotypes", str(tmp_path / "nope.xtg"),
                   "--phenotype", str(tmp_path / "nope.tsv"),
                   "--out", str(tmp_path / "o.tsv")])
        assert rc == 3


class TestEstimateComputesOnlyWhatItCorrects:
    """``estimate`` corrects all-SNP cosines only, pairs SNPs by the rule
    ``score`` uses, and refuses a ``--p`` that is not the SNP count used."""

    @pytest.fixture(scope="class")
    def named(self, tmp_path_factory):
        """A 50 x 40 genotype TSV with SNP ids rs0..rs39 and the summaries of
        its scan over all 40 ids, ids 0-29 and ids 10-39."""
        d = tmp_path_factory.mktemp("named")
        G = gen_genotypes(50, 40, seed=6)
        lines = ["\t".join(["sample_id", *(f"rs{j}" for j in range(G.p))])]
        lines += ["\t".join([f"s{i}", *map(str, row)]) for i, row in enumerate(G.codes)]
        paths = {name: str(d / f"{name}.tsv") for name in ("geno", "all", "first", "last")}
        with open(paths["geno"], "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        stats = marginal_gwas(io_files.read_genotypes(paths["geno"]),
                              np.random.default_rng(6).standard_normal(G.n))
        for name, rows in (("all", slice(0, 40)), ("first", slice(0, 30)),
                           ("last", slice(10, 40))):
            io_files.write_summary_tsv(paths[name], SummaryStats(
                stats.snp_id[rows], stats.effect[rows], stats.se[rows], stats.tstat[rows],
                stats.pvalue[rows], stats.n))
        return paths

    def test_screening_flags_are_not_options(self, small_dataset, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--case", "ae", "--target-geno", small_dataset["target_geno"],
                  "--target-pheno", small_dataset["target_pheno"],
                  "--summary-a", small_dataset["summary"], "--n1", "120", "--p", "60",
                  "--h2a", "1", "--h2e", "1", "--rule", "pvalue", "--cutoff", "0.05"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --rule pvalue --cutoff 0.05" in capsys.readouterr().err

    @pytest.mark.parametrize("a, b, counts", [("all", "first", "40 and 30"),
                                              ("first", "last", "30 and 30")],
                             ids=["subset", "shifted"])
    def test_scores_over_different_snps_refused(self, named, tmp_path, capsys, a, b, counts):
        out = tmp_path / "est.tsv"
        rc = main(["estimate", "--case", "ab", "--target-geno", named["geno"],
                   "--summary-a", named[a], "--summary-b", named[b], "--n1", "50",
                   "--n2", "50", "--h2a", "1", "--h2b", "1", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: {named[a]} and {named[b]} pair with different SNPs of the target "
            f"({counts}); both scores need the same SNPs\n")
        assert not out.exists()

    def test_summaries_pair_by_id_intersection(self, named, capsys):
        # ids rs10..rs29 are in both files, with the same effects
        rc = main(["estimate", "--case", "summary-ab", "--summary-a", named["first"],
                   "--summary-b", named["last"], "--n1", "50", "--n2", "50", "--p", "20",
                   "--h2a", "1", "--h2b", "1"])
        assert rc == 0
        raw = capsys.readouterr().out.splitlines()[1].split("\t")[1]
        assert float(raw) == pytest.approx(1.0)

    @pytest.mark.parametrize("p_b, ids_b, message", [
        (120, False, "summary statistics in {a} and summary statistics in {b} carry no SNP "
                     "ids and differ in SNP count (100 against 120); cannot align them by "
                     "position"),
        (100, True, "the summary statistics in {a} carry no SNP ids (none, or the default "
                    "ids in order) and the other side does; cannot align them"),
    ], ids=["positional_unequal_p", "positional_against_ids"])
    def test_summaries_that_do_not_pair_refused(self, tmp_path, capsys, p_b, ids_b, message):
        paths = {}
        for name, p in (("a", 100), ("b", p_b)):
            stats = marginal_gwas(gen_genotypes(30, p, seed=p), np.arange(30.0))
            if name == "b" and ids_b:
                stats.snp_id = np.array([f"rs{j}" for j in range(p)])
            paths[name] = str(tmp_path / f"{name}.tsv")
            io_files.write_summary_tsv(paths[name], stats)
        rc = main(["estimate", "--case", "summary-ab", "--summary-a", paths["a"],
                   "--summary-b", paths["b"], "--n1", "30", "--n2", "30", "--p", "100",
                   "--h2a", "1", "--h2b", "1"])
        assert rc == 3
        assert capsys.readouterr().err == "error: " + message.format(**paths) + "\n"

    @pytest.mark.parametrize("case", ["ae", "ab", "summary-ab"])
    def test_p_that_is_not_the_snps_used_refused(self, small_dataset, tmp_path, capsys, case):
        files = {"--target-geno": small_dataset["target_geno"],
                 "--target-pheno": small_dataset["target_pheno"],
                 "--summary-a": small_dataset["summary"], "--summary-b": small_dataset["summary"]}
        needs, design = {
            "ae": (("--target-geno", "--target-pheno", "--summary-a"),
                   ["--n3", "100", "--h2e", "1"]),
            "ab": (("--target-geno", "--summary-a", "--summary-b"),
                   ["--n2", "120", "--n3", "100", "--h2b", "1"]),
            "summary-ab": (("--summary-a", "--summary-b"), ["--n2", "120", "--h2b", "1"]),
        }[case]
        out = tmp_path / "est.tsv"
        rc = main(["estimate", "--case", case, *(x for f in needs for x in (f, files[f])),
                   "--n1", "120", "--p", "59", "--h2a", "1", *design, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: --p is 59, but the raw estimate used 60 SNPs\n")
        assert not out.exists()


# --case alias -> (input-file flags, the size flags that agree with the files
# of TestEstimateReadsSizesFromFiles, the other design flags)
FILE_CASES = {
    "ae": (("target_geno", "target_pheno", "summary_a"), ["--n1", "120", "--n3", "100"],
           ["--h2a", "0.5", "--h2e", "0.5"]),
    "ab": (("target_geno", "summary_a", "summary_b"),
           ["--n1", "120", "--n2", "100", "--n3", "100"], ["--h2a", "0.5", "--h2b", "0.5"]),
    "summary-ab": (("summary_a", "summary_b"), ["--n1", "120", "--n2", "100"],
                   ["--h2a", "0.5", "--h2b", "0.5"]),
    "overlap-i": (("target_geno", "target_pheno", "summary_a"), ["--n1", "90", "--n3", "70"],
                  ["--ns", "30", "--h2a", "0.5", "--h2e", "0.5", "--hae", "0.8"]),
    "overlap-ii": (("target_geno", "summary_a", "summary_b"),
                   ["--n1", "90", "--n2", "70", "--n3", "100"],
                   ["--ns", "30", "--h2a", "0.5", "--h2b", "0.5", "--hab", "0.8"]),
    "iii": (("summary_a", "summary_b"), ["--n1", "120"],
            ["--h2a", "0.5", "--h2b", "0.5", "--hab", "0.8"]),
    "iv": (("target_geno", "summary_a", "summary_b"), ["--n1", "120"],
           ["--h2a", "0.5", "--h2b", "0.5", "--hab", "0.8"]),
    "v": (("target_geno", "summary_a", "summary_b"), ["--n1", "120", "--n2", "100"],
          ["--h2a", "0.5", "--h2b", "0.5"]),
}


class TestEstimateReadsSizesFromFiles:
    """``estimate`` takes p from the SNPs it used, n1 and n2 from the
    summaries' ``n`` and n3 from the target's samples, less ``--ns`` for the
    cohorts that hold the shared samples; a size flag must agree."""

    @pytest.fixture(scope="class")
    def files(self, small_dataset, tmp_path_factory):
        """small_dataset's files (summary a: n = 120, target: 100 samples,
        p = 60) and summary b, the target's own scan (n = 100)."""
        summary_b = str(tmp_path_factory.mktemp("sizes") / "eta.sumstats.tsv")
        W = io_files.read_genotypes(small_dataset["target_geno"])
        y = io_files.read_phenotype_of(small_dataset["target_pheno"], W,
                                       small_dataset["target_geno"])
        io_files.write_summary_tsv(summary_b, marginal_gwas(W, y))
        return {"target_geno": small_dataset["target_geno"],
                "target_pheno": small_dataset["target_pheno"],
                "summary_a": small_dataset["summary"], "summary_b": summary_b}

    @staticmethod
    def argv(files, case, *flags):
        needs = FILE_CASES[case][0]
        return ["estimate", "--case", case, *flags,
                *(x for f in needs for x in ("--" + f.replace("_", "-"), files[f]))]

    @pytest.mark.parametrize("case", sorted(FILE_CASES))
    def test_no_size_flag_gives_the_bytes_of_agreeing_flags(self, files, tmp_path, capsys,
                                                           case):
        _, sizes, design = FILE_CASES[case]
        outputs = []
        for name, flags in (("flagged", [*sizes, "--p", "60"]), ("read", [])):
            out = tmp_path / f"{name}.tsv"
            assert main(self.argv(files, case, *flags, *design, "--out", str(out))) == 0
            outputs.append((capsys.readouterr().out, out.read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][1].decode() == outputs[0][0]

    @pytest.mark.parametrize("case, flag, value, source", [
        ("ae", "--n1", "2000", "{summary_a} holds 120 samples"),
        ("ae", "--n3", "20", "{target_geno} holds 100 samples"),
        ("ab", "--n2", "120", "{summary_b} holds 100 samples"),
        ("summary-ab", "--n1", "100", "{summary_a} holds 120 samples"),
        ("overlap-i", "--n1", "120",
         "{summary_a} holds 120 samples, 90 of them not among the --ns 30 shared"),
        ("overlap-ii", "--n2", "100",
         "{summary_b} holds 100 samples, 70 of them not among the --ns 30 shared"),
        ("overlap-ii", "--n3", "70", "{target_geno} holds 100 samples"),
    ])
    def test_disagreeing_size_flag_refused(self, files, tmp_path, capsys, case, flag, value,
                                           source):
        out = tmp_path / "est.tsv"
        rc = main(self.argv(files, case, flag, value, *FILE_CASES[case][2], "--out", str(out)))
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: {flag} is {value}, but "
                                           f"{source.format(**files)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("case, flag, value", [
        ("summary-ab", "--n3", "20"), ("summary-ab", "--ns", "5"), ("ae", "--hae", "0.5"),
        ("iii", "--n2", "100"),
    ])
    def test_flag_the_case_does_not_use_refused(self, files, tmp_path, capsys, case, flag,
                                                value):
        # a dropped --ns would let a user believe overlap was corrected
        out = tmp_path / "est.tsv"
        with pytest.raises(SystemExit) as exc:
            main(self.argv(files, case, flag, value, *FILE_CASES[case][2], "--out", str(out)))
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: case {case!r} does not use {flag}\n")
        assert not out.exists()

    @pytest.mark.parametrize("case, ns, source", [
        ("overlap-i", "100", "{target_geno} holds 100 samples, 0"),
        ("overlap-i", "130", "{summary_a} holds 120 samples, -10"),
        ("overlap-ii", "100", "{summary_b} holds 100 samples, 0"),
    ])
    def test_ns_at_or_above_a_files_count_refused(self, files, tmp_path, capsys, case, ns,
                                                  source):
        design = [x for x in FILE_CASES[case][2] if x != "30"]
        design.insert(design.index("--ns") + 1, ns)
        out = tmp_path / "est.tsv"
        assert main(self.argv(files, case, *design, "--out", str(out))) == 2
        assert capsys.readouterr().err == (
            f"error: --ns is {ns}, but {source.format(**files)} of them not among the "
            f"--ns {ns} shared\n")
        assert not out.exists()

    @pytest.mark.parametrize("strict", [False, True])
    def test_target_samples_feed_the_regime_check(self, tmp_path, capsys, strict):
        # p = 40 >= n1 * n3 = 36: degenerate, with n3 read from the target
        P = {k: str(tmp_path / k) for k in ("disc.xtg", "target.xtg", "y.tsv", "sum.tsv")}
        target = gen_genotypes(6, 40, seed=8)
        io_files.write_genotype_bin(P["target.xtg"], target)
        io_files.write_phenotype_tsv(P["y.tsv"], np.arange(6.0))
        io_files.write_summary_tsv(P["sum.tsv"],
                                   marginal_gwas(gen_genotypes(6, 40, seed=9), np.arange(6.0)))
        rc = main(["estimate", "--case", "ae", "--target-geno", P["target.xtg"],
                   "--target-pheno", P["y.tsv"], "--summary-a", P["sum.tsv"], "--h2a", "1",
                   "--h2e", "1", *(["--strict"] if strict else [])])
        out, err = capsys.readouterr()
        if strict:
            assert (rc, out) == (4, "")
            assert err == ("error: design is in the degenerate regime (case ae); "
                           "refusing under --strict\n")
        else:
            assert rc == 0
            assert out.splitlines()[1].split("\t")[4].startswith("degenerate_regime")


class TestValuesTooLargeToSquare:
    """A finite phenotype value whose square overflows, a summary effect that
    overflows the score, and a NaN se or tstat in a summary TSV are refused
    instead of giving NaN, 0, -inf or 5e-324."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("huge")
        G = gen_genotypes(60, 90, seed=3)
        y = np.random.default_rng(3).standard_normal(G.n)
        huge = y.copy()
        huge[7] = 1e200
        paths = {name: str(d / name) for name in ("geno.xtg", "pheno.tsv", "huge.tsv",
                                                   "summary.tsv")}
        io_files.write_genotype_bin(paths["geno.xtg"], G)
        io_files.write_phenotype_tsv(paths["pheno.tsv"], y)
        io_files.write_phenotype_tsv(paths["huge.tsv"], huge)
        io_files.write_summary_tsv(paths["summary.tsv"], marginal_gwas(G, y))
        return paths

    @pytest.mark.parametrize("flags", [[], ["--no-standardize-y"]], ids=["standardized", "raw"])
    def test_gwas_refuses(self, files, tmp_path, capsys, flags):
        out = tmp_path / "summary.tsv"
        rc = main(["gwas", "--genotypes", files["geno.xtg"], "--phenotype", files["huge.tsv"],
                   "--out", str(out), *flags])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: phenotype variance is not finite (a value too large to square)\n")
        assert not out.exists()

    def test_estimate_refuses(self, files, capsys):
        rc = main(["estimate", "--case", "ae", "--target-geno", files["geno.xtg"],
                   "--target-pheno", files["huge.tsv"], "--summary-a", files["summary.tsv"],
                   "--n1", "60", "--p", "90", "--h2a", "1", "--h2e", "1"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cosine of vectors whose squared norm or dot product "
                              "is not finite")

    def test_score_refuses_an_effect_too_large_to_weight(self, files, tmp_path, capsys):
        head, *rows = open(files["summary.tsv"]).read().splitlines()
        fields = rows[4].split("\t")
        fields[1] = "-1e308"
        rows[4] = "\t".join(fields)
        summary = tmp_path / "summary.tsv"
        summary.write_text("\n".join([head, *rows]) + "\n")
        out = tmp_path / "scores.tsv"
        assert main(["score", "--genotypes", files["geno.xtg"], "--summary", str(summary),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: risk score is not finite (an effect too large to weight)\n")
        assert not out.exists()

    @pytest.mark.parametrize("column, value, rc", [
        ("se", "nan", 3), ("tstat", "nan", 3), ("se", "inf", 0), ("tstat", "-inf", 0)])
    def test_summary_refuses_nan_se_and_tstat(self, files, tmp_path, capsys, column, value, rc):
        head, *rows = open(files["summary.tsv"]).read().splitlines()
        j = head.split("\t").index(column)
        fields = rows[4].split("\t")
        fields[j] = value
        rows[4] = "\t".join(fields)
        summary = tmp_path / "summary.tsv"
        summary.write_text("\n".join([head, *rows]) + "\n")
        assert main(["score", "--genotypes", files["geno.xtg"], "--summary", str(summary),
                     "--out", str(tmp_path / "scores.tsv")]) == rc
        if rc:
            assert capsys.readouterr().err == (
                f"error: {summary}:6: column {column!r} is NaN: {value!r}\n")


# what a fuzzed field becomes; DUPLICATE copies the field of the same column
# in another row (in the header, the field before it)
DUPLICATE = "<duplicate>"
FUZZ_VALUES = ["nan", "inf", "-inf", "", DUPLICATE, "-1", "1e200", "-1e308"]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """A valid genotype TSV (n = 60, p = 90, ids on both axes), a normal
    phenotype TSV of its samples and the summary TSV of its scan."""
    d = tmp_path_factory.mktemp("fuzz")
    G = gen_genotypes(60, 90, seed=3)
    samples = [f"s{i}" for i in range(G.n)]
    lines = ["\t".join(["sample_id", *(f"rs{j}" for j in range(G.p))])]
    lines += ["\t".join([s, *map(str, row)]) for s, row in zip(samples, G.codes)]
    paths = {name: str(d / f"{name}.tsv") for name in ("geno", "pheno", "summary")}
    with open(paths["geno"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    y = np.random.default_rng(3).standard_normal(G.n)
    io_files.write_phenotype_tsv(paths["pheno"], y, samples)
    io_files.write_summary_tsv(paths["summary"],
                               marginal_gwas(io_files.read_genotypes(paths["geno"]), y))
    return paths


def _changed(text: str, row: int, col: int, value: str) -> str:
    lines = text.splitlines()
    row %= len(lines)
    fields = lines[row].split("\t")
    col %= len(fields)
    if value == DUPLICATE:
        other = lines[1 + row % (len(lines) - 1)].split("\t") if row else fields
        value = other[col - 1] if not row else other[col]
    fields[col] = value
    lines[row] = "\t".join(fields)
    return "\n".join(lines) + "\n"


def _written(path: str, columns) -> dict:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        rows = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    return {c: np.array([float(r[header.index(c)]) for r in rows]) for c in columns}


class TestFuzzedInputs:
    """One field of a valid genotype, phenotype or summary TSV changed to a
    hostile value: each of ``gwas``, ``score``, ``score --rule pvalue`` and
    ``estimate`` exits 0, 2, 3 or 4 and raises nothing; one that exits 0
    writes only finite numbers, and p-values in (0, 1]."""

    @given(st.sampled_from(["geno", "pheno", "summary"]), st.integers(0, 90),
           st.integers(0, 90), st.sampled_from(FUZZ_VALUES))
    @example("pheno", 8, 1, "1e200")
    @example("pheno", 8, 1, "-1e308")
    @example("summary", 5, 1, "-1e308")
    @example("summary", 5, 2, "nan")
    @settings(max_examples=60, deadline=None)
    def test_one_changed_field(self, fuzz_files, which, row, col, value):
        with tempfile.TemporaryDirectory() as d:
            paths = {}
            for name, path in fuzz_files.items():
                text = open(path, encoding="utf-8").read()
                paths[name] = os.path.join(d, f"{name}.tsv")
                with open(paths[name], "w", encoding="utf-8") as fh:
                    fh.write(_changed(text, row, col, value) if name == which else text)
            out = {name: os.path.join(d, f"{name}.out") for name in
                   ("gwas", "score", "screened", "estimate")}
            scored = ["score", "--genotypes", paths["geno"], "--summary", paths["summary"]]
            commands = {
                "gwas": (["gwas", "--genotypes", paths["geno"], "--phenotype", paths["pheno"]],
                         ("effect", "se", "tstat", "pvalue", "n")),
                "score": (scored, ("score",)),
                "screened": (scored + ["--rule", "pvalue", "--cutoff", "0.05"], ("score",)),
                "estimate": (["estimate", "--case", "ae", "--target-geno", paths["geno"],
                              "--target-pheno", paths["pheno"], "--summary-a", paths["summary"],
                              "--n1", "60", "--n3", "60", "--p", "90", "--h2a", "0.5",
                              "--h2e", "0.5"], ("raw", "factor", "corrected")),
            }
            for name, (argv, columns) in commands.items():
                rc = main(argv + ["--out", out[name]])
                assert rc in (0, 2, 3, 4), (name, rc)
                if rc == 0:
                    written = _written(out[name], columns)
                    for column, values in written.items():
                        assert np.all(np.isfinite(values)), (name, column)
                    if "pvalue" in written:
                        assert np.all((written["pvalue"] > 0) & (written["pvalue"] <= 1))


# every cohort size valid for every tag; n1 + ns = 50 and n2 + ns = 50
MOMENT_SIZES = {"--n1": "40", "--n2": "40", "--n3": "40", "--ns": "10"}


def moments_argv(tag, sizes):
    """``moments`` for ``tag`` at ``sizes``, with the selection it reads."""
    argv = ["moments", "--tag", tag, "--p", "60", "--m", "10", "--replicates", "30",
            "--seed", "1"]
    read = moment_inputs([tag])
    if "selection" in read:
        argv += ["--q-a1", "3", "--q-a2", "3"]
    if "q_b" in read:
        argv += ["--q-b1", "3", "--q-b2", "3"]
    return argv + [x for flag, size in sizes.items() for x in (flag, size)]


class TestFuzzedMomentSizes:
    """``moments`` at the cohort sizes its tag reads, with one size omitted,
    0 or 1, either runs or is refused as a usage error (exit 2, or
    argparse's exit for a missing ``--n1``) before any task; it raises
    nothing."""

    @given(st.sampled_from(moments.ALL_TAGS), st.sampled_from(sorted(MOMENT_SIZES)),
           st.sampled_from([None, "0", "1"]))
    @settings(max_examples=60, deadline=None)
    def test_one_size_changed(self, tag, flag, size):
        read = moment_inputs([tag])
        sizes = {f: n for f, n in MOMENT_SIZES.items() if f[2:].replace("ns", "n_s") in read}
        if size is None:
            sizes.pop(flag, None)
        else:
            sizes[flag] = size
        try:
            rc = main(moments_argv(tag, sizes))
        except SystemExit as exc:  # argparse: --n1 is required
            rc = exc.code
        assert rc in (0, 2), (tag, flag, size, rc)


class TestMomentsCommand:
    @pytest.mark.parametrize("tag,sizes,missing", [
        ("cov_ab_num", {"--n1": "100", "--n3": "100"}, "discovery (n2)"),
        ("cov_ae_num", {"--n1": "100"}, "target (n3)"),
        ("var_eta_den", {"--n1": "0", "--n3": "100"}, "discovery (n1)"),
        ("summary_beta_den", {"--n1": "100", "--n2": "1"}, "discovery (n2)"),
        ("screened_var_beta_den", {"--n1": "100", "--n2": "100"}, "target (n3)"),
        ("overlap_i_cov_ae_num", {"--n1": "100", "--ns": "1"},
         "target (n3) with the n_s shared samples, shared (n_s) block of 1 sample"),
        ("overlap_ii_cov_ab_num", {"--n1": "1", "--n2": "100", "--ns": "20"},
         "discovery (n1) block of 1 sample, target (n3)"),
    ])
    def test_missing_cohort_is_a_usage_error(self, capsys, tag, sizes, missing):
        assert main(moments_argv(tag, sizes)) == 2
        assert capsys.readouterr().err == (
            f"error: {tag} needs cohorts of at least 2 samples: {missing}\n")

    def test_screened_beta_tag_without_a_beta_selection_is_a_usage_error(self, capsys):
        argv = ["moments", "--tag", "screened_cov_ab_num", "--n1", "100", "--n2", "100",
                "--n3", "100", "--p", "60", "--m", "10", "--replicates", "30",
                "--q-a1", "3", "--q-a2", "3"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: screened_cov_ab_num needs a beta selection (q_b1 + q_b2 > 0)\n")

    @pytest.mark.parametrize("tags, flags, name", [
        (["cov_ae_num", "var_eta_den"], ["--n2", "300"], "n2"),
        (["summary_alpha_den"], ["--n3", "300"], "n3"),
        (["cov_ae_num", "var_eta_den"], ["--ns", "60"], "n_s"),
        (["cov_ae_num", "var_eta_den"], ["--rho-eps", "0.2"], "rho_eps"),
        (["cov_ae_num", "var_eta_den"], ["--q-a1", "20", "--q-a2", "40"], "selection"),
        (["screened_cov_ae_num"], ["--q-a1", "20", "--q-b1", "20"],
         "q_b1, q_b2 of selection"),
    ], ids=["n2", "n3", "ns", "rho_eps", "selection", "beta_half"])
    def test_an_input_no_tag_reads_is_refused(self, tmp_path, capsys, monkeypatch, tags,
                                              flags, name):
        # the motivating command: each flag would leave every output byte as it is
        monkeypatch.setattr(moments, "_simulate_family", None)  # no task starts
        out = tmp_path / "report.tsv"
        argv = ["moments", "--tag", *tags, "--n1", "300", "--p", "400", "--m", "40",
                "--replicates", "30", "--seed", "1", "--out", str(out)]
        argv += [] if tags == ["summary_alpha_den"] else ["--n3", "300"]
        assert main(argv + flags) == 2
        assert capsys.readouterr() == ("", f"error: no tag asked for ({' '.join(tags)}) "
                                           f"reads {name}\n")
        assert not out.exists()

    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "report.tsv"
        rc = main(["moments", "--tag", "cov_ae_num", "--n1", "100", "--n3", "100", "--p", "60",
                   "--m", "10", "--replicates", "30", "--seed", "-1", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, not -1\n"
        assert not out.exists()

    def test_single_tag_report(self, tmp_path, capsys):
        out = str(tmp_path / "report.tsv")
        rc = main(["moments", "--tag", "cov_ae_num", "--n1", "150", "--n3", "150",
                   "--p", "300", "--m", "60", "--rho", "0.6",
                   "--replicates", "40", "--seed", "1", "--out", out])
        assert rc == 0
        lines = open(out).read().splitlines()
        assert lines[0].split("\t") == io_files.MOMENT_HEADER
        z = float(lines[1].split("\t")[4])
        assert abs(z) < 4


class TestSimulateCommand:
    def test_config_run_and_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "scenario=fig2_all_snp\np=80\nn1=60\nn2=60\nn3=60\nm=20\n"
            "phi_grid=0.5\nreplicates=2\nmaster_seed=3\n"
        )
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        rows = read_replicates(str(out / "replicates.tsv"))
        assert len(rows) == 6  # 3 estimators x 2 replicates
        assert (out / "aggregates.tsv").exists()
        assert (out / "manifest.txt").exists()

    def test_manifest_names_the_numeric_stack_outside_config_hash(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "scenario=fig2_all_snp\np=80\nn1=60\nn2=60\nn3=60\nm=20\n"
            "phi_grid=0.5\nreplicates=2\nmaster_seed=3\n"
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = dict(line.split("=", 1)
                        for line in (out / "manifest.txt").read_text().splitlines())
        assert manifest["numpy"] == np.__version__
        assert manifest["python"] == platform.python_version()
        assert manifest["machine"] == platform.machine()
        # the hash this config had before the stack was recorded
        assert manifest["config_hash"] == (
            "7bb8ce5a4119f73dac7fc039ef55193b571bc50ec8b791e9f2075387f8aec2f2")

    def test_fig1_one_sample_cohort_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("scenario=fig1_gwas_properties\np=50\nn1=1\nsparsity_grid=0.2\n"
                       "replicates=1\n")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "at least 2 samples" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, env", [("0", None), ("-3", None), (None, "abc"),
                                           (None, "0")],
                             ids=["flag_zero", "flag_negative", "env_text", "env_zero"])
    def test_bad_worker_count_is_usage_error(self, tmp_path, capsys, monkeypatch, flag, env):
        monkeypatch.delenv(experiments.WORKERS_ENV, raising=False)
        if env is not None:
            monkeypatch.setenv(experiments.WORKERS_ENV, env)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("scenario=fig2_all_snp\np=80\nn1=60\nn3=60\nm=20\nphi_grid=0.5\n")
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]
        rc = main(argv + (["--workers", flag] if flag is not None else []))
        assert rc == 2
        source, value = ("workers", int(flag)) if flag is not None else ("$CROSSTRAIT_WORKERS", env)
        assert (f"error: {source} must be an integer >= 1, got {value!r}\n"
                == capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, where):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("scenario=fig2_all_snp\np=80\nn1=60\nn3=60\nm=20\nphi_grid=0.5\n"
                       + ("master_seed=-1\n" if where == "config" else ""))
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]
        assert main(argv + (["--seed", "-1"] if where == "flag" else [])) == 2
        assert capsys.readouterr().err == "error: master_seed must be >= 0, not -1\n"
        assert not (tmp_path / "o").exists()

    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("scenario=fig2_all_snp\np=80\nn1=60\nwat=1\n")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_block_size_is_not_a_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("scenario=fig2_all_snp\np=80\nn1=60\nn3=60\nm=20\nphi_grid=0.5\n"
                       "block_size=64\n")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "unknown config key 'block_size'" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["p=abc", "replicates=2.5", "phi_grid=0.5,x",
                                      "standardize_y=ture"],
                             ids=["int", "int_given_float", "grid", "bool"])
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, line):
        key, _, value = line.partition("=")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("scenario=fig2_all_snp\np=80\nn1=60\nn3=60\nm=20\nphi_grid=0.5\n"
                       f"{line}\n")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"config key {key!r} has a bad value: {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("text, missing", [
        (None, "scenario, p, n1"),
        ("scenario=fig2_all_snp\np=100\n", "n1"),
    ], ids=["dev_null", "partial"])
    def test_missing_required_keys_is_usage_error(self, tmp_path, capsys, text, missing):
        path = os.devnull
        if text is not None:
            path = tmp_path / "exp.cfg"
            path.write_text(text)
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: config lacks required key(s): {missing}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("scenario, line, message", [
        ("fig2_all_snp", "h2=nan", "point phi=0.5: h2_alpha must lie in (0, 1]"),
        ("fig2_all_snp", "sigma2=-1", "point phi=0.5: sigma2_alpha must be positive"),
        ("fig2_all_snp", "phi_grid=0.5,2", "point phi=2: rho_alpha_eta must lie in [-1, 1]"),
        ("fig2_all_snp", "m=5000", "point phi=0.5: m_alpha must lie in [0, p]"),
        ("fig3_screening", "thresholds=nan,0.5", "p-value cutoff must lie in (0, 1]"),
        ("fig3_screening", "sparsity_grid=5", "point mp=5: m_alpha must lie in [0, p]"),
        ("fig4_overlap", "rho_eps=3", "rho_eps must lie in [-1, 1]"),
        ("fig1_gwas_properties", "sigma2=-1", "point mp=0.02: sigma2_alpha must be positive"),
        ("fig4_overlap", "overlap_cases=ii\nn2=1",
         "point phi=0.5: overlap case ii needs cohorts of at least 2 samples: "
         "discovery (n2) with the n_s shared samples"),
        # a block of 1 sample is monomorphic in every column, so every task
        # would fail to draw it
        ("fig2_all_snp", "n2=1",
         "needs cohorts of at least 2 samples: discovery (n2) block of 1 sample"),
        ("fig4_overlap", "n1=1\nns=10", "point phi=0.5: overlap case i needs cohorts of at "
         "least 2 samples: discovery (n1) block of 1 sample"),
        ("fig4_overlap", "ns=1", "point phi=0.5: overlap case i needs cohorts of at "
         "least 2 samples: shared (n_s) block of 1 sample"),
    ], ids=["h2_nan", "sigma2_negative", "phi_2", "m_above_p", "threshold_nan",
            "sparsity_5", "fig4_rho_eps_3", "fig1_sigma2_negative", "fig4_case_ii_n2_1",
            "fig2_n2_1", "fig4_n1_1", "fig4_ns_1"])
    def test_out_of_domain_config_is_usage_error_before_any_task(self, tmp_path, capsys,
                                                                 monkeypatch, scenario, line,
                                                                 message):
        def no_task(args):
            raise AssertionError("a task started")

        monkeypatch.setattr(experiments, "_run_task", no_task)
        # fig1 at sparsity 0.02 of p = 50 has one causal SNP, whose variance
        # cancels the unit error variance when sigma2 = -1
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"scenario={scenario}\np=50\nn1=30\nn2=30\nn3=30\nm=10\nphi_grid=0.5\n"
                       f"sparsity_grid=0.02\nreplicates=2\n{line}\n")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {scenario} ") and message in err
        assert not (tmp_path / "o").exists()


def test_file_commands_leave_hashlib_and_thread_pool_unloaded(tmp_path):
    # gwas, score and estimate take no hash, draw nothing and start no thread,
    # so they load neither OpenSSL (hashlib) nor concurrent.futures (and
    # logging); a serial run loads no thread pool, and its manifest still
    # hashes its config
    src = os.path.dirname(os.path.dirname(experiments.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from crosstrait import cli, io_files, synth\n"
        "from crosstrait.experiments import ExperimentConfig, run\n"
        "d = sys.argv[1]\n"
        # codes without numpy.random, whose import loads hashlib (via secrets)
        "codes = (np.add.outer(np.arange(60), np.arange(40)) % 3).astype(np.uint8)\n"
        "io_files.write_genotype_bin(d + '/g.xtg', synth.GenotypeMatrix.from_codes(codes))\n"
        "io_files.write_phenotype_tsv(d + '/y.tsv', np.linspace(-1.0, 1.0, 60))\n"
        "for argv in (['gwas', '--genotypes', d + '/g.xtg', '--phenotype', d + '/y.tsv',\n"
        "              '--out', d + '/s.tsv'],\n"
        "             ['score', '--genotypes', d + '/g.xtg', '--summary', d + '/s.tsv',\n"
        "              '--rule', 'pvalue', '--cutoff', '0.5', '--out', d + '/sc.tsv'],\n"
        "             ['estimate', '--case', 'ae', '--target-geno', d + '/g.xtg',\n"
        "              '--target-pheno', d + '/y.tsv', '--summary-a', d + '/s.tsv',\n"
        "              '--n1', '60', '--p', '40', '--h2a', '0.5', '--h2e', '0.5']):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "def loaded(): return [m for m in ('hashlib', '_hashlib', 'concurrent.futures')\n"
        "                      if m in sys.modules]\n"
        "assert not loaded(), loaded()\n"
        "cfg = ExperimentConfig(scenario='fig2_all_snp', p=40, n1=30, n3=30, m=10,\n"
        "                       phi_grid=(0.5,), replicates=2)\n"
        "run(cfg, workers=1, out_dir=d + '/run')\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "import hashlib\n"
        "manifest = dict(line.split('=', 1) for line in open(d + '/run/manifest.txt').read().splitlines())\n"
        "want = hashlib.sha256(io_files.config_text(cfg.to_dict()).encode('utf-8')).hexdigest()\n"
        "assert manifest['config_hash'] == want, (manifest['config_hash'], want)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
