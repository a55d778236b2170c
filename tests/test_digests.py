"""Pinned ``replicates.tsv`` digests: one fixed config per scenario, and the
files of one ``gwas -> score -> estimate`` run through the CLI.

Any change to an RNG stream, a kernel's rounding or the TSV format changes
a digest; a change that must keep every byte keeps all of them, with one
worker and with two.  The digests are the first 16 hex digits of sha256.
They hold on the numpy stack they were verified on; a digest that fails
names that stack and the running one, whose einsum loops may round
otherwise.
"""

import hashlib
import sys

import numpy as np
import pytest

from crosstrait import io_files, synth
from crosstrait.cli import main
from crosstrait.experiments import ExperimentConfig, run
from crosstrait.synth import CohortSizes, TraitArchitecture, gen_independent_cohorts

# numpy version and SIMD baseline the digests were verified on, as the
# README states them
VERIFIED_STACK = ("2.4.6", ["X86_V2"])


def running_stack():
    """numpy's version and the SIMD baseline it was compiled for."""
    simd = getattr(np.__config__, "CONFIG", {}).get("SIMD Extensions", {})
    return np.__version__, simd.get("baseline") or ["unknown"]


def assert_digests(got, want):
    """``got == want``, or a failure naming the verified and running stacks."""
    stacks = (f"numpy {v} (SIMD baseline {' '.join(b)})"
              for v, b in (VERIFIED_STACK, running_stack()))
    assert got == want, "digests verified on {}; running {}".format(*stacks)


C = ExperimentConfig
PINNED = {
    "fig1_gwas_properties": (
        C(scenario="fig1_gwas_properties", p=301, n1=9, sigma2=0.5,
          sparsity_grid=(0.1, 1.0), replicates=3, master_seed=11),
        "45f34c9014fd9b2f"),
    # p = 2101 spans two column blocks of 2048
    "fig2_all_snp": (
        C(scenario="fig2_all_snp", p=2101, n1=60, n2=60, n3=60, m=50,
          phi_grid=(0.3, 0.8), replicates=3, master_seed=12),
        "919eb1c67002a591"),
    "fig3_screening": (
        C(scenario="fig3_screening", p=400, n1=200, n3=200, phi_grid=(0.8,),
          sparsity_grid=(0.02, 0.5), replicates=3, master_seed=13),
        "3955bf6cc5b66f65"),
    "fig4_overlap_ns40": (
        C(scenario="fig4_overlap", p=200, n1=80, n2=80, n3=80, n_s=40, m=40, h2=0.5,
          rho_eps=0.2, phi_grid=(0.5,), replicates=3, master_seed=14),
        "2afa4860e4cf43cd"),
    # no shared samples: every stack holds one block
    "fig4_overlap_ns0": (
        C(scenario="fig4_overlap", p=200, n1=80, n2=80, n3=80, n_s=0, m=40,
          phi_grid=(0.5,), replicates=3, master_seed=15),
        "09ca3a0fbb32ad81"),
    "figS2_sparsity": (
        C(scenario="figS2_sparsity", p=300, n1=150, n3=150, phi_grid=(0.6,),
          sparsity_grid=(0.05, 0.5), replicates=3, master_seed=16),
        "a00d114ab84f8356"),
    "figS5_summary_only": (
        C(scenario="figS5_summary_only", p=300, n1=150, n2=150, m=60,
          phi_grid=(0.2, 0.7), replicates=3, master_seed=17),
        "6b615fc01554dcb0"),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_replicates_digest_pinned(tmp_path, name, workers):
    cfg, digest = PINNED[name]
    run(cfg, workers=workers, out_dir=str(tmp_path))
    data = (tmp_path / "replicates.tsv").read_bytes()
    assert_digests(hashlib.sha256(data).hexdigest()[:16], digest)


def test_fig2_cohort_draws_are_seen_at_every_module_global(tmp_path, monkeypatch):
    """A wrapper of ``gen_independent_cohorts`` installed at every
    ``crosstrait`` module global that holds it, as the benchmark tracer
    installs one, sees one call per cohort field (n1, n2, n3) of each fig2
    task, and the fig2 digest holds."""
    cfg, digest = PINNED["fig2_all_snp"]
    original, calls = synth.gen_independent_cohorts, []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "crosstrait" or name.startswith("crosstrait."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    run(cfg, workers=1, out_dir=str(tmp_path))
    tasks = len(cfg.phi_grid) * cfg.replicates
    assert len(calls) == 3 * tasks
    assert [(s.n1, s.n2, s.n3) for s in calls[:3]] == [(60, 0, 0), (0, 60, 0), (0, 0, 60)]
    data = (tmp_path / "replicates.tsv").read_bytes()
    assert_digests(hashlib.sha256(data).hexdigest()[:16], digest)


def _sha16(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _seed18_inputs(tmp_path, *outputs):
    """(n, p, paths): the seed-18 discovery and target containers and the
    alpha and eta phenotypes, written, and paths for ``outputs``."""
    n, p = 120, 481
    arch = TraitArchitecture.shared_causal(p, 60, phi=0.5, h2=0.5, traits=("alpha", "eta"))
    b = gen_independent_cohorts(arch, CohortSizes(n1=n, n3=n), seed=18, traits=("alpha", "eta"))
    P = {k: str(tmp_path / k) for k in
         ("disc.xtg", "target.xtg", "y_alpha.tsv", "y_eta.tsv", *outputs)}
    io_files.write_genotype_bin(P["disc.xtg"], b.disc_alpha)
    io_files.write_genotype_bin(P["target.xtg"], b.target)
    io_files.write_phenotype_tsv(P["y_alpha.tsv"], b.y_alpha.y)
    io_files.write_phenotype_tsv(P["y_eta.tsv"], b.y_eta.y)
    return n, p, P


def test_file_pipeline_digests_pinned(tmp_path, capsys):
    """``gwas`` -> ``score`` -> screened ``score`` -> ``estimate`` through the
    CLI on one generated dataset; p = 481 gives 121 bytes per packed row."""
    n, p, P = _seed18_inputs(tmp_path, "summary.tsv", "scores_all.tsv", "scores_p.tsv",
                             "estimate.tsv")
    commands = [
        ["gwas", "--genotypes", P["disc.xtg"], "--phenotype", P["y_alpha.tsv"],
         "--out", P["summary.tsv"]],
        ["score", "--genotypes", P["target.xtg"], "--summary", P["summary.tsv"],
         "--out", P["scores_all.tsv"]],
        ["score", "--genotypes", P["target.xtg"], "--summary", P["summary.tsv"],
         "--rule", "pvalue", "--cutoff", "0.05", "--out", P["scores_p.tsv"]],
        ["estimate", "--case", "ae", "--target-geno", P["target.xtg"],
         "--target-pheno", P["y_eta.tsv"], "--summary-a", P["summary.tsv"],
         "--n1", str(n), "--p", str(p), "--h2a", "0.5", "--h2e", "0.5",
         "--out", P["estimate.tsv"]],
    ]
    for argv in commands:
        assert main(argv) == 0
    with open(P["estimate.tsv"]) as fh:
        assert capsys.readouterr().out.endswith(fh.read())
    got = {k: _sha16(P[k]) for k in
           ("y_alpha.tsv", "summary.tsv", "scores_all.tsv", "scores_p.tsv", "estimate.tsv")}
    assert_digests(got, {
        "y_alpha.tsv": "a42e9446bfa333ee",
        "summary.tsv": "96a04bb480e7b445",
        "scores_all.tsv": "ae3b0c6d83f4d3bd",
        "scores_p.tsv": "93a02a3652905dc8",
        "estimate.tsv": "d1ec12c5a7038178",
    })


def test_estimate_two_summary_digests_pinned(tmp_path, capsys):
    """``estimate`` of the two-summary cases on the same seed-18 data: the
    discovery summary of alpha against a target summary of eta, paired by
    position, as effects (summary-ab) and as two target scores (ab)."""
    n, p, P = _seed18_inputs(tmp_path, "summary_a.tsv", "summary_b.tsv", "summary_ab.tsv",
                             "ab.tsv")
    design = ["--summary-a", P["summary_a.tsv"], "--summary-b", P["summary_b.tsv"],
              "--n1", str(n), "--n2", str(n), "--p", str(p), "--h2a", "0.5", "--h2b", "0.5"]
    commands = [
        ["gwas", "--genotypes", P["disc.xtg"], "--phenotype", P["y_alpha.tsv"],
         "--out", P["summary_a.tsv"]],
        ["gwas", "--genotypes", P["target.xtg"], "--phenotype", P["y_eta.tsv"],
         "--out", P["summary_b.tsv"]],
        ["estimate", "--case", "summary-ab", *design, "--out", P["summary_ab.tsv"]],
        ["estimate", "--case", "ab", "--target-geno", P["target.xtg"], *design,
         "--out", P["ab.tsv"]],
    ]
    for argv in commands:
        assert main(argv) == 0
    capsys.readouterr()
    got = {k: _sha16(P[k]) for k in ("summary_b.tsv", "summary_ab.tsv", "ab.tsv")}
    assert_digests(got, {
        "summary_b.tsv": "3901a59135bf3ff3",
        "summary_ab.tsv": "89d12422e7a1b5e7",
        "ab.tsv": "036b9f8e0e8f70a4",
    })


def test_failed_digest_names_both_stacks(monkeypatch):
    monkeypatch.setitem(globals(), "VERIFIED_STACK", ("1.0.0", ["SSE2", "SSE3"]))
    version, baseline = running_stack()
    with pytest.raises(AssertionError) as exc:
        assert_digests("0" * 16, "1" * 16)
    assert str(exc.value).startswith(
        "digests verified on numpy 1.0.0 (SIMD baseline SSE2 SSE3); running numpy "
        f"{version} (SIMD baseline {' '.join(baseline)})\n")
