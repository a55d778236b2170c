"""Acceptance suite: one test per numbered criterion, at stated tolerances.

Each test prints a single `[criterion NN] PASS/FAIL` line (run pytest with
-s to see them live).  The full suite regenerates everything from fixed
master seeds; expect roughly 15 minutes on one laptop core, dominated by
the paper-scale run behind criteria 1-2.
"""

import math
import time

import numpy as np
import pytest

from crosstrait import kernels
from crosstrait.cli import main as cli_main
from crosstrait.estimators import (
    DesignMeta,
    ScreenCounts,
    bias_factor_ab,
    bias_factor_ae,
    bias_factor_summary_ab,
    overlap_factor_case_i,
    overlap_factor_case_ii,
    raw_cosine,
    screened_factor_ab,
    screened_factor_ae,
)
from crosstrait.experiments import (
    DEFAULT_THRESHOLDS,
    ExperimentConfig,
    run,
)
from crosstrait.gwas import marginal_gwas
from crosstrait.moments import ALL_TAGS, monte_carlo_check_many
from crosstrait.prs import score
from crosstrait.synth import CohortSizes, TraitArchitecture, gen_genotypes, gen_independent_cohorts


def report(number: int, description: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {number:02d}] {status}: {description} | {detail}")
    assert ok, f"criterion {number}: {description}: {detail}"


def agg_mean(result, point_id: str, estimator: str, default=None):
    for a in result.aggregate_rows:
        if a.point_id == point_id and a.estimator == estimator:
            return a.mean
    if default is not None:
        return default
    raise KeyError(f"no aggregate for {point_id}/{estimator}")


@pytest.fixture(scope="module")
def paper_scale_run():
    """Criteria 1-2: all-SNP estimators at the full published scale."""
    cfg = ExperimentConfig(
        scenario="fig2_all_snp", p=10000, n1=10000, n2=10000, n3=10000,
        m=2000, h2=1.0, phi_grid=(0.9,), replicates=20, master_seed=20240901,
    )
    t0 = time.time()
    result = run(cfg)
    return result, time.time() - t0


def test_criterion_01_raw_and_corrected_phenotype_score(paper_scale_run):
    result, elapsed = paper_scale_run
    raw = agg_mean(result, "phi=0.9", "G_ae:raw")
    corrected = agg_mean(result, "phi=0.9", "G_ae:corrected")
    ok = abs(raw - 0.636) <= 0.02 and abs(corrected - 0.90) <= 0.03 and elapsed <= 600
    report(1, "attenuation at published scale (phenotype vs score)", ok,
           f"raw={raw:.4f} (0.636+-0.02) corrected={corrected:.4f} (0.90+-0.03) "
           f"elapsed={elapsed:.0f}s (<=600)")


def test_criterion_02_raw_and_corrected_score_score(paper_scale_run):
    result, _ = paper_scale_run
    raw = agg_mean(result, "phi=0.9", "G_ab:raw")
    corrected = agg_mean(result, "phi=0.9", "G_ab:corrected")
    ok = abs(raw - 0.45) <= 0.02 and abs(corrected - 0.90) <= 0.03
    report(2, "attenuation at published scale (score vs score)", ok,
           f"raw={raw:.4f} (0.45+-0.02) corrected={corrected:.4f} (0.90+-0.03)")


def test_criterion_03_summary_only_estimator():
    cfg = ExperimentConfig(
        scenario="figS5_summary_only", p=4000, n1=4000, n2=4000, m=800,
        h2=1.0, phi_grid=(0.5,), replicates=100, master_seed=3,
    )
    t0 = time.time()
    result = run(cfg)
    elapsed = time.time() - t0
    factor = bias_factor_summary_ab(
        DesignMeta(case_tag="summary_ab", p=4000, n1=4000, n2=4000,
                   h2_alpha=1.0, h2_beta=1.0)
    )
    raw = agg_mean(result, "phi=0.5", "phi_ab_summary:raw")
    corrected = agg_mean(result, "phi=0.5", "phi_ab_summary:corrected")
    ok = (abs(raw - 0.5 * factor) <= 0.02 and abs(corrected - 0.50) <= 0.03
          and elapsed <= 300)
    report(3, "summary-statistics-only estimator", ok,
           f"raw={raw:.4f} (target {0.5 * factor:.4f}+-0.02) "
           f"corrected={corrected:.4f} (0.50+-0.03) elapsed={elapsed:.0f}s (<=300)")


def test_criterion_04_sparsity_independence():
    cfg = ExperimentConfig(
        scenario="figS2_sparsity", p=4000, n1=4000, n3=4000, h2=1.0,
        phi_grid=(0.5,), sparsity_grid=(0.02, 0.2, 0.8),
        replicates=60, master_seed=4,
    )
    result = run(cfg)
    raws = [agg_mean(result, f"mp={s:g}", "G_ae:raw") for s in (0.02, 0.2, 0.8)]
    corrs = [agg_mean(result, f"mp={s:g}", "G_ae:corrected") for s in (0.02, 0.2, 0.8)]
    max_gap = max(abs(a - b) for a in raws for b in raws)
    ok = max_gap < 0.03 and all(abs(c - 0.50) <= 0.03 for c in corrs)
    report(4, "attenuation independent of sparsity", ok,
           f"raw means={[f'{r:.4f}' for r in raws]} max gap={max_gap:.4f} (<0.03) "
           f"corrected={[f'{c:.4f}' for c in corrs]} (0.50+-0.03)")


def test_criterion_05_marginal_effect_variance_law():
    cfg = ExperimentConfig(
        scenario="fig1_gwas_properties", p=1000, n1=5000, sigma2=0.4,
        sigma2_eps=1.0, sparsity_grid=(1.0,), replicates=1500,
        master_seed=5, standardize_y=False,
    )
    result = run(cfg)
    vals = [r.raw for r in result.replicate_rows if r.estimator == "bhat_null_probe"]
    var = float(np.var(vals, ddof=1))
    ok = abs(var - 0.08) / 0.08 <= 0.10
    report(5, "variance law of a null marginal effect", ok,
           f"Var(effect)={var:.5f} over {len(vals)} replicates (0.08 +- 10%)")


def test_criterion_06_screening_tradeoff():
    base = dict(
        scenario="fig3_screening", p=4000, n1=4000, n3=4000, h2=1.0,
        phi_grid=(0.8,), thresholds=DEFAULT_THRESHOLDS, replicates=40,
        master_seed=6,
    )
    result = run(ExperimentConfig(sparsity_grid=(0.01, 0.8), **base))

    def mean_at(mp, thr):
        return agg_mean(result, f"mp={mp:g}", f"G_T@{thr:g}:raw", default=0.0)

    # sparse signals: screening beats the all-SNP score
    all_snp_sparse = mean_at(0.01, 1.0)
    best_sparse = max(mean_at(0.01, t) for t in DEFAULT_THRESHOLDS if t != 1.0)
    sparse_ok = best_sparse - all_snp_sparse > 0.02

    # dense signals: nothing beats all SNPs, and tight screens are ruinous
    all_snp_dense = mean_at(0.8, 1.0)
    best_dense = max(mean_at(0.8, t) for t in DEFAULT_THRESHOLDS)
    tight = [mean_at(0.8, t) for t in DEFAULT_THRESHOLDS if t <= 1e-4]
    dense_ok = (best_dense - all_snp_dense <= 0.01
                and all(all_snp_dense - t > 0.05 for t in tight))
    ok = sparse_ok and dense_ok
    report(6, "screening helps sparse, hurts dense", ok,
           f"sparse: best={best_sparse:.4f} vs all={all_snp_sparse:.4f} (gap>0.02); "
           f"dense: all={all_snp_dense:.4f} best={best_dense:.4f} "
           f"tight means={[f'{t:.3f}' for t in tight]}")


def test_criterion_07_overlap_discovery_target():
    phis = (0.3, 0.6, 0.9)
    cfg = ExperimentConfig(
        scenario="fig4_overlap", p=5000, n1=2500, n3=2500, n_s=2500, m=1000,
        h2=1.0, phi_grid=phis, replicates=50, master_seed=7, overlap_cases=("i",),
    )
    result = run(cfg)
    factor = overlap_factor_case_i(
        DesignMeta(case_tag="overlap_case_i", p=5000, n1=2500, n3=2500, n_s=2500,
                   h2_alpha=1.0, h2_eta=1.0, h_alpha_eta=1.0)
    )
    details, ok = [], True
    for phi in phis:
        raw = agg_mean(result, f"phi={phi:g}", "G_S_ae:raw")
        corrected = agg_mean(result, f"phi={phi:g}", "G_S_ae:corrected")
        ok = ok and abs(raw - factor * phi) <= 0.02 and abs(corrected - phi) <= 0.03
        details.append(f"phi={phi}: raw={raw:.4f}~{factor * phi:.4f} corr={corrected:.4f}")
    report(7, "overlapping discovery/target samples", ok, "; ".join(details))


def test_criterion_08_overlap_discovery_pair_full():
    cfg = ExperimentConfig(
        scenario="fig4_overlap", p=4000, n1=0, n2=0, n3=4000, n_s=4000, m=800,
        h2=1.0, phi_grid=(0.5,), replicates=60, master_seed=8, overlap_cases=("ii",),
    )
    result = run(cfg)
    raw = agg_mean(result, "phi=0.5", "G_S_ab:raw")
    factor = overlap_factor_case_ii(
        DesignMeta(case_tag="overlap_case_ii", p=4000, n1=0, n2=0, n3=4000,
                   n_s=4000, h2_alpha=1.0, h2_beta=1.0, h_alpha_beta=1.0)
    )
    ok = abs(raw - 0.5) <= 0.03 and abs(factor - 1.0) <= 1e-12
    report(8, "fully overlapped discovery pair is unbiased", ok,
           f"mean raw={raw:.4f} (0.50+-0.03), theoretical factor={factor:.6f}")


def test_criterion_09_moment_oracles():
    arch = TraitArchitecture.shared_causal(1000, 200, phi=0.6, h2=0.8)
    meta = DesignMeta(case_tag="indep_ae", p=1000, n1=500, n2=500, n3=500, n_s=250,
                      h2_alpha=0.8, h2_beta=0.8, h2_eta=0.8)
    reports = monte_carlo_check_many(
        list(ALL_TAGS), arch, meta, replicates=200, seed=9,
        rho_eps=0.3, selection=(120, 200, 100, 150),
    )
    worst = max(reports, key=lambda r: abs(r.z))
    ok = all(r.passed for r in reports)
    detail = f"{len(reports)} quantities, worst |z|={abs(worst.z):.2f} ({worst.quantity_tag})"
    report(9, "closed-form moment oracles vs simulation", ok, detail)


# published cross-disorder score associations: (study, n1, p, h2_study,
# raw partial R2 in %, corrected partial R2 in %)
PUBLISHED_R2_ROWS = [
    ("ADHD", 55374, 129052, 0.100, 0.1006, 4.3005),
    ("ADHD", 55374, 129052, 0.100, 0.0970, 4.7888),
    ("ADHD", 55374, 129052, 0.100, 0.1392, 5.9635),
    ("ADHD", 55374, 129052, 0.100, 0.1133, 4.8436),
    ("ADHD", 55374, 129052, 0.100, 0.1017, 4.9767),
    ("ADHD", 55374, 129052, 0.100, 0.1055, 4.8518),
    ("ADHD", 55374, 129052, 0.100, 0.1509, 5.4437),
    ("ADHD", 55374, 129052, 0.100, 0.1862, 6.6136),
    ("ADHD", 55374, 129052, 0.100, 0.1306, 5.4399),
    ("ADHD", 55374, 129052, 0.100, 0.1089, 5.6350),
    ("ADHD", 55374, 129052, 0.100, 0.1974, 7.2696),
    ("ADHD", 55374, 129052, 0.100, 0.1233, 5.6933),
    ("ADHD", 55374, 129052, 0.100, 0.1233, 6.1215),
    ("ADHD", 55374, 129052, 0.100, 0.1127, 5.6610),
    ("ADHD", 55374, 129052, 0.100, 0.1098, 4.8173),
    ("ADHD", 55374, 129052, 0.100, 0.1347, 6.4249),
    ("ADHD", 55374, 129052, 0.100, 0.1142, 5.2611),
    ("BD-BCC-L1", 41653, 215655, 0.205, 0.1092, 4.7963),
    ("SCZ-BCC-L1", 65967, 204367, 0.256, 0.1315, 2.8821),
    ("SCZ", 65967, 204367, 0.256, 0.1163, 3.4237),
]


def test_criterion_10_partial_r2_backsolve():
    solved = {}
    h2es = []
    for name, n1, p, h2a, raw_pct, corr_pct in PUBLISHED_R2_ROWS:
        h2e = (n1 + p / h2a) / n1 * (raw_pct / corr_pct)
        h2es.append(h2e)
        solved[name] = h2e
    in_range = all(0.224 <= h <= 0.733 for h in h2es)
    same_tract_gap = abs(solved["SCZ-BCC-L1"] - solved["BD-BCC-L1"])
    ok = in_range and same_tract_gap <= 0.002
    report(10, "published partial-R2 corrections back-solve consistently", ok,
           f"h2 range=[{min(h2es):.3f}, {max(h2es):.3f}] within [0.224, 0.733]; "
           f"same-tract gap={same_tract_gap:.4f} (<=0.002)")


def test_criterion_11_degenerate_regime(capsys):
    n1 = n3 = 50
    p, m, phi = 50000, 10000, 0.8
    arch = TraitArchitecture.shared_causal(p, m, phi=phi, traits=("alpha", "eta"))
    raws = []
    for rep in range(100):
        b = gen_independent_cohorts(arch, CohortSizes(n1=n1, n3=n3),
                                    seed=11_000 + rep, traits=("alpha", "eta"))
        stats = marginal_gwas(b.disc_alpha, b.y_alpha.y)
        prs = score(b.target, stats)
        raws.append(raw_cosine(b.y_eta.y, prs.scores))
    med = float(np.median(np.abs(raws)))
    bound = 5 / math.sqrt(n3)

    rc = cli_main(["correct", "--raw", f"{med}", "--n1", str(n1), "--n3", str(n3),
                   "--p", str(p), "--h2a", "1", "--h2e", "1", "--case", "ae"])
    out = capsys.readouterr().out
    ok = med < bound and rc == 0 and "degenerate_regime" in out
    report(11, "degenerate regime: estimator collapses and is flagged", ok,
           f"median |raw|={med:.4f} (<{bound:.4f}); CLI flag emitted={'degenerate_regime' in out}")


class TestCriterion12EngineeringInvariants:
    def test_parallel_serial_bit_identical(self, tmp_path):
        cfg = ExperimentConfig(
            scenario="fig2_all_snp", p=150, n1=120, n2=120, n3=120, m=40,
            phi_grid=(0.4, 0.8), replicates=3, master_seed=12,
        )
        run(cfg, workers=1, out_dir=str(tmp_path / "w1"))
        run(cfg, workers=2, out_dir=str(tmp_path / "w2"))
        same = ((tmp_path / "w1" / "replicates.tsv").read_bytes()
                == (tmp_path / "w2" / "replicates.tsv").read_bytes())
        report(12, "parallel/serial replicate equivalence", same,
               "replicates.tsv byte-identical for 1 vs 2 workers")

    def test_blocked_kernels_match_naive_loops(self):
        from crosstrait.gwas import SummaryStats

        rng = np.random.default_rng(12)
        G = gen_genotypes(100, 50, seed=12)
        y = rng.standard_normal(100)
        s = (G.codes - G.col_mean) / G.col_sd
        y_std = (y - y.mean()) / np.sqrt(np.mean((y - y.mean()) ** 2))
        naive_effect = np.array([float(s[:, j] @ y_std) / 100 for j in range(50)])
        # the scan and score (one block), and the kernels over several blocks
        effects = (marginal_gwas(G, y).effect,
                   kernels.std_crossprod(G.codes, G.col_mean, G.col_sd, y_std, block_size=13) / 100)
        rel_effect = max(np.max(np.abs(e - naive_effect) / np.maximum(np.abs(naive_effect), 1e-300))
                         for e in effects)

        w = rng.standard_normal(50)
        w_stats = SummaryStats(
            snp_id=None, effect=w, se=np.ones(50), tstat=w,
            pvalue=np.full(50, 0.5), n=100,
        )
        scores = (score(G, w_stats).scores,
                  kernels.std_matvec(G.codes, G.col_mean, G.col_sd, w, block_size=9))
        naive = np.array([float(s[i] @ w) for i in range(100)])
        rel_score = max(np.max(np.abs(t - naive) / np.maximum(np.abs(naive), 1e-300))
                        for t in scores)
        ok = rel_effect <= 1e-9 and rel_score <= 1e-9
        report(12, "blocked kernels vs naive loops", ok,
               f"max rel err: crossprod={rel_effect:.2e}, score={rel_score:.2e} (<=1e-9)")

    def test_reduction_identities(self):
        grid_ok = True
        worst = 0.0
        for n1, n2, n3, p, h2 in [
            (3000, 2000, 1500, 8000, 1.0),
            (5000, 4000, 2500, 12000, 0.6),
            (1000, 900, 800, 2000, 0.3),
        ]:
            m_ae = DesignMeta(case_tag="indep_ae", p=p, n1=n1, n3=n3,
                              h2_alpha=h2, h2_eta=h2)
            sf = screened_factor_ae(m_ae, q_alpha=p, q_alpha1=400, q_alpha_eta=300,
                                    m_alpha=400, m_alpha_eta=300)
            worst = max(worst, abs(sf - bias_factor_ae(m_ae)))

            m_ab = DesignMeta(case_tag="indep_ab", p=p, n1=n1, n2=n2,
                              h2_alpha=h2, h2_beta=h2)
            counts = ScreenCounts(m_alpha=400, m_beta=350, m_alpha_beta=200,
                                  q_alpha=p, q_alpha1=400, q_alpha_beta=200,
                                  q_beta=p, q_beta1=350)
            worst = max(worst, abs(screened_factor_ab(m_ab, counts) - bias_factor_ab(m_ab)))

            m_oi = DesignMeta(case_tag="overlap_case_i", p=p, n1=n1, n3=n3, n_s=0,
                              h2_alpha=h2, h2_eta=h2, h_alpha_eta=0.9)
            worst = max(worst, abs(overlap_factor_case_i(m_oi) - bias_factor_ae(m_ae)))

            m_oii = DesignMeta(case_tag="overlap_case_ii", p=p, n1=n1, n2=n2, n_s=0,
                               h2_alpha=h2, h2_beta=h2, h_alpha_beta=0.9)
            worst = max(worst, abs(overlap_factor_case_ii(m_oii) - bias_factor_ab(m_ab)))
        grid_ok = worst <= 1e-12
        report(12, "reduction identities (q=p, n_s=0)", grid_ok,
               f"worst abs deviation={worst:.2e} (<=1e-12)")
