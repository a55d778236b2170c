import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosstrait import kernels
from crosstrait.errors import DataFormatError
from crosstrait.gwas import SummaryStats, marginal_gwas, threshold_select
from crosstrait.prs import ScreenRule, align_snps, score
from crosstrait.synth import (
    CohortSizes,
    GenotypeMatrix,
    TraitArchitecture,
    gen_genotypes,
    gen_independent_cohorts,
)


def make_stats(effect, pvalue=None, ids=None, n=100):
    effect = np.asarray(effect, dtype=float)
    p = effect.shape[0]
    if pvalue is None:
        pvalue = np.full(p, 0.5)
    if ids is None:
        ids = np.array([f"snp{j:07d}" for j in range(p)])
    se = np.ones(p)
    return SummaryStats(snp_id=np.asarray(ids), effect=effect, se=se,
                        tstat=effect / se, pvalue=np.asarray(pvalue, dtype=float), n=n)


def naive_score(W, effect, keep):
    """Double-loop oracle over samples and selected SNPs."""
    out = np.zeros(W.n)
    for i in range(W.n):
        acc = 0.0
        for j in np.flatnonzero(keep):
            x = (float(W.codes[i, j]) - W.col_mean[j]) / W.col_sd[j]
            acc += x * effect[j]
        out[i] = acc
    return out


class TestScore:
    def test_single_column(self):
        W = GenotypeMatrix.from_codes(np.array([[0], [1], [2], [1]], dtype=np.uint8))
        stats = make_stats([2.0])
        prs = score(W, stats)
        assert np.allclose(prs.scores, 2.0 * (W.codes[:, 0] - W.col_mean[0]) / W.col_sd[0],
                           atol=1e-12)
        assert prs.n_selected == 1

    def test_blocked_equals_naive_double_loop(self):
        rng = np.random.default_rng(0)
        W = gen_genotypes(100, 50, seed=1)
        effect = rng.standard_normal(50)
        pval = rng.uniform(size=50)
        stats = make_stats(effect, pval)
        keep = pval <= 0.4
        oracle = naive_score(W, effect, keep)
        cols = np.flatnonzero(keep)
        for s in (score(W, stats, ScreenRule("pvalue_cutoff", 0.4)).scores,
                  kernels.std_matvec(W.codes, W.col_mean, W.col_sd, effect[cols], indices=cols,
                                     block_size=7)):
            rel = np.abs(s - oracle) / np.maximum(np.abs(oracle), 1e-300)
            assert rel.max() <= 1e-9

    def test_fixed_block_size_bit_reproducible(self):
        rng = np.random.default_rng(2)
        W = gen_genotypes(200, 80, seed=3)
        effect = rng.standard_normal(80)
        assert np.array_equal(score(W, make_stats(effect)).scores,
                              score(W, make_stats(effect)).scores)
        a = kernels.std_matvec(W.codes, W.col_mean, W.col_sd, effect, block_size=16)
        b = kernels.std_matvec(W.codes, W.col_mean, W.col_sd, effect, block_size=16)
        assert np.array_equal(a, b)

    def test_monotone_selection_under_tightening(self):
        rng = np.random.default_rng(4)
        W = gen_genotypes(50, 60, seed=5)
        stats = make_stats(rng.standard_normal(60), rng.uniform(size=60))
        prev = 61
        for cutoff in (1.0, 0.5, 0.2, 0.05, 1e-3, 1e-6):
            n_sel = score(W, stats, ScreenRule("pvalue_cutoff", cutoff)).n_selected
            assert n_sel <= prev
            prev = n_sel

    def test_threshold_ladder_q_path(self):
        # the standard threshold ladder yields a monotone selected-count path
        # starting from all p SNPs at cutoff 1
        from crosstrait.experiments import DEFAULT_THRESHOLDS
        from crosstrait.gwas import marginal_gwas
        from crosstrait.synth import CohortSizes, TraitArchitecture, gen_independent_cohorts

        arch = TraitArchitecture.shared_causal(500, 50, phi=0.8, traits=("alpha",))
        b = gen_independent_cohorts(arch, CohortSizes(n1=800), seed=13, traits=("alpha",))
        stats = marginal_gwas(b.disc_alpha, b.y_alpha.y)
        path = [score(b.disc_alpha, stats, ScreenRule("pvalue_cutoff", t)).n_selected
                for t in DEFAULT_THRESHOLDS]
        assert path[0] == 500
        assert all(a >= b for a, b in zip(path, path[1:]))

    def test_linearity_in_effects(self):
        rng = np.random.default_rng(6)
        W = gen_genotypes(40, 30, seed=7)
        effect = rng.standard_normal(30)
        s1 = score(W, make_stats(effect)).scores
        s3 = score(W, make_stats(3.0 * effect)).scores
        assert np.allclose(s3, 3.0 * s1, rtol=1e-12, atol=1e-12)

    def test_empty_selection_flagged(self):
        W = gen_genotypes(30, 10, seed=8)
        stats = make_stats(np.ones(10), np.full(10, 0.9))
        prs = score(W, stats, ScreenRule("pvalue_cutoff", 1e-8))
        assert prs.empty_selection
        assert prs.n_selected == 0
        assert np.all(prs.scores == 0.0)

    def test_empty_score_is_degenerate_for_estimators(self):
        from crosstrait.errors import DegenerateScoreError
        from crosstrait.estimators import raw_cosine

        with pytest.raises(DegenerateScoreError):
            raw_cosine(np.zeros(5), np.ones(5))


class TestScreenRuleMask:
    # p-values 0.5 and effect 1.0 sit exactly on a cutoff below
    EFFECT = [0.2, -1.5, 1.0, 0.7, -0.5, 2.0]
    PVALUE = [0.5, 0.01, 0.2, 0.5, 0.9, 1e-6]

    @pytest.mark.parametrize(
        "rule, want",
        [
            (ScreenRule(), [1, 1, 1, 1, 1, 1]),
            (ScreenRule("pvalue_cutoff", 0.3), [0, 1, 1, 0, 0, 1]),
            (ScreenRule("pvalue_cutoff", 0.5), [1, 1, 1, 1, 0, 1]),
            (ScreenRule("effect_cutoff", 0.5), [0, 1, 1, 1, 0, 1]),
            (ScreenRule("effect_cutoff", 1.0), [0, 1, 0, 0, 0, 1]),
        ],
        ids=["none", "pvalue", "pvalue_on_cutoff", "effect", "effect_on_cutoff"],
    )
    def test_score_and_selection_apply_the_mask(self, rule, want):
        W = gen_genotypes(30, 6, seed=4)
        stats = make_stats(self.EFFECT, pvalue=self.PVALUE)
        mask = rule.mask(stats)
        assert mask.tolist() == [bool(w) for w in want]
        assert np.array_equal(threshold_select(stats, rule).indices, np.flatnonzero(mask))
        assert score(W, stats, rule).n_selected == mask.sum()


class TestAlignment:
    def test_positional_when_ids_absent(self):
        W = gen_genotypes(20, 5, seed=9)
        stats = make_stats(np.ones(5))
        w_idx, s_idx = align_snps(W, stats)
        assert np.array_equal(w_idx, np.arange(5))

    def test_intersection_sorted_and_counted(self):
        W = gen_genotypes(30, 4, seed=10)
        W.snp_ids = np.array(["rs4", "rs1", "rs3", "rs9"])
        stats = make_stats([1.0, 2.0, 3.0], ids=["rs3", "rs1", "rs7"])
        w_idx, s_idx = align_snps(W, stats)
        assert list(W.snp_ids[w_idx]) == ["rs1", "rs3"]  # sorted id order
        assert list(stats.snp_id[s_idx]) == ["rs1", "rs3"]

    def test_aligned_score_matches_manual(self):
        W = gen_genotypes(25, 3, seed=11)
        W.snp_ids = np.array(["a", "b", "c"])
        stats = make_stats([5.0, -1.0], ids=["c", "b"])
        prs = score(W, stats)
        s = (W.codes - W.col_mean) / W.col_sd
        expected = -1.0 * s[:, 1] + 5.0 * s[:, 2]
        assert np.allclose(prs.scores, expected, atol=1e-12)

    def test_disjoint_ids_error(self):
        W = gen_genotypes(10, 2, seed=12)
        W.snp_ids = np.array(["a", "b"])
        stats = make_stats([1.0], ids=["zzz"])
        with pytest.raises(DataFormatError, match="no SNP ids in common"):
            score(W, stats)

    @pytest.mark.parametrize("w_ids, s_ids, side", [
        (None, ["rs1", "rs2", "rs3"], "genotypes"),
        (["rs1", "rs2", "rs3"], None, "summary statistics"),
        (None, ["snp0000001", "snp0000000", "snp0000002"], "genotypes"),
    ], ids=["no_genotype_ids", "no_summary_ids", "default_ids_out_of_order"])
    def test_positional_against_ids_refused(self, w_ids, s_ids, side):
        W = gen_genotypes(10, 3, seed=13)
        W.snp_ids = None if w_ids is None else np.array(w_ids)
        stats = make_stats([1.0, 2.0, 3.0])
        stats.snp_id = None if s_ids is None else np.array(s_ids)
        with pytest.raises(DataFormatError, match=f"the {side} carry no SNP ids"):
            align_snps(W, stats)

    def test_positional_sides_of_unequal_length_refused(self):
        W = gen_genotypes(10, 3, seed=14)
        with pytest.raises(DataFormatError, match="3 against 4"):
            align_snps(W, make_stats(np.ones(4)))

    @given(st.permutations(range(12)), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_score_invariant_under_summary_row_permutation(self, perm, with_ids):
        """Rows of a summary with ids may come in any order and give the same
        bits; the default ids align only in order, and otherwise refuse."""
        W = gen_genotypes(40, 12, seed=15)
        ids = np.array([f"rs{j}" for j in range(12)]) if with_ids else None
        W.snp_ids = ids
        effect = np.random.default_rng(16).standard_normal(12)
        stats = make_stats(effect, ids=ids)
        perm = np.asarray(perm)
        permuted = make_stats(effect[perm], ids=stats.snp_id[perm])
        want = score(W, stats).scores
        if with_ids or np.array_equal(perm, np.arange(12)):
            assert np.array_equal(score(W, permuted).scores, want)
        else:
            with pytest.raises(DataFormatError):
                score(W, permuted)


class TestScoreVarianceGrowth:
    def test_score_norm_tracks_moment_formula(self):
        # |score|^2 * n1^2 should match the closed-form expectation of the
        # unscaled quadratic form within Monte-Carlo error
        from crosstrait.estimators import DesignMeta
        from crosstrait.moments import predict

        n1 = n3 = 400
        p, m = 800, 160
        arch = TraitArchitecture.shared_causal(p, m, phi=0.0, traits=("alpha", "eta"))
        meta = DesignMeta(case_tag="indep_ae", p=p, n1=n1, n3=n3,
                          h2_alpha=1.0, h2_eta=1.0)
        pred = predict("var_alpha_den", arch, meta).expected_value
        vals = []
        for rep in range(40):
            b = gen_independent_cohorts(arch, CohortSizes(n1=n1, n3=n3),
                                        seed=900 + rep, traits=("alpha", "eta"))
            stats = marginal_gwas(b.disc_alpha, b.y_alpha.y, standardize_y=False)
            prs = score(b.target, stats)
            vals.append(float(prs.scores @ prs.scores) * n1**2)
        emp = float(np.mean(vals))
        assert abs(emp - pred) / pred < 0.1
