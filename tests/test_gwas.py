import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crosstrait
from crosstrait import kernels
from crosstrait.errors import ParameterError
from crosstrait.gwas import (
    MIN_PVALUE,
    SummaryStats,
    average_ranks,
    marginal_gwas,
    screen_metrics,
    significance_order,
    threshold_select,
)
from crosstrait.prs import ScreenRule
from crosstrait.synth import (
    CohortSizes,
    GenotypeMatrix,
    TraitArchitecture,
    gen_effects,
    gen_genotypes,
    gen_independent_cohorts,
    gen_phenotype,
)


def naive_marginal_effects(G, y, standardize_y=True):
    """Per-SNP loop oracle: one simple regression slope per column."""
    y_c = y - y.mean()
    if standardize_y:
        y_c = y_c / np.sqrt(np.mean(y_c**2))
    out = np.empty(G.p)
    for j in range(G.p):
        x = (G.codes[:, j].astype(float) - G.col_mean[j]) / G.col_sd[j]
        out[j] = float(x @ y_c) / G.n
    return out


def explicit_ols_se(G, y_c):
    """Two-pass residual OLS oracle with the same 1/n variance convention."""
    out = np.empty(G.p)
    for j in range(G.p):
        x = (G.codes[:, j].astype(float) - G.col_mean[j]) / G.col_sd[j]
        beta = float(x @ y_c) / G.n
        mu = y_c.mean()
        resid = y_c - mu - beta * x
        s2 = float(np.mean(resid**2))
        out[j] = np.sqrt(s2 / float(x @ x))
    return out


class TestMarginalGwas:
    def test_self_regression(self):
        G = gen_genotypes(400, 20, seed=0)
        k = 7
        y = (G.codes[:, k] - G.col_mean[k]) / G.col_sd[k]
        stats = marginal_gwas(G, y)
        assert stats.effect[k] == pytest.approx(1.0, abs=1e-12)
        assert stats.pvalue[k] == MIN_PVALUE

    def test_blocked_equals_naive_loop(self):
        rng = np.random.default_rng(1)
        G = gen_genotypes(100, 50, seed=2)
        y = rng.standard_normal(100)
        y_std = (y - y.mean()) / np.sqrt(np.mean((y - y.mean()) ** 2))
        oracle = naive_marginal_effects(G, y)
        for effect in (marginal_gwas(G, y).effect,
                       kernels.std_crossprod(G.codes, G.col_mean, G.col_sd, y_std,
                                             block_size=7) / G.n):
            rel = np.abs(effect - oracle) / np.maximum(np.abs(oracle), 1e-300)
            assert rel.max() <= 1e-9

    def test_block_size_irrelevant(self):
        rng = np.random.default_rng(3)
        G = gen_genotypes(120, 40, seed=4)
        y = rng.standard_normal(120)
        y_c = y - y.mean()
        y_c = y_c / np.sqrt(np.mean(y_c * y_c))
        scan = marginal_gwas(G, y).effect
        for block in (5, 64):
            t = kernels.std_crossprod(G.codes, G.col_mean, G.col_sd, y_c, block_size=block)
            assert np.array_equal(t / G.n, scan)

    def test_se_matches_explicit_two_pass_ols(self):
        rng = np.random.default_rng(5)
        G = gen_genotypes(80, 10, seed=6)
        y = rng.standard_normal(80) * 2.0 + 1.0
        stats = marginal_gwas(G, y, standardize_y=False)
        y_c = y - y.mean()
        oracle = explicit_ols_se(G, y_c)
        assert np.abs(stats.se - oracle).max() / oracle.min() <= 1e-9

    def test_pvalue_and_tstat_order_agree(self):
        G = gen_genotypes(300, 200, seed=7)
        arch = TraitArchitecture.shared_causal(200, 50, phi=0.0)
        eff = gen_effects(arch, seed=8)["alpha"]
        y = gen_phenotype(G, eff, h2=1.0, seed=9).y
        stats = marginal_gwas(G, y)
        by_p = np.lexsort((np.arange(stats.p), stats.pvalue))
        by_t = significance_order(stats)
        assert np.array_equal(by_p, by_t)

    def test_pvalues_in_unit_interval(self):
        G = gen_genotypes(200, 50, seed=10)
        y = np.random.default_rng(11).standard_normal(200)
        stats = marginal_gwas(G, y)
        assert np.all(stats.pvalue > 0) and np.all(stats.pvalue <= 1)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_pvalue_is_the_c_library_erfc_tail(self, sign):
        # the phenotype is SNP 0, and SNP j keeps a falling share of its codes:
        # |t| sweeps from inf through the subnormal tail (|t| >= 37.5) to 0
        rng = np.random.default_rng(5)
        n = 2000
        x0 = rng.binomial(2, 0.3, n).astype(np.uint8)
        cols = []
        for k in np.linspace(0, n, 400).astype(int):
            c = x0.copy()
            c[rng.choice(n, k, replace=False)] = rng.binomial(2, 0.3, k)
            cols.append(c)
        G = GenotypeMatrix.from_codes(np.column_stack(cols))
        stats = marginal_gwas(G, sign * x0)
        t = stats.tstat
        assert sign * t[0] == np.inf
        assert np.count_nonzero((np.abs(t) >= 37.5) & (np.abs(t) < 38.5)) >= 2
        want = [max(math.erfc(abs(v) / math.sqrt(2.0)), MIN_PVALUE) for v in t.tolist()]
        assert stats.pvalue.tolist() == want

    def test_dimension_mismatch(self):
        G = gen_genotypes(50, 5, seed=12)
        with pytest.raises(ParameterError):
            marginal_gwas(G, np.zeros(49))

    def test_unbiased_for_causal_effects(self):
        # mean over replicates of (effect - truth) within 3 SE of zero
        arch = TraitArchitecture.shared_causal(100, 40, phi=0.0, h2=0.8)
        diffs = []
        for rep in range(150):
            b = gen_independent_cohorts(arch, CohortSizes(n1=400), seed=1000 + rep,
                                        traits=("alpha",))
            stats = marginal_gwas(b.disc_alpha, b.y_alpha.y, standardize_y=False)
            truth = b.effects["alpha"].values
            causal = truth != 0
            diffs.append(np.mean(stats.effect[causal] - truth[causal]))
        diffs = np.array(diffs)
        se = diffs.std(ddof=1) / np.sqrt(len(diffs))
        assert abs(diffs.mean()) < 3 * se

    def test_variance_law_reduced_scale(self):
        # Monte-Carlo Var of a null-SNP effect ~ (m sigma2 + sigma2_eps) / n;
        # reduced-scale version of the acceptance-suite run
        n, m, p = 2000, 400, 401  # one null probe column
        sigma2 = 0.4
        arch = TraitArchitecture(
            p=p, m_alpha=m, sigma2_alpha=sigma2,
            h2_alpha=m * sigma2 / (m * sigma2 + 1.0),
        )
        vals = []
        for rep in range(400):
            b = gen_independent_cohorts(arch, CohortSizes(n1=n), seed=5000 + rep,
                                        traits=("alpha",))
            stats = marginal_gwas(b.disc_alpha, b.y_alpha.y, standardize_y=False)
            vals.append(stats.effect[p - 1])
        var = float(np.var(vals, ddof=1))
        expected = (m * sigma2 + 1.0) / n
        assert abs(var - expected) / expected < 0.15


class TestScreenMetrics:
    def _stats(self, tstat):
        p = len(tstat)
        t = np.asarray(tstat, dtype=float)
        return SummaryStats(
            snp_id=np.array([f"s{i}" for i in range(p)]),
            effect=t.copy(), se=np.ones(p), tstat=t,
            pvalue=np.exp(-np.abs(t)), n=100,
        )

    def _truth(self, mask):
        from crosstrait.synth import EffectVector

        vals = np.where(mask, 1.0, 0.0)
        return EffectVector(values=vals, trait_tag="alpha")

    def test_perfect_separation_auc_one(self):
        stats = self._stats([5.0, 6.0, 7.0, 0.1, 0.2, 0.3])
        truth = self._truth(np.array([1, 1, 1, 0, 0, 0], dtype=bool))
        m = screen_metrics(stats, truth)
        assert m.auc == 1.0

    def test_random_labels_auc_half(self):
        p = 2000
        rng = np.random.default_rng(13)
        stats = self._stats(rng.standard_normal(p))
        mask = np.zeros(p, dtype=bool)
        mask[rng.choice(p, p // 2, replace=False)] = True
        m = screen_metrics(stats, self._truth(mask))
        assert abs(m.auc - 0.5) < 4 / np.sqrt(p)

    def test_dense_signals_mix_up_ranking(self):
        # dense m against weak n (m/n = 16): AUC near 1/2, enrichment near m/p
        n, p = 50, 1000
        mp = 0.8
        m = int(mp * p)
        arch = TraitArchitecture.shared_causal(p, m, phi=0.0)
        aucs, enrich = [], []
        for rep in range(10):
            b = gen_independent_cohorts(arch, CohortSizes(n1=n), seed=700 + rep,
                                        traits=("alpha",))
            stats = marginal_gwas(b.disc_alpha, b.y_alpha.y)
            sm = screen_metrics(stats, b.effects["alpha"])
            aucs.append(sm.auc)
            enrich.append(sm.enrichment)
        assert abs(np.mean(aucs) - 0.5) < 0.05
        assert abs(np.mean(enrich) - mp) < 0.05

    def test_degenerate_labels_rejected(self):
        stats = self._stats([1.0, 2.0])
        with pytest.raises(ParameterError):
            screen_metrics(stats, self._truth(np.array([True, True])))

    def test_beta_mse(self):
        stats = self._stats([1.0, -1.0, 0.5])
        truth = self._truth(np.array([True, False, False]))
        m = screen_metrics(stats, truth)
        assert m.beta_mse == pytest.approx(0.0 + 1.0 + 0.25)


def _oracle_ranks(a):
    """O(n^2) average ranks: the values below, plus the mean position among
    the equal ones."""
    return np.array([(2 * np.sum(a < v) + np.sum(a == v) + 1) / 2 for v in a])


class TestAverageRanks:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-3, 3) | st.floats(-1e3, 1e3, allow_nan=False,
                                                   allow_subnormal=True),
                    min_size=1, max_size=60))
    def test_matches_quadratic_oracle(self, values):
        a = np.array(values, dtype=np.float64)
        assert average_ranks(a).tolist() == _oracle_ranks(a).tolist()

    def test_nan_gives_all_nan(self):
        assert np.isnan(average_ranks(np.array([1.0, np.nan, 0.5]))).all()

    def test_empty(self):
        assert average_ranks(np.array([])).shape == (0,)


class TestThresholdSelect:
    def _setup(self, seed=14):
        arch = TraitArchitecture.shared_causal(200, 40, phi=0.9, traits=("alpha", "eta"))
        b = gen_independent_cohorts(arch, CohortSizes(n1=500), seed=seed,
                                    traits=("alpha", "eta"))
        stats = marginal_gwas(b.disc_alpha, b.y_alpha.y)
        return stats, b.effects

    def test_cutoff_one_selects_everything(self):
        stats, eff = self._setup()
        sel = threshold_select(stats, ScreenRule("pvalue_cutoff", 1.0),
                               truth=eff["alpha"], overlap_truth=eff["eta"])
        assert sel.q == 200
        assert sel.q1 == 40 and sel.q2 == 160
        assert sel.q_overlap == 40

    def test_cutoff_below_min_gives_empty(self):
        stats, eff = self._setup()
        tiny = float(np.min(stats.pvalue)) / 2
        sel = threshold_select(stats, ScreenRule("pvalue_cutoff", tiny))
        assert sel.empty and sel.q == 0

    def test_sparse_signals_enrich_selection(self):
        # m/p = 0.01 with strong per-SNP signal: selected set mostly causal
        arch = TraitArchitecture.shared_causal(2000, 20, phi=0.9, traits=("alpha", "eta"))
        b = gen_independent_cohorts(arch, CohortSizes(n1=4000), seed=15,
                                    traits=("alpha", "eta"))
        stats = marginal_gwas(b.disc_alpha, b.y_alpha.y)
        sel = threshold_select(stats, ScreenRule("pvalue_cutoff", 1e-4),
                               truth=b.effects["alpha"])
        assert sel.q1 / sel.q > 10 * (20 / 2000)

    def test_effect_cutoff_is_strict_inequality(self):
        stats, eff = self._setup()
        c = float(np.abs(stats.effect).max())
        sel = threshold_select(stats, ScreenRule("effect_cutoff", c))
        assert sel.q == 0

    def test_none_rule(self):
        stats, _ = self._setup()
        sel = threshold_select(stats, ScreenRule())
        assert sel.q == stats.p


def test_import_leaves_scipy_stats_unloaded():
    # crosstrait needs numpy only: neither the import nor a fig1 run, the one
    # that ranks, may load any part of scipy
    src = os.path.dirname(os.path.dirname(crosstrait.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, crosstrait\n"
        "def scipy(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not scipy(), scipy()\n"
        "from crosstrait.experiments import ExperimentConfig, run\n"
        "run(ExperimentConfig(scenario='fig1_gwas_properties', p=50, n1=60,\n"
        "                     sparsity_grid=(0.2,), replicates=2), workers=2)\n"
        "assert not scipy(), scipy()\n"
    )
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
