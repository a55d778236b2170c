import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosstrait.errors import (
    CorrectionUnavailableError,
    DegenerateScoreError,
    ParameterError,
)
from crosstrait.estimators import (
    CONSISTENT,
    DEGENERATE,
    DesignMeta,
    ScreenCounts,
    bias_factor,
    bias_factor_ab,
    bias_factor_ae,
    bias_factor_summary_ab,
    correct,
    correct_partial_r2,
    overlap_factor_case_i,
    overlap_factor_case_ii,
    raw_cosine,
    regime_flag,
    screened_factor_ab,
    screened_factor_ae,
)


def meta_ae(n1, p, h2a=1.0, h2e=1.0, n3=None):
    return DesignMeta(case_tag="indep_ae", p=p, n1=n1, n3=n3,
                      h2_alpha=h2a, h2_eta=h2e)


def meta_ab(n1, n2, p, h2a=1.0, h2b=1.0, n3=None, tag="indep_ab"):
    return DesignMeta(case_tag=tag, p=p, n1=n1, n2=n2, n3=n3,
                      h2_alpha=h2a, h2_beta=h2b)


class TestRawCosine:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert raw_cosine(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert raw_cosine(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 0.0

    def test_hand_value(self):
        assert raw_cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(
            1 / math.sqrt(2)
        )

    def test_zero_norm_raises(self):
        with pytest.raises(DegenerateScoreError):
            raw_cosine(np.zeros(3), np.ones(3))

    def test_independent_of_layout(self):
        # a strided column and its contiguous copy give the same bits
        m = np.random.default_rng(5).standard_normal((20001, 3))
        assert raw_cosine(m[:, 0], m[:, 2]) == raw_cosine(m[:, 0].copy(), m[:, 2].copy())

    @given(
        a=st.floats(min_value=0.01, max_value=100, allow_nan=False),
        b=st.floats(min_value=0.01, max_value=100, allow_nan=False),
        sa=st.sampled_from([-1.0, 1.0]),
        sb=st.sampled_from([-1.0, 1.0]),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, a, b, sa, sb, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(20)
        v = rng.standard_normal(20)
        base = raw_cosine(u, v)
        scaled = raw_cosine(sa * a * u, sb * b * v)
        assert scaled == pytest.approx(sa * sb * base, abs=1e-12)


class TestIndependentFactors:
    def test_equal_sizes_full_heritability(self):
        assert bias_factor_ae(meta_ae(10000, 10000)) == pytest.approx(1 / math.sqrt(2))

    def test_vanishing_p_limit(self):
        assert bias_factor_ae(meta_ae(10**9, 1)) == pytest.approx(1.0, abs=1e-6)

    def test_half_heritability_value(self):
        # sqrt(10000/30000) * sqrt(0.5) = sqrt(1/6), recomputed by hand
        f = bias_factor_ae(meta_ae(10000, 10000, h2a=0.5, h2e=0.5))
        assert f == pytest.approx(0.40824829046386307, abs=1e-12)

    def test_ab_equal_sizes(self):
        assert bias_factor_ab(meta_ab(10000, 10000, 10000)) == pytest.approx(0.5)

    def test_ab_unequal_sizes(self):
        # sqrt(4000/8000 * 2000/6000) = sqrt(1/6), evaluated from the formula
        f = bias_factor_ab(meta_ab(4000, 2000, 4000))
        assert f == pytest.approx(0.40824829046386307, abs=1e-12)

    def test_summary_factor_equals_score_factor(self):
        m = meta_ab(3000, 5000, 7000, h2a=0.7, h2b=0.9, tag="summary_ab")
        assert bias_factor_summary_ab(m) == pytest.approx(
            bias_factor_ab(meta_ab(3000, 5000, 7000, h2a=0.7, h2b=0.9)), abs=1e-15
        )

    @given(
        n1=st.integers(100, 10**6),
        p=st.integers(100, 10**6),
        h2a=st.floats(0.05, 1.0),
        h2e=st.floats(0.05, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_monotonicity(self, n1, p, h2a, h2e):
        base = bias_factor_ae(meta_ae(n1, p, h2a, h2e))
        assert bias_factor_ae(meta_ae(n1, p + 50, h2a, h2e)) < base
        assert bias_factor_ae(meta_ae(n1 + 50, p, h2a, h2e)) > base
        if h2a < 0.99:
            assert bias_factor_ae(meta_ae(n1, p, min(h2a + 0.01, 1.0), h2e)) > base
        if h2e < 0.99:
            assert bias_factor_ae(meta_ae(n1, p, h2a, min(h2e + 0.01, 1.0))) > base


class TestScreenedFactors:
    def test_reduces_to_unscreened_at_full_selection(self):
        m = meta_ae(5000, 20000, h2a=0.6, h2e=0.8)
        full = screened_factor_ae(m, q_alpha=20000, q_alpha1=4000, q_alpha_eta=1500,
                                  m_alpha=4000, m_alpha_eta=1500)
        assert abs(full - bias_factor_ae(m)) <= 1e-12

    def test_ab_reduces_at_full_selection(self):
        m = meta_ab(5000, 3000, 20000, h2a=0.6, h2b=0.9)
        counts = ScreenCounts(
            m_alpha=4000, m_beta=2500, m_alpha_beta=1000,
            q_alpha=20000, q_alpha1=4000, q_alpha_beta=1000,
            q_beta=20000, q_beta1=2500,
        )
        assert abs(screened_factor_ab(m, counts) - bias_factor_ab(m)) <= 1e-12

    def test_optimistic_limit(self):
        # a perfect screen keeps every causal SNP and nothing else:
        # sqrt(n1 / (n1 + m_a / h2_a)) * sqrt(h2_e)
        m = meta_ae(5000, 20000, h2a=0.5, h2e=0.64)
        direct = screened_factor_ae(m, q_alpha=4000, q_alpha1=4000, q_alpha_eta=1500,
                                    m_alpha=4000, m_alpha_eta=1500)
        assert direct == pytest.approx(math.sqrt(5000 / (5000 + 4000 / 0.5)) * 0.8, abs=1e-12)

    def test_mixed_up_grows_with_sqrt_q(self):
        # a screen that cannot rank causal above null SNPs keeps a random q of
        # the p, so q1 = q m_a / p and q_ae = q m_ae / p:
        # sqrt(n1 q / (n1 p + p^2 / h2_a)) * sqrt(h2_e)
        n1, p, h2a, h2e = 500, 20000, 0.5, 0.64
        m = meta_ae(n1, p, h2a=h2a, h2e=h2e)
        f = {}
        for q in (1000, 4000):
            f[q] = screened_factor_ae(m, q_alpha=q, q_alpha1=q // 10, q_alpha_eta=q // 20,
                                      m_alpha=p // 10, m_alpha_eta=p // 20)
            limit = math.sqrt(n1 * q / (n1 * p + p**2 / h2a)) * math.sqrt(h2e)
            assert f[q] == pytest.approx(limit, rel=1e-12)
        assert f[4000] / f[1000] == pytest.approx(2.0, abs=1e-12)

    def test_ab_optimistic(self):
        # perfect screens on both discoveries:
        # sqrt(n1 / (n1 + m_a / h2_a) * n2 / (n2 + m_b / h2_b))
        m = meta_ab(5000, 4000, 20000, h2a=0.5, h2b=0.8)
        counts = ScreenCounts(
            m_alpha=3000, m_beta=2000, m_alpha_beta=1000,
            q_alpha=3000, q_alpha1=3000, q_alpha_beta=1000,
            q_beta=2000, q_beta1=2000,
        )
        expected = math.sqrt(5000 / (5000 + 3000 / 0.5) * 4000 / (4000 + 2000 / 0.8))
        assert screened_factor_ab(m, counts) == pytest.approx(expected, rel=1e-12)

    def test_empty_overlap_gives_zero(self):
        m = meta_ae(5000, 20000)
        assert screened_factor_ae(m, 100, 10, 0, 4000, 1500) == 0.0


class TestOverlapFactors:
    def test_case_i_reduces_at_no_overlap(self):
        m = DesignMeta(case_tag="overlap_case_i", p=9000, n1=4000, n3=3000, n_s=0,
                       h2_alpha=0.7, h2_eta=0.6, h_alpha_eta=0.9)
        assert abs(overlap_factor_case_i(m)
                   - bias_factor_ae(meta_ae(4000, 9000, 0.7, 0.6))) <= 1e-12

    def test_case_ii_reduces_at_no_overlap(self):
        m = DesignMeta(case_tag="overlap_case_ii", p=9000, n1=4000, n2=2500, n_s=0,
                       h2_alpha=0.7, h2_beta=0.6, h_alpha_beta=0.9)
        assert abs(overlap_factor_case_ii(m)
                   - bias_factor_ab(meta_ab(4000, 2500, 9000, 0.7, 0.6))) <= 1e-12

    def test_case_i_full_overlap_closed_form(self):
        # n1 = n3 = 0: factor = (1 + 1/(p/ns + ns/p + 2))^(-1/2) at h = 1
        for ns, p in ((4000, 4000), (2000, 8000), (10000, 1000)):
            m = DesignMeta(case_tag="overlap_case_i", p=p, n1=0, n3=0, n_s=ns,
                           h2_alpha=1.0, h2_eta=1.0, h_alpha_eta=1.0)
            expected = (1 + 1 / (p / ns + ns / p + 2)) ** -0.5
            assert overlap_factor_case_i(m) == pytest.approx(expected, abs=1e-12)

    def test_case_ii_full_overlap_consistent(self):
        m = DesignMeta(case_tag="overlap_case_ii", p=5000, n1=0, n2=0, n_s=4000,
                       h2_alpha=1.0, h2_beta=1.0, h_alpha_beta=1.0)
        assert overlap_factor_case_ii(m) == pytest.approx(1.0, abs=1e-12)

    def test_case_i_requires_h(self):
        m = DesignMeta(case_tag="overlap_case_i", p=100, n1=50, n3=50, n_s=10,
                       h2_alpha=1.0, h2_eta=1.0)
        with pytest.raises(CorrectionUnavailableError):
            overlap_factor_case_i(m)

    def test_case_iii_unbiased_at_full_h(self):
        m = DesignMeta(case_tag="case_iii", p=5000, n1=2000,
                       h2_alpha=1.0, h2_beta=1.0, h_alpha_beta=1.0)
        assert bias_factor(m) == pytest.approx(1.0, abs=1e-12)

    def test_case_iv_unbiased_at_full_h(self):
        m = DesignMeta(case_tag="case_iv", p=5000, n1=2000,
                       h2_alpha=1.0, h2_beta=1.0, h_alpha_beta=1.0)
        assert bias_factor(m) == pytest.approx(1.0, abs=1e-12)

    def test_case_v_large_n2_limit(self):
        # as n2 -> inf with p fixed: (n1+p)/sqrt(n1^2 + 2 n1 p + p(n1+p)) < 1
        n1, p = 2000, 5000
        m = DesignMeta(case_tag="case_v", p=p, n1=n1, n2=10**12,
                       h2_alpha=1.0, h2_beta=1.0)
        expected = (n1 + p) / math.sqrt(n1**2 + 2 * n1 * p + p * (n1 + p))
        got = bias_factor(m)
        assert got == pytest.approx(expected, rel=1e-4)
        assert got < 1.0


class TestOverlapCasesMonteCarlo:
    # end-to-end check that the closed forms for the fully-overlapped and
    # reused-discovery designs track the simulated estimators
    def test_cases_iii_iv_v_track_theory(self):
        from crosstrait.experiments import genetic_share
        from crosstrait.gwas import marginal_gwas
        from crosstrait.prs import score
        from crosstrait.synth import (
            CohortSizes,
            OverlapDesign,
            TraitArchitecture,
            gen_overlapping_cohorts,
        )

        n1 = n2 = p = 1200
        m, phi, h2, rho_eps = 240, 0.6, 0.8, 0.4
        arch = TraitArchitecture.shared_causal(p, m, phi=phi, h2=h2,
                                               traits=("alpha", "beta"))
        h_ab = genetic_share(arch, rho_eps, "ab")
        metas = {
            "case_iii": DesignMeta(case_tag="case_iii", p=p, n1=n1, h2_alpha=h2,
                                   h2_beta=h2, h_alpha_beta=h_ab),
            "case_iv": DesignMeta(case_tag="case_iv", p=p, n1=n1, h2_alpha=h2,
                                  h2_beta=h2, h_alpha_beta=h_ab),
            "case_v": DesignMeta(case_tag="case_v", p=p, n1=n1, n2=n2,
                                 h2_alpha=h2, h2_beta=h2),
        }
        raws = {k: [] for k in metas}
        for rep in range(30):
            b = gen_overlapping_cohorts(OverlapDesign(0, "full_overlap", rho_eps),
                                        arch, CohortSizes(n1=n1), seed=7000 + rep)
            sa = marginal_gwas(b.disc_alpha, b.y_alpha.y)
            sb = marginal_gwas(b.disc_alpha, b.y_beta.y)
            raws["case_iii"].append(raw_cosine(sa.effect, sb.effect))
            pa, pb = score(b.disc_alpha, sa), score(b.disc_alpha, sb)
            raws["case_iv"].append(raw_cosine(pb.scores, pa.scores))

            b5 = gen_overlapping_cohorts(OverlapDesign(0, "discovery_discovery"),
                                         arch, CohortSizes(n1=n1, n2=n2),
                                         seed=9000 + rep)
            sa5 = marginal_gwas(b5.disc_alpha, b5.y_alpha.y)
            sb5 = marginal_gwas(b5.disc_beta, b5.y_beta.y)
            pa5, pb5 = score(b5.disc_alpha, sa5), score(b5.disc_alpha, sb5)
            raws["case_v"].append(raw_cosine(pb5.scores, pa5.scores))

        for case, meta in metas.items():
            expected = bias_factor(meta) * phi
            got = float(np.mean(raws[case]))
            assert abs(got - expected) < 0.035, f"{case}: {got:.4f} vs {expected:.4f}"


class TestCorrect:
    def test_fig2_style_ae(self):
        est = correct(0.6364, meta_ae(10000, 10000, n3=10000))
        assert est.corrected == pytest.approx(0.9, abs=1e-3)
        assert est.regime_flag == CONSISTENT
        assert not est.out_of_range

    def test_zero_stays_zero(self):
        assert correct(0.0, meta_ae(100, 50, n3=100)).corrected == 0.0

    def test_fig2_style_ab(self):
        est = correct(0.45, meta_ab(10000, 10000, 10000, n3=10000))
        assert est.bias_factor == pytest.approx(0.5)
        assert est.corrected == pytest.approx(0.9)

    def test_no_clamping_but_flagged(self):
        est = correct(0.9, meta_ae(1000, 4000, n3=1000))
        assert est.corrected > 1.0
        assert est.out_of_range

    def test_screened_needs_counts(self):
        m = DesignMeta(case_tag="screened_ae", p=100, n1=50, h2_alpha=1.0, h2_eta=1.0)
        with pytest.raises(ParameterError):
            correct(0.5, m)

    @given(
        r=st.floats(-1.0, 1.0),
        n1=st.integers(1, 10**6),
        n3=st.integers(1, 10**6),
        p=st.integers(1, 10**6),
        h2a=st.floats(0.0, 1.0, exclude_min=True),
        h2e=st.floats(0.0, 1.0, exclude_min=True),
    )
    @settings(max_examples=100, deadline=None)
    def test_correct_divides_by_the_factor(self, r, n1, n3, p, h2a, h2e):
        meta = meta_ae(n1, p, h2a, h2e, n3=n3)
        f = bias_factor(meta)
        if f == 0.0:  # p / h2_alpha overflows for h2_alpha near 5e-324
            with pytest.raises(ParameterError):
                correct(r * f, meta)
            return
        est = correct(r * f, meta)
        assert est.raw == r * f
        assert est.bias_factor == f
        assert est.corrected == (r * f) / f

    @pytest.mark.parametrize("raw", [float("nan"), 1.0000000000000002, -1.5, float("inf")])
    def test_raw_that_is_not_a_cosine_is_refused(self, raw):
        with pytest.raises(ParameterError, match=r"raw cosine must lie in \[-1, 1\]"):
            correct(raw, meta_ae(100, 50, n3=100))

    def test_zero_factor_rejected(self):
        m = DesignMeta(case_tag="screened_ae", p=100, n1=50, h2_alpha=1.0, h2_eta=1.0)
        counts = ScreenCounts(m_alpha=10, m_alpha_eta=5, q_alpha=3, q_alpha1=1,
                              q_alpha_eta=0)
        with pytest.raises(ParameterError, match="screened selection kept no shared signal"):
            correct(0.5, m, counts)

    def test_unscreened_zero_factor_names_the_underflow(self):
        # p / h2_alpha overflows, so the factor underflows to 0
        m = meta_ae(1, 1, h2a=5e-324, n3=1)
        assert bias_factor(m) == 0.0
        with pytest.raises(ParameterError, match="underflows"):
            correct(0.5, m)


class TestRegimeFlag:
    def test_surrogate_thresholds(self):
        assert regime_flag(meta_ae(50, 50000, n3=50)) == DEGENERATE
        assert regime_flag(meta_ae(10000, 10000, n3=10000)) == CONSISTENT
        assert regime_flag(meta_ab(100, 100, 1500, n3=100)) == DEGENERATE
        assert regime_flag(meta_ab(10**4, 10**4, 10**4, n3=10**4, tag="summary_ab")) == CONSISTENT
        assert regime_flag(meta_ab(100, 100, 20000, tag="summary_ab")) == DEGENERATE

    def test_missing_sizes_not_assessable(self):
        # the CLI allows omitting n3 for the ae correction itself
        assert regime_flag(meta_ae(100, 10**7)) == CONSISTENT


class TestPartialR2:
    # published (disorder, raw %, corrected %) with per-study n1, p, h2;
    # the back-solved tract heritability is the independent oracle
    ADHD = dict(n1=55374, p=129052, h2a=0.100)

    @staticmethod
    def backsolve_h2e(r2_raw, r2_corr, n1, p, h2a):
        return (n1 + p / h2a) / n1 * r2_raw / r2_corr

    def test_zero_maps_to_zero(self):
        res = correct_partial_r2(0.0, 1000, 1000, 0.5, 0.5)
        assert res.r2_corrected == 0.0

    def test_adhd_plic_rd_row(self):
        h2e = self.backsolve_h2e(0.001974, 0.072696, **{
            "n1": self.ADHD["n1"], "p": self.ADHD["p"], "h2a": self.ADHD["h2a"]})
        assert h2e == pytest.approx(0.660, abs=0.005)
        res = correct_partial_r2(0.001974, self.ADHD["n1"], self.ADHD["p"],
                                 self.ADHD["h2a"], h2e)
        assert res.r2_corrected == pytest.approx(0.072696, abs=5e-4)

    def test_cross_disorder_consistency_same_tract(self):
        # one tract metric measured against two disorders must back-solve to
        # the same tract heritability
        h_scz = self.backsolve_h2e(0.001315, 0.028821, n1=65967, p=204367, h2a=0.256)
        h_bd = self.backsolve_h2e(0.001092, 0.047963, n1=41653, p=215655, h2a=0.205)
        assert abs(h_scz - h_bd) < 0.002

    def test_overshoot_flagged(self):
        res = correct_partial_r2(0.5, 1000, 10000, 0.5, 0.5)
        assert res.out_of_range

    def test_validation(self):
        with pytest.raises(ParameterError):
            correct_partial_r2(1.5, 100, 100, 0.5, 0.5)
        with pytest.raises(ParameterError):
            correct_partial_r2(0.5, 100, 100, 0.0, 0.5)
