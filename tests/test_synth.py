import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosstrait import kernels
from crosstrait.errors import GenerationError, ParameterError
from crosstrait.synth import (
    TILE_ROWS,
    CohortSizes,
    GenotypeMatrix,
    OverlapDesign,
    TraitArchitecture,
    _gen_codes,
    default_snp_ids,
    gen_effects,
    gen_genotypes,
    gen_independent_cohorts,
    gen_overlapping_cohorts,
    gen_phenotype,
    stack_genotypes,
)


class TestGenotypes:
    def test_codes_in_range_and_polymorphic(self):
        G = gen_genotypes(200, 80, seed=0)
        assert G.codes.dtype == np.uint8
        assert set(np.unique(G.codes)) <= {0, 1, 2}
        assert np.all(G.col_sd > 0)

    def test_standardized_view_exact(self):
        # per-column mean 0 and variance 1 to 1e-10 (1/n divisor)
        G = gen_genotypes(10000, 100, seed=1)
        s = (G.codes - G.col_mean) / G.col_sd
        assert np.abs(s.mean(axis=0)).max() < 1e-10
        assert np.abs(s.var(axis=0) - 1.0).max() < 1e-10

    def test_two_point_column(self):
        # codes {0,2}: mean 1, population-style sd 1, standardized to {-1,+1}
        G = GenotypeMatrix.from_codes(np.array([[0], [2]], dtype=np.uint8))
        assert G.col_mean[0] == 1.0
        assert G.col_sd[0] == 1.0
        assert np.array_equal((G.codes[:, 0] - G.col_mean[0]) / G.col_sd[0], [-1.0, 1.0])

    def test_maf_mean_matches_uniform_midpoint(self):
        # independent oracle: direct average of the drawn maf vector;
        # E[U(0.05, 0.45)] = 0.25, se = 0.4/sqrt(12)/sqrt(1000) ~ 0.0037
        G = gen_genotypes(10000, 1000, seed=2)
        assert abs(float(np.mean(G.maf)) - 0.25) < 0.01
        assert G.maf.min() >= 0.05 and G.maf.max() <= 0.45

    def test_sample_maf_tracks_generating_maf(self):
        G = gen_genotypes(20000, 50, seed=3)
        sample_maf = G.col_mean / 2.0
        assert np.abs(sample_maf - G.maf).max() < 0.02

    def test_deterministic(self):
        a = gen_genotypes(50, 20, seed=11)
        b = gen_genotypes(50, 20, seed=11)
        assert np.array_equal(a.codes, b.codes)
        assert np.array_equal(a.maf, b.maf)
        assert not np.array_equal(a.codes, gen_genotypes(50, 20, seed=12).codes)

    def test_tiny_n_resamples_until_polymorphic(self):
        G = gen_genotypes(2, 300, seed=4)
        assert np.all(G.codes.max(axis=0) != G.codes.min(axis=0))
        assert G.resample_count > 0

    def test_resample_cap_raises(self):
        class ConstantRng:
            # every raw draw 0: every uniform 0, every code 0
            def __init__(self):
                self.bit_generator = self

            def random_raw(self, size):
                return np.zeros(size, dtype=np.uint64)

        with pytest.raises(GenerationError):
            _gen_codes(2, np.full(3, 0.2), ConstantRng())

    def test_default_snp_ids_shared_and_read_only(self):
        ids = default_snp_ids(3)
        assert list(ids) == ["snp0000000", "snp0000001", "snp0000002"]
        assert default_snp_ids(3) is ids
        with pytest.raises(ValueError):
            ids[0] = "snp9999999"

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            gen_genotypes(1, 10, seed=0)
        with pytest.raises(ParameterError):
            gen_genotypes(10, 0, seed=0)
        with pytest.raises(ParameterError):
            gen_genotypes(10, 3, seed=0, maf=np.array([0.1, 0.6, 0.2]))


def reference_generation(n, maf, rng, block_size=kernels.DEFAULT_BLOCK_SIZE):
    """Untiled oracle: one ``random_raw`` call per column block, read as 16-bit
    lanes and compared with int64 thresholds round(P * 2^16) (so 2^16 means
    "never"), then single-column redraws of constant columns in column
    order, then a separate ``column_stats`` scan."""
    p = maf.shape[0]
    t0 = np.rint((1.0 - maf) ** 2 * 65536).astype(np.int64)
    t1 = np.rint((1.0 - maf**2) * 65536).astype(np.int64)

    def uniforms(count):
        raw = rng.bit_generator.random_raw(-(-count // 4))
        return raw.astype("<u8").view("<u2")[:count].astype(np.int64)

    codes = np.empty((n, p), dtype=np.uint8)
    for j0 in range(0, p, block_size):
        j1 = min(j0 + block_size, p)
        u = uniforms(n * (j1 - j0)).reshape(n, j1 - j0)
        codes[:, j0:j1] = (u >= t0[j0:j1]).view(np.uint8) + (u >= t1[j0:j1]).view(np.uint8)
    resamples = 0
    for j in np.flatnonzero(codes.max(axis=0) == codes.min(axis=0)):
        while True:
            u = uniforms(n)
            col = (u >= t0[j]).view(np.uint8) + (u >= t1[j]).view(np.uint8)
            resamples += 1
            if col.max() != col.min():
                codes[:, j] = col
                break
    mean, sd = kernels.column_stats(codes)
    return codes, mean, sd, resamples


def assert_matches_reference(n, p, seed, maf=None):
    if maf is None:
        maf = np.random.default_rng(seed).uniform(0.05, 0.45, size=p)
    G = _gen_codes(n, maf, np.random.default_rng(seed + 1))
    codes, mean, sd, resamples = reference_generation(n, maf, np.random.default_rng(seed + 1))
    assert np.array_equal(G.codes, codes)
    assert np.array_equal(G.col_mean, mean)
    assert np.array_equal(G.col_sd, sd)
    assert G.resample_count == resamples
    assert (G.n, G.p) == (n, p)


class TestTiledGeneration:
    @given(st.integers(2, 300), st.integers(1, 4500), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_to_untiled_draws(self, n, p, seed):
        assert_matches_reference(n, p, seed)

    @pytest.mark.parametrize(
        "n, p",
        [
            (TILE_ROWS, kernels.DEFAULT_BLOCK_SIZE),
            (TILE_ROWS + 1, kernels.DEFAULT_BLOCK_SIZE + 1),
            (2 * TILE_ROWS, 2 * kernels.DEFAULT_BLOCK_SIZE + 1),
            # tiles of 124 rows and a last tile of 3, 4 and 6 rows
            (127, 2048),
            (128, 2049),
            (254, 4097),
            (1000, 3000),
            (37, 5000),
            (2, 300),
        ],
    )
    def test_bit_identical_at_tile_and_block_edges(self, n, p):
        assert_matches_reference(n, p, seed=n * p)

    def test_counts_survive_all_twos(self):
        # every cell a 2 (u >= c1 always) except one 1 per column: tile code
        # sums hit 2 * TILE_ROWS - 1 and must not wrap in uint8
        class NearOneRng:
            # every uniform 2^16 - 1 (a 2) except 2^15 (a 1) in the first row
            # of the first tile of the 4 columns
            def __init__(self):
                self.calls = 0
                self.bit_generator = self

            def random_raw(self, size):
                u = np.full(4 * size, 0xFFFF, dtype="<u2")
                if self.calls == 0:
                    u[:4] = 0x8000
                self.calls += 1
                return u.view("<u8").astype(np.uint64)

        n = 3 * TILE_ROWS + 5
        G = _gen_codes(n, np.full(4, 0.3), NearOneRng())
        mean, sd = kernels.column_stats(G.codes)
        assert np.array_equal(G.col_mean, mean) and np.array_equal(G.col_sd, sd)
        assert G.resample_count == 0
        assert np.all(G.col_mean == (2.0 * n - 1.0) / n)

    @pytest.mark.parametrize("maf", [1e-4, 0.4999])
    def test_extreme_maf_matches_reference(self, maf):
        n, p = 3000, 40
        assert_matches_reference(n, p, seed=5, maf=np.full(p, maf))

    def test_rare_maf_never_draws_a_two(self):
        # P(code = 2) = 1e-8 rounds to 0/65536: the threshold 2^16 must mean
        # "never", not wrap to "always"
        G = gen_genotypes(3000, 40, seed=6, maf=np.full(40, 1e-4))
        assert G.codes.max() == 1
        assert np.all(G.col_sd > 0)

    def test_generators_skip_the_rescan(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("statistics rescanned")

        monkeypatch.setattr(kernels, "column_stats", fail)
        monkeypatch.setattr(GenotypeMatrix, "from_codes", classmethod(fail))
        gen_genotypes(20, 30, seed=1)
        arch = TraitArchitecture.shared_causal(30, 5, phi=0.5)
        gen_independent_cohorts(arch, CohortSizes(20, 20, 20), seed=2)
        design = OverlapDesign(n_s=0, pair="discovery_target")
        gen_overlapping_cohorts(design, arch, CohortSizes(n1=20, n3=20), seed=3)


class TestArchitecture:
    def test_causal_layout_places_overlap_first(self):
        arch = TraitArchitecture(
            p=100, m_alpha=20, m_beta=15, m_eta=10, m_alpha_eta=6, m_alpha_beta=5
        )
        assert np.array_equal(arch.causal_sets["alpha"], np.arange(20))
        assert np.array_equal(arch.causal_sets["eta"][:6], np.arange(6))
        assert np.array_equal(arch.causal_sets["beta"][:5], np.arange(5))
        ov_ae = np.intersect1d(arch.causal_sets["alpha"], arch.causal_sets["eta"])
        assert ov_ae.shape[0] == 6

    def test_implied_phi(self):
        arch = TraitArchitecture(
            p=100, m_alpha=16, m_eta=25, m_alpha_eta=10, rho_alpha_eta=0.8
        )
        # kappa = 10 / sqrt(16*25) = 0.5
        assert arch.phi_alpha_eta == pytest.approx(0.4)

    def test_full_overlap_phi_equals_rho(self):
        arch = TraitArchitecture.shared_causal(100, 30, phi=0.7)
        assert arch.phi_alpha_eta == pytest.approx(0.7)
        assert arch.phi_alpha_beta == pytest.approx(0.7)

    def test_validation(self):
        with pytest.raises(ParameterError):
            TraitArchitecture(p=10, m_alpha=4, m_eta=3, m_alpha_eta=5)
        with pytest.raises(ParameterError):
            TraitArchitecture(p=10, m_alpha=4, rho_alpha_eta=1.5)
        with pytest.raises(ParameterError):
            TraitArchitecture(p=10, m_alpha=4, h2_alpha=0.0)

    def test_sigma2_eps_formula(self):
        # h2 = 0.5, m = 1000, sigma2 = 1 -> error variance 1000
        arch = TraitArchitecture(p=2000, m_alpha=1000, sigma2_alpha=1.0, h2_alpha=0.5)
        assert arch.sigma2_eps("alpha") == pytest.approx(1000.0)


class TestEffects:
    def test_support_matches_causal_sets(self):
        arch = TraitArchitecture(
            p=200, m_alpha=40, m_beta=30, m_eta=20, m_alpha_eta=10, m_alpha_beta=8,
            rho_alpha_eta=0.5, rho_alpha_beta=0.3,
        )
        eff = gen_effects(arch, seed=1)
        for tag in ("alpha", "beta", "eta"):
            nz = np.flatnonzero(eff[tag].values)
            assert np.array_equal(nz, np.sort(arch.causal_sets[tag]))

    def test_independent_when_rho_zero(self):
        m = 10000
        arch = TraitArchitecture.shared_causal(2 * m, m, phi=0.0)
        eff = gen_effects(arch, seed=5)
        a = eff["alpha"].values[:m]
        e = eff["eta"].values[:m]
        r = np.corrcoef(a, e)[0, 1]
        assert abs(r) < 4 / np.sqrt(m)

    def test_empirical_phi_matches_target(self):
        # law of large numbers on the cosine of the drawn vectors
        arch = TraitArchitecture.shared_causal(4000, 2000, phi=0.9)
        eff = gen_effects(arch, seed=6)
        a, e = eff["alpha"].values, eff["eta"].values
        cos = float(a @ e / (np.linalg.norm(a) * np.linalg.norm(e)))
        assert abs(cos - 0.9) < 0.03

    def test_shared_covariance_within_5_se(self):
        m = 10000
        arch = TraitArchitecture.shared_causal(2 * m, m, phi=0.6)
        eff = gen_effects(arch, seed=7)
        prod = eff["alpha"].values[:m] * eff["eta"].values[:m]
        se = np.std(prod, ddof=1) / np.sqrt(m)
        assert abs(float(np.mean(prod)) - 0.6) < 5 * se

    def test_trait_subset_consistency(self):
        # the eta draw must not depend on which other traits were requested
        arch = TraitArchitecture.shared_causal(300, 100, phi=0.5)
        full = gen_effects(arch, seed=8)
        only_eta = gen_effects(arch, traits=("eta",), seed=8)
        assert np.array_equal(full["eta"].values, only_eta["eta"].values)

    def test_deterministic(self):
        arch = TraitArchitecture.shared_causal(100, 40, phi=0.2)
        a = gen_effects(arch, seed=9)["alpha"].values
        b = gen_effects(arch, seed=9)["alpha"].values
        assert np.array_equal(a, b)


class TestPhenotype:
    def test_fully_heritable_is_pure_genetic(self):
        G = gen_genotypes(500, 60, seed=10)
        arch = TraitArchitecture.shared_causal(60, 20, phi=0.0)
        eff = gen_effects(arch, seed=11)["alpha"]
        ph = gen_phenotype(G, eff, h2=1.0, seed=12)
        assert ph.sigma2_eps == 0.0
        assert np.all(ph.epsilon == 0.0)
        assert ph.realized_h2 == 1.0

    def test_reconstruction_identity(self):
        from crosstrait import kernels

        G = gen_genotypes(300, 50, seed=13)
        arch = TraitArchitecture.shared_causal(50, 10, phi=0.0, h2=0.6)
        eff = gen_effects(arch, seed=14)["alpha"]
        ph = gen_phenotype(G, eff, h2=0.6, seed=15)
        idx = np.flatnonzero(eff.values)
        g = kernels.std_matvec(G.codes, G.col_mean, G.col_sd, eff.values[idx], indices=idx)
        assert np.abs(ph.y - (g + ph.epsilon)).max() <= 1e-10

    def test_sigma2_eps_value(self):
        G = gen_genotypes(100, 1200, seed=16)
        arch = TraitArchitecture(p=1200, m_alpha=1000, sigma2_alpha=1.0, h2_alpha=0.5)
        eff = gen_effects(arch, seed=17)["alpha"]
        ph = gen_phenotype(G, eff, h2=0.5, seed=18)
        assert ph.sigma2_eps == pytest.approx(1000.0)

    def test_realized_h2_near_target(self):
        arch = TraitArchitecture.shared_causal(2500, 2000, phi=0.0, h2=0.5)
        for rep in range(5):
            G = gen_genotypes(10000, 2500, seed=100 + rep)
            eff = gen_effects(arch, seed=200 + rep)["alpha"]
            ph = gen_phenotype(G, eff, h2=0.5, seed=300 + rep)
            assert abs(ph.realized_h2 - 0.5) < 0.05

    def test_h2_validation(self):
        G = gen_genotypes(50, 10, seed=19)
        arch = TraitArchitecture.shared_causal(10, 5, phi=0.0)
        eff = gen_effects(arch, seed=20)["alpha"]
        with pytest.raises(ParameterError):
            gen_phenotype(G, eff, h2=0.0, seed=21)
        with pytest.raises(ParameterError):
            gen_phenotype(G, eff, h2=1.2, seed=21)


class TestOverlappingCohorts:
    def test_shared_block_bit_identical(self):
        arch = TraitArchitecture.shared_causal(80, 20, phi=0.5, traits=("alpha", "eta"))
        design = OverlapDesign(n_s=30, pair="discovery_target")
        b = gen_overlapping_cohorts(design, arch, CohortSizes(n1=40, n3=50), seed=22)
        assert b.disc_alpha.n == 70 and b.target.n == 80
        # shared rows are the last n_s rows of both stacked matrices
        assert np.array_equal(b.disc_alpha.codes[-30:], b.target.codes[-30:])

    def test_discovery_pair_shares_block(self):
        arch = TraitArchitecture.shared_causal(60, 10, phi=0.4, traits=("alpha", "beta"))
        design = OverlapDesign(n_s=25, pair="discovery_discovery")
        b = gen_overlapping_cohorts(design, arch, CohortSizes(n1=30, n2=20, n3=15), seed=23)
        assert np.array_equal(b.disc_alpha.codes[-25:], b.disc_beta.codes[-25:])
        assert b.target.n == 15

    def test_zero_overlap_leaves_cohorts_unchanged(self):
        # the X block must be bitwise independent of the shared-block stream
        arch = TraitArchitecture.shared_causal(50, 10, phi=0.5, traits=("alpha", "eta"))
        sizes = CohortSizes(n1=40, n3=40)
        b0 = gen_overlapping_cohorts(OverlapDesign(0, "discovery_target"), arch, sizes, seed=24)
        b1 = gen_overlapping_cohorts(OverlapDesign(20, "discovery_target"), arch, sizes, seed=24)
        assert np.array_equal(b0.disc_alpha.codes, b1.disc_alpha.codes[:40])
        assert np.array_equal(b0.target.codes, b1.target.codes[:40])

    def test_full_overlap_same_matrix(self):
        arch = TraitArchitecture.shared_causal(40, 10, phi=0.3, traits=("alpha", "beta"))
        b = gen_overlapping_cohorts(
            OverlapDesign(0, "full_overlap"), arch, CohortSizes(n1=50), seed=25
        )
        assert b.disc_alpha is b.disc_beta
        assert b.y_alpha.y.shape == b.y_beta.y.shape == (50,)

    def test_error_correlation_on_shared_block(self):
        # h2 = 0.5 gives nonzero error variance; check the realized error
        # correlation on the shared rows against rho_eps
        arch = TraitArchitecture.shared_causal(
            40, 20, phi=0.5, h2=0.5, traits=("alpha", "eta")
        )
        design = OverlapDesign(n_s=4000, pair="discovery_target", rho_eps=0.6)
        b = gen_overlapping_cohorts(design, arch, CohortSizes(n1=10, n3=10), seed=26)
        e_a = b.y_alpha.epsilon[-4000:]
        e_e = b.y_eta.epsilon[-4000:]
        r = np.corrcoef(e_a, e_e)[0, 1]
        assert abs(r - 0.6) < 0.05
        # non-shared errors uncorrelated with anything shared by construction
        assert b.y_alpha.epsilon[:10].shape == (10,)

    def test_deterministic(self):
        arch = TraitArchitecture.shared_causal(30, 10, phi=0.2, traits=("alpha", "eta"))
        design = OverlapDesign(n_s=10, pair="discovery_target", rho_eps=0.2)
        a = gen_overlapping_cohorts(design, arch, CohortSizes(n1=20, n3=20), seed=27)
        b = gen_overlapping_cohorts(design, arch, CohortSizes(n1=20, n3=20), seed=27)
        assert np.array_equal(a.disc_alpha.codes, b.disc_alpha.codes)
        assert np.array_equal(a.y_alpha.y, b.y_alpha.y)
        assert np.array_equal(a.y_eta.y, b.y_eta.y)

    def test_size_validation(self):
        arch = TraitArchitecture.shared_causal(30, 10, phi=0.2, traits=("alpha", "beta"))
        with pytest.raises(ParameterError):
            gen_overlapping_cohorts(
                OverlapDesign(10, "full_overlap"), arch, CohortSizes(n1=50), seed=0
            )

    def test_stack_single_block_keeps_its_statistics(self):
        G = gen_genotypes(2, 40, seed=8)
        assert G.resample_count > 0
        S = stack_genotypes(G)
        F = GenotypeMatrix.from_codes(G.codes, maf=G.maf)
        assert np.array_equal(S.codes, F.codes)
        assert np.array_equal(S.col_mean, F.col_mean)
        assert np.array_equal(S.col_sd, F.col_sd)
        assert S.resample_count == G.resample_count

    def test_stack_adds_block_counts(self, monkeypatch):
        maf = np.random.default_rng(0).uniform(0.05, 0.45, size=2100)
        blocks = [_gen_codes(n, maf, np.random.default_rng(n)) for n in (50, 3, 130)]
        with monkeypatch.context() as m:
            def fail(*args, **kwargs):
                raise AssertionError("stacked codes rescanned")

            m.setattr(kernels, "column_counts", fail)
            m.setattr(GenotypeMatrix, "from_codes", classmethod(fail))
            S = stack_genotypes(*blocks)
        F = GenotypeMatrix.from_codes(np.vstack([b.codes for b in blocks]), maf=maf)
        assert np.array_equal(S.codes, F.codes)
        assert S.n == F.n == 183
        assert np.array_equal(S.col_mean, F.col_mean)
        assert np.array_equal(S.col_sd, F.col_sd)
        assert np.array_equal(S.code_sum, F.code_sum) and np.array_equal(S.twos, F.twos)

    def test_stack_requires_same_snps(self):
        a = gen_genotypes(10, 5, seed=1)
        b = gen_genotypes(10, 5, seed=2)
        with pytest.raises(ParameterError):
            stack_genotypes(a, b)


class TestIndependentCohorts:
    def test_trio_shapes_and_determinism(self):
        arch = TraitArchitecture.shared_causal(60, 20, phi=0.5)
        b = gen_independent_cohorts(arch, CohortSizes(30, 25, 20), seed=30)
        assert (b.disc_alpha.n, b.disc_beta.n, b.target.n) == (30, 25, 20)
        assert np.array_equal(b.disc_alpha.maf, b.target.maf)
        c = gen_independent_cohorts(arch, CohortSizes(30, 25, 20), seed=30)
        assert np.array_equal(b.y_eta.y, c.y_eta.y)
