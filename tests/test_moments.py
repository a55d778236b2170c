import os
import subprocess
import sys

import numpy as np
import pytest

from crosstrait import moments
from crosstrait.errors import ParameterError
from crosstrait.estimators import DesignMeta, ScreenCounts
from crosstrait.experiments import WORKERS_ENV
from crosstrait.moments import (
    ALL_TAGS,
    INDEP_TAGS,
    OVERLAP_I_TAGS,
    OVERLAP_II_TAGS,
    SCREENED_TAGS,
    monte_carlo_check_many,
    predict,
    screen_counts_for_fixed_selection,
)
from crosstrait.synth import TraitArchitecture


def meta(n1=500, n2=500, n3=500, ns=0, p=1000, h2=1.0):
    return DesignMeta(case_tag="indep_ae", p=p, n1=n1, n2=n2, n3=n3, n_s=ns,
                      h2_alpha=h2, h2_beta=h2, h2_eta=h2)


class TestPredict:
    def test_covariance_numerator_value(self):
        # n1 * n3 * m_ae * sigma_ae = 500 * 500 * 200 * 0.9, by hand: 4.5e7
        arch = TraitArchitecture.shared_causal(1000, 200, phi=0.9)
        pred = predict("cov_ae_num", arch, meta())
        assert pred.expected_value == pytest.approx(4.5e7)

    def test_zero_cross_covariance(self):
        arch = TraitArchitecture.shared_causal(1000, 200, phi=0.0)
        assert predict("cov_ae_num", arch, meta()).expected_value == 0.0

    def test_score_denominator_value(self):
        # (500*500*200*800 + 500*500*200*700) * 1 = 7.5e10, evaluated twice by
        # hand from the two-term closed form at sigma2_eps = 0
        arch = TraitArchitecture.shared_causal(1000, 200, phi=0.5, h2=1.0)
        pred = predict("var_alpha_den", arch, meta())
        assert pred.expected_value == pytest.approx(7.5e10)

    def test_phenotype_denominator_with_noise(self):
        # n3 * (m sigma2 + sigma2_eps); h2 = 0.5 makes sigma2_eps = m sigma2
        arch = TraitArchitecture.shared_causal(1000, 200, phi=0.5, h2=0.5)
        pred = predict("var_eta_den", arch, meta())
        assert pred.expected_value == pytest.approx(500 * (200 + 200))

    def test_summary_denominator_equals_collapsed_form(self):
        # the two-term display collapses to n1 * m * (n1 + p) at full h2
        arch = TraitArchitecture.shared_causal(1000, 200, phi=0.5)
        pred = predict("summary_alpha_den", arch, meta())
        assert pred.expected_value == pytest.approx(500 * 200 * 1500)

    def test_screened_reduces_to_unscreened_at_full_selection(self):
        arch = TraitArchitecture.shared_causal(1000, 200, phi=0.6, h2=0.7)
        counts = ScreenCounts(
            m_alpha=200, m_beta=200, m_alpha_eta=200, m_alpha_beta=200,
            q_alpha=1000, q_alpha1=200, q_alpha_eta=200, q_alpha_beta=200,
            q_beta=1000, q_beta1=200,
        )
        for screened, plain in (
            ("screened_cov_ae_num", "cov_ae_num"),
            ("screened_var_alpha_den", "var_alpha_den"),
            ("screened_cov_ab_num", "cov_ab_num"),
            ("screened_var_beta_den", "var_beta_den"),
        ):
            a = predict(screened, arch, meta(), screen=counts).expected_value
            b = predict(plain, arch, meta()).expected_value
            assert abs(a - b) <= 1e-12 * max(abs(b), 1.0)

    def test_overlap_reduces_to_independent_at_zero_overlap(self):
        arch = TraitArchitecture.shared_causal(1000, 200, phi=0.6, h2=0.7)
        m0 = DesignMeta(case_tag="indep_ae", p=1000, n1=500, n2=400, n3=300, n_s=0,
                        h2_alpha=0.7, h2_beta=0.7, h2_eta=0.7,
                        h_alpha_eta=1.0, h_alpha_beta=1.0)
        pairs = (
            ("overlap_i_cov_ae_num", "cov_ae_num"),
            ("overlap_i_var_alpha_den", "var_alpha_den"),
            ("overlap_i_var_eta_den", "var_eta_den"),
            ("overlap_ii_cov_ab_num", "cov_ab_num"),
            ("overlap_ii_var_alpha_den", "var_alpha_den"),
            ("overlap_ii_var_beta_den", "var_beta_den"),
        )
        for overlap, plain in pairs:
            a = predict(overlap, arch, m0, sigma_eps_cross=0.0).expected_value
            b = predict(plain, arch, m0).expected_value
            assert abs(a - b) <= 1e-12 * max(abs(b), 1.0)

    def test_unsupported_tag(self):
        arch = TraitArchitecture.shared_causal(100, 10, phi=0.5)
        with pytest.raises(ParameterError):
            predict("nope", arch, meta())

    def test_screened_requires_counts(self):
        arch = TraitArchitecture.shared_causal(100, 10, phi=0.5)
        with pytest.raises(ParameterError):
            predict("screened_cov_ae_num", arch, meta())


class TestFixedSelection:
    def test_counts_from_prefix_selection(self):
        arch = TraitArchitecture.shared_causal(1000, 200, phi=0.5)
        counts, sel_a, sel_b = screen_counts_for_fixed_selection(arch, 120, 300, 100, 150)
        assert counts.q_alpha == 420 and counts.q_alpha1 == 120
        assert counts.q_alpha_eta == 120  # full causal overlap
        assert counts.q_alpha_beta == 100
        assert sel_a.shape[0] == 420 and sel_b.shape[0] == 250

    def test_selection_bounds_checked(self):
        arch = TraitArchitecture.shared_causal(100, 20, phi=0.5)
        with pytest.raises(ParameterError):
            screen_counts_for_fixed_selection(arch, 21, 0)


class TestMonteCarloCheck:
    # reduced-size smoke runs of the oracle harness; the full grid at the
    # reference scale runs in the acceptance suite
    ARCH = TraitArchitecture.shared_causal(400, 80, phi=0.6, h2=0.8)
    META = DesignMeta(case_tag="indep_ae", p=400, n1=200, n2=150, n3=250, n_s=0,
                      h2_alpha=0.8, h2_beta=0.8, h2_eta=0.8)

    def test_independent_family(self):
        reports = monte_carlo_check_many(
            ["cov_ae_num", "var_alpha_den", "var_eta_den", "summary_ab_num"],
            self.ARCH, self.META, replicates=60, seed=1,
        )
        for r in reports:
            assert r.passed, f"{r.quantity_tag}: z={r.z:.2f}"

    def test_zero_covariance_case(self):
        arch = TraitArchitecture.shared_causal(400, 80, phi=0.0, h2=0.8)
        (r,) = monte_carlo_check_many(["cov_ae_num"], arch, self.META, replicates=60, seed=2)
        assert r.predicted == 0.0
        assert abs(r.z) < 4

    def test_screened_family(self):
        reports = monte_carlo_check_many(
            ["screened_cov_ae_num", "screened_var_alpha_den"],
            self.ARCH, self.META, replicates=60, seed=3, selection=(50, 100, 0, 0),
        )
        for r in reports:
            assert r.passed, f"{r.quantity_tag}: z={r.z:.2f}"

    def test_overlap_families(self):
        m = DesignMeta(case_tag="indep_ae", p=400, n1=150, n2=120, n3=150, n_s=100,
                       h2_alpha=0.8, h2_beta=0.8, h2_eta=0.8)
        reports = monte_carlo_check_many(
            ["overlap_i_cov_ae_num", "overlap_i_var_alpha_den",
             "overlap_ii_cov_ab_num", "overlap_ii_var_beta_den"],
            self.ARCH, m, replicates=60, seed=4, rho_eps=0.4,
        )
        for r in reports:
            assert r.passed, f"{r.quantity_tag}: z={r.z:.2f}"

    def test_minimum_replicates_enforced(self):
        with pytest.raises(ParameterError):
            monte_carlo_check_many(["cov_ae_num"], self.ARCH, self.META, replicates=5, seed=0)

    def test_all_tags_have_a_formula(self):
        counts = ScreenCounts(
            m_alpha=80, m_beta=80, m_alpha_eta=80, m_alpha_beta=80,
            q_alpha=100, q_alpha1=40, q_alpha_eta=40, q_alpha_beta=30,
            q_beta=90, q_beta1=30,
        )
        m = DesignMeta(case_tag="indep_ae", p=400, n1=200, n2=150, n3=250, n_s=50,
                       h2_alpha=0.8, h2_beta=0.8, h2_eta=0.8,
                       h_alpha_eta=0.9, h_alpha_beta=0.9)
        for tag in ALL_TAGS:
            pred = predict(tag, self.ARCH, m, screen=counts)
            assert np.isfinite(pred.expected_value)


# float.hex of (predicted, empirical_mean) per quantity for one small
# monte_carlo_check_many call per family; a change that keeps every bit of
# the simulation (e.g. fusing two scores into one multi-vector call) keeps
# them all
PINNED_HEX = {
    "indep": {
        "cov_ae_num": ("0x1.a400000000000p+13", "0x1.a42ca1fa222ebp+13"),
        "var_alpha_den": ("0x1.7ed0000000000p+21", "0x1.9945f9ff54924p+21"),
        "var_eta_den": ("0x1.5e00000000000p+9", "0x1.7bd66cea7c7a5p+9"),
        "cov_ab_num": ("0x1.89c0000000000p+18", "0x1.0c5b6401c4b8dp+19"),
        "var_beta_den": ("0x1.0a9a000000000p+21", "0x1.1f9d85b3fbedbp+21"),
        "summary_ab_num": ("0x1.6800000000000p+13", "0x1.aacd220591444p+13"),
        "summary_alpha_den": ("0x1.5e00000000000p+16", "0x1.7c401f6fbeb49p+16"),
        "summary_beta_den": ("0x1.e780000000000p+15", "0x1.0203f5089992bp+16"),
    },
    "screened": {
        "screened_cov_ae_num": ("0x1.3b00000000000p+12", "0x1.42dad162b90a4p+10"),
        "screened_var_alpha_den": ("0x1.7ed0000000000p+19", "0x1.563bdfa0bef80p+19"),
        "screened_cov_ab_num": ("0x1.ec30000000000p+16", "0x1.75da1f6f2493cp+16"),
        "screened_var_beta_den": ("0x1.a469000000000p+18", "0x1.8080a032074a2p+18"),
    },
    "overlap_i": {
        "overlap_i_cov_ae_num": ("0x1.d880000000000p+14", "0x1.d8af973acf1f9p+14"),
        "overlap_i_var_alpha_den": ("0x1.e5d7000000000p+22", "0x1.1169a34876006p+23"),
        "overlap_i_var_eta_den": ("0x1.c200000000000p+9", "0x1.9998a413f6a5dp+9"),
    },
    "overlap_ii": {
        "overlap_ii_cov_ab_num": ("0x1.dbc8000000000p+19", "0x1.c4c392308d4b6p+19"),
        "overlap_ii_var_alpha_den": ("0x1.0059000000000p+22", "0x1.08b2327ec7273p+22"),
        "overlap_ii_var_beta_den": ("0x1.7ed0000000000p+21", "0x1.5d6963f2ba516p+21"),
    },
}
FAMILY_TAGS = {"indep": INDEP_TAGS, "screened": SCREENED_TAGS,
               "overlap_i": OVERLAP_I_TAGS, "overlap_ii": OVERLAP_II_TAGS}
FAMILY_KWARGS = {"screened": {"selection": (6, 10, 5, 8)},
                 "overlap_i": {"rho_eps": 0.3}, "overlap_ii": {"rho_eps": 0.3}}


@pytest.mark.parametrize("family", sorted(PINNED_HEX))
def test_monte_carlo_bits_pinned(family):
    arch = TraitArchitecture.shared_causal(80, 16, phi=0.6, h2=0.8)
    m = DesignMeta(case_tag="indep_ae", p=80, n1=40, n2=30, n3=35, n_s=10,
                   h2_alpha=0.8, h2_beta=0.8, h2_eta=0.8, h_alpha_eta=0.9, h_alpha_beta=0.9)
    reports = monte_carlo_check_many(list(FAMILY_TAGS[family]), arch, m, 30, 5,
                                     **FAMILY_KWARGS.get(family, {}))
    got = {r.quantity_tag: (r.predicted.hex(), r.empirical_mean.hex()) for r in reports}
    assert got == PINNED_HEX[family]


class TestRunner:
    ARCH = TraitArchitecture.shared_causal(80, 16, phi=0.6, h2=0.8)
    META = DesignMeta(case_tag="indep_ae", p=80, n1=40, n2=30, n3=35, n_s=10,
                      h2_alpha=0.8, h2_beta=0.8, h2_eta=0.8, h_alpha_eta=0.9, h_alpha_beta=0.9)
    TAGS = ["cov_ae_num", "summary_ab_num", "screened_var_alpha_den", "overlap_i_cov_ae_num",
            "overlap_ii_var_beta_den"]

    def test_same_bits_at_one_and_two_workers(self, monkeypatch):
        got = []
        for workers in ("1", "2"):
            monkeypatch.setenv(WORKERS_ENV, workers)
            reports = monte_carlo_check_many(self.TAGS, self.ARCH, self.META, 30, 5,
                                             rho_eps=0.3, selection=(6, 10, 5, 8))
            got.append([(r.quantity_tag, r.empirical_mean.hex(), r.empirical_se.hex())
                        for r in reports])
        assert got[0] == got[1]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_a_tags_bits_do_not_depend_on_the_tags_asked_with_it(self, monkeypatch, workers):
        # a family builds only the vectors its tags need, e.g. one score
        # alone or two stacked in one call; each tag keeps its bits either way
        monkeypatch.setenv(WORKERS_ENV, workers)

        def bits(tags):
            return [(r.quantity_tag, r.predicted.hex(), r.empirical_mean.hex(),
                     r.empirical_se.hex())
                    for r in monte_carlo_check_many(tags, self.ARCH, self.META, 30, 5,
                                                    rho_eps=0.3, selection=(6, 10, 5, 8))]

        together = bits(list(ALL_TAGS))
        assert [b for tag in ALL_TAGS for b in bits([tag])] == together

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_a_family_that_raises_propagates(self, monkeypatch, workers):
        simulate = moments._simulate_family

        def buggy(family, *args):
            if family == "overlap_i":
                raise RuntimeError("bug in a family")
            return simulate(family, *args)

        monkeypatch.setenv(WORKERS_ENV, workers)
        monkeypatch.setattr(moments, "_simulate_family", buggy)
        with pytest.raises(RuntimeError, match="bug in a family"):
            monte_carlo_check_many(self.TAGS, self.ARCH, self.META, 30, 5,
                                   rho_eps=0.3, selection=(6, 10, 5, 8))


MOMENT_BITS = """
from crosstrait.estimators import DesignMeta
from crosstrait.moments import INDEP_TAGS, monte_carlo_check_many
from crosstrait.synth import TraitArchitecture
arch = TraitArchitecture.shared_causal(10050, 100, phi=0.6, h2=0.8)
m = DesignMeta(case_tag="indep_ae", p=10050, n1=21, n2=22, n3=23,
               h2_alpha=0.8, h2_beta=0.8, h2_eta=0.8)
for r in monte_carlo_check_many(list(INDEP_TAGS), arch, m, 30, 6):
    print(r.quantity_tag, r.empirical_mean.hex())
"""


def test_monte_carlo_bits_independent_of_blas_threads():
    # p > 10,000: a threaded OpenBLAS dot product of p terms adds its partial
    # sums in another order; the moment checks call no BLAS
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    outs = [
        subprocess.run([sys.executable, "-c", MOMENT_BITS], check=True, capture_output=True,
                       text=True, env={**os.environ, "PYTHONPATH": src,
                                       "OPENBLAS_NUM_THREADS": threads}).stdout
        for threads in ("1", "2")
    ]
    assert outs[0] and outs[0] == outs[1]
