"""Closed-form moment predictions versus end-to-end simulation.

Every numerator and denominator of the raw estimators has an exact
first-moment formula; the Monte-Carlo checker simulates the full pipeline
and z-tests the empirical mean against the prediction.  These are the
oracles the bias factors are built from (each factor is a ratio of them).
"""

from crosstrait import TraitArchitecture, monte_carlo_check_many

# p, the causal counts, the effect correlation and the heritabilities
arch = TraitArchitecture.shared_causal(800, 160, phi=0.6, h2=0.8)

tags = [
    "cov_ae_num", "var_alpha_den", "var_eta_den",
    "summary_ab_num", "summary_alpha_den",
    "screened_cov_ae_num", "screened_var_alpha_den",
    "overlap_i_cov_ae_num", "overlap_ii_cov_ab_num",
]
print("checking", len(tags), "quadratic-form means against their formulas ...\n")
# the cohort sizes (n_s samples shared by an overlap family), the error
# correlation on shared samples and the alpha screen: the first 100 causal
# and 150 null SNPs; no beta score is screened, so the beta half is 0
reports = monte_carlo_check_many(
    tags, arch, replicates=120, seed=5, n1=400, n2=400, n3=400, n_s=200,
    rho_eps=0.3, selection=(100, 150, 0, 0),
)
print(f"{'quantity':26s} {'predicted':>12s} {'empirical':>12s} {'z':>6s}")
for r in reports:
    print(f"{r.quantity_tag:26s} {r.predicted:12.4g} {r.empirical_mean:12.4g} {r.z:6.2f}")
print("\nall |z| < 4 means the formulas and the simulator agree")
