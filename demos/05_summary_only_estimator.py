"""Genetic correlation from two summary-statistics files alone.

No individual-level target data at all: the cosine of the two marginal
effect vectors estimates the genetic correlation with exactly the same
attenuation factor as the score-on-target route, and the same closed-form
correction applies.
"""

import numpy as np

from crosstrait import (
    CohortSizes,
    DesignMeta,
    TraitArchitecture,
    bias_factor_summary_ab,
    correct,
    marginal_gwas,
    raw_cosine,
)
from crosstrait.synth import gen_independent_cohorts

n1, n2, p, m, phi = 2500, 2500, 2500, 500, 0.7

arch = TraitArchitecture.shared_causal(p, m, phi=phi, traits=("alpha", "beta"))
meta = DesignMeta(case_tag="summary_ab", p=p, n1=n1, n2=n2, h2_alpha=1.0, h2_beta=1.0)
print(f"n1={n1}, n2={n2}, p={p}, true correlation {phi}")
print(f"theoretical factor: {bias_factor_summary_ab(meta):.4f}")

raws, corrs = [], []
for rep in range(20):
    b = gen_independent_cohorts(arch, CohortSizes(n1=n1, n2=n2), seed=rep,
                                traits=("alpha", "beta"))
    stats_a = marginal_gwas(b.disc_alpha, b.y_alpha.y)
    stats_b = marginal_gwas(b.disc_beta, b.y_beta.y)
    est = correct(raw_cosine(stats_a.effect, stats_b.effect), meta)
    raws.append(est.raw)
    corrs.append(est.corrected)

print(f"mean raw cosine of effect vectors: {np.mean(raws):+.4f}")
print(f"mean corrected estimate:           {np.mean(corrs):+.4f} (truth {phi})")
