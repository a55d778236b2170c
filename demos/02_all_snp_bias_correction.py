"""The attenuation of all-SNP cross-trait scores, and its correction.

Two traits share all their causal SNPs with effect correlation 0.9; the
cross-trait score built from one trait's summary statistics is correlated
against the other trait's phenotype on independent target samples.  The
raw cosine lands near factor * 0.9 with
factor = sqrt(n1 / (n1 + p/h2)) * h_eta, and dividing by the factor
recovers the truth.  Reduced scale of the headline numerical study; at
n = p the factor is 1/sqrt(2), i.e. a raw estimate near 0.64 for a true
correlation of 0.9.
"""

import numpy as np

from crosstrait import DesignMeta, ExperimentConfig, bias_factor_ae, run


def main() -> None:
    n = p = 3000
    m = 600
    phi = 0.9

    config = ExperimentConfig(
        scenario="fig2_all_snp", p=p, n1=n, n2=n, n3=n, m=m, h2=1.0,
        phi_grid=(phi,), replicates=30, master_seed=2024,
    )
    print(f"running {config.replicates} replicates at n1=n2=n3=p={n}, m={m}, phi={phi} ...")
    result = run(config)

    factor = bias_factor_ae(DesignMeta(case_tag="indep_ae", p=p, n1=n, n3=n,
                                       h2_alpha=1.0, h2_eta=1.0))
    print(f"\ntheoretical attenuation factor: {factor:.4f} -> expected raw {factor * phi:.4f}")
    for row in result.aggregate_rows:
        if row.estimator in ("G_ae:raw", "G_ae:corrected", "G_ab:raw", "G_ab:corrected"):
            print(f"{row.estimator:18s} mean={row.mean:+.4f} sd={row.sd:.4f} (n={row.n})")
    print(f"\ntrue correlation: {phi}; both corrected estimators should sit on it")


if __name__ == "__main__":
    main()
