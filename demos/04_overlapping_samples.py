"""Effect of shared samples between studies on the correlation estimate.

Case i shares half the samples between the discovery GWAS and the target
data: the estimate picks up an extra bias term (and, if errors correlate
on the shared block, an inflation term).  Case ii shares samples between
the two discovery GWAS; in the fully-overlapped limit with full
heritability the estimator is unbiased on its own.
"""

from crosstrait import DesignMeta, ExperimentConfig, overlap_factor_case_i, run


def main() -> None:
    n = 1500
    p = 3000
    m = 600
    phi = 0.6

    config = ExperimentConfig(
        scenario="fig4_overlap", p=p, n1=n, n2=n, n3=n, n_s=n, m=m, h2=1.0,
        phi_grid=(phi,), replicates=25, master_seed=404,
    )
    print(f"half-overlap design: n1=n2=n3=n_s={n}, p={p}, true correlation {phi}")
    result = run(config)

    meta = DesignMeta(case_tag="overlap_case_i", p=p, n1=n, n3=n, n_s=n,
                      h2_alpha=1.0, h2_eta=1.0, h_alpha_eta=1.0)
    print(f"case i theoretical factor: {overlap_factor_case_i(meta):.4f} "
          f"-> expected raw {overlap_factor_case_i(meta) * phi:.4f}")
    for row in result.aggregate_rows:
        print(f"{row.estimator:20s} mean={row.mean:+.4f} sd={row.sd:.4f}")
    print("\ncorrected rows for both cases should recover", phi)


if __name__ == "__main__":
    main()
