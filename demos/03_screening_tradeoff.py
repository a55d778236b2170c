"""When does p-value screening help a cross-trait score?

Sweeps the usual threshold ladder at two sparsity levels.  With sparse
signals (m/p = 0.01) the scan separates causal from null SNPs, so pruning
the nulls shrinks the score's noise floor and the raw correlation rises
well above the all-SNP value.  With dense signals (m/p = 0.5) causal and
null SNPs are interleaved in the ranking; every cutoff discards signal
and the all-SNP score is already the best one can do.
"""

from crosstrait import ExperimentConfig, run


def main() -> None:
    p = n = 2000
    thresholds = (1.0, 0.5, 0.1, 0.01, 1e-3, 1e-4, 1e-6)

    config = ExperimentConfig(
        scenario="fig3_screening", p=p, n1=n, n3=n, h2=1.0,
        phi_grid=(0.8,), sparsity_grid=(0.01, 0.5), thresholds=thresholds,
        replicates=25, master_seed=77,
    )
    print(f"true correlation 0.8, n={n}, p={p}; sweeping {len(thresholds)} thresholds ...")
    result = run(config)

    means = {}
    for row in result.aggregate_rows:
        if row.estimator.endswith(":raw"):
            means[(row.point_id, row.estimator)] = row.mean

    print(f"\n{'threshold':>10s} {'m/p=0.01':>10s} {'m/p=0.5':>10s}")
    for thr in thresholds:
        key = f"G_T@{thr:g}:raw"
        sparse = means.get(("mp=0.01", key), float("nan"))
        dense = means.get(("mp=0.5", key), float("nan"))
        marker = "  <- all SNPs" if thr == 1.0 else ""
        print(f"{thr:>10g} {sparse:>10.4f} {dense:>10.4f}{marker}")
    print("\nsparse column peaks below threshold 1; dense column peaks at 1.")


if __name__ == "__main__":
    main()
