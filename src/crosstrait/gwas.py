"""Marginal association scans and screening-quality metrics.

The scan is the textbook one-SNP-at-a-time OLS with intercept, evaluated in
one blocked pass ``X_std.T @ y`` rather than p separate refits.  Because the
genotype columns are standardized with the 1/n divisor, the slope is exactly
``x_std.T @ y_c / n`` and the residual-based standard error collapses to the
closed form ``se^2 = (var(y_c) - effect^2) / n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ParameterError
from .synth import EffectVector, GenotypeMatrix

# smallest positive double; p-values are floored here so they stay in (0, 1]
MIN_PVALUE = 5e-324
# family-wise level of the Bonferroni power metric, and the share of SNPs
# ranked first by |t| that the enrichment metric looks at
POWER_ALPHA = 0.05
TOP_FRAC = 0.1

__all__ = [
    "SummaryStats",
    "ScreenMetrics",
    "Selection",
    "marginal_gwas",
    "screen_metrics",
    "threshold_select",
    "significance_order",
    "average_ranks",
]


@dataclass
class SummaryStats:
    """Per-SNP marginal effect, standard error, test statistic and p-value.

    ``snp_id`` is None for positional SNPs: a scan of a matrix without SNP
    ids, such as a simulated one, whose row j is column j.
    """

    snp_id: np.ndarray | None
    effect: np.ndarray
    se: np.ndarray
    tstat: np.ndarray
    pvalue: np.ndarray
    n: int

    @property
    def p(self) -> int:
        return self.effect.shape[0]


def marginal_gwas(
    X: GenotypeMatrix,
    y: np.ndarray,
    standardize_y: bool = True,
) -> SummaryStats:
    """Compute the simulated "published GWAS" for one phenotype.

    ``standardize_y`` rescales the phenotype to unit variance before the
    scan (the default for estimator inputs; the cosine-based correlation
    estimators are invariant to it).  Pass ``False`` to study the effect
    estimates on the raw phenotype scale, e.g. for the variance law of the
    marginal estimates.  The slope itself is unaffected by centering because
    the genotype columns have exact zero mean.  A phenotype whose variance
    is not finite (a value too large to square) is refused.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (X.n,):
        raise ParameterError(f"phenotype has length {y.shape}, expected {X.n}")
    y_c = y - y.mean()
    with np.errstate(over="ignore", invalid="ignore"):
        var_y = float(np.mean(y_c * y_c))
    if not math.isfinite(var_y):
        raise ParameterError("phenotype variance is not finite (a value too large to square)")
    if standardize_y:
        if var_y == 0.0:
            raise ParameterError("phenotype is constant; cannot standardize")
        y_c = y_c / math.sqrt(var_y)
        var_y = float(np.mean(y_c * y_c))

    effect = kernels.std_crossprod(X.codes, X.col_mean, X.col_sd, y_c) / X.n
    se = np.sqrt(np.maximum(var_y - effect * effect, 0.0) / X.n)

    tstat = np.empty_like(effect)
    pos = se > 0.0
    tstat[pos] = effect[pos] / se[pos]
    tstat[~pos] = np.sign(effect[~pos]) * np.inf
    # two-sided tail of the standard normal reference null, from the C
    # library's erfc: within a few ulp everywhere, subnormal tail included
    z = (np.abs(tstat) / math.sqrt(2.0)).tolist()
    pvalue = np.maximum(np.fromiter(map(math.erfc, z), np.float64, len(z)), MIN_PVALUE)

    return SummaryStats(
        snp_id=X.snp_ids,
        effect=effect,
        se=se,
        tstat=tstat,
        pvalue=pvalue,
        n=X.n,
    )


def significance_order(stats: SummaryStats) -> np.ndarray:
    """Indices sorted by |t| descending, ties broken by SNP index."""
    return np.lexsort((np.arange(stats.p), -np.abs(stats.tstat)))


def average_ranks(a: np.ndarray) -> np.ndarray:
    """Ranks 1..n of ``a`` in ascending order, each run of equal values given
    the mean of the ranks it spans; all NaN if any value is NaN.

    Equal to ``scipy.stats.rankdata(a)`` bit for bit: a run over sorted
    positions [i, j) gets (i + 1 + j) / 2, exact in float64.
    """
    a = np.asarray(a)
    if np.isnan(a).any():
        return np.full(a.shape, np.nan)
    order = np.argsort(a, kind="stable")
    s = a[order]
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    ends = np.append(starts[1:], a.size)
    ranks = np.empty(a.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


@dataclass
class ScreenMetrics:
    auc: float
    power: float
    enrichment: float
    beta_mse: float


def screen_metrics(
    stats: SummaryStats,
    truth: EffectVector,
) -> ScreenMetrics:
    """How well the scan separates causal from null SNPs.

    auc         Mann-Whitney AUC of |t| for causal versus null SNPs.
    power       fraction of causal SNPs significant at the Bonferroni
                level ``POWER_ALPHA / p``.
    enrichment  causal fraction among the top ceil(TOP_FRAC * p) SNPs by |t|.
    beta_mse    sum of squared deviations of the estimated effects.
    """
    if stats.p < 2:
        raise ParameterError("need at least 2 SNPs")
    causal = truth.causal_mask()
    if causal.shape[0] != stats.p:
        raise ParameterError("truth vector length does not match stats")
    m = int(causal.sum())
    if m == 0 or m == stats.p:
        raise ParameterError("need at least one causal and one null SNP")

    ranks = average_ranks(np.abs(stats.tstat))
    u = ranks[causal].sum() - m * (m + 1) / 2.0
    auc = float(u / (m * (stats.p - m)))

    power = float(np.mean(stats.pvalue[causal] < POWER_ALPHA / stats.p))

    k = int(np.ceil(TOP_FRAC * stats.p))
    top = significance_order(stats)[:k]
    enrichment = float(np.mean(causal[top]))

    beta_mse = float(np.sum((stats.effect - truth.values) ** 2))
    return ScreenMetrics(auc=auc, power=power, enrichment=enrichment, beta_mse=beta_mse)


@dataclass
class Selection:
    """SNPs passing a screen, with the causal/null bookkeeping counts.

    q  = number selected; q1/q2 split it into causal/null when a truth
    vector is supplied; q_overlap counts selected SNPs causal for *both*
    traits when a second truth vector is supplied.
    """

    indices: np.ndarray
    q: int
    q1: int | None = None
    q2: int | None = None
    q_overlap: int | None = None

    @property
    def empty(self) -> bool:
        return self.q == 0


def threshold_select(
    stats: SummaryStats,
    rule,
    truth: EffectVector | None = None,
    overlap_truth: EffectVector | None = None,
) -> Selection:
    """Apply a screening rule and count what it kept.

    The SNPs kept are those of ``rule.mask``, the rule the score applies too.
    An empty selection is legal and returned as such.
    """
    from .prs import ScreenRule  # local import to avoid a cycle

    if not isinstance(rule, ScreenRule):
        raise ParameterError("rule must be a ScreenRule")
    idx = np.flatnonzero(rule.mask(stats))
    sel = Selection(indices=idx, q=int(idx.shape[0]))
    if truth is not None:
        causal = truth.causal_mask()
        sel.q1 = int(np.count_nonzero(causal[idx]))
        sel.q2 = sel.q - sel.q1
        if overlap_truth is not None:
            shared = causal & overlap_truth.causal_mask()
            sel.q_overlap = int(np.count_nonzero(shared[idx]))
    return sel
