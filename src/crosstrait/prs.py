"""Polygenic risk scores on a target genotype matrix.

A score is the standardized-genotype weighted sum ``W_std @ a_hat`` where
``a_hat`` keeps each published effect that passes the screen and zeroes the
rest.  SNPs are aligned between the summary statistics and the target matrix
by identifier intersection (sorted id order) so imperfectly overlapping real
files behave deterministically; positional SNPs (simulated data, ``.xtg``
containers) align by index.  A positional side is never matched against one
with ids: that is refused, not guessed.  ``pair_snps`` is this one rule, and
also pairs the effects of two summary files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DataFormatError, ParameterError
from .gwas import SummaryStats
from .synth import GenotypeMatrix, default_snp_ids

__all__ = ["ScreenRule", "RULE_NONE", "PrsVector", "score", "pair_snps", "align_snps"]


@dataclass(frozen=True)
class ScreenRule:
    """Which SNPs enter the score: all, by p-value, or by |effect|."""

    kind: str = "none"
    cutoff: float = 1.0

    def __post_init__(self):
        if self.kind not in ("none", "pvalue_cutoff", "effect_cutoff"):
            raise ParameterError(f"unknown screen rule {self.kind!r}")
        if self.kind == "pvalue_cutoff" and not (0.0 < self.cutoff <= 1.0):
            raise ParameterError("p-value cutoff must lie in (0, 1]")
        if self.kind == "effect_cutoff" and self.cutoff < 0.0:
            raise ParameterError("effect cutoff must be >= 0")

    def mask(self, stats: SummaryStats) -> np.ndarray:
        """Which summary rows pass: all, ``pvalue <= cutoff`` (cutoff 1 keeps
        everything), or ``|effect| > cutoff`` (strict)."""
        if self.kind == "none":
            return np.ones(stats.p, dtype=bool)
        if self.kind == "pvalue_cutoff":
            return stats.pvalue <= self.cutoff
        return np.abs(stats.effect) > self.cutoff


RULE_NONE = ScreenRule()


@dataclass
class PrsVector:
    """Risk scores for the target samples.

    ``columns`` are the target columns it weights, in pairing order.
    ``empty_selection`` flags an all-zero score produced by a screen that
    removed every SNP; correlation estimators must treat such a score as
    degenerate rather than dividing by its zero norm.
    """

    scores: np.ndarray
    n_selected: int
    columns: np.ndarray
    empty_selection: bool = False


def _positional(ids: np.ndarray | None, p: int) -> bool:
    """No ids, or the default ids in order: SNP j is the j-th SNP."""
    return ids is None or np.array_equal(ids, default_snp_ids(p))


def pair_snps(a: tuple, b: tuple, names: tuple = ("genotypes", "summary statistics")
              ) -> tuple[np.ndarray, np.ndarray]:
    """Match the SNPs of two sides, each given as (SNP ids or None, p).

    Returns (indices into a, indices into b).  Two positional sides of
    equal p pair by index; two sides with ids by id intersection, in sorted
    id order.  Anything else raises ``DataFormatError`` naming the sides by
    ``names``.
    """
    (ids_a, p_a), (ids_b, p_b) = a, b
    a_pos, b_pos = _positional(ids_a, p_a), _positional(ids_b, p_b)
    if a_pos != b_pos:
        side = names[0] if a_pos else names[1]
        raise DataFormatError(f"the {side} carry no SNP ids (none, or the default ids in "
                              "order) and the other side does; cannot align them")
    if a_pos:
        if p_a != p_b:
            raise DataFormatError(
                f"{names[0]} and {names[1]} carry no SNP ids and differ in SNP "
                f"count ({p_a} against {p_b}); cannot align them by position")
        idx = np.arange(p_a)
        return idx, idx
    _, idx_a, idx_b = np.intersect1d(ids_a, ids_b, return_indices=True)
    if idx_a.shape[0] == 0:
        raise DataFormatError(f"no SNP ids in common between {names[0]} and {names[1]}")
    return idx_a, idx_b


def align_snps(W: GenotypeMatrix, stats: SummaryStats) -> tuple[np.ndarray, np.ndarray]:
    """Match target columns to summary rows by ``pair_snps``: (target column
    indices, summary row indices)."""
    return pair_snps((W.snp_ids, W.p), (stats.snp_id, stats.p))


def score(
    W: GenotypeMatrix,
    stats: SummaryStats,
    rule: ScreenRule = RULE_NONE,
) -> PrsVector:
    """Build the (optionally screened) risk score on the target samples; a
    score that is not finite (an effect too large to weight) is refused."""
    w_idx, s_idx = align_snps(W, stats)
    effect = stats.effect[s_idx]
    keep = rule.mask(stats)[s_idx]
    n_selected = int(keep.sum())
    cols = w_idx[keep]
    if n_selected == 0:
        return PrsVector(
            scores=np.zeros(W.n),
            n_selected=0,
            columns=cols,
            empty_selection=True,
        )
    with np.errstate(over="ignore", invalid="ignore"):
        s = kernels.std_matvec(W.codes, W.col_mean, W.col_sd, effect[keep], indices=cols)
    if not np.all(np.isfinite(s)):
        raise ParameterError("risk score is not finite (an effect too large to weight)")
    return PrsVector(
        scores=s,
        n_selected=n_selected,
        columns=cols,
    )
