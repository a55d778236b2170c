"""Genetic-correlation estimators and their closed-form bias corrections.

Every raw estimator in the toolkit is an uncentered cosine of two vectors:

* target phenotype against a cross-trait risk score (one trait has
  individual-level target data);
* two risk scores built on the same target samples (neither trait does);
* two vectors of published marginal effects (summary statistics only).

All of them shrink towards zero by a multiplicative factor with a closed
form in the design sizes (n1, n2, n3, n_s, p) and the heritabilities; the
factor is independent of the unknown causal-SNP counts when the score uses
all SNPs.  ``correct`` divides the raw value by the factor of the governing
design and flags designs whose p is so large relative to the sample sizes
that the estimator is degenerate (converges to zero regardless of the true
correlation) - there division by the factor is no longer meaningful.

Design cases
------------
``CASES`` holds one record per case: its raw estimator, its factor, the
fields the factor needs, its degenerate-regime check and its CLI alias.

``indep_ae``        phenotype vs score, three independent cohorts
``indep_ab``        score vs score, three independent cohorts
``summary_ab``      effect vector vs effect vector, two independent cohorts
``screened_ae/ab``  as above but with SNP screening (factors take the
                    selected-count bookkeeping q, q1, q_overlap)
``overlap_case_i``  n_s samples shared between discovery and target
``overlap_case_ii`` n_s samples shared between the two discoveries
``case_iii``        both effect vectors from one GWAS (summary route)
``case_iv``         both scores built on the discovery data itself
``case_v``          scores for two independent GWAS both built on the
                    first study's genotypes
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    CorrectionUnavailableError,
    DegenerateScoreError,
    ParameterError,
)

CONSISTENT = "consistent_regime"
DEGENERATE = "degenerate_regime"


@dataclass(frozen=True)
class DesignMeta:
    """Sizes and variance shares of the estimation design.

    ``h_alpha_eta`` / ``h_alpha_beta`` are the genetic shares of the
    phenotypic correlation on shared samples; they are required by the
    overlapping-design corrections and must be supplied (never assumed 1).
    """

    case_tag: str
    p: int
    n1: int
    n2: int | None = None
    n3: int | None = None
    n_s: int = 0
    h2_alpha: float | None = None
    h2_beta: float | None = None
    h2_eta: float | None = None
    h_alpha_eta: float | None = None
    h_alpha_beta: float | None = None

    def __post_init__(self):
        if self.case_tag not in CASES:
            raise ParameterError(f"unknown case tag {self.case_tag!r}")
        if self.p < 1:
            raise ParameterError("p must be >= 1")
        for name in ("n1", "n2", "n3", "n_s"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ParameterError(f"{name} must be >= 0")
        for name in ("h2_alpha", "h2_beta", "h2_eta", "h_alpha_eta", "h_alpha_beta"):
            v = getattr(self, name)
            if v is not None and not (0.0 < v <= 1.0):
                raise ParameterError(f"{name} must lie in (0, 1]")


@dataclass
class ScreenCounts:
    """Selected-SNP bookkeeping entering the screened-design factors."""

    m_alpha: int
    m_alpha_eta: int = 0
    m_alpha_beta: int = 0
    m_beta: int = 0
    q_alpha: int = 0
    q_alpha1: int = 0
    q_alpha_eta: int = 0
    q_alpha_beta: int = 0
    q_beta: int = 0
    q_beta1: int = 0


@dataclass
class CorrelationEstimate:
    raw: float
    bias_factor: float
    corrected: float
    regime_flag: str
    out_of_range: bool = False

    @property
    def flag(self) -> str:
        """The regime flag, then ``;corrected_out_of_range`` when the corrected
        value lies outside [-1, 1]."""
        return self.regime_flag + (";corrected_out_of_range" if self.out_of_range else "")


def raw_cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Uncentered cosine similarity; the single primitive behind every raw
    estimator in this module.

    Its norms and dot product are ``kernels.dot`` reductions, so their bits
    depend neither on a BLAS thread count nor on the layout of the vectors
    passed in.  Vectors whose squared norm or dot product is not finite are
    refused.
    """
    u = np.ascontiguousarray(u, dtype=np.float64)
    v = np.ascontiguousarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ParameterError("vectors must have equal length")
    with np.errstate(over="ignore", invalid="ignore"):
        uu, vv, uv = kernels.dot(u, u), kernels.dot(v, v), kernels.dot(u, v)
    if not (math.isfinite(uu) and math.isfinite(vv) and math.isfinite(uv)):
        raise ParameterError("cosine of vectors whose squared norm or dot product is not "
                             "finite (a value too large to square?)")
    nu = math.sqrt(uu)
    nv = math.sqrt(vv)
    if nu == 0.0 or nv == 0.0:
        raise DegenerateScoreError("cosine of a zero-norm vector (empty or constant score?)")
    return float(np.clip(uv / (nu * nv), -1.0, 1.0))


def _require(meta: DesignMeta, tag: str) -> None:
    """Refuse a design that lacks a field the factor of case ``tag`` needs.

    A missing genetic share (``h_alpha_eta``/``h_alpha_beta``) leaves the error
    cross-covariance on shared samples unidentified, and the correction
    refuses to guess it.
    """
    missing = [n for n in CASES[tag].required if getattr(meta, n) is None]
    if any(not n.startswith("h_") for n in missing):
        raise ParameterError(f"case {tag!r} requires parameters {missing}; got meta={meta}")
    if missing:
        raise CorrectionUnavailableError(
            f"{tag} needs {missing[0]} (genetic share of the phenotypic correlation "
            "on shared samples)"
        )


def bias_factor_ae(meta: DesignMeta) -> float:
    """Attenuation of the phenotype-vs-score estimator in independent GWAS.

    sqrt(n1 / (n1 + p / h2_alpha)) * sqrt(h2_eta); independent of the
    causal-SNP counts.
    """
    _require(meta, "indep_ae")
    return float(np.sqrt(meta.n1 / (meta.n1 + meta.p / meta.h2_alpha)) * np.sqrt(meta.h2_eta))


def bias_factor_ab(meta: DesignMeta) -> float:
    """Attenuation of the score-vs-score estimator in independent GWAS."""
    _require(meta, "indep_ab")
    return float(
        np.sqrt(
            meta.n1 / (meta.n1 + meta.p / meta.h2_alpha)
            * meta.n2 / (meta.n2 + meta.p / meta.h2_beta)
        )
    )


# The summary-statistics-only factor coincides with the score-vs-score one;
# the two cases differ in their degenerate regimes (p instead of p^2 against
# the sample-size product).
bias_factor_summary_ab = bias_factor_ab


def screened_factor_ae(
    meta: DesignMeta,
    q_alpha: int,
    q_alpha1: int,
    q_alpha_eta: int,
    m_alpha: int,
    m_alpha_eta: int,
) -> float:
    """Attenuation of the screened phenotype-vs-score estimator.

    sqrt(n1 m_a / (n1 q_a1 + m_a q_a / h2_a)) * (q_ae / m_ae) * sqrt(h2_e).
    Returns 0 (the estimator carries no signal) when the screen kept no
    shared causal SNPs.
    """
    _require(meta, "screened_ae")
    if min(q_alpha, q_alpha1, q_alpha_eta) < 0 or m_alpha <= 0 or m_alpha_eta <= 0:
        raise ParameterError("screen counts must be >= 0 and causal counts positive")
    if q_alpha_eta == 0 or q_alpha == 0:
        return 0.0
    inner = meta.n1 * m_alpha / (meta.n1 * q_alpha1 + m_alpha * q_alpha / meta.h2_alpha)
    return float(np.sqrt(inner) * (q_alpha_eta / m_alpha_eta) * np.sqrt(meta.h2_eta))


def _screened_ae(meta: DesignMeta, c: ScreenCounts) -> float:
    return screened_factor_ae(meta, c.q_alpha, c.q_alpha1, c.q_alpha_eta, c.m_alpha, c.m_alpha_eta)


def screened_factor_ab(meta: DesignMeta, counts: ScreenCounts) -> float:
    """Attenuation of the screened score-vs-score estimator."""
    _require(meta, "screened_ab")
    c = counts
    if min(c.m_alpha, c.m_beta, c.m_alpha_beta) <= 0:
        raise ParameterError("causal counts must be positive")
    if c.q_alpha_beta == 0 or c.q_alpha == 0 or c.q_beta == 0:
        return 0.0
    t_a = meta.n1 * c.m_alpha / (meta.n1 * c.q_alpha1 + c.m_alpha * c.q_alpha / meta.h2_alpha)
    t_b = meta.n2 * c.m_beta / (meta.n2 * c.q_beta1 + c.m_beta * c.q_beta / meta.h2_beta)
    return float(np.sqrt(t_a * t_b) * (c.q_alpha_beta / c.m_alpha_beta))


def overlap_factor_case_i(meta: DesignMeta) -> float:
    """Attenuation/inflation factor with n_s samples shared between the
    discovery GWAS and the target data.

    Requires ``h_alpha_eta``; without it the error cross-covariance on the
    shared block is unidentified and the correction refuses to guess.
    """
    _require(meta, "overlap_case_i")
    n1s = meta.n1 + meta.n_s
    n3s = meta.n3 + meta.n_s
    p = meta.p
    num = (1.0 + meta.n_s * p / (n1s * n3s * meta.h_alpha_eta)) * np.sqrt(meta.h2_eta)
    den = np.sqrt(
        1.0
        + p / (n1s * meta.h2_alpha)
        + 2.0 * meta.n_s * p / (n1s * n3s)
        + meta.n_s * p**2 / (n1s**2 * n3s * meta.h2_alpha)
    )
    return float(num / den)


def overlap_factor_case_ii(meta: DesignMeta) -> float:
    """Factor with n_s samples shared between the two discovery GWAS."""
    _require(meta, "overlap_case_ii")
    n1s = meta.n1 + meta.n_s
    n2s = meta.n2 + meta.n_s
    p = meta.p
    g = np.sqrt(n1s * n2s)
    num = g + meta.n_s * p / (g * meta.h_alpha_beta)
    den = np.sqrt((n1s + p / meta.h2_alpha) * (n2s + p / meta.h2_beta))
    return float(num / den)


def _factor_case_iii(meta: DesignMeta) -> float:
    _require(meta, "case_iii")
    n1, p = meta.n1, meta.p
    return float(
        (n1 + p / meta.h_alpha_beta)
        / np.sqrt((n1 + p / meta.h2_alpha) * (n1 + p / meta.h2_beta))
    )


def _factor_case_iv(meta: DesignMeta) -> float:
    _require(meta, "case_iv")
    n1, p = meta.n1, meta.p
    base = n1**2 + 2.0 * n1 * p
    tail = p * (n1 + p)
    return float(
        (base + tail / meta.h_alpha_beta)
        / np.sqrt((base + tail / meta.h2_alpha) * (base + tail / meta.h2_beta))
    )


def _factor_case_v(meta: DesignMeta) -> float:
    _require(meta, "case_v")
    n1, n2, p = meta.n1, meta.n2, meta.p
    num = (n1 + p) * np.sqrt(n2)
    den = np.sqrt((n1**2 + 2.0 * n1 * p + p * (n1 + p) / meta.h2_alpha) * (n2 + p / meta.h2_beta))
    return float(num / den)


# the raw estimators: uncentered cosines of
PHENOTYPE_SCORE = "phenotype_score"  # the target phenotype and one risk score
SCORE_SCORE = "score_score"  # two risk scores on the same target samples
EFFECT_EFFECT = "effect_effect"  # two vectors of marginal effects


@dataclass(frozen=True)
class Case:
    """One design case.

    ``estimator`` is the raw cosine the case corrects.  ``factor(meta)`` is
    its attenuation factor, ``factor(meta, ScreenCounts)`` when ``screened``;
    ``required`` lists the DesignMeta fields the factor cannot do without.
    ``degenerate(meta)`` is the regime check; it is assessed only when every
    size in ``regime_sizes`` was supplied.  ``alias`` is the CLI ``--case``
    name (None: the case has none).
    """

    alias: str | None
    estimator: str
    required: tuple
    factor: Callable
    regime_sizes: tuple
    degenerate: Callable
    screened: bool = False


_AE = ("n1", "p", "h2_alpha", "h2_eta")
_AB = ("n1", "n2", "p", "h2_alpha", "h2_beta")
_SHARED_AB = ("n1", "p", "h2_alpha", "h2_beta", "h_alpha_beta")

# Finite-sample surrogates for the asymptotic degenerate-regime conditions.
# The true conditions involve limits (p = c * (sample-size product)^a with
# a >= 1) that a single design point cannot verify; these conservative
# thresholds flag designs where p reaches the relevant sample-size product.
CASES = {
    "indep_ae": Case("ae", PHENOTYPE_SCORE, _AE, bias_factor_ae,
                     ("n3",), lambda m: m.p >= m.n1 * m.n3),
    "indep_ab": Case("ab", SCORE_SCORE, _AB, bias_factor_ab,
                     ("n2", "n3"), lambda m: m.p**2 >= m.n1 * m.n2 * m.n3),
    "summary_ab": Case("summary-ab", EFFECT_EFFECT, _AB, bias_factor_summary_ab,
                       ("n2",), lambda m: m.p >= m.n1 * m.n2),
    "screened_ae": Case(None, PHENOTYPE_SCORE, _AE, _screened_ae,
                        ("n3",), lambda m: m.p >= m.n1 * m.n3, screened=True),
    "screened_ab": Case(None, SCORE_SCORE, _AB, screened_factor_ab,
                        ("n2", "n3"), lambda m: m.p**2 >= m.n1 * m.n2 * m.n3, screened=True),
    "overlap_case_i": Case("overlap-i", PHENOTYPE_SCORE, _AE + ("n3", "n_s", "h_alpha_eta"),
                           overlap_factor_case_i,
                           ("n3",), lambda m: m.p >= (m.n1 + m.n_s) * (m.n3 + m.n_s)),
    "overlap_case_ii": Case("overlap-ii", SCORE_SCORE, _AB + ("n_s", "h_alpha_beta"),
                            overlap_factor_case_ii,
                            ("n2", "n3"), lambda m: m.p >= (m.n1 + m.n_s) * (m.n2 + m.n_s) * m.n3),
    "case_iii": Case("iii", EFFECT_EFFECT, _SHARED_AB, _factor_case_iii, (), lambda m: False),
    "case_iv": Case("iv", SCORE_SCORE, _SHARED_AB, _factor_case_iv, (), lambda m: False),
    "case_v": Case("v", SCORE_SCORE, _AB, _factor_case_v,
                   ("n2",), lambda m: m.p >= m.n1 * m.n2),
}


def regime_flag(meta: DesignMeta) -> str:
    """Heuristic consistent/degenerate classification of a design point.

    Sizes the surrogate needs but the caller did not supply leave the design
    unassessable; those points are reported as consistent rather than
    refused, since the corrections themselves do not need them.
    """
    case = CASES[meta.case_tag]
    if any(getattr(meta, name) is None for name in case.regime_sizes):
        return CONSISTENT
    return DEGENERATE if case.degenerate(meta) else CONSISTENT


def bias_factor(meta: DesignMeta, screen: ScreenCounts | None = None) -> float:
    """The factor of the design's case; the screened cases need ScreenCounts."""
    case = CASES[meta.case_tag]
    if not case.screened:
        return case.factor(meta)
    if screen is None:
        raise ParameterError(f"{meta.case_tag} needs ScreenCounts")
    return case.factor(meta, screen)


def correct(raw: float, meta: DesignMeta, screen: ScreenCounts | None = None) -> CorrelationEstimate:
    """Divide a raw cosine by the design's bias factor.

    The corrected value is deliberately not clamped to [-1, 1]: corrections
    can overshoot at finite samples and clamping would hide the estimator's
    variance.  Out-of-range results are flagged instead.  A raw value that
    is not a cosine (outside [-1, 1], or NaN) is refused.
    """
    if not (-1.0 <= raw <= 1.0):
        raise ParameterError(f"raw cosine must lie in [-1, 1], got {raw!r}")
    factor = bias_factor(meta, screen)
    flag = regime_flag(meta)
    if factor == 0.0:
        why = ("screened selection kept no shared signal" if CASES[meta.case_tag].screened
               else "it underflows at these sizes and heritabilities, or a sample size is 0")
        raise ParameterError(f"bias factor is zero; {why}")
    corrected = raw / factor
    return CorrelationEstimate(
        raw=raw,
        bias_factor=factor,
        corrected=corrected,
        regime_flag=flag,
        out_of_range=abs(corrected) > 1.0,
    )


@dataclass
class R2Correction:
    r2_raw: float
    r2_corrected: float
    factor: float
    out_of_range: bool


def correct_partial_r2(
    r2_raw: float, n1: int, p: int, h2_alpha: float, h2_eta: float
) -> R2Correction:
    """Correct a published partial R^2 of a cross-trait score.

    Partial R^2 is the square of the estimated correlation, so the
    correction is the square of the phenotype-vs-score factor:
    ``r2 * (n1 + p / h2_alpha) / (n1 * h2_eta)``.  Values that correct past
    1 are returned with a warning flag rather than truncated.
    """
    if not (0.0 <= r2_raw <= 1.0):
        raise ParameterError("r2_raw must lie in [0, 1]")
    if n1 <= 0 or p <= 0:
        raise ParameterError("n1 and p must be positive")
    for name, v in (("h2_alpha", h2_alpha), ("h2_eta", h2_eta)):
        if not (0.0 < v <= 1.0):
            raise ParameterError(f"{name} must lie in (0, 1]")
    factor = (n1 + p / h2_alpha) / (n1 * h2_eta)
    r2 = r2_raw * factor
    return R2Correction(r2_raw=r2_raw, r2_corrected=r2, factor=factor, out_of_range=r2 > 1.0)
