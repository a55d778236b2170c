"""Closed-form moment oracles for the estimator numerators and denominators.

``predict`` evaluates the exact first-moment formula of one of the random
quadratic forms that make up the raw correlation estimators; the supported
quantities and their conventions are listed below.  ``monte_carlo_check_many``
simulates the same quantities end to end (genotypes, effects, phenotypes,
scan, score) and reports the z-score of the empirical mean against the
prediction.  These checks are the ground truth the estimator factors are
tested against: each bias factor equals a ratio of these moments.

Conventions
-----------
All quantities are the *unscaled* quadratic forms, i.e. the marginal-effect
vector enters as ``X_std.T @ y`` without the 1/n1 of the published effect
scale, and a risk score enters as ``W_std @ (X_std.T @ y)``.  Cosine
estimators are invariant to those scalings, and the closed forms are
simplest in unscaled form (a scaled denominator just divides by n1^2).

Screened quantities are conditional on the selected index sets, which are
treated as given: the Monte-Carlo check selects a fixed, data-independent
subset (the first q1 causal and first q2 null indices), because a selection
driven by the same scan that produced the effects adds a winner's-curse
term the first-moment formulas do not model.

Quantity tags
-------------
cov_ae_num             y_eta' W X' y_alpha                  (phenotype x score)
var_alpha_den          |W X' y_alpha|^2
var_eta_den            |y_eta|^2
cov_ab_num             (W Z' y_beta)' (W X' y_alpha)        (score x score)
var_beta_den           |W Z' y_beta|^2
summary_ab_num         (X' y_alpha)' (Z' y_beta)            (summary x summary)
summary_alpha_den      |X' y_alpha|^2
summary_beta_den       |Z' y_beta|^2
screened_cov_ae_num    as cov_ae_num restricted to the selected columns
screened_var_alpha_den as var_alpha_den restricted
screened_cov_ab_num    as cov_ab_num, both scores restricted
screened_var_beta_den  as var_beta_den restricted
overlap_i_cov_ae_num   discovery and target share n_s samples
overlap_i_var_alpha_den / overlap_i_var_eta_den
overlap_ii_cov_ab_num  the two discoveries share n_s samples, independent target
overlap_ii_var_alpha_den / overlap_ii_var_beta_den
(matrices X, Z, W are implicitly standardized in all of the above)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ParameterError
from .estimators import CASES, DesignMeta, ScreenCounts
from .experiments import _map_tasks, _refuse_short_cohorts, resolve_workers
from .rng import substream
from .synth import (
    CohortSizes,
    OverlapDesign,
    TraitArchitecture,
    gen_overlapping_cohorts,
    scan_independent_cohorts,
)

INDEP_TAGS = (
    "cov_ae_num",
    "var_alpha_den",
    "var_eta_den",
    "cov_ab_num",
    "var_beta_den",
    "summary_ab_num",
    "summary_alpha_den",
    "summary_beta_den",
)
SCREENED_TAGS = (
    "screened_cov_ae_num",
    "screened_var_alpha_den",
    "screened_cov_ab_num",
    "screened_var_beta_den",
)
OVERLAP_I_TAGS = ("overlap_i_cov_ae_num", "overlap_i_var_alpha_den", "overlap_i_var_eta_den")
OVERLAP_II_TAGS = ("overlap_ii_cov_ab_num", "overlap_ii_var_alpha_den", "overlap_ii_var_beta_den")
ALL_TAGS = INDEP_TAGS + SCREENED_TAGS + OVERLAP_I_TAGS + OVERLAP_II_TAGS
Z_THRESHOLD = 4.0

# the cohort-size fields of the cohorts each tag's family draws, with the
# least size of each (as in ``experiments.Scenario.cohorts``); an independent
# family always scans the alpha discovery cohort, and draws the beta one (n2)
# only for a tag that needs it
_ALPHA_ETA = {"n1": 2, "n3": 2}
_ALPHA_BETA_ETA = {"n1": 2, "n2": 2, "n3": 2}
TAG_COHORTS = {
    "cov_ae_num": _ALPHA_ETA,
    "var_alpha_den": _ALPHA_ETA,
    "var_eta_den": _ALPHA_ETA,
    "cov_ab_num": _ALPHA_BETA_ETA,
    "var_beta_den": _ALPHA_BETA_ETA,
    "summary_ab_num": {"n1": 2, "n2": 2},
    "summary_alpha_den": {"n1": 2},
    "summary_beta_den": {"n1": 2, "n2": 2},
    "screened_cov_ae_num": _ALPHA_ETA,
    "screened_var_alpha_den": _ALPHA_ETA,
    "screened_cov_ab_num": _ALPHA_BETA_ETA,
    "screened_var_beta_den": _ALPHA_BETA_ETA,
    **dict.fromkeys(OVERLAP_I_TAGS, _ALPHA_ETA),
    **dict.fromkeys(OVERLAP_II_TAGS, _ALPHA_BETA_ETA),
}
# quantity tag -> the family whose replicates simulate it
_FAMILY_OF = {**dict.fromkeys(INDEP_TAGS, "indep"), **dict.fromkeys(SCREENED_TAGS, "screened"),
              **dict.fromkeys(OVERLAP_I_TAGS, "overlap_i"),
              **dict.fromkeys(OVERLAP_II_TAGS, "overlap_ii")}
# overlap family -> its design case, whose ``shared`` fields name the cohorts
# that also hold the n_s shared samples
_OVERLAP_CASES = {"overlap_i": "overlap_case_i", "overlap_ii": "overlap_case_ii"}


@dataclass
class MomentPrediction:
    quantity_tag: str
    expected_value: float


def _sigma_eps_cross(
    arch: TraitArchitecture, meta: DesignMeta, pair: str, override: float | None
) -> float:
    """Error cross-covariance on shared samples.

    Derived from the genetic share h of the phenotypic correlation
    (sigma_eps_cross = m sigma_cross (1/h - 1)) unless given directly.
    """
    if override is not None:
        return override
    if pair == "ae":
        h = meta.h_alpha_eta
        m, s = arch.m_alpha_eta, arch.sigma_alpha_eta
    else:
        h = meta.h_alpha_beta
        m, s = arch.m_alpha_beta, arch.sigma_alpha_beta
    if h is None:
        if s == 0.0:
            return 0.0
        raise ParameterError(
            f"overlap prediction needs h_alpha_{pair[1:]} or an explicit sigma_eps_cross"
        )
    return m * s * (1.0 / h - 1.0)


def predict(
    quantity_tag: str,
    arch: TraitArchitecture,
    meta: DesignMeta,
    screen: ScreenCounts | None = None,
    sigma_eps_cross: float | None = None,
) -> MomentPrediction:
    """Exact first-moment formula for one quadratic form."""
    if quantity_tag not in ALL_TAGS:
        raise ParameterError(f"unsupported quantity tag {quantity_tag!r}")
    n1 = meta.n1
    n2 = meta.n2 or 0
    n3 = meta.n3 or 0
    ns = meta.n_s
    p = arch.p
    m_a, m_b, m_e = arch.m_alpha, arch.m_beta, arch.m_eta
    m_ae, m_ab = arch.m_alpha_eta, arch.m_alpha_beta
    s2_a, s2_b, s2_e = arch.sigma2_alpha, arch.sigma2_beta, arch.sigma2_eta
    s_ae, s_ab = arch.sigma_alpha_eta, arch.sigma_alpha_beta
    e_a, e_b, e_e = (arch.sigma2_eps(t) for t in ("alpha", "beta", "eta"))

    if quantity_tag == "cov_ae_num":
        ev = n1 * n3 * m_ae * s_ae
    elif quantity_tag == "var_alpha_den":
        ev = (n1 * n3 * m_a * (p - m_a) + n1 * n3 * m_a * (m_a + n1)) * s2_a + n1 * n3 * p * e_a
    elif quantity_tag == "var_eta_den":
        ev = n3 * (m_e * s2_e + e_e)
    elif quantity_tag == "cov_ab_num":
        ev = n1 * n2 * n3 * m_ab * s_ab
    elif quantity_tag == "var_beta_den":
        ev = (n2 * n3 * m_b * (p - m_b) + n2 * n3 * m_b * (m_b + n2)) * s2_b + n2 * n3 * p * e_b
    elif quantity_tag == "summary_ab_num":
        ev = n1 * n2 * m_ab * s_ab
    elif quantity_tag == "summary_alpha_den":
        ev = (n1 * m_a * (n1 + m_a) + n1 * m_a * (p - m_a)) * s2_a + n1 * p * e_a
    elif quantity_tag == "summary_beta_den":
        ev = (n2 * m_b * (n2 + m_b) + n2 * m_b * (p - m_b)) * s2_b + n2 * p * e_b
    elif quantity_tag in SCREENED_TAGS:
        if screen is None:
            raise ParameterError("screened quantities need ScreenCounts")
        c = screen
        if quantity_tag == "screened_cov_ae_num":
            ev = n1 * n3 * c.q_alpha_eta * s_ae
        elif quantity_tag == "screened_var_alpha_den":
            q2 = c.q_alpha - c.q_alpha1
            ev = (n1 * n3 * m_a * q2 + n1 * n3 * c.q_alpha1 * (m_a + n1)) * s2_a + n1 * n3 * c.q_alpha * e_a
        elif quantity_tag == "screened_cov_ab_num":
            ev = n1 * n2 * n3 * c.q_alpha_beta * s_ab
        else:  # screened_var_beta_den
            q2 = c.q_beta - c.q_beta1
            ev = (n2 * n3 * m_b * q2 + n2 * n3 * c.q_beta1 * (m_b + n2)) * s2_b + n2 * n3 * c.q_beta * e_b
    elif quantity_tag in OVERLAP_I_TAGS:
        if quantity_tag == "overlap_i_cov_ae_num":
            e_cross = _sigma_eps_cross(arch, meta, "ae", sigma_eps_cross)
            ev = (n3 + ns) * (n1 + ns) * m_ae * s_ae + ns * m_ae * p * s_ae + ns * p * e_cross
        elif quantity_tag == "overlap_i_var_eta_den":
            ev = (n3 + ns) * (m_e * s2_e + e_e)
        else:  # overlap_i_var_alpha_den: score built and evaluated with shared rows
            ev = (
                (n1 * n3 * m_a * (p + n1) * s2_a + n1 * n3 * p * e_a)
                + 2 * (n1 * n3 * ns * m_a * s2_a)
                + (ns * n3 * m_a * (p + ns) * s2_a + ns * n3 * p * e_a)
                + (n1 * ns * m_a * (p + n1) * s2_a + n1 * ns * p * e_a)
                + 2 * (n1 * ns * m_a * (ns + p) * s2_a)
                + (ns * m_a * (ns**2 + p**2 + 3 * ns * p) * s2_a + ns * p * (ns + p) * e_a)
            )
    else:  # OVERLAP_II_TAGS: shared discovery rows, independent target
        if quantity_tag == "overlap_ii_cov_ab_num":
            e_cross = _sigma_eps_cross(arch, meta, "ab", sigma_eps_cross)
            ev = (n1 + ns) * (n2 + ns) * n3 * m_ab * s_ab + ns * n3 * m_ab * p * s_ab + ns * n3 * p * e_cross
        elif quantity_tag == "overlap_ii_var_alpha_den":
            ev = (
                n1 * n3 * m_a * (p + n1) * s2_a
                + n1 * n3 * p * e_a
                + 2 * n1 * n3 * ns * m_a * s2_a
                + ns * n3 * m_a * (p + ns) * s2_a
                + ns * n3 * p * e_a
            )
        else:  # overlap_ii_var_beta_den
            ev = (
                n2 * n3 * m_b * (p + n2) * s2_b
                + n2 * n3 * p * e_b
                + 2 * n2 * n3 * ns * m_b * s2_b
                + ns * n3 * m_b * (p + ns) * s2_b
                + ns * n3 * p * e_b
            )

    return MomentPrediction(quantity_tag=quantity_tag, expected_value=float(ev))


@dataclass
class MomentCheckReport:
    quantity_tag: str
    predicted: float
    empirical_mean: float
    empirical_se: float
    z: float
    replicates: int
    passed: bool


def _fixed_selection(arch: TraitArchitecture, trait: str, q1: int, q2: int) -> np.ndarray:
    """First q1 causal and first q2 null indices, sorted; data-independent."""
    causal = np.asarray(arch.causal_sets[trait])
    null = np.setdiff1d(np.arange(arch.p), causal)
    if q1 > causal.shape[0] or q2 > null.shape[0]:
        raise ParameterError("selection counts exceed available causal/null SNPs")
    return np.sort(np.concatenate([causal[:q1], null[:q2]])).astype(np.intp)


def screen_counts_for_fixed_selection(
    arch: TraitArchitecture, q_alpha1: int, q_alpha2: int, q_beta1: int = 0, q_beta2: int = 0
) -> tuple[ScreenCounts, np.ndarray, np.ndarray]:
    """ScreenCounts plus the index sets for the deterministic prefix screen."""
    sel_a = _fixed_selection(arch, "alpha", q_alpha1, q_alpha2)
    sel_b = (
        _fixed_selection(arch, "beta", q_beta1, q_beta2)
        if (q_beta1 or q_beta2)
        else np.empty(0, dtype=np.intp)
    )
    shared_ae = np.intersect1d(arch.causal_sets["alpha"], arch.causal_sets["eta"])
    shared_ab = np.intersect1d(arch.causal_sets["alpha"], arch.causal_sets["beta"])
    counts = ScreenCounts(
        m_alpha=arch.m_alpha,
        m_beta=arch.m_beta,
        m_alpha_eta=arch.m_alpha_eta,
        m_alpha_beta=arch.m_alpha_beta,
        q_alpha=q_alpha1 + q_alpha2,
        q_alpha1=q_alpha1,
        q_alpha_eta=int(np.intersect1d(sel_a, shared_ae).shape[0]),
        q_alpha_beta=int(np.intersect1d(np.intersect1d(sel_a, sel_b), shared_ab).shape[0]),
        q_beta=q_beta1 + q_beta2,
        q_beta1=q_beta1,
    )
    return counts, sel_a, sel_b


def _scan(X, y) -> np.ndarray:
    """The unscaled marginal effects ``X_std.T @ y``."""
    return kernels.std_crossprod(X.codes, X.col_mean, X.col_sd, y)


def _simulate_family(
    family: str,
    tags: list[str],
    arch: TraitArchitecture,
    meta: DesignMeta,
    rep_seed: int,
    rho_eps: float,
    screen: ScreenCounts | None,
    sel_a: np.ndarray | None,
    sel_b: np.ndarray | None,
) -> dict[str, float]:
    """One replicate of every quantity of a family.

    The independent families scan each discovery cohort as it is drawn
    (``scan_independent_cohorts``).  Two all-SNP scores on the same target
    are built in one ``kernels.std_matvec`` call with (p, 2) weights; each
    column is bitwise equal to its single-vector score.  Every inner product
    is a ``kernels.dot``, so no BLAS thread count moves a bit.
    """
    sizes = CohortSizes(**{f: n for f, n in _drawn_sizes(tags, meta).items() if f != "n_s"})
    out: dict[str, float] = {}
    if family in ("indep", "screened"):
        need_beta = any("n2" in TAG_COHORTS[t] for t in tags)
        traits = ("alpha", "beta", "eta") if need_beta else ("alpha", "eta")
        b, scans = scan_independent_cohorts(arch, sizes, rep_seed, traits, _scan)
        W, t_a, t_b = b.target, scans["alpha"], scans.get("beta")
        if family == "indep":
            wanted = set(tags)
            if wanted & {"cov_ab_num", "var_beta_den"}:
                s_a, s_b = kernels.std_matvec(
                    W.codes, W.col_mean, W.col_sd, np.column_stack([t_a, t_b])).T
                out["cov_ab_num"] = kernels.dot(s_b, s_a)
                out["var_beta_den"] = kernels.dot(s_b, s_b)
            elif wanted & {"cov_ae_num", "var_alpha_den"}:
                s_a = kernels.std_matvec(W.codes, W.col_mean, W.col_sd, t_a)
            if wanted & {"cov_ae_num", "var_alpha_den", "cov_ab_num", "var_beta_den"}:
                out["cov_ae_num"] = kernels.dot(b.y_eta.y, s_a)
                out["var_alpha_den"] = kernels.dot(s_a, s_a)
            if b.y_eta is not None:
                out["var_eta_den"] = kernels.dot(b.y_eta.y, b.y_eta.y)
            out["summary_alpha_den"] = kernels.dot(t_a, t_a)
            if need_beta:
                out["summary_beta_den"] = kernels.dot(t_b, t_b)
                out["summary_ab_num"] = kernels.dot(t_a, t_b)
        else:
            s_a = kernels.std_matvec(W.codes, W.col_mean, W.col_sd, t_a[sel_a], indices=sel_a)
            out["screened_cov_ae_num"] = kernels.dot(b.y_eta.y, s_a)
            out["screened_var_alpha_den"] = kernels.dot(s_a, s_a)
            if need_beta and sel_b is not None and sel_b.shape[0]:
                s_b = kernels.std_matvec(W.codes, W.col_mean, W.col_sd, t_b[sel_b], indices=sel_b)
                out["screened_cov_ab_num"] = kernels.dot(s_b, s_a)
                out["screened_var_beta_den"] = kernels.dot(s_b, s_b)
    elif family == "overlap_i":
        design = OverlapDesign(n_s=meta.n_s, pair="discovery_target", rho_eps=rho_eps)
        b = gen_overlapping_cohorts(design, arch, sizes, rep_seed)
        W = b.target
        s = kernels.std_matvec(W.codes, W.col_mean, W.col_sd, _scan(b.disc_alpha, b.y_alpha.y))
        out["overlap_i_cov_ae_num"] = kernels.dot(b.y_eta.y, s)
        out["overlap_i_var_alpha_den"] = kernels.dot(s, s)
        out["overlap_i_var_eta_den"] = kernels.dot(b.y_eta.y, b.y_eta.y)
    elif family == "overlap_ii":
        design = OverlapDesign(n_s=meta.n_s, pair="discovery_discovery", rho_eps=rho_eps)
        b = gen_overlapping_cohorts(design, arch, sizes, rep_seed)
        W = b.target
        t_a, t_b = _scan(b.disc_alpha, b.y_alpha.y), _scan(b.disc_beta, b.y_beta.y)
        s_a, s_b = kernels.std_matvec(W.codes, W.col_mean, W.col_sd, np.column_stack([t_a, t_b])).T
        out["overlap_ii_cov_ab_num"] = kernels.dot(s_a, s_b)
        out["overlap_ii_var_alpha_den"] = kernels.dot(s_a, s_a)
        out["overlap_ii_var_beta_den"] = kernels.dot(s_b, s_b)
    else:
        raise ParameterError(f"unknown family {family!r}")
    return out


def _drawn_sizes(tags: list[str], meta: DesignMeta) -> dict:
    """The size of each cohort block that the family of ``tags`` draws: the
    fields of their ``TAG_COHORTS``, and n_s in an overlap family."""
    fields = {f for t in tags for f in TAG_COHORTS[t]}
    if _FAMILY_OF[tags[0]] in _OVERLAP_CASES:
        fields.add("n_s")
    return {f: getattr(meta, f) or 0 for f in sorted(fields)}


def monte_carlo_check_many(
    tags: list[str],
    arch: TraitArchitecture,
    meta: DesignMeta,
    replicates: int,
    seed: int,
    rho_eps: float = 0.0,
    screen: ScreenCounts | None = None,
    selection: tuple[int, int, int, int] | None = None,
) -> list[MomentCheckReport]:
    """Check several quantities against their predictions, sharing draws.

    A quantity passes when its |z| is below ``Z_THRESHOLD``.

    ``selection`` gives (q_alpha1, q_alpha2, q_beta1, q_beta2) for the
    deterministic screen behind the screened quantities.  Replicates of one
    family share a simulation, so checking a whole family costs one run.
    The replicates run as tasks of ``experiments.run``'s runner, on
    $CROSSTRAIT_WORKERS threads, else one per usable core but no more than
    there are tasks; each has its own substream, so every bit is the same
    at any worker count.
    """
    if replicates < 30:
        raise ParameterError("need at least 30 replicates for a meaningful z")
    for t in tags:
        if t not in ALL_TAGS:
            raise ParameterError(f"unsupported quantity tag {t!r}")
        case = _OVERLAP_CASES.get(_FAMILY_OF[t])
        _refuse_short_cohorts(t, _drawn_sizes([t], meta), TAG_COHORTS[t],
                              CASES[case].shared if case else ())

    sel_a = sel_b = None
    if any(_FAMILY_OF[t] == "screened" for t in tags):
        if selection is None:
            raise ParameterError("screened tags need selection=(q_a1, q_a2, q_b1, q_b2)")
        screen, sel_a, sel_b = screen_counts_for_fixed_selection(arch, *selection)
        beta = [t for t in tags if _FAMILY_OF[t] == "screened" and "n2" in TAG_COHORTS[t]]
        if beta and not sel_b.shape[0]:
            raise ParameterError(f"{beta[0]} needs a beta selection (q_b1 + q_b2 > 0)")

    # error cross-covariance implied by rho_eps, for the overlap predictions
    sd_ea = np.sqrt(arch.sigma2_eps("alpha"))
    cross_ae = rho_eps * sd_ea * np.sqrt(arch.sigma2_eps("eta"))
    cross_ab = rho_eps * sd_ea * np.sqrt(arch.sigma2_eps("beta"))

    families: dict[str, list[str]] = {}
    for t in tags:
        families.setdefault(_FAMILY_OF[t], []).append(t)

    def simulate(task):
        family, rep = task
        rep_seed = substream(seed, f"moments/{family}", rep).integers(2**63)
        return _simulate_family(
            family, families[family], arch, meta, int(rep_seed), rho_eps, screen, sel_a, sel_b
        )

    tasks = [(family, rep) for family in families for rep in range(replicates)]
    samples = _map_tasks(simulate, tasks, resolve_workers(None, len(tasks)))
    values: dict[str, np.ndarray] = {t: np.empty(replicates) for t in tags}
    for (family, rep), sample in zip(tasks, samples):
        for t in families[family]:
            values[t][rep] = sample[t]

    reports = []
    for t in tags:
        cross = cross_ae if t == "overlap_i_cov_ae_num" else cross_ab if t == "overlap_ii_cov_ab_num" else None
        pred = predict(t, arch, meta, screen=screen, sigma_eps_cross=cross)
        v = values[t]
        mean = float(np.mean(v))
        se = float(np.std(v, ddof=1) / np.sqrt(replicates))
        if se == 0.0:
            z = 0.0 if mean == pred.expected_value else float("inf")
        else:
            z = (mean - pred.expected_value) / se
        reports.append(
            MomentCheckReport(
                quantity_tag=t,
                predicted=pred.expected_value,
                empirical_mean=mean,
                empirical_se=se,
                z=float(z),
                replicates=replicates,
                passed=bool(abs(z) < Z_THRESHOLD),
            )
        )
    return reports

