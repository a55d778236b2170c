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

Families and forms
------------------
A form is the inner product of two vectors (``_FORMS``): the target
phenotype y_eta, the discovery scans t_alpha = X' y_alpha and t_beta =
Z' y_beta, or their scores s_alpha = W t_alpha and s_beta = W t_beta on the
target (X, Z, W implicitly standardized).  So cov_ae_num is y_eta' s_alpha
(phenotype x score), cov_ab_num s_beta' s_alpha (score x score) and
summary_ab_num t_alpha' t_beta (summary x summary); a ``_den`` form is a
vector's squared norm.

A quantity tag is a form, prefixed by its family's name and "_" in every
family but ``indep``.  A family draws one set of cohorts per replicate and
builds each of its forms from them; ``_FAMILY_FORMS``, the one table the
tags come from, lists them.  ``indep`` draws independent cohorts, and
``screened`` the same with its scores restricted to the selected columns.
``overlap_i`` (discovery and target share n_s samples) and ``overlap_ii``
(the two discoveries share them) take their pair, cohorts and design case
from fig4's cases i and ii.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ParameterError
from .estimators import DesignMeta, ScreenCounts
from .experiments import (
    _FIG4_CASES,
    _map_tasks,
    _refuse_short_case,
    _refuse_short_cohorts,
    resolve_workers,
)
from .rng import substream
from .synth import (
    CohortSizes,
    OverlapDesign,
    TraitArchitecture,
    gen_overlapping_cohorts,
    scan_independent_cohorts,
)

# moment family -> its forms: the one table the quantity tags come from
_FAMILY_FORMS = {
    "indep": ("cov_ae_num", "var_alpha_den", "var_eta_den", "cov_ab_num", "var_beta_den",
              "summary_ab_num", "summary_alpha_den", "summary_beta_den"),
    "screened": ("cov_ae_num", "var_alpha_den", "cov_ab_num", "var_beta_den"),
    "overlap_i": ("cov_ae_num", "var_alpha_den", "var_eta_den"),
    "overlap_ii": ("cov_ab_num", "var_alpha_den", "var_beta_den"),
}
# quantity tag -> (family, form); the independent family's tags are bare forms
_TAGS = {(form if fam == "indep" else f"{fam}_{form}"): (fam, form)
         for fam, forms in _FAMILY_FORMS.items() for form in forms}
ALL_TAGS = tuple(_TAGS)
INDEP_TAGS, SCREENED_TAGS, OVERLAP_I_TAGS, OVERLAP_II_TAGS = (
    tuple(t for t, (fam, _) in _TAGS.items() if fam == family) for family in _FAMILY_FORMS)
Z_THRESHOLD = 4.0

# overlap family -> the record of the fig4 case it draws
_OVERLAP = {f"overlap_{case}": spec for case, spec in _FIG4_CASES.items()}
# form -> the two vectors of its inner product
_FORMS = {
    "cov_ae_num": ("y_eta", "s_alpha"),
    "var_alpha_den": ("s_alpha", "s_alpha"),
    "var_eta_den": ("y_eta", "y_eta"),
    "cov_ab_num": ("s_beta", "s_alpha"),
    "var_beta_den": ("s_beta", "s_beta"),
    "summary_ab_num": ("t_alpha", "t_beta"),
    "summary_alpha_den": ("t_alpha", "t_alpha"),
    "summary_beta_den": ("t_beta", "t_beta"),
}
# vector -> the cohort-size fields of the cohorts it is built from
_VECTOR_COHORTS = {"y_eta": ("n3",), "t_alpha": ("n1",), "t_beta": ("n2",),
                   "s_alpha": ("n1", "n3"), "s_beta": ("n2", "n3")}


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
    sel_b = _fixed_selection(arch, "beta", q_beta1, q_beta2)
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


def _cohorts(tags) -> list:
    """The sorted cohort-size fields an independent family draws for ``tags``:
    n1, whose alpha discovery it always scans, and those of their vectors."""
    return sorted({"n1", *(f for t in tags for v in _FORMS[_TAGS[t][1]]
                           for f in _VECTOR_COHORTS[v])})


def _simulate_family(
    family: str,
    tags: list[str],
    arch: TraitArchitecture,
    meta: DesignMeta,
    rep_seed: int,
    rho_eps: float,
    selection: dict | None,
) -> dict[str, float]:
    """One replicate of every quantity of ``tags``, all of one family.

    Independent cohorts are scanned as they are drawn; an overlap family
    draws its fig4 case, then scans.  The screened family restricts each
    score to its ``selection`` (trait -> columns); all-SNP scores are built
    in one ``kernels.std_matvec`` call with (p, k) weights, each column
    bitwise equal to its single-vector score.  Each tag is the
    ``kernels.dot`` of its form's vectors, so no BLAS thread count moves a bit.
    """
    spec = _OVERLAP.get(family)
    fields = _cohorts(tags) if spec is None else spec.sizes
    sizes = CohortSizes(**{f: getattr(meta, f) or 0 for f in fields})
    if spec is None:
        traits = ("alpha", "beta", "eta") if "n2" in fields else ("alpha", "eta")
        b, scans = scan_independent_cohorts(arch, sizes, rep_seed, traits, _scan)
    else:
        design = OverlapDesign(n_s=meta.n_s, pair=spec.pair, rho_eps=rho_eps)
        b = gen_overlapping_cohorts(design, arch, sizes, rep_seed)
        scans = {t: _scan(getattr(b, f"disc_{t}"), getattr(b, f"y_{t}").y)
                 for t in spec.traits if t != "eta"}
    vec = {f"t_{t}": scan for t, scan in scans.items()}
    if b.y_eta is not None:
        vec["y_eta"] = b.y_eta.y
    wanted = {v for t in tags for v in _FORMS[_TAGS[t][1]]}
    scored = [t for t in ("alpha", "beta") if f"s_{t}" in wanted]
    W = b.target
    if selection is not None:
        for t in scored:
            idx = selection[t]
            vec[f"s_{t}"] = kernels.std_matvec(W.codes, W.col_mean, W.col_sd,
                                               vec[f"t_{t}"][idx], indices=idx)
    elif scored:
        s = kernels.std_matvec(W.codes, W.col_mean, W.col_sd,
                               np.column_stack([vec[f"t_{t}"] for t in scored]))
        vec.update((f"s_{t}", col) for t, col in zip(scored, s.T))
    return {t: kernels.dot(*(vec[v] for v in _FORMS[_TAGS[t][1]])) for t in tags}


def monte_carlo_check_many(
    tags: list[str],
    arch: TraitArchitecture,
    meta: DesignMeta,
    replicates: int,
    seed: int,
    rho_eps: float = 0.0,
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
        if t not in _TAGS:
            raise ParameterError(f"unsupported quantity tag {t!r}")
        if (spec := _OVERLAP.get(_TAGS[t][0])) is not None:
            _refuse_short_case(t, spec, meta)
        else:
            fields = _cohorts([t])
            _refuse_short_cohorts(t, {f: getattr(meta, f) or 0 for f in fields},
                                  dict.fromkeys(fields, 2))

    screen = chosen = None
    screened = [t for t in tags if _TAGS[t][0] == "screened"]
    if screened:
        if selection is None:
            raise ParameterError("screened tags need selection=(q_a1, q_a2, q_b1, q_b2)")
        screen, sel_a, sel_b = screen_counts_for_fixed_selection(arch, *selection)
        chosen = {"alpha": sel_a, "beta": sel_b}
        beta = [t for t in screened if "n2" in _cohorts([t])]
        if beta and not sel_b.shape[0]:
            raise ParameterError(f"{beta[0]} needs a beta selection (q_b1 + q_b2 > 0)")

    families: dict[str, list[str]] = {}
    for t in tags:
        families.setdefault(_TAGS[t][0], []).append(t)

    def simulate(task):
        family, rep = task
        rep_seed = substream(seed, f"moments/{family}", rep).integers(2**63)
        return _simulate_family(family, families[family], arch, meta, int(rep_seed), rho_eps,
                                chosen if family == "screened" else None)

    tasks = [(family, rep) for family in families for rep in range(replicates)]
    samples = _map_tasks(simulate, tasks, resolve_workers(None, len(tasks)))
    values: dict[str, np.ndarray] = {t: np.empty(replicates) for t in tags}
    for (family, rep), sample in zip(tasks, samples):
        for t in families[family]:
            values[t][rep] = sample[t]

    reports = []
    for t in tags:
        # an overlap prediction's error cross-covariance, as rho_eps implies it
        spec = _OVERLAP.get(_TAGS[t][0])
        cross = None if spec is None else (rho_eps * np.sqrt(arch.sigma2_eps("alpha"))
                                           * np.sqrt(arch.sigma2_eps(spec.traits[1])))
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

