"""Declarative Monte-Carlo experiment runner.

A scenario is a grid of design points; every (point, replicate) pair is an
independent task that generates fresh cohorts, runs the marginal scan,
builds the scores, and records raw and bias-corrected correlation estimates
(or scan-quality metrics).  Tasks are pure functions of
``(config, point, replicate_index)`` through the splittable seed contract,
so running with one worker or many yields identical replicate rows.

Scenarios
---------
``SCENARIOS`` holds one record per scenario: the grid it walks, the cohorts
it needs and its replicate function.  fig1, fig2, figS2, figS5 and fig3
share one chain (architecture, independent cohorts, scans); fig2, figS2 and
figS5 also share their estimators and differ only in grid and cohorts.
fig4 runs one loop over its overlap cases (``_FIG4_CASES``).

fig2_all_snp        all-SNP estimators across a grid of true correlations
figS5_summary_only  the summary-statistics-only estimator across the grid
figS2_sparsity      all-SNP phenotype-vs-score estimator across sparsities
fig3_screening      screened estimator across a p-value threshold ladder
fig4_overlap        overlapping-samples designs across the correlation grid
fig1_gwas_properties  scan quality (AUC, power, enrichment, MSE) and the
                      variance of a null-SNP marginal effect across sparsity
"""

from __future__ import annotations

import ctypes
import functools
import math
import operator
import os
from collections import namedtuple
from collections.abc import Callable
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import kernels
from .errors import CrosstraitError, DegenerateScoreError, ExperimentError, ParameterError
from .estimators import CASES, DesignMeta, ScreenCounts, bias_factor, correct, raw_cosine
from .gwas import marginal_gwas, screen_metrics, threshold_select
from .prs import ScreenRule
from .rng import substream
from .synth import (
    CohortSizes,
    OverlapDesign,
    TraitArchitecture,
    _COHORT_TRAITS,
    gen_overlapping_cohorts,
    scan_independent_cohorts,
)

# the p-value threshold ladder used by the screening study
DEFAULT_THRESHOLDS = (
    1.0, 0.8, 0.5, 0.4, 0.3, 0.2, 0.1, 0.08, 0.05, 0.02, 0.01,
    1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8,
)

WORKERS_ENV = "CROSSTRAIT_WORKERS"

# glibc's mallopt parameters M_MMAP_THRESHOLD and M_TRIM_THRESHOLD
_M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD = -3, -1


@dataclass(frozen=True)
class ExperimentConfig:
    """One scenario run, read from a flat key=value file."""

    scenario: str
    p: int
    n1: int
    n2: int = 0
    n3: int = 0
    n_s: int = 0
    m: int = 0
    sigma2: float = 1.0
    h2: float = 1.0
    rho_eps: float = 0.0
    phi_grid: tuple = ()
    sparsity_grid: tuple = ()
    thresholds: tuple = DEFAULT_THRESHOLDS
    replicates: int = 200
    master_seed: int = 0
    sigma2_eps: float | None = None
    standardize_y: bool = True
    overlap_cases: tuple = ("i", "ii")

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ParameterError(
                f"unknown scenario {self.scenario!r}; choose from {tuple(SCENARIOS)}"
            )
        if self.replicates < 1:
            raise ParameterError("replicates must be >= 1")
        if set(self.overlap_cases) - {"i", "ii"}:
            raise ParameterError("overlap_cases entries must be 'i' or 'ii'")

    _GRID_KEYS = ("phi_grid", "sparsity_grid", "thresholds")
    _FLOAT_KEYS = ("sigma2", "h2", "rho_eps", "sigma2_eps")
    _BOOLS = {"1": True, "true": True, "yes": True, "on": True,
              "0": False, "false": False, "no": False, "off": False}

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Build from the flat key=value config-file mapping; an unknown key,
        a value that does not parse or a missing required key raises
        ``ParameterError``."""
        known = {f.name for f in fields(cls)}
        alias = {"ns": "n_s", "seed": "master_seed"}
        kwargs = {}
        for key, value in raw.items():
            name = alias.get(key, key)
            if name not in known:
                raise ParameterError(f"unknown config key {key!r}")
            try:
                if name in cls._GRID_KEYS:
                    kwargs[name] = tuple(float(v) for v in str(value).split(",") if str(v).strip())
                elif name == "overlap_cases":
                    kwargs[name] = tuple(v.strip() for v in str(value).split(",") if v.strip())
                elif name == "standardize_y":
                    kwargs[name] = cls._BOOLS[str(value).strip().lower()]
                elif name in cls._FLOAT_KEYS:
                    kwargs[name] = float(value)
                elif name == "scenario":
                    kwargs[name] = str(value).strip()
                else:
                    kwargs[name] = int(value)
            except (KeyError, ValueError):
                raise ParameterError(f"config key {key!r} has a bad value: {value!r}") from None
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in kwargs]
        if missing:
            raise ParameterError(f"config lacks required key(s): {', '.join(missing)}")
        return cls(**kwargs)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(x if isinstance(x, str) else f"{x:g}" for x in v)
            out[f.name] = v
        return out


@dataclass
class ReplicateRow:
    scenario: str
    point_id: str
    estimator: str
    replicate: int
    raw: float
    corrected: float
    factor: float
    flag: str = "ok"


@dataclass
class AggregateRow:
    scenario: str
    point_id: str
    estimator: str
    mean: float
    sd: float
    n: int


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    replicate_rows: list
    aggregate_rows: list
    failures: list
    workers: int = 1


def genetic_share(arch: TraitArchitecture, rho_eps: float, pair: str) -> float:
    """Genetic fraction of the phenotypic correlation on shared samples.

    h = m sigma_cross / (m sigma_cross + sigma_eps_cross).  When both the
    genetic and error cross-covariances vanish there is no correlation to
    apportion and the share is reported as 1.
    """
    if pair == "ae":
        gen = arch.m_alpha_eta * arch.sigma_alpha_eta
        cross = rho_eps * math.sqrt(arch.sigma2_eps("alpha") * arch.sigma2_eps("eta"))
    elif pair == "ab":
        gen = arch.m_alpha_beta * arch.sigma_alpha_beta
        cross = rho_eps * math.sqrt(arch.sigma2_eps("alpha") * arch.sigma2_eps("beta"))
    else:
        raise ParameterError("pair must be 'ae' or 'ab'")
    total = gen + cross
    if total == 0.0:
        return 1.0
    h = gen / total
    if not (0.0 < h <= 1.0):
        raise ParameterError(
            f"induced genetic share {h:.4g} outside (0, 1]; the closed-form "
            "corrections require non-negative error cross-covariance"
        )
    return h


def _h2_for_fixed_noise(m: int, sigma2: float, sigma2_eps: float) -> float:
    """Heritability whose calibrated error variance equals sigma2_eps; NaN,
    which no architecture accepts, when the total variance is 0."""
    total = m * sigma2 + sigma2_eps
    return m * sigma2 / total if total else math.nan


def _rep_seed(config: ExperimentConfig, point_id: str, rep: int, stream: str = "") -> int:
    label = f"{config.scenario}|{point_id}|{stream}"
    return int(substream(config.master_seed, label, rep).integers(2**63))


def _estimate_row(config, point_id, rep, name, u, v, meta) -> ReplicateRow:
    """Cosine + correction, with degenerate scores recorded, not raised."""
    try:
        raw = raw_cosine(u, v)
    except DegenerateScoreError:
        return ReplicateRow(config.scenario, point_id, name, rep, 0.0, float("nan"),
                            0.0, "degenerate_score")
    est = correct(raw, meta)
    return ReplicateRow(config.scenario, point_id, name, rep, raw,
                        est.corrected, est.bias_factor, est.flag)


def _all_snp_scores(W, stats_list) -> np.ndarray:
    """All-SNP scores of several simulated scans on one target, each block of
    the target converted once; row i is bitwise equal to
    ``score(W, stats_list[i]).scores`` (simulated SNPs align by position)."""
    effects = np.column_stack([st.effect for st in stats_list])
    return kernels.std_matvec(W.codes, W.col_mean, W.col_sd, effects).T


def _ladder_scores(W, stats, thresholds) -> dict:
    """Screened scores for a ladder of p-value cutoffs, in one pass over the SNPs.

    The rungs are nested (the SNPs that ``ScreenRule("pvalue_cutoff", cut)``
    keeps), so in ascending order of cutoff each rung adds the SNPs the rung
    before it did not keep.  Each rung's new SNPs are scored once, in
    ascending index order; a rung's score is the running sum from the
    strictest cutoff up to its own.  Returns ``{cutoff: score}`` for the
    distinct cutoffs; a rung that keeps no SNP gets zeros.  Equal to
    ``score(W, stats, ScreenRule("pvalue_cutoff", cutoff))`` up to rounding.
    """
    running = np.zeros(W.n)
    kept = np.zeros(stats.p, dtype=bool)
    out = {}
    for cut in np.unique(np.asarray(thresholds, dtype=np.float64)):
        mask = ScreenRule("pvalue_cutoff", cut).mask(stats)
        idx = np.flatnonzero(mask & ~kept)
        if idx.size:
            running = running + kernels.std_matvec(
                W.codes, W.col_mean, W.col_sd, stats.effect[idx], indices=idx)
        kept = mask
        out[float(cut)] = running
    return out


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

_COHORT_ROLES = {"n1": "discovery (n1)", "n2": "discovery (n2)", "n3": "target (n3)",
                 "n_s": "shared (n_s)"}


def _refuse_short_cohorts(who: str, sizes: dict, least: dict, shared: tuple = ()) -> None:
    """Refuse, naming ``who``, the cohort blocks ``sizes`` (field -> size) when
    one holds fewer samples than its ``least`` size, counting the
    ``sizes["n_s"]`` shared samples of the fields in ``shared``, or when one
    holds 1 sample, whose every column is monomorphic."""
    short = []
    for f, size in sizes.items():
        if size + (sizes.get("n_s", 0) if f in shared else 0) < least.get(f, 0):
            short.append(_COHORT_ROLES[f] + (" with the n_s shared samples" if f in shared else ""))
        elif size == 1:
            short.append(f"{_COHORT_ROLES[f]} block of 1 sample")
    if short:
        raise ParameterError(f"{who} needs cohorts of at least 2 samples: " + ", ".join(short))


def _points(config) -> list:
    """One point per value of the scenario's grid, each with its causal
    count ``m``, its effect correlation ``phi`` and what the scenario's
    ``build`` makes of them (its architecture); refuses a config the
    scenario cannot run, or a point whose architecture it refuses, before
    any task starts.

    A phi point keeps ``config.m``; a sparsity point sets m from the sparsity
    and takes the first phi of ``phi_grid``.
    """
    sc = SCENARIOS[config.scenario]
    missing = [g for g in sc.grids if not getattr(config, g)]
    if missing:
        raise ParameterError(f"{config.scenario} needs {' and '.join(missing)}")
    _refuse_short_cohorts(config.scenario, {f: getattr(config, f) for f in sc.cohorts},
                          sc.cohorts)
    if sc.grids[0] == "phi_grid":
        points = [(f"phi={phi:g}", config.m, phi) for phi in config.phi_grid]
    else:
        phi = config.phi_grid[0] if config.phi_grid else None
        points = [(f"mp={s:g}", max(1, round(s * config.p)), phi) for s in config.sparsity_grid]
    out = []
    for pid, m, phi in points:
        try:
            out.append({"point_id": pid, "m": m, "phi": phi, **sc.build(config, m, phi)})
        except ParameterError as exc:
            raise ParameterError(f"{config.scenario} point {pid}: {exc}") from None
    return out


def _drawn(config) -> list:
    """(cohort field, trait) of each independent cohort a task draws: the
    scenario's cohort fields that the config sets."""
    cohorts = SCENARIOS[config.scenario].cohorts
    return [(f, t) for f, t in _COHORT_TRAITS if f in cohorts and getattr(config, f)]


def _shared_arch(config, m, phi) -> dict:
    """The architecture of the traits of the independent cohorts, all sharing
    the m causal SNPs."""
    traits = tuple(t for _, t in _drawn(config))
    return {"arch": TraitArchitecture.shared_causal(
        config.p, m, phi=phi, sigma2=config.sigma2, h2=config.h2, traits=traits)}


def _independent_scans(config, point, rep):
    """The cohorts of ``_drawn`` for one task (alpha discovery n1, beta
    discovery n2, eta target n3), each discovery scanned by
    ``marginal_gwas`` as it is drawn (``scan_independent_cohorts``).
    Returns the bundle of the target and ``{trait: SummaryStats}`` of each
    discovery.
    """
    drawn = _drawn(config)
    return scan_independent_cohorts(
        point["arch"], CohortSizes(**{f: getattr(config, f) for f, _ in drawn}),
        _rep_seed(config, point["point_id"], rep), tuple(t for _, t in drawn),
        lambda X, y: marginal_gwas(X, y, config.standardize_y))


def _rep_all_snp(config, point, rep):
    """All-SNP estimators of the cohorts drawn: phenotype vs score (G_ae) on a
    target, score vs score (G_ab) on a target with beta, and effect vs effect
    (phi_ab_summary) with beta."""
    b, stats = _independent_scans(config, point, rep)
    pid = point["point_id"]
    rows = []
    if b.target is not None:
        prs = _all_snp_scores(b.target, list(stats.values()))
        meta = DesignMeta(case_tag="indep_ae", p=config.p, n1=config.n1, n3=config.n3,
                          h2_alpha=config.h2, h2_eta=config.h2)
        rows.append(_estimate_row(config, pid, rep, "G_ae", b.y_eta.y, prs[0], meta))
        if "beta" in stats:
            meta = DesignMeta(case_tag="indep_ab", p=config.p, n1=config.n1, n2=config.n2,
                              n3=config.n3, h2_alpha=config.h2, h2_beta=config.h2)
            rows.append(_estimate_row(config, pid, rep, "G_ab", prs[1], prs[0], meta))
    if "beta" in stats:
        meta = DesignMeta(case_tag="summary_ab", p=config.p, n1=config.n1, n2=config.n2,
                          h2_alpha=config.h2, h2_beta=config.h2)
        rows.append(_estimate_row(config, pid, rep, "phi_ab_summary",
                                  stats["alpha"].effect, stats["beta"].effect, meta))
    return rows


def _rep_fig3(config, point, rep):
    """The screened phenotype-vs-score estimator at each p-value cutoff, with
    its counts in the flag; a zero factor leaves the row uncorrected (NaN)."""
    bundle, scans = _independent_scans(config, point, rep)
    arch = point["arch"]
    stats = scans["alpha"]
    pid = point["point_id"]
    meta = DesignMeta(case_tag="screened_ae", p=config.p, n1=config.n1, n3=config.n3,
                      h2_alpha=config.h2, h2_eta=config.h2)
    scores = _ladder_scores(bundle.target, stats, config.thresholds)
    rows = []
    for thr, rule in zip(config.thresholds, point["rules"]):
        sel = threshold_select(stats, rule, truth=bundle.effects["alpha"],
                               overlap_truth=bundle.effects["eta"])
        name = f"G_T@{thr:g}"
        flag_counts = f"q={sel.q};q1={sel.q1};qae={sel.q_overlap}"
        if sel.empty:
            rows.append(ReplicateRow(config.scenario, pid, name, rep, 0.0, float("nan"),
                                     0.0, "empty_selection;" + flag_counts))
            continue
        try:
            raw = raw_cosine(bundle.y_eta.y, scores[thr])
        except DegenerateScoreError:
            rows.append(ReplicateRow(config.scenario, pid, name, rep, 0.0, float("nan"),
                                     0.0, "degenerate_score;" + flag_counts))
            continue
        factor = bias_factor(meta, ScreenCounts(
            m_alpha=arch.m_alpha, m_alpha_eta=arch.m_alpha_eta,
            q_alpha=sel.q, q_alpha1=sel.q1, q_alpha_eta=sel.q_overlap))
        corrected = raw / factor if factor > 0 else float("nan")
        rows.append(ReplicateRow(config.scenario, pid, name, rep, raw, corrected,
                                 factor, "ok;" + flag_counts))
    return rows


def _fig3_build(config, m, phi) -> dict:
    """The shared architecture and the screen rule of each threshold."""
    rules = tuple(ScreenRule("pvalue_cutoff", thr) for thr in config.thresholds)
    return {**_shared_arch(config, m, phi), "rules": rules}


# fig4 overlap case -> alpha and the trait whose cohort shares the n_s samples
# with alpha's discovery (eta's target or beta's discovery), the overlap pair,
# the genetic-share pair, the cohort-size fields it draws, its estimator and
# its design case, whose ``shared`` fields hold the n_s shared samples; the
# overlap families of ``moments`` draw these same records
_Fig4Case = namedtuple("_Fig4Case", "traits pair share sizes estimator case_tag")
_FIG4_CASES = {
    "i": _Fig4Case(("alpha", "eta"), "discovery_target", "ae", ("n1", "n3"),
                   "G_S_ae", "overlap_case_i"),
    "ii": _Fig4Case(("alpha", "beta"), "discovery_discovery", "ab", ("n1", "n2", "n3"),
                    "G_S_ab", "overlap_case_ii"),
}


def _refuse_short_case(who: str, spec: _Fig4Case, sizes_of) -> None:
    """Refuse, naming ``who``, the overlap case ``spec`` when the sizes of
    ``sizes_of`` (a config or a DesignMeta) give it a cohort of fewer than 2
    samples, counting the shared ones, or a block of 1 sample."""
    _refuse_short_cohorts(who, {f: getattr(sizes_of, f) or 0 for f in (*spec.sizes, "n_s")},
                          dict.fromkeys(spec.sizes, 2), CASES[spec.case_tag].shared)


def _fig4_build(config, m, phi) -> dict:
    """(architecture, overlap design, genetic share) of each overlap case;
    a case with a cohort of fewer than 2 samples, counting the shared ones,
    or with a block of 1 sample (n1, n2, n3 or n_s) is refused."""
    cases = {}
    for case in config.overlap_cases:
        spec = _FIG4_CASES[case]
        _refuse_short_case(f"overlap case {case}", spec, config)
        arch = TraitArchitecture.shared_causal(
            config.p, m, phi=phi, sigma2=config.sigma2, h2=config.h2, traits=spec.traits)
        design = OverlapDesign(n_s=config.n_s, pair=spec.pair, rho_eps=config.rho_eps)
        cases[case] = (arch, design, genetic_share(arch, config.rho_eps, spec.share))
    return {"cases": cases}


def _rep_fig4(config, point, rep):
    """Each overlap case's all-SNP score of alpha against its other trait:
    eta's target phenotype (case i) or beta's score (case ii)."""
    pid = point["point_id"]
    rows = []
    for case, spec in _FIG4_CASES.items():
        if case not in point["cases"]:
            continue
        arch, design, h = point["cases"][case]
        sizes = {f: getattr(config, f) for f in spec.sizes}
        b = gen_overlapping_cohorts(design, arch, CohortSizes(**sizes),
                                    _rep_seed(config, pid, rep, f"case_{case}"))
        other = spec.traits[1]
        stats = [marginal_gwas(getattr(b, f"disc_{t}"), getattr(b, f"y_{t}").y,
                               config.standardize_y) for t in spec.traits if t != "eta"]
        prs = _all_snp_scores(b.target, stats)
        meta = DesignMeta(case_tag=spec.case_tag, p=config.p, n_s=config.n_s, **sizes,
                          h2_alpha=config.h2, **{f"h2_{other}": config.h2,
                                                 f"h_alpha_{other}": h})
        u = b.y_eta.y if other == "eta" else prs[1]
        rows.append(_estimate_row(config, pid, rep, spec.estimator, u, prs[0], meta))
    return rows


def _fig1_build(config, m, phi) -> dict:
    """The one-trait architecture of a sparsity point, its error variance
    fixed at sigma2_eps (default 1)."""
    # keep one null SNP available as the variance-law probe
    p_total = config.p + 1 if m == config.p else config.p
    sigma2_eps = config.sigma2_eps if config.sigma2_eps is not None else 1.0
    h2 = _h2_for_fixed_noise(m, config.sigma2, sigma2_eps)
    return {"arch": TraitArchitecture(p=p_total, m_alpha=m, sigma2_alpha=config.sigma2,
                                      h2_alpha=h2)}


def _rep_fig1(config, point, rep):
    pid = point["point_id"]
    arch = point["arch"]
    p_total = arch.p
    bundle, scans = _independent_scans(config, point, rep)
    stats = scans["alpha"]
    rows = []
    if point["m"] < p_total:
        metrics = screen_metrics(stats, bundle.effects["alpha"])
        for name, value in (("auc", metrics.auc), ("power", metrics.power),
                            ("enrichment", metrics.enrichment), ("beta_mse", metrics.beta_mse)):
            rows.append(ReplicateRow(config.scenario, pid, name, rep, value,
                                     float("nan"), float("nan")))
        probe = int(np.setdiff1d(np.arange(p_total), arch.causal_sets["alpha"])[0])
        rows.append(ReplicateRow(config.scenario, pid, "bhat_null_probe", rep,
                                 float(stats.effect[probe]), float("nan"), float("nan")))
    return rows


@dataclass(frozen=True)
class Scenario:
    """One Monte-Carlo study.

    ``grids`` are the config grids it needs; it walks the first.  ``cohorts``
    maps each cohort-size field it draws to the least size it needs (0: the
    cohort is drawn when the config sets it); a drawn cohort of 1 sample is
    refused.  fig4's ``build`` checks the cohorts of the overlap cases it
    runs.  ``build(config, m, phi)``
    makes the objects that every task of a point shares (its architecture),
    once per point and before any task, so that it refuses an out-of-domain
    value as a usage error; ``replicate(config, point, rep)`` returns one
    task's rows.
    """

    grids: tuple
    cohorts: dict
    replicate: Callable
    build: Callable = _shared_arch


SCENARIOS = {
    "fig1_gwas_properties": Scenario(("sparsity_grid",), {"n1": 2}, _rep_fig1, _fig1_build),
    "fig2_all_snp": Scenario(("phi_grid",), {"n1": 2, "n2": 0, "n3": 2}, _rep_all_snp),
    "fig3_screening": Scenario(("sparsity_grid", "phi_grid"), {"n1": 2, "n3": 2}, _rep_fig3,
                               _fig3_build),
    "fig4_overlap": Scenario(("phi_grid",), {"n3": 2}, _rep_fig4, _fig4_build),
    "figS2_sparsity": Scenario(("sparsity_grid", "phi_grid"), {"n1": 2, "n3": 2}, _rep_all_snp),
    "figS5_summary_only": Scenario(("phi_grid",), {"n1": 2, "n2": 2}, _rep_all_snp),
}


@functools.cache
def _keep_freed_memory() -> bool:
    """Have glibc's malloc serve blocks below 64 MiB from the heap and keep up
    to 256 MiB of freed heap, once per process; True if both took effect.

    A replicate frees cohort code arrays of a few MB that the next replicate
    allocates again, and a kernel streaming a container does the same with
    its tile buffers; under glibc's defaults each is a fresh mmap, or heap
    trimmed and grown again, whose pages fault in on first touch.
    ``cli.main`` calls this for every command, ``run`` for every study.
    Elsewhere than glibc this does nothing.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, 64 << 20) == 1
            and mallopt(_M_TRIM_THRESHOLD, 256 << 20) == 1)


def _map_tasks(fn, tasks: list, workers: int) -> list:
    """``[fn(t) for t in tasks]``, in task order, on a pool of ``workers``
    threads of the calling process when there is more than one.  If a call
    raises, the tasks not yet started are cancelled and it propagates."""
    if workers == 1:
        return [fn(t) for t in tasks]
    # imported here: concurrent.futures loads logging, which serial runs and
    # the file commands never use
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        return list(pool.map(fn, tasks))
    finally:
        pool.shutdown(cancel_futures=True)


def _run_task(args):
    config, point, rep = args
    try:
        return ("ok", SCENARIOS[config.scenario].replicate(config, point, rep))
    except CrosstraitError as exc:  # recorded, counted, excluded from aggregates
        return ("fail", (point["point_id"], rep, f"{type(exc).__name__}: {exc}"))


def _worker_count(value, source: str) -> int:
    """``value`` as a worker count; anything but an integer >= 1 is refused."""
    try:
        count = int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        count = 0
    if count < 1:
        raise ParameterError(f"{source} must be an integer >= 1, got {value!r}")
    return count


def resolve_workers(workers: int | None, n_tasks: int) -> int:
    """``workers``, else $CROSSTRAIT_WORKERS, else one per usable core but no
    more than there are tasks."""
    if workers is not None:
        return _worker_count(workers, "workers")
    env = os.environ.get(WORKERS_ENV)
    if env:
        return _worker_count(env, f"${WORKERS_ENV}")
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS, Windows)
        cores = os.cpu_count() or 1
    return max(1, min(cores, n_tasks))


def aggregate(rows: list) -> list:
    """Mean/SD/count per (scenario, point, estimator), raw and corrected.

    Exactly stable under row permutation: within a group the values are put
    in replicate order before the (pairwise-summed) reduction, so the float
    result does not depend on arrival order.  Constant groups report SD 0.
    """
    groups: dict[tuple, dict[str, list]] = {}
    for r in rows:
        key = (r.scenario, r.point_id, r.estimator)
        g = groups.setdefault(key, {"raw": [], "corrected": []})
        g["raw"].append((r.replicate, r.raw))
        g["corrected"].append((r.replicate, r.corrected))
    out = []
    for key in sorted(groups):
        scenario, point_id, estimator = key
        for kind in ("raw", "corrected"):
            ordered = [v for _, v in sorted(groups[key][kind], key=lambda t: t[0])]
            vals = np.asarray(ordered, dtype=np.float64)
            vals = vals[np.isfinite(vals)]
            if vals.size == 0:
                continue
            if np.all(vals == vals[0]):
                mean, sd = float(vals[0]), 0.0
            else:
                mean = float(np.mean(vals))
                sd = float(np.std(vals, ddof=1)) if vals.size > 1 else float("nan")
            out.append(AggregateRow(scenario, point_id, f"{estimator}:{kind}",
                                    mean, sd, int(vals.size)))
    return out


def run(
    config: ExperimentConfig,
    workers: int | None = None,
    out_dir: str | None = None,
) -> ExperimentResult:
    """Execute a scenario; optionally persist replicate/aggregate TSVs.

    With more than one worker the tasks run on a pool of threads of the
    calling process: the numpy loops that do a replicate's work release the
    GIL.  The rows come back in task order, so one worker and many write the
    same bytes.  Replicate failures (a ``CrosstraitError`` raised by a
    replicate) are recorded with their reason and excluded from the
    aggregates; the run aborts if more than 5% of tasks fail.  Any other
    exception is a bug: the tasks not yet started are cancelled and it
    propagates.  No replicate calls BLAS (see ``kernels``), so the BLAS
    thread count moves no bit either.  On glibc, the first call sets the
    malloc thresholds of the whole process (see ``_keep_freed_memory``).
    """
    _keep_freed_memory()
    tasks = [(config, point, rep) for point in _points(config) for rep in range(config.replicates)]

    nworkers = resolve_workers(workers, len(tasks))
    rows, failures = [], []
    for status, payload in _map_tasks(_run_task, tasks, nworkers):
        if status == "ok":
            rows.extend(payload)
        else:
            failures.append(payload)
    if len(failures) > 0.05 * len(tasks):
        detail = "; ".join(f"{p}#{r}: {msg}" for p, r, msg in failures[:5])
        raise ExperimentError(
            f"{len(failures)}/{len(tasks)} replicates failed (first: {detail})"
        )

    aggs = aggregate(rows)
    result = ExperimentResult(config=config, replicate_rows=rows,
                              aggregate_rows=aggs, failures=failures, workers=nworkers)
    if out_dir is not None:
        from . import io_files

        io_files.persist_experiment(out_dir, result)
    return result
