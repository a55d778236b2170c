"""Synthetic GWAS cohorts under a sparse polygenic model.

This module generates everything upstream of association testing:

* genotype matrices with Hardy-Weinberg codes {0, 1, 2} and per-SNP minor
  allele frequencies drawn from U[0.05, 0.45];
* correlated sparse effect vectors for up to three traits, where two trait
  pairs (alpha-eta and alpha-beta) may share causal SNPs with correlated
  per-SNP effects;
* continuous phenotypes ``y = X_std @ effects + eps`` with the error
  variance calibrated so that the asymptotic heritability equals a target;
* multi-cohort bundles in which two studies share a block of samples and,
  optionally, correlated non-genetic errors on the shared block.

All generators are pure functions of a master seed via :mod:`crosstrait.rng`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import GenerationError, ParameterError
from .rng import substream

MAF_LOW = 0.05
MAF_HIGH = 0.45
MAX_RESAMPLE_ATTEMPTS = 100
# rows per generation tile: a multiple of 4, so that every tile but a block's
# last one uses whole 64-bit raw draws; a tile's per-column code sum, at most
# 2 * 124 = 248, fits in uint8
TILE_ROWS = 124
# genotype class probabilities are drawn at this resolution (16-bit uniforms)
DRAW_LEVELS = 1 << 16

TRAITS = ("alpha", "beta", "eta")


@dataclass
class GenotypeMatrix:
    """SNP codes plus the statistics of their standardized view.

    ``codes`` holds the (n, p) uint8 allele counts: a numpy array, or for
    genotypes read from a container an ``io_files.ContainerCodes``, which
    leaves them in the file and serves the kernels one row tile of packed
    codes at a time (a tile source; see ``kernels``), so a kernel holds a
    tile and one decoded block of it, whatever n is (``np.asarray`` gives
    the dense array).  ``code_sum`` / ``twos`` are the int64 per-column code
    sums and counts of 2s, and ``col_mean`` / ``col_sd`` come from them
    (``kernels.stats_from_counts``), with the population-style 1/n divisor
    so that the standardized columns have exact unit sample variance.
    ``maf`` holds the generating minor allele frequencies, or the sample
    estimate for genotypes read from a file.  ``sample_ids`` are the row ids
    of a genotype TSV; None for simulated and container genotypes, whose
    rows are positional.  Every matrix is built by ``from_counts``.
    """

    n: int
    p: int
    codes: np.ndarray
    maf: np.ndarray
    col_mean: np.ndarray
    col_sd: np.ndarray
    code_sum: np.ndarray
    twos: np.ndarray
    snp_ids: np.ndarray | None = None
    resample_count: int = 0
    sample_ids: np.ndarray | None = None

    @classmethod
    def from_counts(cls, codes, code_sum: np.ndarray, twos: np.ndarray,
                    maf: np.ndarray | None = None, **fields) -> "GenotypeMatrix":
        """The genotypes of the (n, p) ``codes``, whose per-column code sums
        and counts of 2s are ``code_sum`` and ``twos`` (trusted, not
        recounted); ``maf`` defaults to the sample estimate, and ``fields``
        sets ``snp_ids``, ``resample_count`` and ``sample_ids``.  Fewer than
        2 samples, no SNP and a monomorphic SNP (the first is named) are
        refused with ``ParameterError``."""
        n, p = codes.shape
        if n < 2:
            raise ParameterError(f"need at least 2 samples, got {n}")
        if p == 0:
            raise ParameterError("no SNPs")
        mean, sd = kernels.stats_from_counts(code_sum, twos, n)
        flat = np.flatnonzero(sd == 0.0)
        if flat.size:
            j = int(flat[0])
            ids = default_snp_ids(p) if fields.get("snp_ids") is None else fields["snp_ids"]
            raise ParameterError(f"SNP {str(ids[j])!r} is monomorphic: "
                                 f"all {n} codes are {int(code_sum[j]) // n}")
        if maf is None:
            maf = np.minimum(mean / 2.0, 1.0 - mean / 2.0)
        return cls(n=n, p=p, codes=codes, maf=np.asarray(maf, dtype=np.float64), col_mean=mean,
                   col_sd=sd, code_sum=code_sum, twos=twos, **fields)

    @classmethod
    def from_codes(cls, codes: np.ndarray, **fields) -> "GenotypeMatrix":
        """``from_counts`` of a 2-d array of codes in {0, 1, 2}, counted here."""
        codes = np.ascontiguousarray(codes, dtype=np.uint8)
        if codes.ndim != 2:
            raise ParameterError("codes must be a 2-d array")
        if codes.max(initial=0) > 2:
            raise ParameterError("genotype codes must be in {0, 1, 2}")
        return cls.from_counts(codes, *kernels.column_counts(codes), **fields)


@functools.lru_cache(maxsize=4)
def default_snp_ids(p: int) -> np.ndarray:
    """The ids ``snp0000000``, ``snp0000001``, ... of p positional SNPs; built
    once per p and read-only, as every caller shares the array."""
    ids = np.array([f"snp{j:07d}" for j in range(p)])
    ids.flags.writeable = False
    return ids


def _uniforms16(rng: np.random.Generator, r: int, k: int) -> np.ndarray:
    """An (r, k) array of uniforms on {0, ..., 2^16 - 1}: the first r * k of the
    16-bit lanes (little-endian order) of ceil(r * k / 4) raw 64-bit draws."""
    raw = rng.bit_generator.random_raw(-(-r * k // 4))
    return raw.astype("<u8", copy=False).view("<u2")[: r * k].reshape(r, k)


def _gen_codes(n: int, maf: np.ndarray, rng: np.random.Generator) -> GenotypeMatrix:
    """Genotype matrix for all p SNPs, with its column statistics, in one pass.

    Each cell takes one 16-bit uniform u: code = [u >= t0] + [u >= t1] with
    t = round(P * 2^16) for P = P(code = 0) and P(code <= 1), so the
    Hardy-Weinberg class probabilities are those multiples of 2^-16.  The
    comparisons are made as u > t - 1 in uint16: a threshold that rounds to
    2^16 ("never") stays in range instead of wrapping to 0 ("always").
    Each column block of ``kernels.DEFAULT_BLOCK_SIZE`` columns is drawn in
    row tiles of at most ``TILE_ROWS`` rows; as the tile height is a multiple
    of 4, the block's uniforms are the first n * k lanes of ceil(n * k / 4)
    raw draws, whatever the tiling.  While a tile is in cache its per-column code sums and counts of 2s are taken (as
    uint8, then added to int64 totals); they give the monomorphic test and the
    mean and SD without a second scan of the codes.  Monomorphic columns are
    redrawn one at a time, in column order, keeping p fixed; the redraw count
    is recorded.
    """
    maf = np.asarray(maf, dtype=np.float64)
    p = maf.shape[0]
    # t - 1 for the thresholds of P(code = 0) and P(code <= 1)
    lim0 = (np.rint((1.0 - maf) ** 2 * DRAW_LEVELS) - 1).astype(np.uint16)
    lim1 = (np.rint((1.0 - maf**2) * DRAW_LEVELS) - 1).astype(np.uint16)
    codes = np.empty((n, p), dtype=np.uint8)
    s = np.zeros(p, dtype=np.int64)   # sum of codes
    n2 = np.zeros(p, dtype=np.int64)  # number of 2s
    block = kernels.DEFAULT_BLOCK_SIZE
    for j0 in range(0, p, block):
        j1 = min(j0 + block, p)
        for i0 in range(0, n, TILE_ROWS):
            i1 = min(i0 + TILE_ROWS, n)
            u = _uniforms16(rng, i1 - i0, j1 - j0)
            is2 = (u > lim1[j0:j1]).view(np.uint8)
            tile = codes[i0:i1, j0:j1]
            np.add((u > lim0[j0:j1]).view(np.uint8), is2, out=tile)
            s[j0:j1] += tile.sum(axis=0, dtype=np.uint8)
            n2[j0:j1] += is2.sum(axis=0, dtype=np.uint8)
    resamples = 0
    # a column is constant iff n * sum(x^2) == sum(x)^2, with sum(x^2) = s + 2 * n2
    for j in np.flatnonzero(n * (s + 2 * n2) == s * s):
        for attempt in range(MAX_RESAMPLE_ATTEMPTS):
            u = _uniforms16(rng, n, 1)[:, 0]
            col = (u > lim0[j]).view(np.uint8) + (u > lim1[j]).view(np.uint8)
            resamples += 1
            if col.max() != col.min():
                codes[:, j] = col
                s[j] = col.sum(dtype=np.int64)
                n2[j] = np.count_nonzero(col == 2)
                break
        else:
            raise GenerationError(
                f"column {j} stayed monomorphic after {MAX_RESAMPLE_ATTEMPTS} redraws; "
                f"n={n} is too small for maf={maf[j]:.4f}"
            )
    return GenotypeMatrix.from_counts(codes, s, n2, maf=maf, resample_count=resamples)


def _gen_cohort(seed: int, label: str, n: int, maf: np.ndarray) -> GenotypeMatrix | None:
    """Codes of one cohort block from its own substream; None when n == 0."""
    return _gen_codes(n, maf, substream(seed, f"cohorts/{label}")) if n else None


def gen_genotypes(n: int, p: int, seed: int, maf: np.ndarray | None = None) -> GenotypeMatrix:
    """Generate an (n, p) genotype matrix.

    Each SNP's minor allele frequency f is drawn from U[0.05, 0.45] (unless
    ``maf`` is supplied, e.g. to share SNPs across cohorts) and its codes
    from {0, 1, 2} with Hardy-Weinberg probabilities
    {(1-f)^2, 2f(1-f), f^2}.  Columns that come out monomorphic are redrawn
    so the declared p is preserved; the redraw count is recorded.
    """
    if n < 2:
        raise ParameterError("need at least 2 individuals")
    if p < 1:
        raise ParameterError("need at least 1 SNP")
    rng = substream(seed, "genotypes")
    if maf is None:
        maf = rng.uniform(MAF_LOW, MAF_HIGH, size=p)
    else:
        maf = np.asarray(maf, dtype=np.float64)
        if maf.shape != (p,):
            raise ParameterError("maf vector length must equal p")
        if np.any((maf <= 0.0) | (maf >= 0.5)):
            raise ParameterError("maf must lie in (0, 0.5)")
    return _gen_codes(n, maf, rng)


def stack_genotypes(*blocks: GenotypeMatrix) -> GenotypeMatrix:
    """Row-stack cohort blocks into one matrix with fresh column statistics.

    The blocks must describe the same SNPs (equal maf vectors).  Used to
    assemble a cohort that contains a shared sample block: the codes of the
    shared block are reused bit-identically in every cohort that contains
    it, while each cohort standardizes its own stacked matrix.  The stack's
    counts are the sums of the blocks' code sums and counts of 2s, so its
    statistics equal those of a scan of the stacked codes bit for bit.
    """
    blocks = tuple(b for b in blocks if b is not None)
    if not blocks:
        raise ParameterError("nothing to stack")
    p = blocks[0].p
    for b in blocks[1:]:
        if b.p != p or not np.array_equal(b.maf, blocks[0].maf):
            raise ParameterError("cohort blocks disagree on SNPs")
    if len(blocks) == 1:
        return blocks[0]
    return GenotypeMatrix.from_counts(
        np.vstack([b.codes for b in blocks]), np.sum([b.code_sum for b in blocks], axis=0),
        np.sum([b.twos for b in blocks], axis=0), maf=blocks[0].maf,
        resample_count=sum(b.resample_count for b in blocks))


@dataclass
class TraitArchitecture:
    """Causal-set sizes, overlaps, effect (co)variances and heritabilities.

    The causal sets are laid out deterministically: trait alpha occupies
    [0, m_alpha); eta shares the first m_alpha_eta of those indices and
    continues after alpha's block; beta shares the first m_alpha_beta and
    continues after eta's tail.  Overlapping indices therefore sit at the
    start of each causal set.  The beta-eta overlap this induces is
    min(m_alpha_beta, m_alpha_eta); beta and eta effects are conditionally
    independent given alpha there, which is the only three-way coupling
    consistent with the declared pairwise covariances.
    """

    p: int
    m_alpha: int
    m_beta: int = 0
    m_eta: int = 0
    m_alpha_eta: int = 0
    m_alpha_beta: int = 0
    sigma2_alpha: float = 1.0
    sigma2_beta: float = 1.0
    sigma2_eta: float = 1.0
    rho_alpha_eta: float = 0.0
    rho_alpha_beta: float = 0.0
    h2_alpha: float = 1.0
    h2_beta: float = 1.0
    h2_eta: float = 1.0
    causal_sets: dict = field(init=False)

    def __post_init__(self):
        if self.p < 1:
            raise ParameterError("p must be >= 1")
        for name in ("m_alpha", "m_beta", "m_eta"):
            if getattr(self, name) < 0 or getattr(self, name) > self.p:
                raise ParameterError(f"{name} must lie in [0, p]")
        if self.m_alpha_eta > min(self.m_alpha, self.m_eta):
            raise ParameterError("m_alpha_eta exceeds min(m_alpha, m_eta)")
        if self.m_alpha_beta > min(self.m_alpha, self.m_beta):
            raise ParameterError("m_alpha_beta exceeds min(m_alpha, m_beta)")
        for name in ("sigma2_alpha", "sigma2_beta", "sigma2_eta"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive")
        for name in ("rho_alpha_eta", "rho_alpha_beta"):
            if abs(getattr(self, name)) > 1.0:
                raise ParameterError(f"{name} must lie in [-1, 1] (effect covariance not PSD)")
        for name in ("h2_alpha", "h2_beta", "h2_eta"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):
                raise ParameterError(f"{name} must lie in (0, 1]")
        for phi in (self.phi_alpha_eta, self.phi_alpha_beta):
            if abs(phi) > 1.0 + 1e-12:
                raise ParameterError("implied genetic correlation outside [-1, 1]")
        self.causal_sets = self._default_causal_sets()

    def _default_causal_sets(self) -> dict:
        eta_tail = self.m_eta - self.m_alpha_eta
        beta_tail = self.m_beta - self.m_alpha_beta
        eta_start = self.m_alpha
        beta_start = self.m_alpha + eta_tail
        if beta_start + beta_tail > self.p:
            raise ParameterError("causal sets with the declared overlaps do not fit in p SNPs")
        alpha = np.arange(self.m_alpha)
        eta = np.concatenate([np.arange(self.m_alpha_eta), eta_start + np.arange(eta_tail)])
        beta = np.concatenate([np.arange(self.m_alpha_beta), beta_start + np.arange(beta_tail)])
        return {"alpha": alpha, "eta": eta.astype(np.intp), "beta": beta.astype(np.intp)}

    @property
    def sigma_alpha_eta(self) -> float:
        return self.rho_alpha_eta * np.sqrt(self.sigma2_alpha * self.sigma2_eta)

    @property
    def sigma_alpha_beta(self) -> float:
        return self.rho_alpha_beta * np.sqrt(self.sigma2_alpha * self.sigma2_beta)

    @property
    def phi_alpha_eta(self) -> float:
        """Asymptotic genetic correlation between traits alpha and eta."""
        if self.m_alpha == 0 or self.m_eta == 0:
            return 0.0
        return self.m_alpha_eta / np.sqrt(self.m_alpha * self.m_eta) * self.rho_alpha_eta

    @property
    def phi_alpha_beta(self) -> float:
        if self.m_alpha == 0 or self.m_beta == 0:
            return 0.0
        return self.m_alpha_beta / np.sqrt(self.m_alpha * self.m_beta) * self.rho_alpha_beta

    def sigma2_eps(self, trait: str) -> float:
        """Error variance that realizes the target asymptotic heritability."""
        m = {"alpha": self.m_alpha, "beta": self.m_beta, "eta": self.m_eta}[trait]
        s2 = {"alpha": self.sigma2_alpha, "beta": self.sigma2_beta, "eta": self.sigma2_eta}[trait]
        h2 = {"alpha": self.h2_alpha, "beta": self.h2_beta, "eta": self.h2_eta}[trait]
        return m * s2 * (1.0 - h2) / h2

    @classmethod
    def shared_causal(
        cls,
        p: int,
        m: int,
        phi: float = 0.0,
        sigma2: float = 1.0,
        h2: float = 1.0,
        traits: tuple = TRAITS,
    ) -> "TraitArchitecture":
        """Common special case: all traits share the same m causal SNPs.

        With full causal overlap the implied genetic correlation equals the
        effect correlation, so ``phi`` is passed straight through as rho.
        """
        has_beta = "beta" in traits
        has_eta = "eta" in traits
        return cls(
            p=p,
            m_alpha=m,
            m_beta=m if has_beta else 0,
            m_eta=m if has_eta else 0,
            m_alpha_eta=m if has_eta else 0,
            m_alpha_beta=m if has_beta else 0,
            sigma2_alpha=sigma2,
            sigma2_beta=sigma2,
            sigma2_eta=sigma2,
            rho_alpha_eta=phi if has_eta else 0.0,
            rho_alpha_beta=phi if has_beta else 0.0,
            h2_alpha=h2,
            h2_beta=h2,
            h2_eta=h2,
        )


@dataclass
class EffectVector:
    """Length-p effect vector, zero outside the trait's causal set."""

    values: np.ndarray
    trait_tag: str
    sigma2: float = 1.0

    @property
    def m(self) -> int:
        return int(np.count_nonzero(self.values))

    def causal_mask(self) -> np.ndarray:
        return self.values != 0.0


def gen_effects(
    arch: TraitArchitecture,
    traits: tuple = TRAITS,
    seed: int = 0,
) -> dict[str, EffectVector]:
    """Draw effect vectors for the requested traits.

    On the alpha-eta (alpha-beta) shared indices the pair is bivariate with
    covariance sigma_alpha_eta (sigma_alpha_beta); elsewhere the marginals
    are independent.  eta and beta are constructed as conditional
    regressions on alpha from their own substreams, so the draw for any one
    trait does not depend on which other traits were requested.
    """
    unknown = set(traits) - set(TRAITS)
    if unknown:
        raise ParameterError(f"unknown trait tags: {sorted(unknown)}")
    rngs = {t: substream(seed, f"effects/{t}") for t in TRAITS}

    sig_a = np.sqrt(arch.sigma2_alpha)
    alpha_vals = rngs["alpha"].standard_normal(arch.m_alpha) * sig_a

    out: dict[str, EffectVector] = {}

    def build(tag: str, m: int, m_shared: int, sigma2: float, rho: float) -> EffectVector:
        sig = np.sqrt(sigma2)
        z = rngs[tag].standard_normal(m)
        vals = sig * z
        if m_shared:
            # conditional regression on alpha over the shared prefix
            slope = rho * sig / sig_a
            resid = sig * np.sqrt(max(1.0 - rho * rho, 0.0))
            vals[:m_shared] = slope * alpha_vals[:m_shared] + resid * z[:m_shared]
        full = np.zeros(arch.p)
        full[arch.causal_sets[tag]] = vals
        return EffectVector(values=full, trait_tag=tag, sigma2=sigma2)

    if "alpha" in traits:
        full = np.zeros(arch.p)
        full[arch.causal_sets["alpha"]] = alpha_vals
        out["alpha"] = EffectVector(values=full, trait_tag="alpha", sigma2=arch.sigma2_alpha)
    if "eta" in traits:
        out["eta"] = build("eta", arch.m_eta, arch.m_alpha_eta, arch.sigma2_eta, arch.rho_alpha_eta)
    if "beta" in traits:
        out["beta"] = build("beta", arch.m_beta, arch.m_alpha_beta, arch.sigma2_beta, arch.rho_alpha_beta)
    return out


@dataclass
class Phenotype:
    """Continuous phenotype with its generating error draw retained."""

    y: np.ndarray
    sigma2_eps: float
    realized_h2: float
    epsilon: np.ndarray


def gen_phenotype(
    X: GenotypeMatrix,
    eff: EffectVector,
    h2: float,
    seed: int,
    epsilon: np.ndarray | None = None,
) -> Phenotype:
    """Generate ``y = X_std @ eff + eps`` with heritability-calibrated noise.

    The error variance is ``m * eff.sigma2 * (1 - h2) / h2`` with m the
    causal count, so the *asymptotic* heritability equals ``h2``; the
    realized per-replicate variance ratio is recorded as a diagnostic.
    ``h2 == 1`` gives identically zero errors.  A pre-drawn ``epsilon``
    (e.g. one member of a correlated pair on overlapping samples) takes
    precedence over the seed.
    """
    if not (0.0 < h2 <= 1.0):
        raise ParameterError("h2 must lie in (0, 1]")
    sigma2_eps = eff.m * eff.sigma2 * (1.0 - h2) / h2

    idx = np.flatnonzero(eff.values)
    g = kernels.std_matvec(X.codes, X.col_mean, X.col_sd, eff.values[idx], indices=idx)

    if epsilon is not None:
        eps = np.asarray(epsilon, dtype=np.float64)
        if eps.shape != (X.n,):
            raise ParameterError("epsilon length must equal n")
    elif h2 == 1.0:
        eps = np.zeros(X.n)
    else:
        rng = substream(seed, f"phenotype/{eff.trait_tag}")
        eps = rng.standard_normal(X.n) * np.sqrt(sigma2_eps)

    y = g + eps
    var_g = float(np.var(g))
    var_y = float(np.var(y))
    realized = var_g / var_y if var_y > 0 else float("nan")
    return Phenotype(y=y, sigma2_eps=sigma2_eps, realized_h2=realized, epsilon=eps)


@dataclass(frozen=True)
class OverlapDesign:
    """How two cohorts share samples.

    pair:
        ``"discovery_target"``  - n_s samples shared between the alpha
        discovery GWAS and the eta target data;
        ``"discovery_discovery"`` - n_s samples shared between the alpha and
        beta discovery GWAS (an independent target may still exist);
        ``"full_overlap"`` - both traits measured on one cohort.
    rho_eps:
        Correlation of the non-genetic errors on shared samples; ignored
        when n_s == 0 or when either trait has zero error variance.
    """

    n_s: int = 0
    pair: str = "discovery_target"
    rho_eps: float = 0.0

    def __post_init__(self):
        if self.n_s < 0:
            raise ParameterError("n_s must be >= 0")
        if self.pair not in ("discovery_target", "discovery_discovery", "full_overlap"):
            raise ParameterError(f"unknown overlap pair {self.pair!r}")
        if abs(self.rho_eps) > 1.0:
            raise ParameterError("rho_eps must lie in [-1, 1]")


@dataclass(frozen=True)
class CohortSizes:
    n1: int = 0
    n2: int = 0
    n3: int = 0


# cohort-size field -> the trait whose cohort it sizes; n3 is the target
_COHORT_TRAITS = (("n1", "alpha"), ("n2", "beta"), ("n3", "eta"))


@dataclass
class CohortBundle:
    """Generated cohorts of one design, with the effects they share.

    In an overlapping design the shared sample block always occupies the
    *last* n_s rows of every stacked matrix (and of the corresponding
    phenotype vectors).
    """

    disc_alpha: GenotypeMatrix | None = None
    disc_beta: GenotypeMatrix | None = None
    target: GenotypeMatrix | None = None
    y_alpha: Phenotype | None = None
    y_beta: Phenotype | None = None
    y_eta: Phenotype | None = None
    effects: dict = field(default_factory=dict)


def gen_independent_cohorts(
    arch: TraitArchitecture,
    sizes: CohortSizes,
    seed: int,
    traits: tuple = TRAITS,
) -> CohortBundle:
    """Three independent cohorts over the same SNPs, one per trait.

    Cohort sizes of zero skip the corresponding matrix/phenotype.  This is
    the no-overlap special case used throughout the numerical studies:
    discovery data for alpha (n1) and beta (n2), target data with the eta
    phenotype (n3).
    """
    maf = _cohort_maf(seed, arch.p)
    effects = gen_effects(arch, seed=seed)
    bundle = CohortBundle(effects=effects)
    if "alpha" in traits and sizes.n1:
        bundle.disc_alpha = _gen_cohort(seed, "X", sizes.n1, maf)
        bundle.y_alpha = gen_phenotype(bundle.disc_alpha, effects["alpha"], arch.h2_alpha, seed)
    if "beta" in traits and sizes.n2:
        bundle.disc_beta = _gen_cohort(seed, "Z", sizes.n2, maf)
        bundle.y_beta = gen_phenotype(bundle.disc_beta, effects["beta"], arch.h2_beta, seed)
    if sizes.n3:
        bundle.target = _gen_cohort(seed, "W", sizes.n3, maf)
        if "eta" in traits:
            bundle.y_eta = gen_phenotype(bundle.target, effects["eta"], arch.h2_eta, seed)
    return bundle


def _cohort_maf(seed: int, p: int) -> np.ndarray:
    """The MAFs that every cohort of one seed shares, from their own substream."""
    return substream(seed, "cohorts/maf").uniform(MAF_LOW, MAF_HIGH, size=p)


def scan_independent_cohorts(arch: TraitArchitecture, sizes: CohortSizes, seed: int,
                             traits: tuple, scan) -> tuple:
    """The discovery cohorts of ``gen_independent_cohorts(arch, sizes, seed,
    traits)``, each scanned as it is drawn, then its target.

    Each cohort is one ``gen_independent_cohorts`` call of its own size
    field: the alpha (n1) and beta (n2) discovery cohorts in turn, each
    scanned as ``scan(X, y)`` and dropped before the next is drawn, and the
    target last, so at most one cohort's codes are held at a time.  Each
    cohort, its MAFs and its effects have their own substreams, so neither
    the order nor the split moves a bit.  Returns the bundle of the target
    (without one when n3 is 0) and ``{trait: scan(X, y)}`` of each discovery
    cohort drawn.
    """
    scans = {}
    for field, trait in _COHORT_TRAITS[:2]:
        if trait in traits and getattr(sizes, field):
            b = gen_independent_cohorts(arch, CohortSizes(**{field: getattr(sizes, field)}),
                                        seed, traits)
            scans[trait] = scan(getattr(b, f"disc_{trait}"), getattr(b, f"y_{trait}").y)
            del b  # before the next cohort is drawn
    return gen_independent_cohorts(arch, CohortSizes(n3=sizes.n3), seed, traits), scans


def _correlated_errors(
    rng: np.random.Generator, n: int, sd_a: float, sd_b: float, rho: float
) -> tuple[np.ndarray, np.ndarray]:
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    e_a = sd_a * z1
    e_b = sd_b * (rho * z1 + np.sqrt(max(1.0 - rho * rho, 0.0)) * z2)
    return e_a, e_b


def gen_overlapping_cohorts(
    design: OverlapDesign,
    arch: TraitArchitecture,
    sizes: CohortSizes,
    seed: int,
) -> CohortBundle:
    """Generate the cohort bundle for an overlapping-samples design.

    All cohorts describe the same p SNPs (one maf draw).  Each genotype
    block (X, Z, W, shared S) comes from its own substream, so a cohort's
    codes do not depend on which other cohorts exist; in particular n_s = 0
    yields cohorts that are bitwise independent of the shared-block stream.
    """
    n1, n2, n3, ns = sizes.n1, sizes.n2, sizes.n3, design.n_s
    if min(n1, n2, n3) < 0:
        raise ParameterError("cohort sizes must be >= 0")
    maf = _cohort_maf(seed, arch.p)
    effects = gen_effects(arch, seed=seed)
    sd_ea = np.sqrt(arch.sigma2_eps("alpha"))
    rng_eps = substream(seed, "cohorts/errors")

    bundle = CohortBundle(effects=effects)

    if design.pair == "full_overlap":
        if ns not in (0, n1):
            raise ParameterError("full_overlap requires n_s == n1 (or 0 meaning the whole cohort)")
        if n1 < 2:
            raise ParameterError("full_overlap needs n1 >= 2")
        X = _gen_cohort(seed, "X", n1, maf)
        e_a, e_b = _correlated_errors(rng_eps, n1, sd_ea, np.sqrt(arch.sigma2_eps("beta")),
                                      design.rho_eps)
        bundle.disc_alpha = X
        bundle.disc_beta = X
        bundle.y_alpha = gen_phenotype(X, effects["alpha"], arch.h2_alpha, seed, epsilon=e_a)
        bundle.y_beta = gen_phenotype(X, effects["beta"], arch.h2_beta, seed, epsilon=e_b)
        bundle.target = _gen_cohort(seed, "W", n3, maf)
        return bundle

    # the trait whose cohort shares S with alpha's discovery X, that
    # cohort's label and its own size
    other, label, n_o = ("eta", "W", n3) if design.pair == "discovery_target" else ("beta", "Z", n2)
    if n1 + ns < 2 or n_o + ns < 2:
        raise ParameterError(f"the alpha and {other} cohorts each need at least 2 samples")
    sd_eo = np.sqrt(arch.sigma2_eps(other))
    S = _gen_cohort(seed, "S", ns, maf)
    disc = stack_genotypes(_gen_cohort(seed, "X", n1, maf), S)
    cohort_o = stack_genotypes(_gen_cohort(seed, label, n_o, maf), S)
    e_as, e_os = _correlated_errors(rng_eps, ns, sd_ea, sd_eo, design.rho_eps)
    e_ax = rng_eps.standard_normal(n1) * sd_ea
    e_oo = rng_eps.standard_normal(n_o) * sd_eo
    bundle.disc_alpha = disc
    bundle.y_alpha = gen_phenotype(
        disc, effects["alpha"], arch.h2_alpha, seed, epsilon=np.concatenate([e_ax, e_as])
    )
    y_o = gen_phenotype(cohort_o, effects[other], getattr(arch, f"h2_{other}"), seed,
                        epsilon=np.concatenate([e_oo, e_os]))
    if other == "eta":
        bundle.target, bundle.y_eta = cohort_o, y_o
    else:
        bundle.disc_beta, bundle.y_beta = cohort_o, y_o
        bundle.target = _gen_cohort(seed, "W", n3, maf)
    return bundle
