"""The three benchmark workloads: inputs, one timed operation, and checks.

Every workload is built from ``--seed`` alone and calls the program only
through its public entry points (``experiments.run`` and ``cli.main``), looked
up as module attributes at call time so that the traced run sees them.  The
checks compare the program's outputs against dense numpy computed here, or
against closed forms and properties the method must have; none of them reads
a stored copy of an earlier output.
"""

from __future__ import annotations

import math
import statistics
from pathlib import Path

import numpy as np

from crosstrait import cli, estimators, experiments, gwas, io_files, prs, synth

REPLICATE_HEADER = ["scenario", "point_id", "estimator", "replicate",
                    "raw", "corrected", "factor", "flag"]
SUMMARY_HEADER = ["snp_id", "effect", "se", "tstat", "pvalue", "n"]

# Input make-up per workload.  "full" is what the benchmark measures; "toy"
# runs the same code and checks in seconds (see selfcheck.py).
SIZES = {
    "full": {
        "fig2_all_snp": dict(n=2000, p=2000, m=200, h2=0.5, phi_grid=(0.3, 0.8),
                             replicates=1, min_ops=8),
        "fig3_screening": dict(n=2000, p=2000, h2=0.5, phi=0.8, sparsity_grid=(0.01, 0.8),
                               replicates=2, min_ops=2),
        "file_pipeline": dict(n=2000, p=12000, m=1200, h2=0.5, phi=0.5, cutoff=0.05,
                              min_ops=2),
    },
    "toy": {
        "fig2_all_snp": dict(n=200, p=200, m=40, h2=0.5, phi_grid=(0.3, 0.8),
                             replicates=1, min_ops=8),
        "fig3_screening": dict(n=200, p=200, h2=0.5, phi=0.8, sparsity_grid=(0.05, 0.8),
                               replicates=2, min_ops=2),
        "file_pipeline": dict(n=120, p=480, m=60, h2=0.5, phi=0.5, cutoff=0.05,
                              min_ops=2),
    },
}


def derived_seed(seed: int, *words: int) -> int:
    """A 32-bit seed that depends only on the workload seed and ``words``."""
    return int(np.random.SeedSequence([seed, *words]).generate_state(1)[0])


def _close(a, b, rtol: float) -> bool:
    """Agreement to ``rtol`` relative to the larger magnitude of the two arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(float(np.max(np.abs(a), initial=0.0)), float(np.max(np.abs(b), initial=0.0)), 1e-300)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * scale))


def _read_tsv(path: Path, header: list[str]) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].split("\t") != header:
        raise ValueError(f"{path}: unexpected header")
    return [ln.split("\t") for ln in lines[1:] if ln]


def _dense_std(codes: np.ndarray) -> np.ndarray:
    x = codes.astype(np.float64)
    return (x - x.mean(axis=0)) / x.std(axis=0)


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


def _dense_scan(codes: np.ndarray, y: np.ndarray):
    """Marginal effects and p-values of the standardized phenotype, densely."""
    n = codes.shape[0]
    xs = _dense_std(codes)
    yc = y - y.mean()
    ys = yc / math.sqrt(float(np.mean(yc * yc)))
    effect = xs.T @ ys / n
    se = np.sqrt((1.0 - effect * effect) / n)
    pvalue = np.array([math.erfc(abs(t) / math.sqrt(2.0)) for t in effect / se])
    return effect, pvalue


class Workload:
    """Base: ``prepare`` is cheap, ``build_inputs`` is the costly part of set-up."""

    name = ""

    def __init__(self, seed: int, size: str, workdir: Path, workers: int):
        self.seed = seed
        self.cfg = SIZES[size][self.name]
        self.min_ops = self.cfg["min_ops"]
        self.workdir = workdir
        self.workers = workers
        self.op_errors: list[str] = []  # failed operations; counted, not checks

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)

    def build_inputs(self) -> None:
        pass

    def op(self, i: int) -> tuple[int, int, int]:
        """Run operation ``i``; return (tasks completed, calls attempted, calls failed)."""
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError


class _ExperimentWorkload(Workload):
    """One ``experiments.run`` per operation, each with its own master seed."""

    def config(self, master_seed: int) -> "experiments.ExperimentConfig":
        raise NotImplementedError

    def grid(self, cfg) -> tuple:
        """The design points of ``cfg``; a task is one (point, replicate) pair."""
        raise NotImplementedError

    def op(self, i):
        cfg = self.config(derived_seed(self.seed, i))
        try:
            result = experiments.run(cfg, workers=self.workers, out_dir=str(self.workdir / f"op{i:04d}"))
        except Exception as exc:  # an operation that fails is counted, not fatal
            self.op_errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            return 0, 1, 1
        tasks = len(self.grid(cfg)) * cfg.replicates
        if result.failures:
            self.op_errors += [f"op {i}: {pid}#{rep}: {msg}" for pid, rep, msg in result.failures]
            return tasks - len(result.failures), 1, 1
        return tasks, 1, 0

    def rows(self) -> list[list[str]]:
        out = []
        for d in sorted(self.workdir.glob("op*")):
            out += [[d.name, *r] for r in _read_tsv(d / "replicates.tsv", REPLICATE_HEADER)]
        return out


class Fig2AllSnp(_ExperimentWorkload):
    """Headline all-SNP study with three cohorts, one worker."""

    name = "fig2_all_snp"

    def config(self, master_seed):
        c = self.cfg
        return experiments.ExperimentConfig(
            scenario="fig2_all_snp", p=c["p"], n1=c["n"], n2=c["n"], n3=c["n"], m=c["m"],
            h2=c["h2"], phi_grid=c["phi_grid"], replicates=c["replicates"],
            master_seed=master_seed,
        )

    def grid(self, cfg):
        return cfg.phi_grid

    def check(self):
        c = self.cfg
        n, p, h2 = c["n"], c["p"], c["h2"]
        shrink = n / (n + p / h2)
        closed = {"G_ae": math.sqrt(shrink) * math.sqrt(h2),
                  "G_ab": math.sqrt(shrink * shrink),
                  "phi_ab_summary": math.sqrt(shrink * shrink)}
        problems = []
        groups: dict[tuple, list[tuple[float, float]]] = {}
        for op, _, pid, est, rep, raw, corr, factor, flag in self.rows():
            raw, corr, factor = float(raw), float(corr), float(factor)
            if abs(factor - closed[est]) > 1e-12 * closed[est]:
                problems.append(f"{op} {pid} {est}: factor {factor!r} != closed form {closed[est]!r}")
            if corr != raw / factor:
                problems.append(f"{op} {pid} {est}: corrected {corr!r} != raw/factor")
            groups.setdefault((est, float(pid.split("=")[1])), []).append((raw, corr))
        for est in ("G_ae", "G_ab"):
            keys = [k for k in groups if k[0] == est]
            if not keys or any(len(groups[k]) < 2 for k in keys):
                problems.append(f"{est}: fewer than 2 replicates per phi")
                continue
            corrs = {k: [x[1] for x in groups[k]] for k in keys}
            means = {k: statistics.fmean(v) for k, v in corrs.items()}
            # the SD pooled over phi guards the SE against one group's low draw
            ss = sum((x - means[k]) ** 2 for k in keys for x in corrs[k])
            pooled = math.sqrt(ss / (sum(map(len, corrs.values())) - len(keys)))
            for (_, phi), v in corrs.items():
                se = max(statistics.stdev(v), pooled) / math.sqrt(len(v))
                mean = means[(est, phi)]
                if abs(mean - phi) > 4.0 * se:
                    problems.append(f"{est} phi={phi}: mean corrected {mean:.4f} not within 4 SE ({se:.4f})")
                mean_raw = statistics.fmean(x[0] for x in groups[(est, phi)])
                if not mean_raw < phi:
                    problems.append(f"{est} phi={phi}: mean raw {mean_raw:.4f} not below phi")
        problems += self._dense_check()
        return problems

    def _dense_check(self) -> list[str]:
        """Redo one cohort's scan and score with dense numpy."""
        c = self.cfg
        arch = synth.TraitArchitecture.shared_causal(
            c["p"], c["m"], phi=c["phi_grid"][-1], h2=c["h2"], traits=("alpha", "eta"))
        b = synth.gen_independent_cohorts(
            arch, synth.CohortSizes(n1=c["n"], n3=c["n"]), derived_seed(self.seed, 1 << 20),
            traits=("alpha", "eta"))
        stats = gwas.marginal_gwas(b.disc_alpha, b.y_alpha.y)
        scores = prs.score(b.target, stats).scores
        raw = estimators.raw_cosine(b.y_eta.y, scores)
        effect, _ = _dense_scan(b.disc_alpha.codes, b.y_alpha.y)
        dense_scores = _dense_std(b.target.codes) @ effect
        problems = []
        if not _close(stats.effect, effect, 1e-9):
            problems.append("scan disagrees with dense numpy")
        if not _close(scores, dense_scores, 1e-9):
            problems.append("score disagrees with dense numpy")
        if abs(raw - _cosine(b.y_eta.y, dense_scores)) > 1e-9:
            problems.append("raw cosine disagrees with dense numpy")
        return problems


class Fig3Screening(_ExperimentWorkload):
    """Screening ladder over two sparsities, run by a pool of workers."""

    name = "fig3_screening"

    def config(self, master_seed, **over):
        c = {**self.cfg, **over}
        return experiments.ExperimentConfig(
            scenario="fig3_screening", p=c["p"], n1=c["n"], n3=c["n"], h2=c["h2"],
            phi_grid=(c["phi"],), sparsity_grid=c["sparsity_grid"],
            replicates=c["replicates"], master_seed=master_seed,
        )

    def grid(self, cfg):
        return cfg.sparsity_grid

    def check(self):
        c = self.cfg
        n, p, h2 = c["n"], c["p"], c["h2"]
        ladder = [f"G_T@{t:g}" for t in experiments.DEFAULT_THRESHOLDS]
        problems = []
        runs: dict[tuple, dict[str, tuple]] = {}
        for op, _, pid, est, rep, raw, corr, factor, flag in self.rows():
            runs.setdefault((op, pid, rep), {})[est] = (float(raw), float(corr), float(factor), flag)
        for key, rows in runs.items():
            m = max(1, round(float(key[1].split("=")[1]) * p))
            if list(rows) != ladder:
                problems.append(f"{key}: rows do not follow the threshold ladder")
                continue
            prev_q = None
            for est in ladder:
                raw, corr, factor, flag = rows[est]
                counts = dict(kv.split("=") for kv in flag.split(";")[1:])
                q, q1, qae = int(counts["q"]), int(counts["q1"]), int(counts["qae"])
                if prev_q is not None and q > prev_q:
                    problems.append(f"{key} {est}: q rose from {prev_q} to {q}")
                prev_q = q
                if est == "G_T@1" and q != p:
                    problems.append(f"{key}: q={q} at cutoff 1, expected p={p}")
                if q == 0:
                    if not (flag.startswith("empty_selection") and math.isnan(corr)):
                        problems.append(f"{key} {est}: empty selection without NaN")
                    continue
                if flag.startswith("degenerate_score"):
                    if not math.isnan(corr):
                        problems.append(f"{key} {est}: degenerate score without NaN")
                    continue
                want = 0.0
                if qae > 0:
                    want = (math.sqrt(n * m / (n * q1 + m * q / h2)) * (qae / m) * math.sqrt(h2))
                if abs(factor - want) > 1e-12 * max(want, 1e-300):
                    problems.append(f"{key} {est}: factor {factor!r} != screened formula {want!r}")
                expect = raw / factor if factor > 0 else float("nan")
                if not (corr == expect or (math.isnan(corr) and math.isnan(expect))):
                    problems.append(f"{key} {est}: corrected {corr!r} != raw/factor")
        problems += self._serial_parallel_check()
        return problems

    def _serial_parallel_check(self) -> list[str]:
        cfg = self.config(derived_seed(self.seed, 1 << 20), n=120, p=150, replicates=2,
                          sparsity_grid=(0.05, 0.8))
        outs = []
        for workers in (1, 2):
            d = self.workdir / f"identity-w{workers}"
            experiments.run(cfg, workers=workers, out_dir=str(d))
            outs.append((d / "replicates.tsv").read_bytes())
        return [] if outs[0] == outs[1] else ["serial and 2-worker replicates.tsv differ"]


class FilePipeline(Workload):
    """``gwas`` -> ``score`` -> ``score --rule pvalue`` -> ``estimate`` on files."""

    name = "file_pipeline"

    def prepare(self):
        super().prepare()
        w = self.workdir
        c = self.cfg
        self.paths = {k: str(w / f) for k, f in (
            ("disc", "disc_alpha.xtg"), ("target", "target.xtg"),
            ("y_alpha", "y_alpha.tsv"), ("y_eta", "y_eta.tsv"),
            ("summary", "summary_alpha.tsv"), ("scores_all", "scores_all.tsv"),
            ("scores_p", "scores_pvalue.tsv"), ("estimate", "estimate_ae.tsv"))}
        meta = ["--n1", str(c["n"]), "--p", str(c["p"]), "--h2a", str(c["h2"]), "--h2e", str(c["h2"])]
        P = self.paths
        self.commands = [
            ["gwas", "--genotypes", P["disc"], "--phenotype", P["y_alpha"], "--out", P["summary"]],
            ["score", "--genotypes", P["target"], "--summary", P["summary"], "--out", P["scores_all"]],
            ["score", "--genotypes", P["target"], "--summary", P["summary"],
             "--rule", "pvalue", "--cutoff", repr(c["cutoff"]), "--out", P["scores_p"]],
            ["estimate", "--case", "ae", "--target-geno", P["target"], "--target-pheno", P["y_eta"],
             "--summary-a", P["summary"], *meta, "--out", P["estimate"]],
        ]

    def build_inputs(self):
        c = self.cfg
        arch = synth.TraitArchitecture.shared_causal(
            c["p"], c["m"], phi=c["phi"], h2=c["h2"], traits=("alpha", "eta"))
        b = synth.gen_independent_cohorts(
            arch, synth.CohortSizes(n1=c["n"], n3=c["n"]), derived_seed(self.seed, 0),
            traits=("alpha", "eta"))
        io_files.write_genotype_bin(self.paths["disc"], b.disc_alpha)
        io_files.write_genotype_bin(self.paths["target"], b.target)
        io_files.write_phenotype_tsv(self.paths["y_alpha"], b.y_alpha.y)
        io_files.write_phenotype_tsv(self.paths["y_eta"], b.y_eta.y)
        # the checker's own copy of what was generated, kept apart from the
        # program's file formats
        np.savez(self.workdir / "truth.npz", disc=b.disc_alpha.codes, target=b.target.codes,
                 y_alpha=b.y_alpha.y, y_eta=b.y_eta.y)

    def op(self, i):
        failed = 0
        for argv in self.commands:
            try:
                code = cli.main(argv)
            except Exception as exc:  # an operation that fails is counted, not fatal
                code = f"{type(exc).__name__}: {exc}"
            if code != 0:
                failed += 1
                self.op_errors.append(f"pass {i}: {argv[0]} returned {code}")
        return (0 if failed else 1), len(self.commands), failed

    def check(self):
        c = self.cfg
        n, p, h2 = c["n"], c["p"], c["h2"]
        problems = []
        truth = np.load(self.workdir / "truth.npz")
        summary = _read_tsv(Path(self.paths["summary"]), SUMMARY_HEADER)
        effect = np.array([float(r[1]) for r in summary])
        pvalue = np.array([float(r[4]) for r in summary])
        dense_effect, dense_p = _dense_scan(truth["disc"], truth["y_alpha"])
        if not _close(effect, dense_effect, 1e-9):
            problems.append("summary effects disagree with dense numpy")
        if not np.all(np.abs(pvalue - dense_p) <= 1e-7 * dense_p):
            problems.append("summary p-values disagree with dense numpy")
        w_std = _dense_std(truth["target"])
        keep = pvalue <= c["cutoff"]
        for key, cols in (("scores_all", slice(None)), ("scores_p", keep)):
            got = np.array([float(r[1]) for r in _read_tsv(Path(self.paths[key]), ["sample_id", "score"])])
            if not _close(got, w_std[:, cols] @ effect[cols], 1e-9):
                problems.append(f"{key} disagrees with dense W_std[:, keep] @ effect")
        est = _read_tsv(Path(self.paths["estimate"]), ["case", "raw", "factor", "corrected", "regime_flag"])[0]
        raw, factor, corr = float(est[1]), float(est[2]), float(est[3])
        want_raw = _cosine(truth["y_eta"], w_std @ effect)
        want_factor = math.sqrt(n / (n + p / h2)) * math.sqrt(h2)
        if abs(raw - want_raw) > 1e-9:
            problems.append(f"estimate raw {raw!r} != independent cosine {want_raw!r}")
        if abs(factor - want_factor) > 1e-12 * want_factor:
            problems.append(f"estimate factor {factor!r} != closed form {want_factor!r}")
        if corr != raw / factor:
            problems.append("estimate corrected != raw/factor")
        return problems


WORKLOADS = {w.name: w for w in (Fig2AllSnp, Fig3Screening, FilePipeline)}
