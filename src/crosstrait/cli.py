"""Command-line interface.

Subcommands wrap the library one-to-one:

    simulate   run a declarative Monte-Carlo experiment from a config file
    gwas       marginal scan of a phenotype file against a genotype file
    score      build a (screened) risk score from genotypes + summary TSV
    estimate   raw + corrected genetic correlation for a design case, from
               all-SNP scores or effects (a screened score is ``score --rule``)
    correct    apply a closed-form bias correction to a number
    moments    Monte-Carlo check of a moment oracle

Exit codes: 0 success, 2 usage error, 3 data error, 4 refusal to correct in
the degenerate regime (only with --strict).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import experiments, io_files, moments
from .errors import (
    CorrectionUnavailableError,
    CrosstraitError,
    DataFormatError,
    DegenerateRegimeRefusal,
    ParameterError,
)
from .estimators import (
    CASES,
    DEGENERATE,
    EFFECT_EFFECT,
    PHENOTYPE_SCORE,
    SCORE_SCORE,
    DesignMeta,
    correct,
    correct_partial_r2,
    raw_cosine,
)
from .gwas import marginal_gwas
from .prs import RULE_NONE, ScreenRule, pair_snps, score

# --case alias -> design-case tag
_ALIASES = {case.alias: tag for tag, case in CASES.items() if case.alias}

# design flag -> DesignMeta field, in the order the flags are listed
_META_FLAGS = {
    "n1": "n1", "n2": "n2", "n3": "n3", "ns": "n_s", "p": "p",
    "h2a": "h2_alpha", "h2b": "h2_beta", "h2e": "h2_eta",
    "hae": "h_alpha_eta", "hab": "h_alpha_beta",
}


def _design_flags(args, parser, read=(), files=()) -> dict:
    """DesignMeta field -> value of each design flag given.  A flag the factor
    of ``--case`` needs is required, unless its field is in ``read`` (the
    sizes ``estimate`` reads from its files), and so is each input-file flag
    in ``files``.  A flag whose field the case uses neither in its factor nor
    in its regime check is refused: the number would change nothing."""
    case = CASES[_ALIASES[args.case]]
    missing = [f for f, name in _META_FLAGS.items()
               if name in case.required and name not in read and getattr(args, f) is None]
    if missing:
        parser.error(
            f"case {args.case!r} requires {' '.join('--' + f for f in missing)}"
        )
    if not all(getattr(args, f) for f in files):
        parser.error(f"case {args.case!r} needs --{' --'.join(files).replace('_', '-')}")
    given = {name: v for f, name in _META_FLAGS.items() if (v := getattr(args, f)) is not None}
    unused = [f for f, name in _META_FLAGS.items()
              if name in given and name not in case.required + case.regime_sizes]
    if unused:
        parser.error(f"case {args.case!r} does not use {' '.join('--' + f for f in unused)}")
    return given


def _screen_rule(args) -> ScreenRule:
    if args.rule == "none":
        return RULE_NONE
    if args.cutoff is None:
        raise ParameterError("--cutoff is required with --rule pvalue/effect")
    kind = "pvalue_cutoff" if args.rule == "pvalue" else "effect_cutoff"
    return ScreenRule(kind, args.cutoff)


def cmd_simulate(args, parser):
    raw = io_files.parse_config(args.config)
    config = experiments.ExperimentConfig.from_dict(raw)
    if args.seed is not None:
        config = experiments.ExperimentConfig.from_dict({**raw, "master_seed": args.seed})
    result = experiments.run(config, workers=args.workers, out_dir=args.out)
    print(f"scenario={config.scenario} replicates={len(result.replicate_rows)} "
          f"failures={len(result.failures)} out={args.out}")
    return 0


def cmd_gwas(args, parser):
    G = io_files.read_genotypes(args.genotypes)
    y = io_files.read_phenotype_of(args.phenotype, G, args.genotypes)
    stats = marginal_gwas(G, y, standardize_y=not args.no_standardize_y)
    io_files.write_summary_tsv(args.out, stats)
    print(f"wrote {stats.p} SNPs to {args.out}")
    return 0


def cmd_score(args, parser):
    G = io_files.read_genotypes(args.genotypes)
    stats = io_files.read_summary_tsv(args.summary)
    prs = score(G, stats, _screen_rule(args))
    io_files.write_scores_tsv(args.out, prs.scores, G.sample_ids)
    note = " (empty selection)" if prs.empty_selection else ""
    print(f"scored {G.n} samples from {prs.n_selected} SNPs{note} -> {args.out}")
    return 0


def _raw_phenotype_score(args) -> tuple:
    W = io_files.read_genotypes(args.target_geno)
    y = io_files.read_phenotype_of(args.target_pheno, W, args.target_geno)
    stats_a = io_files.read_summary_tsv(args.summary_a)
    prs_a = score(W, stats_a)
    return y, prs_a.scores, {"p": prs_a.n_selected, "n1": stats_a.n, "n3": W.n}


def _raw_score_score(args) -> tuple:
    """Both scores over the same SNPs of the target, or refused."""
    W = io_files.read_genotypes(args.target_geno)
    stats_a = io_files.read_summary_tsv(args.summary_a)
    stats_b = io_files.read_summary_tsv(args.summary_b)
    prs_a, prs_b = score(W, stats_a), score(W, stats_b)
    if not np.array_equal(prs_a.columns, prs_b.columns):
        raise DataFormatError(
            f"{args.summary_a} and {args.summary_b} pair with different SNPs of the target "
            f"({prs_a.n_selected} and {prs_b.n_selected}); both scores need the same SNPs")
    return prs_b.scores, prs_a.scores, {"p": prs_a.n_selected, "n1": stats_a.n,
                                        "n2": stats_b.n, "n3": W.n}


def _raw_effect_effect(args) -> tuple:
    stats_a = io_files.read_summary_tsv(args.summary_a)
    stats_b = io_files.read_summary_tsv(args.summary_b)
    ia, ib = pair_snps((stats_a.snp_id, stats_a.p), (stats_b.snp_id, stats_b.p),
                       (f"summary statistics in {args.summary_a}",
                        f"summary statistics in {args.summary_b}"))
    return stats_a.effect[ia], stats_b.effect[ib], {"p": ia.shape[0], "n1": stats_a.n,
                                                    "n2": stats_b.n}


# raw estimator -> (input-file flags it reads, the two vectors of its cosine and
# the design sizes its files give: p, the SNPs they span, and sample counts)
_RAW = {
    PHENOTYPE_SCORE: (("target_geno", "target_pheno", "summary_a"), _raw_phenotype_score),
    SCORE_SCORE: (("target_geno", "summary_a", "summary_b"), _raw_score_score),
    EFFECT_EFFECT: (("summary_a", "summary_b"), _raw_effect_effect),
}
# design size -> the input-file flag whose sample count it is
_SIZE_FILES = {"n1": "summary_a", "n2": "summary_b", "n3": "target_geno"}


def _report(args, est, lead: dict) -> int:
    """Print ``lead`` (column -> value) and ``est`` under their header, and to
    ``--out`` when given; ``--strict`` refuses a design in the degenerate regime."""
    if args.strict and est.regime_flag == DEGENERATE:
        raise DegenerateRegimeRefusal(
            f"design is in the degenerate regime (case {args.case}); refusing under --strict"
        )
    row = {**lead, "raw": io_files.fmt(est.raw), "factor": io_files.fmt(est.bias_factor),
           "corrected": io_files.fmt(est.corrected), "regime_flag": est.flag}
    text = "\t".join(row) + "\n" + "\t".join(row.values()) + "\n"
    print(text, end="")
    if getattr(args, "out", None):
        io_files.atomic_write_text(args.out, text)
    return 0


def cmd_estimate(args, parser):
    """n1, n2, n3 and p come from the files, less the ``--ns`` shared samples
    for the case's ``shared`` sizes; a size flag that is given must agree."""
    tag = _ALIASES[args.case]
    files, raw_fn = _RAW[CASES[tag].estimator]
    design = _design_flags(args, parser, read=(*_SIZE_FILES, "p"), files=files)
    u, v, sizes = raw_fn(args)
    for f, value in sizes.items():
        source = (f"the raw estimate used {value} SNPs" if f == "p"
                  else f"{getattr(args, _SIZE_FILES[f])} holds {value} samples")
        if f in CASES[tag].shared:
            value -= args.ns
            source += f", {value} of them not among the --ns {args.ns} shared"
            if value < 1:
                raise ParameterError(f"--ns is {args.ns}, but {source}")
        given = design.setdefault(f, value)
        if given != value:
            raise ParameterError(f"--{f} is {given}, but {source}")
    est = correct(raw_cosine(u, v), DesignMeta(case_tag=tag, **design))
    return _report(args, est, {"case": args.case})


def cmd_correct(args, parser):
    if args.raw is None and args.r2 is None:
        parser.error("one of --raw or --r2 is required")
    if args.r2 is not None and args.case != "ae":
        parser.error("--r2 correction applies to case 'ae' (square of its factor)")
    design = _design_flags(args, parser)
    if args.r2 is not None:
        res = correct_partial_r2(args.r2, args.n1, args.p, args.h2a, args.h2e)
        flag = "out_of_range" if res.out_of_range else "ok"
        print("r2_raw\tfactor\tr2_corrected\tflag")
        print(f"{io_files.fmt(res.r2_raw)}\t{io_files.fmt(res.factor)}"
              f"\t{io_files.fmt(res.r2_corrected)}\t{flag}")
        return 0
    meta = DesignMeta(case_tag=_ALIASES[args.case], **design)
    return _report(args, correct(args.raw, meta), {})


def cmd_moments(args, parser):
    from .synth import TraitArchitecture

    arch = TraitArchitecture.shared_causal(
        args.p, args.m, phi=args.rho, sigma2=args.sigma2, h2=args.h2
    )
    meta = DesignMeta(
        case_tag="indep_ae", p=args.p, n1=args.n1, n2=args.n2, n3=args.n3, n_s=args.ns,
        h2_alpha=args.h2, h2_beta=args.h2, h2_eta=args.h2,
    )
    selection = None
    if args.q_a1 is not None:
        selection = (args.q_a1, args.q_a2 or 0, args.q_b1 or 0, args.q_b2 or 0)
    reports = moments.monte_carlo_check_many(
        args.tag, arch, meta, args.replicates, args.seed,
        rho_eps=args.rho_eps, selection=selection,
    )
    print("\t".join(io_files.MOMENT_HEADER))
    for r in reports:
        print(f"{r.quantity_tag}\t{io_files.fmt(r.predicted)}\t{io_files.fmt(r.empirical_mean)}"
              f"\t{io_files.fmt(r.empirical_se)}\t{io_files.fmt(r.z)}")
    if args.out:
        io_files.write_moment_report_tsv(args.out, reports)
    return 0 if all(r.passed for r in reports) else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosstrait",
        description="Cross-trait polygenic score simulation and bias-corrected "
                    "genetic correlation estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run an experiment from a key=value config")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--workers", type=int, default=None,
                       help=f"worker threads (default: "
                            f"${experiments.WORKERS_ENV}, else one per usable core, at most "
                            "one per task)")
    p_sim.add_argument("--seed", type=int, default=None, help="override master_seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_gwas = sub.add_parser("gwas", help="marginal scan: genotypes + phenotype -> summary TSV")
    p_gwas.add_argument("--genotypes", required=True)
    p_gwas.add_argument("--phenotype", required=True)
    p_gwas.add_argument("--out", required=True)
    p_gwas.add_argument("--no-standardize-y", action="store_true")
    p_gwas.set_defaults(func=cmd_gwas)

    p_score = sub.add_parser("score", help="risk score: genotypes + summary TSV -> score TSV")
    p_score.add_argument("--genotypes", required=True)
    p_score.add_argument("--summary", required=True)
    p_score.add_argument("--out", required=True)
    p_score.add_argument("--rule", choices=["none", "pvalue", "effect"], default="none")
    p_score.add_argument("--cutoff", type=float, default=None)
    p_score.set_defaults(func=cmd_score)

    p_est = sub.add_parser("estimate", help="raw + corrected correlation for a design case")
    p_est.add_argument("--case", required=True, choices=sorted(_ALIASES))
    p_est.add_argument("--target-geno")
    p_est.add_argument("--target-pheno")
    p_est.add_argument("--summary-a")
    p_est.add_argument("--summary-b")
    p_est.add_argument("--out")
    p_est.add_argument("--strict", action="store_true",
                       help="exit 4 instead of correcting in the degenerate regime")
    p_est.set_defaults(func=cmd_estimate)

    p_cor = sub.add_parser("correct", help="apply a closed-form bias correction")
    p_cor.add_argument("--raw", type=float, default=None)
    p_cor.add_argument("--r2", type=float, default=None,
                       help="partial R^2 to correct (case ae)")
    p_cor.add_argument("--case", required=True, choices=sorted(_ALIASES))
    p_cor.add_argument("--strict", action="store_true")
    p_cor.set_defaults(func=cmd_correct)
    for p_design in (p_est, p_cor):
        for flag, name in _META_FLAGS.items():
            # sizes are integers, heritabilities and genetic shares floats
            p_design.add_argument(f"--{flag}", type=float if name.startswith("h") else int)

    p_mom = sub.add_parser("moments", help="Monte-Carlo check of moment oracles")
    p_mom.add_argument("--tag", required=True, nargs="+", choices=list(moments.ALL_TAGS))
    p_mom.add_argument("--n1", type=int, required=True)
    for flag in ("--n2", "--n3", "--ns"):
        p_mom.add_argument(flag, type=int, default=0)
    p_mom.add_argument("--p", type=int, required=True)
    p_mom.add_argument("--m", type=int, required=True)
    p_mom.add_argument("--rho", type=float, default=0.5, help="shared-effect correlation")
    p_mom.add_argument("--sigma2", type=float, default=1.0)
    p_mom.add_argument("--h2", type=float, default=1.0)
    p_mom.add_argument("--rho-eps", type=float, default=0.0)
    for flag in ("--q-a1", "--q-a2", "--q-b1", "--q-b2"):
        p_mom.add_argument(flag, type=int, default=None)
    p_mom.add_argument("--replicates", type=int, default=200)
    p_mom.add_argument("--seed", type=int, default=0)
    p_mom.add_argument("--out")
    p_mom.set_defaults(func=cmd_moments)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a streamed kernel frees and allocates again buffers of a few hundred KB
    # per row tile, which glibc's defaults would map and fault in each time
    experiments._keep_freed_memory()
    try:
        return args.func(args, parser)
    except (CrosstraitError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, DegenerateRegimeRefusal):
            return 4
        return 2 if isinstance(exc, (ParameterError, CorrectionUnavailableError)) else 3


if __name__ == "__main__":
    sys.exit(main())
