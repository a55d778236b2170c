import ctypes
import dataclasses
import multiprocessing.process
import os
import subprocess
import sys
import threading
import time
import types
import weakref

import numpy as np
import pytest

from crosstrait import experiments, io_files, synth
from crosstrait.errors import ExperimentError, GenerationError, ParameterError
from crosstrait.experiments import (
    WORKERS_ENV,
    ExperimentConfig,
    SCENARIOS,
    ReplicateRow,
    aggregate,
    genetic_share,
    resolve_workers,
    run,
)
from crosstrait.gwas import marginal_gwas
from crosstrait.moments import INDEP_TAGS, monte_carlo_check_many
from crosstrait.prs import ScreenRule, score
from crosstrait.synth import CohortSizes, TraitArchitecture, gen_independent_cohorts
from tables import read_aggregates, read_replicates


def tiny_fig2(**overrides) -> ExperimentConfig:
    base = dict(
        scenario="fig2_all_snp", p=120, n1=100, n2=100, n3=100, m=30,
        phi_grid=(0.5,), replicates=4, master_seed=123,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_from_dict_round_trip(self):
        raw = {
            "scenario": "fig2_all_snp", "p": "100", "n1": "50", "n2": "50",
            "n3": "50", "m": "20", "phi_grid": "0.1,0.5,0.9",
            "replicates": "3", "master_seed": "7", "standardize_y": "false",
        }
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.phi_grid == (0.1, 0.5, 0.9)
        assert cfg.standardize_y is False
        rebuilt = ExperimentConfig.from_dict(
            {k: str(v) for k, v in cfg.to_dict().items() if str(v) != "None"}
        )
        assert rebuilt == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ParameterError):
            ExperimentConfig.from_dict({"scenario": "fig2_all_snp", "p": "10",
                                        "n1": "10", "bogus": "1"})

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ParameterError):
            ExperimentConfig(scenario="fig99", p=10, n1=10)

    def test_missing_cohort_rejected_before_running(self):
        cfg = ExperimentConfig(scenario="fig2_all_snp", p=50, n1=40, n3=0, m=10,
                               phi_grid=(0.5,), replicates=1)
        with pytest.raises(ParameterError, match="target"):
            run(cfg)

    def test_fig1_one_sample_cohort_rejected_before_running(self, monkeypatch):
        def never(config, point, rep):
            raise AssertionError("a task ran")

        patched = dataclasses.replace(SCENARIOS["fig1_gwas_properties"], replicate=never)
        monkeypatch.setitem(SCENARIOS, "fig1_gwas_properties", patched)
        cfg = ExperimentConfig(scenario="fig1_gwas_properties", p=50, n1=1,
                               sparsity_grid=(0.2,), replicates=1)
        with pytest.raises(ParameterError, match="at least 2 samples"):
            run(cfg, workers=1)

    def test_ns_alias(self):
        cfg = ExperimentConfig.from_dict(
            {"scenario": "fig4_overlap", "p": "40", "n1": "20", "n3": "20",
             "ns": "10", "m": "8", "phi_grid": "0.5", "replicates": "1"}
        )
        assert cfg.n_s == 10


class TestAggregate:
    def _rows(self, values, estimator="G"):
        return [
            ReplicateRow("s", "pt", estimator, i, v, float("nan"), 1.0)
            for i, v in enumerate(values)
        ]

    def test_constant_rows_zero_sd(self):
        aggs = aggregate(self._rows([0.7, 0.7, 0.7]))
        raw = [a for a in aggs if a.estimator == "G:raw"][0]
        assert raw.mean == 0.7 and raw.sd == 0.0 and raw.n == 3

    def test_two_point_rows(self):
        aggs = aggregate(self._rows([0.0, 1.0]))
        raw = [a for a in aggs if a.estimator == "G:raw"][0]
        assert raw.mean == pytest.approx(0.5)
        assert raw.sd == pytest.approx(np.sqrt(0.5))

    def test_permutation_stable(self):
        rows = self._rows([0.1, 0.4, 0.9, 0.3])
        a = aggregate(rows)
        b = aggregate(list(reversed(rows)))
        assert a == b

    def test_nan_corrected_dropped(self):
        rows = self._rows([0.5, 0.5])
        aggs = aggregate(rows)
        assert all(not a.estimator.endswith(":corrected") for a in aggs)


class TestRun:
    def test_deterministic_rerun(self):
        cfg = tiny_fig2()
        r1 = run(cfg)
        r2 = run(cfg)
        assert r1.replicate_rows == r2.replicate_rows
        assert r1.aggregate_rows == r2.aggregate_rows

    def test_parallel_serial_equivalence(self, tmp_path):
        cfg = tiny_fig2()
        run(cfg, workers=1, out_dir=str(tmp_path / "serial"))
        run(cfg, workers=2, out_dir=str(tmp_path / "parallel"))
        serial = (tmp_path / "serial" / "replicates.tsv").read_bytes()
        parallel = (tmp_path / "parallel" / "replicates.tsv").read_bytes()
        assert serial == parallel

    def test_persisted_rows_reaggregate_identically(self, tmp_path):
        from crosstrait import io_files

        cfg = tiny_fig2()
        run(cfg, out_dir=str(tmp_path))
        rows = read_replicates(str(tmp_path / "replicates.tsv"))
        aggs = read_aggregates(str(tmp_path / "aggregates.tsv"))
        assert aggregate(rows) == aggs

    def test_estimators_present(self):
        res = run(tiny_fig2())
        names = {r.estimator for r in res.replicate_rows}
        assert names == {"G_ae", "G_ab", "phi_ab_summary"}
        assert all(np.isfinite(r.raw) for r in res.replicate_rows)

    def test_failure_budget_enforced(self, monkeypatch):
        def broken(config, point, rep):
            raise GenerationError("boom")

        _patch_replicate(monkeypatch, broken)
        with pytest.raises(ExperimentError):
            run(tiny_fig2(), workers=1)

    def test_fig3_rows_track_thresholds(self):
        cfg = ExperimentConfig(
            scenario="fig3_screening", p=200, n1=150, n3=150, m=0,
            phi_grid=(0.8,), sparsity_grid=(0.05,),
            thresholds=(1.0, 0.05, 1e-8), replicates=3, master_seed=5,
        )
        res = run(cfg)
        names = {r.estimator for r in res.replicate_rows}
        assert names == {"G_T@1", "G_T@0.05", "G_T@1e-08"}
        for r in res.replicate_rows:
            if r.estimator == "G_T@1":
                assert "q=200" in r.flag

    def test_fig1_metrics(self):
        cfg = ExperimentConfig(
            scenario="fig1_gwas_properties", p=100, n1=200, sigma2=0.4,
            sparsity_grid=(0.2,), replicates=3, master_seed=6, standardize_y=False,
        )
        res = run(cfg)
        names = {r.estimator for r in res.replicate_rows}
        assert names == {"auc", "power", "enrichment", "beta_mse", "bhat_null_probe"}
        aucs = [r.raw for r in res.replicate_rows if r.estimator == "auc"]
        assert all(0.0 <= a <= 1.0 for a in aucs)

    def test_fig4_case_switch(self):
        cfg = ExperimentConfig(
            scenario="fig4_overlap", p=80, n1=40, n2=40, n3=40, n_s=20, m=16,
            phi_grid=(0.5,), replicates=2, master_seed=7, overlap_cases=("i",),
        )
        res = run(cfg)
        assert {r.estimator for r in res.replicate_rows} == {"G_S_ae"}

    def test_raw_means_follow_attenuation_line(self):
        # regression of mean raw on phi should recover the theoretical factor
        nn = 2000
        cfg = ExperimentConfig(
            scenario="figS5_summary_only", p=nn, n1=nn, n2=nn, m=400,
            phi_grid=(0.2, 0.5, 0.8), replicates=25, master_seed=8,
        )
        res = run(cfg)
        phis, means = [], []
        for a in res.aggregate_rows:
            if a.estimator == "phi_ab_summary:raw":
                phis.append(float(a.point_id.split("=")[1]))
                means.append(a.mean)
        slope = np.polyfit(phis, means, 1)[0]
        assert abs(slope - 0.5) < 0.03  # factor sqrt(1/2 * 1/2)


WORKER_COUNTS = [1, 2]


def _patch_replicate(monkeypatch, rep_fn):
    patched = dataclasses.replace(SCENARIOS["fig2_all_snp"], replicate=rep_fn)
    monkeypatch.setitem(SCENARIOS, "fig2_all_snp", patched)


class TestReplicateFailures:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_bug_in_replicate_propagates(self, monkeypatch, workers):
        # one task in 40 is within the failure budget, so only propagation fails the run
        def buggy(config, point, rep):
            if rep == 3:
                raise RuntimeError("bug in a replicate")
            return []

        _patch_replicate(monkeypatch, buggy)
        with pytest.raises(RuntimeError, match="bug in a replicate") as info:
            run(tiny_fig2(replicates=40), workers=workers)
        assert type(info.value) is RuntimeError

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_generation_error_recorded(self, monkeypatch, workers):
        def flaky(config, point, rep):
            if rep == 3:
                raise GenerationError("resampling cap hit")
            return []

        _patch_replicate(monkeypatch, flaky)
        res = run(tiny_fig2(replicates=40), workers=workers)
        assert res.failures == [("phi=0.5", 3, "GenerationError: resampling cap hit")]


class TestThreadPool:
    def test_starts_no_process(self, monkeypatch):
        # more workers than cores, switching threads every microsecond
        def refuse(*args, **kwargs):
            raise AssertionError("a process was started")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        monkeypatch.setattr(os, "fork", refuse)
        cfg = tiny_fig2(replicates=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = run(cfg, workers=5)
        finally:
            sys.setswitchinterval(interval)
        assert pooled.workers == 5
        assert pooled.replicate_rows == run(cfg, workers=1).replicate_rows

    def test_two_tasks_run_at_once(self, monkeypatch):
        barrier = threading.Barrier(2, timeout=10)

        def meet(config, point, rep):
            barrier.wait()
            return []

        _patch_replicate(monkeypatch, meet)
        assert run(tiny_fig2(replicates=4), workers=2).failures == []

    def test_bug_cancels_the_tasks_not_started(self, monkeypatch):
        started = []

        def buggy(config, point, rep):
            started.append(rep)
            if rep == 0:
                raise RuntimeError("bug in replicate 0")
            time.sleep(0.05)
            return []

        _patch_replicate(monkeypatch, buggy)
        with pytest.raises(RuntimeError, match="bug in replicate 0"):
            run(tiny_fig2(replicates=40), workers=2)
        assert 0 in started and len(started) < 10, started

    @pytest.mark.parametrize("scenario, labels", [("fig2_all_snp", "XZW"),
                                                  ("fig3_screening", "XW"),
                                                  ("moments_indep", "XZW")])
    def test_one_cohort_held_at_a_time(self, monkeypatch, scenario, labels):
        # every cohort drawn before is gone when the next one is drawn
        drawn, live_at_draw = [], []
        gen_cohort = synth._gen_cohort

        def tracked(seed, label, n, maf):
            live_at_draw.append(sum(ref() is not None for _, ref in drawn))
            out = gen_cohort(seed, label, n, maf)
            drawn.append((label, weakref.ref(out)))
            return out

        monkeypatch.setattr(synth, "_gen_cohort", tracked)
        if scenario == "moments_indep":
            monkeypatch.setenv(WORKERS_ENV, "1")
            arch = TraitArchitecture.shared_causal(120, 30, phi=0.5, h2=0.8)
            monte_carlo_check_many(list(INDEP_TAGS), arch, replicates=30, seed=1,
                                   n1=100, n2=100, n3=100)
            reps = 30
        else:
            run(tiny_fig2(scenario=scenario, sparsity_grid=(0.1,), replicates=2), workers=1)
            reps = 2
        assert "".join(label for label, _ in drawn) == labels * reps
        assert live_at_draw == [0] * len(drawn)

    # each cohort is one gen_independent_cohorts call, which draws its own
    # MAFs and effects: fig2 draws 3 cohorts a task, fig3 2
    @pytest.mark.parametrize("scenario, cohorts", [("fig2_all_snp", 3), ("fig3_screening", 2)])
    def test_mafs_and_effects_drawn_once_per_cohort(self, monkeypatch, scenario, cohorts):
        calls = {"maf": 0, "effects": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(synth, "_cohort_maf", counted("maf", synth._cohort_maf))
        monkeypatch.setattr(synth, "gen_effects", counted("effects", synth.gen_effects))
        run(tiny_fig2(scenario=scenario, sparsity_grid=(0.1,), replicates=2), workers=1)
        assert calls == {"maf": 2 * cohorts, "effects": 2 * cohorts}


class TestWorkers:
    def test_default_is_usable_cores_capped_by_tasks(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        cores = len(os.sched_getaffinity(0))
        assert resolve_workers(None, 1000) == cores
        assert resolve_workers(None, 1) == 1

    def test_explicit_and_environment_override(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers(None, 1) == 3
        assert resolve_workers(5, 1) == 5

    @pytest.mark.parametrize("cfg", [
        dict(scenario="fig2_all_snp", p=10050, n1=61, n2=61, n3=63, m=100,
             phi_grid=(0.3, 0.8), replicates=2, master_seed=41),
        dict(scenario="fig3_screening", p=10050, n1=61, n3=63, phi_grid=(0.8,),
             sparsity_grid=(0.01, 0.2), replicates=2, master_seed=42),
    ], ids=["fig2_all_snp", "fig3_screening"])
    def test_identical_at_any_workers_and_blas_thread_count(self, tmp_path, cfg):
        # n % 4 != 0 and p > 10,000: the sizes at which a threaded OpenBLAS
        # GEMV or dot product rounds differently; no replicate calls BLAS, so
        # neither the pool nor the BLAS thread count may move a bit
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        outs = []
        for threads in ("1", "2"):
            for workers in (1, 2):
                out = tmp_path / f"t{threads}w{workers}"
                code = ("from crosstrait.experiments import ExperimentConfig, run; "
                        f"run(ExperimentConfig(**{cfg!r}), workers={workers}, out_dir={str(out)!r})")
                env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
                subprocess.run([sys.executable, "-c", code], env=env, check=True)
                outs.append((out / "replicates.tsv").read_bytes())
        assert outs[0] and outs.count(outs[0]) == 4

    def test_manifest_records_workers_outside_config_hash(self, tmp_path):
        cfg = tiny_fig2()
        run(cfg, workers=1, out_dir=str(tmp_path / "w1"))
        run(cfg, workers=2, out_dir=str(tmp_path / "w2"))
        lines = {
            w: dict(line.split("=", 1)
                    for line in (tmp_path / w / "manifest.txt").read_text().splitlines())
            for w in ("w1", "w2")
        }
        assert lines["w1"]["config_hash"] == lines["w2"]["config_hash"]
        assert (lines["w1"]["workers"], lines["w2"]["workers"]) == ("1", "2")

    @pytest.mark.parametrize("cfg", [
        ExperimentConfig(scenario="fig2_all_snp", p=1000, n1=1000, n2=1000, n3=1000,
                         m=100, phi_grid=(0.3, 0.8), replicates=2, master_seed=31),
        ExperimentConfig(scenario="fig3_screening", p=1000, n1=1000, n3=1000,
                         phi_grid=(0.8,), sparsity_grid=(0.01, 0.2), replicates=2,
                         master_seed=32),
        # n % 4 != 0: a threaded GEMV rounds the tail rows of each thread's
        # share on another path
        ExperimentConfig(scenario="fig2_all_snp", p=2000, n1=2001, n2=2001, n3=2001,
                         m=200, phi_grid=(0.3, 0.8), replicates=2, master_seed=7),
        # p > 10,000: a threaded dot product of p terms adds its partial sums
        # in another order
        ExperimentConfig(scenario="fig2_all_snp", p=10001, n1=60, n2=60, n3=60,
                         m=50, phi_grid=(0.3, 0.8), replicates=2, master_seed=8),
    ], ids=["fig2_all_snp", "fig3_screening", "fig2_all_snp_n2001", "fig2_all_snp_p10001"])
    def test_serial_parallel_identical_at_threaded_blas_size(self, tmp_path, cfg):
        # each config reaches a size at which OpenBLAS would thread a GEMV or
        # a dot product; the replicates call none
        run(cfg, workers=1, out_dir=str(tmp_path / "serial"))
        run(cfg, workers=2, out_dir=str(tmp_path / "parallel"))
        serial = (tmp_path / "serial" / "replicates.tsv").read_bytes()
        assert serial == (tmp_path / "parallel" / "replicates.tsv").read_bytes()


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def _second_round_faults():
    """Malloc, touch and free 40 MiB twice through the C library; the minor
    page faults of the second round.  Under glibc's defaults a block this
    large is always a fresh mmap, so each round faults its pages in.  (Not
    numpy: it asks for huge pages, which fault in few.)"""
    import resource

    libc = ctypes.CDLL(None)
    libc.malloc.argtypes, libc.malloc.restype = (ctypes.c_size_t,), ctypes.c_void_p
    libc.free.argtypes = (ctypes.c_void_p,)
    for _ in range(2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        block = libc.malloc(40 << 20)
        ctypes.memset(block, 1, 40 << 20)
        libc.free(block)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@pytest.mark.skipif(not _glibc(), reason="the malloc thresholds are set on glibc only")
class TestFreedMemoryStaysInTheHeap:
    def test_steady_state_run_takes_no_page_faults(self):
        # a fresh process: the first run grows the heap, later runs reuse it;
        # under glibc's defaults each run took about 540 faults at this size
        code = (
            "import resource\n"
            "from crosstrait.experiments import ExperimentConfig, run\n"
            "cfg = ExperimentConfig(scenario='fig2_all_snp', p=600, n1=600, n2=600, n3=600,\n"
            "                       m=60, h2=0.5, phi_grid=(0.3, 0.8), replicates=1)\n"
            "for _ in range(4):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    run(cfg, workers=1)\n"
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             check=True, capture_output=True, text=True).stdout
        faults = [int(f) for f in out.split()]
        assert len(faults) == 4 and faults[-1] < 50, faults

    def test_file_commands_take_no_page_faults(self, tmp_path):
        # cli.main sets the thresholds, so the tile buffers that a container
        # streamed through the kernels frees and allocates again stay in the
        # heap; under glibc's defaults each later round took about 1,300
        # faults at this size
        rng = np.random.default_rng(5)
        G = synth.GenotypeMatrix.from_codes(rng.integers(0, 3, size=(1000, 8000), dtype=np.uint8))
        geno, pheno = str(tmp_path / "g.xtg"), str(tmp_path / "y.tsv")
        io_files.write_genotype_bin(geno, G)
        io_files.write_phenotype_tsv(pheno, rng.standard_normal(G.n))
        summary, scores = str(tmp_path / "s.tsv"), str(tmp_path / "scores.tsv")
        code = (
            "import resource\n"
            "from crosstrait.cli import main\n"
            "for _ in range(4):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            f"    main(['gwas', '--genotypes', {geno!r}, '--phenotype', {pheno!r},\n"
            f"          '--out', {summary!r}])\n"
            f"    main(['score', '--genotypes', {geno!r}, '--summary', {summary!r},\n"
            f"          '--out', {scores!r}])\n"
            "    print('faults', resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             check=True, capture_output=True, text=True).stdout
        faults = [int(line.split()[1]) for line in out.splitlines() if line.startswith("faults ")]
        assert len(faults) == 4 and faults[-1] < 50, faults

    def test_set_in_the_calling_process_of_a_pool_run(self):
        # the pool's threads run the tasks in the calling process, which
        # run() has set
        here = os.path.dirname(__file__)
        code = (
            f"import sys; sys.path.insert(0, {here!r})\n"
            "from crosstrait.experiments import ExperimentConfig, run\n"
            "from test_experiments import _second_round_faults\n"
            "run(ExperimentConfig(scenario='fig2_all_snp', p=60, n1=50, n2=50, n3=50, m=10,\n"
            "                     phi_grid=(0.5,), replicates=2), workers=2)\n"
            "print(_second_round_faults())\n"
        )
        src = os.path.join(os.path.dirname(here), "src")
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             check=True, capture_output=True, text=True).stdout
        assert int(out) < 50

    def test_sets_both_thresholds(self):
        assert experiments._keep_freed_memory.__wrapped__() is True

    @pytest.mark.parametrize("confstr", ["missing", "unknown_name", "unset"])
    def test_silent_no_op_off_glibc(self, monkeypatch, confstr):
        # no os.confstr (Windows), a name the C library does not define
        # (musl, macOS), or a name it defines without a value
        if confstr == "missing":
            monkeypatch.delattr(os, "confstr")
        else:
            def fake(name):
                if confstr == "unknown_name":
                    raise ValueError("unrecognized configuration name")
            monkeypatch.setattr(os, "confstr", fake)

        def no_libc(*args):
            raise AssertionError("the C library was loaded")
        monkeypatch.setattr(experiments.ctypes, "CDLL", no_libc)
        assert experiments._keep_freed_memory.__wrapped__() is False

    def test_refused_mallopt_is_silent(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 0
        monkeypatch.setattr(experiments.ctypes, "CDLL",
                            lambda name: types.SimpleNamespace(mallopt=mallopt))
        assert experiments._keep_freed_memory.__wrapped__() is False
        assert calls == [(-3, 64 << 20)]


class TestGeneticShare:
    def test_pure_genetic_is_one(self):
        arch = TraitArchitecture.shared_causal(100, 20, phi=0.5, h2=1.0)
        assert genetic_share(arch, 0.0, "ae") == 1.0

    def test_mixed_share_value(self):
        # gen = 20 * 0.5, cross = rho_eps * sigma_eps (equal traits)
        arch = TraitArchitecture.shared_causal(100, 20, phi=0.5, h2=0.5)
        cross = 0.5 * arch.sigma2_eps("alpha")
        expected = 10.0 / (10.0 + cross)
        assert genetic_share(arch, 0.5, "ae") == pytest.approx(expected)

    def test_negative_cross_rejected(self):
        arch = TraitArchitecture.shared_causal(100, 20, phi=0.5, h2=0.5)
        with pytest.raises(ParameterError):
            genetic_share(arch, -0.9, "ae")


class TestLadder:
    @staticmethod
    def _screened(n, p, sparsity, seed):
        arch = TraitArchitecture.shared_causal(p, max(1, round(sparsity * p)), phi=0.8,
                                               h2=0.5, traits=("alpha", "eta"))
        b = gen_independent_cohorts(arch, CohortSizes(n1=n, n3=n), seed,
                                    traits=("alpha", "eta"))
        return b, marginal_gwas(b.disc_alpha, b.y_alpha.y)

    @pytest.mark.parametrize("sparsity, cutoffs", [
        pytest.param(0.01, "default", id="0.01"),
        pytest.param(0.8, "default", id="0.8"),
        pytest.param(0.05, "unsorted_repeated_ties", id="0.05-unsorted_repeated_ties"),
    ])
    def test_ladder_matches_per_rung_score(self, sparsity, cutoffs):
        b, stats = self._screened(2000, 2000, sparsity, seed=7)
        thresholds = experiments.DEFAULT_THRESHOLDS
        if cutoffs == "unsorted_repeated_ties":
            # unsorted, repeated cutoffs, two of them equal to a p-value
            ties = sorted(stats.pvalue)[::97][:2]
            thresholds = (0.05, 1.0, ties[1], 1e-8, 0.05, ties[0], 0.3)
        ladder = experiments._ladder_scores(b.target, stats, thresholds)
        assert set(ladder) == set(thresholds)
        for thr in thresholds:
            want = score(b.target, stats, ScreenRule("pvalue_cutoff", thr)).scores
            got = ladder[thr]
            scale = np.abs(want).max()
            if scale == 0.0:  # empty rung
                assert np.all(got == 0.0)
            else:
                assert np.abs(got - want).max() <= 1e-12 * scale

    def test_unsorted_repeated_thresholds_keep_config_order(self):
        base = dict(scenario="fig3_screening", p=200, n1=150, n3=150, phi_grid=(0.8,),
                    sparsity_grid=(0.05,), replicates=2, master_seed=5)
        res = run(ExperimentConfig(thresholds=(0.05, 1.0, 0.05, 1e-8), **base), workers=1)
        ref = run(ExperimentConfig(thresholds=(1e-8, 0.05, 1.0), **base), workers=1)
        by_name = {(r.estimator, r.replicate): r for r in ref.replicate_rows}
        for rep in range(2):
            rows = [r for r in res.replicate_rows if r.replicate == rep]
            assert [r.estimator for r in rows] == ["G_T@0.05", "G_T@1", "G_T@0.05", "G_T@1e-08"]
            for r in rows:
                assert repr(r) == repr(by_name[(r.estimator, rep)])
