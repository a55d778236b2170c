"""Benchmark of crosstrait: Monte-Carlo studies and the file pipeline.

    python3 perfbench/run.py --workload fig2_all_snp --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Processes: this launcher imports nothing of the program.  With ``--trace 0``
it starts ``SETUP_SAMPLES`` set-up processes one after another and times each
from its start to the moment its inputs are ready (``setup_s`` is their
median); then one measuring process imports the program, runs the workload's
operations in a closed loop for ``--seconds`` seconds, checks the outputs and
reports.  Keeping set-up out of the measuring process keeps its peak resident
set to what the timed operations need.  With ``--trace 1`` the measuring
process runs one toy-size operation of every workload, builds the inputs
itself, and runs the loop with one worker, all under the tracer.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench-runs"
SETUP_SAMPLES = {"full": 3, "toy": 1}
WORKLOAD_NAMES = ("fig2_all_snp", "fig3_screening", "file_pipeline")
# default worker count of each workload's untraced run
WORKERS = {"fig2_all_snp": 1, "fig3_screening": 2, "file_pipeline": 1}
DEADLINE_S = 170.0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy: the same operations and checks at tiny sizes")
    ap.add_argument("--role", choices=("launch", "setup", "measure"), default="launch",
                    help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


# ---------------------------------------------------------------------------
# child processes: set-up and measurement
# ---------------------------------------------------------------------------

def _import_program() -> float:
    """Import crosstrait from this checkout's src/; return the import time."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import crosstrait
    elapsed = time.perf_counter() - t0
    if Path(crosstrait.__file__).resolve().parent != SRC / "crosstrait":
        raise SystemExit(f"error: imported crosstrait from {crosstrait.__file__}, not {SRC}")
    return elapsed


def _workload(args, workers):
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    return cls(args.seed, args.size, Path(args.workdir), workers)


def role_setup(args) -> int:
    _import_program()
    wl = _workload(args, WORKERS[args.workload])
    wl.prepare()
    wl.build_inputs()
    print("READY", flush=True)
    return 0


def _smoke_pass(workdir: Path) -> list[str]:
    """Run one toy-size operation of every workload; return its failures.

    A traced run does this first, under the tracer, so that every traced
    layer gets measured calls on every workload.  A layer that the workload
    never reached would otherwise report a self time of exactly 0 on every
    run.
    """
    import workloads

    errors = []
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(0, "toy", workdir / "smoke" / name, 1)
        wl.prepare()
        wl.build_inputs()
        wl.op(0)
        errors += wl.op_errors
    return errors


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def role_measure(args) -> int:
    import_s = _import_program()
    tracer = None
    problems = []
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        problems += [f"smoke pass: {msg}" for msg in _smoke_pass(Path(args.workdir))]
    wl = _workload(args, 1 if args.trace else WORKERS[args.workload])
    wl.prepare()
    if args.trace:
        wl.build_inputs()

    ops = []  # (tasks, wall seconds, cpu seconds) per operation
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        c0, t0 = _cpu_s(), time.perf_counter()
        tasks, calls, bad = wl.op(len(ops))
        t1, c1 = time.perf_counter(), _cpu_s()
        ops.append((tasks, t1 - t0, c1 - c0))
        attempted += calls
        failed += bad
        if t1 - start >= args.seconds and len(ops) >= wl.min_ops:
            break
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if tracer is not None:
        tracer.uninstall()

    for msg in wl.op_errors:
        print(f"operation failed: {msg}", file=sys.stderr)
    problems += wl.check()
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)

    done = [(tasks, wall, cpu) for tasks, wall, cpu in ops if tasks > 0]
    tasks_per_s = statistics.median(t / w for t, w, _ in done) if done else 0.0
    if tracer is not None:
        metrics = {k: {"value": v, "unit": "s" if k.endswith("_s") else "count"}
                   for k, v in tracer.layer_metrics().items()}
        metrics["setup.import_crosstrait_s"] = {"value": import_s, "unit": "s"}
        metrics["traced.tasks_per_s"] = {"value": tasks_per_s, "unit": "1/s"}
        metrics["traced.spans"] = {"value": len(tracer.spans), "unit": "count"}
        trace_dir = RUNS / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(str(trace_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}.tsv"))
    else:
        metrics = {
            "tasks_per_s": {"value": tasks_per_s, "unit": "1/s"},
            "cpu_s_per_task": {"value": statistics.median(c / t for t, _, c in done) if done else 0.0,
                               "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    result = {"correct": not problems and bool(done), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


# ---------------------------------------------------------------------------
# launcher
# ---------------------------------------------------------------------------

def _child_argv(args, role: str, workdir: Path) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
            "--role", role, "--workdir", str(workdir)]


def _time_setup(argv: list[str], timeout: float) -> float:
    """Seconds from starting a set-up process to its READY line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        ready = None
        for line in proc.stdout:
            if line.strip() == "READY":
                ready = time.perf_counter() - t0
        code = proc.wait()
    finally:
        killer.cancel()
        proc.kill()
        proc.wait()
    if ready is None or code != 0:
        raise RuntimeError(f"set-up process failed (exit {code})")
    return ready


def launch(args) -> int:
    if not (SRC / "crosstrait" / "__init__.py").is_file():
        print(f"error: no crosstrait sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workdir = RUNS / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES[args.size]):
                setups.append(_time_setup(_child_argv(args, "setup", workdir),
                                          deadline - time.monotonic()))
        proc = subprocess.run(_child_argv(args, "measure", workdir), stdout=subprocess.PIPE,
                              text=True, cwd=ROOT, timeout=max(deadline - time.monotonic(), 1.0))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: measuring process exited with {proc.returncode}", file=sys.stderr)
        return 3
    result = json.loads(lines[-1])
    if setups:
        result["metrics"] = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                             **result["metrics"]}
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role == "setup":
        return role_setup(args)
    if args.role == "measure":
        return role_measure(args)
    return launch(args)


if __name__ == "__main__":
    sys.exit(main())
