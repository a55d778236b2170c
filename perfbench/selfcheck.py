"""Quick self-check of the benchmark harness (about half a minute).

    python3 perfbench/selfcheck.py

Runs every workload at toy size, untraced and traced, through the same
launcher, operations and correctness checks as a real run, and verifies that
each result line has exactly the keys and metric names BENCHMARK.json
declares.  It also runs the launcher in a directory that holds only
BENCHMARK.json and perfbench/, where it must fail without printing a result.
Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench-runs"


def run_toy(spec: dict, workload: str, trace: int) -> list[str]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--size", "toy"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}: {proc.stderr.strip()[-500:]}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != declared:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(declared))}")
    return problems


def run_without_sources() -> list[str]:
    bare = RUNS / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "fig2_all_snp",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, cwd=bare, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["launcher did not fail in a directory without the program's sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = run_toy(spec, workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not problems else 'FAIL'}")
            for msg in problems:
                print(f"  {msg}")
            failures += bool(problems)
    problems = run_without_sources()
    print(f"without sources: {'ok' if not problems else 'FAIL'}")
    for msg in problems:
        print(f"  {msg}")
    failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
