"""The benchmark's own self-test.

    python3 perfbench/selftest.py [--workload NAME] [--seed N]

Checks that
  * BENCHMARK.json names exactly the workloads and metrics the code reports;
  * the same seed generates the same inputs and another seed other inputs;
  * two traced runs on one seed report identical counts (every per-layer
    metric that is not a time);
  * in a directory holding only BENCHMARK.json and perfbench/, run.py exits
    non-zero without printing a result.
--workload limits the traced runs to the named workloads.  Exit 0 when
every check passes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

import program
import run
import tracing
import workloads
from check import Reference

COUNT_UNITS = {"count/item", "count/lambda", "bytes/item"}
COUNT_RATIOS = {"kernel.impossible_ratio", "born.impossible_ratio"}


def check_manifest() -> list[str]:
    spec = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    problems = []
    listed = {w["name"]: w["why"] for w in spec["workloads"]}
    coded = {name: w.why for name, w in workloads.WORKLOADS.items()}
    if listed != coded:
        problems.append(f"workloads differ: {listed} vs {coded}")
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if e2e != list(run.END_TO_END):
        problems.append(f"end_to_end differs: {e2e}")
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if layers != list(tracing.PER_LAYER):
        problems.append("per_layer differs from tracing.PER_LAYER")
    return problems


def check_inputs(seed: int) -> list[str]:
    problems = []
    for name in workloads.WORKLOADS:
        ref = Reference.load(name)
        first = workloads.generate(name, seed, ref, count=64)
        again = workloads.generate(name, seed, ref, count=64)
        other = workloads.generate(name, seed + 1, ref, count=64)
        if first != again:
            problems.append(f"{name}: seed {seed} is not reproducible")
        if [i.phi for i in first] == [i.phi for i in other]:
            problems.append(f"{name}: seeds {seed} and {seed + 1} agree")
    return problems


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(program.ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, check=True,
        timeout=run.CHILD_TIMEOUT_S * 2)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise AssertionError(f"{workload}: traced run failed items")
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in COUNT_UNITS or name in COUNT_RATIOS}


def check_counts(workload: str, seed: int) -> list[str]:
    first = traced_counts(workload, seed)
    second = traced_counts(workload, seed)
    return [f"{workload}: {name} {first[name]} != {second[name]}"
            for name in first if first[name] != second[name]]


def check_missing_program() -> list[str]:
    bare = program.OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(program.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(program.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "analyze-cubic-d7", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare checkout: exit {proc.returncode}, "
                f"stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        action="append")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    program.prepare_environment()
    checks = [("manifest", check_manifest),
              ("inputs", lambda: check_inputs(args.seed)),
              ("missing program", check_missing_program)]
    for name in args.workload or workloads.WORKLOADS:
        checks.append((f"traced counts {name}",
                       lambda name=name: check_counts(name, args.seed)))
    failed = False
    for label, fn in checks:
        problems = fn()
        print(f"{'FAIL' if problems else 'PASS'} {label}")
        for p in problems:
            print(f"    {p}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
