#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Checks, in about two minutes:
  1. BENCHMARK.json lists exactly the metrics `mcabench --list-metrics`
     reports, with the same units and directions.
  2. A traced issue-bound run on two seeds passes every output check,
     and the second seed changes the simulated cycles of gcc1 and of the
     random program (the seed reaches the generated inputs).
  3. Each deliberately injected output mismatch makes the run fail:
     non-zero exit, "correct": false and at least one failed op.
  4. run.py fails, without printing a result, in a directory that holds
     only BENCHMARK.json and the benchmark's own files.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
ISSUE_BOUND_PROGRAMS = ("gcc1", "tomcatv", "su2cor", "random")
# tomcatv's and su2cor's loop nests take the same path for every trace
# seed; gcc1's branches and the random program's shape follow the seed.
SEEDED_PROGRAMS = ("gcc1", "random")
INJECTIONS = (
    ("issue-bound", "cycles"),
    ("issue-bound", "retired"),
    ("memory-bound-octa8", "cycles"),
    ("table2-campaign", "warm"),
    ("sampled-gcc1", "width"),
)

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, trace, inject=None, root=ROOT):
    cmd = [sys.executable, str(root / BENCH_DIR.name / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def metric_table():
    binary = ROOT / ".bench_build" / "mcabench"
    if not binary.exists():  # first use: run.py builds it
        run("issue-bound", 1, 0)
    out = subprocess.run([str(binary), "--list-metrics"], check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def main():
    table = metric_table()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section, e2e in (("end_to_end", True), ("per_layer", False)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
        reported = {m["name"]: (m["unit"], m["better"]) for m in table
                    if m["end_to_end"] == e2e}
        check(listed == reported,
              f"BENCHMARK.json {section} matches mcabench's table")

    cycles = {}
    for seed in (1, 2):
        code, result = run("issue-bound", seed, 1)
        check(code == 0 and result and result["correct"] and
              result["failed"] == 0 and result["attempted"] > 0,
              f"traced issue-bound seed {seed} passes every check")
        if result:
            names = {m["name"] for m in spec["per_layer"]}
            check(set(result["metrics"]) == names,
                  f"traced run seed {seed} reports every per-layer metric")
            cycles[seed] = {p: result["metrics"][f"core.sim_cycles.{p}"]
                            ["value"] for p in ISSUE_BOUND_PROGRAMS}
    if len(cycles) == 2:
        for prog in SEEDED_PROGRAMS:
            check(cycles[1][prog] != cycles[2][prog],
                  f"seed 2 changes core.sim_cycles.{prog} "
                  f"({cycles[1][prog]:.0f} -> {cycles[2][prog]:.0f})")

    for workload, inject in INJECTIONS:
        code, result = run(workload, 1, 0, inject)
        check(code != 0 and result is not None and not result["correct"]
              and result["failed"] > 0,
              f"{workload}: injected '{inject}' mismatch fails the run")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result = run("issue-bound", 1, 0, root=bare)
    check(code != 0 and result is None,
          "run.py fails without a result when src/ is absent")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
