#!/usr/bin/env python3
"""Run one workload of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator libraries from ../src and the `mcabench` program into
.bench_build/ (CMake; the first run compiles everything), then runs the
workload. Build output goes to stderr; stdout is the program's report,
whose last line is one JSON object with the keys correct, attempted,
failed and metrics. Result and span files land in .bench_build/results/.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
WORKLOADS = ("issue-bound", "memory-bound-octa8", "table2-campaign",
             "sampled-gcc1")
# One invocation must finish well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """Content hash of the simulator and benchmark sources."""
    digest = hashlib.sha256()
    files = [p for d in (ROOT / "src", BENCH_DIR) for p in d.rglob("*")
             if p.is_file() and "__pycache__" not in p.parts]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build():
    """Configure once, then let the build tool bring mcabench up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found at {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    compile_cmd = ["cmake", "--build", str(BUILD_DIR), "--target",
                   "mcabench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD_DIR / "mcabench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--inject",
                        help="corrupt one output before it is checked "
                             "(self-test of the checks)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    work_dir = BUILD_DIR / "work" / f"{args.workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--work-dir", str(work_dir),
           "--out-dir", str(BUILD_DIR / "results"),
           "--commit", git_commit(), "--src-digest", source_digest()]
    if args.inject:
        cmd += ["--inject", args.inject]
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s",
             code=3)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
