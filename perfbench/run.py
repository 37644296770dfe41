#!/usr/bin/env python3
"""Build the benchmark driver from the repository sources and run one
workload.

    python3 perfbench/run.py --workload chip64 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The driver is configured and built
(Release) under .bench_build/ on first use and rebuilt incrementally
after that; build output goes to standard error. The driver's own
standard output is passed through, so the last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

With --trace 1 the per-layer metrics are printed instead, and every
span is also written to .bench_build/spans-<workload>.json (a Chrome
trace). Outputs are checked against the digests in reference.json
next to this script, or in the file --reference names; every run
prints the digests it observed on its "# digests" line.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("chip64", "report_cold", "report_warm")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def jobs():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build():
    """Configure (once) and build the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}; run from a "
             "full checkout of the repository")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j",
                       str(jobs())], stdout=sys.stderr).returncode:
        fail("build failed")
    return BUILD_DIR / "perfbench"


def source_id():
    """The commit when this is a git checkout, plus a digest of the
    sources the driver is built from (checkouts need not be git)."""
    commit = "none"
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             cwd=ROOT, capture_output=True, text=True)
        if top.returncode == 0 and Path(top.stdout.strip()) == ROOT:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True,
                                    text=True).stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for sub in ("src", "bench/figures", "perfbench"):
        for path in sorted((ROOT / sub).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return f"{commit} src-sha256:{digest.hexdigest()[:16]}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path,
                        default=BENCH_DIR / "reference.json")
    args = parser.parse_args()

    binary = build()
    try:
        reference = json.loads(args.reference.read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read reference digests {args.reference}: {err}")

    work_dir = ROOT / ".bench_build" / f"work-{args.workload}-{os.getpid()}"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work_dir),
               "--commit", source_id()]
    for key, digest in sorted(reference.items()):
        command += ["--reference", f"{key}={digest}"]
    if args.trace:
        command += ["--spans", str(ROOT / ".bench_build" /
                                   f"spans-{args.workload}.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(run.stdout)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
