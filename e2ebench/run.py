#!/usr/bin/env python3
"""End-to-end campaign benchmark: build, run one workload, report.

    python3 e2ebench/run.py --workload grid-cold --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The first run builds the library
sources and the benchmark binary in Release under .bench_build/e2ebench (CMake, about a
minute on four cores); later runs only re-check the build. One workload runs
per process, so peak memory belongs to that workload. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer ledger of
a separate traced run with --trace 1. Exits non-zero without a result when
the sources are missing, the build fails, the run fails or its metric names
disagree with BENCHMARK.json. See e2ebench/README.md.
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
REPO = BENCH_DIR.parent
WORKLOADS = ("grid-cold", "grid-faulty", "serve-tenancy")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def build_root():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def run_logged(cmd, log):
    # The compiler's temporary files stay inside the checkout too.
    tmp = build_root() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(log, "a") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=env, timeout=BUILD_TIMEOUT_S).returncode


def build():
    """Configures (once) and builds the Release binary; returns its path."""
    build_dir = build_root() / "e2ebench"
    log = build_root() / "e2ebench-build.log"
    build_dir.parent.mkdir(parents=True, exist_ok=True)
    log.write_text("")
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    make = ["cmake", "--build", str(build_dir),
            "-j", str(min(4, os.cpu_count() or 1))]
    if (build_dir / "CMakeCache.txt").exists() and run_logged(make, log) == 0:
        return build_dir / "e2ebench"
    # First build, or a build tree left by another checkout location.
    shutil.rmtree(build_dir, ignore_errors=True)
    if run_logged(configure, log) != 0:
        fail_with_log("configure failed", log)
    if run_logged(make, log) != 0:
        fail_with_log("build failed", log)
    return build_dir / "e2ebench"


def fail_with_log(message, log):
    sys.stderr.write("".join(log.read_text().splitlines(True)[-40:]))
    fail(message)


def source_identity():
    """The git commit when there is one, else a digest of the source tree."""
    if (REPO / ".git").exists():
        head = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    for root in (REPO / "src", BENCH_DIR):
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(REPO)).encode())
            digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]




def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (the benchmark's own tests)")
    args = parser.parse_args()

    if not (REPO / "src" / "sim" / "grid_sim.hpp").exists():
        fail(f"library sources not found under {REPO / 'src'}")
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    section = spec["per_layer" if args.trace else "end_to_end"]
    try:
        binary = build()
    except subprocess.TimeoutExpired:
        fail("build timed out")

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--scratch", str(build_root() / "e2ebench-scratch"),
           "--commit", source_identity()]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])

    if args.trace:
        # Layers this workload does not exercise: zero time, zero work.
        for m in section:
            result["metrics"].setdefault(m["name"],
                                         {"value": 0, "unit": m["unit"]})
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expected = {m["name"]: m["unit"] for m in section}
    if got != expected:
        fail(f"metrics {sorted(got.items())} do not match "
             f"BENCHMARK.json {sorted(expected.items())}")

    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
