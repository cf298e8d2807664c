#!/usr/bin/env python3
"""End-to-end QUBIKOS benchmark runner.

Builds the benchmark binary from the source tree this file sits in
(Release, into $CARGO_TARGET_DIR or .bench_build at the repository
root), then runs one workload and forwards its output. The last line of
standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):
    python3 e2ebench/run.py --workload route_lightsabre --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --selftest

Exits non-zero, without printing a result, when the source tree is
missing, the build fails or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("route_lightsabre", "certify_exact", "campaign_fig4", "serve_mixed")
# One run must end well inside 180 s; the binary stops by its deadline.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target


def build(out_dir):
    """Configures once, then (re)builds the qubikos_e2e target."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no QUBIKOS source tree at {ROOT}")
    cmake_dir = out_dir / "e2ebench"
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target", "qubikos_e2e",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr so stdout carries only results.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    binary = cmake_dir / "qubikos_e2e"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def src_lines():
    """Line count of the library sources (the simplicity trend)."""
    total = 0
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".cpp", ".hpp") and path.is_file():
            with open(path, "rb") as handle:
                total += sum(1 for _ in handle)
    return total


def with_src_lines(stdout):
    """Adds the src/ line count to the binary's provenance line."""
    lines = stdout.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith('{"provenance"'):
            record = json.loads(line)
            record["provenance"]["src_lines"] = src_lines()
            lines[i] = json.dumps(record, separators=(",", ":")) + "\n"
            break
    return "".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out_dir = build_dir()
    binary = build(out_dir)
    workdir = out_dir / "work"
    workdir.mkdir(parents=True, exist_ok=True)

    if args.selftest:
        command = [str(binary), "--selftest", "--workdir", str(workdir)]
    else:
        command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace", str(args.trace),
                   "--workdir", str(workdir)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              check=False, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(with_src_lines(done.stdout))
    sys.stdout.flush()
    if done.returncode != 0:
        fail(f"benchmark exited with code {done.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
