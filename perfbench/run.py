#!/usr/bin/env python3
"""Repository benchmark: build the benchmark from source, run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The libraries and the benchmark binary are
built under .bench_build/perfbench (CMake, Release, the repository's own
options), the benchmark's arithmetic tests run, and then the binary runs the
workload with a fixed thread budget: in one process, or (untraced
serve_saturate) in several fresh processes that split the measuring time,
whose metrics are combined by their median. The binaries' standard output
is passed through; the last line is the JSON result. See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pool threads per workload. The binary runs the workload on a pool
# worker, where the library's parallel_for runs inline, so the measured
# work is single-threaded, and serve_saturate pumps its shards itself. The
# second worker stays free for any parallel_for called from another
# thread (the shard workers of the traced run's open-loop probe), which
# would otherwise wait for the worker running the workload. Busy threads:
# workload + 2-3% sampler, or in the probe producer + 2 shard workers.
POOL_THREADS = {"attack_point": 2, "serve_saturate": 2}
# Fresh processes per untraced run. Closed-loop throughput at reference
# speed moved by up to a tenth from one process to the next (where buffers
# land in the caches, and the CPU the sampler measures, differ per
# process), so serve_saturate takes the median of five; an attack point is
# too long to split.
PROCESSES = {"attack_point": 1, "serve_saturate": 5}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 165


def source_rev(root: Path) -> str:
    """git revision when the checkout has one, and always a digest of the
    sources the benchmark builds, so an exported tree is identified too."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        base = root / top
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.is_file())
        for p in files:
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    rev = "src-sha256:" + h.hexdigest()[:16]
    if (root / ".git").exists():
        try:
            git = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if git.returncode == 0:
                rev = "git:" + git.stdout.strip() + " " + rev
        except (OSError, subprocess.SubprocessError):
            pass
    return rev


def build(root: Path, build_dir: Path) -> None:
    log = build_dir.parent / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs, "--target",
                  "perfbench", "perfbench_tests"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=root).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                raise SystemExit(f"perfbench: build failed, see {log}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(POOL_THREADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = Path.cwd()
    if not ((root / "CMakeLists.txt").is_file() and
            (root / "src" / "CMakeLists.txt").is_file()):
        print("perfbench: run from the root of a checkout; the repository "
              "sources (CMakeLists.txt, src/) are missing", file=sys.stderr)
        return 2

    build_dir = root / ".bench_build" / "perfbench" / "build"
    build(root, build_dir)
    tests = subprocess.run([str(build_dir / "perfbench_tests")],
                           capture_output=True, text=True)
    if tests.returncode != 0:
        sys.stderr.write(tests.stdout[-4000:])
        print("perfbench: arithmetic self-tests failed", file=sys.stderr)
        return 3

    env = {k: v for k, v in os.environ.items() if not k.startswith("MMHAR_")}
    env["MMHAR_THREADS"] = str(POOL_THREADS[args.workload])
    env["MMHAR_LOG_LEVEL"] = "2"
    env["MMHAR_CACHE_DIR"] = str(root / ".bench_build" / "perfbench" /
                                 "mmhar_cache")
    procs = 1 if args.trace else PROCESSES[args.workload]
    rev = source_rev(root)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    for i in range(procs):
        out_dir = root / ".bench_build" / "perfbench" / "runs"
        if procs > 1:
            out_dir = out_dir / f"process-{i}"
        cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds",
               repr(args.seconds / procs), "--trace", str(args.trace),
               "--out", str(out_dir), "--rev", rev]
        try:
            run = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.PIPE,
                                 text=True,
                                 timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 4
        if run.returncode != 0:
            print(f"perfbench: benchmark binary exited {run.returncode}",
                  file=sys.stderr)
            return run.returncode if run.returncode > 0 else 5
        lines = run.stdout.rstrip("\n").splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if not isinstance(result, dict) or set(result) != RESULT_KEYS:
            print("perfbench: benchmark binary printed no result line",
                  file=sys.stderr)
            return 6
        if procs == 1:
            sys.stdout.write(run.stdout)
            return 0
        for line in lines[:-1]:
            print(f"# process {i}: {line.removeprefix('# ')}")
        print(f"# process {i}: result {lines[-1]}")
        results.append(result)
    print(json.dumps(combine(results)))
    return 0


def combine(results: list) -> dict:
    """One result from several processes' results: correct only if every
    one was, attempts and failures summed, each metric the median."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": first["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
