#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

    python3 perfbench/run.py --workload fig5_hc|fig5_sc|pareto1k|campaign \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the checkout; each run's scratch files go to a fresh
directory there and are removed afterwards. stdout ends with a host and build
fingerprint line, the program's info line and, last, the result line
{"correct", "attempted", "failed", "metrics"}. Build logs and failed checks
go to stderr. See perfbench/METRICS.md for what each workload and metric
means.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fig5_hc", "fig5_sc", "pareto1k", "campaign")
# Sweep and campaign workers: fixed, and never more than the host's cores.
# Two, not one per core: on a shared host a batch waits for its slowest
# worker, and fewer workers leave cores for the host's other load.
THREADS = max(1, min(2, os.cpu_count() or 1))


def build(build_dir, env):
    """Configures and builds perfbench; returns the binary path."""
    cmake = os.path.join(build_dir, "cmake")
    steps = (
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", cmake,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", cmake, "--target", "perfbench",
         "-j", str(os.cpu_count() or 1)],
    )
    for cmd in steps:
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=sys.stderr,
                       stderr=sys.stderr, timeout=840)
    return os.path.join(cmake, "perfbench")


def cmake_cache(build_dir, key):
    path = os.path.join(build_dir, "cmake", "CMakeCache.txt")
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def cpu_info():
    model, mhz = "", 0.0
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and not model:
                    model = value.strip()
                elif key == "cpu MHz" and not mhz:
                    mhz = float(value)
    except OSError:
        pass
    return model, mhz


def tree_snapshot(skip):
    """(path, size, mtime) of every file under the checkout but `skip`."""
    files = set()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames
                       if os.path.join(dirpath, d) not in skip]
        for name in filenames:
            path = os.path.join(dirpath, name)
            st = os.lstat(path)
            files.add((os.path.relpath(path, ROOT), st.st_size,
                       st.st_mtime_ns))
    return files


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    # Compiler and program temporaries stay inside the build directory.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp, AXIHC_BENCH_THREADS=str(THREADS))
    try:
        binary = build(build_dir, env)
    except (subprocess.SubprocessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    out_dir = os.path.join(build_dir, "runs", f"{args.workload}-{os.getpid()}")
    skip = {os.path.join(ROOT, ".git"), os.path.abspath(build_dir)}
    before = tree_snapshot(skip)
    load_before = os.getloadavg()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--out", out_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=2 * args.seconds + 100)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    load_after = os.getloadavg()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(f"perfbench: run failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])

    # The run must leave the checkout as it found it (no sweep cache next to
    # the spec, no stray output).
    clean = tree_snapshot(skip) == before
    if not clean:
        print("perfbench: check failed: the run changed files in the "
              "checkout", file=sys.stderr)
    result["attempted"] += 1
    result["failed"] += 0 if clean else 1
    result["correct"] = result["failed"] == 0

    model, mhz = cpu_info()
    fingerprint = {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "cpu_mhz": mhz,
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
        "build_type": cmake_cache(build_dir, "CMAKE_BUILD_TYPE"),
        # perfbench never builds with the root project's AXIHC_NATIVE.
        "axihc_native": "OFF",
        "compiler": cmake_cache(build_dir, "CMAKE_CXX_COMPILER"),
        "code_version": info.get("code_version"),
        "workers": info.get("workers"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print(json.dumps({"fingerprint": fingerprint}))
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
