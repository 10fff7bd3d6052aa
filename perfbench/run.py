#!/usr/bin/env python3
"""tlbsim benchmark entry point.

Builds the benchmark binary from the sources in this checkout (CMake,
RelWithDebInfo, into .bench_build/perfbench; a no-op when up to date) and
runs one workload:

    python3 perfbench/run.py --workload websearch_tlb --seed 1 \
        --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1). `--workload all` runs every workload
in BENCHMARK.json one after another, one process each. The exit code is
non-zero when the build fails, the sources are missing, or a correctness
check fails. See perfbench/README.md.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def fnv64(data, h=0xCBF29CE484222325):
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def source_digest():
    """FNV-64 over the paths and bytes of every file the binary is built
    from, so results name their code even where git is unavailable."""
    h = 0xCBF29CE484222325
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h = fnv64(os.path.relpath(path, ROOT).encode(), h)
                with open(path, "rb") as f:
                    h = fnv64(f.read(), h)
    return "%016x" % h


def git_revision():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("tlbsim sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_one(args, workload, envelope):
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--revision", envelope["git_revision"],
           "--source-digest", envelope["source_digest"]]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s exceeded %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        # Also on SIGTERM/SIGINT: never leave the driver running.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, on_sigterm)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: a few flows per workload (self-test only)")
    args = p.parse_args()
    if args.seconds < 1:
        fail("--seconds must be >= 1")

    build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    chosen = workloads if args.workload == "all" else [args.workload]
    for w in chosen:
        if w not in workloads:
            fail("unknown workload '%s' (have: %s)" % (w, ", ".join(workloads)))
    envelope = {"git_revision": git_revision(),
                "source_digest": source_digest()}
    rc = 0
    for w in chosen:
        rc = run_one(args, w, envelope) or rc
    sys.exit(rc)


if __name__ == "__main__":
    main()
