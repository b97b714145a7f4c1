#!/usr/bin/env python3
"""Builds and runs the CCAL wall-clock benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload engine-contended --seed 1 --seconds 25 --trace 0

Workloads: engine-contended, certd-sharded (see perfbench/README.md). The
script refuses to measure while any CCAL_* variable is set, builds `ccal-certd` (the program's own workspace) and the
`ccal-perfbench` binary (its own package) with cargo into CARGO_TARGET_DIR
(default `.bench_build`), prints an environment record (nproc, commit,
source digest, toolchain), and runs `ccal-perfbench`, whose last line of
standard output is the result object.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("engine-contended", "certd-sharded")
# A run is stopped after this long, so that a hung daemon or shard cannot
# keep it alive.
RUN_TIMEOUT_S = 170
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DIGEST_PATHS = ("Cargo.toml", "Cargo.lock", "crates", "src", "perfbench")
SKIP_DIRS = {"target", ".git", ".bench_build", ".bench_run"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the sources that make up the measured program."""
    h = hashlib.sha256()
    for top in DIGEST_PATHS:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def first_line(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
        return out.strip().splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        return None


def build(env):
    steps = (
        ["cargo", "build", "--release", "--offline", "--locked", "-p", "ccal-certd", "--bin", "ccal-certd"],
        ["cargo", "build", "--release", "--offline", "--locked", "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
    )
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    # Each CCAL_* variable silently switches an engine path; parent and
    # change would then measure different programs.
    ccal = sorted(k for k in os.environ if k.startswith("CCAL_"))
    if ccal:
        fail(f"refusing to measure with {', '.join(ccal)} set")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(env)

    record = {
        "nproc": len(os.sched_getaffinity(0)),
        "commit": first_line(["git", "rev-parse", "HEAD"]) or "none (not a git checkout)",
        "source_digest": source_digest(),
        "rustc": first_line(["rustc", "--version"]),
        "cargo": first_line(["cargo", "--version"]),
    }
    print("environment: " + json.dumps(record), flush=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = spec["per_layer" if args.trace == "1" else "end_to_end"]

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "ccal-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--certd", os.path.join(release, "ccal-certd"),
        "--out", ".bench_run",
        "--metrics", ",".join(f"{m['name']}:{m['unit']}" for m in metrics),
    ]
    # A session of its own, so a timeout can stop ccal-perfbench together
    # with the daemon and shard it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
