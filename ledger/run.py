#!/usr/bin/env python3
"""Builds the d3t ledger from source and runs one benchmark workload.

    python3 ledger/run.py --workload paper_sweep|large_world|serve_socket \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The ledger package (ledger/CMakeLists.txt)
compiles the library under src/ and the ledger binary under ledger/src/
into $CARGO_TARGET_DIR/ledger (default .bench_build/ledger), then runs it.
Build output goes to standard error; the binary's report goes to standard
output, its last line one JSON object. The traced run
(--trace 1) also writes its spans, in Trace Event Format, to
<build dir>/spans/<workload>-seed<N>.json.

The exit status is the binary's: non-zero when the build fails or any
operation or output check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER = os.path.join(ROOT, "ledger")
# A run must end within 180 s; the runner stops the binary short of that.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "ledger")


def build():
    """Configures once, then (re)builds; returns the binary's path."""
    out = build_dir()
    # Compiler scratch files stay inside the checkout too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", LEDGER, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True, env=env,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], stdout=sys.stderr,
                   check=True, env=env, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "d3t_ledger")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as error:
        print(f"ledger build failed: {error}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--trace-out", os.path.join(
            spans, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        # subprocess.run kills and reaps the binary on a timeout.
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("ledger run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
