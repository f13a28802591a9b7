#!/usr/bin/env python3
"""Build the round benchmark from this checkout's sources, then run it.

    python3 roundbench/run.py --workload <paper-cnn|wide-sign1|bulyan-int8> \
        --seed <n> --seconds <s> --trace <0|1> [--smoke]

The build goes to $CARGO_TARGET_DIR/roundbench, or .bench_build/roundbench
when the variable is unset (a relative path is taken from the checkout
root). Build output goes to stderr; the benchmark's stdout passes through
unchanged, so its last line is the result JSON. The exit code is the
benchmark's, or 1 when the build fails (for instance in a directory that
holds the benchmark but not the library sources).
"""

import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "roundbench")
CONFIGURE_TIMEOUT_S = 300
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "roundbench")


def call(cmd, timeout, stdout):
    """Runs cmd in its own process group; on timeout kills the whole group
    and waits for it, so no compiler or benchmark process outlives us."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build():
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        if call(["cmake", "-S", BENCH_DIR, "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release", *generator],
                CONFIGURE_TIMEOUT_S, sys.stderr) != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if call(["cmake", "--build", out, "--target", "round_bench", "-j", jobs],
            BUILD_TIMEOUT_S, sys.stderr) != 0:
        return None
    return os.path.join(out, "round_bench")


def main():
    binary = build()
    if binary is None:
        print("roundbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return call([binary, *sys.argv[1:]], RUN_TIMEOUT_S, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
