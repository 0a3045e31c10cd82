#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload mpc-closed --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds the
library sources under src/ together with the benchmark (Release, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench); later runs
only rebuild what changed. The benchmark binary prints a host
fingerprint line, detail lines, and as its last line one JSON object
with the keys correct, attempted, failed and metrics. The exit code is
the binary's: non-zero on any correctness miss or invalid run.

--selftest builds and runs the benchmark's own unit tests (needs GTest).
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mpc-closed", "mixed-open", "large-host")
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """Git commit when the checkout is a repository, else a digest of
    the library and benchmark sources (so builds of different code are
    told apart either way)."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return "git:" + r.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(target):
    for needed in ("src/CMakeLists.txt", "src/rsqp_api.hpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a checkout of the repository")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(out_root, "perfbench"))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-20000:])
            fail("build failed: " + " ".join(cmd), 1)
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        build_dir = build("perfbench_tests")
        return subprocess.run([os.path.join(build_dir, "perfbench_tests")]).returncode
    if args.workload is None:
        fail("--workload is required")
    if args.seed < 0:
        fail("--seed must be non-negative")

    build_dir = build("perfbench")
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-id", source_id(), "--trace-dir", build_dir]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
