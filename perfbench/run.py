#!/usr/bin/env python3
"""Builds the benchmark from source (first call in a checkout) and runs one
workload of it.

    python3 perfbench/run.py --workload batch-sweep|serve-zipf \
        --seed N --seconds S --trace 0|1 [--serve-rate R]

Run from the root of a checkout. The Release build lives in .bench_build
(or $CARGO_TARGET_DIR when set, taken relative to the checkout root);
build output goes to stderr. The last line of stdout is the result
object; the exit code is the benchmark binary's (0 only when every
oracle check passed), or 2 when the build or arguments fail.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def source_revision():
    """Digest of the library and benchmark sources: the checkout is not
    necessarily a git repository, so a content hash stands in for a rev."""
    digest = hashlib.sha256()
    for top in (SRC, HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(SRC, "CMakeLists.txt")):
        sys.stderr.write("run.py: no library sources at %s\n" % SRC)
        return None
    out = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [["cmake", "--build", out, "-j", jobs, "--target", "ripki_bench"]]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            sys.stderr.write("run.py: build step failed: %s\n" % error)
            return None
        if done.returncode != 0:
            sys.stderr.write("run.py: build step exited %d\n" % done.returncode)
            return None
    binary = os.path.join(out, "ripki_bench")
    return binary if os.path.isfile(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["batch-sweep", "serve-zipf"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--serve-rate", type=float, default=20000.0,
                        help="open-loop arrival rate of serve-zipf (requests/s)")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--serve-rate", repr(args.serve_rate), "--rev", source_revision()]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        sys.stderr.write("run.py: benchmark exceeded %d s\n" % RUN_TIMEOUT_S)
        return 2


if __name__ == "__main__":
    sys.exit(main())
