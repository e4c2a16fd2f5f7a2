#!/usr/bin/env python3
"""Build and run ftla-perfbench, the FT-LA end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload forkjoin-1gpu --seed 1 --seconds 25 --trace 0

The first run configures and builds the library and the benchmark from
the checkout's own sources (Release) into .bench_build, or into
$CARGO_TARGET_DIR when that is set; later runs rebuild only what changed.
Build output goes to <build dir>/perfbench-build.log, so standard output
carries only the benchmark's report, whose last line is the JSON result.

Arguments pass through to the binary (see perfbench/main.cpp). With
--trace 1 and no --trace-out, the Chrome trace of the benchmark's spans
is written to <build dir>/perfbench-trace-<workload>-<seed>.json.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The binary measures --seconds plus set-up and the traced pass; anything
# running this long is hung.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    log_path = os.path.join(build_dir, "perfbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "ftla-perfbench", "-j", jobs])
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "ftla-perfbench")


def option(args, name):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "core"))):
        fail("no FT-LA sources found in " + ROOT)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if option(args, "--trace") == "1" and option(args, "--trace-out") is None:
        name = "perfbench-trace-%s-%s.json" % (option(args, "--workload"), option(args, "--seed"))
        args += ["--trace-out", os.path.join(build_dir, name)]
    try:
        code = subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S, 3)
    sys.exit(code)


if __name__ == "__main__":
    main()
