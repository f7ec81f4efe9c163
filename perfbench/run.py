#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload browse --seed 1 --seconds 20 --trace 0

The Go build cache, temporary build files and the binary all go under
.bench_build/ in the working directory, so a run writes only inside the
checkout. Build output goes to standard error; standard output is the
benchmark's own, whose last line is the JSON result. A failed build
exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"),
                     ("GOPATH", "gopath"), ("XDG_CONFIG_HOME", "config")):
        env[var] = os.path.join(build, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOFLAGS="", GOWORK="off", GOPROXY="off", GOTOOLCHAIN="local")
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src,
                           env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
