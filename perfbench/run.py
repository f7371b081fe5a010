#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense_scan --seed 1 --seconds 15 --trace 0

The Go build cache, the binary and the traced run's spans and CPU profile
all go to .bench_build/ in the checkout. Arguments pass through to the
benchmark binary; see perfbench/README.md.
"""
import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "go.mod")):
        sys.stderr.write("perfbench: no go.mod next to perfbench/; run from a full checkout\n")
        return 2
    build = os.path.join(root, ".bench_build")
    os.makedirs(os.path.join(build, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
    )
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return built.returncode
    args = sys.argv[1:] + ["--out", os.path.join(build, "traces")]
    return subprocess.run([exe] + args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
