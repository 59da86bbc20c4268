#!/usr/bin/env python3
"""Build and run the asrank end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain_medium --seed 42 --seconds 10 --trace 0

Workloads: chain_medium, publish_internet, updates_8k. The benchmark is a
Cargo package of its own (perfbench/Cargo.toml) that links the repository
crates by path; it is built in release mode into $CARGO_TARGET_DIR
(default .bench_build) and run with the given arguments. The last line of
standard output is the JSON result. Files the run writes go under
perfbench/.work/ (the RIB and cache are removed when the run ends; traced
runs leave their span file there).
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--locked", "--quiet",
            "--manifest-path", os.path.join(here, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "asrank-perfbench")
    run = subprocess.run(
        [exe, *sys.argv[1:], "--workdir", os.path.join(here, ".work")], env=env
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
