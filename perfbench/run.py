#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload trickle --seed 1 --seconds 10 --trace 0

The arguments are passed to the `perfbench` binary unchanged; its last
stdout line is the JSON result. Build output goes to stderr. Cargo's
target directory is `$CARGO_TARGET_DIR`, or `.bench_build` under the
current directory when that is unset. A failed build exits non-zero
without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.abspath(".bench_build"))
    # Keep cargo's own bookkeeping inside the build directory too.
    env["CARGO_HOME"] = os.path.join(env["CARGO_TARGET_DIR"], "cargo-home")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--locked",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    return subprocess.run([binary, *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
