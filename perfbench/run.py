#!/usr/bin/env python3
"""Build the benchmark, then run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload <fig_scale_full|sim_sweep|serve_replay> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
builds against the repository's crates by path. Cargo output goes to
stderr, so the benchmark's result line stays the last line of stdout.
Exits non-zero without printing a result if the build fails.

The benchmark process runs without any `SPT_*` variable, so no runtime
toggle of the system (for example SPT_ARENA or SPT_REGFILE) can switch it
onto a fallback path. The ones found set are handed over, one `K=V` a
line, in PERFBENCH_CALLER_SPT_ENV, and the benchmark records them.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(os.path.abspath(target), "release", "perfbench")
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPT_")}
    found = sorted((k, v) for k, v in os.environ.items() if k.startswith("SPT_"))
    env["PERFBENCH_CALLER_SPT_ENV"] = "".join(f"{k}={v}\n" for k, v in found)
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
