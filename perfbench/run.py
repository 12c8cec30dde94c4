#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is its own Cargo package
(perfbench/Cargo.toml) that depends on the workspace crates by path; it is
built in release mode into $CARGO_TARGET_DIR (default: .bench_build at the
repository root). Cargo's output goes to standard error, so the last line
of standard output is the benchmark's JSON result. A failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")


def build():
    """Build the release binary; return its path, or None on failure."""
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        # Cargo reads .cargo/config.toml from the working directory, so
        # build from the root like the workspace's own binaries.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=900)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"perfbench: build failed with code {done.returncode}", file=sys.stderr)
        return None
    return os.path.join(target, "release", "perfbench")


def main():
    exe = build()
    if exe is None:
        return 1
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
