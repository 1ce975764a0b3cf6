#!/usr/bin/env python3
"""Build `cal-check`, `cal-serve` and the benchmark in release mode, then
run one measurement.

Run from the repository root:

    python3 perfbench/run.py --workload batch-kv --seed 1 --seconds 10 --trace 0

Cargo's output goes to standard error. Standard output is the
benchmark's: a report line with the run's stamp, then the result line.
Build products land in `$CARGO_TARGET_DIR` (default `target`); inputs,
reports and spans in `$CARGO_TARGET_DIR/perfbench/<workload>/`.
"""

import hashlib
import json
import os
import subprocess
import sys

# What the binaries under test are built from.
SOURCES = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor"]


def source_sha256():
    """Hash of every source file the binaries are built from, so a run in
    a checkout without git history still names the code it timed."""
    digest = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else [
            os.path.join(d, f)
            for d, dirs, files in os.walk(top)
            if "target" not in d.split(os.sep)
            for f in files
        ]
        for path in sorted(paths):
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def output(cmd):
    """A command's trimmed standard output, or None if it fails."""
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return r.stdout.strip()


def git_revision():
    # Only this checkout's own history counts, not an enclosing repository's.
    if output(["git", "rev-parse", "--show-toplevel"]) != os.getcwd():
        return None
    return output(["git", "rev-parse", "HEAD"])


def main():
    target = os.environ.get("CARGO_TARGET_DIR", "target")
    builds = [
        ["cargo", "build", "--release", "--offline", "--bin", "cal-check", "--bin", "cal-serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    stamp = {
        "host_cores": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "source_sha256": source_sha256(),
        "rustc": output(["rustc", "--version"]),
        "profile": "release",
    }
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--bin-dir", release,
        "--out-dir", os.path.join(target, "perfbench"),
        "--stamp", json.dumps(stamp),
    ]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
