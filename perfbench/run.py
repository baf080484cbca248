#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload tables-full16 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py compare a.json b.json

Every build product, the Go build cache and the benchmark's records and
temporary files stay under .bench_build/ in the checkout. Where the
system allows it, the benchmark runs in a private mount namespace with
a tmpfs mounted on .bench_build/tmpfs for its temporary files (the
serve store, the scale cell's trace), so the run does not wait on the
disk's fsync; the mount is gone when the run ends, and the record names
the filesystem used. The exit code is the benchmark's; a failed build
exits non-zero without a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
TMPFS = os.path.join(BUILD, "tmpfs")
MOUNT = ["mount", "-t", "tmpfs", "-o", "size=1g,mode=0700", "perfbench"]


def private_tmpfs():
    """Return the command prefix that runs a program with a private tmpfs
    on TMPFS, or None where mount namespaces or tmpfs are not available."""
    os.makedirs(TMPFS, exist_ok=True)
    try:
        probe = subprocess.run(["unshare", "-m"] + MOUNT + [TMPFS],
                               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except OSError:
        return None
    if probe.returncode != 0:
        return None
    return ["unshare", "-m", "sh", "-c", " ".join(MOUNT) + ' "$0" && exec "$@"', TMPFS]


def main():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTOOLCHAIN="local",
        GOENV="off",
        GOFLAGS="",
    )
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    args = sys.argv[1:]
    cmd = [binary] + args
    if not args or args[0] != "compare":
        cmd += ["--root", ROOT, "--out", os.path.join(BUILD, "perfbench-out")]
        prefix = private_tmpfs()
        if prefix:
            cmd = prefix + cmd + ["--tmp", TMPFS]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
