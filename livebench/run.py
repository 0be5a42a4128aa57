#!/usr/bin/env python3
"""Build and run the live DUFS benchmark.

    python3 livebench/run.py --workload md-churn --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds `coord_server` and `store_server` from
the workspace and the benchmark package in `livebench/` (into
$CARGO_TARGET_DIR, default `.bench_build`), then runs the benchmark with
every flag passed through. Durable state lives under `.bench_run/` and is
removed after each deployment; the traced run leaves its span dump there.
The last line of standard output is the JSON result. Build output goes to
standard error; a failed build exits non-zero without a result.
"""

import glob
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest():
    """A content hash of the sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for top in ("crates", "shims", "livebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    for name in ("Cargo.toml", "Cargo.lock"):
        with open(os.path.join(ROOT, name), "rb") as f:
            h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def revision():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return source_digest()


def cargo(args, env):
    """Run one cargo build with its output on stderr; exit on failure."""
    r = subprocess.run(["cargo"] + args, cwd=ROOT, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        sys.exit(r.returncode or 1)


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo(["build", "--release", "--offline", "-p", "dufs-coord", "-p", "dufs-store",
           "--bin", "coord_server", "--bin", "store_server"], env)
    cargo(["build", "--release", "--offline", "--manifest-path",
           os.path.join(HERE, "Cargo.toml")], env)
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "dufs-livebench"),
        *sys.argv[1:],
        "--coord-bin", os.path.join(release, "coord_server"),
        "--store-bin", os.path.join(release, "store_server"),
        "--run-root", os.path.join(ROOT, ".bench_run"),
        "--rev", revision(),
    ]
    # A termination request unwinds through the cleanup below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # Own process group, so every server the benchmark spawned goes down
    # with it whatever way it ends.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait()
    except BaseException:
        code = 1
        raise
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        # Run directories a killed benchmark could not remove itself.
        for d in glob.glob(os.path.join(ROOT, ".bench_run", f"{proc.pid}-*")):
            shutil.rmtree(d, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
