#!/usr/bin/env python3
"""Build the system under test from this checkout and run one benchmark run.

Usage, from the root of the checkout:

    python3 perfbench/run.py --workload scan|ingest|routed|reason|all \
        [--seed N] [--seconds S] [--trace 0|1]

It builds cindserve (./cmd/cindserve) and the perfbench load generator
(./perfbench) with the checkout's own Go toolchain settings, keeping the
build cache, binaries and every file a run writes under .bench_build/, and
then runs the load generator: once, or once per workload for "all". The
last line of a run's output is its JSON result; the exit status is non-zero
when the build fails, a run fails, or any operation returned a wrong
answer. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time

WORKLOADS = ("scan", "ingest", "routed", "reason")
# Each run must end within 180s; the build has its own, longer allowance
# because the first one in a fresh checkout compiles the standard library.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def source_id(root):
    """Identify the tree under test: the git commit when there is one, else
    a digest of every Go source and module file outside .bench_build."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build(root, out_dir, env):
    steps = [
        (root, ["go", "build", "-o", os.path.join(out_dir, "cindserve"), "./cmd/cindserve"]),
        (os.path.join(root, "perfbench"), ["go", "build", "-o", os.path.join(out_dir, "perfbench"), "."]),
    ]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cwd, cmd in steps:
        try:
            subprocess.run(cmd, cwd=cwd, env=env, check=True, stdout=sys.stderr,
                           timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build failed: {' '.join(cmd)}: {e}", file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    state = os.path.join(root, ".bench_build")
    bin_dir = os.path.join(state, "bin")
    tmp = os.path.join(state, "tmp")
    for d in (bin_dir, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=os.path.join(state, "gocache"),
               GOPATH=os.path.join(state, "gopath"),
               GOTMPDIR=tmp,
               TMPDIR=tmp,
               GOTOOLCHAIN="local",
               GOFLAGS="",
               GOWORK="off",
               GOENV="off",
               # The go command keeps its config and telemetry under the
               # user config dir; keep those inside the checkout too.
               XDG_CONFIG_HOME=os.path.join(state, "config"))
    if not build(root, bin_dir, env):
        return 2

    worst = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        cmd = [os.path.join(bin_dir, "perfbench"),
               "-cindserve", os.path.join(bin_dir, "cindserve"),
               "-work", os.path.join(state, "run"),
               "-workload", workload,
               "-seed", str(args.seed),
               "-seconds", str(args.seconds),
               "-trace", str(args.trace),
               "-commit", source_id(root)]
        worst = max(worst, run(cmd, root, env))
    return worst


def run(cmd, root, env):
    proc = subprocess.Popen(cmd, cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The load generator's servers die with it (they are started with a
        # parent-death signal), so killing it stops every process of the run.
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130

if __name__ == "__main__":
    sys.exit(main())
