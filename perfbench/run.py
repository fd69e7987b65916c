#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the repository root.

    python3 perfbench/run.py --workload serve-point-read --seed 1 \
        --seconds 20 --trace 0

Builds perfbench/perfbench.exe and bin/datalog_serve.exe with dune (build
output goes to stderr), then runs the load generator, whose standard output
ends with the one-line JSON result.  Exits non-zero when the run fails its
checks or overruns its time limit, and without a result when the build
fails.  `--workload all` runs every workload of BENCHMARK.json in turn and
exits non-zero if any of them does.
"""

import json
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
OUT_DIR = "_perfbench"
TARGETS = ["./perfbench/perfbench.exe", "./bin/datalog_serve.exe"]


def build():
    cmd = ["dune", "build", "--root", ".", "--cache=disabled", *TARGETS]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    if r.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
    return r.returncode == 0


def run(args):
    exe = os.path.join("_build", "default", "perfbench", "perfbench.exe")
    server = os.path.join("_build", "default", "bin", "datalog_serve.exe")
    cmd = [exe, *args, "--server", server, "--out", OUT_DIR]
    # own process group, so a timeout takes the server child down too
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def main():
    # a SIGTERM unwinds through run()'s finally, which kills the group
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not build():
        return 1
    args = sys.argv[1:]
    i = args.index("--workload") + 1 if "--workload" in args else len(args)
    if i >= len(args) or args[i] != "all":
        return run(args)
    with open("BENCHMARK.json") as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    status = 0
    for name in names:
        print(f"== {name}", flush=True)
        args[i] = name
        if run(args) != 0:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
