#!/usr/bin/env python3
"""Build and run the benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe and bin/dbreakd.exe with dune, runs one
workload, and prints its report; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
Exits non-zero, printing no result, when the checkout cannot be built
or the run fails.  See perfbench/NOTES.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("suite-miss", "replay-query", "service-fleet")
BUILD_TIMEOUT_S = 840
RUN_GRACE_S = 150  # on top of --seconds; the whole run stays under 180 s


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def stop_group(proc):
    """Terminate the run's process group (main.exe and any dbreakd it
    spawned) and wait until every member has exited."""
    try:
        os.killpg(proc.pid, signal.SIGTERM)
    except ProcessLookupError:
        return
    proc.wait()
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in 1..60", 2)

    for needed in ("dune-project", "lib", "bin/dbreakd.ml", "perfbench/dune"):
        if not os.path.exists(needed):
            fail("not at the root of a source checkout (missing %s)" % needed, 2)

    # The shared dune cache lives outside the checkout; build without it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe", "./bin/dbreakd.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=BUILD_TIMEOUT_S, env=env)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        fail("build failed")

    cmd = ["_build/default/perfbench/main.exe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dbreakd", "_build/default/bin/dbreakd.exe",
           "--out", "perfbench/out"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        fail("run did not finish in time")
    finally:
        stop_group(proc)
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail("run exited with code %d" % proc.returncode)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        fail("run printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has keys %s" % sorted(result))
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
