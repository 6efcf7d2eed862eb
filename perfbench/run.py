#!/usr/bin/env python3
"""Build and run the benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload corpus_batch --seed 1 --seconds 15 --trace 0

Builds perfbench/perfbench.exe and bin/daenerys.exe with dune, then runs
the benchmark and relays its output; the last line of standard output is
the result object. Exits non-zero, without a result, when the checkout
cannot be built.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

WORKLOADS = ("corpus_batch", "suite_theory", "daemon_edit")
BUILD_TIMEOUT_S = 850
RUN_GRACE_S = 100


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except BaseException as e:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(e, subprocess.TimeoutExpired):
            fail("%s timed out after %ds" % (cmd[0], timeout))
        raise


def source_digest():
    """MD5 over the sources that are built, for the provenance stamp."""
    h = hashlib.md5()
    for top in ("lib", "bin", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    path = os.path.join(root, f)
                    h.update(path.encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def git_commit():
    # Only this checkout's own history counts, never an enclosing repository's.
    if not os.path.exists(".git"):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be between 1 and 60")

    for need in ("dune-project", "lib", "bin/daenerys.ml", "examples"):
        if not os.path.exists(need):
            fail("run from the root of a source checkout (no %s here)" % need)

    build = ["dune", "build", "--root", ".", "perfbench/perfbench.exe",
             "bin/daenerys.exe"]
    if run_group(build, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
        fail("build failed")

    # Pin the benchmark, and the daemon it spawns, to one CPU: a request's
    # hand-offs between client, daemon loop and worker are then context
    # switches on one core instead of wake-ups across cores, whose cost on a
    # shared virtual machine follows the host's load. The highest CPU is
    # taken because the first one serves most device interrupts.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    env = dict(os.environ, PERFBENCH_COMMIT=git_commit(),
               PERFBENCH_SOURCE_DIGEST=source_digest(),
               PERFBENCH_NPROC=str(len(cpus)), PERFBENCH_CPU=str(max(cpus)))
    cmd = ["_build/default/perfbench/perfbench.exe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daenerys", "_build/default/bin/daenerys.exe",
           "--examples", "examples", "--workdir", ".perfbench"]
    sys.stdout.flush()
    sys.exit(run_group(cmd, args.seconds + RUN_GRACE_S, env=env))


if __name__ == "__main__":
    main()
