#!/usr/bin/env python3
"""Build the lepts benchmark from source and run one workload, or all.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a lepts checkout. It builds perfbench/bench.exe
with dune (into _build/), then runs it with the same arguments plus the
run context it cannot see itself: the online CPU count and the source
commit. Working files and span dumps go to .perfbench/. The last line
of standard output is the benchmark's JSON result; a failed build or
output check exits non-zero without printing one.

NAME `all` runs fig6a-sweep, large-plan-solve, serve-cold and serve-hot
in turn, each printing its own result, and fails if any of them fails.
"""

import os
import subprocess
import sys

WORKLOADS = ["fig6a-sweep", "large-plan-solve", "serve-cold", "serve-hot"]


def commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none (not a git checkout)"
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
    )
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    root = os.getcwd()
    if not (
        os.path.isfile(os.path.join(root, "dune-project"))
        and os.path.isdir(os.path.join(root, "lib"))
    ):
        print("perfbench: run from the root of a lepts checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join(root, "_build", "default", "perfbench", "bench.exe")
    context = [
        "--nproc", str(len(os.sched_getaffinity(0))),
        "--commit", commit(root),
        "--out", ".perfbench",
    ]
    args = sys.argv[1:]
    if "--workload" in args and args[args.index("--workload") + 1 :][:1] == ["all"]:
        i = args.index("--workload")
        runs = [args[:i] + ["--workload", w] + args[i + 2 :] for w in WORKLOADS]
    else:
        runs = [args]
    status = 0
    for run_args in runs:
        sys.stdout.flush()
        rc = subprocess.run([exe] + run_args + context, env=env).returncode
        status = status or rc
    return status


if __name__ == "__main__":
    sys.exit(main())
