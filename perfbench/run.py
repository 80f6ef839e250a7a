#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/nsrbench.exe with dune inside the checkout (its shared
cache disabled, so nothing is written outside it), runs it with the same
arguments, and passes its output through. The last line of stdout is the
benchmark's JSON result; build output goes to stderr. Exits non-zero,
without a result, when the checkout holds no buildable tree.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "nsrbench.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    """Run [cmd] to completion, or kill it and its children at [timeout];
    return its exit code."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {cmd[0]} exceeded {timeout} s", file=sys.stderr)
        return 124


def main():
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: no {needed} in {ROOT}; nothing to build", file=sys.stderr)
            return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    code = run(
        ["dune", "build", "--root", ROOT, "./perfbench/nsrbench.exe"],
        BUILD_TIMEOUT_S,
        env=env,
        stdout=sys.stderr,
    )
    if code != 0:
        print(f"perfbench: build failed ({code})", file=sys.stderr)
        return code
    sys.stdout.flush()
    return run([EXE] + sys.argv[1:], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
