#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/main.exe from source with
dune (only the benchmark and the libraries it links), then runs it with the
same arguments. The benchmark's standard output passes through unchanged;
its last line is the JSON result. Exits non-zero, printing no result, when
the checkout holds no Blockplane sources, the build fails, or the run fails.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg, code=2):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(code)


def main():
    args = sys.argv[1:]
    for required in ("dune-project", os.path.join("lib", "core", "api.ml")):
        if not os.path.exists(required):
            fail("no %s here: run from the root of a Blockplane checkout" % required)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/main.exe"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build did not finish: %s" % e, 1)
    if build.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(build.stdout.decode(errors="replace"))
        sys.stderr.write(build.stderr.decode(errors="replace"))
        fail("build failed", 1)
    proc = subprocess.Popen([EXE] + args)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
