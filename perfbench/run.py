#!/usr/bin/env python3
"""Build the benchmark from source, then run it in place of this script.

Run from the repository root:

    python3 perfbench/run.py --workload table2_mc --seed 1 --seconds 25 --trace 0

Every argument is passed to perfbench/mcxbench.exe (see mcxbench.ml for
the options). Build output goes to standard error, so the last line of
standard output is the benchmark's result.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "mcxbench.exe")


def main() -> int:
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            sys.stderr.write(
                f"run.py: {needed} not found; run from the root of a repository checkout\n"
            )
            return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/mcxbench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        sys.stderr.write("run.py: building the benchmark failed\n")
        return 2
    sys.stdout.flush()
    os.execv(EXE, [EXE] + sys.argv[1:])
    return 2  # not reached: execv replaces this process


if __name__ == "__main__":
    sys.exit(main())
