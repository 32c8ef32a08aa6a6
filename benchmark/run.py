"""Benchmark entry point: run one workload of swelab in a fresh process.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout.  The workload runs in a child
interpreter with ``src`` on its import path, every BLAS/OpenMP pool pinned
to one thread and glibc's mmap threshold fixed.  The last line of standard
output is the result as one JSON object; the exit code is the child's, or 3
if it ran too long.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170

SINGLE_THREAD = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


def main():
    if not (ROOT / "src" / "swelab" / "__init__.py").is_file():
        print(f"no swelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # glibc's mmap threshold, fixed at the largest value its dynamic
    # threshold reaches on 64-bit hosts.  Left dynamic, the threshold follows
    # the order of earlier frees, and peak RSS varied by ±2 % between runs
    # of the same work; fixed at the 128 KiB it starts from, every solve
    # mapped and faulted in fresh pages, and steps ran 15 % slower.
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 * 1024 * 1024)
    cmd = [sys.executable, str(HERE / "bench.py"), *sys.argv[1:]]
    with subprocess.Popen(cmd, env=env, cwd=ROOT) as child:
        try:
            return child.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print(f"workload did not finish within {TIMEOUT_S} s", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
