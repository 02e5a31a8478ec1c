"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dpstyler checkout.  Measures the package under
``src/`` of that checkout (never an installed copy), with the BLAS
thread count fixed before NumPy loads, and prints one JSON result as
the last line of standard output.  ``--workload all`` runs every
workload, each in its own process.
"""

import os
import sys

# One BLAS thread on both sides of every comparison: at OpenBLAS's
# default of one thread per core, training burns twice the CPU time for
# the same wall time on a 2-core machine, and contends with the loop.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "dpstyler", "__init__.py")):
        print(f"benchmark error: no dpstyler sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from dpbench import bench

    return bench.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
