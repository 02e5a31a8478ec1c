"""Write one workload's seeded inputs into a directory.

    python3 perfbench/generate.py --workload NAME --scale full|tiny --seed N --out DIR

``run.py`` calls this in a child process, so the generator's memory
never shows in the measured process's peak RSS.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from dpbench import inputs
    from dpbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="perfbench/generate.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    inputs.generate(args.out, workload.kind, workload.shape(args.scale), args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
