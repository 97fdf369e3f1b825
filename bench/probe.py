"""Set up one workload in a fresh interpreter, then print `ready`.

run.py times this script from spawn to `ready` to measure setup_s:
importing accwave plus making the workload's inputs.

    python3 bench/probe.py WORKLOAD SEED RUN_DIR
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from accwave import cli  # noqa: E402,F401  (the import is part of set-up)

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, run_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.WORKLOADS[name].setup(seed, run_dir)
    print("ready", flush=True)
