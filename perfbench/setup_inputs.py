"""A workload's set-up: import smoothcode and write the workload's input files.

    python3 perfbench/setup_inputs.py WORKLOAD SEED SIZE OUT_DIR

run.py times this whole process, a fresh interpreter each time, as setup_s.
"""

import sys
from pathlib import Path

from workloads import write_inputs  # imports smoothcode, numpy included: part of set-up

if __name__ == "__main__":
    workload, seed, size, out = sys.argv[1:]
    write_inputs(workload, int(seed), size, Path(out))
