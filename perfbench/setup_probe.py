"""Time one workload's set-up in a fresh interpreter and print the seconds.

Run by run.py: python3 perfbench/setup_probe.py <workload>
Set-up is importing the package and building, validating and warming the
workload's group tables, up to the first timed item.
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].setup()
print(time.perf_counter() - t0)
