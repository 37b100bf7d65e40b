"""Time one workload's set-up in a fresh interpreter.

    python perfbench/setup_probe.py WORKLOAD

Prints the seconds taken by the ballobs imports plus the construction of the
workload's problems, i.e. what a process pays before its first timed call.
The caller puts ``src`` on PYTHONPATH.
"""

import sys
import time

import workloads

start = time.perf_counter()
workloads.WORKLOADS[sys.argv[1]].build()
print(time.perf_counter() - start)
