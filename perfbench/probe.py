"""Set-up probe: build one workload's inputs in a fresh process.

    python3 perfbench/probe.py WORKLOAD SEED WORKDIR

with the checkout's ``src`` on PYTHONPATH.  Prints the monotonic clock once
the inputs and operators are built, then the path gmcreg was imported from.
``run.py`` starts the clock before it starts this process, so the difference
covers interpreter start, imports and the workload's set-up.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (imports gmcreg)

workloads.make(sys.argv[1], int(sys.argv[2]), os.path.dirname(HERE), sys.argv[3])
print(time.monotonic(), workloads.G.__file__)
