"""Time one benchmark set-up in a fresh interpreter.

Usage: PYTHONPATH=src python3 perfbench/setup_probe.py WORKLOAD SEED

Prints two numbers: the seconds spent importing rumorlab, building the
workload's specs and running one warm-up trial per spec (graph build and
worker start included), then the median of three host-speed probes taken
right after (see calibrate.py).  run.py starts several of these and reports
the median set-up time at the reference host speed.
"""

import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (imports rumorlab; the import is what is timed)

workloads.warm_up(workloads.build(sys.argv[1]), int(sys.argv[2]))
wall = time.perf_counter() - t0

import statistics  # noqa: E402

import calibrate  # noqa: E402

print(wall, statistics.median(calibrate.sample() for _ in range(3)))
