"""Time one cold set-up of a workload in a fresh interpreter.

    python3 benchmarks/setup_probe.py <workload> <seed> <src-dir>

Set-up is the imports plus model, initial-state, solver-config and monitor
construction for every run of the workload.  Prints {"setup_s": seconds}.
"""

import json
import sys
import time

started = time.perf_counter()
sys.path.insert(0, sys.argv[3])
import workloads  # noqa: E402 - timed from before the first import

workloads.make(sys.argv[1], int(sys.argv[2])).prepare()
print(json.dumps({"setup_s": time.perf_counter() - started}))
