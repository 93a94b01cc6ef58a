"""Cold set-up of one workload, timed inside a fresh interpreter.

Usage: ``PYTHONPATH=src python3 perfbench/setup_probe.py <workload>``
from the root of the repository; ``run.py`` runs it so. Prints
``{"setup_s": <seconds>}``: the time to import ``repro`` and build the
workload's SoC(s), runtime(s) and accelerator models, up to the first
simulated event. Input generation is excluded.
"""

import json
import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import workloads   # imports repro

    workloads.SETUP[sys.argv[1]]()
    print(json.dumps({"setup_s": time.perf_counter() - start}))
