"""Set-up probe: import fdrelay, make one warm-up call of a workload, exit.

run.py starts this script several times per run and reports the process's
wall time, scaled by the reference kernel, as ``setup_s``, so work moved
into import time or first-call set-up shows there.  After the warm-up the
probe times the reference kernel on its own CPU and prints, as JSON, the
kernel's time (``kernel_s``) and the time the probe spent on the kernel
(``kernel_total_s``).

usage: python3 perfbench/setup_probe.py <workload> <seed> <out_dir>
"""

import json
import os
import sys

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    import workloads

    name, seed, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.make_workload(name, seed, out_dir).warm_up()

    import time

    import reference

    start = time.perf_counter()
    kernel = reference.ReferenceKernel()
    kernel_s = kernel()
    print(json.dumps({"kernel_s": kernel_s, "kernel_total_s": time.perf_counter() - start}))
