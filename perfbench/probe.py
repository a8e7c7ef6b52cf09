"""Set-up probe: a fresh process that imports grwlab and builds one
workload's inputs, then prints ``ready``.  run.py times it from spawn to that
line for ``setup_s``.

Usage: python3 perfbench/probe.py <workload> <seed>
"""

import sys

import checkout

if __name__ == "__main__":
    checkout.use_checkout()
    import workloads

    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.WORKLOADS[name](checkout.ROOT, checkout.OUT, seed).prepare(0)
    print("ready", flush=True)
