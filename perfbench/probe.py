"""Child-process probes of one workload, run from the checkout root:

    python3 perfbench/probe.py setup <workload>
    python3 perfbench/probe.py reference <workload>

``setup`` imports vibrosim, compiles the program and prints
``time.monotonic()`` at that moment; the parent subtracts its own reading
taken just before it started this process, which gives process start to
compiled program.  ``reference`` solves the workload's reference once and
prints ``{"seconds": solve time, "p": populations}``.  Solving in a child
keeps the solver's large allocations out of the measuring process, whose
allocator state would otherwise change the timed runs.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports vibrosim)


def main(kind: str, name: str) -> None:
    wl = workloads.WORKLOADS[name]
    program, noise = wl.build()
    if kind == "setup":
        print(repr(time.monotonic()))
        return
    import refcheck
    t0 = time.perf_counter()
    p = refcheck.reference_populations(wl, program, noise)
    seconds = time.perf_counter() - t0
    print(json.dumps({"seconds": seconds, "p": p.tolist()}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
