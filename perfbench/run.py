"""vibrosim benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload coherent-fock8 --seed 0 \\
        --seconds 10 --trace 0

Prints every metric by name with its unit, one ``{"report": ...}`` line
(environment, sizes, every run and its check) and, last, the result line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives the
end-to-end metrics, ``--trace 1`` the per-layer ones.  Exits 2 when the
checkout has no ``src/vibrosim``.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "vibrosim" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'vibrosim'} not found; run from a "
              "vibrosim checkout", file=sys.stderr)
        return 2
    # one process, one thread: the engine's default threads=1, and a
    # single-threaded BLAS (set before numpy loads; set-up probes inherit it)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import bench
    return bench.main(args)


if __name__ == "__main__":
    sys.exit(main())
