"""Set-up probe: time a fresh interpreter's import of neseek plus one
workload's scenario load (or generation and load), and print the seconds.

Usage, from the repository root: python3 bench/probe.py WORKLOAD SEED WORK_DIR
"""

import sys
import time
import warnings
from pathlib import Path


def main() -> None:
    name, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    bench = Path(__file__).resolve().parent
    sys.path[:0] = [str(bench.parent / "src"), str(bench)]
    start = time.perf_counter()
    import neseek  # noqa: F401  (the import is part of set-up)
    from workloads import WORKLOADS

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        WORKLOADS[name].prepare(seed, work)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
