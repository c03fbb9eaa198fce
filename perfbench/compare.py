"""Compare two result files written by run.py, metric by metric.

    python3 perfbench/compare.py perfbench/_work/A.json perfbench/_work/B.json

Prints each metric of both results with the change from A to B.  Counts and
times depend on the BLAS thread count, so when the two environments differ
in cores, OPENBLAS_NUM_THREADS or the thread count of either OpenBLAS copy,
it says so on stderr and exits 3.
"""

from __future__ import annotations

import json
import sys

ENV_KEYS = ("cores", "cpus_usable", "OPENBLAS_NUM_THREADS", "blas_threads")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(open(path).read()) for path in argv)
    for name in sorted(a["metrics"].keys() & b["metrics"].keys()):
        va, vb = a["metrics"][name], b["metrics"][name]
        change = f"{(vb - va) / va:+.1%}" if va else "n/a"
        print(f"{name:<34} {va:>14.6g} {vb:>14.6g} {change:>8}")
    differs = [k for k in ENV_KEYS if a["environment"].get(k) != b["environment"].get(k)]
    if a["workload"] != b["workload"]:
        differs.insert(0, "workload")
    if differs:
        print("NOT COMPARABLE: the results differ in " + ", ".join(differs), file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
