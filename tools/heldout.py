"""Held-out counts: fixed draws outside the benchmark, solved and counted.

    python3 tools/heldout.py [SET ...] [--checkout DIR]

SET is one of ``restart``, ``B``, ``D`` and ``roots`` (default: all four).
The three tree sets run ``bnb.solve`` with ``SolverConfig()`` (set D with
``time_limit_s=150``) on generator draws whose density is
(25, 50, 75, 100)[seed mod 4]; draws with k <= 10 are skipped, since they
go to branch-and-prune and run no IPM.  ``roots`` bounds six larger draws
with ``bnb.node_bound`` and ``bnb.ROOT_EVALS`` evaluations, as ``kqkp bound
--mode sdpmet`` does.  The counts are the solver's own (``ipm.COUNTS``):
a tree's are its report's ``stats``, a root's the counters' difference
over ``bnb.node_bound``.  IPM iterations and statuses are counted once per
``ipm.solve`` call, so a restarted solve that falls back to the cold start
counts once, with both attempts' iterations.

Per draw the script prints its status, value (or root bound), nodes, evals,
the items that the face test of ``bnb.solve`` fixed (``fixes``), IPM
iterations, the IPM calls that a bundle's target cut short (``cutoff``),
exact step lengths below the last rung of ``ipm.LADDER`` (``fallbacks``),
Cholesky tests (``chol``: the ladder's rungs and midpoints, the restart's
test of its shifted Z and the certificates, the face test's among them),
the IPM statuses other than ``optimal`` and ``cutoff`` and the bundle's
stop reasons (``stop_<reason>``); per set the totals and a digest of the
answers, so two checkouts compare line by line.  A tree's answer is
its status and value.  A root's is its bound to 4 significant digits, a
relative step of 1e-4 to 1e-3 by the leading digit, never finer than
``bundle.IPM_TOL`` = 1e-4, the accuracy of each evaluation, so that a
change of rounding alone leaves the digest as it is; a bound next to a
rounding boundary can still flip it.  It prints no times: run
both sides of a comparison on one machine, one after the other.  BLAS runs
on one thread.  ``--checkout`` imports ``kqkp`` from DIR/src instead of
the checkout holding this script; that checkout must have ``ipm.COUNTS``
and take the calls above with the same signatures, so compare across a
signature change by running each side's own copy of this script.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TREE_SETS = {
    # (n, seeds); the held-out set of the IPM restart
    "restart": [(40, (21, 22, 23, 24, 25, 26, 29, 30, 32)),
                (45, (20, 21, 22, 23, 26, 27)),
                (50, (40, 41, 42))],
    "B": [(50, (40, 41, 42, 46, 47, 48, 50, 51, 53, 54, 55, 56))],
    "D": [(45, (60, 61, 65, 68, 69, 70, 71, 72, 76, 77, 79)),
          (50, (61, 63, 67, 68, 70, 74, 75, 76, 78, 79))],
}
TIME_LIMIT = {"D": 150.0}
ROOTS = [(100, 50, 1), (100, 50, 3), (100, 25, 2), (80, 50, 5), (60, 25, 3), (60, 75, 7)]
DENSITIES = (25, 50, 75, 100)


# the counters that ``row`` prints in columns of their own, or not at all
COLUMNS = ("fixes", "iters", "optimal", "cutoff", "fallbacks", "chol", "restarted",
           "cold_reruns")


def row(label: str, answer: str, nodes: int, evals: int, counts: Counter) -> str:
    other = " ".join(f"{k}={v}" for k, v in sorted(counts.items()) if k not in COLUMNS)
    return (f"{label:<16} {answer:<26} nodes {nodes:>5} evals {evals:>5} "
            f"fixes {counts['fixes']:>5} "
            f"ipm_iters {counts['iters']:>6} cutoff {counts['cutoff']:>4} "
            f"fallbacks {counts['fallbacks']:>5} "
            f"chol {counts['chol']:>7} {other}").rstrip()


def run_set(name: str, bnb, generator, ipm) -> None:
    if name == "roots":
        draws = ROOTS
    else:
        draws = [(n, DENSITIES[s % 4], s) for n, seeds in TREE_SETS[name] for s in seeds]
    total, answers = Counter(), []
    nodes = evals = 0
    print(f"== {name}")
    for n, d, s in draws:
        inst = generator.generate(generator.GenSpec(n, d, s))
        if name != "roots" and inst.k <= 10:
            continue
        if name == "roots":
            before = ipm.COUNTS.copy()
            bound, _, used, *_ = bnb.node_bound(inst, float("-inf"), bnb.ROOT_EVALS)
            answer, drawn, counts = f"bound {bound:.2f}", 0, Counter(ipm.counts_since(before))
            hashed = f"bound {bound:.4g}"
        else:
            cfg = bnb.SolverConfig(time_limit_s=TIME_LIMIT.get(name, 10800.0))
            rep = bnb.solve(inst, cfg)
            value = rep.best.value if rep.best is not None else None
            answer, drawn, used = f"{rep.status} {value}", rep.nodes, rep.evals
            counts = Counter(rep.stats)
            hashed = answer
        label = f"n{n}_d{d}_s{s}"
        print(row(label, answer, drawn, used, counts), flush=True)
        answers.append(f"{label} {hashed}")
        total += counts
        nodes += drawn
        evals += used
    digest = hashlib.sha256("\n".join(answers).encode()).hexdigest()[:16]
    print(row(f"total {len(answers)}", f"digest {digest}", nodes, evals, total))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("sets", nargs="*", metavar="SET",
                   help="restart, B, D or roots (default: all)")
    p.add_argument("--checkout", type=Path, default=ROOT)
    args = p.parse_args(argv)
    names = args.sets or [*TREE_SETS, "roots"]
    for name in set(names) - {*TREE_SETS, "roots"}:
        p.error(f"unknown set {name!r}")
    # one BLAS thread, as perfbench runs, so the counts do not depend on
    # how a multithreaded BLAS splits its sums
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    from kqkp import bnb, generator, ipm

    for name in names:
        run_set(name, bnb, generator, ipm)
    return 0


if __name__ == "__main__":
    sys.exit(main())
