"""Exactness sweep: small random draws solved and checked against the oracle.

    python3 tools/sweep.py [--draws N] [--checkout DIR]

Draw i (0 <= i < N) takes its numbers from ``numpy.random.default_rng(i)``
and its family from i mod 6: the generator's draws; b = b' (the weight of
the k lightest items); b = b' + 1; n = 2k; weights 1-3 (many ties);
profits 0-5 (many zeros).  n is 5-16 (even for n = 2k) and the
density one of 25/50/75/100.  In the two b' families a weight above b is
lowered to b, which keeps the k lightest items and max a_j <= b.  Every
draw passes ``instance.validate``.

Each draw is solved twice, with both branch-and-prune thresholds at 0 (so
the SDP bound, the face test and the fix rounds run) and with the defaults
of ``SolverConfig``, and each report is checked against
``oracle.enumerate_exact``: status optimal, the value the optimum, the
selection feasible and worth its value, ``root_bound`` and ``open_bound``
at or above the optimum and ``root_gap_percent`` at least 0.  The script
prints every failure and, per setting, how many draws close at the root
(one node), stop a bundle ``fixable`` and reach branch-and-prune, so that a
sweep which stops exercising a path shows it.  It exits 1 on any failure.
``--checkout`` imports ``kqkp`` from DIR/src instead of the checkout
holding this script.  The default 2000 draws took about 55 s on one core
of a 2-core x86-64 virtual machine.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAMILIES = ("generator", "b=b'", "b=b'+1", "n=2k", "weights 1-3", "profits 0-5")
DENSITIES = (25, 50, 75, 100)


def draw(i: int):
    """Draw ``i`` of the sweep: (family, instance)."""
    import numpy as np

    from kqkp.generator import GenSpec, generate
    from kqkp.instance import Instance, preprocess, validate

    rng = np.random.default_rng(i)
    family = FAMILIES[i % len(FAMILIES)]
    n = 2 * int(rng.integers(3, 9)) if family == "n=2k" else int(rng.integers(5, 17))
    ranges = {"weights 1-3": {"weight_range": (1, 3)},
              "profits 0-5": {"profit_range": (0, 5)}}.get(family, {})
    inst = generate(GenSpec(n, DENSITIES[int(rng.integers(4))],
                            int(rng.integers(2 ** 31)), **ranges))
    k, a, b = inst.k, inst.a, inst.b
    if family == "n=2k":
        k = n // 2
        b = max(b, preprocess(Instance(k, a, b, inst.C)).b_prime)
    elif family in ("b=b'", "b=b'+1"):
        b = preprocess(inst).b_prime + (family == "b=b'+1")
        a = np.minimum(a, b)
    return family, validate(Instance(k, a, b, inst.C))


def check(inst, rep, opt) -> list[str]:
    """What is wrong with the report ``rep`` of a solve of ``inst``, whose
    optimum is ``opt``."""
    wrong = []
    if rep.status != "optimal" or rep.best is None:
        return [f"status {rep.status}"]
    if rep.best.value != opt:
        wrong.append(f"value {rep.best.value} != optimum {opt}")
    if not inst.is_feasible(rep.best.x) or inst.objective(rep.best.x) != rep.best.value:
        wrong.append("selection infeasible or not worth its value")
    if not rep.root_bound >= opt:
        wrong.append(f"root_bound {rep.root_bound} < optimum {opt}")
    if not rep.open_bound >= opt:
        wrong.append(f"open_bound {rep.open_bound} < optimum {opt}")
    if not rep.root_gap_percent >= 0:
        wrong.append(f"root_gap_percent {rep.root_gap_percent} < 0")
    return wrong


def sweep(draws: int) -> tuple[list[str], dict]:
    """Solve and check draws 0..draws-1; returns the failures, one line
    each, and per setting a Counter of the paths the solves took."""
    from kqkp.bnb import SolverConfig, solve
    from kqkp.oracle import enumerate_exact

    settings = {"thresholds 0": SolverConfig(bnp_root_k=0, bnp_node_k=0),
                "defaults": SolverConfig()}
    failures, paths = [], {name: Counter() for name in settings}
    for i in range(draws):
        family, inst = draw(i)
        opt = enumerate_exact(inst).value
        for name, cfg in settings.items():
            rep = solve(inst, cfg)
            for wrong in check(inst, rep, opt):
                failures.append(f"draw {i} ({family}, n={inst.n} k={inst.k} b={inst.b}), "
                                f"{name}: {wrong}")
            count = paths[name]
            count["draws"] += 1
            count["closed at the root"] += rep.nodes == 1
            count["stopped fixable"] += rep.stats.get("stop_fixable", 0) > 0
            count["reached branch-and-prune"] += any(
                action.startswith("bnp_leaf") for *_, action in rep.node_trace)
    return failures, paths


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--draws", type=int, default=2000)
    p.add_argument("--checkout", type=Path, default=ROOT)
    args = p.parse_args(argv)
    # one BLAS thread, so the counts do not depend on how a multithreaded
    # BLAS splits its sums; numpy reads these when it is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    failures, paths = sweep(args.draws)
    for line in failures:
        print(line)
    for name, count in paths.items():
        print(f"{name:<13} " + ", ".join(f"{key} {value}" for key, value in count.items()))
    print(f"{len(failures)} failures in {args.draws} draws")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
