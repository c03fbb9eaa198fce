"""Lower-bound machinery: a greedy primal heuristic and the
relaxation-guided variable-fixation heuristic, each finished by a
first-improvement swap descent.

Both are deterministic (ties broken by lowest index) and cheap relative to
a single bound computation.  The primal heuristic runs once before the
search and inside every variable-fixation call; variable fixation runs at
every node that survives its bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Instance, Preprocessed, fix_variable, preprocess

PRIMAL = "primal"
VARFIX = "varfix"
BRANCH_LEAF = "branch_leaf"

EPSILON_SCHEDULE = tuple(0.1 * i for i in range(1, 10))
# rows of the swap scan evaluated at once; the first improving row is
# usually near the front, so a full k x n scan per swap is mostly wasted
SWAP_BLOCK = 16


@dataclass(frozen=True)
class Incumbent:
    x: np.ndarray
    value: int
    source: str


def _completion_sums(a: np.ndarray, free_mask: np.ndarray, need: int) -> np.ndarray:
    """For each free item j: weight of the `need` lightest free items != j.

    Entries for non-free items are meaningless.  Used to keep greedy choices
    completable to a full cardinality-k selection.
    """
    if need <= 0:
        return np.zeros_like(a)
    free_w = np.sort(a[free_mask])
    prefix = int(free_w[:need].sum())
    # if a_j is among the `need` lightest, swap it out for the next lightest
    return np.where(a <= free_w[need - 1], prefix - a + free_w[need], prefix)


def _swap_descent(C: np.ndarray, a: np.ndarray, b: int, selected: list[int]) -> list[int]:
    """First-improvement 1-out/1-in swaps to a fixed point.

    Swap order is lowest selected index first, lowest incoming index first.
    Row sums over the selected set are updated incrementally, and the pair
    scan goes through the selected items in blocks of `SWAP_BLOCK` rows,
    stopping at the first block that holds an improving swap.
    """
    n = len(a)
    in_sel = np.zeros(n, dtype=bool)
    in_sel[selected] = True
    weight = int(a[selected].sum())
    r = C[:, selected].sum(axis=1)
    diag = np.diag(C)
    while True:
        sel = np.nonzero(in_sel)[0]
        g = diag + 2 * r
        for lo in range(0, len(sel), SWAP_BLOCK):
            rows = sel[lo:lo + SWAP_BLOCK]
            # i -> j improves iff the gain of j w.r.t. S\{i} beats the loss of i
            better = g - 2 * C[rows] > (2 * r[rows] - diag[rows])[:, None]
            ok = better & ~in_sel & (a <= (b - weight + a[rows])[:, None])
            # argmax finds the first True in row-major order: lowest i, then j
            row, j = divmod(int(np.argmax(ok)), n)
            if ok[row, j]:
                break
        else:
            return sel.tolist()
        i = int(rows[row])
        in_sel[i] = False
        in_sel[j] = True
        weight += int(a[j] - a[i])
        r = r - C[:, i] + C[:, j]


def _to_incumbent(inst: Instance, selected, source: str) -> Incumbent:
    x = np.zeros(inst.n, dtype=np.int64)
    x[list(selected)] = 1
    return Incumbent(x, inst.objective(x), source)


def primal_heuristic(inst: Instance, prep: Preprocessed) -> Incumbent:
    """Greedy by objective gain per unit weight, then swap descent.

    Requires k <= k_max, so that the k lightest items fit.
    """
    if inst.k > prep.k_max:
        raise ValueError("infeasible cardinality; check preprocess first")
    n, k, a, b, C = inst.n, inst.k, inst.a, inst.b, inst.C
    diag = np.diag(C).astype(float)
    weight = 0
    in_sel = np.zeros(n, dtype=bool)
    r = np.zeros(n, dtype=C.dtype)  # row sums of C over the selection
    for need in range(k - 1, -1, -1):  # picks still to make after this one
        # a pick is legal only if the `need` lightest other free items still
        # fit beside it, so the lightest free item is always legal
        ok = ~in_sel & (_completion_sums(a, ~in_sel, need) <= b - weight - a)
        gains = diag + 2 * r
        ratio = np.where(a > 0, gains / np.where(a > 0, a, 1),
                         np.where(gains >= 0, np.inf, -np.inf))
        ratio = np.where(ok, ratio, -np.inf)
        j = int(np.argmax(ratio))
        in_sel[j] = True
        weight += int(a[j])
        r += C[:, j]
    selected = _swap_descent(C, a, b, np.flatnonzero(in_sel).tolist())
    return _to_incumbent(inst, selected, PRIMAL)


def varfix_heuristic(inst: Instance, prep: Preprocessed, x_frac: np.ndarray,
                     incumbent: Incumbent | None = None) -> Incumbent:
    """Fix low-fractional-value variables to zero at increasing thresholds,
    re-optimize the rest with the primal heuristic, and polish on the full
    instance.  Never returns worse than the incoming incumbent."""
    best = incumbent
    x_frac = np.asarray(x_frac, dtype=float)
    last = -1
    for eps in EPSILON_SCHEDULE:
        kept = x_frac >= eps
        free = np.flatnonzero(kept)
        if len(free) < inst.k:
            break  # reduced problem can no longer host k items
        if len(free) == last:
            continue  # the sets shrink as eps rises: the last one again
        last = len(free)
        sub = fix_variable(inst, np.flatnonzero(~kept), 0)
        sub_prep = preprocess(sub)
        if inst.k > sub_prep.k_max:
            continue
        sub_sel = np.nonzero(primal_heuristic(sub, sub_prep).x)[0]
        lifted = _swap_descent(inst.C, inst.a, inst.b, free[sub_sel].tolist())
        cand = _to_incumbent(inst, lifted, VARFIX)
        if best is None or cand.value > best.value:
            best = cand
    if best is None:
        best = primal_heuristic(inst, prep)
    return best
