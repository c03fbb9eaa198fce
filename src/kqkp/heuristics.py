"""Lower-bound machinery: greedy + local-search primal heuristic and the
relaxation-guided variable-fixation heuristic.

Both are deterministic (ties broken by lowest index) and cheap relative to
a single bound computation, so they run at every node that survives
pruning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import TRIVIAL_K1, Instance, Preprocessed, preprocess

PRIMAL = "primal"
VARFIX = "varfix"
BRANCH_LEAF = "branch_leaf"

EPSILON_SCHEDULE = tuple(0.1 * i for i in range(1, 10))


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
    n = len(a)
    if need <= 0:
        return np.zeros(n)
    free_w = np.sort(a[free_mask])
    if len(free_w) <= need:
        # a free j leaves at most need - 1 other free items
        return np.full(n, np.inf)
    prefix = int(free_w[:need].sum())
    threshold = free_w[need - 1]
    # if a_j is among the `need` lightest, swap it out for the next lightest
    out = np.where(a <= threshold, prefix - a + free_w[need], prefix)
    return out.astype(float)


def _swap_descent(C: np.ndarray, a: np.ndarray, b: int, selected: list[int]) -> list[int]:
    """First-improvement 1-out/1-in swaps to a fixed point.

    Swap order is lowest selected index first, lowest incoming index first.
    Row sums over the selected set are updated incrementally, so each swap
    costs O(kn) for the vectorized pair scan and O(n) for the update.
    """
    n = len(a)
    in_sel = np.zeros(n, dtype=bool)
    in_sel[selected] = True
    weight = int(a[selected].sum())
    r = C[:, selected].sum(axis=1)
    diag = np.diag(C)
    while True:
        sel = np.nonzero(in_sel)[0]
        # delta(i -> j) = gain of j w.r.t. S\{i} minus loss of i
        D = (diag + 2 * r)[None, :] - 2 * C[sel, :] \
            - (2 * r[sel] - diag[sel])[:, None]
        ok = (D > 0) & (~in_sel)[None, :] \
            & (weight - a[sel][:, None] + a[None, :] <= b)
        rows = ok.any(axis=1)
        if not rows.any():
            return sel.tolist()
        row = int(np.argmax(rows))
        i = int(sel[row])
        j = int(np.argmax(ok[row]))
        in_sel[i] = False
        in_sel[j] = True
        weight += int(a[j] - a[i])
        r = r - C[:, i] + C[:, j]


def _fill_up(C: np.ndarray, a: np.ndarray, b: int, k: int,
             selected: list[int]) -> bool:
    """Add the best-gain item while below cardinality; True if one was added."""
    n = len(a)
    if len(selected) >= k:
        return False
    in_sel = np.zeros(n, dtype=bool)
    in_sel[selected] = True
    weight = int(a[selected].sum())
    need = k - len(selected) - 1
    comp = _completion_sums(a, ~in_sel, need)
    gains = np.diag(C) + (2 * C[:, selected].sum(axis=1) if selected else 0)
    ok = (~in_sel) & (weight + a <= b)
    # completion computed over free-without-j, budget excludes j's weight
    ok &= comp <= (b - weight - a).astype(float)
    if not ok.any():
        return False
    gains = np.where(ok, gains, np.iinfo(np.int64).min)
    selected.append(int(np.argmax(gains)))
    selected.sort()
    return True


def _local_search(inst: Instance, selected: list[int]) -> list[int]:
    """Fill-up and first-improvement swaps to a fixed point.

    Terminates because every accepted move strictly increases the integer
    objective (swaps) or the selection size (fill-up, bounded by k).
    """
    selected = sorted(selected)
    C, a, b, k = inst.C, inst.a, inst.b, inst.k
    while True:
        if _fill_up(C, a, b, k, selected):
            continue
        if len(selected) == k:
            new = _swap_descent(C, a, b, selected)
            if new != selected:
                selected = new
                continue
        return selected


def _to_incumbent(inst: Instance, selected, source: str) -> Incumbent:
    x = np.zeros(inst.n, dtype=np.int64)
    x[list(selected)] = 1
    return Incumbent(x, inst.objective(x), source)


def primal_heuristic(inst: Instance, prep: Preprocessed) -> Incumbent:
    """Greedy by objective gain per unit weight, then local search.

    Requires k <= k_max, which guarantees the k lightest items are feasible
    (used as repair if the greedy paints itself into a corner).
    """
    if inst.k > prep.k_max:
        raise ValueError("infeasible cardinality; check preprocess first")
    n, k, a, b, C = inst.n, inst.k, inst.a, inst.b, inst.C
    if k == 0:
        return _to_incumbent(inst, [], PRIMAL)
    diag = np.diag(C).astype(float)
    selected: list[int] = []
    weight = 0
    in_sel = np.zeros(n, dtype=bool)
    while len(selected) < k:
        need = k - len(selected) - 1
        comp = _completion_sums(a, ~in_sel, need)
        gains = diag + (2 * C[:, selected].sum(axis=1) if selected else 0.0)
        ok = (~in_sel) & (weight + a <= b)
        ok &= comp <= (b - weight - a).astype(float)
        if not ok.any():
            break
        with np.errstate(divide="ignore"):
            ratio = np.where(a > 0, gains / np.where(a > 0, a, 1),
                             np.where(gains >= 0, np.inf, -np.inf))
        ratio = np.where(ok, ratio, -np.inf)
        j = int(np.argmax(ratio))
        selected.append(j)
        in_sel[j] = True
        weight += int(a[j])
    if len(selected) < k:
        # repair: the k lightest items always fit when k <= k_max
        order = np.lexsort((np.arange(n), a))
        selected = sorted(order[:k].tolist())
    selected = _local_search(inst, selected)
    return _to_incumbent(inst, selected, PRIMAL)


def varfix_heuristic(inst: Instance, prep: Preprocessed, x_frac: np.ndarray,
                     incumbent: Incumbent | None = None) -> Incumbent:
    """Fix low-fractional-value variables to zero at increasing thresholds,
    re-optimize the rest with the primal heuristic, and polish on the full
    instance.  Never returns worse than the incoming incumbent."""
    best = incumbent
    x_frac = np.asarray(x_frac, dtype=float)
    for eps in EPSILON_SCHEDULE:
        free = np.nonzero(x_frac >= eps)[0]
        if len(free) < inst.k:
            break  # reduced problem can no longer host k items
        sub = Instance(inst.k, inst.a[free], inst.b,
                       inst.C[np.ix_(free, free)], inst.offset)
        sub_prep = preprocess(sub)
        if inst.k > sub_prep.k_max:
            continue
        if sub_prep.status == TRIVIAL_K1:
            sub_sel = [sub_prep.trivial_index]
        else:
            sub_sel = np.nonzero(primal_heuristic(sub, sub_prep).x)[0].tolist()
        lifted = sorted(int(free[i]) for i in sub_sel)
        lifted = _local_search(inst, lifted)
        if len(lifted) != inst.k:
            continue
        cand = _to_incumbent(inst, lifted, VARFIX)
        if not inst.is_feasible(cand.x):
            continue
        if best is None or cand.value > best.value:
            best = cand
    if best is None:
        best = primal_heuristic(inst, prep)
    return best
