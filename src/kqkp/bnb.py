"""Best-first branch-and-bound driver with a branch-and-prune fast path.

A node carries its reduced instance (its fixed items folded into the
data), its assignment vector (per root item: -1 while free, else the value
fixed) and the inherited upper bound.  The queue is keyed by bound
(largest first; we maximize), ties broken by depth (deeper first).
Pruning uses incumbent + 1 (``bundle.prunable``, the test the bundle stops
on): all data are integers, so the optimum is integral.

The root is the first queue entry, with an infinite bound, and one loop
body processes every node, root included: an infeasible leaf, a
branch-and-prune leaf, or the bundle bound, prune, the variable-fixing
heuristic (``varfix_heuristic``, a primal heuristic), prune, the face test
and branching on the most fractional variable left.  At depth 0 only the
branch-and-prune threshold and the bundle's evaluation budget differ: the
root takes ``ROOT_EVALS`` evaluations, other nodes ``NODE_EVALS``.  The
primal heuristic's incumbent is found before the loop.  Every processed node
appends one row to the report's node trace.

The face test fixes variables from the node's own certified SDP dual, with
no further evaluation (Helmberg, SIAM J. Matrix Anal. Appl. 21, 2000).  It
bounds both faces x_j = 0 and x_j = 1 of every item from the dual of the
bundle's best evaluation (``ipm.face_bounds``); a face whose certified
bound is prunable holds no selection that beats the incumbent, and an item
that the b == b' reduction fixed has its other face excluded outright.
The node is pruned when both faces of an item are excluded or the fixes
leave no feasible selection.  Otherwise every item with an excluded face
is fixed to its other value (every exclusion is against the same
incumbent, so all hold at once), the fixed items leave the pool and
x_frac, and the node branches on what is left without a second bound; its
trace action reads, say, ``branch x7 fix 12``.  Where the fixes leave k at
or below the node's branch-and-prune threshold, or no item, branch-and-
prune finishes the fixed node at once (``bnp_leaf fix 12``).

Every child's bundle starts from its parent's final cut pool and
multipliers, not from the empty pool: branching on x_v drops the cuts that
touch v and renumbers the rest, and both children share that one pool.  A
triangle inequality on items other than v holds on every selection of the
child, and any nonnegative multipliers give a valid bound, so the search
stays exact.  ``_remap`` moves a pool to the child's items and, in
``node_bound``, between a node's items and its relaxation's coordinates.

For small cardinalities no relaxation is solved at all: a depth-first
branch-and-prune enumerates selections, fixing variables to one first and
pruning by cardinality/capacity feasibility, as in the paper, and by a
combinatorial upper bound against the best value so far (see
``branch_and_prune``).  It is exact for its subtree and takes over at the
root for k <= 10 and at a node once the remaining cardinality drops to
<= 5.  It reports only selections that beat the incumbent.  It honours the
time limit like the rest of the search: stopped at the root, the solve
returns its incumbent with no bound.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from . import bundle as bundle_mod
from . import ipm, relaxation
from .heuristics import BRANCH_LEAF, Incumbent, primal_heuristic, varfix_heuristic
from .instance import InfeasibleFix, Instance, fix_variable, preprocess

STATUS_OPTIMAL = "optimal"
STATUS_TIME_LIMIT = "time_limit"
STATUS_INFEASIBLE = "infeasible"

# branch-and-prune reads the clock once per this many search calls
DEADLINE_CHECK_CALLS = 4096
ROOT_EVALS = 30  # bundle evaluations at the root
NODE_EVALS = 10  # bundle evaluations at every other node


@dataclass
class SolverConfig:
    time_limit_s: float = 10800.0
    cuts_per_update: int | None = None  # None -> min(5n, 300)
    bnp_node_k: int = 5
    bnp_root_k: int = 10


@dataclass
class Node:
    reduced: Instance
    # per root item: -1 while free, else the value fixed; the free items,
    # in increasing order, are the items of ``reduced``
    values: np.ndarray
    depth: int
    bound: float
    # the parent's final (cuts, gamma) in this node's item indices, shared
    # with the sibling; None at the root
    pool: tuple | None = None


@dataclass
class SolveReport:
    status: str
    best: Incumbent | None
    root_bound: float
    root_gap_percent: float
    nodes: int
    time_ms: int
    evals: int
    # no selection is worth more: the incumbent's value once optimal, else
    # the largest of it and the bounds of the nodes left open
    open_bound: float
    node_trace: list = field(default_factory=list)


class TimeLimitReached(Exception):
    """A deadline stopped branch-and-prune; ``best`` is its best selection
    above the floor by then, or None."""

    def __init__(self, best: Incumbent | None = None):
        super().__init__("time limit reached")
        self.best = best


def _gain_table(C: np.ndarray, k: int) -> np.ndarray:
    """gain[p, m, j] = C_jj + the sum of the m largest C_jq over q >= p, q != j.

    m runs over 0..k-1.  Built from p = n down to 0 by merging column p into
    each row's sorted top k - 1.  A row with fewer than m such entries is
    padded with zeros; extra entries can only raise a sum of the m largest,
    so every entry stays an upper bound.
    """
    n = C.shape[0]
    width = max(min(k, n) - 1, 0)
    gain = np.zeros((n + 1, width + 1, n), dtype=np.int64)
    top = np.zeros((n, width), dtype=np.int64)  # each row descending
    for p in range(n - 1, -1, -1):
        col = C[:, p].copy()
        col[p] = 0
        top = -np.sort(-np.column_stack([top, col]), axis=1)[:, :width]
        np.cumsum(top, axis=1, out=gain[p, 1:].T)
    gain += np.diag(C)
    return gain


def branch_and_prune(inst: Instance, floor: float = float("-inf"),
                     deadline: float | None = None) -> Incumbent | None:
    """Exhaustive DFS pruned by feasibility and an upper bound; exact for its input.

    Branches x_j = 1 before x_j = 0 in index order; prunes on remaining
    cardinality, on the lightest possible completion exceeding capacity, and
    on a bound: with ``need`` items left to choose among positions i..n-1,
    no completion is worth more than the current value plus the ``need``
    largest gains g_j = C_jj + 2 R_j + (the need - 1 largest C_jq, q >= i,
    q != j), where R_j = sum of C_jc over the chosen c is kept
    incrementally.  A subtree is cut only when that bound does not exceed
    the best value so far, so the search finds the selection a
    feasibility-only DFS would.  Returns the best selection whose value, in
    the instance's units (offset included), exceeds ``floor``, or None if
    there is none.  Past ``deadline`` (a ``time.perf_counter()`` value) it
    raises TimeLimitReached carrying the best such selection found so far.
    """
    n, k, a, b = inst.n, inst.k, inst.a, inst.b
    a_int = a.astype(np.int64)
    C = np.asarray(inst.C, dtype=np.int64)
    # suffix_light[j][r] = weight of the r lightest items among positions j..n-1
    suffix_light = []
    for j in range(n + 1):
        w = np.sort(a_int[j:])
        suffix_light.append(np.concatenate([[0], np.cumsum(w)]))
    gain = _gain_table(C, k)
    diag = [int(v) for v in np.diag(C)]
    C2 = 2 * C
    R2 = np.zeros(n, dtype=np.int64)  # 2 R_j

    best_val = floor
    best_sel: list[int] | None = None
    chosen: list[int] = []
    calls = 0

    def rec(j: int, weight: int, value: int):
        # x_i = 0 is the next loop step, not a call, so the recursion is at
        # most k deep.  An n-deep one ran up to 1.8x slower at some caller
        # stack depths: CPython 3.11 frees and re-maps a frame-stack chunk
        # each time the recursion crosses a chunk boundary.
        nonlocal best_val, best_sel, calls, R2
        need = k - len(chosen)
        for i in range(j, n + 1):
            calls += 1
            if calls % DEADLINE_CHECK_CALLS == 0 and deadline is not None \
                    and time.perf_counter() > deadline:
                raise TimeLimitReached
            if need == 0:
                total = value + inst.offset
                if total > best_val:
                    best_val = total
                    best_sel = chosen.copy()
                return
            if n - i < need or weight + int(suffix_light[i][need]) > b:
                return
            # the bound over positions i.. also covers every later step
            g = gain[i, need - 1, i:] + R2[i:]
            if need == 1:
                top = int(g.max())
            else:
                g.partition(n - i - need)
                top = int(g[n - i - need:].sum())
            if value + inst.offset + top <= best_val:
                return
            ai = int(a_int[i])
            if weight + ai <= b:
                dv = diag[i] + int(R2[i])
                chosen.append(i)
                R2 += C2[i]
                rec(i + 1, weight + ai, value + dv)
                R2 -= C2[i]
                chosen.pop()

    def best():
        if best_sel is None:
            return None
        x = np.zeros(n, dtype=np.int64)
        x[best_sel] = 1
        return Incumbent(x, inst.objective(x), BRANCH_LEAF)

    try:
        rec(0, 0, 0)
    except TimeLimitReached as stop:
        stop.best = best()
        raise
    return best()


def _lift_incumbent(root: Instance, values: np.ndarray, sub: Incumbent) -> Incumbent:
    """A selection of the instance left free by the assignment ``values``
    as one of the root."""
    x = np.maximum(values, 0)
    x[values < 0] = sub.x
    return Incumbent(x, root.objective(x), sub.source)


def _remap(pool: tuple, index: np.ndarray) -> tuple:
    """A pool ``(cuts, gamma)`` with every cut index i renamed index[i]; the
    cuts that touch an index mapped to -1 leave.  ``index`` is increasing
    where >= 0, so the rows stay sorted i < j < k."""
    cuts, gamma = pool
    ijk = index[cuts[:, :3]]
    keep = (ijk >= 0).all(axis=1)
    return np.column_stack([ijk[keep], cuts[keep, 3]]), gamma[keep]


def node_bound(inst: Instance, lower_bound: float, max_evals: int,
               cuts_per_update: int | None = None, deadline: float | None = None,
               pool: tuple | None = None):
    """Bundle bound for an instance: (bound, x_frac, evals, pool, excluded).

    The arguments are ``bundle.minimize``'s, on the instance's items (one
    evaluation gives the plain SDP bound).  ``pool`` is the bundle's start,
    a cut array on the instance's items and its multipliers ``(cuts,
    gamma)`` (default: the empty pool); the returned pool is the bundle's
    final one, on the same items.  A relaxation of dimension 0 is exact:
    x_frac is its best selection, the bound that selection's value, with 0
    evaluations and the empty pool.

    ``excluded(value)`` is the face test: an (n, 2) bool array, True at [j,
    v] where no selection with x_j = v is worth more than ``value``.  An
    item that the b == b' reduction fixed has its other face excluded; every
    other face is excluded by its certified bound (``ipm.face_bounds``) from
    the dual of the bundle's best evaluation, so the test runs no further
    evaluation.  At dimension 0 it excludes nothing.
    """
    data = relaxation.build(inst)
    if data.dim == 0:
        return (int(data.const_term), data.x_fixed, 0,
                (np.zeros((0, 4), dtype=np.int64), np.zeros(0)),
                lambda value: np.zeros((inst.n, 2), dtype=bool))
    res = bundle_mod.minimize(data, lower_bound, max_evals, cuts_per_update, deadline,
                              None if pool is None else _remap(pool, data.coord_of_item))

    def excluded(value: float) -> np.ndarray:
        out = np.zeros((inst.n, 2), dtype=bool)
        fixed = np.flatnonzero(data.coord_of_item < 0)
        out[fixed, 1 - data.x_fixed[fixed].astype(int)] = True
        if res.dual is not None:
            y, cost, offset = res.dual
            bounds = ipm.face_bounds(data, y, cost, value + 1 - offset) + offset
            item = data.item_of_coord
            out[item[item >= 0]] = bundle_mod.prunable(bounds[item >= 0], value)
        return out

    return (res.bound, relaxation.extract_fractional(res.X_last, data), res.evals,
            _remap((res.pool, res.gamma), data.item_of_coord), excluded)


def solve(inst: Instance, config: SolverConfig | None = None) -> SolveReport:
    """Exact solve; status is time_limit if the limit cuts the search short."""
    cfg = config or SolverConfig()
    t0 = time.perf_counter()
    deadline = t0 + cfg.time_limit_s
    root = inst
    trace: list = []
    prep = preprocess(root)

    def report(status, best, root_bound, nodes, evals, open_bound):
        gap = 0.0
        if best is not None and best.value > 0 and np.isfinite(root_bound):
            gap = 100.0 * (root_bound - best.value) / best.value
        return SolveReport(status, best, float(root_bound), gap, nodes,
                           int(1000 * (time.perf_counter() - t0)), evals,
                           float(open_bound), trace)

    def time_limit_report(processing=-np.inf):
        # the bounds left open: the node being processed and the heap top,
        # which holds the heap's largest (keys are negated bounds)
        open_bound = max(best.value, processing, -heap[0][0] if heap else -np.inf)
        return report(STATUS_TIME_LIMIT, best, root_node.bound, nodes, evals, open_bound)

    if root.k > prep.k_max:
        return report(STATUS_INFEASIBLE, None, float("nan"), 0, 0, float("nan"))

    def bnp_leaf(node: Node, red: Instance, values: np.ndarray,
                 action: str) -> SolveReport | None:
        """Finish ``node`` by branch-and-prune on ``red`` with the assignment
        ``values``: the node's own, or after its face test's fixes.  Returns
        the time-limit report if the deadline stopped the search."""
        nonlocal best
        stopped = False
        try:
            # a reduced objective, offset included, is the root objective
            # of the lifted selection, so the incumbent is the floor as is
            sub = branch_and_prune(red, best.value, deadline)
        except TimeLimitReached as stop:
            sub, stopped = stop.best, True
        if sub is not None:
            best = _lift_incumbent(root, values, sub)
        if not stopped and red is node.reduced:
            # nothing left in this subtree beats best; a fixed node keeps the
            # bound its bundle proved, so a root's stays its SDP bound
            node.bound = best.value
        _trace(trace, node, action)
        # the incumbent's value is no bound: the search did not finish
        return time_limit_report(node.bound) if stopped else None

    best = primal_heuristic(root, prep)
    evals = nodes = seq = 0
    root_node = Node(root, np.full(root.n, -1), 0, float("inf"))
    heap = [(-root_node.bound, 0, seq, root_node)]

    while heap:
        if time.perf_counter() > deadline:
            return time_limit_report()
        neg_bound, _, _, node = heapq.heappop(heap)
        if bundle_mod.prunable(-neg_bound, best.value):
            break  # best-first: every remaining node is prunable
        nodes += 1
        red = node.reduced
        red_prep = preprocess(red)
        bnp_k, max_evals = ((cfg.bnp_root_k, ROOT_EVALS) if node.depth == 0
                            else (cfg.bnp_node_k, NODE_EVALS))
        if red.k > red_prep.k_max:
            _trace(trace, node, "infeasible")
            continue
        if red.k <= bnp_k:
            if (stop := bnp_leaf(node, red, node.values, "bnp_leaf")) is not None:
                return stop
            continue
        nb, x_frac, used, pool, excluded = node_bound(red, best.value, max_evals,
                                                      cfg.cuts_per_update, deadline, node.pool)
        evals += used
        node.bound = min(node.bound, nb)
        if bundle_mod.prunable(node.bound, best.value):
            _trace(trace, node, "prune")
            continue
        cand = _lift_incumbent(root, node.values, varfix_heuristic(red, red_prep, x_frac))
        if cand.value > best.value:
            best = cand
        if bundle_mod.prunable(node.bound, best.value):
            _trace(trace, node, "prune")
            continue

        # the face test: fix every item one of whose faces is excluded
        faces = excluded(best.value)
        fix = np.flatnonzero(faces.any(axis=1))
        try:
            red = fix_variable(red, fix, faces[fix, 0])
        except InfeasibleFix:
            red = None
        if faces.all(axis=1).any() or red is None or red.k > preprocess(red).k_max:
            _trace(trace, node, "prune")
            continue
        free = np.flatnonzero(node.values < 0)  # the root items of the node's items
        values = node.values.copy()
        values[free[fix]] = faces[fix, 0]
        keep = np.flatnonzero(~faces.any(axis=1))
        note = f" fix {len(fix)}" if len(fix) else ""
        if red.k <= bnp_k or len(keep) == 0:
            if (stop := bnp_leaf(node, red, values, "bnp_leaf" + note)) is not None:
                return stop
            continue

        # branch on the most fractional coordinate of the items left
        v = int(np.argmin(np.abs(0.5 - np.asarray(x_frac)[keep])))
        orig_v = int(free[keep[v]])
        _trace(trace, node, f"branch x{orig_v}{note}")
        rest = np.delete(keep, v)
        index = np.full(len(free), -1)
        index[rest] = np.arange(len(rest))  # the fixed items and v leave
        child_pool = _remap(pool, index)
        for val in (1, 0):
            try:
                child_red = fix_variable(red, v, val)
            except InfeasibleFix:
                continue
            child_values = values.copy()
            child_values[orig_v] = val
            child = Node(child_red, child_values, node.depth + 1, node.bound, child_pool)
            seq += 1
            heapq.heappush(heap, (-child.bound, -child.depth, seq, child))

    return report(STATUS_OPTIMAL, best, root_node.bound, nodes, evals, best.value)


def _trace(trace: list, node: Node, action: str) -> None:
    ones = int(np.count_nonzero(node.values == 1))
    trace.append((node.depth, ones, round(node.bound, 3), action))
