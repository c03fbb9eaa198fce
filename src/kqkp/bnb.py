"""Best-first branch-and-bound driver with a branch-and-prune fast path.

A node carries its reduced instance (its fixed items folded into the
data), its assignment vector (per root item: -1 while free, else the value
fixed) and the inherited upper bound.  The queue is keyed by bound
(largest first; we maximize), ties broken by depth (deeper first).
Pruning uses incumbent + 1 (``bundle.prunable``, the test the bundle stops
on): all data are integers, so the optimum is integral.

The primal heuristic's incumbent is found before the search, once the
root's k is at most the most items that fit (``preprocess``'s k_max).
Every queued node is feasible in that sense: one step, ``_fixed``, makes
both a fix round's instance and each branching child, and a fix that
leaves more items to choose than fit fails there.  The root is the first
queue entry, with an infinite bound, and one loop processes every node,
root included, in rounds.  While the node's k is above its
branch-and-prune threshold, a round bounds it: the bundle bound, prune,
the variable-fixing heuristic (``varfix_heuristic``, a primal heuristic),
prune, and the face test, whose fixes make the next round's instance.  A
node whose k is at or below the threshold, on entry or after fixes, is
finished by ``branch_and_prune`` (``bnp_leaf``).  A round whose bundle
stopped ``fixable`` (below) goes round again; after any other stop the
node branches on the most fractional variable left.  At depth 0 only
the branch-and-prune threshold and the bundle's evaluation budget differ:
the root takes ``ROOT_EVALS`` evaluations, other nodes ``NODE_EVALS``,
shared by its rounds.  Every processed node appends one row to the
report's node trace; after fixes its action reads, say, ``branch x7 fix
12`` or ``bnp_leaf fix 12``, with the items fixed over all rounds.

The face test fixes variables from the node's own certified SDP dual, with
no further evaluation (Helmberg, SIAM J. Matrix Anal. Appl. 21, 2000).  The
node's bundle runs it (``bundle.minimize`` with ``fixable``): it bounds
both faces x_j = 0 and x_j = 1 of every item from the dual of the bundle's
best evaluation, and a face whose certified bound is prunable holds no
selection that beats the incumbent the bundle was given.  ``node_bound``
returns the excluded faces as an array, with the other face of each item
that the b == b' reduction fixed.  The node is pruned when both faces of
an item are excluded.  Otherwise every item with an excluded face is fixed
to its other value (every exclusion is against the same incumbent, so all
hold at once), the fixed items leave the pool and x_frac, and the node is
pruned if the fixes leave no feasible selection.  Where the heuristic
raised the incumbent after the bound, the exclusions stay those at the
old one: a face that cannot beat it cannot beat a better one.

A node's bundle runs the test at its pool updates too and stops
``fixable`` once it would fix at least ``bundle.FIX_SHARE`` of the
relaxation.  That round skips the heuristic, whose fractional point is
then one evaluation old, and the next round bounds the smaller face with
the evaluations left, from the round's pool.  An IPM solve costs like n^3
in the free items, so the rest of the budget is cheaper there.  The
excluded faces hold nothing above the incumbent, so after fixes the
node's bound is the larger of the incumbent's value and the fixed face's
bound, a valid bound on the node as reported.  A branch-and-prune leaf
that finishes proves the incumbent's value as its node's bound only when
no round ran: a fixed node keeps the bound its bundle proved, so a root's
stays its SDP bound.

Every child's bundle starts from its parent's final cut pool and
multipliers, not from the empty pool: ``_fixed`` drops the cuts that touch
the branching item v and renumbers the rest, as it does for a fix round's
items.  A triangle inequality on items other than v holds on every
selection of the child, and any nonnegative multipliers give a valid
bound, so the search stays exact.  ``_remap`` moves a pool to the items
left by fixes and, in ``node_bound``, between a node's items and its
relaxation's coordinates.

For small cardinalities no relaxation is solved at all: a depth-first
branch-and-prune enumerates selections, fixing variables to one first and
pruning by cardinality/capacity feasibility, as in the paper, and by a
combinatorial upper bound against the best value so far (see
``branch_and_prune``).  It branches on the items in gain order, the most
profitable first, and returns its selection in its caller's item labels.
It is exact for its subtree and takes over at the root for k <= 10 and at
a node once the remaining cardinality drops to <= 5.  It reports only
selections that beat the incumbent.  It honours the time limit like the
rest of the search: it returns its best selection so far, which becomes
the incumbent, with a flag that says it did not finish.  Stopped at the
root, the solve returns the incumbent with no bound, and stopped below it,
the node stays open with its bound.
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
    # the parent's final (cuts, gamma) in this node's item indices; None at
    # the root
    pool: tuple | None
    depth: int
    bound: float


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
    # the counters of ``ipm.COUNTS`` that moved during the solve: the IPM's,
    # the bundle's stop reasons, the face tests and their fixes
    stats: dict = field(default_factory=dict)


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


def _gain_order(C: np.ndarray, k: int) -> np.ndarray:
    """The items in decreasing order of their root gain, C_jj plus the k - 1
    largest C_jq over q != j (the p = 0 row of ``_gain_table``); a stable
    sort, so ties keep index order."""
    off = np.array(C, dtype=np.int64)
    np.fill_diagonal(off, 0)
    top = -np.sort(-off, axis=1)[:, :max(min(k, len(off)) - 1, 0)]
    return np.argsort(-(np.diag(C) + top.sum(axis=1)), kind="stable")


def branch_and_prune(inst: Instance, floor: float = float("-inf"),
                     deadline: float | None = None) -> tuple:
    """Exhaustive DFS pruned by feasibility and an upper bound; exact for its input.

    The items are relabeled once, in gain order (``_gain_order``), so strong
    items are branched on first and leave the suffix bound early.  Branches
    x_j = 1 before x_j = 0 in that order; prunes on remaining cardinality,
    on the lightest possible completion exceeding capacity, and on a bound:
    with ``need`` items left to choose among positions i..n-1, no
    completion is worth more than the current value plus the ``need``
    largest gains g_j = C_jj + 2 R_j + (the need - 1 largest C_jq, q >= i,
    q != j), where R_j = sum of C_jc over the chosen c is kept
    incrementally.  A subtree is cut only when that bound does not exceed
    the best value so far, so the search finds the selection a
    feasibility-only DFS over the items in gain order would.  Returns
    (best, finished): ``best`` is the best selection, in the caller's item
    labels, whose value, in the instance's units (offset included), exceeds
    ``floor``, or None if there is none, and ``finished`` is False when
    ``deadline`` (a ``time.perf_counter()`` value) stopped the search first,
    with ``best`` the best such selection found by then.  The loop steps
    are added to ``ipm.COUNTS["bnp_steps"]``.
    """
    n, k, b = inst.n, inst.k, inst.b
    order = _gain_order(inst.C, k)
    a_int = inst.a.astype(np.int64)[order]
    C = np.asarray(inst.C, dtype=np.int64)[np.ix_(order, order)]
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
                raise TimeoutError  # unwinds the recursion; caught below
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

    finished = True
    try:
        rec(0, 0, 0)
    except TimeoutError:
        finished = False
    ipm.COUNTS["bnp_steps"] += calls
    if best_sel is None:
        return None, finished
    x = np.zeros(n, dtype=np.int64)
    x[order[best_sel]] = 1
    return Incumbent(x, inst.objective(x), BRANCH_LEAF), finished


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


def _fixed(red: Instance, values: np.ndarray, pool: tuple, items, vals) -> tuple:
    """Fix x_j = vals for ``items`` of ``red`` (one item or an array, as
    ``fix_variable`` takes them): the new node's instance, its assignment
    vector and ``pool`` without the cuts on a fixed item.  Raises
    InfeasibleFix when no selection is left: ``fix_variable``'s ones
    beyond k or b, or more items to choose than fit."""
    out = fix_variable(red, items, vals)
    if out.k > preprocess(out).k_max:
        raise InfeasibleFix(f"{out.k} items left to choose, more than fit")
    free = np.flatnonzero(values < 0)
    values = values.copy()
    values[free[items]] = vals
    left = values[free] < 0
    return out, values, _remap(pool, np.where(left, np.cumsum(left) - 1, -1))


def node_bound(inst: Instance, lower_bound: float, max_evals: int,
               cuts_per_update: int | None = None, deadline: float | None = None,
               pool: tuple | None = None, fixable: bool = False):
    """Bundle bound for an instance: (bound, x_frac, evals, pool, faces, reason).

    The arguments are ``bundle.minimize``'s, on the instance's items (one
    evaluation gives the plain SDP bound), and ``reason`` is its stop
    reason.  ``pool`` is the bundle's start,
    a cut array on the instance's items and its multipliers ``(cuts,
    gamma)`` (default: the empty pool); the returned pool is the bundle's
    final one, on the same items.  A relaxation of dimension 0 is exact:
    x_frac is its best selection, the bound that selection's value, with 0
    evaluations, the empty pool and the reason ``exact``.

    ``faces`` is the face test at ``lower_bound``: an (n, 2) bool array,
    True at [j, v] where no selection with x_j = v is worth more than
    ``lower_bound``.  At dimension 0 it is all False.  Otherwise an item
    that the b == b' reduction fixed has its other face excluded, and with
    ``fixable`` so is every face that the bundle excluded at its stop by a
    certified bound from the dual of its best evaluation
    (``bundle.minimize``; none after a ``pruned`` stop).
    """
    faces = np.zeros((inst.n, 2), dtype=bool)
    data = relaxation.build(inst)
    if data.dim == 0:
        return (int(data.const_term), data.x_fixed, 0,
                (np.zeros((0, 4), dtype=np.int64), np.zeros(0)), faces, "exact")
    res = bundle_mod.minimize(data, lower_bound, max_evals, cuts_per_update, deadline,
                              None if pool is None else _remap(pool, data.coord_of_item),
                              fixable)
    fixed = np.flatnonzero(data.coord_of_item < 0)
    faces[fixed, 1 - data.x_fixed[fixed].astype(int)] = True
    if res.faces is not None:
        item = data.item_of_coord
        faces[item[item >= 0]] = res.faces[item >= 0]
    return (res.bound, relaxation.extract_fractional(res.X_last, data), res.evals,
            _remap((res.pool, res.gamma), data.item_of_coord), faces, res.reason)


def solve(inst: Instance, config: SolverConfig | None = None) -> SolveReport:
    """Exact solve; status is time_limit if the limit cuts the search short."""
    cfg = config or SolverConfig()
    t0 = time.perf_counter()
    deadline = t0 + cfg.time_limit_s
    root = inst
    trace: list = []
    before = ipm.COUNTS.copy()
    prep = preprocess(root)

    def report(status, best, root_bound, nodes, evals, open_bound):
        gap = 0.0
        if best is not None and best.value > 0 and np.isfinite(root_bound):
            gap = 100.0 * (root_bound - best.value) / best.value
        return SolveReport(status, best, float(root_bound), gap, nodes,
                           int(1000 * (time.perf_counter() - t0)), evals,
                           float(open_bound), trace, ipm.counts_since(before))

    def time_limit_report(processing=-np.inf):
        # the bounds left open: the node being processed and the heap top,
        # which holds the heap's largest (keys are negated bounds)
        open_bound = max(best.value, processing, -heap[0][0] if heap else -np.inf)
        return report(STATUS_TIME_LIMIT, best, root_node.bound, nodes, evals, open_bound)

    if root.k > prep.k_max:
        return report(STATUS_INFEASIBLE, None, float("nan"), 0, 0, float("nan"))

    def process(node: Node) -> SolveReport | None:
        """Run ``node``'s rounds and finish it, as the module docstring
        describes; returns the time-limit report if the deadline stopped
        its branch-and-prune, else None."""
        nonlocal best, evals, nodes, seq
        nodes += 1
        bnp_k, budget = ((cfg.bnp_root_k, ROOT_EVALS) if node.depth == 0
                         else (cfg.bnp_node_k, NODE_EVALS))
        red, values, pool = node.reduced, node.values, node.pool
        fixes, reason = 0, None  # reason: the last round's bundle stop, None before one
        while red.k > bnp_k and reason in (None, "fixable"):
            nb, x_frac, used, pool, faces, reason = node_bound(
                red, best.value, budget, cfg.cuts_per_update, deadline, pool, True)
            evals += used
            budget -= used
            # after fixes the excluded faces hold nothing above the incumbent
            node.bound = min(node.bound, max(nb, best.value) if fixes else nb)
            # after a fixable stop x_frac is one evaluation old: on the bb_n40 and
            # n = 60/80 draws the heuristic improved the incumbent once in 195 calls
            if reason != "fixable" and not bundle_mod.prunable(node.bound, best.value):
                cand = _lift_incumbent(root, values, varfix_heuristic(red, preprocess(red), x_frac))
                if cand.value > best.value:
                    best = cand
            # faces excluded at the incumbent the bundle was given hold nothing
            # above a better one either
            if bundle_mod.prunable(node.bound, best.value) or faces.all(axis=1).any():
                return _trace(trace, node, "prune")
            fixed = faces.any(axis=1)
            fix = np.flatnonzero(fixed)
            try:
                red, values, pool = _fixed(red, values, pool, fix, faces[fix, 0])
            except InfeasibleFix:
                return _trace(trace, node, "prune")
            x_frac, fixes = np.asarray(x_frac)[~fixed], fixes + len(fix)

        note = f" fix {fixes}" if fixes else ""
        ipm.COUNTS["fixes"] += fixes
        if red.k <= bnp_k:
            # a reduced objective, offset included, is the root objective
            # of the lifted selection, so the incumbent is the floor as is
            sub, finished = branch_and_prune(red, best.value, deadline)
            if sub is not None:
                best = _lift_incumbent(root, values, sub)
            if finished and reason is None:
                # nothing left in this subtree beats best; a fixed node keeps the
                # bound its bundle proved, so a root's stays its SDP bound
                node.bound = best.value
            _trace(trace, node, "bnp_leaf" + note)
            # the incumbent's value is no bound: the search did not finish
            return None if finished else time_limit_report(node.bound)

        # branch on the most fractional coordinate of the items left
        v = int(np.argmin(np.abs(0.5 - x_frac)))
        _trace(trace, node, f"branch x{np.flatnonzero(values < 0)[v]}{note}")
        for val in (1, 0):
            try:
                child = Node(*_fixed(red, values, pool, v, val), node.depth + 1, node.bound)
            except InfeasibleFix:
                continue
            seq += 1
            heapq.heappush(heap, (-child.bound, -child.depth, seq, child))
        return None

    best = primal_heuristic(root, prep)
    evals = nodes = seq = 0
    root_node = Node(root, np.full(root.n, -1), None, 0, float("inf"))
    heap = [(-root_node.bound, 0, seq, root_node)]

    while heap:
        if time.perf_counter() > deadline:
            return time_limit_report()
        neg_bound, _, _, node = heapq.heappop(heap)
        if bundle_mod.prunable(-neg_bound, best.value):
            break  # best-first: every remaining node is prunable
        if (stop := process(node)) is not None:
            return stop

    return report(STATUS_OPTIMAL, best, root_node.bound, nodes, evals, best.value)


def _trace(trace: list, node: Node, action: str) -> None:
    ones = int(np.count_nonzero(node.values == 1))
    trace.append((node.depth, ones, round(node.bound, 3), action))
