"""Best-first branch-and-bound driver with a branch-and-prune fast path.

Nodes carry a reduced instance (variables fixed by the branching history
folded into it) plus the inherited upper bound.  The queue is keyed by
bound (largest first; we maximize), ties broken by depth (deeper first).
Pruning uses incumbent + 1: all data are integers, so the optimum is
integral.

For small cardinalities no relaxation is solved at all: a depth-first
branch-and-prune enumerates selections, fixing variables to one first and
pruning by cardinality/capacity feasibility only.  It is exact for its
subtree and kicks in at the root for k <= 10 and inside the tree once the
remaining cardinality drops to <= 5.  At the root it starts from the primal
heuristic's incumbent.  It honours the time limit like the rest of the
search: stopped at the root, the solve returns its incumbent with no bound.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from . import bundle as bundle_mod
from . import relaxation
from .heuristics import BRANCH_LEAF, Incumbent, primal_heuristic, varfix_heuristic
from .instance import (
    INFEASIBLE,
    TRIVIAL_K1,
    InfeasibleFix,
    Instance,
    fix_variable,
    preprocess,
)
from .ipm import NumericalBreakdown

STATUS_OPTIMAL = "optimal"
STATUS_TIME_LIMIT = "time_limit"
STATUS_INFEASIBLE = "infeasible"

# branch-and-prune reads the clock once per this many search calls
DEADLINE_CHECK_CALLS = 4096


@dataclass
class SolverConfig:
    time_limit_s: float = 10800.0
    ipm_tol_root: float = 1e-7
    ipm_tol_node: float = 1e-5
    root_evals: int = 30
    node_evals: int = 10
    cuts_per_update: int | None = None  # None -> min(5n, 300)
    gamma_drop: float = 1e-5
    cut_update_period: int = 5
    bnp_node_k: int = 5
    bnp_root_k: int = 10
    use_cuts: bool = True
    trace: bool = False

    def bundle_config(self, root: bool, deadline: float | None = None) -> bundle_mod.BundleConfig:
        return bundle_mod.BundleConfig(
            max_evals=(self.root_evals if root else self.node_evals) if self.use_cuts else 1,
            cuts_per_update=self.cuts_per_update,
            gamma_drop=self.gamma_drop,
            update_period=self.cut_update_period,
            ipm_tol=self.ipm_tol_root if root else self.ipm_tol_node,
            deadline=deadline,
        )


@dataclass
class Node:
    reduced: Instance
    free: tuple  # original indices of the surviving variables
    fixed_ones: tuple  # original indices fixed to 1
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
    node_trace: list = field(default_factory=list)


class TimeLimitReached(Exception):
    """A deadline stopped branch-and-prune; ``best`` is its incumbent then."""

    def __init__(self, best: Incumbent | None = None):
        super().__init__("time limit reached")
        self.best = best


def branch_and_prune(inst: Instance, incumbent: Incumbent | None = None,
                     deadline: float | None = None) -> Incumbent | None:
    """Exhaustive DFS pruned by feasibility only; exact for its input.

    Branches x_j = 1 before x_j = 0 in index order; prunes on remaining
    cardinality and on the lightest possible completion exceeding capacity.
    Values are in the instance's units (offset included).  Past ``deadline``
    (a ``time.perf_counter()`` value) it raises TimeLimitReached carrying
    the best selection found so far.
    """
    n, k, a, b, C = inst.n, inst.k, inst.a, inst.b, inst.C
    a_int = a.astype(np.int64)
    # suffix_light[j][r] = weight of the r lightest items among positions j..n-1
    suffix_light = []
    for j in range(n + 1):
        w = np.sort(a_int[j:])
        suffix_light.append(np.concatenate([[0], np.cumsum(w)]))

    best_val = incumbent.value if incumbent is not None else None
    best_sel: list[int] | None = None
    chosen: list[int] = []
    calls = 0

    def rec(j: int, weight: int, value: int):
        nonlocal best_val, best_sel, calls
        calls += 1
        if calls % DEADLINE_CHECK_CALLS == 0 and deadline is not None \
                and time.perf_counter() > deadline:
            raise TimeLimitReached
        need = k - len(chosen)
        if need == 0:
            total = value + inst.offset
            if best_val is None or total > best_val:
                best_val = total
                best_sel = chosen.copy()
            return
        if n - j < need:
            return
        if weight + int(suffix_light[j][need]) > b:
            return
        aj = int(a_int[j])
        if weight + aj <= b:
            dv = int(C[j, j]) + 2 * int(C[j, chosen].sum()) if chosen else int(C[j, j])
            chosen.append(j)
            rec(j + 1, weight + aj, value + dv)
            chosen.pop()
        rec(j + 1, weight, value)

    def best():
        if best_sel is None:
            return incumbent
        x = np.zeros(n, dtype=np.int64)
        x[best_sel] = 1
        return Incumbent(x, inst.objective(x), BRANCH_LEAF)

    try:
        rec(0, 0, 0)
    except TimeLimitReached as stop:
        stop.best = best()
        raise
    return best()


def _lift(n_root: int, free, fixed_ones, x_reduced) -> np.ndarray:
    x = np.zeros(n_root, dtype=np.int64)
    x[list(fixed_ones)] = 1
    for pos, orig in enumerate(free):
        x[orig] = int(x_reduced[pos])
    return x


def _lift_incumbent(root: Instance, node: Node, sub: Incumbent, source: str) -> Incumbent:
    x = _lift(root.n, node.free, node.fixed_ones, sub.x)
    return Incumbent(x, root.objective(x), source)


def node_bound(inst: Instance, cfg: SolverConfig, lower_bound: float,
               root: bool, deadline: float | None = None):
    """Bundle (or plain SDP) bound for an instance: (bound, x_frac, evals).

    ``lower_bound`` lets the bundle stop once the bound proves the node
    prunable (``-inf`` disables that); ``deadline`` is a
    ``time.perf_counter()`` value after which no further evaluation starts.
    """
    data = relaxation.build(inst)
    res = bundle_mod.minimize(data, lower_bound, cfg.bundle_config(root, deadline))
    return res.bound, relaxation.extract_fractional(res.X_last, data), res.evals


def solve(inst: Instance, config: SolverConfig | None = None) -> SolveReport:
    """Exact solve; status is time_limit if the limit cuts the search short."""
    cfg = config or SolverConfig()
    t0 = time.perf_counter()
    deadline = t0 + cfg.time_limit_s
    root = inst
    trace: list = []
    prep = preprocess(root)

    def report(status, best, root_bound, nodes, evals):
        gap = 0.0
        if best is not None and best.value > 0 and np.isfinite(root_bound):
            gap = 100.0 * (root_bound - best.value) / best.value
        return SolveReport(status, best, float(root_bound), gap, nodes,
                           int(1000 * (time.perf_counter() - t0)), evals, trace)

    if prep.status == INFEASIBLE:
        return report(STATUS_INFEASIBLE, None, float("nan"), 0, 0)
    if prep.status == TRIVIAL_K1:
        x = np.zeros(root.n, dtype=np.int64)
        x[prep.trivial_index] = 1
        best = Incumbent(x, root.objective(x), BRANCH_LEAF)
        return report(STATUS_OPTIMAL, best, best.value, 1, 0)
    if root.k <= cfg.bnp_root_k:
        try:
            best = branch_and_prune(root, primal_heuristic(root, prep), deadline)
        except TimeLimitReached as stop:
            # the incumbent's value is no bound: the search did not finish
            return report(STATUS_TIME_LIMIT, stop.best, float("inf"), 1, 0)
        return report(STATUS_OPTIMAL, best, best.value, 1, 0)

    best = primal_heuristic(root, prep)
    evals = 0
    try:
        root_bound, x_frac, used = node_bound(root, cfg, best.value, root=True,
                                              deadline=deadline)
        evals += used
        cand = varfix_heuristic(root, prep, x_frac, best)
        if cand.value > best.value:
            best = cand
    except NumericalBreakdown:
        root_bound = float("inf")
        x_frac = np.full(root.n, 0.5)

    nodes = 1
    if root_bound < best.value + 1 - 1e-6:
        return report(STATUS_OPTIMAL, best, root_bound, nodes, evals)

    seq = 0
    heap: list = []
    root_node = Node(root, tuple(range(root.n)), (), 0, root_bound)
    heapq.heappush(heap, (-root_bound, -0, seq, root_node, x_frac))

    while heap:
        if time.perf_counter() > deadline:
            return report(STATUS_TIME_LIMIT, best, root_bound, nodes, evals)
        neg_bound, _, _, node, node_xfrac = heapq.heappop(heap)
        if -neg_bound < best.value + 1 - 1e-6:
            break  # best-first: every remaining node is prunable
        if node.depth > 0:
            nodes += 1
            red = node.reduced
            red_prep = preprocess(red)
            if red_prep.status == INFEASIBLE:
                _trace(trace, cfg, node, "infeasible")
                continue
            if red_prep.status == TRIVIAL_K1:
                xr = np.zeros(red.n, dtype=np.int64)
                xr[red_prep.trivial_index] = 1
                cand = _lift_incumbent(root, node, Incumbent(xr, red.objective(xr), BRANCH_LEAF), BRANCH_LEAF)
                if cand.value > best.value:
                    best = cand
                _trace(trace, cfg, node, "leaf")
                continue
            if red.k <= cfg.bnp_node_k or red.k == red.n:
                stopped = False
                try:
                    sub = branch_and_prune(red, deadline=deadline)
                except TimeLimitReached as stop:
                    sub, stopped = stop.best, True
                if sub is not None:
                    cand = _lift_incumbent(root, node, sub, BRANCH_LEAF)
                    if cand.value > best.value:
                        best = cand
                _trace(trace, cfg, node, "bnp_leaf")
                if stopped:
                    return report(STATUS_TIME_LIMIT, best, root_bound, nodes, evals)
                continue
            # refine the inherited bound
            try:
                nb, node_xfrac, used = node_bound(red, cfg, best.value, root=False,
                                                  deadline=deadline)
                evals += used
                node.bound = min(node.bound, nb)
            except NumericalBreakdown:
                pass  # keep the inherited bound; the node stays valid
            if node.bound < best.value + 1 - 1e-6:
                _trace(trace, cfg, node, "prune")
                continue
            cand = varfix_heuristic(red, red_prep, node_xfrac, None)
            lifted = _lift_incumbent(root, node, cand, cand.source)
            if lifted.value > best.value:
                best = lifted
            if node.bound < best.value + 1 - 1e-6:
                _trace(trace, cfg, node, "prune")
                continue

        # branch on the most fractional coordinate
        v = int(np.argmin(np.abs(0.5 - np.asarray(node_xfrac))))
        orig_v = node.free[v]
        _trace(trace, cfg, node, f"branch x{orig_v}")
        child_free = tuple(f for f in node.free if f != orig_v)
        for val in (1, 0):
            try:
                child_red = fix_variable(node.reduced, v, val)
            except InfeasibleFix:
                continue
            child = Node(
                child_red,
                child_free,
                node.fixed_ones + (orig_v,) if val == 1 else node.fixed_ones,
                node.depth + 1,
                node.bound,
            )
            child_frac = np.delete(np.asarray(node_xfrac), v)
            seq += 1
            heapq.heappush(heap, (-child.bound, -child.depth, seq, child, child_frac))

    return report(STATUS_OPTIMAL, best, root_bound, nodes, evals)


def _trace(trace: list, cfg: SolverConfig, node: Node, action: str) -> None:
    if cfg.trace:
        trace.append((node.depth, len(node.fixed_ones), round(node.bound, 3), action))
