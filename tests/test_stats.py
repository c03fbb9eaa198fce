"""The solver's own work counters (``ipm.COUNTS``, a solve report's ``stats``)
against counts taken from outside by wrapping the counted functions."""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from kqkp import bnb, bundle, ipm
from kqkp.instance import Instance, preprocess
from conftest import make_instance


def wrapped_counts(monkeypatch) -> Counter:
    """Wrap ``ipm.solve``, ``ipm._max_step``, ``ipm._is_pd``,
    ``ipm._cold_point``, ``ipm.face_bounds``, ``bundle.minimize`` (its stop
    reasons, ``fixable`` among them), and the search's ``fix_variable``,
    ``_trace``, ``branch_and_prune`` and clock; the
    returned Counter fills with what each call did, under the names of
    ``ipm.COUNTS``.  Its ``cold_starts`` minus the calls that did not restart
    are the reruns.  A node's ``fixes`` are the items of each round's face
    test (a ``fix_variable`` call on an array of items; branching fixes one
    item), added up when the node's trace row is written, unless the node
    was pruned.  ``bnp_steps`` are the clock reads inside
    ``branch_and_prune``, which reads it at every loop step once
    ``DEADLINE_CHECK_CALLS`` is 1 and a deadline is given."""
    counts = Counter()
    solve, minimize = ipm.solve, bundle.minimize
    max_step, is_pd, cold_point = ipm._max_step, ipm._is_pd, ipm._cold_point
    face_bounds = ipm.face_bounds
    fix_variable, trace = bnb.fix_variable, bnb._trace
    branch_and_prune, clock = bnb.branch_and_prune, bnb.time.perf_counter
    round_fixes = []  # the node's fixes so far, one entry per round
    in_bnp = [False]

    def count_solve(data, C, tol, start=None, cutoff=None):
        sol = solve(data, C, tol, start, cutoff)
        counts["iters"] += sol.iterations
        counts[sol.status] += 1
        counts["calls"] += 1
        counts["restarted"] += start is not None
        return sol

    def count_minimize(*args, **kwargs):
        res = minimize(*args, **kwargs)
        counts[f"stop_{res.reason}"] += 1
        return res

    def count_fix(inst, j, value):
        if np.ndim(j):
            round_fixes.append(len(j))
        return fix_variable(inst, j, value)

    def count_trace(rows, node, action):
        if action != "prune":
            counts["fixes"] += sum(round_fixes)
        round_fixes.clear()
        return trace(rows, node, action)

    def count_bnp(*args):
        in_bnp[0] = True
        try:
            return branch_and_prune(*args)
        finally:
            in_bnp[0] = False

    def count_clock():
        counts["bnp_steps"] += in_bnp[0]
        return clock()

    def count(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ipm, "solve", count_solve)
    monkeypatch.setattr(bundle, "minimize", count_minimize)
    monkeypatch.setattr(ipm, "_max_step", count("fallbacks", max_step))
    monkeypatch.setattr(ipm, "_is_pd", count("chol", is_pd))
    monkeypatch.setattr(ipm, "_cold_point", count("cold_starts", cold_point))
    monkeypatch.setattr(ipm, "face_bounds", count("face_tests", face_bounds))
    monkeypatch.setattr(bnb, "fix_variable", count_fix)
    monkeypatch.setattr(bnb, "_trace", count_trace)
    monkeypatch.setattr(bnb, "branch_and_prune", count_bnp)
    monkeypatch.setattr(bnb, "time", SimpleNamespace(perf_counter=count_clock))
    monkeypatch.setattr(bnb, "DEADLINE_CHECK_CALLS", 1)
    return counts


def reference(counts: Counter) -> dict:
    """The wrappers' counts as ``stats``: only counters that moved stay."""
    counts = counts.copy()
    counts["cold_reruns"] = (counts.pop("cold_starts", 0)
                             - (counts.pop("calls", 0) - counts["restarted"]))
    return dict(+counts)


def traced_fixes(trace: list) -> int:
    """The N of every "fix N" in a node trace: a node's fixes over all rounds."""
    return sum(int(action.rsplit("fix ", 1)[1]) for *_, action in trace if "fix " in action)


def small_slack(inst: Instance, slack: int) -> Instance:
    return Instance(inst.k, inst.a, preprocess(inst).b_prime + slack, inst.C)


CASES = {
    # exact step lengths, and a node below the root whose fixes add up
    # over two rounds
    "n14_d50_s2": make_instance(14, 50, 2),
    # a stalled bundle, at b == b' + 5, after the root's bundle stopped
    # fixable and its fixes added up over two rounds
    "n16_d100_s16_slack5": small_slack(make_instance(16, 100, 16), 5),
    # exact step lengths, a cold rerun and a node that the face test
    # prunes after fixing items, which count as no fixes
    "n14_d75_s29": make_instance(14, 75, 29),
}


@pytest.mark.parametrize("name", list(CASES))
def test_tree_stats_equal_the_wrappers_counts(monkeypatch, name):
    counts = wrapped_counts(monkeypatch)
    rep = bnb.solve(CASES[name], bnb.SolverConfig(bnp_root_k=0, bnp_node_k=0))
    assert rep.status == bnb.STATUS_OPTIMAL and rep.nodes > 1
    assert rep.stats == reference(counts)
    assert rep.stats["fixes"] == traced_fixes(rep.node_trace)
    assert rep.stats["fixes"] > 0 and rep.stats["restarted"] > 0
    assert rep.stats["stop_fixable"] > 0 and rep.stats["face_tests"] > 0


def test_node_bound_counts_equal_the_wrappers_counts(monkeypatch):
    counts = wrapped_counts(monkeypatch)
    before = ipm.COUNTS.copy()
    _, _, evals, *_ = bnb.node_bound(make_instance(20, 50, 4), float("-inf"), bnb.ROOT_EVALS)
    stats = ipm.counts_since(before)
    assert stats == reference(counts)
    calls = sum(stats.get(status, 0)
                for status in ("optimal", "cutoff", "slow_progress", "iter_limit"))
    assert stats["iters"] > 0 and calls == evals


@pytest.mark.parametrize("cfg", [bnb.SolverConfig(), bnb.SolverConfig(bnp_root_k=0)],
                         ids=["root", "leaves"])
def test_branch_and_prune_steps_equal_the_wrappers_counts(monkeypatch, cfg):
    # n20 d50 s4 (k = 10): one root branch-and-prune under the defaults, and
    # below it a tree with branch-and-prune leaves
    counts = wrapped_counts(monkeypatch)
    rep = bnb.solve(make_instance(20, 50, 4), cfg)
    assert rep.status == bnb.STATUS_OPTIMAL
    assert rep.stats == reference(counts)
    assert rep.stats["bnp_steps"] > 0
    if cfg.bnp_root_k:
        assert list(rep.stats) == ["bnp_steps"]
    else:
        assert any(action.startswith("bnp_leaf") for *_, action in rep.node_trace)
