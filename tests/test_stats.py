"""The solver's own work counters (``ipm.COUNTS``, a solve report's ``stats``)
against counts taken from outside by wrapping the counted functions."""

from collections import Counter

import pytest

from kqkp import bnb, bundle, ipm
from kqkp.instance import Instance, preprocess
from conftest import make_instance


def wrapped_counts(monkeypatch) -> Counter:
    """Wrap ``ipm.solve``, ``ipm._max_step``, ``ipm._is_pd``,
    ``ipm._cold_point`` and ``bundle.minimize``; the returned Counter fills
    with what each call did, under the names of ``ipm.COUNTS``.  Its
    ``cold_starts`` minus the calls that did not restart are the reruns."""
    counts = Counter()
    solve, minimize = ipm.solve, bundle.minimize
    max_step, is_pd, cold_point = ipm._max_step, ipm._is_pd, ipm._cold_point

    def count_solve(data, C, tol, start=None):
        sol = solve(data, C, tol, start)
        counts["iters"] += sol.iterations
        counts[sol.status] += 1
        counts["calls"] += 1
        counts["restarted"] += start is not None
        return sol

    def count_minimize(*args, **kwargs):
        res = minimize(*args, **kwargs)
        counts[f"stop_{res.reason}"] += 1
        return res

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
    return counts


def reference(counts: Counter, trace: list = ()) -> dict:
    """The wrappers' counts as ``stats``: the fixes are the N of every
    "fix N" in the node trace, and only counters that moved stay."""
    counts = counts.copy()
    counts["cold_reruns"] = counts.pop("cold_starts") - (counts.pop("calls") - counts["restarted"])
    counts["fixes"] = sum(int(action.rsplit("fix ", 1)[1])
                          for *_, action in trace if "fix " in action)
    return dict(+counts)


def small_slack(inst: Instance) -> Instance:
    return Instance(inst.k, inst.a, preprocess(inst).b_prime + 1, inst.C)


CASES = {
    # exact step lengths, a slow_progress solve and cold reruns
    "n12_d25_s4": make_instance(12, 25, 4),
    # a stalled bundle, at b == b' + 1
    "n14_d50_s1_slack1": small_slack(make_instance(14, 50, 1)),
    # a node that the face test prunes after fixing items, which count
    # as no fixes
    "n14_d50_s0": make_instance(14, 50, 0),
}


@pytest.mark.parametrize("name", list(CASES))
def test_tree_stats_equal_the_wrappers_counts(monkeypatch, name):
    counts = wrapped_counts(monkeypatch)
    rep = bnb.solve(CASES[name], bnb.SolverConfig(bnp_root_k=0, bnp_node_k=0))
    assert rep.status == bnb.STATUS_OPTIMAL and rep.nodes > 1
    assert rep.stats == reference(counts, rep.node_trace)
    assert rep.stats["fixes"] > 0 and rep.stats["restarted"] > 0


def test_node_bound_counts_equal_the_wrappers_counts(monkeypatch):
    counts = wrapped_counts(monkeypatch)
    before = ipm.COUNTS.copy()
    _, _, evals, _, _ = bnb.node_bound(make_instance(20, 50, 4), float("-inf"), bnb.ROOT_EVALS)
    stats = ipm.counts_since(before)
    assert stats == reference(counts)
    calls = sum(stats.get(status, 0) for status in ("optimal", "slow_progress", "iter_limit"))
    assert stats["iters"] > 0 and calls == evals
