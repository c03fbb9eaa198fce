import json
import re
import time
import types
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kqkp import bnb, cli, cuts, generator, ipm, relaxation
from kqkp.bnb import SolverConfig, branch_and_prune, solve
from kqkp.generator import GenSpec
from kqkp.heuristics import Incumbent, primal_heuristic
from kqkp.instance import InfeasibleFix, Instance, dump, fix_variable, preprocess
from kqkp.oracle import enumerate_exact
from conftest import (K_LIGHTEST_CASES, all_cuts, k_lightest_instance, make_instance,
                      record_ipm_calls)
from _reference import face_optima, feasibility_branch_and_prune, glover_milp
from test_stats import traced_fixes

SDP_CFG = SolverConfig(bnp_root_k=0, bnp_node_k=0)


class TestBranchAndPrune:
    def test_equals_oracle_small_k(self):
        for seed in range(20):
            inst = make_instance(12, seed=seed)
            if inst.k > 5:
                inst = Instance(min(inst.k, 5), inst.a, inst.b, inst.C)
            out, finished = branch_and_prune(inst)
            assert finished and out.value == enumerate_exact(inst).value
            assert inst.is_feasible(out.x)

    def test_k_equals_n(self):
        a = np.array([1, 2, 3])
        inst = Instance(3, a, 6, np.ones((3, 3), dtype=np.int64))
        out, _ = branch_and_prune(inst)
        assert np.array_equal(out.x, [1, 1, 1])
        # one selection: below the thresholds the root's exact bound is the answer
        rep = solve(inst, SDP_CFG)
        assert np.array_equal(rep.best.x, [1, 1, 1])
        assert (rep.nodes, rep.evals, rep.root_bound) == (1, 0, rep.best.value)

    def test_floor_contract(self):
        inst = make_instance(8, seed=2)
        opt = enumerate_exact(inst).value
        assert branch_and_prune(inst, floor=opt) == (None, True)
        out, finished = branch_and_prune(inst, floor=opt - 1)
        assert finished and out.value == opt and inst.is_feasible(out.x)

    def test_time_limit_carries_only_selections_above_floor(self):
        # k = 10 of n = 100: the bounded search runs far past its first
        # deadline check, and the deadline has passed by then
        inst = make_instance(100, density=25, seed=12)
        assert inst.k == 10

        def stopped_at(floor):
            best, finished = branch_and_prune(inst, floor, deadline=time.perf_counter() - 1)
            assert not finished
            # the contract: None, or a feasible selection above the floor
            # whose value is its objective
            if best is not None:
                assert inst.is_feasible(best.x) and best.value == inst.objective(best.x)
                assert best.value > floor
            return best

        first = stopped_at(float("-inf"))
        assert first is not None
        for floor in (first.value - 1, first.value, first.value + 1):
            stopped_at(floor)

    def test_respects_offset(self):
        inst0 = make_instance(8, seed=3)
        inst = Instance(inst0.k, inst0.a, inst0.b, inst0.C, offset=42)
        out, _ = branch_and_prune(inst)
        assert out.value == enumerate_exact(inst0).value + 42

    def test_same_value_under_relabeling(self, rng):
        # the search relabels its items itself; its selection comes back in
        # the caller's labels
        for seed in range(12):
            base = make_instance(8 + seed % 9, density=(25, 50, 75, 100)[seed % 4], seed=seed)
            want = enumerate_exact(base).value
            for _ in range(3):
                perm = rng.permutation(base.n)
                inst = Instance(base.k, base.a[perm], base.b, base.C[np.ix_(perm, perm)])
                out, finished = branch_and_prune(inst)
                assert finished and out.value == want
                assert set(np.unique(out.x)) <= {0, 1} and out.x.sum() == inst.k
                assert inst.a @ out.x <= inst.b
                assert out.value == inst.objective(out.x)

    def test_gain_order(self):
        # root gains with k = 3: C_jj plus the two largest C_jq, q != j
        C = np.array([[1, 0, 0, 0, 0],
                      [0, 2, 3, 0, 4],
                      [0, 3, 9, 0, 0],
                      [0, 0, 0, 9, 0],
                      [0, 4, 0, 0, 5]])
        # gains 1, 9, 12, 9, 9: the largest first, then the ties in index order
        np.testing.assert_array_equal(bnb._gain_order(C, 3), [2, 1, 3, 4, 0])
        for seed in range(5):
            inst = make_instance(14, seed=seed)
            for k in (1, 2, inst.k, inst.n):
                root_gain = bnb._gain_table(inst.C, k)[0, -1]
                order = bnb._gain_order(inst.C, k)
                assert root_gain[order[0]] == root_gain.max()
                np.testing.assert_array_equal(order, np.argsort(-root_gain, kind="stable"))


@st.composite
def reduced_instances(draw):
    """Generator instances with n <= 16, optionally reduced by fixing up to
    three variables and shifted by an offset, at k in {1, 2, k, n}."""
    inst = make_instance(draw(st.sampled_from(range(3, 17))),
                         density=draw(st.sampled_from([25, 50, 75, 100])),
                         seed=draw(st.integers(0, 10 ** 6)))
    for _ in range(draw(st.integers(0, 3))):
        if inst.n <= 2:
            break
        try:
            inst = fix_variable(inst, draw(st.integers(0, inst.n - 1)),
                                draw(st.integers(0, 1)))
        except InfeasibleFix:
            break
    k = {"1": 1, "2": 2, "k": inst.k, "n": inst.n}[draw(st.sampled_from("12kn"))]
    offset = inst.offset + draw(st.sampled_from([0, 0, 17, 1000]))
    return Instance(k, inst.a, inst.b, inst.C, offset)


def _gain_ordered_reference(inst, floor=float("-inf")):
    """The feasibility-only search's selection over the items in gain
    order, in the instance's own labels, or None."""
    order = bnb._gain_order(inst.C, inst.k)
    relabeled = Instance(inst.k, inst.a[order], inst.b, inst.C[np.ix_(order, order)],
                         inst.offset)
    x = feasibility_branch_and_prune(relabeled, floor)
    if x is None:
        return None
    out = np.zeros_like(x)
    out[order] = x
    return out


def _assert_same_as_reference(inst):
    """branch_and_prune returns the feasibility-only search's selection over
    the items in gain order at the floors -inf, opt - 5, opt - 1 and opt."""
    x = _gain_ordered_reference(inst)
    if x is None:
        assert branch_and_prune(inst) == (None, True)
        return
    opt = inst.objective(x)
    for floor in (float("-inf"), opt - 5, opt - 1, opt):
        ref = _gain_ordered_reference(inst, floor)
        out, _ = branch_and_prune(inst, floor)
        if ref is None:
            assert out is None
        else:
            np.testing.assert_array_equal(out.x, ref)
            assert out.value == inst.objective(ref)


class TestBranchAndPruneReference:
    @given(reduced_instances())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_same_selection_as_feasibility_only_search(self, inst):
        _assert_same_as_reference(inst)

    @pytest.mark.parametrize("density", [25, 50, 75, 100])
    def test_same_selection_at_n16(self, density):
        # hypothesis favours small n; this covers n = 16 at every k choice,
        # with and without two variables fixed
        for seed in range(6):
            base = make_instance(16, density=density, seed=seed)
            for inst in (base, fix_variable(fix_variable(base, 3, 0), 0, 1)):
                for k in sorted({1, 2, inst.k, inst.n}):
                    _assert_same_as_reference(Instance(k, inst.a, inst.b, inst.C, inst.offset))


class TestSolve:
    def test_exact_on_bnp_path(self):
        for seed in range(15):
            inst = make_instance(13, seed=seed)
            rep = solve(inst)
            assert rep.status == bnb.STATUS_OPTIMAL
            assert rep.best.value == enumerate_exact(inst).value

    def test_exact_on_sdp_path(self):
        for seed in range(6):
            inst = make_instance(12, seed=seed)
            rep = solve(inst, SDP_CFG)
            opt = enumerate_exact(inst)
            assert rep.best.value == opt.value
            assert inst.is_feasible(rep.best.x)
            assert rep.root_bound >= opt.value - 1e-6

    def test_delegation_matches_full_search(self):
        for seed in range(5):
            inst = make_instance(14, seed=seed)
            assert solve(inst).best.value == solve(inst, SDP_CFG).best.value

    def test_permutation_invariant_value(self, rng):
        inst = make_instance(12, seed=4)
        perm = rng.permutation(inst.n)
        permuted = Instance(inst.k, inst.a[perm], inst.b,
                            inst.C[np.ix_(perm, perm)])
        assert solve(inst).best.value == solve(permuted).best.value

    def test_infeasible_instance(self):
        inst = Instance(4, np.array([5, 5, 5, 5]), 6,
                        np.zeros((4, 4), dtype=np.int64))
        rep = solve(inst)
        assert rep.status == bnb.STATUS_INFEASIBLE
        assert rep.best is None

    def test_trivial_k1(self):
        # k = 1 is a branch-and-prune leaf under the default thresholds and
        # otherwise the relaxation's exact bound, with no evaluation; either
        # is processed in the loop like every node, so the time limit
        # applies to it too
        inst = Instance(1, np.array([1, 1, 1]), 2,
                        np.diag([2, 7, 4]).astype(np.int64))
        for cfg, action in ((SolverConfig(), "bnp_leaf"), (SDP_CFG, "prune")):
            rep = solve(inst, cfg)
            assert rep.status == bnb.STATUS_OPTIMAL
            assert (rep.best.value, rep.evals) == (7, 0)
            assert len(rep.node_trace) == rep.nodes == 1
            assert rep.root_bound == rep.best.value
            # the row carries the bound the node proved
            assert rep.node_trace == [(0, 0, 7, action)]
        rep = solve(inst, SolverConfig(time_limit_s=0))
        assert rep.status == bnb.STATUS_TIME_LIMIT
        assert rep.best.value == 7

    def test_time_limit_status(self):
        inst = make_instance(40, density=75, seed=1)
        rep = solve(inst, SolverConfig(time_limit_s=0.2, bnp_root_k=0))
        assert rep.status in (bnb.STATUS_TIME_LIMIT, bnb.STATUS_OPTIMAL)
        if rep.status == bnb.STATUS_TIME_LIMIT:
            assert rep.best is not None  # incumbent still reported

    def test_zero_time_limit_stops_before_the_root(self):
        inst = make_instance(12, seed=0)
        rep = solve(inst, SolverConfig(time_limit_s=0, bnp_root_k=0, bnp_node_k=0))
        assert rep.status == bnb.STATUS_TIME_LIMIT
        assert rep.best.value == primal_heuristic(inst, preprocess(inst)).value
        assert inst.is_feasible(rep.best.x)
        assert not np.isfinite(rep.root_bound)
        assert rep.evals == 0

    def test_time_limit_stops_root_branch_and_prune(self):
        inst = make_instance(100, density=25, seed=12)
        assert inst.k <= SolverConfig().bnp_root_k  # the whole solve is B&P
        t0 = time.perf_counter()
        rep = solve(inst, SolverConfig(time_limit_s=0.5))
        assert time.perf_counter() - t0 < 1.5
        assert rep.status == bnb.STATUS_TIME_LIMIT
        assert inst.is_feasible(rep.best.x)
        assert rep.best.value == inst.objective(rep.best.x)
        assert not np.isfinite(rep.root_bound) and rep.open_bound == float("inf")
        # an unfinished leaf proves no bound, and its trace row says so
        assert rep.node_trace == [(0, 0, float("inf"), "bnp_leaf")]

    def test_report_consistency(self):
        inst = make_instance(12, seed=6)
        rep = solve(inst, SDP_CFG)
        if rep.best.value > 0:
            expect = 100.0 * (rep.root_bound - rep.best.value) / rep.best.value
            assert abs(rep.root_gap_percent - expect) < 1e-9
        assert rep.nodes >= 1
        assert rep.time_ms >= 0

    def test_trace_collected(self):
        inst = make_instance(12, seed=1)
        cfg = SolverConfig(bnp_root_k=0, bnp_node_k=0)
        rep = solve(inst, cfg)
        assert len(rep.node_trace) == rep.nodes
        # the root is processed in the loop like every node, so it is row 0
        depth, fixed_ones, bound, _ = rep.node_trace[0]
        assert (depth, fixed_ones, bound) == (0, 0, round(rep.root_bound, 3))

    def test_degenerate_root_cardinality(self):
        inst0 = make_instance(12, seed=10)
        b = int(np.sort(inst0.a)[:7].sum())
        inst = Instance(6, inst0.a, b, inst0.C)
        rep = solve(inst, SDP_CFG)
        assert rep.best.value == enumerate_exact(inst).value

    @pytest.mark.parametrize("name", sorted(K_LIGHTEST_CASES))
    def test_exact_when_capacity_is_k_lightest_weight(self, name):
        for seed in range(3):
            inst = k_lightest_instance(name, seed=seed)
            opt = enumerate_exact(inst).value
            for cfg in (SolverConfig(bnp_root_k=0), SDP_CFG):
                rep = solve(inst, cfg)
                assert rep.best.value == opt
                assert inst.is_feasible(rep.best.x)
                assert rep.root_bound >= opt - 1e-6

    def test_tightened_seed6_instance(self):
        inst0 = make_instance(12, seed=6)
        inst = Instance(inst0.k, inst0.a, inst0.b - 1, inst0.C)
        rep = solve(inst, SolverConfig(bnp_root_k=0))
        assert rep.best.value == enumerate_exact(inst).value == 1530
        assert rep.nodes == 1


class TestExactNodes:
    @pytest.mark.parametrize("name", ["all_tied_unique", "one_of_tie", "k0", "k1", "kn"])
    def test_dimension_zero_bound_runs_no_ipm(self, monkeypatch, name):
        base = make_instance(10, seed=2)
        cases = {"k0": Instance(0, base.a, base.b, base.C),
                 "k1": Instance(1, base.a, base.b, base.C),
                 "kn": Instance(base.n, base.a, int(base.a.sum()), base.C)}
        inst = cases[name] if name in cases else k_lightest_instance(name)
        assert relaxation.build(inst).dim == 0
        calls = record_ipm_calls(monkeypatch)
        some = all_cuts(inst.n)[::5]
        bound, x, evals, (cuts_, gamma), *_ = bnb.node_bound(
            inst, float("-inf"), bnb.ROOT_EVALS, pool=(some, np.ones(len(some))))
        opt = enumerate_exact(inst)
        assert (calls, evals, len(cuts_), len(gamma)) == ([], 0, 0, 0)
        assert bound == opt.value and isinstance(bound, int)
        assert inst.is_feasible(x) and inst.objective(x) == opt.value

    def test_k_equals_n_node_above_threshold_runs_no_branch_and_prune(self, monkeypatch):
        # n = 17, k = 16: the root fixes 8 items over three rounds and
        # branches, and its x = 0 child has k == n = 8, above bnp_node_k (with
        # the default of 5, the fixes send some node of every such draw tried
        # to branch-and-prune)
        base = make_instance(17, density=25, seed=8)
        inst = Instance(16, base.a, int(base.a.sum() - np.sort(base.a)[-5]), base.C)
        cfg = SDP_CFG
        bounded = []
        real = bnb.node_bound

        def node_bound(red, *args):
            out = real(red, *args)
            bounded.append((red.k, red.n, out[2]))
            return out

        def no_branch_and_prune(*args, **kwargs):
            raise AssertionError("branch_and_prune called")

        monkeypatch.setattr(bnb, "node_bound", node_bound)
        monkeypatch.setattr(bnb, "branch_and_prune", no_branch_and_prune)
        rep = solve(inst, cfg)
        assert (8, 8, 0) in bounded and 8 > cfg.bnp_node_k
        assert rep.best.value == enumerate_exact(inst).value


# n = 12-24 draws on which the face test excludes faces at opt - 1, with
# n == 2k (a dummy coordinate) and b == b' (items fixed by the reduction)
FACE_DRAWS = {
    **{f"n{n}_s{seed}": make_instance(n, seed=seed) for n, seed in
       ((16, 2), (16, 3), (18, 0), (18, 3), (20, 2), (22, 4), (24, 0))},
    "n_2k": replace(make_instance(16, seed=1), k=8),
    "k_lightest": k_lightest_instance("partial_tie"),
    "k_lightest_2k": k_lightest_instance("half_tie"),
}


class TestFaceTest:
    @pytest.mark.parametrize("name", list(FACE_DRAWS))
    def test_no_excluded_face_holds_a_selection_above_the_value(self, name):
        inst = FACE_DRAWS[name]
        best = face_optima(inst)
        opt = enumerate_exact(inst)
        assert best.max() == opt.value
        for value in (opt.value - 1, int(0.98 * opt.value)):
            *_, out, reason = bnb.node_bound(inst, value, bnb.NODE_EVALS, fixable=True)
            assert reason != "pruned" and not (out & (best > value)).any()
            if value == opt.value - 1:
                assert out.any()  # the test is not vacuous
                # the optimum's own faces hold a selection above opt - 1
                assert not out[np.arange(inst.n), opt.argmax].any()

    def test_dimension_zero_excludes_nothing(self):
        inst = k_lightest_instance("all_tied_unique")
        assert relaxation.build(inst).dim == 0
        assert not bnb.node_bound(inst, -1e9, bnb.NODE_EVALS, fixable=True)[4].any()

    def test_node_with_every_item_fixed_takes_the_selection_left(self, monkeypatch):
        # the heuristics find only the k lightest items, and the face test
        # excludes every face but the optimum's, so the root fixes all items
        inst = make_instance(10, seed=2)
        opt = enumerate_exact(inst)
        x = np.zeros(inst.n, dtype=np.int64)
        x[np.argsort(inst.a, kind="stable")[:inst.k]] = 1
        weak = Incumbent(x, inst.objective(x), "primal")
        assert inst.is_feasible(x) and weak.value < opt.value
        faces = np.zeros((inst.n, 2), dtype=bool)
        faces[np.arange(inst.n), 1 - opt.argmax] = True
        real = bnb.node_bound
        monkeypatch.setattr(bnb, "node_bound", lambda *args: (*real(*args)[:4], faces, "budget"))
        monkeypatch.setattr(bnb, "primal_heuristic", lambda *args: weak)
        monkeypatch.setattr(bnb, "varfix_heuristic", lambda *args: weak)
        rep = solve(inst, SDP_CFG)
        np.testing.assert_array_equal(rep.best.x, opt.argmax)
        assert rep.best.value == opt.value and rep.nodes == 1
        # the fixed root, with k = 0, is a branch-and-prune leaf
        assert rep.node_trace[0][3] == f"bnp_leaf fix {inst.n}"

    def test_fixed_nodes_stay_exact(self):
        # trees whose nodes fix items, traced as "branch x7 fix 12", or as
        # "bnp_leaf fix 12" where the fixes leave k <= bnp_node_k (n = 16
        # s5 and s6, n = 18 s6 under the default node threshold)
        kinds = set()
        for inst, cfg in [*((make_instance(14, seed=seed), SDP_CFG) for seed in range(6)),
                          *((make_instance(n, seed=seed), SolverConfig(bnp_root_k=0))
                            for n, seed in ((16, 5), (16, 6), (18, 6)))]:
            rep = solve(inst, cfg)
            assert rep.best.value == enumerate_exact(inst).value
            assert inst.is_feasible(rep.best.x)
            for _, _, _, action in rep.node_trace:
                if "fix" in action:
                    assert re.fullmatch(r"(branch x\d+|bnp_leaf) fix \d+", action)
                    kinds.add(action.split()[0])
        assert kinds == {"branch", "bnp_leaf"}


class TestFixRounds:
    def test_bounds_stay_valid_when_a_node_bounds_its_fixed_face(self, monkeypatch):
        # the root's rounds are the node bounds before its trace row
        events = []
        real_bound, real_trace = bnb.node_bound, bnb._trace

        def node_bound(red, *args):
            out = real_bound(red, *args)
            events.append((red.n, out[5]))
            return out

        def trace(*args):
            events.append(None)
            return real_trace(*args)

        monkeypatch.setattr(bnb, "node_bound", node_bound)
        monkeypatch.setattr(bnb, "_trace", trace)
        refixed = 0
        # the n10_d100_s10 root's fixed face bounds below the optimum, which
        # the incumbent already holds
        for n, density, seed in ((10, 100, 10), (14, 50, 2), (16, 50, 6), (18, 50, 3),
                                 (20, 50, 1), (22, 50, 4)):
            inst = make_instance(n, density, seed)
            events.clear()
            rep = solve(inst, SDP_CFG)
            opt = enumerate_exact(inst).value
            assert rep.status == bnb.STATUS_OPTIMAL
            assert rep.best.value == opt and inst.is_feasible(rep.best.x)
            assert rep.root_bound >= opt - 1e-6 and rep.open_bound >= opt - 1e-6
            assert rep.root_gap_percent >= 0
            root = events[:events.index(None)]
            if len(root) > 1 and root[0][1] == "fixable":
                assert root[1][0] < root[0][0]  # the second round bounds fewer items
                refixed += 1
        assert refixed > 0

    def test_face_test_at_the_stop_runs_once(self, monkeypatch):
        inst = make_instance(10, 100, 10)
        value = primal_heuristic(inst, preprocess(inst)).value
        calls = []
        real = ipm.face_bounds
        monkeypatch.setattr(ipm, "face_bounds", lambda *args: calls.append(1) or real(*args))
        *_, faces, reason = bnb.node_bound(inst, value, bnb.ROOT_EVALS, None, None, None, True)
        # the faces are the bundle's own test at the stop, not run again
        assert reason == "fixable" and len(calls) == 1 and faces.any()


class TestNodeChecks:
    def test_every_traced_node_fits_its_k(self, monkeypatch):
        # the root fixes 7 items and branches on x4; with item 4 taken, an
        # x4 = 1 child would have more items to choose than fit, so it is
        # never queued
        inst = make_instance(12, 75, 33)
        entered = []  # the instance of each traced node
        real = bnb._trace

        def trace(rows, node, action):
            entered.append(node.reduced)
            return real(rows, node, action)

        monkeypatch.setattr(bnb, "_trace", trace)
        rep = solve(inst, SDP_CFG)
        assert rep.best.value == enumerate_exact(inst).value
        assert len(entered) == rep.nodes > 1
        assert all(red.k <= preprocess(red).k_max for red in entered)

    def test_node_with_both_faces_of_an_item_excluded_is_pruned_before_fixing(
            self, monkeypatch):
        # item 0 has both faces excluded, every other item one face: the
        # root is pruned, and the face test fixes nothing
        inst = make_instance(10, seed=2)
        opt = enumerate_exact(inst)
        x = np.zeros(inst.n, dtype=np.int64)
        x[np.argsort(inst.a, kind="stable")[:inst.k]] = 1
        weak = Incumbent(x, inst.objective(x), "primal")
        assert weak.value < opt.value
        faces = np.zeros((inst.n, 2), dtype=bool)
        faces[np.arange(inst.n), 1 - opt.argmax] = True
        faces[0] = True
        fixed = []  # the items of every fix_variable call
        real_bound, real_fix = bnb.node_bound, bnb.fix_variable
        monkeypatch.setattr(bnb, "node_bound",
                            lambda *args: (*real_bound(*args)[:4], faces, "budget"))
        monkeypatch.setattr(bnb, "fix_variable",
                            lambda red, j, value: fixed.append(j) or real_fix(red, j, value))
        monkeypatch.setattr(bnb, "primal_heuristic", lambda *args: weak)
        monkeypatch.setattr(bnb, "varfix_heuristic", lambda *args: weak)
        rep = solve(inst, SDP_CFG)
        assert [row[3] for row in rep.node_trace] == ["prune"] and rep.nodes == 1
        assert "fixes" not in rep.stats and fixed == []

    @pytest.mark.parametrize("n, density, seed, how", [
        (13, 100, 34, "k_max"),  # the fixes leave more items to choose than fit
        (9, 25, 12, "raise"),  # fix_variable raises InfeasibleFix
    ])
    def test_node_whose_fixes_leave_no_selection_is_traced_prune(
            self, monkeypatch, n, density, seed, how):
        inst = make_instance(n, density, seed)
        events = []  # the face test's failed fixes and the trace rows, in order
        real_fix, real_trace = bnb.fix_variable, bnb._trace

        def fix_variable(red, j, value):
            try:
                out = real_fix(red, j, value)
            except InfeasibleFix:
                events.append("raise")
                raise
            if np.ndim(j) and out.k > preprocess(out).k_max:
                events.append("k_max")
            return out

        def trace(rows, node, action):
            events.append(action)
            return real_trace(rows, node, action)

        monkeypatch.setattr(bnb, "fix_variable", fix_variable)
        monkeypatch.setattr(bnb, "_trace", trace)
        rep = solve(inst, SDP_CFG)
        assert rep.best.value == enumerate_exact(inst).value
        # the row written after each failed fix is its node's
        rows = [events[i + 1] for i, event in enumerate(events) if event == how]
        assert rows and all(action == "prune" for action in rows)
        # the fixes of a pruned node, the failed round's included, are not counted
        assert rep.stats.get("fixes", 0) == traced_fixes(rep.node_trace)


class TestDeadlineInLeaf:
    @pytest.mark.parametrize("n, density, seed, action, beats", [
        (12, 50, 3, "bnp_leaf", True),  # a leaf entered with k <= bnp_node_k
        (20, 100, 34, "bnp_leaf fix 8", True),  # a leaf reached after fix rounds
        (20, 75, 19, "bnp_leaf fix 7", False),  # one with nothing above the incumbent
        (20, 50, 4, "bnp_leaf fix 6", False),  # the same at d = 50
        (15, 75, 0, "bnp_leaf fix 5", False),  # the same at n = 15
    ])
    def test_time_limit_stops_a_leaf_below_the_root(
            self, monkeypatch, n, density, seed, action, beats):
        # the root branches, and the first branch-and-prune leaf runs its
        # search to the end and then stops as if its deadline had passed
        inst = make_instance(n, density, seed)
        opt = enumerate_exact(inst).value
        real = bnb.branch_and_prune
        stops = []  # (floor, the stopped search's selection)

        def branch_and_prune(red, floor=float("-inf"), deadline=None):
            sub, finished = real(red, floor)
            assert finished
            stops.append((floor, sub))
            return sub, False

        monkeypatch.setattr(bnb, "branch_and_prune", branch_and_prune)
        rep = solve(inst, SolverConfig(bnp_root_k=0))
        assert rep.status == bnb.STATUS_TIME_LIMIT and len(stops) == 1
        assert rep.node_trace[0][3].startswith("branch")
        depth, _, bound, last = rep.node_trace[-1]
        assert depth > 0 and last == action
        # the stopped leaf stays open with its bound (rounded in the trace)
        assert rep.open_bound >= opt and rep.open_bound >= bound - 5e-4
        assert rep.root_bound >= opt
        assert inst.is_feasible(rep.best.x) and rep.best.value == inst.objective(rep.best.x)
        floor, sub = stops[0]
        assert (sub is not None) == beats
        # the stopped search's selection is kept when it beats the incumbent
        assert rep.best.value == (sub.value if beats else floor)


def _rank_one(x: np.ndarray) -> np.ndarray:
    """X = yy' with y = 2x - e: the relaxation point of a 0/1 vector."""
    y = 2.0 * x - 1.0
    return np.outer(y, y)


class TestPoolMaps:
    @pytest.mark.parametrize("inst", [
        make_instance(11, seed=2),  # every item a coordinate, no dummy
        replace(make_instance(12, seed=3), k=6),  # n == 2k: a dummy coordinate
        k_lightest_instance("partial_tie"),  # b == b': items fixed
        k_lightest_instance("half_tie"),  # b == b' and a face with n == 2k
    ], ids=["plain", "n_2k", "k_lightest", "k_lightest_2k"])
    def test_remap_keeps_the_slack_of_every_surviving_cut(self, inst, rng):
        n = inst.n
        items = all_cuts(n)
        gamma = rng.uniform(0, 1, len(items))
        # branching on x_v: v leaves, the items above it move down one
        for v in range(n):
            x = rng.integers(0, 2, n)  # x_v is the value the child fixes
            child, child_gamma = bnb._remap((items, gamma), np.insert(np.arange(n - 1), v, -1))
            on_v = (items[:, :3] == v).any(axis=1)
            np.testing.assert_array_equal(child_gamma, gamma[~on_v])
            np.testing.assert_array_equal(
                cuts.evaluate(child, _rank_one(np.delete(x, v))),
                cuts.evaluate(items[~on_v], _rank_one(x)))

        data = relaxation.build(inst)
        item = data.item_of_coord
        free = np.flatnonzero(data.coord_of_item >= 0)
        x = rng.integers(0, 2, n)
        # the relaxation point of x: its free items, the dummy at 0
        x_sdp = np.where(item >= 0, x[item], 0)
        on_free = np.isin(items[:, :3], free).all(axis=1)
        sdp, sdp_gamma = bnb._remap((items, gamma), data.coord_of_item)
        np.testing.assert_array_equal(sdp_gamma, gamma[on_free])
        np.testing.assert_array_equal(cuts.evaluate(sdp, _rank_one(x_sdp)),
                                      cuts.evaluate(items[on_free], _rank_one(x)))
        coords = all_cuts(data.dim)
        off_dummy = (item[coords[:, :3]] >= 0).all(axis=1)
        back, back_gamma = bnb._remap((coords, np.arange(len(coords))), item)
        np.testing.assert_array_equal(back_gamma, np.flatnonzero(off_dummy))
        np.testing.assert_array_equal(cuts.evaluate(back, _rank_one(x)),
                                      cuts.evaluate(coords[off_dummy], _rank_one(x_sdp)))
        assert (len(on_free) > on_free.sum()) == (len(free) < n)
        assert (len(off_dummy) > off_dummy.sum()) == (data.dim > len(free))


def _at_capacity(spec: GenSpec, slack: int) -> Instance:
    """The generator draw with b = b' + slack (b' the k lightest weights)."""
    inst = generator.generate(spec)
    return replace(inst, b=preprocess(inst).b_prime + slack)


# n = 14-16 draws whose SDP trees reach depth 2 or more; between them, warm
# pools pass through the b == b' reduction and the n == 2k dummy, both at
# once in b_prime_1_w2_s18, whose capacity b' + 1 some node meets
WARM_DRAWS = {
    "d50_s2_n14": make_instance(14, seed=2),
    "d50_s12_n16": make_instance(16, seed=12),
    "n_2k": replace(make_instance(16, seed=6), k=8),
    "b_prime_ties": _at_capacity(GenSpec(14, 50, 20, weight_range=(1, 2)), 0),
    "b_prime_2_w3_s2": _at_capacity(GenSpec(16, 50, 2, weight_range=(1, 3)), 2),
    "b_prime_1_w2_s18": _at_capacity(GenSpec(14, 50, 18, weight_range=(1, 2)), 1),
    "b_prime_1_w3_s18": _at_capacity(GenSpec(14, 50, 18, weight_range=(1, 3)), 1),
    "b_prime_1_w3_s28": _at_capacity(GenSpec(14, 50, 28, weight_range=(1, 3)), 1),
}


class TestWarmStartedSearch:
    def test_exact_with_inherited_pools(self, monkeypatch):
        maps = []  # (inherited rows, items fixed by b == b', dummy) per node bound
        data = None  # the relaxation of the node being bounded
        real_build, real_remap = relaxation.build, bnb._remap

        def build(inst):
            nonlocal data
            data = real_build(inst)
            return data

        def remap(pool, index):
            if data is not None and index is data.coord_of_item:  # items to coordinates
                maps.append((len(pool[0]), (index < 0).any(), (data.item_of_coord < 0).any()))
            return real_remap(pool, index)

        monkeypatch.setattr(relaxation, "build", build)
        monkeypatch.setattr(bnb, "_remap", remap)
        for name, inst in WARM_DRAWS.items():
            rep = solve(inst, SDP_CFG)
            assert rep.status == bnb.STATUS_OPTIMAL
            assert rep.best.value == enumerate_exact(inst).value, name
            assert rep.open_bound == rep.best.value
            assert inst.is_feasible(rep.best.x)
            assert max(row[0] for row in rep.node_trace) >= 2, name
        warm = [m for m in maps if m[0] > 0]
        assert any(fixed for _, fixed, _ in warm)
        assert any(dummy for _, _, dummy in warm)


# n = 28-30 draws beyond enumeration, as (spec, b - b' or None for the
# generator's b): three SDP trees, one of them again at b = b' + 2, and two
# that root branch-and-prune solves (k <= 10).  The d75/d100 draws tried
# were left out: their MILP took 3-47 s.
MILP_DRAWS = {
    "n28_d25_s9": (GenSpec(28, 25, 9), None),
    "n30_d25_s11": (GenSpec(30, 25, 11), None),
    "n30_d50_s7": (GenSpec(30, 50, 7), None),
    "n30_d50_s7_b_prime_2": (GenSpec(30, 50, 7), 2),
    "n28_d50_s2_b_prime_1": (GenSpec(28, 50, 2), 1),
    "n30_d25_s15": (GenSpec(30, 25, 15), None),
}


class TestAgainstMilp:
    @pytest.mark.parametrize("name", list(MILP_DRAWS))
    def test_solve_matches_glover_milp(self, name):
        spec, slack = MILP_DRAWS[name]
        inst = generator.generate(spec) if slack is None else _at_capacity(spec, slack)
        x = glover_milp(inst)
        assert inst.is_feasible(x)
        rep = solve(inst)
        assert rep.status == bnb.STATUS_OPTIMAL
        assert rep.best.value == inst.objective(x)
        assert inst.is_feasible(rep.best.x)
        # the draw takes the path its comment names
        assert (rep.evals > 0) == (inst.k > SolverConfig().bnp_root_k)


class TestIpmTolerance:
    def test_every_node_solves_to_ipm_tol(self, monkeypatch):
        # bundle.oracle_eval passes its own IPM_TOL, so it suffices that
        # every IPM call is one evaluation's
        calls = record_ipm_calls(monkeypatch)
        rep = solve(make_instance(14, seed=2), SDP_CFG)
        # a node below the root that branched ran its bundle
        assert any(depth >= 1 and action.startswith("branch")
                   for depth, _, _, action in rep.node_trace)
        assert len(calls) == rep.evals


class TestRootIpmCalls:
    def test_cut_shifted_root_costs_solve_to_optimal(self, monkeypatch, tmp_path, capsys):
        # the n = 40 d50 s1 root, bounded as `kqkp bound --mode sdpmet` does:
        # with a floor sigma >= 0.5 after a short step, its second IPM
        # stalled at relative gap 4e-2 (slow_progress) and the bundle
        # stopped after 2 evals
        statuses = []
        real = ipm.solve

        def spy(data, C, tol, start=None, cutoff=None):
            sol = real(data, C, tol, start, cutoff)
            statuses.append(sol.status)
            return sol

        monkeypatch.setattr(ipm, "solve", spy)
        path = tmp_path / "n40_d50_s1.txt"
        dump(generator.generate(GenSpec(40, 50, 1)), path)
        assert cli.main(["bound", str(path), "--mode", "sdpmet"]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["evals"] == bnb.ROOT_EVALS
        # every solve converges or meets its bundle's target, never stalls
        assert set(statuses) <= {ipm.OPTIMAL, ipm.CUTOFF} and ipm.CUTOFF in statuses


class TestOpenBound:
    def test_between_optimum_and_root_bound_when_stopped(self, monkeypatch):
        # a clock that jumps past the limit after the third node bound
        inst = make_instance(16, seed=6)
        skew = [0.0]
        monkeypatch.setattr(bnb, "time", types.SimpleNamespace(
            perf_counter=lambda: time.perf_counter() + skew[0]))
        real = bnb.node_bound
        calls = []

        def node_bound(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                skew[0] = 1e9
            return real(*args, **kwargs)

        monkeypatch.setattr(bnb, "node_bound", node_bound)
        rep = solve(inst, SolverConfig(time_limit_s=3600, bnp_root_k=0, bnp_node_k=0))
        assert rep.status == bnb.STATUS_TIME_LIMIT and len(calls) == 3
        opt = enumerate_exact(inst).value
        assert max(opt, rep.best.value) <= rep.open_bound <= rep.root_bound
        assert rep.open_bound < float("inf")
