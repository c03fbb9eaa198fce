import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kqkp import relaxation
from kqkp.heuristics import primal_heuristic, varfix_heuristic
from kqkp.instance import Instance, preprocess
from kqkp.ipm import solve as ipm_solve
from kqkp.oracle import enumerate_exact
from conftest import make_instance


def _root_fractional(inst):
    data = relaxation.build(inst)
    sol = ipm_solve(data, data.C_bar, 1e-5)
    return relaxation.extract_fractional(sol.X, data)


class TestPrimal:
    def test_diagonal_objective_picks_largest(self):
        C = np.diag([5, 1, 9, 7, 3]).astype(np.int64)
        inst = Instance(2, np.ones(5, dtype=np.int64), 4, C)
        inc = primal_heuristic(inst, preprocess(inst))
        assert sorted(np.nonzero(inc.x)[0].tolist()) == [2, 3]
        assert inc.value == 16

    def test_always_feasible_and_below_optimum(self):
        for seed in range(30):
            inst = make_instance(12, seed=seed)
            inc = primal_heuristic(inst, preprocess(inst))
            assert inst.is_feasible(inc.x)
            assert inc.value == inst.objective(inc.x)
            assert inc.value <= enumerate_exact(inst).value

    def test_average_quality(self):
        ratios = []
        for seed in range(60):
            inst = make_instance(12, density=50, seed=seed)
            inc = primal_heuristic(inst, preprocess(inst))
            opt = enumerate_exact(inst)
            if opt.value and opt.value > 0:
                ratios.append(inc.value / opt.value)
        assert np.mean(ratios) >= 0.9

    def test_deterministic(self):
        inst = make_instance(15, seed=8)
        a = primal_heuristic(inst, preprocess(inst))
        b = primal_heuristic(inst, preprocess(inst))
        assert np.array_equal(a.x, b.x) and a.value == b.value

    def test_runtime_at_n150(self):
        inst = make_instance(150, density=100, seed=1)
        prep = preprocess(inst)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            inc = primal_heuristic(inst, prep)
            best = min(best, time.perf_counter() - t0)
        assert best < 0.1
        assert inst.is_feasible(inc.x)


class TestVarfix:
    def test_binary_point_reproduced_at_least(self):
        inst = make_instance(10, seed=3)
        opt = enumerate_exact(inst)
        x_frac = opt.argmax.astype(float)
        out = varfix_heuristic(inst, preprocess(inst), x_frac)
        assert out.value >= opt.value  # and <= by optimality
        assert out.value == opt.value

    def test_never_worse_than_incumbent(self):
        inst = make_instance(12, seed=5)
        prep = preprocess(inst)
        inc = primal_heuristic(inst, prep)
        x_frac = _root_fractional(inst)
        out = varfix_heuristic(inst, prep, x_frac, inc)
        assert out.value >= inc.value
        assert inst.is_feasible(out.x)

    def test_head_to_head_with_primal(self):
        at_least_as_good = 0
        total = 0
        for seed in range(15):
            inst = make_instance(11, seed=seed)
            prep = preprocess(inst)
            inc = primal_heuristic(inst, prep)
            out = varfix_heuristic(inst, prep, _root_fractional(inst), inc)
            assert inst.is_feasible(out.x)
            total += 1
            if out.value >= inc.value:
                at_least_as_good += 1
        assert at_least_as_good == total  # guaranteed by construction

    def test_runtime_at_n150(self, rng):
        inst = make_instance(150, density=100, seed=2)
        prep = preprocess(inst)
        inc = primal_heuristic(inst, prep)
        x_frac = rng.uniform(0, 1, size=150)
        best = float("inf")
        for _ in range(3):  # best-of to shield against scheduler noise
            t0 = time.perf_counter()
            varfix_heuristic(inst, prep, x_frac, inc)
            best = min(best, time.perf_counter() - t0)
        assert best < 0.1

    def test_value_recomputes(self):
        inst = make_instance(12, seed=9)
        prep = preprocess(inst)
        out = varfix_heuristic(inst, prep, _root_fractional(inst))
        assert out.value == inst.objective(out.x)
        assert int(out.x.sum()) == inst.k
        assert inst.weight(out.x) <= inst.b


@st.composite
def tight_instances(draw):
    """Small instances at the edges of feasibility, with a random x_frac.

    Shapes: b == b' (only the k lightest fit), k == k_max, n == 2k, k = 1
    and any k <= k_max; weights and profits may be zero.
    """
    shape = draw(st.sampled_from(["b_prime", "k_max", "n_2k", "k1", "any"]))
    n = draw(st.integers(2, 12))
    if shape == "n_2k":
        n -= n % 2
        k = n // 2
    elif shape == "k1":
        k = 1
    else:
        k = draw(st.integers(0 if shape == "any" else 1, n))
    a = np.array(draw(st.lists(st.integers(0, 20), min_size=n, max_size=n)))
    upper = np.triu(np.array(draw(st.lists(st.integers(0, 30), min_size=n * n,
                                            max_size=n * n))).reshape(n, n))
    C = upper + np.triu(upper, 1).T
    light = np.cumsum(np.sort(a))
    b_prime = int(light[k - 1]) if k else 0
    if shape in ("b_prime", "n_2k"):
        b = b_prime
    elif shape == "k_max" and k < n:
        b = draw(st.integers(b_prime, max(b_prime, int(light[k]) - 1)))
    else:
        b = draw(st.integers(b_prime, int(a.sum())))
    x_frac = np.array(draw(st.lists(st.floats(0, 1), min_size=n, max_size=n)))
    return Instance(k, a, b, C), x_frac


class TestCompletionInvariant:
    """The greedy keeps its picks completable, so it always picks exactly k."""

    @given(tight_instances())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_k_items_feasible_and_valued(self, case):
        inst, x_frac = case
        prep = preprocess(inst)
        assert inst.k <= prep.k_max
        for out in (primal_heuristic(inst, prep), varfix_heuristic(inst, prep, x_frac)):
            assert int(out.x.sum()) == inst.k
            assert inst.is_feasible(out.x)
            assert out.value == inst.objective(out.x)
