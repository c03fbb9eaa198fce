import numpy as np
import pytest

from kqkp import ipm
from kqkp.instance import Instance
from kqkp.oracle import enumerate_exact
from kqkp.relaxation import build, extract_fractional
from _reference import CardinalityMismatch, feasible_X_from_binary
from conftest import K_LIGHTEST_CASES, k_lightest_face, k_lightest_instance, make_instance


def _random_feasible_x(rng, n, k):
    x = np.zeros(n, dtype=np.int64)
    x[rng.choice(n, size=k, replace=False)] = 1
    return x


class TestBuild:
    def test_objective_identity_on_binary_points(self, rng):
        # defining identity: <C_bar, X(x)> + const == f(x) on cardinality-k x
        inst = make_instance(11, seed=8)
        data = build(inst)
        for _ in range(100):
            x = _random_feasible_x(rng, inst.n, inst.k)
            X = feasible_X_from_binary(x, inst.k)
            lifted = float(np.tensordot(data.C_bar, X)) + data.const_term
            assert abs(lifted - inst.objective(x)) < 1e-9 * (1 + abs(lifted))

    def test_identity_with_offset(self, rng):
        inst0 = make_instance(11, seed=8)
        inst = Instance(inst0.k, inst0.a, inst0.b, inst0.C, offset=17)
        data = build(inst)
        x = _random_feasible_x(rng, inst.n, inst.k)
        X = feasible_X_from_binary(x, inst.k)
        assert abs(float(np.tensordot(data.C_bar, X)) + data.const_term
                   - inst.objective(x)) < 1e-9

    def test_a_bar_hand_evaluated(self):
        inst = Instance(2, np.array([2, 3, 4, 5, 6]), 8,
                        np.zeros((5, 5), dtype=np.int64))
        data = build(inst)
        assert np.allclose(data.a_bar, [-5, -4, -3, -2, -1])
        assert data.rhs_cap == (8 - 5) ** 2
        assert data.rhs_card == (2 * 2 - 5) ** 2

    def test_projection_annihilates_homogenized_e(self):
        # V'e_tilde == 0 with e_tilde = (n - 2k; e)
        inst = make_instance(9, seed=2)
        n, k = inst.n, inst.k
        V = np.vstack([np.full((1, n), 1.0 / (2 * k - n)), np.eye(n)])
        e_tilde = np.concatenate([[n - 2 * k], np.ones(n)])
        assert np.allclose(V.T @ e_tilde, 0)

    def test_n_equals_2k_is_padded_inside_build(self):
        # the projection scale 1/(2k-n) is undefined at n == 2k; build
        # appends a never-selectable dummy and hides its coordinate
        inst = make_instance(10, seed=5)
        inst = Instance(5, inst.a, int(np.sort(inst.a)[:6].sum()), inst.C)
        data = build(inst)
        assert data.dim == inst.n + 1
        sol = ipm.solve(data, data.C_bar, 1e-7)
        assert sol.status == ipm.OPTIMAL
        assert sol.certified_dual + data.const_term >= enumerate_exact(inst).value - 1e-6
        assert extract_fractional(sol.X, data).shape == (inst.n,)


class TestFeasibleX:
    def test_tiny_hand_example(self):
        X = feasible_X_from_binary(np.array([1, 0, 0]), 1)
        assert float(np.ones(3) @ X @ np.ones(3)) == (2 * 1 - 3) ** 2
        assert np.allclose(np.diag(X), 1)

    def test_cardinality_mismatch(self):
        with pytest.raises(CardinalityMismatch):
            feasible_X_from_binary(np.array([1, 1, 0]), 1)

    def test_all_feasible_x_satisfy_sdp_constraints(self, rng):
        inst = make_instance(8, seed=9)
        data = build(inst)
        from itertools import combinations
        for sel in combinations(range(inst.n), inst.k):
            x = np.zeros(inst.n, dtype=np.int64)
            x[list(sel)] = 1
            if inst.weight(x) > inst.b:
                continue
            X = feasible_X_from_binary(x, inst.k)
            assert np.allclose(np.diag(X), 1)
            assert abs(float(np.ones(inst.n) @ X @ np.ones(inst.n))
                       - data.rhs_card) < 1e-9
            assert float(data.a_bar @ X @ data.a_bar) <= data.rhs_cap + 1e-9
            assert np.linalg.eigvalsh(X)[0] >= -1e-12

    def test_capacity_cut_separates_some_infeasible_x(self):
        # the rank-one capacity constraint must reject at least one
        # over-capacity selection on some instance
        witnessed = False
        for seed in range(20):
            inst = make_instance(8, seed=seed)
            data = build(inst)
            from itertools import combinations
            for sel in combinations(range(inst.n), inst.k):
                x = np.zeros(inst.n, dtype=np.int64)
                x[list(sel)] = 1
                if inst.weight(x) <= inst.b:
                    continue
                X = feasible_X_from_binary(x, inst.k)
                if float(data.a_bar @ X @ data.a_bar) > data.rhs_cap + 1e-9:
                    witnessed = True
                    break
            if witnessed:
                break
        assert witnessed


class TestExtractFractional:
    def test_round_trip_on_rank_one(self, rng):
        inst = make_instance(10, seed=3)
        data = build(inst)
        for _ in range(20):
            x = _random_feasible_x(rng, inst.n, inst.k)
            X = feasible_X_from_binary(x, inst.k)
            assert np.allclose(extract_fractional(X, data), x, atol=1e-9)

    def test_range_clamped(self):
        inst = make_instance(7, seed=4)
        data = build(inst)
        X = 5.0 * np.ones((7, 7))  # wildly infeasible on purpose
        out = extract_fractional(X, data)
        assert (out >= 0).all() and (out <= 1).all()


def test_relaxation_dominates_optimum_by_enumeration():
    # max over rank-one feasible X of <C_bar, X> + const >= integer optimum
    inst = make_instance(9, seed=12)
    data = build(inst)
    opt = enumerate_exact(inst)
    from itertools import combinations
    best = -np.inf
    for sel in combinations(range(inst.n), inst.k):
        x = np.zeros(inst.n, dtype=np.int64)
        x[list(sel)] = 1
        if inst.weight(x) > inst.b:
            continue
        X = feasible_X_from_binary(x, inst.k)
        best = max(best, float(np.tensordot(data.C_bar, X)) + data.const_term)
    assert best >= opt.value - 1e-9


class TestKLightestReduction:
    """b == b': lighter items fixed to 1, heavier to 0, SDP on the tie class."""

    def test_seed6_tightened_instance_has_no_sdp_left(self):
        inst0 = make_instance(12, seed=6)
        inst = Instance(inst0.k, inst0.a, inst0.b - 1, inst0.C)
        data = build(inst)
        opt = enumerate_exact(inst)
        assert data.dim == 0
        assert data.const_term == opt.value
        x = extract_fractional(np.zeros((0, 0)), data)
        assert np.array_equal(x, opt.argmax)

    @pytest.mark.parametrize("name", sorted(K_LIGHTEST_CASES))
    def test_fixed_coordinates_and_capacity_row(self, name):
        inst = k_lightest_instance(name)
        lighter, tie, heavier, need = k_lightest_face(inst)
        data = build(inst)
        if need in (1, tie.sum()):
            # one selection, or one item of T to choose: solved exactly
            assert data.dim == 0
        else:
            # |T| == 2 need is padded after the reduction
            assert data.dim == tie.sum() + (tie.sum() == 2 * need)
            assert data.rhs_cap == 0.0
            assert np.array_equal(data.a_bar, np.zeros(data.dim))
        X = np.eye(data.dim)
        x = extract_fractional(X, data)
        assert x.shape == (inst.n,)
        assert (x[lighter] == 1).all() and (x[heavier] == 0).all()
        assert ((x[tie] >= 0) & (x[tie] <= 1)).all()

    @pytest.mark.parametrize("name", sorted(K_LIGHTEST_CASES))
    def test_objective_identity_on_the_face(self, name):
        # every feasible selection lifts to a point of the reduced SDP with
        # the same objective, and maps back to itself
        inst = k_lightest_instance(name, seed=4)
        data = build(inst)
        lighter, tie, heavier, need = k_lightest_face(inst)
        from itertools import combinations
        for sel in combinations(np.flatnonzero(tie), need):
            x = lighter.astype(np.int64)
            x[list(sel)] = 1
            assert inst.is_feasible(x)
            if data.dim == 0:
                assert data.const_term >= inst.objective(x)
                continue
            x_face = np.zeros(data.dim)
            x_face[: tie.sum()] = x[tie]
            X = feasible_X_from_binary(x_face, need)
            lifted = float(np.tensordot(data.C_bar, X)) + data.const_term
            assert abs(lifted - inst.objective(x)) < 1e-9 * (1 + abs(lifted))
            assert np.allclose(extract_fractional(X, data), x, atol=1e-9)

    def test_caller_padding_is_dropped_by_the_reduction(self):
        # a caller's zero-profit b+1 dummy on an n == 2k instance keeps
        # b == b'; the reduction fixes it to 0
        inst = Instance(3, np.array([10, 20, 20, 20, 20, 30]), 50,
                        make_instance(6, seed=1).C)
        C = np.zeros((7, 7), dtype=np.int64)
        C[:6, :6] = inst.C
        padded = Instance(3, np.append(inst.a, inst.b + 1), inst.b, C)
        data = build(padded)
        x = extract_fractional(np.eye(data.dim), data)
        assert x.shape == (7,) and x[-1] == 0 and x[0] == 1


class TestExactCases:
    def test_dimension_zero_or_at_least_three(self):
        # build decides every exact case: a relaxation of dimension 0 holds
        # the best selection and its value, and any other relaxation has a
        # triangle to cut with
        base = make_instance(10, seed=5)
        total = int(base.a.sum())
        heavy = Instance(1, np.array([5, 1, 9, 2]), 4, np.diag([3, 2, 8, 1]))
        cases = [
            Instance(0, base.a, base.b, base.C),
            Instance(1, base.a, base.b, base.C),
            Instance(base.n, base.a, total, base.C),
            heavy,  # the largest diagonal entry is on an item heavier than b
            Instance(0, np.array([10, 20]), 40, np.array([[3, 5], [5, 7]])),
            Instance(2, np.array([1, 2, 3]), 5, np.ones((3, 3), dtype=np.int64)),
            # n == 2k, with slack above b'
            Instance(5, base.a, int(np.sort(base.a)[:5].sum()) + 1, base.C),
        ]
        cases += [k_lightest_instance(name, seed) for name in sorted(K_LIGHTEST_CASES)
                  for seed in range(2)]
        dims = []
        for inst in cases:
            data = build(inst)
            dims.append(data.dim)
            assert data.dim == 0 or data.dim >= 3
            if data.dim == 0:
                opt = enumerate_exact(inst)
                assert data.const_term == opt.value
                assert inst.is_feasible(data.x_fixed)
                assert inst.objective(data.x_fixed) == opt.value
        assert dims[:7] == [0, 0, 0, 0, 0, 3, base.n + 1]
