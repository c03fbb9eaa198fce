import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kqkp import cuts, ipm, relaxation
from kqkp.cuts import adjoint_apply, evaluate, separate
from _reference import naive_separate
from conftest import all_cuts, make_instance


def rows(*cuts):
    return np.array(cuts, dtype=np.int64).reshape(-1, 4)


class TestEvaluate:
    def test_identity_matrix_all_slack_one(self):
        X = np.eye(5)
        assert np.allclose(evaluate(all_cuts(5), X), 1.0)

    def test_all_minus_one_offdiagonals(self):
        X = -np.ones((4, 4)) + 2 * np.eye(4)
        catalog = all_cuts(4)
        slack = evaluate(catalog, X)
        violated = catalog[slack < 0]
        assert len(violated) == 4  # one (+,+,+) cut per triple
        assert (violated[:, 3] == 0).all()

    def test_valid_on_all_sign_vectors(self):
        n = 6
        catalog = all_cuts(n)
        for bits in product([-1, 1], repeat=n):
            X = np.outer(bits, bits)
            assert (evaluate(catalog, X) >= 0).all()

    def test_empty_pool(self):
        assert evaluate(rows(), np.eye(3)).shape == (0,)


class TestSeparate:
    def test_identity_no_violations(self):
        assert separate(np.eye(6), 10).shape == (0, 4)

    def test_all_minus_one_returns_triple_cuts(self):
        X = -np.ones((4, 4)) + 2 * np.eye(4)
        out = separate(X, 2)
        assert len(out) == 2
        assert (out[:, 3] == 0).all()
        assert np.allclose(evaluate(out, X), -2.0)

    def test_prefix_of_full_sorted_scan(self):
        rng = np.random.default_rng(0)
        B = rng.standard_normal((8, 8))
        X = B @ B.T
        d = np.sqrt(np.diag(X))
        X = X / np.outer(d, d)
        full = separate(X, 10 ** 6)
        assert np.array_equal(separate(X, 5), full[:5])

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        B = rng.standard_normal((7, 7))
        X = B @ B.T / 7
        np.fill_diagonal(X, 1.0)
        assert np.array_equal(separate(X, 20), separate(X, 20))

    def test_exclusion(self):
        X = -np.ones((4, 4)) + 2 * np.eye(4)
        first = separate(X, 1)
        rest = separate(X, 10, exclude=first)
        assert not (rest == first[0]).all(axis=1).any()

    @pytest.mark.parametrize("n", [12, 20])
    def test_matches_naive_reference_on_ipm_solution(self, n):
        data = relaxation.build(make_instance(n, seed=3))
        X = ipm.solve(data, data.C_bar, 1e-5).X
        full = naive_separate(X, 10 ** 6)
        assert len(full) > 20
        for m in (1, 20, 10 ** 6):
            assert separate(X, m).tolist() == full[:m]
        exclude = full[1::3]
        expect = naive_separate(X, 10 ** 6, exclude=exclude)
        for m in (1, 20, 10 ** 6):
            out = separate(X, m, exclude=np.array(exclude, dtype=np.int64))
            assert out.tolist() == expect[:m]

    def test_tie_order_matches_naive_reference(self):
        # entries on a 0.5 grid make many slacks tie exactly, across
        # triples and across sign patterns of one triple
        rng = np.random.default_rng(0)
        X = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(9, 9))
        X = np.triu(X, 1) + np.triu(X, 1).T + np.eye(9)
        full = naive_separate(X, 10 ** 6)
        slack = evaluate(np.array(full), X)
        assert len(np.unique(slack)) < len(full) / 4
        assert separate(X, 10 ** 6).tolist() == full
        # separate sorts only the hits up to rank m + len(exclude); each case
        # puts that rank inside a class of tied slacks
        for m in (1, 3):
            for exclude in ([], full[1:3]):
                rank = m + len(exclude)
                assert slack[rank - 1] == slack[rank]
                out = separate(X, m, exclude=rows(*exclude) if exclude else None)
                assert out.tolist() == naive_separate(X, m, exclude=exclude)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_rows_distinct_and_outside_exclude(self, seed):
        # the bundle appends these rows to its pool without a check of its own
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 10))
        B = rng.uniform(-1.0, 1.0, size=(n, n))
        X = B + B.T
        if rng.random() < 0.5:  # a 0.5 grid makes slacks tie
            X = np.round(2 * X) / 2
        catalog = all_cuts(n)
        E = catalog[rng.integers(0, len(catalog), size=rng.integers(0, len(catalog) + 1))]
        out = separate(X, int(rng.integers(1, len(catalog) + 2)), exclude=E)
        assert len(np.unique(out, axis=0)) == len(out)
        assert not (out[:, None, :] == E[None, :, :]).all(axis=2).any()

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=80, deadline=None)
    def test_blocks_match_naive_reference(self, seed):
        # blocks of a few triples put block boundaries everywhere, the 0.5
        # grid makes slacks tie across them, and a small m + len(exclude)
        # cuts the running set back after most blocks
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 13))
        X = np.round(rng.uniform(-2.0, 2.0, size=(n, n))) / 2
        X = np.triu(X, 1) + np.triu(X, 1).T + np.eye(n)
        catalog = all_cuts(n)
        E = catalog[rng.permutation(len(catalog))[:rng.integers(0, len(catalog) // 2 + 1)]]
        m = int(rng.integers(1, 12) if rng.random() < 0.7 else rng.integers(1, len(catalog) + 2))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cuts, "BLOCK", int(rng.integers(1, 12)))
            out = separate(X, m, exclude=E)
        assert out.dtype == np.int64 and out.shape[1] == 4
        assert out.tolist() == naive_separate(X, m, exclude=E.tolist())

    @pytest.mark.parametrize("block", [1, 8, cuts.BLOCK])
    @pytest.mark.parametrize("m, excluded", [(5, 0), (3, 3), (30, 2)])
    def test_tie_class_across_blocks(self, monkeypatch, block, m, excluded):
        # the four (+,+,+) cuts on triples holding the pair (0, 5) have slack
        # -1 and the other sixteen -0.5; those sixteen have first indices 0
        # to 3, and at BLOCK 8 the 10 triples of first index 0 are a block
        # of their own
        n = 6
        X = np.full((n, n), -0.5)
        X[0, 5] = X[5, 0] = -1.0
        np.fill_diagonal(X, 1.0)
        full = naive_separate(X, 10 ** 6)
        assert len(full) == 20
        exclude = full[:excluded]
        rank = m + excluded
        if rank < len(full):  # the row at that rank ties with the next one
            slack = evaluate(np.array(full), X)
            assert slack[rank - 1] == slack[rank] == -0.5
        monkeypatch.setattr(cuts, "BLOCK", block)
        out = separate(X, m, exclude=rows(*exclude) if exclude else None)
        assert out.tolist() == naive_separate(X, m, exclude=exclude)
        assert len(out) == min(m, len(full) - excluded)

    def test_m_validation(self):
        with pytest.raises(ValueError):
            separate(np.eye(4), 0)


def correlation(n: int, seed: int) -> np.ndarray:
    """A random n x n correlation matrix of rank 3; many triangles fail."""
    B = np.random.default_rng(seed).standard_normal((n, 3))
    X = B @ B.T
    d = np.sqrt(np.diag(X))
    return X / np.outer(d, d)


class TestSeparateMemory:
    """The scan works in blocks, and no table kept between calls grows like
    n^3."""

    def test_peak_of_one_call_at_n150(self):
        X = correlation(150, 0)
        tracemalloc.start()
        try:
            out = separate(X, 750)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == 750
        assert peak < 8e6

    def test_memory_left_is_quadratic(self):
        mats = [correlation(n, n) for n in range(150, 142, -1)]
        tracemalloc.start()
        try:
            for X in mats:
                separate(X, 5 * len(X))
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # 16 bytes per entry of a 150 x 150 matrix at each of the 8 sizes;
        # the 3 * C(143,3) triple indices of one size alone take 11 MB
        assert left < 8 * 16 * 150 ** 2


class TestAdjoint:
    def test_zero_gamma(self):
        pool = all_cuts(5)
        assert np.allclose(adjoint_apply(pool, np.zeros(len(pool)), 5), 0)

    def test_single_cut_structure(self):
        G = adjoint_apply(rows(0, 2, 3, 0), np.array([1.0]), 5)
        assert np.allclose(G, G.T)
        assert np.count_nonzero(G) == 6
        assert np.allclose(np.abs(G[G != 0]), 0.5)
        assert np.allclose(np.diag(G), 0)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_adjoint_identity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 9))
        catalog = all_cuts(n)
        pick = rng.random(len(catalog)) < 0.5
        sel = catalog[pick]
        if len(sel) == 0:
            return
        gamma = rng.random(len(sel))
        B = rng.standard_normal((n, n))
        X = B + B.T
        lhs = float(np.tensordot(adjoint_apply(sel, gamma, n), X))
        # T(X) = 1 - slack per cut
        t_of_x = 1.0 - evaluate(sel, X)
        assert abs(lhs - float(gamma @ t_of_x)) < 1e-10 * (1 + abs(lhs))
