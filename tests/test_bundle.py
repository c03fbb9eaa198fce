import numpy as np
import pytest

from kqkp import bundle, cuts, relaxation
from kqkp.bundle import minimize, oracle_eval
from kqkp.cuts import CutPool
from kqkp.oracle import enumerate_exact
from conftest import make_instance


def _data(inst):
    return relaxation.build(inst)


def _seeded_pool(data, n_cuts=40):
    from kqkp import ipm
    sol = ipm.solve(data, tol=1e-5)
    pool = CutPool(data.dim)
    pool.add(cuts.separate(sol.X, n_cuts))
    return pool


class TestOracleEval:
    def test_gamma_zero_equals_sdp_bound(self):
        from kqkp import ipm
        inst = make_instance(10, seed=2)
        data = _data(inst)
        pool = CutPool(data.dim)
        out = oracle_eval(pool, np.zeros(0), data, ipm_tol=1e-7)
        ref = ipm.solve(data, tol=1e-7).certified_dual + data.const_term
        assert abs(out.bound - ref) < 1e-4 * (1 + abs(out.bound))

    def test_negative_gamma_rejected(self):
        data = _data(make_instance(8, seed=0))
        pool = _seeded_pool(data, 5)
        if len(pool) == 0:
            pytest.skip("no violated cuts on this instance")
        with pytest.raises(ValueError):
            oracle_eval(pool, -np.ones(len(pool)), data, ipm_tol=1e-5)

    def test_bound_valid_for_random_gammas(self, rng):
        inst = make_instance(10, seed=3)
        data = _data(inst)
        opt = enumerate_exact(inst)
        pool = _seeded_pool(data)
        if len(pool) == 0:
            pytest.skip("no violated cuts on this instance")
        for _ in range(10):
            gamma = rng.uniform(0, 2, size=len(pool))
            out = oracle_eval(pool, gamma, data, ipm_tol=1e-5)
            assert out.bound >= opt.value - 1e-6

    def test_subgradient_inequality(self, rng):
        inst = make_instance(9, seed=6)
        data = _data(inst)
        pool = _seeded_pool(data)
        if len(pool) == 0:
            pytest.skip("no violated cuts on this instance")
        for _ in range(10):
            g1 = rng.uniform(0, 1, size=len(pool))
            g2 = rng.uniform(0, 1, size=len(pool))
            o1 = oracle_eval(pool, g1, data, ipm_tol=1e-7)
            o2 = oracle_eval(pool, g2, data, ipm_tol=1e-7)
            # f is a max of linear functions; each evaluation underestimates,
            # so allow the oracle's own tolerance
            assert o2.value >= o1.value + o1.g @ (g2 - g1) - 1e-4 * (1 + abs(o1.value))


class TestMinimize:
    def test_never_worse_than_sdp_bound(self):
        inst = make_instance(12, seed=1)
        data = _data(inst)
        pool = CutPool(data.dim)
        f0 = oracle_eval(pool, np.zeros(0), data, ipm_tol=1e-5).bound
        res = minimize(data, float("-inf"), max_evals=15, ipm_tol=1e-5)
        assert res.bound <= f0 + 1e-6

    def test_bound_valid_against_oracle(self):
        for seed in range(8):
            inst = make_instance(11, seed=seed)
            opt = enumerate_exact(inst)
            res = minimize(_data(inst), float("-inf"), max_evals=10, ipm_tol=1e-5)
            assert res.bound >= opt.value - 1e-6

    def test_prunes_against_lower_bound(self):
        inst = make_instance(12, seed=5)
        opt = enumerate_exact(inst)
        res = minimize(_data(inst), float(opt.value), max_evals=30, ipm_tol=1e-5)
        assert res.reason in ("pruned", "stalled", "budget", "no_cuts")
        assert res.bound >= opt.value - 1e-6
        if res.reason == "pruned":
            assert res.bound < opt.value + 1

    def test_descent_history_monotone(self):
        res = minimize(_data(make_instance(14, seed=3)), float("-inf"),
                       max_evals=20, ipm_tol=1e-5)
        hist = res.f_center_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_pool_hygiene(self):
        res = minimize(_data(make_instance(14, seed=7)), float("-inf"),
                       max_evals=25, ipm_tol=1e-5)
        pool = res.pool
        assert len(np.unique(pool.cuts, axis=0)) == len(pool.cuts)
        assert len(pool.gamma) == len(pool.cuts)
        assert (pool.gamma >= 0).all()
        assert len(pool) <= pool.capacity

    def test_eval_budget_respected(self):
        res = minimize(_data(make_instance(14, seed=2)), float("-inf"),
                       max_evals=6, ipm_tol=1e-5)
        assert res.evals <= 6

    def test_bound_samples_all_valid(self):
        inst = make_instance(10, seed=9)
        opt = enumerate_exact(inst)
        res = minimize(_data(inst), float("-inf"), max_evals=12, ipm_tol=1e-5)
        assert len(res.bound_samples) == res.evals
        assert all(b >= opt.value - 1e-6 for b in res.bound_samples)

    def test_deadline_stops_early(self):
        import time
        res = minimize(_data(make_instance(16, seed=1)), float("-inf"),
                       max_evals=50, ipm_tol=1e-5, deadline=time.perf_counter())
        assert res.evals <= 2
