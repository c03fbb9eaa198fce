from dataclasses import replace
from importlib.machinery import PathFinder

import numpy as np
import pytest
from scipy.linalg import lapack

from kqkp import bnb, bundle, cuts, ipm, relaxation
from kqkp.instance import Instance, preprocess
from kqkp.ipm import _inv_factor, _max_step, assemble_schur, certify_dual, solve
from kqkp.oracle import enumerate_exact
from _reference import (dense_adjoint_op, dense_constraint_op, face_optima, naive_max_step,
                        naive_schur, random_spd, reference_direction, top_down_ladder)
from conftest import (K_LIGHTEST_CASES, all_cuts, k_lightest_face, k_lightest_instance,
                      make_instance)

TIGHT_TOL = 1e-7  # tighter than the pipeline's bundle.IPM_TOL, for the IPM-quality checks


def _data(inst):
    return relaxation.build(inst)


def _bound(inst):
    """Certified plain SDP bound in original objective units: ``bnb.node_bound``
    with one evaluation, its IPM solved to TIGHT_TOL; exact where the
    relaxation has dimension 0."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bundle, "IPM_TOL", TIGHT_TOL)
        bound, *_ = bnb.node_bound(inst, float("-inf"), max_evals=1)
    return bound


def _gap_and_residual(data, sol):
    """The relative gap and max(primal, dual) relative residual of a returned
    iterate, measured as ``solve`` measures them at the top of an iteration."""
    n, C = data.dim, data.C_bar
    rhs = np.concatenate([np.ones(n), [data.rhs_card], [data.rhs_cap]])
    B = np.column_stack([np.ones(n), data.a_bar])
    rp = rhs - ipm._constraint_op(sol.X, B)
    rp[n + 1] -= sol.s
    Rd = C - (ipm._adjoint_op(sol.y, B) - sol.Z)
    pobj = float(np.tensordot(C, sol.X))
    dobj = float(rhs @ sol.y)
    rp_rel = float(np.linalg.norm(rp)) / (1.0 + float(np.linalg.norm(rhs)))
    rd_rel = float(np.linalg.norm(Rd)) / (1.0 + float(np.linalg.norm(C)))
    return abs(pobj - dobj) / (1.0 + abs(dobj)), max(rp_rel, rd_rel)


class TestLapackLoad:
    @pytest.mark.parametrize("routine", ["dpotrf", "dtrtri", "dpotrs", "dsyevr"])
    def test_same_wrappers_as_scipy_linalg(self, routine):
        assert getattr(ipm.lapack, routine) is getattr(lapack, routine)

    def test_missing_extension_falls_back_to_scipy_linalg(self, monkeypatch):
        find_spec = PathFinder.find_spec

        def hide_flapack(name, path=None, target=None):
            return None if name == "scipy.linalg._flapack" else find_spec(name, path, target)

        monkeypatch.setattr(PathFinder, "find_spec", hide_flapack)
        assert ipm._load_lapack() is lapack


class TestSchurAssembly:
    def test_matches_naive_randomized(self, rng):
        for trial in range(100):
            n = int(rng.integers(5, 61))
            X = random_spd(rng, n)
            Z = random_spd(rng, n)
            Zi = np.linalg.inv(Z)
            Zi = 0.5 * (Zi + Zi.T)
            a_bar = rng.standard_normal(n)
            s = float(rng.uniform(0.1, 5))
            t = float(rng.uniform(0.1, 5))
            M_fast = assemble_schur(Zi, X, ipm._border(a_bar), s, t)
            M_ref = naive_schur(Zi, X, a_bar, s, t)
            scale = max(1.0, float(np.abs(M_ref).max()))
            assert np.abs(M_fast - M_ref).max() <= 1e-10 * scale
            # positive definite under HKM scaling: solve uses its Cholesky factor
            L, info = lapack.dpotrf(M_fast, lower=1)
            assert info == 0
            r = rng.standard_normal(n + 2)
            dy, info = lapack.dpotrs(L, r, lower=1)
            assert info == 0
            ref = np.linalg.solve(M_ref, r)
            assert np.abs(dy - ref).max() <= 1e-8 * max(1.0, float(np.abs(ref).max()))

    def test_symmetric(self, rng):
        n = 12
        X = random_spd(rng, n)
        Zi = np.linalg.inv(random_spd(rng, n))
        Zi = 0.5 * (Zi + Zi.T)
        M = assemble_schur(Zi, X, ipm._border(rng.standard_normal(n)), 1.0, 1.0)
        assert np.allclose(M, M.T)


class TestBorderOperators:
    def test_adjoint_pair_matches_dense_forms_randomized(self, rng):
        for trial in range(100):
            n = int(rng.integers(1, 41))
            W = rng.standard_normal((n, n))  # nonsymmetric
            y = rng.standard_normal(n + 2)
            a_bar = rng.standard_normal(n)
            B = np.column_stack([np.ones(n), a_bar])
            AW = ipm._constraint_op(W, B)
            Aty = ipm._adjoint_op(y, B)
            # <A(W), y> == <W, A'(y)>
            scale = float(np.abs(AW) @ np.abs(y))
            assert abs(AW @ y - np.vdot(W, Aty)) <= 1e-10 * scale
            ref = dense_constraint_op(W, a_bar)
            assert np.abs(AW - ref).max() <= 1e-10 * max(1.0, float(np.abs(ref).max()))
            ref = dense_adjoint_op(y, a_bar)
            assert np.abs(Aty - ref).max() <= 1e-10 * max(1.0, float(np.abs(ref).max()))


class TestStepLength:
    def test_matches_naive_reference_randomized(self, rng):
        for trial in range(100):
            n = int(rng.integers(2, 61))
            P = random_spd(rng, n)
            B = rng.standard_normal((n, n))
            dP = B + B.T
            got = _max_step(_inv_factor(P), dP, 1.0, 0.0)
            assert got == pytest.approx(naive_max_step(P, dP, 1.0, 0.0), rel=1e-9)

    def test_psd_direction_gives_inf(self, rng):
        P = random_spd(rng, 15)
        B = rng.standard_normal((15, 15))
        assert _max_step(_inv_factor(P), B @ B.T, 1.0, 0.0) == np.inf
        assert _max_step(_inv_factor(P), np.zeros((15, 15)), 1.0, 2.0) == np.inf

    def test_scalar_slack_caps_the_step(self, rng):
        P = random_spd(rng, 15)
        Li = _inv_factor(P)
        B = rng.standard_normal((15, 15))
        assert _max_step(Li, B @ B.T, 0.25, -0.5) == 0.5
        dP = B + B.T
        free = _max_step(Li, dP, 1.0, 0.0)
        assert _max_step(Li, dP, 1.0, -4.0 / free) == pytest.approx(0.25 * free)
        assert _max_step(Li, dP, 1.0, -0.25 / free) == free

    def test_inverse_factor_gives_inverse(self, rng):
        for n in (1, 2, 17, 60):
            Z = random_spd(rng, n)
            Li = _inv_factor(Z)
            assert np.array_equal(Li, np.tril(Li))
            Zi = np.linalg.inv(Z)
            assert np.abs(Li.T @ Li - Zi).max() <= 1e-12 * np.abs(Zi).max()
        with pytest.raises(np.linalg.LinAlgError):
            _inv_factor(np.diag([1.0, -1.0, 2.0]))

    def test_failed_primal_factorization_ends_as_slow_progress(self, monkeypatch):
        # X is only factored by a step length's fallback below the last rung.
        # A start X + E whose E has a zero diagonal and E B = 0 leaves the
        # Schur matrix of the cold start unchanged, but makes X indefinite:
        # every rung of the predictor's X step fails, and so does the
        # fallback's factorization of X
        cold_point = ipm._cold_point

        def indefinite(data, C):
            X, s, y, Z, t = cold_point(data, C)
            n = data.dim
            B = ipm._border(data.a_bar)
            half = n // 2
            w, u = np.zeros(n), np.zeros(n)
            w[:half] = np.linalg.svd(B[:half].T)[2][-1]
            u[half:] = np.linalg.svd(B[half:].T)[2][-1]
            E = 10.0 * (np.outer(w, u) + np.outer(u, w))
            assert np.abs(E @ B).max() <= 1e-12 and not E.diagonal().any()
            return X + E, s, y, Z, t

        factored = []
        inv_factor = ipm._inv_factor
        monkeypatch.setattr(ipm, "_cold_point", indefinite)
        monkeypatch.setattr(ipm, "_inv_factor", lambda P: factored.append(P) or inv_factor(P))
        data = _data(make_instance(10, seed=0))
        X0 = indefinite(data, data.C_bar)[0]
        assert np.linalg.eigvalsh(X0)[0] < 0
        sol = solve(data, data.C_bar, TIGHT_TOL)
        assert sol.status == ipm.SLOW_PROGRESS and sol.iterations == 0
        # Z, then X in the fallback, which raises
        assert len(factored) == 2 and np.array_equal(factored[1], X0)
        assert np.isfinite(sol.certified_dual)

    @pytest.mark.parametrize("fill", [-1.0, np.nan], ids=["indefinite", "nan"])
    def test_failed_schur_factorization_ends_as_slow_progress(self, monkeypatch, fill):
        # dpotrf returns info 0 on NaNs, so the NaN case checks that the
        # solve stops at the factorization, before any step-length test
        monkeypatch.setattr(ipm, "assemble_schur",
                            lambda Zi, X, B, s, t: fill * np.eye(X.shape[0] + 2))
        steps, rungs = [], []
        max_step, ladder = ipm._max_step, ipm._ladder
        monkeypatch.setattr(ipm, "_max_step", lambda *a: steps.append(a) or max_step(*a))
        monkeypatch.setattr(ipm, "_ladder", lambda *a: rungs.append(a) or ladder(*a))
        data = _data(make_instance(10, seed=0))
        sol = solve(data, data.C_bar, TIGHT_TOL)
        assert sol.status == ipm.SLOW_PROGRESS and sol.iterations == 0
        assert not steps and not rungs
        assert np.isfinite(sol.certified_dual)


def _direction_with_step(rng, P, alpha):
    """A random symmetric dP whose exact step from P is alpha."""
    B = rng.standard_normal(P.shape)
    dP = B + B.T
    return dP * (naive_max_step(P, dP, 1.0, 0.0) / alpha)


def _ladder_step(P, dP, scal, dscal):
    """The predictor's step length from a search that starts at rung 0."""
    return ipm._ladder(P, dP, scal, dscal)[0]


def _corrector_step(P, dP, scal, dscal):
    """The corrector's step length from a search that starts at rung 0."""
    return ipm._corrector_step(P, dP, scal, dscal)[0]


class TestLadderStep:
    def test_largest_rung_below_the_exact_step_randomized(self, rng):
        taken = set()
        for trial in range(200):
            n = int(rng.integers(2, 41))
            P = random_spd(rng, n)
            dP = _direction_with_step(rng, P, 10 ** rng.uniform(-2, 0.5))
            exact = naive_max_step(P, dP, 1.0, 0.0)
            if min(abs(a - exact) for a in ipm.LADDER) <= 1e-9 * exact:
                continue  # a rung on the boundary: the test could go either way
            got = _ladder_step(P, dP, 1.0, 0.0)
            below = [a for a in ipm.LADDER if a < exact]
            if below:
                assert got == below[0]
            else:
                assert got == pytest.approx(exact, rel=1e-9)
            taken.add(got if below else "exact")
        assert taken == {*ipm.LADDER, "exact"}

    def test_psd_direction_gives_one(self, rng):
        P = random_spd(rng, 15)
        B = rng.standard_normal((15, 15))
        for step in (_ladder_step, _corrector_step):
            assert step(P, B @ B.T, 1.0, 0.0) == 1.0
            assert step(P, np.zeros((15, 15)), 1.0, 2.0) == 1.0

    def test_scalar_slack_caps_the_rung(self, rng):
        P = random_spd(rng, 15)
        B = rng.standard_normal((15, 15))
        psd = B @ B.T
        dP = _direction_with_step(rng, P, 0.75)
        for step in (_ladder_step, _corrector_step):
            assert step(P, psd, 0.5, -1.0) == 0.4
            assert step(P, psd, 0.6, -1.0) == 0.6  # a rung on the cap is kept
            assert step(P, psd, 0.03, -1.0) == pytest.approx(0.03)
            assert step(P, dP, 0.5, -1.0) == 0.4
            assert step(P, dP, 0.65, -1.0) == 0.6  # the rung above is over the cap
        assert _ladder_step(P, dP, 0.9, -1.0) == 0.6
        assert _corrector_step(P, dP, 0.9, -1.0) == 0.7  # 0.8 failed, 0.7 passes
        assert _corrector_step(P, dP, 0.8, -1.0) == 0.7

    def test_nan_direction_passes_no_rung(self, monkeypatch, rng):
        P = random_spd(rng, 8)
        rungs = []
        cholesky = ipm._cholesky
        monkeypatch.setattr(ipm, "_cholesky", lambda M: rungs.append(M) or cholesky(M))
        monkeypatch.setattr(ipm, "_max_step", lambda *a: 0.01)
        for step in (_ladder_step, _corrector_step):
            rungs.clear()
            assert step(P, np.full((8, 8), np.nan), 1.0, 0.0) == 0.01
            # every rung, then the fallback's factorization of P
            assert len(rungs) == len(ipm.LADDER) + 1

    def test_every_start_gives_the_top_down_result_randomized(self, rng):
        # P + a dP is pd on an interval of a, so where the search starts
        # does not change the rung it returns or the failed rung above it
        rungs = len(ipm.LADDER)
        taken, capped = set(), 0
        for trial in range(150):
            n = int(rng.integers(4, 31))
            P = random_spd(rng, n)
            dP = _direction_with_step(rng, P, 10 ** rng.uniform(-2, 0.5))
            if not np.isfinite(dP).all():
                continue  # a psd direction, which has no exact step to scale
            exact = naive_max_step(P, dP, 1.0, 0.0)
            if min(abs(a - exact) for a in ipm.LADDER) <= 1e-9 * exact:
                continue  # a rung on the boundary: the test could go either way
            # a scalar cap between two rungs, below the last, or none
            cap = rng.choice([rng.uniform(0.03, 1.2), rng.uniform(0.001, 0.05), np.inf])
            scal, dscal = (1.0, 0.0) if cap == np.inf else (cap, -1.0)
            capped += cap < 1.0
            want_a, want_b = top_down_ladder(P, dP, scal, dscal, ipm.LADDER)
            for start in range(rungs):
                a, b, i = ipm._ladder(P, dP, scal, dscal, start)
                assert a == pytest.approx(want_a, rel=1e-9) and b == want_b
                assert i == (ipm.LADDER.index(a) if a in ipm.LADDER else rungs)
                taken.add(i)
        assert taken == set(range(rungs + 1)) and capped > 30

    def test_every_start_walks_from_its_rung(self, monkeypatch, rng):
        # a direction with exact step 0.7 passes rungs 0.6 (index 3) and
        # below: from index j the search tests rungs j, j-1, ..., 2 when j
        # passes, and j, j+1, ..., 3 when it fails
        P = random_spd(rng, 12)
        dP = _direction_with_step(rng, P, 0.7)
        tested = []
        is_pd = ipm._is_pd
        monkeypatch.setattr(ipm, "_is_pd", lambda M: tested.append(M) or is_pd(M))
        for start in range(len(ipm.LADDER)):
            tested.clear()
            assert ipm._ladder(P, dP, 1.0, 0.0, start) == (0.6, 0.8, 3)
            assert len(tested) == (start - 1 if start >= 3 else 4 - start)
        # NaN passes no rung from any start: the rungs from it, then the fallback
        monkeypatch.setattr(ipm, "_max_step", lambda *a: 0.01)
        for start in range(len(ipm.LADDER)):
            tested.clear()
            assert ipm._ladder(P, np.full((12, 12), np.nan), 1.0, 0.0, start) \
                == (0.01, None, len(ipm.LADDER))
            assert len(tested) == len(ipm.LADDER) - start

    def test_corrector_within_half_a_rung_gap_randomized(self, rng):
        midpoints = 0
        for trial in range(200):
            n = int(rng.integers(2, 41))
            P = random_spd(rng, n)
            dP = _direction_with_step(rng, P, 10 ** rng.uniform(-2, 0.5))
            exact = naive_max_step(P, dP, 1.0, 0.0)
            got = _corrector_step(P, dP, 1.0, 0.0)
            if exact < ipm.LADDER[-1]:
                assert got == pytest.approx(exact, rel=1e-9)
                continue
            assert got <= min(1.0, exact) and ipm._is_pd(P + got * dP)
            if exact >= 1.0:
                assert got == 1.0
                continue
            # exact lies in [lo, hi) for two adjacent rungs
            hi = min(a for a in ipm.LADDER if a > exact)
            lo = max(a for a in ipm.LADDER if a <= exact)
            assert exact - got <= 0.5 * (hi - lo)
            midpoints += got == 0.5 * (hi + lo)
        assert midpoints > 20

    def test_eigenvalue_calls_only_below_the_last_rung(self, monkeypatch):
        # each iteration factors Z once, for the Schur matrix; X is factored,
        # and an eigenvalue computed, only in a step length's fallback below
        # the last rung, and in a certificate whose Cholesky test failed
        calls = {"lambda_min": 0, "inv_factor": 0, "fallback": 0}

        def spy(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(ipm, fn.__name__, counted)

        spy("lambda_min", ipm._lambda_min)
        spy("inv_factor", ipm._inv_factor)
        spy("fallback", ipm._max_step)
        tests, certificates = [], []  # (Cholesky tests, eigenvalue calls) per certificate
        is_pd, certify = ipm._is_pd, ipm.certify_dual
        monkeypatch.setattr(ipm, "_is_pd", lambda M: tests.append(is_pd(M)) or tests[-1])

        def certificate(*args):
            seen, eigs = len(tests), calls["lambda_min"]
            value = certify(*args)
            certificates.append((tests[seen:], calls["lambda_min"] - eigs))
            return value

        monkeypatch.setattr(ipm, "certify_dual", certificate)
        iterations = 0
        for seed in range(4):
            data = _data(make_instance(20, seed=seed))
            sol = solve(data, data.C_bar, TIGHT_TOL)
            assert sol.status == ipm.OPTIMAL and sol.iterations > 5
            iterations += sol.iterations
        # one Cholesky test per certificate, and an eigenvalue call only if it failed
        assert [(len(t), e) for t, e in certificates] == [(1, 1 - t[0]) for t, _ in certificates]
        assert len(certificates) == 4
        failed = sum(e for _, e in certificates)
        assert calls["lambda_min"] == calls["fallback"] + failed
        assert calls["inv_factor"] == iterations + calls["fallback"]
        assert calls["fallback"] <= iterations  # of 4 step lengths per iteration

    def test_every_iterate_is_interior(self, monkeypatch):
        # the iterate that starts iteration m is the one a solve capped at m
        # iterations returns
        for n, seed in ((20, 1), (30, 2), (40, 3)):
            data = _data(make_instance(n, seed=seed))
            last = solve(data, data.C_bar, TIGHT_TOL).iterations
            for m in range(1, last + 1):
                monkeypatch.setattr(ipm, "MAX_ITER", m)
                sol = solve(data, data.C_bar, TIGHT_TOL)
                assert ipm._is_pd(sol.X) and ipm._is_pd(sol.Z)
                assert sol.s > 0 and sol.t > 0
            monkeypatch.undo()


class TestSolve:
    def test_tiny_forced_capacity_instance(self):
        # b' == b makes the capacity cut <A, X> <= 0
        inst = Instance(2, np.array([1, 1, 1]), 2,
                        np.array([[1, 2, 0], [2, 1, 1], [0, 1, 3]]))
        assert _data(inst).rhs_cap == 0.0
        opt = enumerate_exact(inst)
        assert _bound(inst) >= opt.value - 1e-6

    def test_zero_cost(self):
        inst = make_instance(8, seed=1)
        data = _data(inst)
        sol = solve(data, np.zeros((8, 8)), TIGHT_TOL)
        assert abs(sol.primal_obj) < 1e-5
        assert sol.certified_dual + data.const_term >= -1e-6

    def test_bound_dominates_oracle(self):
        for seed in range(20):
            inst = make_instance(10, seed=seed)
            opt = enumerate_exact(inst)
            assert _bound(inst) >= opt.value - 1e-6

    def test_tighter_capacity_never_raises_bound(self):
        hits = 0
        for seed in range(10):
            inst = make_instance(12, seed=seed)
            prep = preprocess(inst)
            if inst.b - 1 < prep.b_prime or inst.b - 1 < int(inst.a.max()):
                continue
            tight = Instance(inst.k, inst.a, inst.b - 1, inst.C)
            if preprocess(tight).k_max < inst.k:
                continue
            assert _bound(tight) <= _bound(inst) + 1e-5
            hits += 1
        assert hits >= 3

    def test_optimal_solution_residuals(self):
        inst = make_instance(20, seed=2)
        data = _data(inst)
        sol = solve(data, data.C_bar, 1e-7)
        assert sol.status == ipm.OPTIMAL
        n = data.dim
        e = np.ones(n)
        assert np.abs(np.diag(sol.X) - 1).max() <= 1e-6
        assert abs(float(e @ sol.X @ e) - data.rhs_card) <= 1e-6
        assert float(data.a_bar @ sol.X @ data.a_bar) <= data.rhs_cap + 1e-6
        assert np.linalg.eigvalsh(sol.X)[0] >= -1e-7
        assert np.linalg.eigvalsh(sol.Z)[0] >= -1e-7
        assert sol.s >= -1e-7 and sol.t >= -1e-7
        # dual feasibility: Diag(y) + y_E E + y_A A - Z == C_bar
        Zc = np.diag(sol.y[:n]) + sol.y[n] * np.ones((n, n)) \
            + sol.y[n + 1] * np.outer(data.a_bar, data.a_bar) - sol.Z
        assert np.abs(Zc - data.C_bar).max() <= 1e-5 * (1 + np.abs(data.C_bar).max())

    def test_relgap_below_tolerance(self):
        inst = make_instance(30, seed=3)
        data = _data(inst)
        sol = solve(data, data.C_bar, 1e-7)
        assert sol.status == ipm.OPTIMAL
        rel = abs(sol.primal_obj - sol.dual_obj) / (1 + abs(sol.dual_obj))
        assert rel <= 1e-7

    def test_gap_monotone_once_feasible(self, monkeypatch):
        # the gap proxy |pobj - dobj| is meaningful only after the primal
        # residual is small; count increases from that point on.  The iterate
        # that starts iteration m is the one a solve capped at m iterations
        # returns.
        for seed in range(8):
            data = _data(make_instance(25, seed=seed))
            last = min(solve(data, data.C_bar, 1e-7).iterations, ipm.MAX_ITER - 1)
            gaps, feas = [], []
            for m in range(last + 1):
                monkeypatch.setattr(ipm, "MAX_ITER", m)
                gap, res = _gap_and_residual(data, solve(data, data.C_bar, 1e-7))
                gaps.append(gap)
                feas.append(res)
            monkeypatch.undo()
            start = next((i for i, f in enumerate(feas) if f <= 1e-4), len(gaps))
            tail = gaps[start:]
            ups = sum(1 for p, q in zip(tail, tail[1:]) if q > p * (1 + 1e-12))
            steps = max(1, len(tail) - 1)
            assert ups <= max(1, round(0.05 * steps))

    def test_certified_dual_valid_at_loose_tol(self):
        for seed in range(10):
            inst = make_instance(10, seed=seed)
            data = _data(inst)
            sol = solve(data, data.C_bar, 1e-2)
            opt = enumerate_exact(inst)
            assert sol.certified_dual + data.const_term >= opt.value - 1e-6

    def test_cost_override_shape_checked(self):
        data = _data(make_instance(8, seed=0))
        with pytest.raises(ValueError):
            solve(data, np.zeros((3, 3)), TIGHT_TOL)


def _shifted_cost(data, rng):
    """C_bar - T'(gamma) on the triangle cuts violated at the plain SDP
    optimum, at random multipliers: a cost the bundle could pass."""
    pool = cuts.separate(solve(data, data.C_bar, bundle.IPM_TOL).X, 40)
    assert len(pool) > 0
    gamma = rng.uniform(0, 0.5, size=len(pool))
    return data.C_bar - cuts.adjoint_apply(pool, gamma, data.dim)


class TestRestart:
    def test_restart_on_a_shifted_cost(self, rng):
        for seed in range(4):
            data = _data(make_instance(20, seed=seed))
            first = solve(data, data.C_bar, bundle.IPM_TOL)
            assert first.restart is not None
            C = _shifted_cost(data, rng)
            cold = solve(data, C, bundle.IPM_TOL)
            warm = solve(data, C, bundle.IPM_TOL, first.restart)
            assert warm.status == ipm.OPTIMAL
            assert warm.iterations < cold.iterations
            assert abs(warm.dual_obj - cold.dual_obj) <= 1e-3 * (1 + abs(cold.dual_obj))

    def test_restart_keeps_the_stored_iterate(self):
        data = _data(make_instance(16, seed=2))
        sol = solve(data, data.C_bar, bundle.IPM_TOL)
        X, s, y, Z, t, C = sol.restart
        assert C is data.C_bar
        assert X is not sol.X and Z is not sol.Z  # an iterate before the last
        assert np.linalg.eigvalsh(X)[0] > 0 and np.linalg.eigvalsh(Z)[0] > 0
        assert s > 0 and t > 0

    def test_restarted_oracle_bounds_valid(self, rng):
        inst = make_instance(12, seed=4)
        data = _data(inst)
        opt = enumerate_exact(inst).value
        pool = cuts.separate(solve(data, data.C_bar, bundle.IPM_TOL).X, 40)
        out = bundle.oracle_eval(pool, np.zeros(len(pool)), data)
        for _ in range(15):
            start = out.restart
            assert start is not None
            out = bundle.oracle_eval(pool, rng.uniform(0, 3, size=len(pool)), data, start)
            assert out.bound >= opt - 1e-6

    def test_failed_restart_reruns_cold(self, monkeypatch, rng):
        data = _data(make_instance(20, seed=1))
        start = solve(data, data.C_bar, bundle.IPM_TOL).restart
        C = _shifted_cost(data, rng)
        cold = solve(data, C, bundle.IPM_TOL)
        monkeypatch.setattr(ipm, "WARM_MAX_ITER", 1)
        sol = solve(data, C, bundle.IPM_TOL, start)
        assert sol.status == cold.status == ipm.OPTIMAL
        np.testing.assert_array_equal(sol.X, cold.X)
        assert sol.certified_dual == cold.certified_dual
        assert sol.iterations == 1 + cold.iterations


class TestKLightestFace:
    """b == b' is reduced to the k-lightest face before the SDP is built."""

    def test_tightened_seed6_instance_is_exact(self):
        # the b - 1 == b' instance of test_tighter_capacity_never_raises_bound;
        # its 8th-lightest weight is unique, so the k lightest items are forced
        inst = make_instance(12, seed=6)
        tight = Instance(inst.k, inst.a, inst.b - 1, inst.C)
        assert tight.b == preprocess(tight).b_prime
        assert enumerate_exact(tight).value == 1530
        assert _bound(tight) == 1530

    @pytest.mark.parametrize("name", sorted(K_LIGHTEST_CASES))
    def test_bound_valid_and_solved_to_optimality(self, name):
        for seed in range(3):
            inst = k_lightest_instance(name, seed=seed)
            opt = enumerate_exact(inst).value
            val = _bound(inst)
            assert val >= opt - 1e-6
            _, tie, _, need = k_lightest_face(inst)
            if need in (1, tie.sum()):
                # one selection, or the best single item of the tie class
                assert val == opt
            else:
                data = _data(inst)
                assert solve(data, data.C_bar, TIGHT_TOL).status == ipm.OPTIMAL

    def test_zero_dimensional_relaxation(self):
        inst = k_lightest_instance("all_tied_unique")
        data = _data(inst)
        assert data.dim == 0
        assert _bound(inst) == data.const_term == enumerate_exact(inst).value


class TestDirection:
    def test_folded_direction_matches_the_old_formula_randomized(self, rng):
        # random interior points: X, Z pd, s, t > 0, any y, cost and rhs
        for trial in range(12):
            n = int(rng.integers(10, 41))
            X, Z = random_spd(rng, n), random_spd(rng, n)
            a_bar = rng.standard_normal(n)
            B = ipm._border(a_bar)
            s, t = rng.uniform(0.1, 5.0, size=2)
            C = rng.standard_normal((n, n))
            C = C + C.T
            rhs = np.concatenate([np.ones(n), rng.uniform(1.0, n * n, size=2)])
            rp = rhs - ipm._constraint_op(X, B)
            rp[n + 1] -= s
            Rd = C - (ipm._adjoint_op(rng.standard_normal(n + 2), B) - Z)
            LZi = _inv_factor(Z)
            Zi = LZi.T @ LZi
            LM = ipm._cholesky(assemble_schur(Zi, X, B, s, t))
            mu = (float(np.vdot(X, Z)) + s * t) / (n + 1)
            pred = ipm._direction(Zi, LM, X, s, t, B, rhs, Rd, Rd @ X, 0.0, 0.0)
            dXa, dsa, _, dZa, dta = pred
            corr = ipm._direction(Zi, LM, X, s, t, B, rhs, Rd, Rd @ X - dZa @ dXa,
                                  0.3 * mu, dsa * dta)
            for got, unfolded in ((pred, (np.zeros((n, n)), 0.0, 0.0)),
                                  (corr, (dZa @ dXa, 0.3 * mu, dsa * dta))):
                want = reference_direction(Zi, X, s, t, a_bar, rp, Rd, *unfolded)
                for g, w in zip(got, want):
                    assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


class TestCertificate:
    @staticmethod
    def _diagonal(d):
        # y and C with Zc = A'(y) - C = Diag(d) exactly, and rhs'y = d[-1]
        n = len(d)
        y = np.concatenate([d, [0.0, 0.0]])
        rhs = np.zeros(n + 2)
        rhs[n - 1] = 1.0
        return y, np.zeros((n, n)), ipm._border(np.arange(1.0, n + 1)), rhs

    def test_float_psd_slack_below_the_rounding_bound_is_shifted(self, monkeypatch):
        n = 6
        d = np.ones(n)
        d[-1] = 1e-17
        # a plain Cholesky test and dsyevr both read Diag(d) as definite
        assert ipm._is_pd(np.diag(d)) and ipm._lambda_min(np.diag(d)) >= 0
        calls = []
        lambda_min = ipm._lambda_min
        monkeypatch.setattr(ipm, "_lambda_min", lambda S: calls.append(S) or lambda_min(S))
        delta = (n + 2) * 2.0 ** -52 * d.sum()
        # the verified test fails, and y[:n] moves by delta - 1e-17
        assert certify_dual(*self._diagonal(d)) == pytest.approx(delta, rel=1e-12)
        assert len(calls) == 1

    def test_comfortably_definite_slack_is_returned_unshifted(self, monkeypatch):
        monkeypatch.setattr(ipm, "_lambda_min", None)  # no eigenvalue call
        for d in (np.ones(6), np.linspace(1e-6, 1.0, 40)):
            y, C, B, rhs = self._diagonal(d)
            assert certify_dual(y, C, B, rhs) == d[-1] == rhs @ y


def test_certify_dual_repairs_infeasible_point(rng):
    n = 6
    data = _data(make_instance(n, seed=7))
    B = np.column_stack([np.ones(n), data.a_bar])
    rhs = np.concatenate([np.ones(n), [data.rhs_card], [data.rhs_cap]])
    y = rng.standard_normal(n + 2)  # arbitrary, likely infeasible
    val = certify_dual(y, data.C_bar, B, rhs)
    y2 = y.copy()
    y2[n + 1] = max(y2[n + 1], 0.0)
    Zc = dense_adjoint_op(y2, data.a_bar) - data.C_bar
    # the certificate's Cholesky test fails; y[:n] moves by -lambda_min + delta
    delta = (n + 2) * 2.0 ** -52 * float(np.abs(Zc.diagonal()).sum())
    lam = float(np.linalg.eigvalsh(0.5 * (Zc + Zc.T))[0])
    assert lam < 0
    y2[:n] += delta - lam
    assert abs(val - float(rhs @ y2)) < 1e-8 * (1 + abs(val))


# relaxations with n <= 12: plain draws, one with n == 2k (a dummy
# coordinate) and two with b == b' (items fixed by the reduction)
FACE_CASES = {
    **{f"n{n}_s{seed}": make_instance(n, seed=seed) for n, seed in
       ((8, 1), (10, 2), (11, 5), (12, 1), (12, 6))},
    "n_2k": replace(make_instance(12, seed=3), k=6),
    "k_lightest": k_lightest_instance("partial_tie"),
    "k_lightest_2k": k_lightest_instance("half_tie"),
}


class TestFaceBounds:
    @pytest.mark.parametrize("name", list(FACE_CASES))
    def test_every_certified_bound_covers_its_face(self, name, rng, monkeypatch):
        inst = FACE_CASES[name]
        data = relaxation.build(inst)
        assert data.dim >= 3
        best = face_optima(inst)
        items = np.flatnonzero(data.coord_of_item >= 0)
        coords = data.coord_of_item[items]
        certified = []
        real = ipm.certify_dual
        monkeypatch.setattr(ipm, "certify_dual", lambda *a: certified.append(1) or real(*a))
        # each certificate passes its Cholesky test: no eigenvalue repair
        repairs = []
        lambda_min = ipm._lambda_min
        monkeypatch.setattr(ipm, "_lambda_min", lambda S: repairs.append(1) or lambda_min(S))
        catalogue = all_cuts(data.dim)
        for size, scale in ((0, 0.0), (data.dim, 1.0), (3 * data.dim, 20.0)):
            pool = catalogue[rng.choice(len(catalogue), size, replace=False)]
            out = bundle.oracle_eval(pool, rng.uniform(0, scale, size), data)
            y, cost, offset = out.dual
            certified.clear()
            repairs.clear()
            # an infinite level certifies every face, whatever the incumbent
            bounds = ipm.face_bounds(data, y, cost, np.inf) + offset
            assert len(certified) == 2 * len(coords) and not repairs
            assert np.isfinite(bounds[coords]).all()
            assert (bounds[coords] >= best[items] - 1e-6 * (1 + np.abs(bounds[coords]))).all()
            # rows without an item (the dummy) are never certified
            assert np.isinf(np.delete(bounds, coords, axis=0)).all()
            # a finite level certifies those faces whose estimate falls
            # below it, each with the same bound, by one certificate each
            for level in np.quantile(bounds[coords], [0.1, 0.5]) - offset:
                certified.clear()
                part = ipm.face_bounds(data, y, cost, level) + offset
                assert ((part == bounds) | np.isinf(part)).all()
                assert len(certified) == np.isfinite(part).sum()
