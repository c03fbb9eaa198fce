import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kqkp import bnb, bundle, cuts, relaxation
from kqkp.bundle import minimize, oracle_eval
from kqkp.oracle import enumerate_exact
from _reference import dense_line_max, reference_solve_model
from conftest import all_cuts, make_instance, minimize_with_bounds


@pytest.fixture(autouse=True)
def ipm_tol(monkeypatch):
    """Evaluations here solve to 1e-5, tighter than the pipeline's
    ``bundle.IPM_TOL``; a test may patch a tighter one over it."""
    monkeypatch.setattr(bundle, "IPM_TOL", 1e-5)


def _data(inst):
    return relaxation.build(inst)


NO_CUTS = np.zeros((0, 4), dtype=np.int64)


def _center_values(monkeypatch, *args, **kwargs):
    """``minimize(*args, **kwargs)`` and the model value at each of its
    centers, in order.

    The first evaluation is the first center.  A later one is a descent
    step when its candidate is the center that the next model or pool call
    receives; the last evaluation, with no such call after it, is one when
    its maximizer is the result's X_last.
    """
    events = []  # ("eval", candidate, OracleValue) or ("center", center)
    real_eval, real_model, real_pool = oracle_eval, bundle._solve_model, bundle._update_pool

    def spy_eval(cuts_, gamma, relax, start=None):
        out = real_eval(cuts_, gamma, relax, start)
        events.append(("eval", gamma, out))
        return out

    def spy_model(lin_c, G, center, u, lam=None):
        events.append(("center", center))
        return real_model(lin_c, G, center, u, lam)

    def spy_pool(cuts_, gamma, X, m):
        events.append(("center", gamma))
        return real_pool(cuts_, gamma, X, m)

    with monkeypatch.context() as patch:
        patch.setattr(bundle, "oracle_eval", spy_eval)
        patch.setattr(bundle, "_solve_model", spy_model)
        patch.setattr(bundle, "_update_pool", spy_pool)
        res = minimize(*args, **kwargs)
    evals = [i for i, ev in enumerate(events) if ev[0] == "eval"]
    values = [events[evals[0]][2].value]
    for i in evals[1:]:
        _, cand, out = events[i]
        nxt = next((ev for ev in events[i + 1:] if ev[0] == "center"), None)
        if (nxt[1] is cand) if nxt is not None else (res.X_last is out.X):
            values.append(out.value)
    return res, values


def _seeded_pool(data, n_cuts=40):
    from kqkp import ipm
    sol = ipm.solve(data, data.C_bar, 1e-5)
    return cuts.separate(sol.X, n_cuts)


class TestOracleEval:
    def test_gamma_zero_equals_sdp_bound(self, monkeypatch):
        from kqkp import ipm
        monkeypatch.setattr(bundle, "IPM_TOL", 1e-7)
        inst = make_instance(10, seed=2)
        data = _data(inst)
        out = oracle_eval(NO_CUTS, np.zeros(0), data)
        ref = ipm.solve(data, data.C_bar, 1e-7).certified_dual + data.const_term
        assert abs(out.bound - ref) < 1e-4 * (1 + abs(out.bound))

    def test_negative_gamma_rejected(self):
        data = _data(make_instance(8, seed=0))
        pool = _seeded_pool(data, 5)
        if len(pool) == 0:
            pytest.skip("no violated cuts on this instance")
        with pytest.raises(ValueError):
            oracle_eval(pool, -np.ones(len(pool)), data)

    def test_bound_valid_for_random_gammas(self, rng):
        inst = make_instance(10, seed=3)
        data = _data(inst)
        opt = enumerate_exact(inst)
        pool = _seeded_pool(data)
        if len(pool) == 0:
            pytest.skip("no violated cuts on this instance")
        for _ in range(10):
            gamma = rng.uniform(0, 2, size=len(pool))
            out = oracle_eval(pool, gamma, data)
            assert out.bound >= opt.value - 1e-6

    def test_subgradient_inequality(self, rng, monkeypatch):
        monkeypatch.setattr(bundle, "IPM_TOL", 1e-7)
        inst = make_instance(9, seed=6)
        data = _data(inst)
        pool = _seeded_pool(data)
        if len(pool) == 0:
            pytest.skip("no violated cuts on this instance")
        for _ in range(10):
            g1 = rng.uniform(0, 1, size=len(pool))
            g2 = rng.uniform(0, 1, size=len(pool))
            o1 = oracle_eval(pool, g1, data)
            o2 = oracle_eval(pool, g2, data)
            # f is a max of linear functions; each evaluation underestimates,
            # so allow the oracle's own tolerance
            assert o2.value >= o1.value + o1.g @ (g2 - g1) - 1e-4 * (1 + abs(o1.value))


class TestMinimize:
    def test_never_worse_than_sdp_bound(self):
        inst = make_instance(12, seed=1)
        data = _data(inst)
        f0 = oracle_eval(NO_CUTS, np.zeros(0), data).bound
        res = minimize(data, float("-inf"), max_evals=15)
        assert res.bound <= f0 + 1e-6

    def test_bound_valid_against_oracle(self):
        for seed in range(8):
            inst = make_instance(11, seed=seed)
            opt = enumerate_exact(inst)
            res = minimize(_data(inst), float("-inf"), max_evals=10)
            assert res.bound >= opt.value - 1e-6

    def test_prunes_against_lower_bound(self):
        inst = make_instance(12, seed=5)
        opt = enumerate_exact(inst)
        res = minimize(_data(inst), float(opt.value), max_evals=30)
        assert res.reason in ("pruned", "stalled", "budget", "no_cuts")
        assert res.bound >= opt.value - 1e-6
        if res.reason == "pruned":
            assert res.bound < opt.value + 1

    def test_descent_history_monotone(self, monkeypatch):
        _, hist = _center_values(monkeypatch, _data(make_instance(14, seed=3)),
                                 float("-inf"), max_evals=20)
        assert len(hist) > 1  # the run takes descent steps
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_pool_hygiene(self):
        data = _data(make_instance(14, seed=7))
        res = minimize(data, float("-inf"), max_evals=25)
        assert len(res.pool) > 0
        assert len(np.unique(res.pool, axis=0)) == len(res.pool)
        assert len(res.pool) <= bundle.POOL_CAPACITY * data.dim

    def test_eval_budget_respected(self):
        res = minimize(_data(make_instance(14, seed=2)), float("-inf"),
                       max_evals=6)
        assert res.evals <= 6

    def test_bound_samples_all_valid(self, monkeypatch):
        inst = make_instance(10, seed=9)
        opt = enumerate_exact(inst)
        res, samples = minimize_with_bounds(monkeypatch, _data(inst), float("-inf"),
                                            max_evals=12)
        assert len(samples) == res.evals
        assert all(b >= opt.value - 1e-6 for b in samples)

    def test_deadline_stops_early(self):
        import time
        res = minimize(_data(make_instance(16, seed=1)), float("-inf"),
                       max_evals=50, deadline=time.perf_counter())
        assert res.evals <= 2

    def test_certified_bound_in_rounding_margin_does_not_prune(self, monkeypatch):
        # a bound within 1e-6 of lower_bound + 1 may hide a selection worth
        # lower_bound + 1, so the bundle goes on, as the tree does
        data = _data(make_instance(10, seed=2))
        real = bundle.oracle_eval

        def near_margin(*args):
            out = real(*args)
            out.bound = 100.0 + 1 - 5e-7
            return out

        monkeypatch.setattr(bundle, "oracle_eval", near_margin)
        res = minimize(data, 100.0, max_evals=3)
        assert res.reason != "pruned"
        assert res.evals > 1
        assert not bundle.prunable(100.0 + 1 - 5e-7, 100.0)
        assert bundle.prunable(100.0 + 1 - 2e-6, 100.0)


def _eval_and_update_calls(monkeypatch, *args, **kwargs):
    """``minimize(*args, **kwargs)`` and its calls of ``oracle_eval`` and
    ``_update_pool`` in order, as ("eval", None) and ("update", the pool
    that update returned)."""
    events = []
    real_eval, real_pool = oracle_eval, bundle._update_pool

    def spy_eval(*eval_args):
        events.append(("eval", None))
        return real_eval(*eval_args)

    def spy_pool(*pool_args):
        out = real_pool(*pool_args)
        events.append(("update", out))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(bundle, "oracle_eval", spy_eval)
        patch.setattr(bundle, "_update_pool", spy_pool)
        res = minimize(*args, **kwargs)
    return res, events


class TestLoopOrder:
    def test_first_evaluation_spending_the_budget_keeps_the_start(self, monkeypatch):
        data = _data(make_instance(12, seed=4))
        some = all_cuts(data.dim)[::7]
        start = (some, np.full(len(some), 0.5))
        res, events = _eval_and_update_calls(monkeypatch, data, float("-inf"),
                                             max_evals=1, pool=start)
        assert [kind for kind, _ in events] == ["eval"]
        assert (res.reason, res.evals) == ("budget", 1)
        assert res.pool is start[0] and res.gamma is start[1]

    def test_update_due_at_the_last_evaluation_reaches_the_result(self, monkeypatch):
        monkeypatch.setattr(bundle, "UPDATE_PERIOD", 1)  # every descent step updates
        data = _data(make_instance(14, seed=3))
        _, events = _eval_and_update_calls(monkeypatch, data, float("-inf"), max_evals=20)
        kinds = [kind for kind, _ in events]
        # the first descent step: an update right after an evaluation other
        # than the first
        due = next(i for i in range(3, len(kinds)) if kinds[i - 1:i + 1] == ["eval", "update"])
        last = kinds[:due].count("eval")
        res, events = _eval_and_update_calls(monkeypatch, data, float("-inf"),
                                             max_evals=last)
        assert [kind for kind, _ in events[-2:]] == ["eval", "update"]
        assert (res.reason, res.evals) == ("budget", last)
        cuts_, gamma = events[-1][1]
        assert res.pool is cuts_ and res.gamma is gamma


class TestStartingPool:
    def test_no_pool_is_the_cold_start(self):
        # a pool at multiplier 0 shifts no cost and leaves at the first
        # update, so it is the cold start too, bit for bit
        data = _data(make_instance(12, seed=4))
        some = all_cuts(data.dim)[::7]
        runs = [minimize(data, float("-inf"), max_evals=12, pool=pool)
                for pool in (None, (NO_CUTS, np.zeros(0)), (some, np.zeros(len(some))))]
        for res in runs[1:]:
            assert (res.bound, res.evals, res.reason) == \
                (runs[0].bound, runs[0].evals, runs[0].reason)
            np.testing.assert_array_equal(res.pool, runs[0].pool)
            np.testing.assert_array_equal(res.gamma, runs[0].gamma)
        assert runs[0].gamma.shape == (len(runs[0].pool),)

    def test_first_evaluation_at_the_given_pool(self, monkeypatch):
        inst = make_instance(11, seed=3)
        data = _data(inst)
        start = minimize(data, float("-inf"), max_evals=10)
        assert len(start.pool) > 0 and start.gamma.max() > 0
        res, bounds = minimize_with_bounds(monkeypatch, data, float("-inf"), max_evals=6,
                                           pool=(start.pool, start.gamma))
        assert bounds[0] == oracle_eval(start.pool, start.gamma, data).bound
        assert bounds[0] >= enumerate_exact(inst).value - 1e-6
        assert res.bound <= bounds[0]


class TestUpdatePool:
    def test_drops_small_multipliers_and_appends_at_zero(self):
        X = np.eye(6) - 0.9 * (1 - np.eye(6))  # every triangle of kind 0 is violated
        pool = np.array([(0, 1, 2, 0), (0, 1, 3, 0)], dtype=np.int64)
        new_cuts, gamma = bundle._update_pool(pool, np.array([1e-7, 0.5]), X, 2)
        # (0, 1, 2, 0) leaves and, still the most violated, joins again at 0
        np.testing.assert_array_equal(new_cuts, [(0, 1, 3, 0), (0, 1, 2, 0), (0, 1, 4, 0)])
        np.testing.assert_array_equal(gamma, [0.5, 0.0, 0.0])

    def test_capacity_drops_lowest_gamma(self):
        pool = all_cuts(6)  # 80 cuts, 20 over the capacity at n = 6
        assert len(pool) - bundle.POOL_CAPACITY * 6 == 20
        gamma = 0.01 * (np.arange(len(pool)) % 30 + 1)
        new_cuts, kept = bundle._update_pool(pool, gamma, np.eye(6), 5)
        # the 18 rows of the six lowest levels go, and of the three rows at
        # the seventh level the last two
        drop = [lvl + off for lvl in range(6) for off in (0, 30, 60)] + [36, 66]
        keep = np.setdiff1d(np.arange(len(pool)), drop)
        np.testing.assert_array_equal(new_cuts, pool[keep])
        np.testing.assert_array_equal(kept, gamma[keep])

    def test_capacity_keeps_the_most_violated_new_cuts(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, (6, 6))
        X = (X + X.T) / 2
        pool = all_cuts(6)[:58]  # two below the capacity, all at gamma 1
        assert len(cuts.separate(X, 10, exclude=pool)) == 4
        new_cuts, gamma = bundle._update_pool(pool, np.ones(58), X, 4)
        # four new cuts join at 0, most violated first; two must leave
        np.testing.assert_array_equal(new_cuts[:58], pool)
        np.testing.assert_array_equal(new_cuts[58:], cuts.separate(X, 2, exclude=pool))
        np.testing.assert_array_equal(gamma, [1.0] * 58 + [0.0] * 2)


def _prox(lin_c, G, center, u, cand):
    """Proximal objective of the subproblem at a candidate."""
    return float(np.max(lin_c + G.T @ cand)) + 0.5 * u * float(np.sum((cand - center) ** 2))


def _check_exact(lin_c, G, center, u, against_reference=True, start=None):
    """Assert that _solve_model, started at ``start`` (default: cold), is
    optimal to rounding and, unless told otherwise, no worse than the SLSQP
    reference (which can take seconds on one subproblem)."""
    lam = bundle._model_weights(lin_c, G, center, u, start)
    cand, model, _ = bundle._solve_model(lin_c, G, center, u, start)
    assert lam.min() >= 0 and abs(lam.sum() - 1.0) < 1e-12
    assert (cand >= 0).all()
    np.testing.assert_array_equal(cand, np.maximum(0.0, center - G @ lam / u))
    vals = lin_c + G.T @ cand
    assert model == vals.max()
    primal = _prox(lin_c, G, center, u, cand)
    # theta(lam) is the Lagrangian at its minimizer cand, lam'vals +
    # (u/2)||cand - center||^2, so the duality gap is max(vals) - lam'vals
    assert model - lam @ vals <= 1e-10 * (1.0 + abs(primal))
    if not against_reference:
        return
    ref = _prox(lin_c, G, center, u, reference_solve_model(lin_c, G, center, u))
    assert primal <= ref + 1e-12 * (1.0 + abs(ref))


@st.composite
def subproblems(draw):
    """Subproblems with the shapes the bundle produces: up to bnb.ROOT_EVALS
    pieces (the model gains one per evaluation), up to 300 pool cuts, slack
    subgradients in [-2, 4], multipliers with many zeros, and optionally
    integral entries, repeated pieces or small integral constants and
    centers, which make ties and exact zeros of z common."""
    p = draw(st.integers(1, bnb.ROOT_EVALS))
    m = draw(st.integers(1, 300))
    u = 10.0 ** draw(st.floats(-3, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = rng.uniform(-2.0, 4.0, size=(m, p))
    if draw(st.booleans()):
        G = np.round(G)
    lin_c = rng.uniform(-1e4, 1e5, size=p)
    if p > 1 and draw(st.booleans()):
        copies = rng.integers(0, p, size=p // 2)
        G[:, copies] = G[:, [0]]
        if draw(st.booleans()):
            lin_c[copies] = lin_c[0]
    zero_share = draw(st.floats(0, 1))
    center = np.where(rng.random(m) < zero_share, 0.0, rng.uniform(0.0, 30.0, size=m))
    if draw(st.booleans()):
        lin_c, center = np.round(lin_c / 1e3), np.round(center)
    return lin_c, G, center, u


@st.composite
def line_searches(draw):
    """(z, b, cd, u) of a line search: coordinates from a grid that makes
    b = 0, z = 0 and kinks z / b at 0 and 1 common, or random floats."""
    m = draw(st.integers(1, 60))
    grid = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    value = grid if draw(st.booleans()) else st.floats(-5.0, 5.0)
    z = np.array(draw(st.lists(value, min_size=m, max_size=m)))
    b = np.array(draw(st.lists(value, min_size=m, max_size=m)))
    ones = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    b[ones] = z[ones]  # kinks at 1, or 0 / 0
    cd = draw(st.floats(-20.0, 20.0) | st.sampled_from([-1.0, 0.0, 1.0]))
    return z, b, cd, 10.0 ** draw(st.floats(-2, 2))


def _line_value(z, b, cd, u, t):
    """theta along the line up to a constant: the integral of the slope."""
    return cd * t - 0.5 * u * float((np.maximum(0.0, z - t * b) ** 2).sum())


class TestLineMax:
    @given(line_searches())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_matches_the_dense_slope_formula(self, search):
        z, b, cd, u = search
        got, want = bundle._line_max(z, b, cd, u), dense_line_max(z, b, cd, u)
        assert 0.0 <= got <= 1.0
        if abs(got - want) > 1e-12:
            # a slope flat at zero to rounding: any t there maximizes theta
            scale = 1.0 + abs(cd) + u * float((np.abs(b) * (np.abs(z) + np.abs(b))).sum())
            assert abs(_line_value(z, b, cd, u, got)
                       - _line_value(z, b, cd, u, want)) <= 1e-12 * scale


class TestSolveModel:
    @given(subproblems())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_exact_on_generated_subproblems(self, sub):
        _check_exact(*sub, against_reference=False)

    @given(subproblems())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_warm_start_gives_the_cold_candidate(self, sub):
        # as in minimize: the weights of the model without its last piece,
        # with 0 for that piece
        lin_c, G, center, u = sub
        lam = np.ones(1)
        if len(lin_c) > 1:
            lam = np.append(bundle._model_weights(lin_c[:-1], G[:, :-1], center, u), 0.0)
        cold = bundle._solve_model(lin_c, G, center, u)[0]
        warm = bundle._solve_model(lin_c, G, center, u, lam)[0]
        assert np.abs(warm - cold).max() <= 1e-9 * (1.0 + np.abs(cold).max())

    @given(subproblems(), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_any_start_gives_the_cold_candidate(self, sub, seed):
        # a start anywhere on the simplex, with any support
        lin_c, G, center, u = sub
        rng = np.random.default_rng(seed)
        support = rng.choice(len(lin_c), size=rng.integers(1, len(lin_c) + 1), replace=False)
        start = np.zeros(len(lin_c))
        start[support] = rng.dirichlet(np.ones(len(support)))
        _check_exact(lin_c, G, center, u, against_reference=False, start=start)
        cold = bundle._solve_model(lin_c, G, center, u)[0]
        warm = bundle._solve_model(lin_c, G, center, u, start)[0]
        assert np.abs(warm - cold).max() <= 1e-9 * (1.0 + np.abs(cold).max())

    def test_exact_on_captured_subproblems(self, monkeypatch):
        captured = []
        solve = bundle._solve_model

        def record(lin_c, G, center, u, lam=None):
            captured.append((lin_c.copy(), G.copy(), center.copy(), u))
            return solve(lin_c, G, center, u, lam)

        monkeypatch.setattr(bundle, "_solve_model", record)
        minimize(_data(make_instance(14, seed=3)), float("-inf"), max_evals=20)
        monkeypatch.undo()
        assert len(captured) >= 10
        assert max(len(c[0]) for c in captured) > 1
        for sub in captured:
            _check_exact(*sub)

    @pytest.mark.parametrize("case", ["one_piece", "duplicates", "same_g", "F_empty",
                                      "G_zero", "root_evals"])
    def test_degenerate(self, case, rng):
        p = {"one_piece": 1, "root_evals": bnb.ROOT_EVALS}.get(case, 6)
        m = 40
        G = rng.uniform(-2.0, 4.0, size=(m, p))
        lin_c = rng.uniform(1e3, 1e4, size=p)
        center = np.where(rng.random(m) < 0.5, 0.0, rng.uniform(0.0, 5.0, size=m))
        if case == "duplicates":  # the same linearization stored three times
            G[:, 1:4] = G[:, [0]]
            lin_c[1:4] = lin_c[0]
        elif case == "same_g":  # parallel pieces: only the highest matters
            G[:, :] = G[:, [0]]
        elif case == "F_empty":  # every coordinate of the candidate is 0
            G, center = np.abs(G) + 0.1, np.zeros(m)
        elif case == "G_zero":
            G[:] = 0.0
        _check_exact(lin_c, G, center, 0.5)
        cand, model, _ = bundle._solve_model(lin_c, G, center, 0.5)
        if case == "F_empty":
            assert not cand.any()
        elif case == "G_zero":
            np.testing.assert_array_equal(cand, center)
            assert model == lin_c.max()

    @pytest.mark.parametrize("G, lin_c, center, u", [
        # one pool coordinate, six pieces: Q_SS turns singular once S holds
        # three weights, and pieces with equal subgradients differ in c
        ([[2, -2, -1, -1, 1, 0]], [2, 1, 1, 3, 2, 2], [2], 0.5),
        # full steps alternate between lam = (1/2, 1/2), F = {1}, and
        # lam = (1/4, 3/4), F = {0}; the optimum is (0.3, 0.7)
        ([[4, 2], [0, 4]], [1, 1], [3, 3], 1.0),
        # full steps cycle between the vertices (1, 0, 0) and (0, 0, 1); the
        # data are integers, so z is exact there and no rounding breaks it
        ([[-3, -1, 2], [3, 3, -2]], [3, 2, 3], [2, 3], 1.0),
    ], ids=["one_coordinate", "full_steps_cycle", "vertex_cycle"])
    def test_small_cases(self, G, lin_c, center, u):
        _check_exact(np.array(lin_c, float), np.array(G, float), np.array(center, float), u)

    @pytest.mark.parametrize("case", ["duplicates", "few_coordinates"])
    def test_singular_warm_starts(self, case, rng):
        # warm starts whose support holds duplicate pieces, or more pieces
        # than the pool has coordinates, make the first KKT system singular
        p, m = (8, 40) if case == "duplicates" else (8, 3)
        for _ in range(20):
            G = rng.uniform(-2.0, 4.0, size=(m, p))
            lin_c = rng.uniform(1e3, 1e4, size=p)
            center = np.where(rng.random(m) < 0.3, 0.0, rng.uniform(0.0, 5.0, size=m))
            support = np.arange(p)
            if case == "duplicates":  # copies of one piece, some with a lower constant
                support = rng.choice(p, size=4, replace=False)
                G[:, support[1:]] = G[:, [support[0]]]
                lin_c[support[1:]] = lin_c[support[0]] - rng.choice([0.0, 10.0], size=3)
            start = np.zeros(p)
            start[support] = rng.dirichlet(np.ones(len(support)))
            u = 10.0 ** rng.uniform(-1, 1)
            _check_exact(lin_c, G, center, u, start=start)
            cold = bundle._solve_model(lin_c, G, center, u)[0]
            warm = bundle._solve_model(lin_c, G, center, u, start)[0]
            assert np.abs(warm - cold).max() <= 1e-9 * (1.0 + np.abs(cold).max())

    @pytest.mark.parametrize("start", [[0.5, 0.5], [0.25, 0.75]])
    def test_full_steps_cycle_started_on_the_cycle(self, start):
        # the two ends of the cycle of full steps in test_small_cases
        G, lin_c, center = np.array([[4.0, 2.0], [0.0, 4.0]]), np.ones(2), np.array([3.0, 3.0])
        _check_exact(lin_c, G, center, 1.0, start=np.array(start))
        lam = bundle._model_weights(lin_c, G, center, 1.0, np.array(start))
        np.testing.assert_allclose(lam, [0.3, 0.7], rtol=0, atol=1e-12)
