"""Acceptance checklist: one test per criterion, one printed verdict line each.

The shared suite is 200 seeded instances with n in 8..16 over all four
densities.  Ground truth comes from exhaustive enumeration throughout.
Soft (logged, non-gating) measurements are printed with the verdict.
"""

import statistics
import time
from itertools import product

import numpy as np
import pytest

from kqkp import bnb, bundle, cli, cuts, generator, ipm, relaxation
from kqkp.bnb import SolverConfig, branch_and_prune, solve
from kqkp.bundle import minimize, oracle_eval
from kqkp.heuristics import primal_heuristic, varfix_heuristic
from kqkp.instance import dump, preprocess
from kqkp.oracle import enumerate_exact
from _reference import naive_schur, random_spd
from conftest import minimize_with_bounds

DENSITIES = (25, 50, 75, 100)


def _verdict(num, name, ok, extra=""):
    tag = "PASS" if ok else "FAIL"
    note = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {num:>2} {name}: {tag}{note}")
    assert ok, f"criterion {num} ({name}) failed{note}"


def _gen(n, d, s):
    return generator.generate(generator.GenSpec(n=n, density_percent=d, seed=s))


@pytest.fixture(scope="module")
def suite():
    items = []
    for s, n, d in product(range(6), range(8, 17), DENSITIES):
        items.append(_gen(n, d, s))
        if len(items) == 200:
            break
    return [(inst, enumerate_exact(inst).value) for inst in items]


def test_criterion_01_exactness(suite):
    t0 = time.perf_counter()
    bad = sum(1 for inst, opt in suite if solve(inst).best.value != opt)
    _verdict(1, "exactness", bad == 0,
             f"200 instances, {time.perf_counter() - t0:.1f}s")


def test_criterion_02_bound_validity(suite, monkeypatch):
    monkeypatch.setattr(bundle, "IPM_TOL", 1e-5)
    violations = 0
    for inst, opt in suite:
        data = relaxation.build(inst)
        # gamma = 0 first, then bundle iterates
        _, samples = minimize_with_bounds(monkeypatch, data, float("-inf"), max_evals=6)
        violations += sum(1 for b in samples if b < opt - 1e-6)
    _verdict(2, "bound validity", violations == 0,
             f"{violations} violations over all sampled gamma")


def test_criterion_03_bound_ordering(monkeypatch):
    monkeypatch.setattr(bundle, "IPM_TOL", 1e-6)
    sizes = (20, 26, 32, 38, 44, 50)
    ordered = 0
    improved = 0
    gapped = 0
    total = 50
    for i in range(total):
        inst = _gen(sizes[i % len(sizes)], DENSITIES[i % 4], 1000 + i)
        data = relaxation.build(inst)
        sdp = oracle_eval(np.zeros((0, 4), dtype=np.int64), np.zeros(0), data).bound
        met = minimize(data, float("-inf"), max_evals=10).bound
        if met <= sdp + 1e-6:
            ordered += 1
        inc = primal_heuristic(inst, preprocess(inst))
        if sdp > inc.value + 1e-6:  # nonzero root gap proxy
            gapped += 1
            if sdp - met > 0.1:
                improved += 1
    frac = improved / max(1, gapped)
    _verdict(3, "bound ordering", ordered == total,
             f"{ordered}/{total} ordered; strict improvement on "
             f"{frac:.0%} of gapped instances (soft target 30%)")


def test_criterion_04_schur_assembly(rng=None):
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 61))
        X = random_spd(rng, n)
        Zi = np.linalg.inv(random_spd(rng, n))
        Zi = 0.5 * (Zi + Zi.T)
        a_bar = rng.standard_normal(n)
        s, t = float(rng.uniform(0.1, 5)), float(rng.uniform(0.1, 5))
        M1 = ipm.assemble_schur(Zi, X, ipm._border(a_bar), s, t)
        M2 = naive_schur(Zi, X, a_bar, s, t)
        worst = max(worst, float(np.abs(M1 - M2).max()
                                 / max(1.0, np.abs(M2).max())))
    # soft speed measurement at n = 100
    n = 100
    X = random_spd(rng, n)
    Zi = np.linalg.inv(random_spd(rng, n))
    Zi = 0.5 * (Zi + Zi.T)
    a_bar = rng.standard_normal(n)
    B = ipm._border(a_bar)
    t0 = time.perf_counter()
    for _ in range(20):
        ipm.assemble_schur(Zi, X, B, 1.0, 1.0)
    fast = (time.perf_counter() - t0) / 20
    t0 = time.perf_counter()
    naive_schur(Zi, X, a_bar, 1.0, 1.0)
    slow = time.perf_counter() - t0
    _verdict(4, "rank-one Schur assembly", worst <= 1e-10,
             f"max dev {worst:.2e}; speedup at n=100: {slow / fast:.0f}x "
             f"(soft threshold 5x, {'met' if slow / fast >= 5 else 'missed'})")


def test_criterion_05_ipm_quality():
    sizes = (20, 30, 40, 50, 60)
    ok = True
    worst_gap = worst_res = worst_t = 0.0
    for i in range(50):
        inst = _gen(sizes[i % len(sizes)], DENSITIES[i % 4], 2000 + i)
        data = relaxation.build(inst)
        t0 = time.perf_counter()
        sol = ipm.solve(data, data.C_bar, 1e-7)
        dt = time.perf_counter() - t0
        n = data.dim
        e = np.ones(n)
        relgap = abs(sol.primal_obj - sol.dual_obj) / (1 + abs(sol.dual_obj))
        # residuals scaled by 1 + rhs, the usual SDP convergence measure
        res = max(
            float(np.abs(np.diag(sol.X) - 1).max()),
            abs(float(e @ sol.X @ e) - data.rhs_card) / (1 + data.rhs_card),
            max(0.0, float(data.a_bar @ sol.X @ data.a_bar) - data.rhs_cap)
            / (1 + data.rhs_cap),
        )
        worst_gap = max(worst_gap, relgap)
        worst_res = max(worst_res, res)
        worst_t = max(worst_t, dt)
        ok &= relgap <= 1e-7 and res <= 1e-6 and dt < 1.0
    _verdict(5, "ipm quality", ok,
             f"worst relgap {worst_gap:.1e}, residual {worst_res:.1e}, "
             f"time {worst_t:.2f}s")


def test_criterion_06_subgradient(monkeypatch):
    monkeypatch.setattr(bundle, "IPM_TOL", 1e-7)
    rng = np.random.default_rng(55)
    violations = 0
    pairs = 0
    for seed in range(10):
        inst = _gen(10, DENSITIES[seed % 4], 3000 + seed)
        data = relaxation.build(inst)
        sol = ipm.solve(data, data.C_bar, 1e-6)
        pool = cuts.separate(sol.X, 30, tol=0.0)
        if len(pool) == 0:
            continue
        for _ in range(50):
            g1 = rng.uniform(0, 1.5, size=len(pool))
            g2 = rng.uniform(0, 1.5, size=len(pool))
            o1 = oracle_eval(pool, g1, data)
            o2 = oracle_eval(pool, g2, data)
            pairs += 1
            # certified bound dominates f(g2), exact linearization at g1
            if o2.bound < o1.value + o1.g @ (g2 - g1) - 1e-6:
                violations += 1
    _verdict(6, "subgradient property", violations == 0,
             f"{pairs} pairs, {violations} violations")


def test_criterion_07_root_gap(monkeypatch):
    # the solver only computes SDP root bounds for k > 10 (smaller k is
    # delegated to exact branch-and-prune, root gap zero), so the gap is
    # measured on draws that exercise the relaxation
    monkeypatch.setattr(bundle, "IPM_TOL", 1e-5)
    gaps = []
    seed = 0
    while len(gaps) < 10:
        seed += 1
        inst = _gen(50, 25, 4000 + seed)
        if inst.k <= 10:
            continue
        prep = preprocess(inst)
        data = relaxation.build(inst)
        res = minimize(data, float("-inf"), max_evals=30)
        x_frac = relaxation.extract_fractional(res.X_last, data)
        inc = varfix_heuristic(inst, prep, x_frac,
                               primal_heuristic(inst, prep))
        gaps.append(100.0 * (res.bound - inc.value) / inc.value)
    avg = float(np.mean(gaps))
    _verdict(7, "root gap n=50 d=25", avg <= 5.0,
             f"avg {avg:.2f}% vs published 0.9-1.3% on different instances")


def test_criterion_08_node_economy(suite, monkeypatch):
    with_cuts = []
    without = []
    cfg = SolverConfig(bnp_root_k=0, bnp_node_k=0)
    suite16 = [(inst, opt) for inst, opt in suite if inst.n == 16]
    # one evaluation per node is the plain SDP bound: no cut is ever added
    for (root_evals, node_evals), nodes in (((10, 5), with_cuts), ((1, 1), without)):
        monkeypatch.setattr(bnb, "ROOT_EVALS", root_evals)
        monkeypatch.setattr(bnb, "NODE_EVALS", node_evals)
        for inst, opt in suite16:
            rep = solve(inst, cfg)
            assert rep.best.value == opt
            nodes.append(rep.nodes)
    m1 = statistics.median(with_cuts)
    m2 = statistics.median(without)
    _verdict(8, "node economy", m1 <= m2,
             f"median nodes {m1} with cuts vs {m2} without, "
             f"{len(with_cuts)} instances")


def test_criterion_09_branch_and_prune(suite):
    ok = True
    small = 0
    for inst, opt in suite:
        if inst.k <= 5:
            small += 1
            ok &= branch_and_prune(inst).value == opt
    cfg_sdp = SolverConfig(bnp_root_k=0, bnp_node_k=0)
    cross = 0
    for inst, opt in suite:
        if inst.k <= 10 and cross < 20:
            cross += 1
            delegated = solve(inst)  # root delegation path
            full = solve(inst, cfg_sdp)
            ok &= delegated.best.value == full.best.value == opt
    _verdict(9, "branch-and-prune consistency", ok,
             f"{small} k<=5 instances, {cross} delegation cross-checks")


def test_criterion_10_heuristic_quality(suite):
    ratios = []
    all_feasible = True
    for inst, opt in suite:
        prep = preprocess(inst)
        inc = primal_heuristic(inst, prep)
        data = relaxation.build(inst)
        sol = ipm.solve(data, data.C_bar, 1e-5)
        x_frac = relaxation.extract_fractional(sol.X, data)
        out = varfix_heuristic(inst, prep, x_frac, inc)
        all_feasible &= inst.is_feasible(inc.x) and inst.is_feasible(out.x)
        if opt > 0:
            ratios.append(max(inc.value, out.value) / opt)
    avg = float(np.mean(ratios))
    _verdict(10, "heuristic quality", all_feasible and avg >= 0.85,
             f"feasible always; avg best ratio {avg:.3f}")


def test_criterion_11_bench_determinism(tmp_path):
    d = tmp_path / "inst"
    d.mkdir()
    for seed in range(4):
        spec = generator.GenSpec(n=12, density_percent=50, seed=seed)
        dump(generator.generate(spec), d / generator.filename(spec))
    csv1 = tmp_path / "run1.csv"
    csv2 = tmp_path / "run2.csv"
    assert cli.main(["bench", str(d), "-o", str(csv1)]) == 0
    assert cli.main(["bench", str(d), "-o", str(csv2)]) == 0
    out1 = csv1.read_text()
    out2 = csv2.read_text()
    _verdict(11, "bench determinism", out1 == out2 and out1.count("\n") == 5,
             f"{out1.count(chr(10)) - 1} rows byte-identical")
