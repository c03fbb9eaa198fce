"""Slow reference implementations kept independent of the package internals.

The naive Schur assembly builds every entry from the trace formula
m_ij = trace(Z^{-1} A_j X A_i) with the constraint matrices materialized,
so it shares no code with the specialized rank-one version it checks.
The dense constraint map and its adjoint write the two rank-one rows out as
n x n matrices, where ``ipm`` keeps them as one n x 2 border.
The naive triangle separation enumerates every cut one by one and sorts
Python tuples, so it shares no code with the vectorized ``cuts.separate``.
The naive step length factors P afresh, applies L^{-1} by two triangular
solves and takes the full spectrum, where ``ipm._max_step`` reuses an
inverse factor and asks LAPACK for one eigenvalue.
The top-down ladder tests every rung from the longest, with numpy's
Cholesky factorization, where ``ipm._ladder`` starts at a given rung and
walks up or down.
The reference search direction is the formula the IPM used before it
folded the cost residual into one product with Z^{-1}: it forms
Z^{-1} Rd X and Z^{-1} Corr apart, and solves the Schur system built from
the trace formula.
The dense line search of the bundle evaluates the slope at every kink as an
m x (kinks + 2) matrix, where ``bundle._line_max`` sorts the kinks and
keeps running sums.
The reference bundle subproblem solver hands the simplex dual to SciPy's
general-purpose SLSQP, where ``bundle._solve_model`` solves it exactly by an
active-set method of its own; the package itself does not use
``scipy.optimize``.
The reference branch-and-prune is the depth-first search pruned by
feasibility only, without the upper bound of ``bnb.branch_and_prune``; it
visits selections in the same order, so both must return the same one.
The rank-one lift of a binary selection is the feasible point of the
relaxation that the identity tests of ``relaxation`` evaluate.
Glover's linearization (Management Sci. 1975), solved by SciPy's MILP
interface to HiGHS, is an exact solver that shares nothing with the SDP
branch-and-bound and, unlike enumeration, reaches n = 30.
The face optima enumerate every feasible selection, the ground truth for
the face test's bounds on x_j = 0 and x_j = 1.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import scipy.linalg as sla
from scipy.optimize import Bounds, LinearConstraint, milp, minimize


def constraint_matrices(n: int, a_bar: np.ndarray) -> list[np.ndarray]:
    mats = []
    for i in range(n):
        E_i = np.zeros((n, n))
        E_i[i, i] = 1.0
        mats.append(E_i)
    mats.append(np.ones((n, n)))
    mats.append(np.outer(a_bar, a_bar))
    return mats


def naive_schur(Zi: np.ndarray, X: np.ndarray, a_bar: np.ndarray,
                s: float, t: float) -> np.ndarray:
    n = X.shape[0]
    mats = constraint_matrices(n, a_bar)
    m = len(mats)
    M = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            M[i, j] = np.trace(Zi @ mats[j] @ X @ mats[i])
    M[m - 1, m - 1] += s / t
    return M


def dense_constraint_op(W: np.ndarray, a_bar: np.ndarray) -> np.ndarray:
    """(diag(W); <ee', W>; <a_bar a_bar', W>) for any n x n W."""
    return np.concatenate([np.diag(W), [W.sum()], [a_bar @ W @ a_bar]])


def dense_adjoint_op(y: np.ndarray, a_bar: np.ndarray) -> np.ndarray:
    """Diag(y[:n]) + y[n] ee' + y[n+1] a_bar a_bar'."""
    n = len(a_bar)
    return np.diag(y[:n]) + y[n] * np.ones((n, n)) + y[n + 1] * np.outer(a_bar, a_bar)


def naive_max_step(P: np.ndarray, dP: np.ndarray, scal: float, dscal: float) -> float:
    """Largest alpha keeping P + alpha*dP psd and scal + alpha*dscal >= 0."""
    L = np.linalg.cholesky(P)
    W = sla.solve_triangular(L, dP, lower=True)
    W = sla.solve_triangular(L, W.T, lower=True)
    lam = float(np.linalg.eigvalsh(0.5 * (W + W.T))[0])
    alpha = np.inf if lam >= -1e-14 else -1.0 / lam
    if dscal < 0:
        alpha = min(alpha, -scal / dscal)
    return alpha


def _passes_cholesky(P: np.ndarray) -> bool:
    try:
        return bool(np.isfinite(np.linalg.cholesky(P)).all())
    except np.linalg.LinAlgError:
        return False


def top_down_ladder(P: np.ndarray, dP: np.ndarray, scal: float, dscal: float,
                    rungs) -> tuple:
    """(a, b): the first rung a, from the longest, with a <= -scal/dscal and
    P + a*dP positive definite, and b, the rung tested just before it if it
    failed, else None; below the last rung the exact step capped at 1."""
    failed = None
    for a in rungs:
        if dscal < 0 and a > -scal / dscal:
            continue
        if _passes_cholesky(P + a * dP):
            return a, failed
        failed = a
    return min(1.0, naive_max_step(P, dP, scal, dscal)), None


def reference_direction(Zi, X, s, t, a_bar, rp, Rd, Corr, mu, scorr) -> tuple:
    """The HKM direction (dX, ds, dy, dZ, dt) from the unfolded formula:
    W = mu Z^{-1} - X + Z^{-1} Rd X - Z^{-1} Corr, M dy = A(W) - rp (plus
    the slack's row), dZ = A'(dy) - Rd and dX = sym(W - Z^{-1} A'(dy) X)."""
    n = X.shape[0]
    W = mu * Zi - X + Zi @ (Rd @ X) - Zi @ Corr
    rs = (mu - s * t - scorr) / t
    r = dense_constraint_op(W, a_bar) - rp
    r[n + 1] += rs
    dy = np.linalg.solve(naive_schur(Zi, X, a_bar, s, t), r)
    Aty = dense_adjoint_op(dy, a_bar)
    dX = W - Zi @ Aty @ X
    dt = float(dy[n + 1])
    return 0.5 * (dX + dX.T), rs - (s / t) * dt, dy, Aty - Rd, dt


def dense_line_max(z: np.ndarray, b: np.ndarray, cd: float, u: float) -> float:
    """The t in [0, 1] where cd + u * sum(b * max(0, z - t b)) crosses zero,
    the slope evaluated at 0, 1 and every kink z/b in between."""
    with np.errstate(divide="ignore", invalid="ignore"):
        kinks = z / b
    ts = np.concatenate(([0.0], np.sort(kinks[(kinks > 0) & (kinks < 1)]), [1.0]))
    slope = cd + u * (b[:, None] * np.maximum(0.0, z[:, None] - np.outer(b, ts))).sum(0)
    if slope[-1] >= 0:
        return 1.0
    i = int(np.argmax(slope < 0))
    if i == 0:
        return 0.0
    return ts[i - 1] + (ts[i] - ts[i - 1]) * slope[i - 1] / (slope[i - 1] - slope[i])


def random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    B = rng.standard_normal((n, n))
    return B @ B.T + n * np.eye(n)


def naive_separate(X: np.ndarray, m: int, exclude=(), tol: float = 1e-4) -> list:
    """Up to m most violated triangle cuts (i, j, k, kind), most violated
    first, ties by (i, j, k, kind); cuts in ``exclude`` are skipped."""
    signs = ((1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1))
    excluded = {tuple(c) for c in exclude}
    found = []
    for i, j, k in combinations(range(X.shape[0]), 3):
        for kind, (s1, s2, s3) in enumerate(signs):
            slack = 1.0 + s1 * X[i, j] + s2 * X[i, k] + s3 * X[j, k]
            if slack < -tol and (i, j, k, kind) not in excluded:
                found.append((slack, i, j, k, kind))
    found.sort()
    return [list(c[1:]) for c in found[:m]]


def reference_solve_model(lin_c: np.ndarray, G: np.ndarray, center: np.ndarray,
                          u: float) -> np.ndarray:
    """Candidate of the proximal bundle subproblem
    min_{gamma>=0} max_i (c_i + g_i'gamma) + (u/2)||gamma - center||^2,
    from SLSQP on its simplex dual: for weights lam the candidate is
    max(0, center - G lam / u) and the dual value is the Lagrangian there."""
    p = len(lin_c)

    def neg_theta(lam):
        cand = np.maximum(0.0, center - (G @ lam) / u)
        vals = lin_c + G.T @ cand
        theta = float(lam @ vals) + 0.5 * u * float(np.sum((cand - center) ** 2))
        return -theta, -vals  # envelope gradient

    lam0 = np.full(p, 1.0 / p)
    res = minimize(
        neg_theta, lam0, jac=True, method="SLSQP",
        bounds=[(0.0, 1.0)] * p,
        constraints=[{"type": "eq", "fun": lambda l: l.sum() - 1.0,
                      "jac": lambda l: np.ones(p)}],
        options={"maxiter": 100, "ftol": 1e-12},
    )
    lam = np.clip(res.x, 0.0, 1.0)
    lam = lam / lam.sum() if lam.sum() > 0 else lam0
    return np.maximum(0.0, center - (G @ lam) / u)


def feasibility_branch_and_prune(inst, floor: float = float("-inf")):
    """The first selection, in the order x_i = 1 before x_i = 0 by index,
    whose value (offset included) is the largest above ``floor``, as a 0/1
    vector, or None.  Prunes on cardinality and capacity only."""
    n, k, b = inst.n, inst.k, inst.b
    a = [int(v) for v in inst.a]
    C = inst.C
    light = [sorted(a[i:]) for i in range(n + 1)]
    best_val, best_sel, chosen = floor, None, []

    def rec(j, weight, value):
        nonlocal best_val, best_sel
        need = k - len(chosen)
        for i in range(j, n + 1):
            if need == 0:
                if value + inst.offset > best_val:
                    best_val, best_sel = value + inst.offset, chosen.copy()
                return
            if n - i < need or weight + sum(light[i][:need]) > b:
                return
            if weight + a[i] <= b:
                dv = int(C[i, i]) + 2 * sum(int(C[i, c]) for c in chosen)
                chosen.append(i)
                rec(i + 1, weight + a[i], value + dv)
                chosen.pop()

    rec(0, 0, 0)
    if best_sel is None:
        return None
    x = np.zeros(n, dtype=np.int64)
    x[best_sel] = 1
    return x


class CardinalityMismatch(ValueError):
    pass


def feasible_X_from_binary(x, k: int) -> np.ndarray:
    """Rank-one lift X = yy' with y = 2x - e of a selection of k items."""
    x = np.asarray(x, dtype=float)
    if int(round(x.sum())) != k:
        raise CardinalityMismatch(f"sum(x) = {x.sum()} != k = {k}")
    y = 2.0 * x - 1.0
    return np.outer(y, y)


def glover_milp(inst) -> np.ndarray:
    """An optimal selection of ``inst`` (C >= 0) by Glover's linearization.

    x'Cx = sum_j C_jj x_j + sum_j w_j with w_j = x_j * 2 sum_{i<j} C_ij x_i
    on binaries.  Maximizing with w_j <= U_j x_j, U_j = 2 sum_{i<j} C_ij,
    and w_j <= 2 sum_{i<j} C_ij x_i makes each w_j the smaller of its two
    bounds, which is that product; 0 <= w_j is valid as C >= 0.  The MILP
    gap is 0, so the selection is optimal, not just within HiGHS's default
    relative gap.
    """
    n = inst.n
    C = np.asarray(inst.C, dtype=float)
    if (C < 0).any():
        raise ValueError("the linearization needs C >= 0")
    below = 2.0 * np.tril(C, -1)  # row j: 2 C_ij for i < j
    eye = np.eye(n)
    rows = np.block([
        [-np.diag(below.sum(1)), eye],  # w_j - U_j x_j <= 0
        [-below, eye],  # w_j - 2 sum_{i<j} C_ij x_i <= 0
        [np.ones((1, n)), np.zeros((1, n))],  # e'x == k
        [inst.a[None, :].astype(float), np.zeros((1, n))],  # a'x <= b
    ])
    hi = np.concatenate([np.zeros(2 * n), [inst.k, inst.b]])
    lo = np.concatenate([np.full(2 * n, -np.inf), [inst.k, -np.inf]])
    res = milp(-np.concatenate([np.diag(C), np.ones(n)]),
               integrality=np.repeat([1, 0], n),
               bounds=Bounds(0, np.repeat([1, np.inf], n)),
               constraints=LinearConstraint(rows, lo, hi),
               options={"mip_rel_gap": 0.0})
    if not res.success:
        raise RuntimeError(res.message)
    return np.round(res.x[:n]).astype(np.int64)


def face_optima(inst) -> np.ndarray:
    """(n, 2) array: at [j, v] the best value of a feasible selection with
    x_j = v, -inf where there is none; by enumeration of every selection."""
    n = inst.n
    X = np.array([[int(i in subset) for i in range(n)]
                  for subset in combinations(range(n), inst.k)], dtype=np.int64).reshape(-1, n)
    X = X[X @ inst.a <= inst.b]
    values = np.einsum("ij,jk,ik->i", X, inst.C, X) + inst.offset
    best = np.full((n, 2), -np.inf)
    for v in (0, 1):
        if len(X):
            best[:, v] = np.where(X == v, values[:, None], -np.inf).max(axis=0)
    return best
