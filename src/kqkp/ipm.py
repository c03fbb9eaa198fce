"""Predictor-corrector primal-dual interior-point method for the projected
relaxation.

The constraint set is fixed: n diagonal constraints, one rank-one equality
<ee', X> = (2k-n)^2 and one rank-one inequality <a_bar a_bar', X> <= (b-b')^2
with primal slack s and dual slack t.  The two rank-one rows share one
n x 2 border B = [e, a_bar]: the constraint map is A(W) = (diag W; the
column sums of B o (W B)) and its adjoint is A'(y) = Diag(y[:n]) +
B Diag(y[n:]) B'.  Every Schur-complement entry and every application of
A or A' therefore costs O(n^2), so one iteration costs O(n^3) overall.
Per iteration Z is factored once, Z = L L', and Z^{-1} = L^{-T} L^{-1} is
formed from its triangular inverse.  Under HKM scaling with X, Z positive
definite the (n+2) x (n+2) Schur matrix is symmetric positive definite, so
it too is Cholesky-factored once per iteration, and the predictor and
corrector directions are both solved with that factor.  An iteration makes
five n x n products: Z^{-1}, Rd X, the corrector term dZ_aff dX_aff and one
product with Z^{-1} per direction (``_direction``).  A factorization of
Z or the Schur matrix that fails, or yields a non-finite factor, ends the
solve as ``slow_progress``.  The factorizations and solves call LAPACK
directly (dpotrf, dtrtri, dpotrs), since at n = 40 the numpy.linalg and
scipy.linalg wrappers cost more than the flops.  ``lapack`` is scipy's f2py
extension scipy.linalg._flapack, which ``_load_lapack`` finds in scipy's
linalg directory and loads by itself: the scipy.linalg package init, which
clones the numpy namespace and so loads numpy.f2py, numpy.testing and more,
would cost every process about 0.2 s and 17 MB for wrappers that load in a
few milliseconds.  It is loaded at first use: ``lapack`` starts as a
stand-in that loads the extension the first time one of its attributes is
read and then takes its place, so a process that solves no relaxation (a
root branch-and-prune solve) never maps LAPACK or imports scipy.

All four step lengths, for X and for Z in the predictor and the corrector,
come from one ladder search: the largest a in LADDER with P + a dP passing
a Cholesky test (about a sixth of a smallest-eigenvalue call at n = 100)
and within the scalar slack's step.  Where the rung above a failed its
test, the corrector runs one more test at their midpoint and moves a up to
it if it passes, which halves the bracket on the distance to the boundary;
its step is gamma * a, so P + gamma a dP is positive definite by convexity.
Each search starts one rung above where it ended in the last iteration
(rung 0 in the first) and walks up or down to the rungs a search from the
top would find.  So an iteration makes four ladder searches and at most two
midpoint tests, and it factors the iterate P and calls the eigenvalue
routine (dsyevr on L^{-1} dP L^{-T}) only for a step below the last rung,
whose exact value it then takes; a non-pd X fails every rung and that
factorization, and ends the solve as ``slow_progress``.  Helmberg, Rendl,
Vanderbei & Wolkowicz (SIAM J. Optim. 1996) likewise keep their iterates
positive definite by Cholesky tests.

HKM scaling (Z^{-1}-weighted), infeasible start, one Mehrotra corrector per
iteration with sigma = (gap_aff/gap)^3 and no floor (Mehrotra, SIAM J. Optim.
1992), and a corrector step of gamma = STEP_MIN + (STEP_MAX - STEP_MIN) *
min(ap_aff, ad_aff) times its ladder length a, after SDPT3's 0.9 + 0.09 min
of the way to the boundary (Toh, Todd & Tutuncu, Optim. Methods Softw.
1999).  gap_aff, ap_aff and ad_aff are read at the predictor's rungs; an
affine step rounded down to a rung makes sigma and gamma centre a little
more.  The corrector's a falls short of the distance to the boundary by at
most half a rung gap.

A solve can restart from an iterate of an earlier one (reoptimization:
Gondzio & Grothey, SIAM J. Optim. 2002; Yildirim & Wright, SIAM J. Optim.
2002).  The bundle method solves one problem after another whose costs
differ only by cut multipliers, and an optimum of one lies on the boundary
of the cone, a bad start for the next.  So each solve keeps, as its
``restart``, its first iterate within relative gap RESTART_GAP that is
nearly primal feasible: still well inside the cone and centred, yet far
along the path.  A restarted solve takes X, s, y and t from it, and Z
moved by minus the change of cost, which keeps the stored dual residual;
where that Z is not positive definite it keeps the stored Z, and the
residual takes up the change.  The attempt gets WARM_MAX_ITER iterations;
unless it ends ``optimal`` or ``cutoff`` the solve starts again cold, so a
poor restart costs at most that many iterations and the stop test is the
same either way.

A solve ends ``optimal`` (relative gap ``tol`` and the residual targets),
``cutoff``, ``slow_progress`` (a stall of the gap, or a failed
factorization) or ``iter_limit``.  ``cutoff`` needs a ``cutoff`` value: a
bundle evaluation passes the value above which its step is null and its
bound no better than the best (``bundle.minimize``).  Once its restart is
kept (so the next evaluation still starts warm), the solve then ends at
the first iterate whose relative primal residual is at most the
feasibility target max(tol, 1e-9) and whose primal objective exceeds the
cutoff: a nearly feasible X with <C, X> above the cutoff shows the optimum
above it.  The dual side needs no test, since the certified dual of any
iterate is valid.

The returned solution also carries a *certified* dual value: the dual
iterate is repaired to exact feasibility (clamping the inequality
multiplier; a Cholesky test that covers its rounding proves the dual slack
matrix psd, or else the diagonal duals move by its smallest eigenvalue),
which makes the reported upper bound valid however loosely it converged.

The module counts its own work in COUNTS, one ``defaultdict(int)`` per
process (a Counter's item update costs about twice as much):
Cholesky tests (``chol``), exact step lengths below the last rung
(``fallbacks``) and, once per ``solve`` call, the iterations of both
attempts (``iters``), the final status, and whether the call restarted
(``restarted``) and solved again cold (``cold_reruns``), and each face
test (``face_tests``, one ``face_bounds`` call).  ``bundle.minimize``
adds its stop reason (``stop_<reason>``), ``bnb.solve`` its face
test's fixes (``fixes``) and ``bnb.branch_and_prune`` its loop steps
(``bnp_steps``); a solve report's ``stats`` is the difference over the
solve (``counts_since``).
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from importlib.machinery import PathFinder

import numpy as np

from .relaxation import RelaxationData


def _load_lapack():
    """scipy's f2py LAPACK wrappers, loaded without the scipy.linalg package.

    Called at first use (``lapack``), so scipy is imported only then.  The
    extension scipy.linalg._flapack is found in scipy's linalg directory
    and loaded under its own name, so a later ``import scipy.linalg`` reuses
    it and ``scipy.linalg.lapack.dpotrf`` is this module's ``dpotrf``.  Where
    the file is not found, the public scipy.linalg.lapack is imported.
    """
    import scipy

    name = "scipy.linalg._flapack"
    spec = PathFinder.find_spec(name, [os.path.join(os.path.dirname(scipy.__file__), "linalg")])
    if spec is None:
        return importlib.import_module("scipy.linalg.lapack")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class _FirstUse:
    """Stands in for ``lapack`` until its first attribute read, which loads
    the extension and puts it in this module's ``lapack``."""

    def __getattr__(self, attr):
        global lapack
        lapack = _load_lapack()
        return getattr(lapack, attr)


lapack = _FirstUse()

OPTIMAL = "optimal"
CUTOFF = "cutoff"
SLOW_PROGRESS = "slow_progress"
ITER_LIMIT = "iter_limit"

MAX_ITER = 100
STEP_MIN = 0.95
STEP_MAX = 0.99
LADDER = (1.0, 0.9, 0.8, 0.6, 0.4, 0.2, 0.1, 0.05)  # step lengths, longest first
RESTART_GAP = 0.3  # relative gap at which an iterate is kept as a restart
WARM_MAX_ITER = 20  # iterations a restarted solve gets before it starts cold
FACE_STEPS = 6  # Newton steps of ``face_bounds``'s search
FACE_T0 = 0.003  # its start, in units of the median eigenvalue gap of Zc
COUNTS = defaultdict(int)  # the work done in this process, by name (module docstring)


def counts_since(before) -> dict:
    """The counters that moved since ``before``, a copy of COUNTS, by name."""
    return dict(sorted((Counter(COUNTS) - Counter(before)).items()))


@dataclass
class SdpSolution:
    X: np.ndarray
    s: float
    y: np.ndarray  # length n+2: diag duals, equality dual, inequality dual
    Z: np.ndarray
    t: float
    primal_obj: float
    dual_obj: float
    certified_dual: float
    iterations: int
    status: str
    # the first iterate at relative gap <= RESTART_GAP and primal residual
    # <= 1e-2, as (X, s, y, Z, t, C), or None: a start for a later solve
    restart: tuple | None


def _border(a_bar: np.ndarray) -> np.ndarray:
    """B = [e, a_bar], the n x 2 factor of the two rank-one constraints."""
    return np.column_stack([np.ones(len(a_bar)), a_bar])


def assemble_schur(Zi: np.ndarray, X: np.ndarray, B: np.ndarray,
                   s: float, t: float) -> np.ndarray:
    """Specialized O(n^2) assembly of the (n+2) x (n+2) system matrix;
    ``B`` is the border ``_border(a_bar)``."""
    n = X.shape[0]
    ZiB = Zi @ B
    XB = X @ B
    M = np.empty((n + 2, n + 2))
    M[:n, :n] = Zi * X
    M[:n, n:] = ZiB * XB
    M[n:, :n] = M[:n, n:].T
    M[n:, n:] = (B.T @ ZiB) * (B.T @ XB)
    M[n + 1, n + 1] += s / t
    return M


def _constraint_op(W: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A(W) = (diag(W); <ee',W>; <a a',W>) for any (possibly nonsymmetric) W."""
    return np.concatenate([W.diagonal(), (B * (W @ B)).sum(axis=0)])


def _adjoint_op(y: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A'(y) = Diag(y[:n]) + B Diag(y[n:]) B'."""
    n = B.shape[0]
    M = (B * y[n:]) @ B.T
    M.flat[::n + 1] += y[:n]
    return M


def _cholesky(P: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of P; LinAlgError unless P is pd.  dpotrf lets
    NaNs through; any in P's lower triangle leave a non-finite diagonal."""
    L, info = lapack.dpotrf(P, lower=1)
    if info != 0 or not math.isfinite(L.trace()):
        raise np.linalg.LinAlgError("matrix is not positive definite")
    return L


def _inv_factor(P: np.ndarray) -> np.ndarray:
    """L^{-1} for the Cholesky factor P = L L'; LinAlgError if P is not pd."""
    Li, info = lapack.dtrtri(_cholesky(P), lower=1, overwrite_c=1)
    if info != 0:
        raise np.linalg.LinAlgError("singular Cholesky factor")
    return Li


def _lambda_min(S: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric matrix S (one triangle is read)."""
    w, _, found, _, info = lapack.dsyevr(S, compute_v=0, range="I", il=1, iu=1)
    if info != 0 or found != 1:
        raise np.linalg.LinAlgError("smallest eigenvalue did not converge")
    return float(w[0])


def _max_step(Li: np.ndarray, dP: np.ndarray, scal: float, dscal: float) -> float:
    """Largest alpha keeping P + alpha*dP psd and scal + alpha*dscal >= 0.

    ``Li`` is the inverse Cholesky factor of P (``_inv_factor(P)``).
    """
    COUNTS["fallbacks"] += 1
    W = Li @ dP @ Li.T
    lam = _lambda_min(0.5 * (W + W.T))
    alpha = np.inf if lam >= -1e-14 else -1.0 / lam
    if dscal < 0:
        alpha = min(alpha, -scal / dscal)
    return alpha


def _is_pd(P: np.ndarray) -> bool:
    """Whether P passes a Cholesky test."""
    COUNTS["chol"] += 1
    try:
        _cholesky(P)
    except np.linalg.LinAlgError:
        return False
    return True


def _ladder(P: np.ndarray, dP: np.ndarray, scal: float, dscal: float,
            start: int = 0) -> tuple:
    """(a, b, i): the largest rung a = LADDER[i] with P + a*dP pd and
    a <= -scal/dscal, and b, the rung above a if its test failed, else None;
    below the last rung the exact step capped at 1 (which factors P), None
    and len(LADDER).  The search tests rung ``start`` (or the first under the
    cap) and walks up while rungs pass, down while they fail: P + a*dP is pd
    on an interval of a, so a and b are those of a search from the top."""
    cap = -scal / dscal if dscal < 0 else np.inf
    top = next((i for i, a in enumerate(LADDER) if a <= cap), len(LADDER))
    i = max(start, top)
    if i < len(LADDER) and _is_pd(P + LADDER[i] * dP):
        while i > top and _is_pd(P + LADDER[i - 1] * dP):
            i -= 1
        return LADDER[i], LADDER[i - 1] if i > top else None, i
    for i in range(i + 1, len(LADDER)):
        if _is_pd(P + LADDER[i] * dP):
            return LADDER[i], LADDER[i - 1], i
    return min(1.0, _max_step(_inv_factor(P), dP, scal, dscal)), None, len(LADDER)


def _corrector_step(P: np.ndarray, dP: np.ndarray, scal: float, dscal: float,
                    start: int = 0) -> tuple:
    """(a, i): the (a, i) of ``_ladder``, a moved up to the midpoint of a and
    b where b failed and the midpoint passes its test.  That halves the
    bracket: a is within half a rung gap of the boundary."""
    a, b, i = _ladder(P, dP, scal, dscal, start)
    if b is not None and _is_pd(P + 0.5 * (a + b) * dP):
        return 0.5 * (a + b), i
    return a, i


def _direction(Zi: np.ndarray, LM: np.ndarray, X: np.ndarray, s: float, t: float, B: np.ndarray,
               rhs: np.ndarray, Rd: np.ndarray, N: np.ndarray, mu: float, scorr: float) -> tuple:
    """The HKM direction (dX, ds, dy, dZ, dt), LM the Schur factor: dX = Z^{-1}
    (N + mu I - A'(dy) X) - X, N = Rd X - Corr, its one n x n product.  The
    right-hand side A(Z^{-1} (N + mu I)) - rhs + s e_{n+1} costs O(n^2): row
    sums of Z^{-1} o N', column sums of (Z^{-1} B) o (N B + mu B)."""
    n = X.shape[0]
    rs = (mu - s * t - scorr) / t
    r = np.concatenate([np.einsum("ij,ji->i", Zi, N) + mu * Zi.diagonal(),
                        ((Zi @ B) * (N @ B + mu * B)).sum(axis=0)]) - rhs
    r[n + 1] += s + rs
    dy, _ = lapack.dpotrs(LM, r, lower=1)
    dZ = _adjoint_op(dy, B) - Rd
    # A'(dy) X in O(n^2): Diag(dy[:n]) X + B Diag(dy[n:]) (B'X)
    M = N - dy[:n, None] * X
    M -= (B * dy[n:]) @ (B.T @ X)
    M.flat[::n + 1] += mu
    dX = Zi @ M - X
    dX = 0.5 * (dX + dX.T)
    dt = float(dy[n + 1])
    return dX, rs - (s / t) * dt, dy, dZ, dt


def certify_dual(y: np.ndarray, C: np.ndarray | None, B: np.ndarray | None,
                 rhs: np.ndarray, Zc: np.ndarray | None = None) -> float:
    """Repair y to exact dual feasibility and return the (valid) dual value.

    With y[n+1] clamped at 0, a Cholesky factorization of A = fl(Zc - delta
    I), Zc = A'(y) - C, that runs to completion proves Zc (as computed; its
    lower triangle) psd (Rump, BIT 46, 2006): with u = 2^-53 and g_k = k u /
    (1 - k u) the factor has R'R = A + E, |E| <= g_{n+1} |R'||R| (Higham,
    Accuracy and Stability, 2002, Thm 10.3), so lambda_min(A) >= -g_{n+1} /
    (1 - g_{n+1}) trace(A); the subtraction moves A_ii by <= u |Zc_ii -
    delta|.  So lambda_min(Zc) >= delta - (n+2) u T / (1 - 2 (n+2) u), T =
    sum |Zc_ii|, and delta = 2 (n+2) u T + 2^-1000 covers that, its own
    rounding and underflow.  Else y[:n] moves by delta - lambda_min(Zc).
    A caller that has formed Zc for the clamped y passes it (it is
    overwritten), and C and B are not read."""
    n = len(y) - 2
    y = y.copy()
    y[n + 1] = max(y[n + 1], 0.0)
    if Zc is None:
        Zc = _adjoint_op(y, B) - C
    Zc.flat[::n + 1] -= (n + 2) * 2.0 ** -52 * float(np.abs(Zc.diagonal()).sum()) + 2.0 ** -1000
    if not _is_pd(Zc):
        y[:n] -= _lambda_min(0.5 * (Zc + Zc.T))
    return float(rhs @ y)


def face_bounds(data: RelaxationData, y: np.ndarray, C: np.ndarray,
                level: float) -> np.ndarray:
    """Certified bounds from the dual (y, C) on the faces x_c = 0 and x_c = 1
    of the relaxation, with no further solve (Helmberg, SIAM J. Matrix Anal.
    Appl. 21, 2000): a (dim, 2) array whose entry [c, v] bounds the
    relaxation with the one more row <F_c, X> = r_v, F_c = (e e_c' + e_c
    e')/2 and r_v = (2v - 1) / proj_scale, which every selection with x_c =
    v satisfies.  Only the faces whose estimate falls below ``level`` are
    certified; every other entry, and the rows of the n == 2k dummy, is inf.

    With y[n+1] clamped at 0 and Zc = A'(y) - C = Q Diag(w) Q', each (tau,
    mu) with Zc + tau I + mu F_c psd is dual feasible for the face, of value
    rhs'y + dim tau + mu r (trace X = dim).  F_c has rank 2, so for tau > -w_1
    the best mu is -2 sign(r) / G with G = sqrt(uu vv) + sign(r) uv, where
    uu, uv and vv are e_c'M^{-1}e_c, e'M^{-1}e_c and e'M^{-1}e for M = Zc +
    tau I (the 2 x 2 condition of M + mu F_c on span{e, e_c}).  The
    estimate phi = rhs'y + dim tau - 2 |r| / G is convex in tau, and one
    search runs for all faces at once in t = tau + w_1: FACE_STEPS Newton
    steps on 1 / (dim - phi'), nearly linear in t where phi' rises like dim
    - c / t, kept inside the bracket that the sign of phi' gives and
    bisecting it (geometrically) where a step leaves it; each face keeps
    the best t it met.  t starts at FACE_T0 times the median eigenvalue gap,
    near the minimizers of n = 40 to 50 trees, and stays above 1e-6 times
    it, where the leading terms of uu vv and uv^2 cancel.  Each face to
    certify gets one ``certify_dual`` of (y + (tau + delta) on the diagonal,
    C - mu F_c), whose slack is Zc moved by that diagonal shift and the
    rank-2 mu F_c; delta = 1e-9 max |w| keeps that Cholesky test off the
    singular boundary of the mu chosen.
    """
    COUNTS["face_tests"] += 1
    n = data.dim
    B = _border(data.a_bar)
    rhs = np.concatenate([np.ones(n), [data.rhs_card], [data.rhs_cap]])
    y = y.copy()
    y[n + 1] = max(y[n + 1], 0.0)
    Zc = _adjoint_op(y, B) - C
    w, Q = np.linalg.eigh(Zc)
    q = Q.sum(axis=0)  # Q'e
    coord = np.repeat(np.flatnonzero(data.item_of_coord >= 0), 2)  # faces (c, 0), (c, 1)
    sign = np.tile([-1.0, 1.0], len(coord) // 2) * math.copysign(1.0, data.proj_scale)
    r = abs(1.0 / data.proj_scale)
    # weights of uu, uv and vv on each term 1 / (w_i + tau) of M^{-1}
    W = np.stack([Q[coord] ** 2, Q[coord] * q, np.broadcast_to(q * q, (len(coord), n))], axis=1)
    gaps = w - w[0]
    unit = float(np.median(gaps)) + 1e-9 * (1.0 + gaps[-1])
    lo, hi = np.full(len(coord), 1e-6 * unit), np.full(len(coord), 10.0 * (gaps[-1] + unit))
    t = np.full(len(coord), FACE_T0 * unit)
    est, best_t, best_G = np.full(len(coord), np.inf), t, np.ones(len(coord))
    base = float(rhs @ y) - n * w[0]
    # a G that cancels to 0 or below gives an inf or nan estimate, which
    # never becomes the best; a tiny G gives a low one that its
    # certificate then disproves
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(FACE_STEPS):
            d = 1.0 / (gaps + t[:, None])
            # uu, uv, vv and their first and second derivatives in t
            S = W @ np.stack([d, d * d, d * d * d], axis=-1)
            uu, uv, vv = S[..., 0].T
            uu1, uv1, vv1 = -S[..., 1].T
            uu2, uv2, vv2 = 2.0 * S[..., 2].T
            R = np.sqrt(uu * vv)
            R1 = (uu1 * vv + uu * vv1) / (2.0 * R)
            R2 = (uu2 * vv + 2.0 * uu1 * vv1 + uu * vv2 - 2.0 * R1 * R1) / (2.0 * R)
            G, G1, G2 = R + sign * uv, R1 + sign * uv1, R2 + sign * uv2
            value = base + n * t - 2.0 * r / G
            better = value < est
            est, best_t, best_G = (np.where(better, value, est), np.where(better, t, best_t),
                                   np.where(better, G, best_G))
            h = -2.0 * r * G1 / (G * G)  # dim - phi'
            curv = 2.0 * r * (G2 / (G * G) - 2.0 * G1 * G1 / (G * G * G))  # phi''
            lo, hi = np.where(h > n, t, lo), np.where(h > n, hi, t)
            step = t - (1.0 / h - 1.0 / n) * h * h / curv
            t = np.where((step > lo) & (step < hi), step, np.sqrt(lo * hi))
    out = np.full((n, 2), np.inf)
    delta = 1e-9 * float(np.abs(w).max())
    for f in np.flatnonzero(est < level):
        c, mu, shift = coord[f], -2.0 * sign[f] / best_G[f], best_t[f] - w[0] + delta
        yf = y.copy()
        yf[:n] += shift
        Zf = Zc.copy()
        Zf.flat[::n + 1] += shift
        Zf[c] += 0.5 * mu
        Zf[:, c] += 0.5 * mu
        out[c, f % 2] = certify_dual(yf, None, None, rhs, Zf) + mu * sign[f] * r
    return out


def solve(data: RelaxationData, C: np.ndarray, tol: float,
          start: tuple | None = None, cutoff: float | None = None) -> SdpSolution:
    """Solve the relaxation with cost matrix C to relative gap ``tol``.

    ``data`` is a relaxation that ``relaxation.build`` did not solve
    exactly, so its dimension is at least 3.  The bundle method passes
    C = C_bar - T'(gamma).  ``start`` is the ``restart`` of an earlier
    solve on the same data: the solve first runs at most WARM_MAX_ITER
    iterations from it (``_warm_point``) and, unless that attempt ends
    ``optimal`` or ``cutoff``, solves again from the cold start;
    ``iterations`` then counts both attempts.  With a ``cutoff``, either
    attempt may end ``cutoff`` (module docstring).
    """
    n = data.dim
    if C.shape != (n, n):
        raise ValueError(f"cost matrix must be {n}x{n}")
    if start is None:
        sol = _iterate(data, C, tol, _cold_point(data, C), MAX_ITER, cutoff)
    else:
        COUNTS["restarted"] += 1
        sol = _iterate(data, C, tol, _warm_point(start, C), WARM_MAX_ITER, cutoff)
        if sol.status not in (OPTIMAL, CUTOFF):
            COUNTS["cold_reruns"] += 1
            warm = sol.iterations
            sol = _iterate(data, C, tol, _cold_point(data, C), MAX_ITER, cutoff)
            sol.iterations += warm
    COUNTS["iters"] += sol.iterations
    COUNTS[sol.status] += 1
    return sol


def _cold_point(data: RelaxationData, C: np.ndarray) -> tuple:
    """The infeasible start (X, s, y, Z, t): X with unit diagonal, shaped
    toward e'Xe = rhs_card, and Z a multiple of the identity."""
    n = data.dim
    beta = (data.rhs_card - n) / (n * n - n)
    beta = float(np.clip(beta, -0.95 / (n - 1), 0.9))
    X = (1.0 - beta) * np.eye(n) + beta
    zeta = max(1.0, float(np.linalg.norm(C)) / n)
    s = max(1.0, data.rhs_cap - float(data.a_bar @ X @ data.a_bar))
    y = np.zeros(n + 2)
    y[n + 1] = zeta
    return X, s, y, zeta * np.eye(n), zeta


def _warm_point(start: tuple, C: np.ndarray) -> tuple:
    """The start (X, s, y, Z, t) for cost C from a ``restart`` of cost
    C_start: Z - (C - C_start) if positive definite, else Z."""
    X, s, y, Z, t, C_start = start
    shifted = Z - (C - C_start)
    return X, s, y, shifted if _is_pd(shifted) else Z, t


def _iterate(data: RelaxationData, C: np.ndarray, tol: float, point: tuple,
             max_iter: int, cutoff: float | None) -> SdpSolution:
    """At most ``max_iter`` iterations from ``point`` = (X, s, y, Z, t),
    ending ``cutoff`` where an iterate proves ``cutoff`` beaten (``solve``)."""
    n = data.dim
    B = _border(data.a_bar)
    rhs = np.concatenate([np.ones(n), [data.rhs_card], [data.rhs_cap]])
    rhs_norm = float(np.linalg.norm(rhs))
    C_norm = float(np.linalg.norm(C))
    feas_tol = max(tol, 1e-9)
    # absolute target for the constraint residuals on X
    res_abs = 1e-6 if tol <= 1e-6 else 1e-4
    X, s, y, Z, t = point

    status = ITER_LIMIT
    iters = 0
    recent_gaps = deque(maxlen=6)  # relgap of the last 6 iterations (stall test)
    pobj = dobj = 0.0
    restart = None
    px = pz = cx = cz = 0  # the rung where each ladder search ended last

    for it in range(max_iter):
        iters = it
        AX = _constraint_op(X, B)
        rp = rhs - AX
        rp[n + 1] -= s
        Rd = C - (_adjoint_op(y, B) - Z)
        pobj = float(np.vdot(C, X))
        dobj = float(rhs @ y)
        gap = float(np.vdot(X, Z)) + s * t
        mu = gap / (n + 1)
        relgap = abs(pobj - dobj) / (1.0 + abs(dobj))
        rp_rel = math.sqrt(np.vdot(rp, rp)) / (1.0 + rhs_norm)
        rd_rel = math.sqrt(np.vdot(Rd, Rd)) / (1.0 + C_norm)
        # the diagonal and cardinality equalities, and capacity overshoot
        res = max(float(np.abs(rp[:n + 1]).max()), AX[n + 1] - data.rhs_cap)
        recent_gaps.append(relgap)
        # the iterates are never changed in place, so references suffice
        if restart is None and relgap <= RESTART_GAP and rp_rel <= 1e-2:
            restart = (X, s, y, Z, t, C)

        if relgap <= tol and rp_rel <= feas_tol and rd_rel <= feas_tol and res <= res_abs:
            status = OPTIMAL
            break
        if cutoff is not None and restart is not None and rp_rel <= feas_tol \
                and pobj > cutoff:
            status = CUTOFF
            break
        if len(recent_gaps) == 6 and relgap > 0.99 * recent_gaps[0] \
                and rp_rel <= feas_tol and rd_rel <= feas_tol:
            status = SLOW_PROGRESS
            break

        try:
            LZi = _inv_factor(Z)
            Zi = LZi.T @ LZi
            LM = _cholesky(assemble_schur(Zi, X, B, s, t))
        except np.linalg.LinAlgError:
            status = SLOW_PROGRESS
            break

        RdX = Rd @ X
        try:
            # predictor (affine scaling)
            dXa, dsa, _, dZa, dta = _direction(Zi, LM, X, s, t, B, rhs, Rd, RdX, 0.0, 0.0)
            ap, _, px = _ladder(X, dXa, s, dsa, max(px - 1, 0))
            ad, _, pz = _ladder(Z, dZa, t, dta, max(pz - 1, 0))
            gap_aff = float(np.vdot(X + ap * dXa, Z + ad * dZa)) \
                + (s + ap * dsa) * (t + ad * dta)
            sigma = min(max((max(gap_aff, 0.0) / gap) ** 3, 1e-8), 1.0)
            gamma = STEP_MIN + (STEP_MAX - STEP_MIN) * min(ap, ad)
            # corrector
            dX, ds, dy, dZ, dt = _direction(Zi, LM, X, s, t, B, rhs, Rd, RdX - dZa @ dXa,
                                            sigma * mu, dsa * dta)
            ap, cx = _corrector_step(X, dX, s, ds, max(cx - 1, 0))
            ad, cz = _corrector_step(Z, dZ, t, dt, max(cz - 1, 0))
        except np.linalg.LinAlgError:
            status = SLOW_PROGRESS
            break

        ap, ad = gamma * ap, gamma * ad
        X = X + ap * dX
        X = 0.5 * (X + X.T)
        s = s + ap * ds
        y = y + ad * dy
        Z = Z + ad * dZ
        Z = 0.5 * (Z + Z.T)
        t = t + ad * dt
    else:
        iters = max_iter

    certified = certify_dual(y, C, B, rhs)
    return SdpSolution(
        X=X, s=float(s), y=y, Z=Z, t=float(t),
        primal_obj=pobj, dual_obj=dobj, certified_dual=certified,
        iterations=iters, status=status, restart=restart)
