"""Proximal bundle method for the strengthened (triangle-cut) bound.

Minimizes the nonsmooth dual functional

    f(gamma) = e'gamma + max { <C_bar - T'(gamma), X> : X relaxation-feasible }

over gamma >= 0, where each evaluation is one interior-point solve with a
shifted cost matrix and the subgradient is the cut slack e - T(X*) at the
maximizer.  The cut pool is dynamic: it is an (m, 4) cut array (see
``cuts``) with one multiplier per row, and every few descent steps the most
violated triangle inequalities at the current maximizer are added, cuts
with near-zero multiplier are dropped and the pool is trimmed to
POOL_CAPACITY cuts per item.  A search may start from a given pool and
multipliers, such as a parent node's final ones; the empty pool at
multiplier 0 is the cold start, whose first evaluation is the plain SDP
bound.  ``relaxation.build`` answers the exact cases itself, so every
relaxation that reaches here has dimension at least 3 and a triangle to
cut with.

Each candidate minimizes the cutting-plane model plus a proximal term.  That
subproblem is solved exactly through its dual over the unit simplex of
piece weights (Kiwiel, SIAM J. Sci. Stat. Comput. 1989) by one primal-dual
active-set loop on the weights and the coordinates the candidate leaves
positive, each step one small KKT solve, up to MODEL_STEPS per piece.  The
model gains one piece per evaluation and restarts at each pool update, so
the evaluation budget bounds its size and no piece is ever dropped.  The
subproblem's accuracy only steers the trajectory; every reported bound is
an oracle's certified dual value.  So every evaluation, root and nodes
alike, solves to one loose relative gap ``IPM_TOL``: the certified dual is
valid however loosely the solve converged, so the tolerance only steers
the bundle.

Successive evaluations differ only in their cost matrix, so each interior-
point solve after the first of a ``minimize`` call restarts from the
``restart`` iterate of the one before (``ipm.solve``; Gondzio & Grothey,
SIAM J. Optim. 2002), and each subproblem after the first of a model starts
from the previous subproblem's weights, 0 on the new piece.

Most evaluations are null steps, and their solves stop early: an oracle of
on-demand accuracy (Kiwiel, SIAM J. Optim. 16, 2006; de Oliveira,
Sagastizabal & Lemarechal, Math. Program. 148, 2014).  Each evaluation
after the first of a ``minimize`` call gets a target, max(f_center -
DESCENT_RATIO * predicted, best bound).  A value above it makes the step
null, and the evaluation's certified bound, at least its value, cannot
become the best.  So the IPM stops at a nearly feasible iterate whose
objective shows the value above the target (``ipm.solve``'s ``cutoff``).
The piece such an evaluation adds is still the Lagrangian at its X, a
minorant of f that is only less tight at the candidate, and its bound is
still a certified dual value.

A search may ask the loop to stop at a pool update once the face test of
its best dual (``excluded_faces``) would fix at least FIX_SHARE of the
relaxation's coordinates (``fixable``), so that it bounds the smaller face
with the rest of the budget; that test of the best dual then comes out at
every stop but ``pruned``.  The other stops are ``pruned`` (the bound
proves the node prunable), ``no_cuts``, ``budget`` and ``stalled``.

Two values come out of each oracle call: the primal objective at X* (used
for the cutting-plane model and descent decisions) and a certified dual
value (always a valid upper bound on the integer optimum, used for
reporting and pruning).  The reported bound is the running minimum of the
certified values, hence valid even when the bundle stops far from the
minimizer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import cuts as cuts_mod
from . import ipm
from .relaxation import RelaxationData

DESCENT_RATIO = 0.1  # m_L: share of the predicted decrease a descent step must reach
STALL_TOL = 1e-6  # relative predicted decrease below which the loop stops
U_INIT = 1.0  # initial proximal weight
GAMMA_DROP = 1e-5  # cuts whose multiplier falls below this leave the pool
UPDATE_PERIOD = 5  # descent steps between cut pool updates
POOL_CAPACITY = 10  # cuts the pool may hold per item of the relaxation
IPM_TOL = 1e-4  # relative gap of every evaluation's interior-point solve
# cap on the steps of _model_weights per piece of its model: at most 3.7 and 2.5 on
# the bb_n40 and root_n100 subproblems (warm), 5.8 on generated ones of up to 30 pieces
MODEL_STEPS = 10
# share of the relaxation's coordinates whose excluded faces stop a search's bundle
# (``fixable``); each stop pays a cold IPM start on the smaller face.  IPM iterations
# of the bb_n40 suite / n = 60 d25 s3 / n = 80 d50 s5 solves, 3844 / 7451 / 2703 with
# no stop: any fix 1916 / 8273 / 1581, 0.1 2062 / 7873 / 1764, 0.15 2106 / 7179 / 1732,
# 0.2 2164 / 7128 / 1698.  At 0.1 the n = 60 solve ran about 6% slower than with no
# stop (9 of 10 alternating CPU runs), at 0.15 about 10% faster (7 of 8).
FIX_SHARE = 0.15


@dataclass
class OracleValue:
    value: float  # e'gamma + primal objective + const (model side)
    bound: float  # e'gamma + certified dual + const (always valid)
    g: np.ndarray  # subgradient e - T(X*) on the pool
    X: np.ndarray
    restart: tuple | None  # the IPM's restart, a start for the next evaluation
    # (y, cost, offset): bound = offset + ipm.certify_dual of y and cost
    dual: tuple


@dataclass
class BundleResult:
    bound: float
    X_last: np.ndarray
    pool: np.ndarray  # the final (m, 4) cut array
    gamma: np.ndarray  # the center's multipliers, one per row of pool
    evals: int
    reason: str  # pruned | fixable | stalled | budget | no_cuts
    # with ``fixable``, excluded_faces at the lower bound of the ``dual`` of
    # the evaluation whose bound is ``bound``; None after a ``pruned`` stop
    # or without ``fixable``
    faces: np.ndarray | None


def oracle_eval(cuts: np.ndarray, gamma: np.ndarray, relax: RelaxationData,
                start: tuple | None = None, target: float | None = None) -> OracleValue:
    """One evaluation of the dual functional; gamma holds one multiplier per
    row of the cut array ``cuts``, and ``start`` is passed to ``ipm.solve``
    (an earlier evaluation's ``restart``).  With a ``target``, in the
    value's units, the solve stops once its primal objective proves the
    value above it (``ipm.solve``'s ``cutoff``)."""
    gamma = np.asarray(gamma, dtype=float)
    if (gamma < 0).any():
        raise ValueError("gamma must be nonnegative")
    cost = relax.C_bar - cuts_mod.adjoint_apply(cuts, gamma, relax.dim)
    egamma = float(gamma.sum())
    cutoff = None if target is None else target - egamma - relax.const_term
    sol = ipm.solve(relax, cost, IPM_TOL, start, cutoff)
    g = cuts_mod.evaluate(cuts, sol.X)
    return OracleValue(
        value=egamma + sol.primal_obj + relax.const_term,
        bound=egamma + sol.certified_dual + relax.const_term,
        g=g,
        X=sol.X,
        restart=sol.restart,
        dual=(sol.y, cost, egamma + relax.const_term),
    )


def _line_max(z: np.ndarray, b: np.ndarray, cd: float, u: float) -> float:
    """The t in [0, 1] maximizing theta(lam + t d), where z = center - G lam / u,
    b = G d / u and cd = c'd.  The slope cd + u * sum(b * max(0, z - t b)) is
    continuous, piecewise linear and nonincreasing in t: find its zero.
    Between kinks z / b it is cd + u (S1 - t S2), S1 and S2 summing b z and
    b^2 over the terms with z > t b, which a kink adds (b < 0) or drops.
    A kink that overflows to +-inf is harmless: it lies outside (0, 1), and
    its sign still places the term correctly in ``active``; a term with
    b = 0 adds 0 to every sum."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        kinks = z / b
    inner = np.flatnonzero((kinks > 0) & (kinks < 1))
    inner = inner[np.argsort(kinks[inner])]
    ts = np.concatenate(([0.0], kinks[inner], [1.0]))
    # active just right of t = 0: a term with z = 0 and b < 0 enters at 0
    active = ((b > 0) & (kinks > 0)) | ((b < 0) & (kinks <= 0))
    bz, bb, sign = b * z, b * b, -np.sign(b[inner])
    S1 = np.cumsum(np.concatenate(([bz[active].sum()], sign * bz[inner], [0.0])))
    S2 = np.cumsum(np.concatenate(([bb[active].sum()], sign * bb[inner], [0.0])))
    slope = cd + u * (S1 - ts * S2)
    if slope[-1] >= 0:
        return 1.0
    i = int(np.argmax(slope < 0))
    if i == 0:
        return 0.0
    return ts[i - 1] + (ts[i] - ts[i - 1]) * slope[i - 1] / (slope[i - 1] - slope[i])


def _model_weights(lin_c: np.ndarray, G: np.ndarray, center: np.ndarray,
                   u: float, lam: np.ndarray | None = None) -> np.ndarray:
    """Weights lam maximizing the simplex dual of the bundle subproblem,

        theta(lam) = lam'c + (u/2)||center||^2 - (u/2)||max(0, z)||^2,
        z = center - G lam / u,

    concave and continuously differentiable, with gradient v = c + G'max(0,
    z): each piece's value at the candidate max(0, z).  One primal-dual
    active-set loop (Hintermueller, Ito & Kunisch, SIAM J. Optim. 13, 2003)
    keeps the support S, which holds every positive weight, and F = {z > 0}.
    On F theta is a quadratic, and a step is its Newton step on the face
    sum(lam_S) = 1: the KKT system [G_FS'G_FS / u, e; e', 0], solved by one
    eigendecomposition on {d : sum(d) = 0}.  Where that is singular
    (duplicate pieces, |F| < |S|) and v has a component in its null space,
    theta rises linearly along it, and the step walks to the nearest bound.
    A step cut short by a bound drops that piece from S.  F is reset from
    each new z; where it changed and theta does not rise, the step goes to
    the maximum of theta on its segment (``_line_max``), so theta never
    falls and full steps cannot cycle.  A step that ends at no bound with F
    unchanged maximizes theta on the face: then the piece most above max
    v_S joins S or, with none, lam is the KKT point and is returned.  The
    start is ``lam``, any point of the simplex, or else the best vertex;
    its most violated piece joins at once (a warm start's new piece).  The
    loop ends after MODEL_STEPS steps per piece, or when a segment gives no
    rise.  The subproblem is strongly convex, so its candidate is the same
    from every start up to rounding; a start near the maximizer saves steps.
    """
    if len(lin_c) == 1:
        return np.ones(1)
    if lam is None:
        # theta at each vertex e_i: the Lagrangian at its minimizer Z[:, i]
        Z = np.maximum(0.0, center[:, None] - G / u)
        vertex_theta = lin_c + (G * Z).sum(0) + 0.5 * u * ((Z - center[:, None]) ** 2).sum(0)
        lam = np.eye(len(lin_c))[int(np.argmax(vertex_theta))]
    lam = np.array(lam, dtype=float)
    free = lam > 0
    S = np.flatnonzero(free)
    GS = G[:, S]
    z = center - GS @ lam[S] / u
    F = z > 0
    stationary, price = len(S) == 1, True
    for _ in range(MODEL_STEPS * len(lin_c)):
        zp = np.maximum(z, 0.0)
        v = lin_c + G.T @ zp
        if price:
            out = np.where(free, -np.inf, v)
            j = int(np.argmax(out))
            if out[j] - v[S].max() > 1e-13 * np.abs(v).max():
                free[j] = True
                S = np.flatnonzero(free)
                GS = G[:, S]
            elif stationary:
                break
        m = len(S)
        Q = GS.T @ (GS * F[:, None])
        row = Q.sum(0) / m
        w, V, info = ipm.lapack.dsyevd(Q - row - row[:, None] + row.sum() / m)
        if info != 0:
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        c = V.T @ (v[S] - v[S].sum() / m)
        # w[i:] > 0; one w ~ 0 belongs to the ones vector, orthogonal to every step
        i = int(np.searchsorted(w, 1e-12 * w[-1], side="right"))
        if i > 1 and np.abs(c[:i]).max() > 1e-13 * (np.abs(v).max() + w[-1] / u):
            d, alpha = V[:, :i] @ c[:i], np.inf
        else:
            d, alpha = u * (V[:, i:] @ (c[i:] / w[i:])), 1.0
        d -= d.sum() / m  # rounding mixes the ones vector into nearly null eigenvectors
        lam_S, t = lam[S], 1.0
        blocked = alpha > 1.0 or (lam_S + d).min() < 0.0
        if blocked:  # the step ends where the first weight reaches 0
            ratios = np.where(d < 0, lam_S, np.inf) / np.abs(d)
            k = int(np.argmin(ratios))
            t = ratios[k]
        b = GS @ d / u
        z_new = z - t * b
        F_new = z_new > 0
        if not np.array_equal(F_new, F):
            zn, cd = np.maximum(z_new, 0.0), float(lin_c[S] @ d)
            if not t * cd > 0.5 * u * (zn @ zn - zp @ zp):  # theta does not rise
                t *= _line_max(z, t * b, t * cd, u)
                z_new = z - t * b
                F_new = z_new > 0
                blocked = blocked and t == ratios[k]
        lam[S] = np.maximum(lam_S + t * d, 0.0)
        price = stationary = not blocked and (t == 0.0 or np.array_equal(F_new, F))
        if blocked:
            lam[S[k]] = 0.0
            free[S[k]] = False
            S = np.flatnonzero(free)
            GS = G[:, S]
        z, F = z_new, F_new
    return lam / lam.sum()


def _solve_model(lin_c: np.ndarray, G: np.ndarray, center: np.ndarray, u: float,
                 lam: np.ndarray | None = None):
    """Candidate minimizing the cutting-plane model plus proximal term.

    The model is max_i (c_i + g_i'gamma) and the candidate solves
    min_{gamma>=0} model(gamma) + (u/2)||gamma - center||^2 exactly through
    its simplex dual (``_model_weights``, started at ``lam``): for weights
    lam the inner minimizer is max(0, center - G lam / u).  Returns
    (candidate, model value at candidate, weights).
    """
    lam = _model_weights(lin_c, G, center, u, lam)
    cand = np.maximum(0.0, center - G @ lam / u)
    return cand, float(np.max(lin_c + G.T @ cand)), lam


def prunable(bound: float, lower_bound: float) -> bool:
    """Whether ``bound`` proves that nothing beats ``lower_bound``.

    All data are integers, so a better selection is worth at least
    lower_bound + 1; the 1e-6 keeps a bound that meets that value up to
    rounding from pruning.
    """
    return bound < lower_bound + 1 - 1e-6


def excluded_faces(relax: RelaxationData, dual: tuple, value: float) -> np.ndarray:
    """The face test of an evaluation's ``dual``: a (dim, 2) bool array, True
    at [c, v] where the certified bound of the face x_c = v
    (``ipm.face_bounds``) proves that no selection on it beats ``value``."""
    y, cost, offset = dual
    return prunable(ipm.face_bounds(relax, y, cost, value + 1 - offset) + offset, value)


def _update_pool(cuts: np.ndarray, gamma: np.ndarray, X: np.ndarray, m: int):
    """The pool after one update at X: (cuts, gamma).

    Cuts with multiplier below GAMMA_DROP leave, up to m of the cuts most
    violated at X join at multiplier 0, and then the lowest multipliers
    leave, later rows first among ties, until at most POOL_CAPACITY cuts
    per item remain: new cuts come most violated first, so those stay.
    ``separate`` returns only new, distinct rows, so the pool stays free of
    duplicates.
    """
    keep = gamma >= GAMMA_DROP
    new = cuts_mod.separate(X, m, exclude=cuts[keep])
    cuts = np.concatenate([cuts[keep], new])
    gamma = np.concatenate([gamma[keep], np.zeros(len(new))])
    excess = len(cuts) - POOL_CAPACITY * X.shape[0]
    if excess > 0:
        keep = np.ones(len(cuts), dtype=bool)
        keep[np.lexsort((-np.arange(len(gamma)), gamma))[:excess]] = False
        cuts, gamma = cuts[keep], gamma[keep]
    return cuts, gamma


def minimize(relax: RelaxationData, lower_bound: float, max_evals: int,
             cuts_per_update: int | None = None,
             deadline: float | None = None,
             pool: tuple[np.ndarray, np.ndarray] | None = None,
             fixable: bool = False) -> BundleResult:
    """Bundle loop; ``lower_bound`` enables early pruning (use -inf to disable).

    ``pool`` is the start, a cut array and its multipliers ``(cuts,
    gamma)`` with gamma >= 0 (default: the empty pool); that gamma is the
    first candidate, and any start gives valid bounds, since every gamma >= 0
    does.  Each pass evaluates one candidate, an interior-point solve to
    relative gap ``IPM_TOL`` (the first cold, each later one from the
    ``restart`` of the one before and cut short once its value exceeds the
    target, module docstring), and then, in this order: (1) stops as
    ``pruned`` once the certified bound proves the node prunable
    (``prunable``); (2) takes a descent step to the candidate, the first
    evaluation being the first center; (3) updates the pool
    (``_update_pool``) if an update is due, after the first evaluation
    unless it spent the budget and after every UPDATE_PERIOD-th descent
    step, adding up to ``cuts_per_update`` cuts (default min(5n, 300)) and
    restarting the cutting-plane model from the center in the new pool's
    coordinates, and stops as ``no_cuts`` if the pool is left empty; (4)
    stops as ``budget`` once ``max_evals`` evaluations have run or
    ``deadline``, a ``time.perf_counter()`` value, has passed; (5) solves
    the model for the next candidate and stops as ``stalled`` when its
    predicted decrease does.  The result holds the center's pool and
    multipliers, so an update at the last evaluation reaches it.

    With ``fixable`` (a search's node), each update that is due while
    evaluations are left first runs the face test of the best evaluation's
    dual at ``lower_bound`` (``excluded_faces``), and stops as ``fixable``,
    before the update, when it excludes a face of at least FIX_SHARE of the
    coordinates: the caller then fixes those items and bounds the smaller
    face with the evaluations left.  The update restarts the model anyway,
    so the stop loses only the IPM restart.  At every stop but ``pruned``
    the result's ``faces`` holds that test of the best dual, which the stop
    runs once more only when no test ran since the best evaluation.
    """
    m = min(5 * relax.dim, 300) if cuts_per_update is None else cuts_per_update
    cuts, cand = (np.zeros((0, 4), dtype=np.int64), np.zeros(0)) if pool is None else pool
    center = cand
    u = U_INIT
    evals = 0
    descents = 0
    nulls_in_row = 0
    best_bound = np.inf
    dual = faces = None
    restart = target = None

    while True:
        out = oracle_eval(cuts, cand, relax, restart, target)
        restart = out.restart
        evals += 1
        if out.bound < best_bound:
            best_bound, dual, faces = out.bound, out.dual, None
        if prunable(best_bound, lower_bound):
            X_center = out.X
            reason = "pruned"
            break

        if evals == 1:  # the start is the first center
            f_center = out.value
            X_center = out.X
            update_due = evals < max_evals
        else:
            lin_c.append(out.value - out.g @ cand)
            lin_g.append(out.g)
            if out.value <= f_center - DESCENT_RATIO * predicted:
                # descent step
                center = cand
                f_center = out.value
                X_center = out.X
                descents += 1
                nulls_in_row = 0
                u = max(u * 0.5, 1e-3)
                update_due = descents % UPDATE_PERIOD == 0
            else:
                nulls_in_row += 1
                if nulls_in_row >= 3:
                    u = min(u * 2.0, 1e4)
                    nulls_in_row = 0

        if update_due:
            update_due = False
            if fixable and evals < max_evals:
                if faces is None:
                    faces = excluded_faces(relax, dual, lower_bound)
                if np.count_nonzero(faces.any(axis=1)) >= FIX_SHARE * relax.dim:
                    reason = "fixable"
                    break
            cuts, center = _update_pool(cuts, center, X_center, m)
            if len(cuts) == 0:
                reason = "no_cuts"
                break
            # linearizations stored as (constant, gradient): lin(gamma) = c + g'gamma
            g_center = cuts_mod.evaluate(cuts, X_center)
            lin_c = [f_center - g_center @ center]
            lin_g = [g_center]
            lam = None
        if evals >= max_evals or (deadline is not None and time.perf_counter() > deadline):
            reason = "budget"
            break
        G = np.column_stack(lin_g)
        if lam is not None:  # the last weights, 0 on the piece added since
            lam = np.append(lam, 0.0)
        cand, model, lam = _solve_model(np.array(lin_c), G, center, u, lam)
        predicted = f_center - model
        if predicted <= STALL_TOL * (1.0 + abs(f_center)):
            reason = "stalled"
            break
        # a value above this makes the step null and its bound no better
        target = max(f_center - DESCENT_RATIO * predicted, best_bound)

    if fixable and reason != "pruned" and faces is None:
        faces = excluded_faces(relax, dual, lower_bound)
    ipm.COUNTS[f"stop_{reason}"] += 1
    return BundleResult(best_bound, X_center, cuts, center, evals, reason, faces)
