"""Proximal bundle method for the strengthened (triangle-cut) bound.

Minimizes the nonsmooth dual functional

    f(gamma) = e'gamma + max { <C_bar - T'(gamma), X> : X relaxation-feasible }

over gamma >= 0, where each evaluation is one interior-point solve with a
shifted cost matrix and the subgradient is the cut slack e - T(X*) at the
maximizer.  The cut pool is dynamic: every few descent steps the most
violated triangle inequalities at the current maximizer are added and cuts
with near-zero multiplier are dropped.

Two values come out of each oracle call: the primal objective at X* (used
for the cutting-plane model and descent decisions) and a certified dual
value (always a valid upper bound on the integer optimum, used for
reporting and pruning).  The reported bound is the running minimum of the
certified values, hence valid even when the bundle stops far from the
minimizer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize as scipy_minimize

from . import cuts as cuts_mod
from . import ipm
from .cuts import CutPool
from .relaxation import RelaxationData

DESCENT_RATIO = 0.1  # m_L: share of the predicted decrease a descent step must reach
STALL_TOL = 1e-6  # relative predicted decrease below which the loop stops
U_INIT = 1.0  # initial proximal weight
BUNDLE_MAX = 25  # linearizations kept in the cutting-plane model
GAMMA_DROP = 1e-5  # cuts whose multiplier falls below this leave the pool
UPDATE_PERIOD = 5  # descent steps between cut pool updates


@dataclass
class OracleValue:
    value: float  # e'gamma + primal objective + const (model side)
    bound: float  # e'gamma + certified dual + const (always valid)
    g: np.ndarray  # subgradient e - T(X*) on the pool
    X: np.ndarray


@dataclass
class BundleResult:
    bound: float
    X_last: np.ndarray
    pool: CutPool
    evals: int
    reason: str  # pruned | stalled | budget | no_cuts
    bound_samples: list = field(default_factory=list)  # certified value per eval
    f_center_history: list = field(default_factory=list)


def oracle_eval(pool: CutPool, gamma: np.ndarray, relax: RelaxationData,
                ipm_tol: float) -> OracleValue:
    """One evaluation of the dual functional; gamma conformal with pool."""
    gamma = np.asarray(gamma, dtype=float)
    if (gamma < 0).any():
        raise ValueError("gamma must be nonnegative")
    cost = relax.C_bar - cuts_mod.adjoint_apply(pool.cuts, gamma, relax.dim)
    egamma = float(gamma.sum())
    sol = ipm.solve(relax, cost_override=cost, tol=ipm_tol)
    g = cuts_mod.evaluate(pool.cuts, sol.X)
    return OracleValue(
        value=egamma + sol.primal_obj + relax.const_term,
        bound=egamma + sol.certified_dual + relax.const_term,
        g=g,
        X=sol.X,
    )


def _solve_model(lin_c: np.ndarray, G: np.ndarray, center: np.ndarray, u: float):
    """Candidate minimizing the cutting-plane model plus proximal term.

    The model is max_i (c_i + g_i'gamma) and the candidate solves
    min_{gamma>=0} model(gamma) + (u/2)||gamma - center||^2 via its simplex
    dual: for weights lam the inner minimizer is max(0, center - G lam / u).
    Returns (candidate, model value at candidate).
    """
    p = len(lin_c)
    if p == 1:
        cand = np.maximum(0.0, center - G[:, 0] / u)
        return cand, float(lin_c[0] + G[:, 0] @ cand)

    def neg_theta(lam):
        cand = np.maximum(0.0, center - (G @ lam) / u)
        vals = lin_c + G.T @ cand
        theta = float(lam @ vals) + 0.5 * u * float(np.sum((cand - center) ** 2))
        return -theta, -vals  # envelope gradient

    lam0 = np.full(p, 1.0 / p)
    res = scipy_minimize(
        neg_theta, lam0, jac=True, method="SLSQP",
        bounds=[(0.0, 1.0)] * p,
        constraints=[{"type": "eq", "fun": lambda l: l.sum() - 1.0,
                      "jac": lambda l: np.ones(p)}],
        options={"maxiter": 100, "ftol": 1e-12},
    )
    lam = np.clip(res.x, 0.0, 1.0)
    ssum = lam.sum()
    lam = lam / ssum if ssum > 0 else lam0
    cand = np.maximum(0.0, center - (G @ lam) / u)
    model = float(np.max(lin_c + G.T @ cand))
    return cand, model


def minimize(relax: RelaxationData, lower_bound: float, max_evals: int, ipm_tol: float,
             cuts_per_update: int | None = None,
             deadline: float | None = None) -> BundleResult:
    """Bundle loop; ``lower_bound`` enables early pruning (use -inf to disable).

    Each of the at most ``max_evals`` evaluations is an interior-point solve
    to relative gap ``ipm_tol``; every pool update adds up to
    ``cuts_per_update`` cuts (default min(5n, 300)).  Stops when (a) the
    certified bound dips below lower_bound + 1 (objective is integral, so
    the node is prunable), (b) the predicted model decrease stalls, (c) the
    evaluation budget is exhausted or (d) ``deadline``, a
    ``time.perf_counter()`` value, has passed; the first evaluation always
    runs.
    """
    n = relax.dim
    pool = CutPool(n)
    first = oracle_eval(pool, np.zeros(0), relax, ipm_tol)
    evals = 1
    best_bound = first.bound
    bound_samples = [first.bound]

    def result(reason, X_last, f_hist):
        return BundleResult(best_bound, X_last, pool, evals, reason,
                            bound_samples, f_hist)

    if best_bound < lower_bound + 1.0:
        return result("pruned", first.X, [first.value])
    if evals >= max_evals or n < 3:
        return result("budget", first.X, [first.value])

    m = min(5 * n, 300) if cuts_per_update is None else cuts_per_update
    pool.add(cuts_mod.separate(first.X, m))
    if len(pool) == 0:
        return result("no_cuts", first.X, [first.value])

    center = np.zeros(len(pool))
    f_center = first.value
    X_center = first.X
    g_center = cuts_mod.evaluate(pool.cuts, X_center)
    f_hist = [f_center]
    # linearizations stored as (constant, gradient): lin(gamma) = c + g'gamma
    lin_c = [f_center - g_center @ center]
    lin_g = [g_center]
    u = U_INIT
    descents = 0
    nulls_in_row = 0
    reason = "budget"

    while evals < max_evals:
        if deadline is not None and time.perf_counter() > deadline:
            reason = "budget"
            break
        G = np.column_stack(lin_g)
        cand, model = _solve_model(np.array(lin_c), G, center, u)
        predicted = f_center - model
        if predicted <= STALL_TOL * (1.0 + abs(f_center)):
            reason = "stalled"
            break

        out = oracle_eval(pool, cand, relax, ipm_tol)
        evals += 1
        best_bound = min(best_bound, out.bound)
        bound_samples.append(out.bound)
        if best_bound < lower_bound + 1.0:
            X_center = out.X
            reason = "pruned"
            break

        lin_c.append(out.value - out.g @ cand)
        lin_g.append(out.g)
        if len(lin_c) > BUNDLE_MAX:
            # aggregate the two oldest pieces into their pointwise max proxy
            # (keep the tighter one at the candidate); cheap and sufficient
            drop = 0 if lin_c[0] + lin_g[0] @ cand <= lin_c[1] + lin_g[1] @ cand else 1
            del lin_c[drop], lin_g[drop]

        if out.value <= f_center - DESCENT_RATIO * predicted:
            # descent step
            center = cand
            f_center = out.value
            X_center = out.X
            descents += 1
            nulls_in_row = 0
            u = max(u * 0.5, 1e-3)
            f_hist.append(f_center)
            if descents % UPDATE_PERIOD == 0:
                pool.set_gamma(center)
                pool.drop_small(GAMMA_DROP)
                pool.add(cuts_mod.separate(X_center, m, exclude=pool.cuts))
                pool.enforce_capacity()
                # rebuild the model in the new coordinate system
                center = pool.gamma.copy()
                g_center = cuts_mod.evaluate(pool.cuts, X_center)
                lin_c = [f_center - g_center @ center]
                lin_g = [g_center]
        else:
            nulls_in_row += 1
            if nulls_in_row >= 3:
                u = min(u * 2.0, 1e4)
                nulls_in_row = 0

    pool.set_gamma(center)
    return result(reason, X_center, f_hist)
