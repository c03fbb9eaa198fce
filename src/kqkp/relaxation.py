"""Projected semidefinite relaxation of the k-item quadratic knapsack.

The binary problem is rewritten in +/-1 variables y = 2x - e, homogenized
with a leading coordinate, and projected onto the orthogonal complement of
the forced null eigenvector so that Slater's condition holds.  The result is
an order-n SDP

    max <C_bar, X>  s.t.  diag(X) = e,  <ee', X> = (2k-n)^2,
                          <a_bar a_bar', X> <= (b - b')^2,  X psd,

whose constraint matrices are all diagonal or rank one.

When b == b' (the weight of the k lightest items) the capacity row becomes
<a_bar a_bar', X> <= 0, which no positive definite X satisfies strictly, so
Slater's condition fails and an interior-point method stalls.  ``build``
therefore reduces that case exactly before relaxing: every feasible
selection then takes all items lighter than the k-th smallest weight w_k and
``need`` items of weight w_k, so the lighter items are fixed to 1, the
heavier ones to 0, and the SDP is built on the tie class alone, where every
weight is w_k, a_bar = 0 and the capacity row is the trivial 0 <= 0.

``build`` alone decides that a relaxation is exact: when the instance, or
its b == b' face, has k in {0, 1, n}, its best selection (no item, the
fitting item of largest diagonal entry, or every item) and its value are
the relaxation, of dimension 0, in ``x_fixed`` and ``const_term``.  Any
other relaxation has dimension at least 3, so a triangle cut exists.

When n == 2k the projection scale 1/(2k-n) is undefined.  ``build`` then
appends a zero-profit item of weight b+1, which no feasible selection can
take, so the optimum is unchanged and 2k != n holds again.

``build`` records two index maps, each increasing where >= 0: item of its
instance -> SDP coordinate (-1 where the b == b' reduction fixed the item)
and coordinate -> item (-1 for the dummy).  ``extract_fractional`` and the
search's cut pools go through them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Instance, fix_variable, preprocess


@dataclass(frozen=True)
class RelaxationData:
    dim: int
    C_bar: np.ndarray
    a_bar: np.ndarray
    rhs_card: float
    rhs_cap: float
    const_term: float
    proj_scale: float
    # per item of the instance given to build: the 0/1 value fixed by the
    # b == b' reduction, or at dimension 0 the best selection (a placeholder
    # on an item with a coordinate)
    x_fixed: np.ndarray
    coord_of_item: np.ndarray  # -1: fixed by the b == b' reduction
    item_of_coord: np.ndarray  # -1: the n == 2k dummy


def build(inst: Instance) -> RelaxationData:
    """Relaxation data of ``inst``, which must have k <= k_max (every caller
    checks that first); b == b', k in {0, 1, n} and n == 2k are handled here."""
    b_prime = preprocess(inst).b_prime
    sub, x_fixed, free = inst, np.zeros(inst.n), np.arange(inst.n)
    pad = inst.b + 1
    if inst.k >= 1 and inst.b == b_prime:
        sub, x_fixed, free = _face(inst)
        # every item of the face weighs w_k, so its b' is its b; a dummy of
        # weight w_k keeps a_bar = 0, where the b+1 dummy would not
        b_prime = sub.b
        pad = int(sub.a[0])
    if sub.k in (0, 1, sub.n):
        return _exact(inst, sub, x_fixed, free)
    if sub.n == 2 * sub.k:
        # a zero-profit dummy leaves b' as it is: weight b+1 is never among
        # the k lightest (nor selectable), and on the face every weight is w_k
        C = np.zeros((sub.n + 1, sub.n + 1), dtype=sub.C.dtype)
        C[: sub.n, : sub.n] = sub.C
        sub = Instance(sub.k, np.append(sub.a, pad), sub.b, C, sub.offset)
    return _build(sub, b_prime, x_fixed, free)


def _face(inst: Instance):
    """The b == b' face: (the instance on the tie class of the k-th weight
    w_k, x_fixed with lighter items at 1 and heavier at 0, the tie class)."""
    a = inst.a
    wk = int(np.sort(a)[inst.k - 1])
    off = np.flatnonzero(a != wk)
    return fix_variable(inst, off, a[off] < wk), (a < wk).astype(float), np.flatnonzero(a == wk)


def _exact(inst: Instance, sub: Instance, x_fixed: np.ndarray,
           free: np.ndarray) -> RelaxationData:
    """Dimension 0: ``sub``, on the items ``free`` of ``inst``, has k in
    {0, 1, n}, so ``x_fixed`` completed by its best selection is optimal."""
    if sub.k == sub.n:
        x_fixed[free] = 1.0
    elif sub.k == 1:
        fitting = np.where(sub.a <= sub.b, np.diag(sub.C), -np.inf)
        x_fixed[free[int(np.argmax(fitting))]] = 1.0
    return RelaxationData(
        dim=0, C_bar=np.zeros((0, 0)), a_bar=np.zeros(0), rhs_card=0.0,
        rhs_cap=0.0, const_term=float(inst.objective(x_fixed)), proj_scale=1.0,
        x_fixed=x_fixed, coord_of_item=np.full(inst.n, -1), item_of_coord=free[:0],
    )


def _build(inst: Instance, b_prime: int, x_fixed: np.ndarray,
           free: np.ndarray) -> RelaxationData:
    n, k = inst.n, inst.k
    scale = 1.0 / (2 * k - n)
    C = inst.C.astype(float)
    e = np.ones(n)
    Ce = C @ e

    # homogenized cost: <Ctil, (1;y)(1;y)'> == f(x) for y = 2x - e
    Ctil = np.empty((n + 1, n + 1))
    Ctil[0, 0] = e @ Ce
    Ctil[0, 1:] = Ce
    Ctil[1:, 0] = Ce
    Ctil[1:, 1:] = C
    Ctil *= 0.25

    V = np.vstack([scale * e[None, :], np.eye(n)])
    C_bar = V.T @ Ctil @ V
    C_bar = 0.5 * (C_bar + C_bar.T)

    a = inst.a.astype(float)
    a_bar = ((a.sum() - (inst.b + b_prime)) * scale) * e + a
    # the items free (increasing) take the leading coordinates, a dummy the last
    coord_of_item = np.full(len(x_fixed), -1)
    coord_of_item[free] = np.arange(len(free))

    return RelaxationData(
        dim=n,
        C_bar=C_bar,
        a_bar=a_bar,
        rhs_card=float((2 * k - n) ** 2),
        rhs_cap=float((inst.b - b_prime) ** 2),
        const_term=float(inst.offset),
        proj_scale=scale,
        x_fixed=x_fixed,
        coord_of_item=coord_of_item,
        item_of_coord=np.append(free, np.full(n - len(free), -1)),
    )


def extract_fractional(X: np.ndarray, data: RelaxationData) -> np.ndarray:
    """First-row map back to [0,1]^n; exact on rank-one X.

    Coordinates fixed by the b == b' reduction come back as 0 or 1.
    """
    y_est = data.proj_scale * (X @ np.ones(data.dim))
    x = np.clip(0.5 * (y_est + 1.0), 0.0, 1.0)
    item = data.item_of_coord
    out = data.x_fixed.copy()
    out[item[item >= 0]] = x[item >= 0]
    return out
