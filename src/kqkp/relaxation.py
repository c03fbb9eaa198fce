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
weight is w_k, a_bar = 0 and the capacity row is the trivial 0 <= 0.  If the
face holds one selection, or one item of the tie class is to be chosen,
the relaxation has dimension 0 and its bound is the value of the best
selection.

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
    # b == b' reduction (a placeholder on an item with a coordinate)
    x_fixed: np.ndarray
    coord_of_item: np.ndarray  # -1: fixed by the b == b' reduction
    item_of_coord: np.ndarray  # -1: the n == 2k dummy


def _pad(inst: Instance, weight: int) -> Instance:
    """Append a zero-profit item of the given weight."""
    a2 = np.append(inst.a, weight)
    C2 = np.zeros((inst.n + 1, inst.n + 1), dtype=inst.C.dtype)
    C2[: inst.n, : inst.n] = inst.C
    return Instance(inst.k, a2, inst.b, C2, inst.offset)


def build(inst: Instance) -> RelaxationData:
    """Relaxation data of ``inst``; b == b' and n == 2k are handled here."""
    prep = preprocess(inst)
    if 1 <= inst.k <= inst.n and inst.b == prep.b_prime:
        return _build_k_lightest(inst)
    x_fixed, free = np.zeros(inst.n), np.arange(inst.n)
    if inst.n == 2 * inst.k:
        # a zero-profit dummy of weight b+1 is never selectable and is not
        # among the k lightest, so the optimum and b' stay as they are
        inst = _pad(inst, inst.b + 1)
    return _build(inst, prep.b_prime, x_fixed, free)


def _build_k_lightest(inst: Instance) -> RelaxationData:
    """Exact reduction of b == b' to the tie class of the k-th weight w_k."""
    a = inst.a
    wk = int(np.sort(a)[inst.k - 1])
    sub = inst
    for j in range(inst.n - 1, -1, -1):  # descending keeps lower indices valid
        if a[j] != wk:
            sub = fix_variable(sub, j, int(a[j] < wk))
    tie = np.flatnonzero(a == wk)
    x = (a < wk).astype(float)
    if sub.k in (0, 1, sub.n):
        # the face holds one selection, or its best is one item of the tie
        # class (every tie item weighs w_k == sub.b, so each fits): the bound
        # is the value of that selection, nothing to relax
        if sub.k == sub.n:
            x[tie] = 1.0
        elif sub.k == 1:
            x[tie[int(np.argmax(np.diag(sub.C)))]] = 1.0
        return RelaxationData(
            dim=0, C_bar=np.zeros((0, 0)), a_bar=np.zeros(0), rhs_card=0.0,
            rhs_cap=0.0, const_term=float(inst.objective(x)), proj_scale=1.0,
            x_fixed=x, coord_of_item=np.full(inst.n, -1), item_of_coord=tie[:0],
        )
    if sub.n == 2 * sub.k:
        # a zero-profit dummy of weight w_k keeps a_bar = 0 and b'; the b+1
        # dummy of build would make b == b' again on the padded instance
        sub = _pad(sub, wk)
    return _build(sub, preprocess(sub).b_prime, x, tie)


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
