"""Triangle inequalities over the metric polytope.

For every triple i < j < k of indices the four sign patterns of

    s1*X_ij + s2*X_ik + s3*X_jk >= -1

are valid on +/-1 rank-one matrices.  Feasibility is normalized as
T(X) <= e with T_c(X) = -(signed sum), so ``evaluate`` returns e - T(X)
(the slack; negative entries are violated cuts) which doubles as the
subgradient of the dual functional.

A list of m cuts is an int64 array of shape (m, 4) with rows
(i, j, k, kind), i < j < k, where ``SIGNS[kind]`` holds (s1, s2, s3).  The
empty list is a (0, 4) array.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

SIGNS = np.array([(1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1)], dtype=float)

DEFAULT_VIOLATION_TOL = 1e-4


@lru_cache(maxsize=8)
def _triples(n: int) -> np.ndarray:
    """Flat indices i*n+j, i*n+k, j*n+k of the entries (i, j), (i, k), (j, k)
    of an n x n matrix, one column per triple i < j < k in lexicographic
    order: a (3, C(n,3)) array."""
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    # nonzero lists the (i, j, k) with i < j < k in C, so lexicographic, order
    I, J, K = np.nonzero(upper[:, :, None] & upper[None, :, :])
    return np.stack([I * n + J, I * n + K, J * n + K])


def _keys(cuts: np.ndarray, n: int) -> np.ndarray:
    """One integer per row, distinct for distinct cuts on n indices."""
    I, J, K, kind = cuts.T
    return ((I * n + J) * n + K) * 4 + kind


def evaluate(cuts: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Slack e - T(X) per cut; entry < 0 means the cut is violated."""
    I, J, K, kind = cuts.T
    S = SIGNS[kind]
    signed = S[:, 0] * X[I, J] + S[:, 1] * X[I, K] + S[:, 2] * X[J, K]
    return 1.0 + signed


def separate(X: np.ndarray, m: int, exclude: np.ndarray | None = None,
             tol: float = DEFAULT_VIOLATION_TOL) -> np.ndarray:
    """Up to m most-violated triangle cuts, full scan over all 4*C(n,3).

    Deterministic: sorted by violation descending, ties by (i, j, k, kind).
    The rows are distinct, and none of them is a row of ``exclude`` (a cut
    array), so appending them to ``exclude`` keeps a cut list duplicate-free.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = X.shape[0]
    pairs = _triples(n)
    x_ij, x_ik, x_jk = X.take(pairs)
    # (4, C(n,3)) slack block, row = kind
    slack = 1.0 + SIGNS[:, 0:1] * x_ij
    slack += SIGNS[:, 1:2] * x_ik
    slack += SIGNS[:, 2:3] * x_jk
    flat = np.flatnonzero(slack < -tol)
    hits = slack.take(flat)
    # at most len(exclude) of the first m + len(exclude) rows are skipped, so
    # only hits up to that rank's slack are sorted; all ties with it are kept
    keep = m + (0 if exclude is None else len(exclude))
    if len(hits) > keep:
        near = hits <= np.partition(hits, keep - 1)[keep - 1]
        flat, hits = flat[near], hits[near]
    kind, tri = np.divmod(flat, pairs.shape[1])
    # triples are enumerated in (i, j, k) order, so tri orders ties by (i, j, k)
    order = np.lexsort((kind, tri, hits))
    kind, tri = kind[order], tri[order]
    ij, ik = pairs[0, tri], pairs[1, tri]
    out = np.column_stack([ij // n, ij % n, ik % n, kind])
    if exclude is not None:
        out = out[~np.isin(_keys(out, n), _keys(exclude, n))]
    return out[:m]


def adjoint_apply(cuts: np.ndarray, gamma, n: int) -> np.ndarray:
    """T'(gamma) as a symmetric zero-diagonal n x n matrix.

    Satisfies <T'(gamma), X> == gamma' T(X) for all symmetric X.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape[0] != len(cuts):
        raise ValueError("gamma not conformal with cut list")
    I, J, K, kind = cuts.T
    G = np.zeros((n, n))
    # T_c has coefficient -s on each off-diagonal pair, split symmetrically;
    # i < j < k, so the pairs (i,j), (i,k), (j,k) all lie above the diagonal
    w = -0.5 * gamma[:, None] * SIGNS[kind]
    np.add.at(G, (np.concatenate([I, I, J]), np.concatenate([J, K, K])), w.T.ravel())
    return G + G.T

