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

``separate`` scans all 4*C(n,3) cuts in blocks of consecutive first indices
i, each of at most ``BLOCK`` triples, so its working memory is O(BLOCK +
n^2) at any n.  Between calls it keeps only a table of the C(n,2) pairs
j < k for each of the last few sizes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

SIGNS = np.array([(1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1)], dtype=float)

DEFAULT_VIOLATION_TOL = 1e-4

# triples per block of ``separate``; every n <= 47 is one block
BLOCK = 1 << 14


@lru_cache(maxsize=8)
def _pairs(n: int) -> tuple[list, list, np.ndarray]:
    """The pairs j < k of n indices in lexicographic order: (first, start,
    tails).

    ``tails`` is the (2, C(n,2)) array of k and of the flat index j*n + k of
    each pair, and ``start[i]`` the number of pairs whose first index is
    below i.  Number the triples (i, j, k) from 0 in lexicographic order;
    ``first[i]`` is the number of triples whose first index is below i.  The
    triples of first index i take, in order, the pairs from ``start[i+1]``
    on.  Both lists hold n+1 ints.
    """
    J, K = np.triu_indices(n, 1)
    count = (n - 1 - np.arange(n)) * (n - 2 - np.arange(n)) // 2
    first = [0, *np.cumsum(count).tolist()]
    start = [0, *np.cumsum(np.arange(n - 1, -1, -1)).tolist()]
    return first, start, np.stack([K, J * n + K])


def _keys(cuts: np.ndarray, n: int) -> np.ndarray:
    """One integer per row, distinct for distinct cuts on n indices."""
    I, J, K, kind = cuts.T
    return ((I * n + J) * n + K) * 4 + kind


def _kth(vals: np.ndarray, keep: int) -> float:
    """The keep-th smallest entry of ``vals``."""
    return np.partition(vals, keep - 1)[keep - 1]


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

    The scan takes blocks of consecutive first indices i of at most
    ``BLOCK`` triples each (a first index with more triples, past n = 182,
    is a block of its own), so it works in O(BLOCK + n^2) memory.  The
    violated cuts found so far are cut back to the slacks at or below their
    (m + len(exclude))-th smallest, ties included, whenever they grow past
    four times that many; no row of the answer is among those dropped, so
    the answer does not depend on ``BLOCK``.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = X.shape[0]
    first, start, tails = _pairs(n)
    x_pair = X.take(tails[1])
    # at most len(exclude) of the first m + len(exclude) rows are skipped, so
    # only hits up to that rank's slack are sorted; all ties with it are kept
    keep = m + (0 if exclude is None else len(exclude))
    # the hits kept so far: slack, and 4 * (triple number) + kind
    vals, keys = np.empty(0), np.empty(0, dtype=np.int64)
    a = 0
    while a < n - 2:
        # the block of first indices a .. b-1
        b = max(a + 1, int(np.searchsorted(first, first[a] + BLOCK, side="right")) - 1)
        size = first[b] - first[a]
        k, jk = np.concatenate([tails[:, s:] for s in start[a + 1:b + 1]], axis=1)
        row = np.repeat(np.arange(a * n, b * n, n), np.diff(first[a:b + 1]))
        x_ik, x_jk = X.take(row + k), X.take(jk)
        # the pairs (i, j) of the block, each once per k > j
        pairs = slice(start[a], start[b])
        x_ij = np.repeat(x_pair[pairs], n - 1 - tails[0, pairs])
        # 1 + s1*x_ij + s2*x_ik + s3*x_jk summed left to right, one row per kind
        slack = np.empty((4, size))
        np.add(1.0, x_ij, out=slack[0])
        np.subtract(1.0, x_ij, out=slack[1])
        np.add(slack[1], x_ik, out=slack[2])
        np.subtract(slack[0], x_ik, out=slack[3])
        slack[0] += x_ik
        slack[1] -= x_ik
        slack[:2] += x_jk
        slack[2:] -= x_jk
        hit = np.flatnonzero(slack < -tol)
        found = slack.take(hit)
        if len(vals) + len(found) > 4 * keep:
            top = _kth(np.concatenate([vals, found]), keep)
            hit, found = hit[found <= top], found[found <= top]
            keys, vals = keys[vals <= top], vals[vals <= top]
        kind, t = np.divmod(hit, size)
        vals = np.concatenate([vals, found])
        keys = np.concatenate([keys, (first[a] + t) * 4 + kind])
        a = b
    if len(vals) > keep:
        top = _kth(vals, keep)
        keys, vals = keys[vals <= top], vals[vals <= top]
    # triples are numbered in (i, j, k) order, so the keys order ties by
    # (i, j, k, kind)
    tri, kind = np.divmod(keys[np.lexsort((keys, vals))], 4)
    i = np.searchsorted(first, tri, side="right") - 1
    jk = tails[1, tri - np.take(first, i) + np.take(start, i + 1)]
    out = np.column_stack([i, jk // n, jk % n, kind])
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

