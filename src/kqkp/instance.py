"""Problem data model, validation, preprocessing and subproblem reduction.

An instance asks to maximize x'Cx over binary x subject to a'x <= b and
e'x == k.  All root data are nonnegative integers with C symmetric.
Variable fixing folds the linear terms created by x_j = 1 into the diagonal
of the reduced C (valid on binaries since x_i^2 == x_i) and accumulates the
constant part in ``offset``, so subproblems never need a linear cost vector.
``fix_variable`` fixes any set of items in one reduction, and every
subproblem of the search, the relaxation and the heuristics is made by it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

EXACT_LIMIT = 2**53  # every integer below it is a float64


class InstanceError(ValueError):
    """Base class for malformed or inconsistent problem data."""


class NonSymmetric(InstanceError):
    pass


class NegativeData(InstanceError):
    pass


class CapacityOutOfRange(InstanceError):
    """Root capacity must satisfy max_j a_j <= b < sum_j a_j."""


class InfeasibleFix(InstanceError):
    """Fixing a variable to 1 would violate capacity or cardinality."""


class ParseError(InstanceError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class Instance:
    """Immutable-by-convention problem data; do not mutate after creation."""

    k: int
    a: np.ndarray
    b: int
    C: np.ndarray
    offset: int = 0

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.int64)
        self.C = np.asarray(self.C)
        if np.issubdtype(self.C.dtype, np.integer):
            self.C = self.C.astype(np.int64)
        self.k = int(self.k)
        self.b = int(self.b)

    @property
    def n(self) -> int:
        return int(self.a.shape[0])

    def objective(self, x) -> int:
        """f(x) = x'Cx + offset for a binary selection vector x."""
        x = np.asarray(x, dtype=np.int64)
        val = x @ self.C @ x + self.offset
        return int(round(float(val)))

    def weight(self, x) -> int:
        x = np.asarray(x, dtype=np.int64)
        return int(x @ self.a)

    def is_feasible(self, x) -> bool:
        x = np.asarray(x, dtype=np.int64)
        return int(x.sum()) == self.k and self.weight(x) <= self.b


@dataclass(frozen=True)
class Preprocessed:
    k_max: int  # the most items that fit the capacity; k > k_max is infeasible
    b_prime: int  # the weight of the k lightest items


def validate(inst: Instance) -> Instance:
    """Check the root-instance invariants and return the instance unchanged.

    Data must be nonnegative, C symmetric, and max_j a_j <= b < sum_j a_j.
    sum(a) and sum(C) must be below 2^53, so that every bound computed in
    floats and every objective value is exact in float64.
    """
    if inst.n == 0:
        raise InstanceError("instance has no items")
    if inst.C.shape != (inst.n, inst.n):
        raise InstanceError(f"C must be {inst.n}x{inst.n}, got {inst.C.shape}")
    if inst.k < 0 or inst.b < 0 or (inst.a < 0).any() or (inst.C < 0).any():
        raise NegativeData("k, b, weights and profits must be nonnegative")
    if not np.array_equal(inst.C, inst.C.T):
        raise NonSymmetric("profit matrix is not symmetric")
    # A float64 sum cannot wrap around as an int64 sum can.  Over these
    # nonnegative integers it is exact while the true sum is below 2^53 and
    # is at least 2^53 once the true sum is, since rounding is monotone.
    for what, values in (("weights", inst.a), ("profits", inst.C)):
        approx = values.sum(dtype=np.float64)
        if approx >= EXACT_LIMIT:
            raise InstanceError(f"the sum of {what} is about {approx:.3g}; it must be below 2^53")
    total = int(inst.a.sum())
    if not (int(inst.a.max()) <= inst.b < total):
        raise CapacityOutOfRange(
            f"need max a_j <= b < sum a_j, got max={int(inst.a.max())} "
            f"b={inst.b} sum={total}"
        )
    return inst


def preprocess(inst: Instance) -> Preprocessed:
    """Compute k_max and b'.  Pure and idempotent."""
    csum = np.cumsum(np.sort(inst.a))
    k_max = int(np.searchsorted(csum, inst.b, side="right"))
    m = min(inst.k, inst.n)  # an instance with no items (n = 0) has b' = 0
    return Preprocessed(k_max, int(csum[m - 1]) if m > 0 else 0)


def fix_variable(inst: Instance, j, value) -> Instance:
    """Reduced subproblem after forcing x_j = ``value`` for every item j given.

    ``j`` is one item or an array of distinct items, ``value`` one 0/1 value
    or one per item.  One reduction, equal to fixing them one at a time: k
    and b fall by the count and weight of the ones, each item left gains
    twice its coupling to the ones on its diagonal, and the offset gains
    ones'C ones.  Raises IndexError, ValueError (a repeated item, a value
    not 0 or 1, or one value per item of another count) or InfeasibleFix
    (the ones outnumber k or outweigh b).
    """
    items = np.array(j, dtype=np.intp, ndmin=1)
    values = np.ravel(value).tolist()  # plain Python checks are cheapest here
    if min(items.tolist(), default=0) < 0:
        raise IndexError(f"negative item index in {items}")
    keep = np.ones(inst.n, dtype=bool)
    keep[items] = False  # raises IndexError for an index of n or more
    if inst.n - np.count_nonzero(keep) != items.size or not {*values} <= {0, 1}:
        raise ValueError(f"need distinct items and values 0 or 1, got {items} and {value}")
    one = np.zeros(inst.n, dtype=bool)
    one[items] = value  # raises ValueError for values of another length
    a2, C2 = inst.a[keep], inst.C[keep][:, keep]
    if not any(values):
        return Instance(inst.k, a2, inst.b, C2, inst.offset)
    m, weight = np.count_nonzero(one), int(inst.a[one].sum())
    if m > inst.k or weight > inst.b:
        raise InfeasibleFix(f"{m} ones of weight {weight} exceed k={inst.k} or b={inst.b}")
    rows = inst.C[one]
    C2.flat[:: len(a2) + 1] += 2 * rows[:, keep].sum(axis=0)
    return Instance(inst.k - m, a2, inst.b - weight, C2, inst.offset + int(rows[:, one].sum()))


# ---------------------------------------------------------------------------
# text format: line 1 "n k b", line 2 the n weights, then the n rows of C;
# '#' starts a comment line


def to_text(inst: Instance) -> str:
    lines = [f"{inst.n} {inst.k} {inst.b}"]
    lines.append(" ".join(str(int(v)) for v in inst.a))
    for row in inst.C:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def parse_text(text: str) -> Instance:
    rows = []  # (line_no, tokens)
    for ln, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            rows.append((ln, stripped.split()))

    def ints(entry, expect):
        """The row's ``expect`` tokens as int64, each converted by int(), or
        the ParseError of its line."""
        ln, toks = entry
        if len(toks) != expect:
            raise ParseError(ln, f"expected {expect} integers, got {len(toks)}")
        try:
            return np.array(toks, dtype=np.int64)
        except ValueError as exc:
            raise ParseError(ln, f"invalid integer: {exc}") from None
        except OverflowError:  # the tokens before the first out of range are integers
            tok = next(t for t in toks if not -2**63 <= int(t) < 2**63)
            raise ParseError(ln, f"integer out of the 64-bit range: {tok}") from None

    if not rows:
        raise ParseError(1, "empty instance file")
    n, k, b = ints(rows[0], 3).tolist()
    if n <= 0:
        raise ParseError(rows[0][0], f"item count must be positive, got {n}")
    if len(rows) != n + 2:
        # cite the last line of a short file, the first extra line of a long one
        ln = rows[min(len(rows), n + 3) - 1][0]
        raise ParseError(ln, f"expected {n + 2} data lines, found {len(rows)}")
    data = np.array([ints(row, n) for row in rows[1:]])
    return Instance(k, data[0], b, data[1:])


def load(path) -> Instance:
    return parse_text(Path(path).read_text())


def dump(inst: Instance, path) -> None:
    Path(path).write_text(to_text(inst))
