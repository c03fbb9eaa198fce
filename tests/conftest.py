import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from kqkp import bundle, generator, ipm
from kqkp.instance import Instance


def make_instance(n: int, density: int = 50, seed: int = 0):
    return generator.generate(generator.GenSpec(n=n, density_percent=density, seed=seed))


def all_cuts(n: int) -> np.ndarray:
    """The full catalogue of triangle cuts on n indices, in (i, j, k, kind) order."""
    return np.array([(i, j, k, kind)
                     for i, j, k in combinations(range(n), 3)
                     for kind in range(4)], dtype=np.int64)


def minimize_with_bounds(monkeypatch, *args, **kwargs):
    """``bundle.minimize(*args, **kwargs)`` and the certified bound of each of
    its oracle evaluations, in order."""
    bounds = []
    real = bundle.oracle_eval

    def record(*eval_args):
        out = real(*eval_args)
        bounds.append(out.bound)
        return out

    # a patch of its own, so the test's other patches (IPM_TOL) stay
    with monkeypatch.context() as patch:
        patch.setattr(bundle, "oracle_eval", record)
        return bundle.minimize(*args, **kwargs), bounds


def record_ipm_calls(monkeypatch) -> list:
    """Patch ``ipm.solve`` to append the arguments of every call to the
    returned list."""
    calls = []
    real = ipm.solve

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ipm, "solve", spy)
    return calls


# Instances with b == b' (capacity equal to the weight of the k lightest
# items), as (weights, k).  w_k is the k-th smallest weight, T its tie class
# and need the number of T in every feasible selection.
K_LIGHTEST_CASES = {
    # two items below w_k = 20, need 3 of |T| = 5
    "partial_tie": ([20, 40, 10, 20, 30, 20, 50, 20, 10, 30, 20, 40], 5),
    # the k lightest all weigh w_k and no other item does: one selection
    "all_tied_unique": ([30, 20, 45, 20, 60, 20, 35, 20, 50, 20, 40, 30], 5),
    # one item below w_k = 20, need 3 of |T| = 6: the face has n == 2k
    "half_tie": ([30, 20, 50, 10, 20, 45, 20, 35, 20, 20, 50, 20], 4),
    # two items below w_k = 20, need 1 of |T| = 3: the best item of T wins
    "one_of_tie": ([30, 20, 40, 10, 20, 35, 10, 35, 20, 40, 25, 30], 3),
}


def k_lightest_instance(name: str, seed: int = 0) -> Instance:
    weights, k = K_LIGHTEST_CASES[name]
    a = np.array(weights)
    C = make_instance(len(a), seed=seed).C
    return Instance(k, a, int(np.sort(a)[:k].sum()), C)


def k_lightest_face(inst: Instance):
    """(lighter, tie, heavier) masks around w_k, and need = k - #lighter."""
    wk = int(np.sort(inst.a)[inst.k - 1])
    lighter = inst.a < wk
    return lighter, inst.a == wk, inst.a > wk, inst.k - int(lighter.sum())


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
