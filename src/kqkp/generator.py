"""Random instance generator for the benchmark families (n up to 150,
profit-matrix densities 25/50/75/100 percent)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Instance, preprocess


@dataclass(frozen=True)
class GenSpec:
    n: int
    density_percent: float
    seed: int
    weight_range: tuple[int, int] = (1, 50)
    profit_range: tuple[int, int] = (1, 100)

    def __post_init__(self):
        # k >= 2 needs b >= the two lightest weights, and b is drawn below
        # the total weight: with 2 items no draw qualifies
        if self.n < 3:
            raise ValueError("need at least 3 items")
        if not 0 < self.density_percent <= 100:
            raise ValueError("density must be in (0, 100]")


def generate(spec: GenSpec) -> Instance:
    """Deterministic given the seed.

    Each unordered pair {i, j} (diagonal included) gets a uniform profit with
    probability density/100, else zero.  b is drawn so the standing root
    assumption max a_j <= b < sum a_j holds, redrawn until k_max >= 2; k is
    uniform in [2, k_max].
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    wlo, whi = spec.weight_range
    plo, phi = spec.profit_range

    a = rng.integers(wlo, whi + 1, size=n)
    iu = np.triu_indices(n)
    present = rng.random(len(iu[0])) < spec.density_percent / 100.0
    profits = rng.integers(plo, phi + 1, size=len(iu[0]))
    C = np.zeros((n, n), dtype=np.int64)
    C[iu] = np.where(present, profits, 0)
    C = C + np.triu(C, 1).T

    total = int(a.sum())
    amax = int(a.max())
    while True:
        b = int(rng.integers(amax, total))
        k_max = preprocess(Instance(0, a, b, C)).k_max
        if k_max >= 2:
            break
    k = int(rng.integers(2, k_max + 1))
    return Instance(k, a, b, C)


def filename(spec: GenSpec) -> str:
    d = spec.density_percent
    dtxt = str(int(d)) if float(d).is_integer() else str(d)
    return f"kqkp_n{spec.n}_d{dtxt}_s{spec.seed}.txt"
