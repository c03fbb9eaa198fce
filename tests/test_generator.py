import numpy as np
import pytest

from kqkp import generator
from kqkp.generator import GenSpec
from kqkp.instance import preprocess, to_text, validate


def test_reproducible_byte_identical():
    spec = GenSpec(n=20, density_percent=50, seed=99)
    assert to_text(generator.generate(spec)) == to_text(generator.generate(spec))


def test_full_density_has_no_zeros_above_diagonal():
    inst = generator.generate(GenSpec(n=15, density_percent=100, seed=1))
    iu = np.triu_indices(15)
    assert (inst.C[iu] > 0).all()


def test_validates_over_many_seeds():
    for seed in range(200):
        inst = generator.generate(GenSpec(n=10, density_percent=50, seed=seed))
        validate(inst)
        prep = preprocess(inst)
        assert 2 <= inst.k <= prep.k_max


def test_measured_density_near_target():
    dens = []
    for seed in range(30):
        inst = generator.generate(GenSpec(n=100, density_percent=50, seed=seed))
        iu = np.triu_indices(100)
        dens.append(100.0 * np.count_nonzero(inst.C[iu]) / len(iu[0]))
    assert abs(np.mean(dens) - 50) < 3


def test_weight_and_profit_ranges():
    inst = generator.generate(GenSpec(n=50, density_percent=100, seed=3))
    assert inst.a.min() >= 1 and inst.a.max() <= 50
    assert inst.C.max() <= 100


def test_standing_assumption_holds():
    for seed in range(50):
        inst = generator.generate(GenSpec(n=12, density_percent=25, seed=seed))
        assert int(inst.a.max()) <= inst.b < int(inst.a.sum())


def test_invalid_spec_rejected():
    with pytest.raises(ValueError):
        GenSpec(n=1, density_percent=50, seed=0)
    with pytest.raises(ValueError):
        GenSpec(n=5, density_percent=0, seed=0)


def test_two_items_rejected():
    # k >= 2 needs b >= a_1 + a_2, but b is drawn below that total, so
    # generate would redraw b forever
    with pytest.raises(ValueError):
        GenSpec(n=2, density_percent=50, seed=0)
    assert generator.generate(GenSpec(n=3, density_percent=50, seed=0)).k == 2


def test_filename_convention():
    assert generator.filename(GenSpec(n=50, density_percent=25, seed=7)) \
        == "kqkp_n50_d25_s7.txt"
