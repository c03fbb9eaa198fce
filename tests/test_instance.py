import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kqkp import oracle
from kqkp.instance import (
    CapacityOutOfRange,
    InfeasibleFix,
    Instance,
    NegativeData,
    NonSymmetric,
    ParseError,
    Preprocessed,
    fix_variable,
    parse_text,
    preprocess,
    to_text,
    validate,
)
from conftest import make_instance


class TestValidate:
    def test_minimal_instance_valid(self):
        inst = Instance(1, np.array([1, 1]), 1, np.array([[1, 0], [0, 2]]))
        assert validate(inst) is inst

    def test_asymmetric_rejected(self):
        inst = Instance(1, np.array([1, 1]), 1, np.array([[1, 2], [3, 1]]))
        with pytest.raises(NonSymmetric):
            validate(inst)

    def test_capacity_at_total_weight_rejected(self):
        inst = Instance(1, np.array([2, 3]), 5, np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(CapacityOutOfRange):
            validate(inst)

    def test_capacity_below_heaviest_rejected(self):
        inst = Instance(1, np.array([2, 3]), 2, np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(CapacityOutOfRange):
            validate(inst)

    def test_negative_data_rejected(self):
        inst = Instance(1, np.array([1, -1]), 1, np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(NegativeData):
            validate(inst)


class TestPreprocess:
    def test_k_max_hand_checked(self):
        inst = Instance(2, np.array([2, 3, 4, 5]), 8, np.zeros((4, 4), dtype=np.int64))
        assert preprocess(inst).k_max == 2

    def test_b_prime_two_smallest(self):
        inst = Instance(2, np.array([2, 3, 4, 5, 6]), 8, np.zeros((5, 5), dtype=np.int64))
        assert preprocess(inst).b_prime == 5

    def test_infeasible_when_k_exceeds_k_max(self):
        inst = Instance(3, np.array([2, 3, 4, 5]), 8, np.zeros((4, 4), dtype=np.int64))
        assert inst.k > preprocess(inst).k_max

    def test_no_items_left(self):
        # fixing every item of a node leaves n = 0: b' = 0, and only k = 0 fits
        empty = np.zeros((0, 0), dtype=np.int64)
        for k in (0, 1, 3):
            inst = Instance(k, np.zeros(0, dtype=np.int64), 5, empty, offset=7)
            assert preprocess(inst) == Preprocessed(k_max=0, b_prime=0)

    def test_idempotent(self):
        inst = make_instance(10, seed=3)
        assert preprocess(inst) == preprocess(inst)

    def test_b_prime_at_most_b_when_feasible(self):
        for seed in range(20):
            inst = make_instance(9, seed=seed)
            prep = preprocess(inst)
            if inst.k <= prep.k_max:
                assert prep.b_prime <= inst.b

    @given(st.integers(1, 60))
    @settings(max_examples=30, deadline=None)
    def test_k_max_monotone_in_b(self, b):
        a = np.array([2, 3, 4, 5, 6])
        inst_lo = Instance(2, a, b, np.zeros((5, 5), dtype=np.int64))
        inst_hi = Instance(2, a, b + 1, np.zeros((5, 5), dtype=np.int64))
        assert preprocess(inst_lo).k_max <= preprocess(inst_hi).k_max


class TestFixVariable:
    def test_fix_to_one_hand_derived(self):
        inst = Instance(2, np.array([1, 1]), 2, np.array([[1, 2], [2, 3]]))
        red = fix_variable(inst, 0, 1)
        assert red.n == 1
        assert red.k == 1
        assert red.b == 1
        assert red.offset == 1
        assert red.C[0, 0] == 3 + 2 * 2

    def test_fix_to_zero_preserves_objective(self):
        inst = make_instance(6, seed=1)
        red = fix_variable(inst, 2, 0)
        x_red = np.array([1, 0, 1, 0, 1], dtype=np.int64)
        x_full = np.insert(x_red, 2, 0)
        assert red.objective(x_red) == inst.objective(x_full)

    def test_fixing_optimal_selection_recovers_optimum(self):
        inst = make_instance(8, seed=7)
        opt = oracle.enumerate_exact(inst)
        cur = inst
        for j in reversed(range(inst.n)):
            cur = fix_variable(cur, j, int(opt.argmax[j]))
        assert cur.offset == opt.value
        # every item at once
        red = fix_variable(inst, np.arange(inst.n), opt.argmax)
        assert red.n == 0 and red.k == 0 and red.offset == opt.value

    def test_reduction_identity_by_enumeration(self):
        inst = make_instance(7, seed=5)
        j = 3
        for val in (0, 1):
            red = fix_variable(inst, j, val)
            for bits in range(2 ** red.n):
                x_red = np.array([(bits >> i) & 1 for i in range(red.n)],
                                 dtype=np.int64)
                x_full = np.insert(x_red, j, val)
                assert red.objective(x_red) == inst.objective(x_full)

    @staticmethod
    def _chain(inst, items, values):
        """One-item fixes in descending index order, which keeps the lower
        indices valid."""
        for j, v in sorted(zip(np.ravel(items).tolist(), np.ravel(values).tolist()),
                           reverse=True):
            inst = fix_variable(inst, j, v)
        return inst

    def test_set_form_equals_the_chain_of_one_item_fixes(self):
        rng = np.random.default_rng(0)
        checked = infeasible = 0
        for seed in range(40):
            inst = make_instance(int(rng.integers(4, 13)), density=(25, 50, 75, 100)[seed % 4],
                                 seed=seed)
            n = inst.n
            sizes = (0, 1, n, *rng.integers(2, n, size=3))
            for size in sizes:
                items = rng.choice(n, size=size, replace=False)
                # one value per item, or one value for them all
                values = ((rng.random(size) < rng.choice([0.2, 0.5])).astype(int)
                          if rng.random() < 0.7 else int(rng.random() < 0.3))
                try:
                    want = self._chain(inst, items, np.broadcast_to(values, size))
                except InfeasibleFix:
                    infeasible += 1
                    with pytest.raises(InfeasibleFix):
                        fix_variable(inst, items, values)
                    continue
                got = fix_variable(inst, items, values)
                assert (got.k, got.b, got.offset) == (want.k, want.b, want.offset)
                assert np.array_equal(got.a, want.a) and got.a.dtype == want.a.dtype
                assert np.array_equal(got.C, want.C) and got.C.dtype == want.C.dtype
                checked += 1
        assert checked > 150 and infeasible > 5

    def test_repeated_item_or_bad_value_rejected(self):
        inst = make_instance(6, seed=1)
        for items, values in (([1, 1], 0), ([2, 4, 2], [0, 1, 0]), (3, 2), (3, -1),
                              (3, 0.5), ([1, 2], [0, 2]), ([1, 2, 3], [0, 0])):
            with pytest.raises(ValueError):
                fix_variable(inst, items, values)

    def test_index_out_of_range_rejected(self):
        inst = make_instance(6, seed=1)
        for items in (6, -1, [0, 6], [2, -3], 100):
            with pytest.raises(IndexError):
                fix_variable(inst, items, 0)

    def test_ones_beyond_k_or_b_are_infeasible(self):
        inst = Instance(2, np.array([3, 4, 5, 6]), 9, np.ones((4, 4), dtype=np.int64))
        with pytest.raises(InfeasibleFix):
            fix_variable(inst, [0, 1, 2], 1)  # three ones, k = 2
        with pytest.raises(InfeasibleFix):
            fix_variable(inst, [2, 3], [1, 1])  # weight 11 > b = 9
        with pytest.raises(InfeasibleFix):
            fix_variable(Instance(0, inst.a, 9, inst.C), 0, 1)
        red = fix_variable(inst, [0, 3, 1], [1, 1, 0])  # weight 9 == b
        assert (red.n, red.k, red.b, red.offset) == (1, 0, 0, 4)
        assert red.C[0, 0] == 1 + 2 * 2


class TestTextFormat:
    def test_round_trip(self):
        inst = make_instance(9, seed=2)
        back = parse_text(to_text(inst))
        assert back.k == inst.k and back.b == inst.b
        assert np.array_equal(back.a, inst.a)
        assert np.array_equal(back.C, inst.C)

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n2 1 1\n# weights next\n1 1\n1 0\n0 2\n"
        inst = parse_text(text)
        assert inst.n == 2 and inst.k == 1

    def test_parse_error_cites_line(self):
        with pytest.raises(ParseError) as exc:
            parse_text("2 1 1\n1 x\n1 0\n0 2\n")
        assert exc.value.line_no == 2
        assert "line 2" in str(exc.value)

    def test_truncated_file_cites_last_line(self):
        with pytest.raises(ParseError):
            parse_text("3 2 5\n1 1 1\n1 0 0\n")

    def test_extra_data_line_cites_first_extra_line(self):
        with pytest.raises(ParseError) as exc:
            parse_text("2 1 1\n1 1\n1 0\n0 2\n# note\n\n3 4\n5 6\n")
        assert exc.value.line_no == 7
        assert "expected 4 data lines, found 6" in str(exc.value)
