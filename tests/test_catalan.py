import math
import random

import pytest

from wcatalan.catalan import (
    catalan_number,
    catalan_series,
    q_catalan,
    q_weighted_catalan,
    weighted_catalan,
    weighted_catalan_mod,
    weighted_catalan_series,
    weighted_catalan_series_mod,
)
from wcatalan.errors import DomainError
from wcatalan.weights import WeightFunction

MORSE = WeightFunction.preset("morse")
ONES = WeightFunction.preset("ones")


def brute_weighted_catalan(b, n, shift=0, height_cap=None):
    """Independent oracle: explicit enumeration of all step sequences."""
    total = 0

    def walk(steps_left, height, weight, top):
        nonlocal total
        if height_cap is not None and height > height_cap:
            return
        if steps_left == 0:
            if height == 0:
                total += weight
            return
        if height < steps_left:  # room to go up and still return
            walk(steps_left - 1, height + 1, weight * b(shift + height), top)
        if height > 0:
            walk(steps_left - 1, height - 1, weight, top)

    walk(2 * n, 0, 1, 0)
    return total


def brute_q_ary_total(b, q, n):
    """Independent oracle: enumerate ordered q-ary trees, weight by non-right depth."""

    def trees(k):
        if k == 0:
            yield None
            return
        for split in compositions(k - 1, q):
            for kids in all_children(split):
                yield kids

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, parts - 1):
                yield (head,) + rest

    def all_children(split):
        pools = [list(trees(s)) for s in split]
        import itertools

        yield from itertools.product(*pools)

    def weight(tree, depth):
        if tree is None:
            return 1
        w = b(depth)
        for i, child in enumerate(tree):
            # the last slot is the right child and keeps the depth
            w *= weight(child, depth if i == q - 1 else depth + 1)
        return w

    return sum(weight(t, 0) for t in trees(n))


class TestWeightedCatalan:
    def test_examples(self):
        assert weighted_catalan(ONES, 3) == 5
        assert weighted_catalan(MORSE, 2) == 10
        assert weighted_catalan(WeightFunction.preset("matchings"), 3) == 15
        assert weighted_catalan(MORSE, 0) == 1

    def test_against_brute_force(self):
        table = WeightFunction.from_table([3, 1, 4, 1, 5, 9, 2, 6])
        for b in (ONES, MORSE, WeightFunction.preset("matchings"), table):
            for n in range(8):
                assert weighted_catalan(b, n) == brute_weighted_catalan(b, n)

    def test_shift(self):
        for shift in (1, 3):
            for n in range(6):
                assert weighted_catalan(MORSE, n, shift) == brute_weighted_catalan(
                    MORSE, n, shift
                )

    def test_matchings_double_factorial(self):
        b = WeightFunction.preset("matchings")
        for n in range(1, 11):
            double_fact = math.factorial(2 * n) // (2**n * math.factorial(n))
            assert weighted_catalan(b, n) == double_fact

    def test_alternating_permutations(self):
        # tangent numbers 1, 1, 5, 61, 1385 count alternating permutations of 2n
        assert weighted_catalan_series(WeightFunction.preset("alt-even"), 4) == [
            1,
            1,
            5,
            61,
            1385,
        ]

    def test_series_prefix_consistency(self):
        series = weighted_catalan_series(MORSE, 12)
        for n in (0, 3, 7, 12):
            assert series[n] == weighted_catalan(MORSE, n)

    def test_table_weight_too_short(self):
        b = WeightFunction.from_table([1, 9])
        assert weighted_catalan(b, 2) == 10
        with pytest.raises(DomainError, match=r"b\(2\)"):
            weighted_catalan(b, 3)

    def test_height_cap(self):
        for cap in (0, 1, 2, 3):
            for n in range(7):
                got = weighted_catalan_series(MORSE, n, height_cap=cap)[n]
                assert got == brute_weighted_catalan(MORSE, n, height_cap=cap)


class TestModular:
    def test_examples(self):
        assert weighted_catalan_mod(MORSE, 3, 7) == 3
        assert weighted_catalan_mod(MORSE, 2, 11) == 10
        assert weighted_catalan_mod(MORSE, 0, 17) == 1

    def test_matches_exact(self):
        rng = random.Random(7)
        series = weighted_catalan_series(MORSE, 40)
        for _ in range(10):
            m = rng.randrange(2, 10**6)
            got = weighted_catalan_series_mod(MORSE, 40, m)
            assert got == [v % m for v in series]

    def test_huge_modulus_falls_back_to_pure(self):
        m = (1 << 70) + 1
        got = weighted_catalan_series_mod(MORSE, 30, m)
        series = weighted_catalan_series(MORSE, 30)
        assert got == [v % m for v in series]

    def test_capped_mod_agrees_when_prefix_product_vanishes(self):
        # 7 | b(0)..b(3), so paths above height 3 vanish mod 7
        full = weighted_catalan_series_mod(MORSE, 60, 7)
        capped = weighted_catalan_series_mod(MORSE, 60, 7, height_cap=3)
        assert full == capped


class TestQAry:
    def test_q_catalan_examples(self):
        assert q_catalan(2, 3) == 5
        assert q_catalan(3, 3) == 12
        assert q_catalan(5, 0) == 1

    def test_empty_tree(self):
        assert q_weighted_catalan(MORSE, 3, 0) == 1

    def test_ones_gives_closed_form(self):
        for q in (2, 3, 4):
            for n in range(13):
                assert q_weighted_catalan(ONES, q, n) == q_catalan(q, n)

    def test_binary_specialization(self):
        b = WeightFunction.polynomial([1, 9])
        for n in range(11):
            assert q_weighted_catalan(b, 2, n) == weighted_catalan(b, n)

    def test_against_brute_force(self):
        b = WeightFunction.polynomial([1, 9])
        for q in (2, 3):
            for n in range(5):
                assert q_weighted_catalan(b, q, n) == brute_q_ary_total(b, q, n)

    def test_catalan_series(self):
        assert catalan_series(6) == [1, 1, 2, 5, 14, 42, 132]
        assert catalan_series(40)[40] == catalan_number(40)


class TestCatalanValue:
    def test_tagging(self):
        from wcatalan.catalan import weighted_catalan_value

        v = weighted_catalan_value(MORSE, 0)
        assert v.value == 1 and v.q == 2  # the empty path always contributes 1
        v3 = weighted_catalan_value(ONES, 2, q=3)
        assert v3.value == 3 and v3.weight_id == "preset:ones"
