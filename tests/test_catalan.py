import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcatalan import catalan
from wcatalan.catalan import (
    catalan_number,
    catalan_series,
    q_catalan,
    q_weighted_catalan,
    weighted_catalan,
    weighted_catalan_series,
)
from wcatalan.errors import DomainError
from wcatalan.weights import WeightFunction

MORSE = WeightFunction.preset("morse")
ONES = WeightFunction.preset("ones")


def brute_weighted_catalan(b, n, height_cap=None):
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
            walk(steps_left - 1, height + 1, weight * b(height), top)
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


# Moduli of at most 128 bits (the residue engine), among them one word and
# wider, and moduli past the cut (exact, then reduced).
WORD = 2**64
CUT = 2**catalan._Q_RESIDUE_BITS
Q_MODULI = st.one_of(
    st.sampled_from([2, 3, 4, WORD - 1, WORD, WORD + 1, CUT - 1, CUT, CUT + 1]),
    st.integers(2, WORD - 1),
    st.integers(WORD, CUT - 1),
    st.integers(CUT, 2**200),
)
# Zero and negative weight values, inside and at the ends of the window.
Q_WEIGHTS = st.one_of(
    st.sampled_from([[0], [0, 1], [2, -1], [3, -5, 2], [-1]]),
    st.lists(st.integers(-9, 9), min_size=1, max_size=3),
).map(WeightFunction.polynomial)


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
        assert weighted_catalan(MORSE, 3, modulus=7) == 3
        assert weighted_catalan(MORSE, 2, modulus=11) == 10
        assert weighted_catalan(MORSE, 0, modulus=17) == 1

    def test_matches_exact(self):
        rng = random.Random(7)
        series = weighted_catalan_series(MORSE, 40)
        for _ in range(10):
            m = rng.randrange(2, 10**6)
            got = weighted_catalan_series(MORSE, 40, modulus=m)
            assert got == [v % m for v in series]

    def test_huge_modulus_falls_back_to_pure(self):
        m = (1 << 70) + 1
        got = weighted_catalan_series(MORSE, 30, modulus=m)
        series = weighted_catalan_series(MORSE, 30)
        assert got == [v % m for v in series]

    def test_capped_mod_agrees_when_prefix_product_vanishes(self):
        # 7 | b(0)..b(3), so paths above height 3 vanish mod 7
        full = weighted_catalan_series(MORSE, 60, modulus=7)
        capped = weighted_catalan_series(MORSE, 60, height_cap=3, modulus=7)
        assert full == capped

    def test_single_residue_stops_at_the_vanishing_height(self, monkeypatch):
        # 12 divides no single value of 2, 6, 5, ... but divides 2 * 6
        cases = [
            (WeightFunction.from_table([2, 6] + [5] * 78), 12, 1),
            (WeightFunction.polynomial([1, 2, 4]), 1 + 2 * 7 + 4 * 49, 7),
            (WeightFunction.polynomial([0, 1]), 5, 0),
            (MORSE, 7, 3),
        ]
        # 1 + 2x + 4x^2 is always odd
        odd = WeightFunction.polynomial([1, 2, 4]).values(0, 80)
        assert catalan.kernel.vanishing_height(odd, 4) is None
        for b, m, k in cases:
            assert catalan.kernel.vanishing_height(b.values(0, 80), m) == k
            expected = [v % m for v in weighted_catalan_series(b, 80)]
            caps = []
            real = catalan.kernel.dyck_dp_mod
            monkeypatch.setattr(
                catalan.kernel, "dyck_dp_mod",
                lambda bv, n, mod, cap=None: caps.append(cap) or real(bv, n, mod, cap),
            )
            assert [weighted_catalan(b, n, modulus=m) for n in range(81)] == expected
            assert caps == [None] * min(k + 1, 81) + [k] * (80 - k)
            monkeypatch.undo()

    def test_single_residue_reports_a_small_modulus(self):
        for m in (1, 0, -3):
            with pytest.raises(DomainError, match=f"^modulus must be at least 2, got {m}$"):
                weighted_catalan(MORSE, 5, modulus=m)


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
                # the loop that the closed form skips agrees with it too
                assert catalan._q_weighted([1] * n, q, n, None) == q_catalan(q, n)

    def test_constant_weights_skip_both_loops(self, monkeypatch):
        loops = {}
        for c in (-3, -1, 0, 2, 5):
            for q in (2, 3, 5):
                for n in range(1, 16):
                    loops[c, q, n] = catalan._q_weighted([c] * n, q, n, None)
        _record_convolve(monkeypatch, allowed=False)
        monkeypatch.setattr(catalan, "_q_weighted", None)
        for (c, q, n), value in loops.items():
            b = WeightFunction.polynomial([c])
            assert q_weighted_catalan(b, q, n) == value
            for m in (2, 884952143, 2**200 - 1):
                assert q_weighted_catalan(b, q, n, m) == value % m
        # constant only on the levels an n-vertex tree reaches: b(0..n-1)
        b = WeightFunction.from_table([7] * 12 + [1])
        assert q_weighted_catalan(b, 3, 12) == 7**12 * q_catalan(3, 12)

    def test_binary_specialization(self):
        b = WeightFunction.polynomial([1, 9])
        for n in range(11):
            assert q_weighted_catalan(b, 2, n) == weighted_catalan(b, n)

    @given(st.integers(2, 4), st.integers(0, 5), Q_WEIGHTS, Q_MODULI)
    @settings(max_examples=100, deadline=None)
    def test_against_brute_force(self, q, n, b, m):
        # the tree sum checks the loop itself, which residues and exact values share
        total = brute_q_ary_total(b, q, n)
        assert q_weighted_catalan(b, q, n) == total
        assert q_weighted_catalan(b, q, n, m) == total % m

    def test_residues_need_a_modulus_of_at_least_two(self):
        with pytest.raises(DomainError, match="^modulus must be at least 2, got 1$"):
            q_weighted_catalan(ONES, 3, 5, 1)
        assert q_weighted_catalan(ONES, 3, 0, 2) == 1
        assert q_weighted_catalan(ONES, 3, 0, 7) == 1

    def test_catalan_series(self):
        assert catalan_series(6) == [1, 1, 2, 5, 14, 42, 132]
        assert catalan_series(40)[40] == catalan_number(40)


def _record_convolve(monkeypatch, allowed: bool) -> list:
    calls = []
    real = catalan._convolve

    def recording(*args):
        if not allowed:
            raise AssertionError("the exact q-ary loop ran under a residue modulus")
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(catalan, "_convolve", recording)
    return calls


@given(st.integers(2, 5), st.integers(0, 30), Q_WEIGHTS, Q_MODULI)
@settings(max_examples=80, deadline=None)
def test_q_ary_residues_reduce_the_exact_value(q, n, b, m):
    assert q_weighted_catalan(b, q, n, m) == q_weighted_catalan(b, q, n) % m


@pytest.mark.parametrize("m", [2, 97, 884952143, WORD - 1, WORD + 1, 618970019642690137449562111, CUT - 1])
def test_residue_moduli_never_run_the_exact_loop(monkeypatch, m):
    b = WeightFunction.polynomial([3, -5, 2])
    exact = [q_weighted_catalan(b, 3, n) for n in range(25)]
    _record_convolve(monkeypatch, allowed=False)
    assert [q_weighted_catalan(b, 3, n, m) for n in range(25)] == [v % m for v in exact]


@pytest.mark.parametrize("m", [CUT, CUT + 1, 2**200 - 1])
def test_wider_moduli_reduce_the_exact_value(monkeypatch, m):
    b = WeightFunction.polynomial([3, -5, 2])
    exact = q_weighted_catalan(b, 3, 20)
    calls = _record_convolve(monkeypatch, allowed=True)
    assert q_weighted_catalan(b, 3, 20, m) == exact % m
    assert calls
