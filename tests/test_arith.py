import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcatalan.arith import (
    IntPolynomial,
    ValueTable,
    digit_sum,
    finite_difference,
    is_prime,
    series_divide_exact,
    valuation,
)
from wcatalan.errors import DomainError, ResourceLimitError


class TestValuation:
    def test_examples(self):
        assert valuation(2, 12) == 2
        assert valuation(7, 49) == 2
        assert valuation(2, 5) == 0

    def test_sign_ignored(self):
        assert valuation(3, -54) == 3

    def test_zero_rejected(self):
        with pytest.raises(DomainError, match="undefined at zero"):
            valuation(2, 0)

    def test_small_base_rejected(self):
        with pytest.raises(DomainError):
            valuation(1, 4)

    def test_composite_base(self):
        assert valuation(6, 2 * 36) == 2

    @given(
        st.integers(3, 1000),
        st.integers(0, 2000),
        st.integers(1, 2**900),
        st.sampled_from([1, -1]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_one_division_at_a_time(self, q, v, unit, sign):
        """Deep valuations take the squaring ladder; it must agree with
        dividing one factor of q at a time, for composite q too."""
        unit = unit * q + 1 + unit % (q - 1)  # not a multiple of q
        n = sign * unit * q**v
        m, rest = 0, abs(n)
        while rest % q == 0:
            rest //= q
            m += 1
        assert valuation(q, n) == m == v


class TestDigitSum:
    def test_examples(self):
        assert digit_sum(2, 4) == 1
        assert digit_sum(2, 15) == 4
        assert digit_sum(5, 35) == 3
        assert digit_sum(7, 0) == 0

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            digit_sum(1, 3)
        with pytest.raises(DomainError):
            digit_sum(2, -1)


class TestFiniteDifference:
    def test_quadratic_example(self):
        # b(x) = (2x+1)^2 at 0..3
        tab = ValueTable(0, (1, 9, 25, 49))
        assert finite_difference(tab, 1).values == (8, 16, 24)
        assert finite_difference(tab, 2).values == (8, 8)
        assert finite_difference(tab, 3).values == (0,)

    def test_order_zero_identity(self):
        tab = ValueTable(2, (5, -1, 7))
        assert finite_difference(tab, 0) == tab

    def test_window_too_short(self):
        tab = ValueTable(0, (1, 2))
        with pytest.raises(DomainError, match="at least 3"):
            finite_difference(tab, 2)

    def test_shift_is_window_bookkeeping(self):
        tab = ValueTable(0, (1, 9, 25, 49))
        assert tab.shifted().values == (9, 25, 49)
        assert tab.shifted(2).values == (25, 49)


def trial_division_is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


# the least strong pseudoprime to the 13 prime bases 2..41
PSI_13 = 3317044064679887385961981


class TestBinomialModP:
    def test_is_prime(self):
        primes = [p for p in range(60) if is_prime(p)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]

    def test_agrees_with_trial_division(self):
        assert [n for n in range(10**5) if is_prime(n)] == [
            n for n in range(10**5) if trial_division_is_prime(n)
        ]

    def test_strong_pseudoprimes_are_composite(self):
        # the least strong pseudoprimes to the prime bases 2..7, 2..11,
        # 2..13, 2..17 (and 2..19), 2..23 (to 2..31) and 2..37
        for n in (
            3215031751,
            2152302898747,
            3474749660383,
            341550071728321,
            3825123056546413051,
            318665857834031151167461,
        ):
            assert not is_prime(n), n

    def test_large_inputs_below_psi_13(self):
        assert is_prime(2**61 - 1) and is_prime(2**31 - 1) and is_prime(10**9 + 7)
        assert not is_prime((2**61 - 1) * (2**19 - 1))
        assert not is_prime(PSI_13 - 1)

    def test_refused_from_psi_13_on(self):
        for n in (PSI_13, PSI_13 + 1, 2**127 - 1):
            with pytest.raises(ResourceLimitError, match="primality is decided below"):
                is_prime(n)


class TestIntPolynomial:
    def test_normalization(self):
        p = IntPolynomial((1, 2, 0, 0))
        assert p.coefficients == (1, 2)
        assert p.degree == 1
        assert IntPolynomial(()).degree == -1

    def test_eval_and_mul(self):
        p = IntPolynomial((1, -35, 25))
        assert p(0) == 1 and p(2) == 1 - 70 + 100


class TestSeriesDivide:
    def test_documented_example(self):
        # (1+x)/(1+4x^2) over Z/7Z
        s = series_divide_exact(IntPolynomial((1, 1)), IntPolynomial((1, 0, 4)), 6)
        assert [c % 7 for c in s] == [1, 1, 3, 3, 2, 2]

    def test_trivial(self):
        assert series_divide_exact((1,), (1,), 5) == [1, 0, 0, 0, 0]

    def test_geometric(self):
        assert series_divide_exact((1,), (1, -1), 4) == [1, 1, 1, 1]
        assert series_divide_exact((1,), (-1, 1), 4) == [-1, -1, -1, -1]

    def test_exact_division(self):
        got = series_divide_exact((1,), (1, -1, -1), 10)
        assert got == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
        with pytest.raises(DomainError):
            series_divide_exact((1,), (2, 1), 4)
