"""Property suites, runnable standalone: pytest tests/test_properties.py

Each headline property also exists as a plain check_* function so the
acceptance suite can invoke it directly.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from wcatalan.arith import (
    ValueTable,
    digit_sum,
    finite_difference,
    series_divide,
    valuation,
)
from wcatalan.catalan import weighted_catalan_series
from wcatalan.periodicity import analyze_weight_period, truncation_index
from wcatalan.weights import WeightFunction, WeightMembershipError, epsilon_of_weight


# ---------------------------------------------------------------- product rule


def check_product_rule(seed=0, rounds=40):
    """diff^n(f*g) = sum_k C(n,k) diff^(n-k)(shift^k f) * diff^k(g), pointwise."""
    rng = random.Random(seed)
    for _ in range(rounds):
        length = rng.randrange(7, 12)
        f = [rng.randrange(-9, 10) for _ in range(length)]
        g = [rng.randrange(-9, 10) for _ in range(length)]
        product = ValueTable(0, tuple(a * b for a, b in zip(f, g)))
        for n in range(min(5, length - 1) + 1):
            lhs = finite_difference(product, n)
            width = length - n
            for i in range(width):
                rhs = 0
                for k in range(n + 1):
                    ftab = ValueTable(0, tuple(f)).shifted(k)
                    df = finite_difference(ftab, n - k).values[i]
                    dg = finite_difference(ValueTable(0, tuple(g)), k).values[i]
                    rhs += math.comb(n, k) * df * dg
                assert lhs.values[i] == rhs, (f, g, n, i)
    return True


def test_product_rule():
    assert check_product_rule()


@given(
    f=st.lists(st.integers(-50, 50), min_size=7, max_size=10),
    g=st.lists(st.integers(-50, 50), min_size=7, max_size=10),
    n=st.integers(0, 4),
)
@settings(max_examples=60, deadline=None)
def test_product_rule_hypothesis(f, g, n):
    size = min(len(f), len(g))
    f, g = f[:size], g[:size]
    product = ValueTable(0, tuple(a * b for a, b in zip(f, g)))
    lhs = finite_difference(product, n).values[0]
    rhs = sum(
        math.comb(n, k)
        * finite_difference(ValueTable(0, tuple(f)).shifted(k), n - k).values[0]
        * finite_difference(ValueTable(0, tuple(g)), k).values[0]
        for k in range(n + 1)
    )
    assert lhs == rhs


# ------------------------------------------------- membership <-> coefficients


def check_membership_criterion(seed=1, rounds=60, x_max=50):
    """For polynomial b: 2^n | diff^n b everywhere iff 2^m | diff^m b(0) per m."""
    rng = random.Random(seed)
    for _ in range(rounds):
        deg = rng.randrange(0, 5)
        coeffs = [rng.randrange(-20, 21) for _ in range(deg + 1)]
        b = WeightFunction.polynomial(coeffs)
        try:
            epsilon_of_weight(b, b.degree + 2)
            criterion = True
        except WeightMembershipError:
            criterion = False
        table = b.as_table(0, x_max + b.degree + 2)
        pointwise = all(
            v % 2**n == 0
            for n in range(b.degree + 2)
            for v in finite_difference(table, n).values[: x_max + 1]
        )
        assert criterion == pointwise, coeffs
    return True


def test_membership_criterion():
    assert check_membership_criterion()


@given(coeffs=st.lists(st.integers(-16, 16), min_size=1, max_size=5))
@settings(max_examples=80, deadline=None)
def test_membership_criterion_hypothesis(coeffs):
    b = WeightFunction.polynomial(coeffs)
    try:
        epsilon_of_weight(b, b.degree + 2)
        criterion = True
    except WeightMembershipError:
        criterion = False
    table = b.as_table(0, 40 + b.degree + 2)
    pointwise = all(
        v % 2**n == 0
        for n in range(b.degree + 2)
        for v in finite_difference(table, n).values[:41]
    )
    assert criterion == pointwise


def test_epsilon_invariant_under_base_point():
    # carries recomputed from a window based at 5 equal the ones at 0
    for b in (
        WeightFunction.preset("morse"),
        WeightFunction.polynomial([1, -2, 2]),
        WeightFunction.preset("morse-power:2"),
    ):
        eps = epsilon_of_weight(b, 5)
        tab = b.as_table(5, 8)
        for m, bit in enumerate(eps.bits):
            d = finite_difference(tab, m).values[0]
            assert d % 2**m == 0 and (d // 2**m) % 2 == bit


# ------------------------------------------------------- series divide inverse


def check_series_round_trip(seed=2, rounds=60, order=24):
    """(p/q) * q = p modulo (m, x^order)."""
    rng = random.Random(seed)
    for _ in range(rounds):
        m = rng.randrange(2, 1000)
        q0 = rng.choice([u for u in range(1, m) if math.gcd(u, m) == 1])
        q = [q0] + [rng.randrange(0, m) for _ in range(rng.randrange(0, 5))]
        p = [rng.randrange(0, m) for _ in range(rng.randrange(1, 6))]
        series = series_divide(p, q, m, order)
        for n in range(order):
            conv = sum(
                series[i] * q[n - i] for i in range(max(0, n - len(q) + 1), n + 1)
            )
            expected = p[n] if n < len(p) else 0
            assert conv % m == expected % m, (p, q, m, n)
    return True


def test_series_round_trip():
    assert check_series_round_trip()


@given(
    m=st.integers(2, 500),
    p=st.lists(st.integers(0, 499), min_size=1, max_size=4),
    qtail=st.lists(st.integers(0, 499), min_size=0, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_series_round_trip_hypothesis(m, p, qtail):
    q = [1] + qtail
    series = series_divide(p, q, m, 16)
    for n in range(16):
        conv = sum(series[i] * q[n - i] for i in range(max(0, n - len(q) + 1), n + 1))
        expected = p[n] if n < len(p) else 0
        assert conv % m == expected % m


# ------------------------------------------------------ period stability


def check_period_stability(seed=3, rounds=12):
    """Doubling the examined window never changes a detected (preperiod, period)."""
    rng = random.Random(seed)
    done = 0
    while done < rounds:
        coeffs = [rng.randrange(1, 30) for _ in range(rng.randrange(1, 3))]
        b = WeightFunction.polynomial(coeffs)
        m = rng.randrange(2, 60)
        if truncation_index(b, m, 64) is None:
            continue
        r1 = analyze_weight_period(b, m, max_terms=400)
        r2 = analyze_weight_period(b, m, max_terms=800)
        if r1.period is None:
            continue
        assert (r1.preperiod, r1.period) == (r2.preperiod, r2.period), (coeffs, m)
        done += 1
    return True


def test_period_stability():
    assert check_period_stability()


# ------------------------------------------------------------ valuation facts


def test_valuation_of_prime_power_multiples():
    rng = random.Random(4)
    for _ in range(200):
        q = rng.randrange(2, 8)
        a = rng.randrange(0, 21)
        u = rng.randrange(1, 10**6)
        while u % q == 0:
            u = rng.randrange(1, 10**6)
        assert valuation(q, q**a * u) == a


def test_legendre_factorial_valuation():
    fact = 1
    for n in range(1, 201):
        fact *= n
        assert valuation(2, fact) == n - digit_sum(2, n)


def test_catalan_valuation_identity():
    # xi_2(C_n) = s_2(n+1) - 1 through the weighted engine with b = 1
    series = weighted_catalan_series(WeightFunction.preset("ones"), 200)
    for n in range(1, 201):
        assert valuation(2, series[n]) == digit_sum(2, n + 1) - 1
