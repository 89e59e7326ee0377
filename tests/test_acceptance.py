"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; everything is exact arithmetic, no tolerances beyond equality.
"""

import math
from collections import Counter

from wcatalan.arith import digit_sum, series_divide_exact, valuation
from wcatalan.catalan import (
    q_catalan,
    q_weighted_catalan,
    weighted_catalan,
    weighted_catalan_series,
)
from wcatalan.morse import (
    MORSE,
    conjecture_report,
    mod3r_period_check,
)
from wcatalan.orbits import (
    average_weight,
    coin_oracle,
    enumerate_orbits,
    epsilon_direct,
    epsilon_recursive,
    minimal_orbits,
    orbit_size,
    reduce_orbit,
)
from wcatalan.periodicity import analyze_weight_period, continued_fraction_pq
from wcatalan.weights import WeightFunction, check_conditions, epsilon_of_weight

import test_properties

ONES = WeightFunction.preset("ones")
ONE_PLUS_4X = WeightFunction.polynomial([1, 4])
WEIGHTS = (ONES, MORSE, ONE_PLUS_4X)


def _report(criterion, text):
    print(f"ACCEPTANCE PASS criterion {criterion}: {text}")


def test_criterion_1_two_adic_valuation_theorem():
    series = weighted_catalan_series(MORSE, 300)
    for n in range(1, 301):
        assert valuation(2, series[n]) == digit_sum(2, n + 1) - 1, n
    _report(1, "xi_2(L_n) = s_2(n+1) - 1 for 1 <= n <= 300, exact")


def test_criterion_2_periods_mod_7_and_11():
    r7 = analyze_weight_period(MORSE, 7, max_terms=5000)
    assert (r7.preperiod, r7.period, r7.window) == (0, 12, 5000)
    r11 = analyze_weight_period(MORSE, 11, max_terms=5000)
    assert (r11.preperiod, r11.period, r11.window) == (0, 55, 5000)
    _report(2, "L_n mod 7: preperiod 0 period 12; mod 11: period 55 (5000 terms)")


def test_criterion_3_mod_3r_divisor_bound():
    results = []
    for r in (3, 4, 5, 6):
        bound = 2 * 3 ** (r - 3)
        check = mod3r_period_check(r, window=max(21 * bound, 200))
        assert check.report.window >= 20 * bound
        assert check.report.found, r
        assert check.divides, (r, check.report.period)
        results.append(f"r={r}: {check.report.period} | {bound}")
    _report(3, "; ".join(results))


def test_criterion_4_orbit_decomposition():
    for b in WEIGHTS:
        for n in range(11):
            total = sum(
                orbit_size(s) * average_weight(s, b, 0, 1).values[0]
                for s in enumerate_orbits(n)
            )
            assert total == weighted_catalan(b, n), (b.spec(), n)
    _report(4, "sum |O| r_b(O;0) = C_n^b for n <= 10, weights ones/morse/1+4x")


def test_criterion_5_three_oracle_agreement():
    shapes_small = [s for n in range(1, 8) for s in enumerate_orbits(n)]
    disagreements = 0
    for b in WEIGHTS:
        eps_b = epsilon_of_weight(b, 20)
        for s in shapes_small:
            direct = epsilon_direct(s, b, 4)
            rec = epsilon_recursive(s, eps_b, 4)
            if direct.bits != rec.bits:
                disagreements += 1
        for s in (sh for sh in shapes_small if sh.vertex_count <= 5):
            direct = epsilon_direct(s, b, 3)
            for m in range(4):
                if coin_oracle(s, eps_b, m) != direct.bits[m] % 2:
                    disagreements += 1
    assert disagreements == 0
    _report(
        5,
        f"direct=recursive on {len(shapes_small)} shapes (m<=4), "
        "direct=coin on all shapes <= 5 vertices (m<=3); 0 disagreements",
    )


def test_criterion_6_minimal_orbit_census():
    for n in range(1, 17):
        s = digit_sum(2, n + 1) - 1
        expected = math.factorial(2 * s) // (2**s * math.factorial(s)) if s else 1
        shapes = minimal_orbits(n)
        assert len(shapes) == expected, n
        assert all(orbit_size(sh) == 2**s for sh in shapes), n
    reduced = [reduce_orbit(s)[0] for s in minimal_orbits(14)]
    assert all(r.vertex_count == 6 for r in reduced)
    counts = Counter(r.key for r in reduced)
    assert sorted(counts.values()) == [3, 3, 3, 6]
    _report(6, "(2s-1)!! minimal orbits of size 2^s for n <= 16; n=14 reduces to {3,3,3,6}")


def test_criterion_7_continued_fraction_correctness():
    import random

    rng = random.Random(77)
    checked = 0
    while checked < 50:
        depth = rng.randrange(0, 7)
        vals = [rng.randrange(-5, 7) for _ in range(max(depth + 1, 20))]
        b = WeightFunction.from_table(vals)
        pair = continued_fraction_pq(b, depth)
        series = series_divide_exact(pair.P, pair.Q, 20)
        capped = weighted_catalan_series(b, 19, height_cap=depth + 1)
        assert series == capped, (vals[: depth + 1], depth)
        checked += 1
    pair = continued_fraction_pq(MORSE, 2)
    assert pair.P.coefficients == (1, -34)
    assert pair.Q.coefficients == (1, -35, 25)
    pair = continued_fraction_pq(MORSE, 2, modulus=7)
    assert pair.P.coefficients == (1, 1)
    assert pair.Q.coefficients == (1, 0, 4)
    _report(7, "P/Q = height-capped path series on 50 random weights; morse pair exact")


def test_criterion_8_ternary_congruence():
    b = WeightFunction.polynomial([1, 9])
    assert check_conditions(b, "qmain:3").holds
    for n in range(26):
        lhs = q_weighted_catalan(b, 3, n)
        rhs = q_catalan(3, n)
        xi = (digit_sum(3, 2 * n + 1) - 1) // 2
        assert (lhs - rhs) % 3 ** (xi + 1) == 0, n
    _report(8, "C_n^(3)(1+9x) = C_n^(3) mod 3^(xi+1), xi = (s_3(2n+1)-1)/2, n <= 25")


def test_criterion_9_alpha_fitting():
    rep2 = conjecture_report("2adic", 4096, 6)
    assert rep2["c"] == 2
    assert rep2["fit"].certified_depth >= 6
    assert rep2["fit"].residue % 64 == 23
    assert rep2["fit"].consistency
    assert rep2["first_unexplained"] is None

    rep5 = conjecture_report("5adic", 4096, 3)
    assert rep5["fit"].certified_depth >= 3
    assert rep5["fit"].residue % 125 == 35
    assert rep5["fit"].consistency

    even = [v for v in rep5["even_exceptions"] if 4 <= v["n"] <= 200]
    assert even == []
    # the even branch holds across the checked window, flagged as conjecture data
    assert rep5["even_all_2"]
    _report(
        9,
        "2-adic: alpha = 23 mod 64, c = 2; 5-adic: alpha = 35 mod 125;"
        " xi_5(L_n) = 2 for even n (consistency checks of conjectures)",
    )


def test_criterion_10_property_suites():
    assert test_properties.check_product_rule(seed=10, rounds=20)
    assert test_properties.check_membership_criterion(seed=11, rounds=30)
    assert test_properties.check_series_round_trip(seed=12, rounds=30)
    assert test_properties.check_period_stability(seed=13, rounds=8)
    _report(
        10,
        "product rule, membership criterion, series round-trip,"
        " period stability (also standalone in test_properties.py)",
    )
