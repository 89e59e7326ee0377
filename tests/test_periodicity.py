import dataclasses
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcatalan import catalan, morse, periodicity
from wcatalan.arith import series_divide_exact
from wcatalan.catalan import weighted_catalan_series
from wcatalan.errors import DomainError, ResourceLimitError
from wcatalan.periodicity import (
    PQPair,
    analyze_weight_period,
    continued_fraction_pq,
    detect_period,
    pure_periodicity_sufficient,
    truncation_index,
)
from wcatalan.weights import WeightFunction, parse_weight_spec

MORSE = WeightFunction.preset("morse")
ONES = WeightFunction.preset("ones")


def brute_gap_chain_sums(bv, lo, hi):
    """Oracle: enumerate sparse index chains explicitly."""
    out = [1]
    for k in range(1, hi - lo + 2):
        total = 0
        hits = False
        for combo in itertools.combinations(range(lo, hi + 1), k):
            if all(b - a >= 2 for a, b in zip(combo, combo[1:])):
                hits = True
                prod = 1
                for i in combo:
                    prod *= bv[i]
                total += prod
        if not hits:
            break
        out.append(total)
    return out


def two_pass_gap_chain_sums(bv, lo, hi):
    """Oracle: the former two-pass recursion, run once per index range."""
    skip = [1]
    skip2 = [1]
    for j in range(hi, lo - 1, -1):
        cur = [0] * max(len(skip), len(skip2) + 1)
        for k, c in enumerate(skip):
            cur[k] += c
        for k, c in enumerate(skip2):
            cur[k + 1] += bv[j] * c
        while len(cur) > 1 and cur[-1] == 0:
            cur.pop()
        skip2 = skip
        skip = cur
    return skip


def trimmed(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def signed_trimmed(sums):
    return trimmed(c if k % 2 == 0 else -c for k, c in enumerate(sums))


class TestTruncationIndex:
    def test_examples(self):
        assert truncation_index(MORSE, 7, 10) == 3
        assert truncation_index(MORSE, 11, 10) == 5
        assert truncation_index(ONES, 5, 100) is None

    def test_accumulating_product(self):
        # 9 divides b(0)*b(1) already; 3^6 needs the factor from b(4)
        assert truncation_index(MORSE, 9, 10) == 1
        assert truncation_index(MORSE, 3**6, 10) == 4

    def test_bad_modulus(self):
        with pytest.raises(DomainError):
            truncation_index(MORSE, 1, 5)


class TestContinuedFractionPQ:
    def test_depth_zero(self):
        pair = continued_fraction_pq(MORSE, 0)
        assert pair.P.coefficients == (1,)
        assert pair.Q.coefficients == (1, -1)  # 1 - b(0) x

    def test_depth_one(self):
        b = WeightFunction.from_table([3, 5])
        pair = continued_fraction_pq(b, 1)
        assert pair.P.coefficients == (1, -5)
        assert pair.Q.coefficients == (1, -8)

    def test_morse_depth_two_exact(self):
        pair = continued_fraction_pq(MORSE, 2)
        assert pair.P.coefficients == (1, -34)
        assert pair.Q.coefficients == (1, -35, 25)

    def test_morse_depth_three_mod_seven(self):
        pair = continued_fraction_pq(MORSE, 3, 7)
        assert pair.P.coefficients == (1, 1)
        assert pair.Q.coefficients == (1, 0, 4)

    def test_residues_drop_trailing_zeros(self):
        # P = 1 - (9 + 25 + 49) x + 9 * 49 x^2 = (1, -83, 441), and 441 = 63 * 7
        b = WeightFunction.from_table([1, 9, 25, 49])
        assert continued_fraction_pq(b, 3).P.coefficients == (1, -83, 441)
        assert continued_fraction_pq(b, 3, 7).P.coefficients == (1, 1)

    def test_against_chain_enumeration(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randrange(0, 7)
            bv = [rng.randrange(-6, 7) for _ in range(n + 1)]
            b = WeightFunction.from_table(bv)
            pair = continued_fraction_pq(b, n)
            p_sums = [abs(c) for c in pair.P.coefficients]
            q_sums = [abs(c) for c in pair.Q.coefficients]
            # compare unsigned sums only when nothing cancelled to zero
            expect_p = brute_gap_chain_sums(bv, 1, n) if n >= 1 else [1]
            expect_q = brute_gap_chain_sums(bv, 0, n)
            signed_p = [c if k % 2 == 0 else -c for k, c in enumerate(expect_p)]
            signed_q = [c if k % 2 == 0 else -c for k, c in enumerate(expect_q)]
            while signed_p and signed_p[-1] == 0:
                signed_p.pop()
            while signed_q and signed_q[-1] == 0:
                signed_q.pop()
            assert list(pair.P.coefficients) == signed_p
            assert list(pair.Q.coefficients) == signed_q

    def test_degrees_for_positive_weights(self):
        # deg P = ceil(n/2), deg Q = ceil((n+1)/2) when no b(i) vanishes
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randrange(0, 9)
            bv = [rng.randrange(1, 9) for _ in range(n + 1)]
            pair = continued_fraction_pq(WeightFunction.from_table(bv), n)
            assert pair.P.degree == (n + 1) // 2
            assert pair.Q.degree == (n + 2) // 2

    def test_series_matches_height_capped_paths(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randrange(0, 7)
            bv = [rng.randrange(-4, 6) for _ in range(max(n + 1, 20))]
            b = WeightFunction.from_table(bv)
            pair = continued_fraction_pq(b, n)
            series = series_divide_exact(pair.P, pair.Q, 20)
            capped = weighted_catalan_series(b, 19, height_cap=n + 1)
            assert series == capped

    def test_series_matches_full_values_when_truncated_far_enough(self):
        for b in (MORSE, WeightFunction.polynomial([1, 4])):
            pair = continued_fraction_pq(b, 9)
            series = series_divide_exact(pair.P, pair.Q, 10)
            assert series == weighted_catalan_series(b, 9)


@st.composite
def weights_and_depth(draw, depths=st.integers(0, 120)):
    """A polynomial or table weight (zeros and negatives allowed) and a depth."""
    n = draw(depths)
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4))
        b = WeightFunction.polynomial(coeffs)
    else:
        table = draw(st.lists(st.integers(-6, 6), min_size=n + 1, max_size=n + 1))
        b = WeightFunction.from_table(table)
    return b, n


def _moduli(exact_q, bits=200):
    """Moduli 2..2^bits: arbitrary, powers of 2, and divisors of Q's top coefficient."""
    top = abs(exact_q.leading)
    divisors = [d for d in range(2, 50) if top % d == 0]
    options = [st.integers(2, 2**bits), st.builds(lambda e: 2**e, st.integers(1, bits))]
    if divisors:
        options.append(st.sampled_from(divisors))
    return st.one_of(*options)


def _assert_reduced_exact_pair(b, n, data, bits=200):
    exact = continued_fraction_pq(b, n)
    m = data.draw(_moduli(exact.Q, bits), label="modulus")
    pair = continued_fraction_pq(b, n, m)
    assert pair.P.coefficients == trimmed(c % m for c in exact.P.coefficients)
    assert pair.Q.coefficients == trimmed(c % m for c in exact.Q.coefficients)
    assert pair.truncation == n


class TestOnePassPQ:
    @given(wn=weights_and_depth(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_residues_are_the_reduced_exact_pair(self, wn, data):
        _assert_reduced_exact_pair(*wn, data)

    @given(wn=weights_and_depth(st.integers(100, 300)), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_residues_are_the_reduced_exact_pair_across_the_crossover(self, wn, data):
        """Up to 64 bits the S-fraction tree takes over from depth 127 on."""
        _assert_reduced_exact_pair(*wn, data, bits=61)

    def test_tree_side_never_runs_the_gap_chains(self, monkeypatch):
        b, m = parse_weight_spec("poly:9,0,1"), 658063
        p_sums, q_sums = periodicity._gap_chain_sums(b.values(0, 1025), m)

        def fail(bv, modulus):
            raise AssertionError("gap-chain pass ran")

        monkeypatch.setattr(periodicity, "_gap_chain_sums", fail)
        pair = continued_fraction_pq(b, 1024, m)
        assert pair.P.coefficients == trimmed(c % m for c in p_sums)
        assert pair.Q.coefficients == trimmed(c % m for c in q_sums)
        assert pair.truncation == 1024

    def test_wide_moduli_at_small_depth_keep_the_gap_chains(self, monkeypatch):
        calls = []
        real = periodicity._gap_chain_sums
        monkeypatch.setattr(
            periodicity, "_gap_chain_sums", lambda bv, m: calls.append(m) or real(bv, m)
        )
        m = 2**1000 + 1
        continued_fraction_pq(MORSE, 256, m)
        assert calls == [m]

    @given(wn=weights_and_depth())
    @settings(max_examples=100, deadline=None)
    def test_exact_pair_matches_the_two_pass_sums(self, wn):
        b, n = wn
        bv = b.values(0, n + 1)
        pair = continued_fraction_pq(b, n)
        p_sums = two_pass_gap_chain_sums(bv, 1, n) if n >= 1 else [1]
        assert pair.P.coefficients == signed_trimmed(p_sums)
        assert pair.Q.coefficients == signed_trimmed(two_pass_gap_chain_sums(bv, 0, n))
        if n <= 8:
            p_sums = brute_gap_chain_sums(bv, 1, n) if n >= 1 else [1]
            assert pair.P.coefficients == signed_trimmed(p_sums)
            assert pair.Q.coefficients == signed_trimmed(brute_gap_chain_sums(bv, 0, n))

    def test_moduli_dividing_the_top_coefficient_shrink_q(self):
        # Q = 1 - 35x + 25x^2 at depth 2; mod 5 and mod 25 the top term vanishes
        assert continued_fraction_pq(MORSE, 2, 5).Q.coefficients == (1,)
        assert continued_fraction_pq(MORSE, 2, 25).Q.coefficients == (1, 15)
        assert continued_fraction_pq(MORSE, 2, 2**200).Q.coefficients == (1, 2**200 - 35, 25)

    def test_depth_error_comes_before_the_modulus_error(self):
        with pytest.raises(DomainError, match="truncation depth must be nonnegative"):
            continued_fraction_pq(MORSE, -1, 1)

    @pytest.mark.parametrize("m", [1, 0, -5])
    def test_bad_modulus(self, m):
        with pytest.raises(DomainError, match=f"modulus must be at least 2, got {m}"):
            continued_fraction_pq(MORSE, 3, m)

    def test_residue_path_never_builds_exact_coefficients(self):
        # at depth 2000 the exact chain lists hold about 1000 coefficients of
        # up to 22k bits, 6.5 MB at peak, which reducing only at the end
        # would also reach; residues mod 7 peak near 0.2 MB
        tracemalloc.start()
        try:
            continued_fraction_pq(MORSE, 2000, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestDetectPeriod:
    def test_constant(self):
        report = detect_period(itertools.repeat(4), 9, 50)
        assert (report.preperiod, report.period) == (0, 1)

    def test_documented_morse_periods(self):
        r7 = analyze_weight_period(MORSE, 7, max_terms=5000)
        assert (r7.preperiod, r7.period, r7.certified) == (0, 12, True)
        r11 = analyze_weight_period(MORSE, 11, max_terms=5000)
        assert (r11.preperiod, r11.period, r11.certified) == (0, 55, True)

    def test_minimal_period_extraction(self):
        # stream with period 6 found first at distance 12 when width is large
        stream = [0, 1, 2, 0, 1, 2] * 20
        report = detect_period(stream, 5, 120, state_width=1)
        assert report.period == 3 and report.preperiod == 0

    def test_preperiod(self):
        stream = [9, 8, 7] + [1, 2] * 30
        report = detect_period(stream, 11, 63, state_width=2)
        assert (report.preperiod, report.period) == (3, 2)

    def test_undetected_within_window(self):
        # mod 19 the recurrence has order 5 and the cycle far exceeds the
        # window; the report degrades to "undetected", never to an exception
        report = analyze_weight_period(MORSE, 19, max_terms=2000)
        assert report.period is None and report.preperiod is None
        assert report.window == 2000 and report.certified

    def test_reported_period_always_verifies_over_window(self):
        # the digit-parity stream is aperiodic, but 4000 terms cannot tell:
        # whatever the detector reports must at least verify on the window
        from wcatalan.arith import digit_sum

        terms = [digit_sum(2, n) % 2 for n in range(4000)]
        report = detect_period(terms, 2, 4000, state_width=4)
        assert report.found
        lam, pre = report.period, report.preperiod
        assert all(terms[t] == terms[t + lam] for t in range(pre, 4000 - lam))
        assert pre == 0  # backward extension reaches the start here

    def test_stability_under_window_doubling(self):
        r1 = analyze_weight_period(MORSE, 11, max_terms=600)
        r2 = analyze_weight_period(MORSE, 11, max_terms=1200)
        assert (r1.preperiod, r1.period) == (r2.preperiod, r2.period)

    def test_json_schema(self):
        report = analyze_weight_period(MORSE, 7, max_terms=100)
        assert [f.name for f in dataclasses.fields(report)] == [
            "modulus",
            "preperiod",
            "period",
            "window",
            "certified",
        ]


def quadratic_first_repeat(residues, modulus, max_terms, state_width):
    """Oracle: the quadratic form of detect_period's first-repeat rule.

    At each repeated width-k state it tries every divisor of the distance,
    verifying each term by term over the whole suffix, then extends the
    preperiod back one term at a time.
    """
    terms = [r % modulus for r in itertools.islice(iter(residues), max_terms)]
    first = {}
    for i in range(len(terms) - state_width + 1):
        key = tuple(terms[i : i + state_width])
        j = first.setdefault(key, i)
        if j == i:
            continue
        d = i - j
        for lam in (x for x in range(1, d + 1) if d % x == 0):
            if all(terms[t] == terms[t + lam] for t in range(j, len(terms) - lam)):
                pre = j
                while pre > 0 and terms[pre - 1] == terms[pre - 1 + lam]:
                    pre -= 1
                return pre, lam, len(terms)
    return None, None, len(terms)


@st.composite
def residue_streams(draw):
    """A planted preperiod and cycle, such a cycle with one term corrupted,
    or pure noise; terms run past [0, modulus) so reduction is exercised."""
    modulus = draw(st.integers(2, 13))
    term = st.integers(-modulus, 2 * modulus - 1)
    length = draw(st.integers(1, 160))
    kind = draw(st.sampled_from(["planted", "corrupted", "noise"]))
    if kind == "noise":
        return modulus, draw(st.lists(term, min_size=length, max_size=length))
    pre = draw(st.lists(term, max_size=12))
    cycle = draw(st.lists(term, min_size=1, max_size=24))
    terms = (pre + cycle * (length // len(cycle) + 1))[:length]
    if kind == "corrupted":
        at = draw(st.integers(0, length - 1))
        terms[at] += draw(st.integers(1, modulus - 1))
    return modulus, terms


class TestZFunctionDetector:
    @settings(max_examples=400, deadline=None)
    @given(residue_streams(), st.integers(1, 5), st.integers(-40, 20), st.booleans())
    def test_matches_the_quadratic_first_repeat_rule(self, stream, width, slack, certified):
        modulus, terms = stream
        # max_terms from well below the stream length to above it
        max_terms = max(1, len(terms) + slack)
        report = detect_period(terms, modulus, max_terms, width, certified=certified)
        want = quadratic_first_repeat(terms, modulus, max_terms, width)
        assert (report.preperiod, report.period, report.window) == want
        assert (report.modulus, report.certified) == (modulus, certified)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=80))
    def test_z_values_are_longest_common_prefixes(self, seq):
        def lcp(i):
            return next((k for k in range(len(seq) - i) if seq[k] != seq[i + k]), len(seq) - i)

        assert list(periodicity._z_function(seq)) == [lcp(i) for i in range(1, len(seq))]

    def test_uncertified_poly_window(self):
        report = analyze_weight_period(parse_weight_spec("poly:1,2,4"), 12, 5000)
        assert (report.preperiod, report.period, report.certified) == (24, 4970, False)

    def test_mod_three_to_the_eighth(self):
        check = morse.mod3r_period_check(8)
        assert (check.report.preperiod, check.report.period) == (2, 486)
        assert check.divides and check.report.certified


class TestWindowCap:
    def test_cap_comes_before_any_residue(self, monkeypatch):
        def no_residues(*args, **kwargs):
            raise AssertionError("residues computed above the window cap")

        monkeypatch.setattr(catalan, "weighted_catalan_series", no_residues)
        monkeypatch.setattr(periodicity, "truncation_index", no_residues)
        with pytest.raises(ResourceLimitError, match="capped at 4194304 terms"):
            analyze_weight_period(MORSE, 7, max_terms=periodicity.MAX_WINDOW + 1)

    def test_empty_window_comes_before_any_residue_or_pq(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work done for an empty window")

        monkeypatch.setattr(catalan, "weighted_catalan_series", no_work)
        monkeypatch.setattr(periodicity, "truncation_index", no_work)
        monkeypatch.setattr(periodicity, "continued_fraction_pq", no_work)
        for terms in (0, -5):
            with pytest.raises(DomainError, match="need at least one term"):
                analyze_weight_period(parse_weight_spec("poly:-4000,1"), 1000003, max_terms=terms)

    def test_cap_admits_the_largest_window_in_use(self):
        assert 22 * 2 * 3 ** (13 - 3) <= periodicity.MAX_WINDOW == 1 << 22


class TestRecurrenceFromQ:
    def test_residues_satisfy_recurrence(self):
        # residues obey sum_j Q_j a_{n-j} = 0 mod m for n > deg P
        for m in (7, 11, 27):
            k = truncation_index(MORSE, m, 50)
            pair = continued_fraction_pq(MORSE, k)
            qc = continued_fraction_pq(MORSE, k, m).Q.coefficients
            res = weighted_catalan_series(MORSE, 200, height_cap=k, modulus=m)
            for n in range(pair.P.degree + 1, 201 - len(qc)):
                acc = sum(qc[j] * res[n + j] for j in range(len(qc)))
                # reversed convention: check both orientations of the convolution
            for n in range(max(pair.P.degree + 1, len(qc) - 1), 200):
                acc = sum(qc[j] * res[n - j] for j in range(len(qc))) % m
                assert acc == 0, (m, n)

    def test_modular_series_reproduces_dp(self):
        for m in (7, 11):
            k = truncation_index(MORSE, m, 50)
            pair = continued_fraction_pq(MORSE, k)
            series = [c % m for c in series_divide_exact(pair.P, pair.Q, 201)]
            assert series == weighted_catalan_series(MORSE, 200, modulus=m)

    def test_documented_mod7_series_prefix(self):
        series = [c % 7 for c in series_divide_exact((1, 1), (1, 0, 4), 6)]
        assert series == [1, 1, 3, 3, 2, 2]
        assert series == weighted_catalan_series(MORSE, 5, modulus=7)


class TestPurePeriodicity:
    def test_morse_mod_seven(self):
        pair = continued_fraction_pq(MORSE, 2)
        check = pure_periodicity_sufficient(pair, 7)
        assert check.sufficient and not check.reasons

    def test_equal_degrees_fail(self):
        from wcatalan.arith import IntPolynomial

        pair = PQPair(IntPolynomial((1,)), IntPolynomial((1,)), 0)
        check = pure_periodicity_sufficient(pair, 7)
        assert not check.sufficient

    def test_primes_three_mod_four(self):
        # truncating at depth (p-3)/2 gives deg P < deg Q with unit ends,
        # and the leading coefficient is +- the product of even-level weights
        for p in (7, 11, 19, 23):
            k = (p - 3) // 2
            pair = continued_fraction_pq(MORSE, k)
            check = pure_periodicity_sufficient(pair, p)
            assert check.sufficient, (p, check.reasons)
            prod = 1
            for i in range(0, k + 1, 2):
                prod *= MORSE(i)
            assert abs(pair.Q.leading) == prod
        # where the cycle fits in a desk-scale window, the preperiod is 0
        for p in (7, 11):
            report = analyze_weight_period(MORSE, p, max_terms=3000)
            assert report.found and report.preperiod == 0

    def test_reasons_reported(self):
        pair = continued_fraction_pq(MORSE, 2)
        check = pure_periodicity_sufficient(pair, 25)
        assert not check.sufficient
        assert any("leading" in r for r in check.reasons)


class TestStateWidth:
    def test_width_comes_from_q_mod_m(self, monkeypatch):
        calls = []
        pq = periodicity.continued_fraction_pq

        def recorded(b, n, modulus=None):
            calls.append((n, modulus))
            return pq(b, n, modulus)

        monkeypatch.setattr(periodicity, "continued_fraction_pq", recorded)
        analyze_weight_period(MORSE, 7, max_terms=200)
        assert calls == [(3, 7)]

    def test_q_mod_m_sees_a_vanishing_tail_in_a_short_window(self):
        # b = -2 - 2x: 101 | b(100), so k = 100.  The exact Q has degree 51,
        # but Q = 1 mod 101 and deg(P mod 101) = 50: the residues are 0 from
        # n = 51 on, and a width-1 state sees that within 64 terms
        b = parse_weight_spec("poly:-2,-2")
        assert periodicity.continued_fraction_pq(b, 100).Q.degree == 51
        assert periodicity.continued_fraction_pq(b, 100, 101).Q.coefficients == (1,)
        report = analyze_weight_period(b, 101, max_terms=64)
        assert (report.preperiod, report.period, report.certified) == (51, 1, True)
