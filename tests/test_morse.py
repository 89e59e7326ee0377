import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcatalan import kernel, morse, series
from wcatalan.arith import digit_sum, series_divide_exact, valuation
from wcatalan.catalan import catalan_number, catalan_series, weighted_catalan_series
from wcatalan.errors import DomainError
from wcatalan.morse import (
    MORSE,
    PadicFit,
    _certified_valuations,
    _expression_values,
    _fit_violations,
    _value_bound,
    conjecture_report,
    fit_padic_alpha,
    mod3r_period_check,
    morse_number,
    morse_weight,
    valuation_profile,
)
from wcatalan.weights import WeightFunction, check_conditions


class TestMorseNumbers:
    def test_small_values(self):
        assert weighted_catalan_series(MORSE, 5) == [1, 1, 10, 325, 22150, 2586250]

    def test_examples(self):
        assert morse_number(0) == 1
        assert morse_number(2) == 10  # 9 + 1 over the two paths
        assert morse_number(3) == 325  # 225 + 81 + 9 + 9 + 1

    def test_single_value_matches_the_series(self):
        # one value takes the half-length DP, the series the whole one
        assert morse_number(300) == weighted_catalan_series(MORSE, 300)[300]

    def test_weight_powers(self):
        assert morse_weight(1) is MORSE
        assert morse_weight(2)(1) == 81
        with pytest.raises(DomainError):
            morse_weight(0)


class TestValuationTheorem:
    def test_two_adic_valuation_matches_catalan(self):
        # the relaxed hypotheses hold for (2x+1)^2, so xi_2(L_n) = s_2(n+1) - 1
        assert check_conditions(MORSE, "main").holds
        series = weighted_catalan_series(MORSE, 80)
        for n in range(1, 81):
            assert valuation(2, series[n]) == digit_sum(2, n + 1) - 1, n


class TestValuationProfile:
    def test_examples(self):
        prof = valuation_profile("cb", 2, range(3, 4))
        assert prof.valuations[0] == 0  # L_3 = 325 is odd

        prof5 = valuation_profile("cb", 5, range(4, 21))
        assert all(v == 2 for n, v in zip(prof5.n_range, prof5.valuations) if n % 2 == 0)

        prof2 = valuation_profile("cb-c", 2, range(2, 3))
        assert prof2.valuations[0] == 3  # xi_2(10 - 2)

    def test_zero_rows_marked_infinite(self):
        prof = valuation_profile("cb-1", 3, range(0, 4))
        assert prof.valuations[0] is None  # L_0 - 1 = 0
        assert prof.valuations[1] is None  # L_1 - 1 = 0
        assert prof.valuations[2] == 2  # L_2 - 1 = 9
        assert prof.valuations[3] == 4  # L_3 - 1 = 324

    def test_exact_mode_reports_bits(self):
        prof = valuation_profile("cb", 2, range(1, 10))
        assert prof.mode == "exact"
        assert prof.value_bits == [morse_number(n).bit_length() for n in range(1, 10)]

    def test_residue_mode_matches_exact(self):
        wide = valuation_profile("cb", 5, range(300, 340))
        assert wide.mode == "residue"
        exact = valuation_profile("cb", 5, range(300, 321))
        assert wide.value_bits is None
        assert wide.valuations[:21] == exact.valuations

    def test_csv_shape(self):
        lines = valuation_profile("cb", 2, range(0, 3)).to_csv().strip().split("\n")
        assert lines[0] == "n,value_bits,valuation"
        assert len(lines) == 4

    def test_prime_required(self):
        with pytest.raises(DomainError, match="prime"):
            valuation_profile("cb", 4, range(1, 5))


def _exact_valuations(weight, expr, p, n_max):
    return [None if v == 0 else valuation(p, v) for v in _expression_values(weight, expr, n_max)]


class _FirstRung(Exception):
    pass


def _record_moduli(monkeypatch, stop_after_first=False):
    """Record the (n_max, modulus) of every residue DP call."""
    calls = []
    real = kernel.dyck_dp_mod

    def recording(bvals, n_max, modulus, height_cap=None):
        calls.append((n_max, modulus))
        if stop_after_first:
            raise _FirstRung
        return real(bvals, n_max, modulus, height_cap)

    monkeypatch.setattr(kernel, "dyck_dp_mod", recording)
    return calls


class TestCertificationLadder:
    @pytest.mark.parametrize("n_max", [321, 2048, 32768])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_first_rung_is_the_widest_word_modulus(self, monkeypatch, n_max, p):
        calls = _record_moduli(monkeypatch, stop_after_first=True)
        with pytest.raises(_FirstRung):
            _certified_valuations(MORSE, "cb", p, n_max)
        ((top, modulus),) = calls
        assert top == n_max
        # 2 bits(m - 1) + bits(2 (n_max + 1)) <= 64, and p m breaks it
        assert series.fits_word(modulus, n_max + 1)
        assert not series.fits_word(modulus * p, n_max + 1)
        k = valuation(p, modulus)
        assert modulus == p**k and k >= 1
        if n_max == 2048:
            assert modulus in (2**25, 3**15, 5**10)

    def test_wide_prime_starts_at_its_first_power(self, monkeypatch):
        calls = _record_moduli(monkeypatch, stop_after_first=True)
        with pytest.raises(_FirstRung):
            _certified_valuations(MORSE, "cb", 2**31 - 1, 2048)
        assert calls == [(2048, 2**31 - 1)]

    @pytest.mark.parametrize(
        "weight, expr, p",
        [
            # b = 1 mod 2^30, so C_n^b - C_n vanishes mod the first rung, 2^27
            (WeightFunction.polynomial([1, 2**30]), "cb-c", 2),
            # 3 | b(x), so xi_3(C_n^b) >= n
            (WeightFunction.polynomial([3, 6, 12]), "cb", 3),
        ],
    )
    def test_ladder_climbs_to_exact_valuations(self, monkeypatch, weight, expr, p):
        calls = _record_moduli(monkeypatch)
        got = _certified_valuations(weight, expr, p, 400)
        assert got == _exact_valuations(weight, expr, p, 400)
        assert len(calls) >= 2
        # each rung doubles K and stops at the last row the rung below left zero
        tops = [top for top, _ in calls]
        assert tops[0] == 400 and tops == sorted(tops, reverse=True)
        for (_, lower), (top, upper) in zip(calls, calls[1:]):
            assert upper == lower**2
            assert got[top] >= valuation(p, lower)

    def test_rows_past_the_old_depth_cap_climb_to_their_valuations(self, monkeypatch):
        # b = 3^25 makes xi_3(C_n^b) >= 25 n, past 3^1292 (the largest power
        # of 3 up to 2^2048) from n = 52 on: K doubles until every row is
        # nonzero, so the last rung is the first doubling past the deepest row
        weight = WeightFunction.polynomial([3**25])
        calls = _record_moduli(monkeypatch)
        got = _certified_valuations(weight, "cb", 3, 60)
        assert got == _exact_valuations(weight, "cb", 3, 60)
        assert max(got) > 1292
        moduli = [m for _, m in calls]
        assert all(upper == lower**2 for lower, upper in zip(moduli, moduli[1:]))
        assert valuation(3, moduli[-2]) <= max(got) < valuation(3, moduli[-1])

    def test_exact_zeros_are_proven_at_the_first_rung_past_the_bound(self, monkeypatch):
        # 1 / (1 - t / (1 + t)) = 1 + t, so C_n^b = 0 for n >= 2, which no
        # closed form catches.  A nonzero path steps up from levels 0 and 1
        # only, so |C_n^b| <= C_n <= 4^n, and a zero residue past that is a zero
        weight = WeightFunction.from_table([1, -1] + [0] * 59)
        calls = _record_moduli(monkeypatch)
        got = _certified_valuations(weight, "cb", 3, 60)
        assert got[:2] == [0, 0]
        assert got[2:] == [None] * 59
        moduli = [m for _, m in calls]
        assert all(upper == lower**2 for lower, upper in zip(moduli, moduli[1:]))
        assert moduli[-2] < 4**60 < moduli[-1] < 2**2048

    @pytest.mark.parametrize("expr", ["cb", "cb-c", "cb-1"])
    @pytest.mark.parametrize("coeffs", [[0], [0, 1], [0, 3, -2]])
    @pytest.mark.parametrize("p", [2, 3])
    def test_zero_constant_weight_takes_one_rung(self, monkeypatch, expr, coeffs, p):
        # b(0) = 0 leaves only the empty path: C^b = 1, 0, 0, ...  The cb
        # rows n >= 1 have value bound 0; the cb-c and cb-1 rows, -C_n and
        # -1, are nonzero mod the first rung
        calls = _record_moduli(monkeypatch)
        got = _certified_valuations(WeightFunction.polynomial(coeffs), expr, p, 500)
        assert len(calls) == 1
        if expr == "cb":
            assert got == [0] + [None] * 500
        elif expr == "cb-1":
            assert got == [None] + [0] * 500
        else:
            assert got == [None] + [valuation(p, c) for c in catalan_series(500)[1:]]

    def test_rows_past_the_old_depth_cap_never_take_an_exact_dp(self, monkeypatch):
        # b = 4096 (x + 1) makes xi_2(C_n^b) >= 12 n: 4800 bits at n = 400
        weight = WeightFunction.polynomial([4096, 4096])
        want = {expr: _exact_valuations(weight, expr, 2, 400) for expr in ("cb", "cb-c", "cb-1")}

        def refuse(*args, **kwargs):
            raise AssertionError("the ladder called an exact DP")

        monkeypatch.setattr(kernel, "dyck_dp_exact", refuse)
        monkeypatch.setattr(kernel, "dyck_value_exact", refuse)
        for expr, vals in want.items():
            assert _certified_valuations(weight, expr, 2, 400) == vals, expr
        assert max(want["cb"]) > 2048

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_cancellation_zero_is_proven(self, p):
        # b = 1 - 2x: C_2^b = b(0)^2 + b(0) b(1) = 1 - 1 = 0
        weight = WeightFunction.polynomial([1, -2])
        got = _certified_valuations(weight, "cb", p, 400)
        assert got[2] is None
        assert got == _exact_valuations(weight, "cb", p, 400)

    @given(
        st.lists(st.integers(-6, 6) | st.just(0), min_size=40, max_size=40),
        st.sampled_from(["cb", "cb-c", "cb-1"]),
        st.sampled_from([2, 3, 5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_value_bound_holds_and_the_ladder_is_exact(self, table, expr, p):
        weight = WeightFunction.from_table(table)
        values = _expression_values(weight, expr, 40)
        minus = {"cb": None, "cb-c": catalan_series(40), "cb-1": [1] * 41}[expr]
        h = table.index(0) if 0 in table else 40
        for n, v in enumerate(values):
            # a nonzero path steps up only from levels below the first zero
            peak = max(map(abs, table[: min(n, h)]), default=0)
            size = minus[n] if minus else 0
            assert abs(v) <= (4 * peak) ** n + size <= _value_bound(n, peak, minus), n
        assert _certified_valuations(weight, expr, p, 40) == [
            None if v == 0 else valuation(p, v) for v in values
        ]

    @pytest.mark.parametrize("p", [2, 3])
    def test_all_ones_weight_has_no_cb_c_rows_to_certify(self, monkeypatch, p):
        # b = 1 gives C^b = C, so every cb-c row is an exact zero
        calls = _record_moduli(monkeypatch)
        got = _certified_valuations(WeightFunction.preset("ones"), "cb-c", p, 1000)
        assert calls == []
        assert got == [None] * 1001

    @pytest.mark.parametrize("ones", [3, 8, 9, 200, 399])
    def test_cb_c_ladder_starts_past_the_leading_ones(self, monkeypatch, ones):
        # b(0..ones-1) = 1 makes rows n <= ones exact zeros; the rest climb
        weight = WeightFunction.from_table([1] * ones + [5, 1, 3] * 150)
        calls = _record_moduli(monkeypatch)
        got = _certified_valuations(weight, "cb-c", 2, 400)
        assert got == _exact_valuations(weight, "cb-c", 2, 400)
        assert got[: ones + 1] == [None] * (ones + 1)
        assert all(v is not None for v in got[ones + 1 :])
        assert calls and calls[0][0] == 400

    def test_all_ones_table_still_needs_its_values(self):
        # long enough for the exact rows, too short for the scan of leading ones
        with pytest.raises(DomainError, match=r"evaluate b\(20\)"):
            _certified_valuations(WeightFunction.from_table([1] * 20), "cb-c", 2, 400)

    def test_zero_constant_table_still_needs_its_values(self):
        with pytest.raises(DomainError, match=r"evaluate b\(3\)"):
            _certified_valuations(WeightFunction.from_table([0, 1, 2]), "cb", 2, 400)


@st.composite
def fit_cases(draw):
    """Random data, which mostly fail at level 1, or data that fit some
    alpha until a planted datum (n, t + 1) contradicts the deepest
    (n, t), so that the fit fails at level t + 1 when the depth reaches it."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    depth = draw(st.integers(1, 5))
    if draw(st.booleans()):
        pairs = st.tuples(st.integers(-60, 60), st.integers(0, 3))
        return p, depth, draw(st.lists(pairs, min_size=1, max_size=12))
    alpha = draw(st.integers(-60, 60))
    ns = draw(st.lists(st.integers(-60, 60).filter(lambda n: n != alpha), min_size=1, max_size=12))
    data = [(n, valuation(p, n - alpha)) for n in ns]
    n, t = max(data, key=lambda d: d[1])
    return p, depth, data + [(n, t + 1)]


class TestPadicFit:
    def test_synthetic_round_trip(self):
        alpha, p = 7, 3
        data = [
            (n, valuation(p, n - alpha)) for n in range(8, 600) if n != alpha
        ]
        fit = fit_padic_alpha(data, p, 5)
        assert fit.consistency
        assert fit.certified_depth == 5
        assert fit.residue == 7 % 3**5
        assert fit.digits_lsb_first == (1, 2, 0, 0, 0)

    def test_monotone_in_data(self):
        alpha, p = 13, 2
        full = [(n, valuation(p, n - alpha)) for n in range(14, 800)]
        small_fit = fit_padic_alpha(full[:80], p, 4)
        big_fit = fit_padic_alpha(full, p, 4)
        d = small_fit.certified_depth
        assert big_fit.digits_lsb_first[:d] == small_fit.digits_lsb_first[:d]

    def test_conflicting_data_reported(self):
        # (4, 0) forces alpha odd while (6, 1) and (10, 1) force alpha even
        fit = fit_padic_alpha([(4, 0), (6, 1), (8, 0), (10, 1), (5, 2)], 2, 4)
        assert not fit.consistency
        assert any(c.n in (6, 10) for c in fit.conflicts)
        # a single n demanding two different depths is already contradictory
        fit2 = fit_padic_alpha([(4, 0), (4, 1)], 2, 3)
        assert not fit2.consistency and fit2.conflicts

    @given(
        p=st.sampled_from([2, 3, 5]),
        r=st.integers(-50, 50),
        level=st.integers(1, 5),
        data=st.lists(st.tuples(st.integers(-200, 200), st.integers(0, 7)), max_size=30),
    )
    @settings(max_examples=80, deadline=None)
    def test_violations_follow_the_capped_valuation(self, p, r, level, data):
        def capped(d):
            v = 0
            while v < level and d % p ** (v + 1) == 0:
                v += 1
            return v

        expected = [
            (n, t, capped(n - r))
            for n, t in data
            if capped(n - r) != (t if t < level else level)
        ]
        got = [(c.n, c.expected, c.observed) for c in _fit_violations(data, p, r, level)]
        assert got == expected

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_levels_stop_above_the_deepest_datum(self, monkeypatch, p):
        # above level max t + 1 every lift survives: the levels stop there,
        # and a depth of 40 costs what the depth max t + 1 does
        data = [(n, valuation(p, n - 7)) for n in range(8, 300)]
        top = max(t for _, t in data) + 1
        levels, real = [], morse._level_digits

        def counting(data, p, level):
            levels.append(level)
            return real(data, p, level)

        monkeypatch.setattr(morse, "_level_digits", counting)
        first = None
        for depth in (top, top + 2, 40):  # top + 2 fails fast on an unbounded loop
            levels.clear()
            fit = fit_padic_alpha(data, p, depth)
            first = first or fit
            assert (fit, levels) == (first, list(range(1, top + 1))), depth

    @given(case=fit_cases())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_the_unbounded_level_loop(self, case):
        # every level up to depth, each candidate's violations recomputed
        p, depth, data = case
        current, unique = [0], (0, 0)
        want = None
        for level in range(1, depth + 1):
            candidates = [r + d * p ** (level - 1) for r in current for d in range(p)]
            survivors = [r for r in candidates if not _fit_violations(data, p, r, level)]
            if not survivors:
                best = min(candidates, key=lambda r: len(_fit_violations(data, p, r, level)))
                conflicts = tuple(_fit_violations(data, p, best, level)[:16])
                want = (unique, False, conflicts)
                break
            current = survivors
            if len(survivors) == 1:
                unique = (level, survivors[0])
        if want is None:
            want = (unique, True, ())
        fit = fit_padic_alpha(data, p, depth)
        assert ((fit.certified_depth, fit.residue), fit.consistency, fit.conflicts) == want

    def test_input_validation(self):
        with pytest.raises(DomainError):
            fit_padic_alpha([], 2, 3)
        with pytest.raises(DomainError):
            fit_padic_alpha([(3, -1)], 2, 3)


class TestPeriodChecks:
    def test_mod7_and_mod11(self):
        from wcatalan.periodicity import analyze_weight_period

        r7 = analyze_weight_period(MORSE, 7, max_terms=1000)
        assert (r7.preperiod, r7.period) == (0, 12)
        r11 = analyze_weight_period(MORSE, 11, max_terms=1000)
        assert (r11.preperiod, r11.period) == (0, 55)

    def test_mod7_series_termwise(self):
        series = [c % 7 for c in series_divide_exact((1, 1), (1, 0, 4), 500)]
        assert series == weighted_catalan_series(MORSE, 499, modulus=7)

    def test_mod27_divisor_bound(self):
        check = mod3r_period_check(3, window=300)
        assert check.bound == 2
        assert check.divides and check.report.period == 2

    def test_requires_r_at_least_3(self):
        with pytest.raises(DomainError):
            mod3r_period_check(2)


class TestConjectureReports:
    def test_2adic(self):
        rep = conjecture_report("2adic", 512, 6)
        assert rep["c"] == 2
        assert rep["fit"].residue % 64 == 23
        assert rep["fit"].certified_depth >= 6
        assert rep["consistent_over_window"]
        assert rep["first_unexplained"] is None

    def test_2adic_example_row(self):
        # xi_2(L_2 - C_2) = 3 = s_2(2) + xi_2(2 - alpha) + 2 with alpha = 23 mod 64
        assert valuation(2, morse_number(2) - catalan_number(2)) == 3
        assert digit_sum(2, 2) + valuation(2, 2 - 23) + 2 == 3

    def test_5adic(self):
        rep = conjecture_report("5adic", 700, 3)
        assert rep["even_all_2"]
        assert rep["fit"].residue == 35
        assert rep["consistent_over_window"]

    def test_3adic_pattern(self):
        rep = conjecture_report("3adic", 1000, 4)
        assert rep["even_value_set"] == [2]
        assert rep["classes"]["6"]["1"] == [6]
        assert rep["classes"]["6"]["3"] == [4]
        assert rep["classes"]["18"]["5"] == [5]
        assert rep["classes"]["18"]["11"] == [5]
        assert rep["single_valued"]

    def test_2adic_generalized_smoke(self):
        rep = conjecture_report("2adic-general:2", 256, 4)
        assert rep["c"] >= 0
        assert isinstance(rep["fit"], PadicFit)
        assert rep["fit"].digits_lsb_first == (1, 1, 0, 0)
        assert rep["window"] == [2, 256]

    def test_unknown_conjecture(self):
        with pytest.raises(DomainError):
            conjecture_report("6adic", 100)

    @pytest.mark.parametrize("which", ["2adic:3", "5adic:junk", "5adic:", "3adic:9"])
    def test_stray_suffix_is_refused(self, which):
        with pytest.raises(DomainError, match=f"unknown conjecture '{which}'"):
            conjecture_report(which, 100)

    @pytest.mark.parametrize("which", [
        "2adic", "2adic-general", "2adic-general:3", "5adic", "3adic",
    ])
    @pytest.mark.parametrize("depth", [0, -2])
    def test_depth_is_refused_before_any_valuation(self, monkeypatch, which, depth):
        def refuse(*args):
            raise AssertionError("valuations computed for a refused depth")

        monkeypatch.setattr(morse, "_certified_valuations", refuse)
        with pytest.raises(DomainError, match="depth must be at least 1"):
            conjecture_report(which, 4096, depth)
        # the window is checked first, and the power before the depth
        with pytest.raises(DomainError, match="window too small"):
            conjecture_report(which, 7, depth)
        with pytest.raises(DomainError, match="power must be at least 1"):
            conjecture_report("2adic-general:0", 100, depth)

    def test_5adic_fit_is_the_same_past_the_deepest_datum(self):
        deep = conjecture_report("5adic", 100, 40)
        assert deep == conjecture_report("5adic", 100, 3)
        assert (deep["fit"].certified_depth, deep["fit"].residue) == (3, 35)
