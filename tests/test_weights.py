import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcatalan.arith import ValueTable, digit_sum, finite_difference, valuation
from wcatalan.catalan import catalan_number, weighted_catalan, weighted_catalan_series
from wcatalan.cli import main
from wcatalan.errors import DomainError, ResourceLimitError, WeightSpecError
from wcatalan.weights import (
    _THEOREMS,
    THEOREM_IDS,
    WeightFunction,
    WeightMembershipError,
    _is_prime_power,
    check_conditions,
    epsilon_of_weight,
    parse_weight_spec,
)


class TestEvaluation:
    def test_preset_values(self):
        assert WeightFunction.preset("morse")(3) == 49
        assert WeightFunction.preset("ones")(10) == 1
        assert WeightFunction.preset("matchings")(4) == 5
        assert WeightFunction.preset("alt-even")(3) == 16
        assert WeightFunction.preset("alt-odd")(2) == 12

    def test_morse_power(self):
        b = WeightFunction.preset("morse-power:2")
        assert [b(x) for x in range(4)] == [1, 81, 625, 2401]
        for k in range(1, 5):
            b = WeightFunction.preset(f"morse-power:{k}")
            assert b.degree == 2 * k
            assert all(b(x) == (2 * x + 1) ** (2 * k) for x in range(12))

    def test_table_out_of_range(self):
        b = WeightFunction.from_table([1, 9, 25])
        assert b(2) == 25
        with pytest.raises(DomainError, match="extend the table"):
            b(3)

    def test_negative_argument(self):
        with pytest.raises(DomainError):
            WeightFunction.preset("ones")(-1)


class TestSpecGrammar:
    def test_round_trips(self):
        for text in ("preset:morse", "poly:1,4,4", "table:1,9,25,49"):
            b = parse_weight_spec(text)
            assert parse_weight_spec(b.spec()).spec() == b.spec()

    def test_poly_matches_preset(self):
        assert parse_weight_spec("poly:1,4,4")(5) == parse_weight_spec("preset:morse")(5)

    def test_trailing_zero_coefficients_trimmed(self):
        b = parse_weight_spec("poly:1,4,0")
        assert b.coefficients == (1, 4)
        assert b(3) == 13

    def test_rejects_garbage(self):
        for text in ("morse", "preset:nope", "poly:1,a", "table:", "frob:1"):
            with pytest.raises(WeightSpecError):
                parse_weight_spec(text)


class TestEpsilon:
    def test_morse(self):
        assert epsilon_of_weight(WeightFunction.preset("morse"), 3).bits == (1, 0, 0, 0)

    def test_ones(self):
        assert epsilon_of_weight(WeightFunction.preset("ones"), 3).bits == (1, 0, 0, 0)

    def test_not_in_f(self):
        b = WeightFunction.polynomial([1, 1])  # diff b = 1 everywhere
        with pytest.raises(WeightMembershipError, match="order-1"):
            epsilon_of_weight(b, 1)

    def test_one_plus_4x(self):
        assert epsilon_of_weight(WeightFunction.polynomial([1, 4]), 3).bits == (1, 0, 0, 0)

    def test_rich_bits_from_table(self):
        # f(x) = 3^x has diff^n f = 2^n 3^x, so every carry bit is 1
        b = WeightFunction.from_table([3**x for x in range(10)])
        assert epsilon_of_weight(b, 5).bits == (1, 1, 1, 1, 1, 1)

    def test_mixed_bits(self):
        # difference coefficients (1, 0, 4): eps = (1, 0, 1)
        b = WeightFunction.polynomial([1, -2, 2])
        assert epsilon_of_weight(b, 4).bits == (1, 0, 1, 0, 0)

    def test_base_three(self):
        b = WeightFunction.polynomial([1, 9])
        assert epsilon_of_weight(b, 2, base=3).bits == (1, 0, 0)

    def test_table_window_too_short(self):
        b = WeightFunction.from_table([1, 1])
        with pytest.raises(DomainError, match="at least"):
            epsilon_of_weight(b, 2)

    def test_base_point_invariance(self):
        # recompute the bits from a window based at 5: same carries
        b = WeightFunction.polynomial([1, -2, 2])
        eps = epsilon_of_weight(b, 3)
        from wcatalan.arith import finite_difference

        tab = b.as_table(5, 6)
        for m, bit in enumerate(eps.bits):
            d = finite_difference(tab, m).values[0]
            assert d % 2**m == 0 and (d // 2**m) % 2 == bit


def newton_coefficients(values: list[int]) -> list[int]:
    """Iterated differences at 0: f(x) = sum_m c[m] C(x, m) on the given values."""
    out = []
    while values:
        out.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return out


def falling_factorial_sum(scales: list[int]) -> list[int]:
    """Monomial coefficients of sum_m scales[m] x (x - 1) ... (x - m + 1)."""
    coeffs = [0] * len(scales)
    falling = [1]
    for m, a in enumerate(scales):
        for j, c in enumerate(falling):
            coeffs[j] += a * c
        falling = [0] + falling  # times x, then minus m times the old one
        for j in range(m + 1):
            falling[j] -= m * falling[j + 1]
    return coeffs


class TestNewtonOracle:
    # x (x - 1) ... (x - m + 1) = m! C(x, m), so scaling it by a_m puts
    # c_m = m! a_m in the Newton basis and keeps the coefficients integers
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_scan_matches_newton_coefficients(self, data):
        q = data.draw(st.sampled_from([2, 3, 4, 5]), label="q")
        degree = data.draw(st.integers(0, 6), label="degree")
        lattice = data.draw(st.booleans(), label="lattice")
        scales = [
            (q**m if lattice else 1) * data.draw(st.integers(-9, 9)) for m in range(degree + 1)
        ]
        if scales[-1] == 0:
            scales[-1] = q**degree if lattice else 1
        b = WeightFunction.polynomial(falling_factorial_sum(scales))
        assert b.degree == degree
        max_order = data.draw(st.integers(max(degree - 1, 0), 8), label="max_order")
        newton = newton_coefficients(b.values(0, degree + 1))
        assert newton == [math.factorial(m) * a for m, a in enumerate(scales)]
        member = all(c % q**m == 0 for m, c in enumerate(newton))
        bits = [newton[n] // q**n % q if n <= degree else 0 for n in range(max_order + 1)]
        extra = data.draw(st.integers(0, 3), label="extra")
        table = WeightFunction.from_table(b.values(0, max_order + 2 + extra))
        for weight in (b, table):
            if member:
                assert epsilon_of_weight(weight, max_order, base=q).bits == tuple(bits)
            else:
                with pytest.raises(WeightMembershipError):
                    epsilon_of_weight(weight, max_order, base=q)

    @pytest.mark.parametrize(
        "spec, order, x",
        [
            # b = 1 + C(x, 3) given by its values: diff b = C(x, 2) is odd at x = 2
            ("table:1,1,1,2,5,11,21", 1, 2),
            # b = 1 + 6 C(x, 3): diff^2 b = 6x fails 4 | diff^2 b at x = 1
            ("poly:1,2,-3,1", 2, 1),
        ],
    )
    def test_window_fails_before_the_newton_order(self, spec, order, x, capsys):
        b = parse_weight_spec(spec)
        newton = newton_coefficients(b.values(0, 4))
        assert [m for m, c in enumerate(newton) if c % 2**m] == [3]
        with pytest.raises(WeightMembershipError) as exc:
            epsilon_of_weight(b, 3)
        assert f"order-{order} difference at x={x} " in str(exc.value) and order <= 3
        code = main(["epsilon", "--weight", spec, "--shape", "()", "--m", "1"])
        assert (code, capsys.readouterr().err) == (3, f"error: {exc.value}\n")


def trial_division_is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
    while n % p == 0:
        n //= p
    return n == 1


class TestPrimePower:
    def test_agrees_with_trial_division(self):
        assert [n for n in range(10**5) if _is_prime_power(n)] == [
            n for n in range(10**5) if trial_division_is_prime_power(n)
        ]

    def test_large_branchings(self):
        assert _is_prime_power(10**9 + 7) and _is_prime_power(3**50) and _is_prime_power(2**81)
        assert not _is_prime_power(6**20) and not _is_prime_power((10**9 + 7) * 3)
        # the least strong pseudoprime to the bases 2..37; base 41 exposes it
        assert not _is_prime_power(318665857834031151167461)

    def test_refused_before_any_root_from_psi_13_on(self):
        # each is refused at k = 1, before any other root is taken: the
        # k-th roots of the 13,288-bit 10^4000 + 1 alone take seconds
        for q in (3317044064679887385961981, 2**100, 10**4000 + 1):
            started = time.perf_counter()
            with pytest.raises(ResourceLimitError, match="primality is decided below"):
                _is_prime_power(q)
            assert time.perf_counter() - started < 0.5


class TestCheckConditions:
    def test_morse_satisfies_everything_binary(self):
        b = WeightFunction.preset("morse")
        for theorem in ("ps", "main", "conj"):
            report = check_conditions(b, theorem)
            assert report.holds, (theorem, report)
            assert report.scope == "all-x"

    def test_fails_second_clause(self):
        # diff b = 2, not divisible by 4
        report = check_conditions(WeightFunction.polynomial([1, 2]), "main")
        assert not report.holds
        assert not report.clauses["4-divides-diff-1"]
        assert report.clauses["b0-odd"]
        assert any(w.clause == "4-divides-diff-1" for w in report.witnesses)

    def test_ones_satisfies_strict_conditions(self):
        report = check_conditions(WeightFunction.preset("ones"), "ps")
        assert report.holds

    def test_main_strictly_weaker_than_ps(self):
        # difference coefficients (1, 0, 4): passes the relaxed conditions,
        # fails the 2^(n+1) ones at order 2
        b = WeightFunction.polynomial([1, -2, 2])
        assert check_conditions(b, "main").holds
        ps = check_conditions(b, "ps")
        assert not ps.holds
        assert not ps.clauses["2^(n+1)-divides-diff-n"]

    def test_conj_hypotheses_hold_where_its_conclusion_fails(self):
        # a verdict tests the hypotheses only: this weight meets every conj
        # clause, yet xi_2(C_n^b) differs from xi_2(C_n) = 1 at n = 4 and 5
        b = parse_weight_spec("poly:-3,-4,-3,-1")
        report = check_conditions(b, "conj")
        assert report.holds and report.scope == "all-x"
        assert [weighted_catalan(b, n) for n in (4, 5)] == [139176, -23406912]
        assert [valuation(2, weighted_catalan(b, n)) for n in (4, 5)] == [3, 6]
        assert [valuation(2, catalan_number(n)) for n in (4, 5)] == [1, 1]

    def test_cubic_census_against_the_conclusion(self):
        # every cubic c0 + c1 x + c2 x^2 + c3 x^3 with coefficients in -4..4
        # and b(0) odd, tested for xi_2(C_n^b) = xi_2(C_n) = s_2(n+1) - 1 at
        # n <= 64 (residues mod 2^8 tell valuations up to 7).  `ps` and `main`
        # imply the conclusion; `conj` implies it only for an even c3, since
        # for a cubic it asks just 2 | diff^3 b = 6 c3
        xi = [digit_sum(2, n + 1) - 1 for n in range(65)]
        holding = {"ps": set(), "main": set(), "conj": set()}
        for coeffs in itertools.product((-3, -1, 1, 3), *[range(-4, 5)] * 3):
            b = WeightFunction.polynomial(list(coeffs))
            for theorem, weights in holding.items():
                if check_conditions(b, theorem).holds:
                    weights.add(coeffs)

        def concludes(coeffs):
            b = WeightFunction.polynomial(list(coeffs))
            values = weighted_catalan_series(b, 64, modulus=2**8)
            return all(v and valuation(2, v) == x for v, x in zip(values, xi))

        assert {t: len(w) for t, w in holding.items()} == {"ps": 36, "main": 156, "conj": 732}
        assert all(concludes(c) for c in holding["ps"] | holding["main"])
        even = {c for c in holding["conj"] if c[3] % 2 == 0}
        assert (len(even), len(holding["conj"] - even)) == (412, 320)
        assert all(concludes(c) for c in even)
        assert not any(concludes(c) for c in holding["conj"] - even)

    def test_witness_points_at_violation(self):
        report = check_conditions(WeightFunction.polynomial([1, 2]), "ps")
        w = next(w for w in report.witnesses if w.clause == "2^(n+1)-divides-diff-n")
        assert w.order == 1 and w.value % 4 != 0

    def test_witness_past_x_zero(self):
        # b = 1 + 3x + x^2: diff b = 4, 6, 8, ... fails 4 | diff b first at
        # x = 1; diff^2 b = 2 fails 8 | diff^2 b at x = 0
        report = check_conditions(WeightFunction.polynomial([1, 3, 1]), "ps")
        assert report.scope == "all-x"
        assert [(w.order, w.x, w.value) for w in report.witnesses] == [(1, 1, 6), (2, 0, 2)]

    def test_qmain(self):
        assert check_conditions(WeightFunction.polynomial([1, 9]), "qmain:3").holds
        assert not check_conditions(WeightFunction.polynomial([1, 3]), "qmain:3").holds
        assert not check_conditions(WeightFunction.polynomial([2, 9]), "qmain:3").holds

    def test_qmain_needs_prime_power(self):
        with pytest.raises(DomainError, match="prime power"):
            check_conditions(WeightFunction.preset("ones"), "qmain:6")
        with pytest.raises(DomainError, match="branching"):
            check_conditions(WeightFunction.preset("ones"), "qmain")

    def test_even_b0_reports_failure(self):
        report = check_conditions(WeightFunction.polynomial([2]), "main")
        assert not report.holds and not report.clauses["b0-odd"]

    def test_table_weight_scoped_to_window(self):
        b = WeightFunction.from_table([1, 9, 25, 49, 81, 121])
        report = check_conditions(b, "main")
        assert report.scope == "window"
        assert report.holds

    def test_table_window_too_short(self):
        b = WeightFunction.from_table([1])
        with pytest.raises(DomainError, match="at least 2"):
            check_conditions(b, "main")

    def test_conj_clause_independence(self):
        # b0 = 1, b1 = 3: fails only the mod-4 agreement clause
        b = WeightFunction.polynomial([1, 2])
        report = check_conditions(b, "conj")
        assert not report.clauses["b0-b1-agree-mod-4"]

    def test_unknown_theorem(self):
        with pytest.raises(DomainError, match="unknown theorem"):
            check_conditions(WeightFunction.preset("ones"), "frobnicate")

    def test_theorem_ids_are_the_table(self):
        assert THEOREM_IDS == tuple(_THEOREMS) == ("ps", "main", "conj", "qmain")

    @pytest.mark.parametrize("name", [n for n, row in _THEOREMS.items() if not row[0]])
    @pytest.mark.parametrize("suffix", [":", ":3", ":7", ":x", ":-1", ":2:2"])
    def test_an_id_without_argument_refuses_any_suffix(self, name, suffix):
        for theorem in (name + suffix, name.upper() + suffix):
            with pytest.raises(DomainError, match=f"theorem '{name}' takes no argument"):
                check_conditions(WeightFunction.preset("morse"), theorem)

    def test_qmain_argument_errors(self):
        ones = WeightFunction.preset("ones")
        with pytest.raises(DomainError, match=r"bad theorem argument in 'qmain:x'"):
            check_conditions(ones, "qmain:x")
        with pytest.raises(DomainError, match="qmain needs a prime power branching, got 1"):
            check_conditions(ones, "qmain:1")
        assert check_conditions(ones, "QMAIN:09").theorem == "qmain:9"

    def test_polynomial_window_refused_before_any_clause(self, monkeypatch):
        def no_values(*args):
            raise AssertionError("a clause was evaluated")

        monkeypatch.setattr(WeightFunction, "__call__", no_values)
        monkeypatch.setattr(WeightFunction, "as_table", no_values)
        for spec in ("poly:1,2", "preset:morse"):
            with pytest.raises(DomainError, match="--window applies to table weights"):
                check_conditions(parse_weight_spec(spec), "main", window=range(5, 11))

    def test_family_witnesses_stop_at_eight_orders(self):
        # diff^n of a unit impulse is (-1)^n at x = 0: every order 1..11 fails
        report = check_conditions(WeightFunction.from_table([1] + [0] * 11), "ps")
        assert [w.order for w in report.witnesses] == list(range(1, 9))


# clause -> divisor that diff^n b must meet at order n (1: no requirement),
# written out apart from the table in weights.py
_ORACLE_FAMILIES = {
    "ps": {"2^(n+1)-divides-diff-n": lambda n, q: 2 ** (n + 1) if n >= 1 else 1},
    "main": {"4-divides-diff-1": lambda n, q: 4 if n == 1 else 1,
             "2^n-divides-diff-n": lambda n, q: 2**n if n >= 2 else 1},
    "conj": {"2^(n-s2(n))-divides-diff-n":
             lambda n, q: 2 ** (n - bin(n).count("1")) if n >= 2 else 1},
    "qmain": {"q^2-divides-diff-1": lambda n, q: q * q if n == 1 else 1,
              "q^n-divides-diff-n": lambda n, q: q**n if n >= 2 else 1},
}


def _oracle_points(name, q, b):
    b0 = b(0)
    if name == "qmain":
        return [("b0-is-1-mod-q", b0 % q == 1, b0)]
    points = [("b0-odd", b0 % 2 == 1, b0)]
    if name == "conj":
        points.append(("b0-b1-agree-mod-4", (b(1) - b0) % 4 == 0, b(1) - b0))
    return points


def _oracle(name, q, b, start, stop):
    """Clause verdicts and witnesses by brute force over b(start..stop-1)."""
    clauses, witnesses = {}, []
    for clause, holds, value in _oracle_points(name, q, b):
        clauses[clause] = holds
        if not holds:
            witnesses.append((clause, None, 0, value))
    table = ValueTable(start, tuple(b(x) for x in range(start, stop)))
    for clause, divisor in _ORACLE_FAMILIES[name].items():
        failing = []
        for n in range(len(table)):
            diff = finite_difference(table, n)
            bad = [(x, v) for x, v in enumerate(diff.values, start) if v % divisor(n, q)]
            if bad:
                failing.append((clause, n, *bad[0]))
        clauses[clause] = not failing
        witnesses += failing[:8]
    return clauses, witnesses


class TestCheckOracle:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
    def test_polynomials_against_brute_force(self, q):
        # a polynomial's verdict covers every x: brute force on a window
        # five points past the scanned one finds the same first witnesses
        rng = random.Random(q)
        names = ["ps", "main", "conj", "qmain"] if q == 2 else ["qmain"]
        units = [1, q, q * q, 2, 4, 8]
        for _ in range(120):
            coeffs = [rng.choice(units) * rng.randint(-5, 5) for _ in range(rng.randint(0, 5) + 1)]
            coeffs[0] = rng.choice([coeffs[0], 1 + q * rng.randint(-3, 3)])
            b = WeightFunction.polynomial(coeffs)
            for name in names:
                theorem = name if name != "qmain" else f"qmain:{q}"
                report = check_conditions(b, theorem)
                assert report.scope == "all-x" and report.window == (0, b.degree + 2)
                got = [(w.clause, w.order, w.x, w.value) for w in report.witnesses]
                assert (report.clauses, got) == _oracle(name, q, b, 0, b.degree + 7), coeffs
                assert report.holds == all(report.clauses.values())

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
    def test_tables_against_brute_force(self, q):
        rng = random.Random(100 + q)
        names = ["ps", "main", "conj", "qmain"] if q == 2 else ["qmain"]
        for _ in range(120):
            size = rng.randint(2, 14)
            if rng.random() < 0.5:
                values = [rng.randint(-40, 40) for _ in range(size)]
            else:  # values of a polynomial in q x, so that some clauses hold
                cs = [1 + q * rng.randint(-2, 2)] + [rng.randint(-3, 3) for _ in range(3)]
                values = [sum(c * (q * x) ** i for i, c in enumerate(cs)) for x in range(size)]
            b = WeightFunction.from_table(values)
            start = rng.randint(0, size - 2)
            window = rng.choice([None, range(start, rng.randint(start + 2, size + 4))])
            lo, hi = (0, size) if window is None else (window.start, min(window.stop, size))
            for name in names:
                theorem = name if name != "qmain" else f"qmain:{q}"
                report = check_conditions(b, theorem, window=window)
                assert report.scope == "window" and report.window == (lo, hi)
                got = [(w.clause, w.order, w.x, w.value) for w in report.witnesses]
                assert (report.clauses, got) == _oracle(name, q, b, lo, hi), (values, window)
