import pytest

from wcatalan.errors import DomainError, WeightSpecError
from wcatalan.weights import (
    WeightFunction,
    WeightMembershipError,
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

    def test_witness_points_at_violation(self):
        report = check_conditions(WeightFunction.polynomial([1, 2]), "ps")
        w = next(w for w in report.witnesses if w.clause == "2^(n+1)-divides-diff-n")
        assert w.order == 1 and w.value % 4 != 0

    def test_qmain(self):
        assert check_conditions(WeightFunction.polynomial([1, 9]), "qmain", q=3).holds
        assert check_conditions(WeightFunction.polynomial([1, 9]), "qmain:3").holds
        assert not check_conditions(WeightFunction.polynomial([1, 3]), "qmain", q=3).holds
        assert not check_conditions(WeightFunction.polynomial([2, 9]), "qmain", q=3).holds

    def test_qmain_needs_prime_power(self):
        with pytest.raises(DomainError, match="prime power"):
            check_conditions(WeightFunction.preset("ones"), "qmain", q=6)
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
