"""Weight sequences b(0), b(1), ... and their difference-divisibility structure.

A weight is a polynomial, a finite table, or a named preset.  The module
evaluates weights, certifies membership in the class F(q) = {f : q^n divides
the n-th forward difference of f everywhere}, extracts the carry sequence
eps_n = (diff^n f / q^n) mod q, and checks the divisibility hypotheses of the
valuation theorems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .arith import ValueTable, digit_sum, finite_difference, is_prime, newton_coefficients
from .errors import DomainError, WeightSpecError

__all__ = [
    "WeightFunction",
    "EpsilonSequence",
    "ConditionReport",
    "ConditionWitness",
    "WeightMembershipError",
    "parse_weight_spec",
    "epsilon_of_weight",
    "check_conditions",
    "WEIGHT_SPEC_GRAMMAR",
    "THEOREM_IDS",
]

WEIGHT_SPEC_GRAMMAR = "preset:NAME | poly:c0,c1,... | table:v0,v1,..."

THEOREM_IDS = ("ps", "main", "conj", "qmain")

_PRESET_POLYS = {
    "ones": (1,),             # b(k) = 1
    "matchings": (1, 1),      # b(k) = k + 1
    "alt-even": (1, 2, 1),    # b(k) = (k + 1)^2
    "alt-odd": (2, 3, 1),     # b(k) = (k + 1)(k + 2)
    "morse": (1, 4, 4),       # b(k) = (2k + 1)^2
}


class WeightMembershipError(DomainError):
    """A divisibility certificate q^n | diff^n b failed; the weight leaves F."""


def _morse_power_coeffs(k: int) -> tuple[int, ...]:
    """Coefficients of (1 + 2x)^(2k), lowest degree first."""
    return tuple(math.comb(2 * k, j) * 2**j for j in range(2 * k + 1))


@dataclass(frozen=True)
class WeightFunction:
    """Integer weight sequence given by a polynomial or a finite value table."""

    kind: str  # "polynomial" | "table" | "preset"
    coefficients: tuple[int, ...] | None = None
    table: tuple[int, ...] | None = None
    label: str = ""

    @classmethod
    def polynomial(cls, coefficients, label: str = "") -> "WeightFunction":
        coeffs = [int(c) for c in coefficients]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            coeffs = [0]
        return cls("polynomial", coefficients=tuple(coeffs), label=label)

    @classmethod
    def from_table(cls, values, label: str = "") -> "WeightFunction":
        vals = tuple(int(v) for v in values)
        if not vals:
            raise WeightSpecError("table weight needs at least one value")
        return cls("table", table=vals, label=label)

    @classmethod
    def preset(cls, name: str) -> "WeightFunction":
        if name in _PRESET_POLYS:
            return cls(
                "preset", coefficients=_PRESET_POLYS[name], label=f"preset:{name}"
            )
        if name.startswith("morse-power:"):
            try:
                k = int(name.split(":", 1)[1])
            except ValueError:
                raise WeightSpecError(f"bad morse-power preset '{name}'") from None
            if k < 1:
                raise WeightSpecError("morse-power exponent must be at least 1")
            return cls(
                "preset", coefficients=_morse_power_coeffs(k), label=f"preset:{name}"
            )
        raise WeightSpecError(
            f"unknown preset '{name}'; known presets: "
            f"{', '.join(sorted(_PRESET_POLYS))}, morse-power:k"
        )

    @property
    def is_polynomial(self) -> bool:
        return self.coefficients is not None

    @property
    def degree(self) -> int | None:
        """Polynomial degree (constants report 0); None for table weights."""
        if self.coefficients is None:
            return None
        return max(len(self.coefficients) - 1, 0)

    def eval(self, x: int) -> int:
        if x < 0:
            raise DomainError(f"weights are defined on nonnegative arguments, got {x}")
        if self.coefficients is not None:
            acc = 0
            for c in reversed(self.coefficients):
                acc = acc * x + c
            return acc
        assert self.table is not None
        if x >= len(self.table):
            raise DomainError(
                f"table weight has {len(self.table)} entries (x < {len(self.table)});"
                f" extend the table to evaluate b({x})"
            )
        return self.table[x]

    __call__ = eval

    def values(self, start: int, count: int) -> list[int]:
        return [self.eval(x) for x in range(start, start + count)]

    def as_table(self, start: int, count: int) -> ValueTable:
        return ValueTable(start, tuple(self.values(start, count)))

    def spec(self) -> str:
        """Canonical spec string; parse_weight_spec round-trips it."""
        if self.kind == "preset":
            return self.label
        if self.kind == "polynomial":
            return "poly:" + ",".join(str(c) for c in self.coefficients)
        assert self.table is not None
        return "table:" + ",".join(str(v) for v in self.table)

    def describe(self) -> str:
        return self.label or self.spec()


def parse_weight_spec(text: str) -> WeightFunction:
    """Parse the flat weight grammar: preset:NAME, poly:c0,c1,..., table:v0,v1,..."""
    head, sep, rest = text.partition(":")
    if not sep:
        raise WeightSpecError(
            f"weight spec '{text}' has no kind prefix; expected {WEIGHT_SPEC_GRAMMAR}"
        )
    if head == "preset":
        return WeightFunction.preset(rest)
    if head in ("poly", "table"):
        try:
            nums = [int(tok) for tok in rest.split(",")] if rest else []
        except ValueError:
            raise WeightSpecError(
                f"weight spec '{text}' has non-integer entries"
            ) from None
        if not nums:
            raise WeightSpecError(f"weight spec '{text}' lists no values")
        if head == "poly":
            return WeightFunction.polynomial(nums, label=text)
        return WeightFunction.from_table(nums, label=text)
    raise WeightSpecError(
        f"unknown weight kind '{head}'; expected {WEIGHT_SPEC_GRAMMAR}"
    )


@dataclass(frozen=True)
class EpsilonSequence:
    """Carry sequence of a weight in F(q).

    For b with q^n | diff^n b everywhere, the n-th difference is constant
    modulo q^(n+1); entry n stores (diff^n b / q^n) mod q as the least
    nonnegative residue.
    """

    base: int
    bits: tuple[int, ...]
    verified_order: int

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, i: int) -> int:
        return self.bits[i]

    def __iter__(self):
        return iter(self.bits)


def weight_newton_coefficients(b: WeightFunction) -> list[int]:
    """Difference coefficients of a polynomial weight at 0, one per order."""
    if not b.is_polynomial:
        raise DomainError("newton coefficients are exact for polynomial weights only")
    return newton_coefficients(b.as_table(0, b.degree + 1))


def epsilon_of_weight(b: WeightFunction, max_order: int, base: int = 2) -> EpsilonSequence:
    """Carry bits eps_0..eps_max_order of b, certifying membership in F(base).

    Polynomial weights are certified for every x at once: base^m must divide
    the order-m difference coefficient at 0 for each m up to the degree
    (differences beyond the degree vanish identically).  Table weights are
    certified on the available window only.
    """
    q = base
    if q < 2:
        raise DomainError(f"epsilon base must be at least 2, got {q}")
    if max_order < 0:
        raise DomainError("max order must be nonnegative")
    if b.is_polynomial:
        newton = weight_newton_coefficients(b)
        for m, c in enumerate(newton):
            if c % q**m:
                raise WeightMembershipError(
                    f"weight not in F(base {q}): {q}^{m} does not divide the"
                    f" order-{m} difference at x=0 (value {c})"
                )
        bits = []
        for n in range(max_order + 1):
            c = newton[n] if n < len(newton) else 0
            bits.append((c // q**n) % q)
        return EpsilonSequence(q, tuple(bits), max_order)

    window = b.as_table(0, len(b.table))
    if len(window) < max_order + 2:
        raise DomainError(
            f"table weight needs at least {max_order + 2} values to certify"
            f" order {max_order}, got {len(window)}"
        )
    bits = []
    for n in range(max_order + 1):
        diff = finite_difference(window, n)
        qn = q**n
        residues = set()
        for i, v in enumerate(diff.values):
            if v % qn:
                raise WeightMembershipError(
                    f"weight not in F(base {q}): {q}^{n} does not divide the"
                    f" order-{n} difference at x={diff.base_point + i} (value {v})"
                )
            residues.add((v // qn) % q)
        if len(residues) != 1:
            raise WeightMembershipError(
                f"order-{n} difference is not constant modulo {q}^{n + 1} on the"
                f" window; weight leaves F(base {q})"
            )
        bits.append(residues.pop())
    return EpsilonSequence(q, tuple(bits), max_order)


@dataclass(frozen=True)
class ConditionWitness:
    clause: str
    order: int | None
    x: int
    value: int


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of testing a theorem's hypotheses against a weight.

    scope is "all-x" when the verdict is exact over all of Z>=0 (polynomial
    weights, via difference coefficients) and "window" when it only covers
    the checked range (table weights).
    """

    theorem: str
    holds: bool
    scope: str
    window: tuple[int, int]
    clauses: dict[str, bool]
    witnesses: tuple[ConditionWitness, ...]

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "holds": self.holds,
            "scope": self.scope,
            "window": list(self.window),
            "clauses": dict(self.clauses),
            "witnesses": [
                {"clause": w.clause, "order": w.order, "x": w.x, "value": w.value}
                for w in self.witnesses
            ],
        }


@dataclass(frozen=True)
class _PointClause:
    clause_id: str
    holds: bool
    x: int
    value: int


@dataclass(frozen=True)
class _FamilyClause:
    """Requires base^exponent(n) | diff^n b(x) for all x, for n in the order range."""

    clause_id: str
    first_order: int
    last_order: int | None  # None = unbounded
    base: int
    exponent: Callable[[int], int]  # nondecreasing over the order range


_WITNESS_CAP = 8
_SCAN_CAP = 4096


def _parse_theorem(theorem: str, q: int | None) -> tuple[str, int]:
    name, sep, arg = theorem.lower().partition(":")
    if sep:
        try:
            q = int(arg)
        except ValueError:
            raise DomainError(f"bad theorem argument in '{theorem}'") from None
    if name not in THEOREM_IDS:
        raise DomainError(
            f"unknown theorem '{theorem}'; expected one of {', '.join(THEOREM_IDS)}"
        )
    if name == "qmain":
        if q is None:
            raise DomainError("qmain needs a branching argument, e.g. qmain:3")
        if not _is_prime_power(q):
            raise DomainError(f"qmain needs a prime power branching, got {q}")
    else:
        q = 2
    return name, q


def _is_prime_power(q: int) -> bool:
    if q < 2:
        return False
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


def _theorem_clauses(name: str, q: int, b: WeightFunction):
    b0 = b.eval(0)
    points: list[_PointClause] = []
    families: list[_FamilyClause] = []
    if name == "ps":
        points.append(_PointClause("b0-odd", b0 % 2 == 1, 0, b0))
        families.append(_FamilyClause("2^(n+1)-divides-diff-n", 1, None, 2, lambda n: n + 1))
    elif name == "main":
        points.append(_PointClause("b0-odd", b0 % 2 == 1, 0, b0))
        families.append(_FamilyClause("4-divides-diff-1", 1, 1, 2, lambda n: 2))
        families.append(_FamilyClause("2^n-divides-diff-n", 2, None, 2, lambda n: n))
    elif name == "conj":
        b1 = b.eval(1)
        points.append(_PointClause("b0-odd", b0 % 2 == 1, 0, b0))
        families.append(
            _FamilyClause(
                "2^(n-s2(n))-divides-diff-n", 2, None, 2, lambda n: n - digit_sum(2, n)
            )
        )
        points.append(_PointClause("b0-b1-agree-mod-4", (b1 - b0) % 4 == 0, 0, b1 - b0))
    else:  # qmain
        points.append(_PointClause("b0-is-1-mod-q", (b0 - 1) % q == 0, 0, b0))
        families.append(_FamilyClause("q^2-divides-diff-1", 1, 1, q, lambda n: 2))
        families.append(_FamilyClause("q^n-divides-diff-n", 2, None, q, lambda n: n))
    return points, families


def _scan_violation_x(b: WeightFunction, order: int, divisor: int) -> tuple[int, int]:
    """First x with divisor not dividing diff^order b(x); exists by assumption."""
    table = b.as_table(0, _SCAN_CAP + order + 1)
    diff = finite_difference(table, order)
    for i, v in enumerate(diff.values):
        if v % divisor:
            return i, v
    raise AssertionError("violation promised by difference coefficients not found")


def _family_witnesses_poly(
    b: WeightFunction, newton: list[int], fam: _FamilyClause
) -> list[ConditionWitness]:
    deg = len(newton) - 1
    out: list[ConditionWitness] = []
    last = deg if fam.last_order is None else min(fam.last_order, deg)
    for n in range(fam.first_order, last + 1):
        divisor = fam.base ** fam.exponent(n)
        bad_m = next((m for m in range(n, deg + 1) if newton[m] % divisor), None)
        if bad_m is None:
            continue
        if bad_m == n:
            out.append(ConditionWitness(fam.clause_id, n, 0, newton[n]))
        else:
            x, v = _scan_violation_x(b, n, divisor)
            out.append(ConditionWitness(fam.clause_id, n, x, v))
        if len(out) >= _WITNESS_CAP:
            break
    return out


def _family_witnesses_table(
    b: WeightFunction, window: ValueTable, fam: _FamilyClause
) -> list[ConditionWitness]:
    max_order = len(window) - 1
    out: list[ConditionWitness] = []
    last = max_order if fam.last_order is None else min(fam.last_order, max_order)
    for n in range(fam.first_order, last + 1):
        divisor = fam.base ** fam.exponent(n)
        diff = finite_difference(window, n)
        for i, v in enumerate(diff.values):
            if v % divisor:
                out.append(ConditionWitness(fam.clause_id, n, diff.base_point + i, v))
                if len(out) >= _WITNESS_CAP:
                    return out
                break
    return out


def check_conditions(
    b: WeightFunction,
    theorem: str,
    *,
    q: int | None = None,
    window: range | None = None,
) -> ConditionReport:
    """Test a theorem's divisibility hypotheses against a weight.

    theorem is one of "ps", "main", "conj", or "qmain" / "qmain:Q".  For
    polynomial weights every for-all-x clause reduces to finitely many
    divisibility checks on the difference coefficients at 0, so the verdict
    is exact; table weights are checked pointwise on the window only.
    """
    name, q = _parse_theorem(theorem, q)
    label = name if name != "qmain" else f"qmain:{q}"
    points, families = _theorem_clauses(name, q, b)

    clauses: dict[str, bool] = {}
    witnesses: list[ConditionWitness] = []
    for pc in points:
        clauses[pc.clause_id] = pc.holds
        if not pc.holds:
            witnesses.append(ConditionWitness(pc.clause_id, None, pc.x, pc.value))

    if b.is_polynomial:
        scope = "all-x"
        win = window if window is not None else range(0, b.degree + 2)
        newton = weight_newton_coefficients(b)
        for fam in families:
            bad = _family_witnesses_poly(b, newton, fam)
            clauses[fam.clause_id] = not bad
            witnesses.extend(bad)
    else:
        scope = "window"
        assert b.table is not None
        win = window if window is not None else range(0, len(b.table))
        if win.stop > len(b.table):
            win = range(win.start, len(b.table))
        if len(win) < 2:
            raise DomainError(
                f"condition window needs at least 2 points, got {len(win)}"
            )
        tab = b.as_table(win.start, len(win))
        for fam in families:
            bad = _family_witnesses_table(b, tab, fam)
            clauses[fam.clause_id] = not bad
            witnesses.extend(bad)

    holds = all(clauses.values())
    return ConditionReport(
        theorem=label,
        holds=holds,
        scope=scope,
        window=(win.start, win.stop),
        clauses=clauses,
        witnesses=tuple(witnesses),
    )
