"""Weight sequences b(0), b(1), ... and their difference-divisibility structure.

A weight is a polynomial, a finite table, or a named preset.  The module
evaluates weights, certifies membership in the class F(q) = {f : q^n divides
the n-th forward difference of f everywhere}, extracts the carry sequence
eps_n = (diff^n f / q^n) mod q, and checks the divisibility hypotheses of the
valuation theorems.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

from .arith import ValueTable, digit_sum, is_prime
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
    """Carry sequence of a weight in F(q), or of an orbit's average weight.

    For b with q^n | diff^n b everywhere, the n-th difference is constant
    modulo q^(n+1); entry n stores (diff^n b / q^n) mod q as the least
    nonnegative residue.
    """

    base: int
    bits: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, i: int) -> int:
        return self.bits[i]

    def __iter__(self):
        return iter(self.bits)


def _difference_scan(window, base, exponent, first_order=0, last_order=None):
    """Walk diff^0, diff^1, ... of a `ValueTable` as one chain of first differences.

    The walk ends after last_order (None: no bound), at the window's last
    order, or at the first row of zeros, whose differences are all zero.
    Yields (n, head, miss) for each order n >= first_order: head is diff^n
    at the window's first point, and miss is (x, value) at the first x
    where base^exponent(n) does not divide diff^n, or None.
    """
    start, row = window.base_point, window.values
    for n in range(len(row)):
        if n:
            row = tuple(map(operator.sub, row[1:], row))
        if n >= first_order:
            divisor = base ** exponent(n)
            miss = next(((start + i, v) for i, v in enumerate(row) if v % divisor), None)
            yield n, row[0], miss
        if n == last_order or not any(row):
            return


def _carry_bits(window: ValueTable, base: int, max_order: int, last_order=None) -> EpsilonSequence:
    """Carries eps_0..eps_max_order of a window that reaches order max_order + 1.

    base^n must divide diff^n at every point of the window for each n up
    to last_order (None: the window's last order).  Once base^(n+1)
    divides diff^(n+1), diff^n is constant mod base^(n+1), so eps_n is
    read at the first point; past a row of zeros every carry is 0.
    """
    bits = []
    for n, head, miss in _difference_scan(window, base, lambda n: n, last_order=last_order):
        if miss is not None:
            raise WeightMembershipError(
                f"weight not in F(base {base}): {base}^{n} does not divide the"
                f" order-{n} difference at x={miss[0]} (value {miss[1]})"
            )
        if n <= max_order:
            bits.append(head // base**n % base)
    return EpsilonSequence(base, tuple(bits + [0] * (max_order + 1 - len(bits))))


def epsilon_of_weight(b: WeightFunction, max_order: int, base: int = 2) -> EpsilonSequence:
    """Carry bits eps_0..eps_max_order of b, certifying membership in F(base).

    A polynomial of degree d is scanned on b(0..t), t = max(d,
    max_order + 1): the window holds all its Newton coefficients
    diff^n b(0), which fix diff^n b everywhere, so the verdict covers every
    x.  A table weight is scanned over all its values at orders up to
    max_order + 1 and is certified on that window only.
    """
    q = base
    if q < 2:
        raise DomainError(f"epsilon base must be at least 2, got {q}")
    if max_order < 0:
        raise DomainError("max order must be nonnegative")
    if b.is_polynomial:
        return _carry_bits(b.as_table(0, max(b.degree, max_order + 1) + 1), q, max_order)
    if len(b.table) < max_order + 2:
        raise DomainError(
            f"table weight needs at least {max_order + 2} values to certify"
            f" order {max_order}, got {len(b.table)}"
        )
    return _carry_bits(b.as_table(0, len(b.table)), q, max_order, max_order + 1)


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


def _parse_theorem(theorem: str) -> tuple[str, int]:
    name, sep, arg = theorem.lower().partition(":")
    try:
        q = int(arg) if sep else None
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
    """Whether q = p^k for a prime p: whether an exact k-th root of q is prime.

    k = 1 comes first and tests q itself, so `is_prime` refuses a q too
    large for it before any other root is taken.
    """
    if q < 2:
        return False
    for k in range(1, q.bit_length()):
        root = _integer_root(q, k)
        if root**k == q and is_prime(root):
            return True
    return False


def _integer_root(n: int, k: int) -> int:
    """Largest r with r^k <= n, for n >= 1, by Newton's method from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


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


def _family_witnesses_table(window: ValueTable, fam: _FamilyClause) -> list[ConditionWitness]:
    """For each order the clause fails, the first x on the window that fails it."""
    out: list[ConditionWitness] = []
    scan = _difference_scan(window, fam.base, fam.exponent, fam.first_order, fam.last_order)
    for n, _, miss in scan:
        if miss is not None:
            out.append(ConditionWitness(fam.clause_id, n, *miss))
            if len(out) >= _WITNESS_CAP:
                break
    return out


def check_conditions(
    b: WeightFunction,
    theorem: str,
    *,
    window: range | None = None,
) -> ConditionReport:
    """Test a theorem's divisibility hypotheses against a weight.

    theorem is one of "ps", "main", "conj", or "qmain:Q".  Both
    kinds are checked pointwise on a table of values.  For a polynomial of
    degree d, b(0..d+1) fix every difference, so the verdict is exact for
    all x; table weights are checked on the window only.
    """
    name, q = _parse_theorem(theorem)
    label = name if name != "qmain" else f"qmain:{q}"
    points, families = _theorem_clauses(name, q, b)

    clauses: dict[str, bool] = {}
    witnesses: list[ConditionWitness] = []
    for pc in points:
        clauses[pc.clause_id] = pc.holds
        if not pc.holds:
            witnesses.append(ConditionWitness(pc.clause_id, None, pc.x, pc.value))

    if b.is_polynomial:
        # diff^n b(0..deg-n) fix the Newton coefficients n..deg, which fix
        # diff^n b everywhere: the first x failing order n is at most deg - n
        scope = "all-x"
        win = window if window is not None else range(0, b.degree + 2)
        tab = b.as_table(0, b.degree + 2)
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
        bad = _family_witnesses_table(tab, fam)
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
