"""Weight sequences b(0), b(1), ... and their difference-divisibility structure.

A weight is a polynomial, a finite table, or a named preset.  The module
evaluates weights, certifies membership in the class F(q) = {f : q^n divides
the n-th forward difference of f everywhere}, extracts the carry sequence
eps_n = (diff^n f / q^n) mod q, and checks the divisibility hypotheses of the
valuation theorems.  Each theorem id is one row of `_THEOREMS`: its arity
and its clauses, which `check_conditions` reads in one loop over the same
difference scan.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

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


# One row per theorem id: whether the id takes a branching argument Q
# (without one q = 2), then its point clauses and its family clauses, each
# in report order.  A point clause (id, read, r, m) asks that read(b) = r
# mod m, m None meaning q, and a failure is witnessed at x = 0 by the value
# read.  A family clause (id, first, last, e) asks that q^e(n) divide
# diff^n b for first <= n <= last (None: every order), e nondecreasing.
_THEOREMS = {
    "ps": (False,
           [("b0-odd", lambda b: b(0), 1, 2)],
           [("2^(n+1)-divides-diff-n", 1, None, lambda n: n + 1)]),
    "main": (False,
             [("b0-odd", lambda b: b(0), 1, 2)],
             [("4-divides-diff-1", 1, 1, lambda n: 2),
              ("2^n-divides-diff-n", 2, None, lambda n: n)]),
    "conj": (False,
             [("b0-odd", lambda b: b(0), 1, 2),
              ("b0-b1-agree-mod-4", lambda b: b(1) - b(0), 0, 4)],
             [("2^(n-s2(n))-divides-diff-n", 2, None, lambda n: n - digit_sum(2, n))]),
    "qmain": (True,
              [("b0-is-1-mod-q", lambda b: b(0), 1, None)],
              [("q^2-divides-diff-1", 1, 1, lambda n: 2),
               ("q^n-divides-diff-n", 2, None, lambda n: n)]),
}

THEOREM_IDS = tuple(_THEOREMS)

_WITNESS_CAP = 8


def _parse_theorem(theorem: str):
    """The id's report label, its base q and its `_THEOREMS` row.

    Ids are case-insensitive; a suffix ":Q" is read only for an id that
    takes one, and any suffix on another id is refused.
    """
    name, sep, arg = theorem.lower().partition(":")
    if name not in _THEOREMS:
        raise DomainError(
            f"unknown theorem '{theorem}'; expected one of {', '.join(THEOREM_IDS)}"
        )
    row = _THEOREMS[name]
    if not row[0]:
        if sep:
            raise DomainError(f"theorem '{name}' takes no argument")
        return name, 2, row
    if not sep:
        raise DomainError(f"{name} needs a branching argument, e.g. {name}:3")
    try:
        q = int(arg)
    except ValueError:
        raise DomainError(f"bad theorem argument in '{theorem}'") from None
    if not _is_prime_power(q):
        raise DomainError(f"{name} needs a prime power branching, got {q}")
    return f"{name}:{q}", q, row


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


def check_conditions(
    b: WeightFunction,
    theorem: str,
    *,
    window: range | None = None,
) -> ConditionReport:
    """Test a theorem's divisibility hypotheses against a weight.

    theorem is one of "ps", "main", "conj", or "qmain:Q" (see `_THEOREMS`).
    Every clause is checked pointwise on one table of values.  For a
    polynomial of degree d, b(0..d+1) fix every difference, so the verdict
    is exact for all x and a window is refused; a table weight is checked
    on the window only (default: the whole table), and a family clause
    names at most `_WITNESS_CAP` failing orders.
    """
    label, q, (_, points, families) = _parse_theorem(theorem)
    if window is not None and b.is_polynomial:
        raise DomainError(
            "--window applies to table weights; a polynomial's verdict covers every x"
        )
    clauses: dict[str, bool] = {}
    witnesses: list[ConditionWitness] = []
    for clause, read, residue, modulus in points:
        value = read(b)
        clauses[clause] = (value - residue) % (modulus or q) == 0
        if not clauses[clause]:
            witnesses.append(ConditionWitness(clause, None, 0, value))

    if b.is_polynomial:
        # diff^n b(0..deg-n) fix the Newton coefficients n..deg, which fix
        # diff^n b everywhere: the first x failing order n is at most deg - n
        scope, win = "all-x", range(0, b.degree + 2)
    else:
        scope = "window"
        win = window if window is not None else range(0, len(b.table))
        win = range(win.start, min(win.stop, len(b.table)))
        if len(win) < 2:
            raise DomainError(f"condition window needs at least 2 points, got {len(win)}")
    tab = b.as_table(win.start, len(win))
    for clause, first, last, exponent in families:
        scan = _difference_scan(tab, q, exponent, first, last)
        misses = ((n, miss) for n, _, miss in scan if miss is not None)
        bad = [ConditionWitness(clause, n, *miss)
               for n, miss in itertools.islice(misses, _WITNESS_CAP)]
        clauses[clause] = not bad
        witnesses.extend(bad)

    return ConditionReport(theorem=label, holds=all(clauses.values()), scope=scope,
                           window=(win.start, win.stop), clauses=clauses,
                           witnesses=tuple(witnesses))
