"""Exact integer utilities shared across the package.

Everything here is arbitrary-precision and pure: valuations and digit
sums, finite-difference windows with shift bookkeeping, a primality test,
integer polynomials, and the exact power-series division that is the
exact q-ary inverse in `catalan` and that the tests use as the reference
for the residue engine in `series`.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DomainError, ResourceLimitError

__all__ = [
    "ValueTable",
    "IntPolynomial",
    "valuation",
    "digit_sum",
    "finite_difference",
    "is_prime",
    "series_divide_exact",
]


# Valuations up to this many are found one division at a time, which is
# cheapest for the small valuations most calls see; deeper ones switch to
# the squaring ladder.
_PLAIN_STEPS = 4


def valuation(q: int, n: int) -> int:
    """Largest m such that q**m divides n.  The sign of n is ignored."""
    if q < 2:
        raise DomainError(f"valuation base must be at least 2, got {q}")
    if n == 0:
        raise DomainError("valuation undefined at zero")
    n = abs(n)
    if q == 2:
        return (n & -n).bit_length() - 1
    m = 0
    while n % q == 0:
        n //= q
        m += 1
        if m == _PLAIN_STEPS:
            return m + _ladder_valuation(q, n)
    return m


def _ladder_valuation(q: int, n: int) -> int:
    """Largest m with q^m | n > 0, in O(log m) divisions.

    Climb q, q^2, q^4, ... while they divide n, then divide by each rung on
    the way down when it still divides: the rungs taken are the binary
    digits of m.
    """
    rungs = [q]
    while n % (rungs[-1] * rungs[-1]) == 0:
        rungs.append(rungs[-1] * rungs[-1])
    m = 0
    for k in range(len(rungs) - 1, -1, -1):
        quotient, rest = divmod(n, rungs[k])
        if not rest:
            n, m = quotient, m + (1 << k)
    return m


def digit_sum(q: int, n: int) -> int:
    """Sum of the base-q digits of n >= 0."""
    if q < 2:
        raise DomainError(f"digit base must be at least 2, got {q}")
    if n < 0:
        raise DomainError(f"digit sum needs a nonnegative argument, got {n}")
    if q == 2:
        return n.bit_count()
    total = 0
    while n:
        n, r = divmod(n, q)
        total += r
    return total


class ValueTable(namedtuple("ValueTable", "base_point values")):
    """Window of integer values f(base_point), f(base_point + 1), ...

    Windows are immutable; differences and shifts return new windows that
    shrink by exactly one entry per order applied, so the shift operator
    f(x) -> f(x+1) is plain bookkeeping, not re-evaluation.
    """

    __slots__ = ()

    def __new__(cls, base_point: int, values):
        if base_point < 0:
            raise DomainError("base point must be nonnegative")
        values = tuple(values)
        if not values:
            raise DomainError("value table must be non-empty")
        return super().__new__(cls, base_point, values)

    def __len__(self) -> int:
        return len(self.values)

    def shifted(self, k: int = 1) -> "ValueTable":
        """Window of f(x + k) over the same base point."""
        if k < 0 or k >= len(self.values):
            raise DomainError(
                f"cannot shift a window of {len(self.values)} entries by {k}"
            )
        return ValueTable(self.base_point, self.values[k:])


def finite_difference(table: ValueTable, order: int) -> ValueTable:
    """Forward-difference window of the given order; order 0 is the identity."""
    if order < 0:
        raise DomainError("difference order must be nonnegative")
    if order >= len(table):
        raise DomainError(
            f"difference of order {order} needs a window of at least"
            f" {order + 1} values, got {len(table)}"
        )
    vals = list(table.values)
    for _ in range(order):
        vals = [b - a for a, b in zip(vals, vals[1:])]
    return ValueTable(table.base_point, tuple(vals))


def is_prime(p: int) -> bool:
    """Miller-Rabin primality test with the 13 prime bases 2..41.

    The verdict is exact below 3317044064679887385961981, the least strong
    pseudoprime to all 13 bases (Sorenson and Webster, "Strong pseudoprimes
    to twelve prime bases", Math. Comp. 2017).  Larger inputs are refused
    with a resource-limit error rather than answered by a guess.
    """
    if p >= 3317044064679887385961981:
        raise ResourceLimitError(
            f"primality is decided below 3317044064679887385961981 only, got {p}"
        )
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if p < 2:
        return False
    for a in bases:
        if p % a == 0:
            return p == a
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^s d with d odd
    d = (p - 1) >> s
    for a in bases:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class IntPolynomial(namedtuple("IntPolynomial", "coefficients")):
    """Integer polynomial, ascending coefficients, no trailing zeros."""

    __slots__ = ()

    def __new__(cls, coefficients):
        coeffs = list(coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return super().__new__(cls, tuple(coeffs))

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial reports -1."""
        return len(self.coefficients) - 1

    @property
    def constant(self) -> int:
        return self.coefficients[0] if self.coefficients else 0

    @property
    def leading(self) -> int:
        return self.coefficients[-1] if self.coefficients else 0

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


def _coeff_list(poly) -> list[int]:
    if isinstance(poly, IntPolynomial):
        return list(poly.coefficients)
    return list(poly)


def series_divide_exact(p, q, order: int) -> list[int]:
    """Integer power series of p/q; q must have constant term +1 or -1."""
    if order < 0:
        raise DomainError("series order must be nonnegative")
    pc = _coeff_list(p)
    qc = _coeff_list(q)
    q0 = qc[0] if qc else 0
    if q0 not in (1, -1):
        raise DomainError("exact series division needs constant term +-1")
    out: list[int] = []
    for n in range(order):
        acc = pc[n] if n < len(pc) else 0
        for j in range(1, min(n, len(qc) - 1) + 1):
            acc -= qc[j] * out[n - j]
        out.append(acc * q0)
    return out
