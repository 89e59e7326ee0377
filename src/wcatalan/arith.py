"""Exact integer utilities shared across the package.

Everything here is arbitrary-precision and pure: valuations and digit
sums, finite-difference windows with shift bookkeeping, integer
polynomials, and the exact power-series division that the tests use as the
reference for the residue engine in `series`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "ValueTable",
    "IntPolynomial",
    "valuation",
    "digit_sum",
    "finite_difference",
    "newton_coefficients",
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


@dataclass(frozen=True)
class ValueTable:
    """Window of integer values f(base_point), f(base_point + 1), ...

    Windows are immutable; differences and shifts return new windows that
    shrink by exactly one entry per order applied, so the shift operator
    f(x) -> f(x+1) is plain bookkeeping, not re-evaluation.
    """

    base_point: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.base_point < 0:
            raise DomainError("base point must be nonnegative")
        values = tuple(self.values)
        if not values:
            raise DomainError("value table must be non-empty")
        object.__setattr__(self, "values", values)

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


def newton_coefficients(table: ValueTable) -> list[int]:
    """Iterated differences evaluated at 0, for a window starting at 0.

    These are the coefficients in f(x) = sum_j c[j] * C(x, j), so they
    pin down a polynomial completely once the window covers its degree.
    """
    if table.base_point != 0:
        raise DomainError("newton coefficients need a window based at 0")
    out = []
    vals = list(table.values)
    while vals:
        out.append(vals[0])
        vals = [b - a for a, b in zip(vals, vals[1:])]
    return out


def is_prime(p: int) -> bool:
    """Trial-division primality test; inputs here are desk-scale."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, ascending coefficients, no trailing zeros."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = list(self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

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
