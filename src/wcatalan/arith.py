"""Exact integer utilities shared across the package.

Everything here is arbitrary-precision and pure: valuations and digit
sums, finite-difference windows with shift bookkeeping, Lucas binomials,
and truncated power-series division over Z/mZ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import series
from .errors import DomainError

__all__ = [
    "ValueTable",
    "IntPolynomial",
    "ModSeries",
    "valuation",
    "digit_sum",
    "finite_difference",
    "newton_coefficients",
    "is_prime",
    "binomial_mod_p",
    "series_divide",
    "series_divide_exact",
]


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


def binomial_mod_p(n: int, m: int, p: int) -> int:
    """C(n, m) mod p for prime p, via base-p digit products.

    Zero as soon as some base-p digit of m exceeds the matching digit of n.
    """
    if not is_prime(p):
        raise DomainError(f"binomial_mod_p needs a prime modulus, got {p}")
    if n < 0 or m < 0:
        raise DomainError("binomial arguments must be nonnegative")
    result = 1
    while n or m:
        n, nd = divmod(n, p)
        m, md = divmod(m, p)
        if md > nd:
            return 0
        result = result * math.comb(nd, md) % p
    return result


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

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not self.coefficients or not other.coefficients:
            return IntPolynomial(())
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def coefficients_mod(self, modulus: int) -> tuple[int, ...]:
        """Coefficients reduced into [0, modulus), trailing zeros dropped."""
        if modulus < 2:
            raise DomainError(f"modulus must be at least 2, got {modulus}")
        out = [c % modulus for c in self.coefficients]
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)


@dataclass(frozen=True)
class ModSeries:
    """Truncated power series over Z/mZ; every coefficient reduced."""

    modulus: int
    coefficients: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 2:
            raise DomainError(f"series modulus must be at least 2, got {self.modulus}")
        object.__setattr__(
            self, "coefficients", tuple(c % self.modulus for c in self.coefficients)
        )

    def __len__(self) -> int:
        return len(self.coefficients)

    def __getitem__(self, i):
        return self.coefficients[i]

    def __iter__(self):
        return iter(self.coefficients)


def _coeff_list(poly) -> list[int]:
    if isinstance(poly, IntPolynomial):
        return list(poly.coefficients)
    return list(poly)


def series_divide(p, q, modulus: int, order: int) -> ModSeries:
    """First `order` coefficients of the power series p/q over Z/mZ.

    Multiplies p by the Newton inverse of q, both through the Kronecker
    products of `series`.
    """
    if modulus < 2:
        raise DomainError(f"series modulus must be at least 2, got {modulus}")
    if order < 0:
        raise DomainError("series order must be nonnegative")
    pc = [c % modulus for c in _coeff_list(p)[:order]]
    qc = _coeff_list(q)
    q0 = qc[0] if qc else 0
    if math.gcd(q0, modulus) != 1:
        raise DomainError(f"non-invertible constant term: gcd({q0}, {modulus}) != 1")
    inverse = series.inverse_mod([c % modulus for c in qc[:order]], modulus, order)
    out = series.mul_mod(pc, inverse, modulus, order)
    return ModSeries(modulus, tuple(out) + (0,) * (order - len(out)))


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
