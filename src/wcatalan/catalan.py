"""Weighted Catalan numbers, exactly and modulo m, for binary and q-ary branching.

The binary values come from `kernel`, which checks the arguments and picks
an engine; the q-ary engine is a memoized tree recursion in which a vertex at
non-right depth x carries weight b(x).
"""

from __future__ import annotations

import math

from . import kernel
from .errors import DomainError
from .weights import WeightFunction

__all__ = [
    "weighted_catalan",
    "weighted_catalan_series",
    "q_weighted_catalan",
    "q_catalan",
    "catalan_number",
    "catalan_series",
]


def weighted_catalan_series(
    b: WeightFunction,
    n_max: int,
    shift: int = 0,
    height_cap: int | None = None,
    modulus: int | None = None,
) -> list[int]:
    """Values for all semilengths 0..n_max: exact, or reduced mod `modulus`.

    Level-k up-steps are weighted b(shift + k); heights at or above n_max
    are never touched, so a table weight of n_max values suffices.  With a
    height cap, only paths staying at or below the cap are counted.
    """
    need = n_max if height_cap is None else min(height_cap, n_max)
    bvals = b.values(shift, need)
    if modulus is None:
        return kernel.dyck_dp_exact(bvals, n_max, height_cap)
    return kernel.dyck_dp_mod(bvals, n_max, modulus, height_cap)


def weighted_catalan(b: WeightFunction, n: int, shift: int = 0, modulus: int | None = None) -> int:
    """Weighted Catalan number of semilength n: exact, or reduced mod `modulus`."""
    return weighted_catalan_series(b, n, shift, modulus=modulus)[n]


def _convolve(a: list[int], b: list[int], size: int) -> list[int]:
    out = [0] * size
    for i, x in enumerate(a[:size]):
        if x == 0:
            continue
        for j, y in enumerate(b[: size - i]):
            out[i + j] += x * y
    return out


def q_weighted_catalan(b: WeightFunction, q: int, n: int) -> int:
    """Total weight of q-ary trees on n vertices.

    Each vertex carries weight b(d) where d counts the non-right edges on
    its root path.  F_x(k), the total for k-vertex trees rooted at
    non-right depth x, satisfies F_x(0) = 1 and

        F_x(k) = b(x) * sum_{a+c=k-1} (F_{x+1}^{*(q-1)})(a) * F_x(c),

    since the q-1 non-right subtrees descend one level and the right
    subtree stays.  The answer is F_0(n).
    """
    if q < 2:
        raise DomainError(f"branching must be at least 2, got {q}")
    if n < 0:
        raise DomainError("vertex count must be nonnegative")
    if n == 0:
        return 1
    bv = b.values(0, n)
    rows: dict[int, list[int]] = {n: [1]}
    for x in range(n - 1, -1, -1):
        limit = n - x
        up = rows[x + 1]
        conv = [1] + [0] * (limit - 1)
        for _ in range(q - 1):
            conv = _convolve(conv, up + [0] * (limit - len(up)), limit)
        row = [0] * (limit + 1)
        row[0] = 1
        for k in range(1, limit + 1):
            acc = 0
            for a in range(k):
                if conv[a]:
                    acc += conv[a] * row[k - 1 - a]
            row[k] = bv[x] * acc
        rows[x] = row
        del rows[x + 1]
    return rows[0][n]


def q_catalan(q: int, n: int) -> int:
    """Closed form C(qn, n) / ((q-1)n + 1); the division is exact."""
    if q < 2:
        raise DomainError(f"branching must be at least 2, got {q}")
    if n < 0:
        raise DomainError("index must be nonnegative")
    quot, rem = divmod(math.comb(q * n, n), (q - 1) * n + 1)
    assert rem == 0
    return quot


def catalan_number(n: int) -> int:
    """Ordinary Catalan number."""
    return q_catalan(2, n)


def catalan_series(n_max: int) -> list[int]:
    """Ordinary Catalan numbers 0..n_max via the exact quotient recurrence."""
    if n_max < 0:
        raise DomainError("index must be nonnegative")
    out = [1]
    for n in range(n_max):
        out.append(out[-1] * 2 * (2 * n + 1) // (n + 2))
    return out
