"""Weighted Catalan numbers, exactly and modulo m, for binary and q-ary branching.

The binary values come from `kernel`, which checks the arguments and picks
an engine: a whole series from the Dyck DP or the S-fraction tree, and one
exact value from the half-length DP.  In the q-ary engine a vertex at
non-right depth x carries weight b(x); one loop builds the generating
functions of subtrees bottom-up.  When the modulus has at most 128 bits
it multiplies and inverts residues through `series`; otherwise it runs
exactly, with `_convolve` for the products and `arith.series_divide_exact`
for the inverse, and reduces only the final value.  A weight that is constant on
the levels an n-vertex tree reaches skips the loop: the value is b(0)^n
times the q-ary Catalan number.
"""

from __future__ import annotations

import math

from . import arith, kernel, series
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
    *,
    height_cap: int | None = None,
    modulus: int | None = None,
) -> list[int]:
    """Values for all semilengths 0..n_max: exact, or reduced mod `modulus`.

    Level-k up-steps are weighted b(k); heights at or above n_max
    are never touched, so a table weight of n_max values suffices.  With a
    height cap, only paths staying at or below the cap are counted.
    """
    need = n_max if height_cap is None else min(height_cap, n_max)
    bvals = b.values(0, need)
    if modulus is None:
        return kernel.dyck_dp_exact(bvals, n_max, height_cap)
    return kernel.dyck_dp_mod(bvals, n_max, modulus, height_cap)


def weighted_catalan(b: WeightFunction, n: int, *, modulus: int | None = None) -> int:
    """Weighted Catalan number of semilength n: exact, or reduced mod `modulus`."""
    bvals = b.values(0, n)
    if modulus is None:
        return kernel.dyck_value_exact(bvals, n)
    # The kernel finds this cap itself; passing it makes the call's arguments
    # show the heights it runs.
    cap = kernel.vanishing_height(bvals, modulus) if modulus >= 2 else None
    return kernel.dyck_dp_mod(bvals, n, modulus, cap)[n]


def _convolve(a: list[int], b: list[int], size: int) -> list[int]:
    out = [0] * size
    for i, x in enumerate(a[:size]):
        if x == 0:
            continue
        for j, y in enumerate(b[: size - i]):
            out[i + j] += x * y
    return out


# The widest modulus for the q-ary residue engine.  Its cost grows with
# about the square of the modulus width, and the exact loop's with the size
# of the values.  A constant weight takes the closed form and never reaches
# the loop, so a nearly constant one, b = 1 but for b(n - 1) = 2, has the
# smallest values that do, and sets the cut.  `_q_weighted` exact against
# residues at 64 / 128 / 192 / 256 bits, in process (Python 3.11, 2-core
# x86-64 VM, best of 2): at q = 3, n = 240, 1.30-1.46 s against 0.37-0.42 /
# 0.86-1.15 / 1.47-1.81 / 2.14-2.36 s; at q = 5, n = 200, 1.83 s against
# 0.44 / 0.94 / 1.66 / 2.53 s; at q = 2, n = 240 (which the binary DP
# serves in the CLI), 0.53 s against 0.32 / 0.67 / 1.03 / 1.51 s.  Heavier
# weights move the cut out: 1 + x and 3 - 5x + 2x^2 at q = 3, n = 240 take
# 3.5 and 7.8 s exactly, against 0.8 s at 128 bits and 1.9-2.5 s at 256.
_Q_RESIDUE_BITS = 128


def q_weighted_catalan(b: WeightFunction, q: int, n: int, modulus: int | None = None) -> int:
    """Total weight of q-ary trees on n vertices: exact, or reduced mod `modulus`.

    Each vertex carries weight b(d) where d counts the non-right edges on
    its root path.  F_x(k), the total for k-vertex trees rooted at
    non-right depth x, satisfies F_x(0) = 1 and

        F_x(k) = b(x) * sum_{a+c=k-1} (F_{x+1}^{*(q-1)})(a) * F_x(c),

    since the q-1 non-right subtrees descend one level and the right
    subtree stays.  The answer is F_0(n).

    A weight that is constant on 0..n-1 takes the closed form
    b(0)^n C(qn, n) / ((q-1)n + 1).  Otherwise a modulus of at most
    `_Q_RESIDUE_BITS` bits runs the subtree-series loop `_q_weighted` on
    residues; a wider one, or none, runs it exactly and reduces the value.
    """
    if q < 2:
        raise DomainError(f"branching must be at least 2, got {q}")
    if n < 0:
        raise DomainError("vertex count must be nonnegative")
    if modulus is not None and modulus < 2:
        raise DomainError(f"modulus must be at least 2, got {modulus}")
    if n == 0:
        return 1
    bv = b.values(0, n)
    if bv.count(bv[0]) == n:
        # every tree has n vertices, so a constant weight c scales each by c^n
        value = bv[0] ** n * q_catalan(q, n)
    elif modulus is not None and modulus.bit_length() <= _Q_RESIDUE_BITS:
        return _q_weighted(bv, q, n, modulus)
    else:
        value = _q_weighted(bv, q, n, None)
    return value if modulus is None else value % modulus


def _q_weighted(bv: list[int], q: int, n: int, modulus: int | None) -> int:
    """F_0(n) from the series F_x = 1 / (1 - b(x) t F_(x+1)^(q-1)): exact, or mod `modulus`.

    F_x is needed up to t^(n - x), and F_n = 1.  Exact values take the
    products by `_convolve` and the inverse by `arith.series_divide_exact`;
    residues take both from `series`.
    """
    f = [1]
    for x in range(n - 1, -1, -1):
        # F_x needs n - x + 1 terms, so the factor that t multiplies needs one fewer
        order = n - x
        base = power = f[:order]
        if modulus is None:
            for _ in range(q - 2):
                power = _convolve(power, base, order)
            f = arith.series_divide_exact((1,), [1] + [-bv[x] * c for c in power], order + 1)
        else:
            for _ in range(q - 2):
                power = series.mul_mod(power, base, modulus, order)
            scale = -bv[x] % modulus
            f = series.inverse_mod([1] + [scale * c % modulus for c in power], modulus, order + 1)
    return f[n]


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
