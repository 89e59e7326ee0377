"""Weighted Catalan numbers C_n^b for n = 0..n_max, exact or mod m.

`dyck_dp_exact` and `dyck_dp_mod` are the one contract: up-steps from
height k are weighted bvals[k], and with a height cap only paths staying
at or below the cap are counted.  `dyck_value_exact` gives C_n^b alone.
All three check their arguments here, once, and raise `DomainError`; the
engines behind them trust their input.

Residues mod m come from one of two pure-Python engines:

1. the S-fraction product tree in `series`, when the height limit, the
   number of terms and the modulus size all sit on its side of the measured
   crossover below;
2. otherwise the Dyck DP in this module, whose O(n h) cost wins for small
   heights and for moduli far above word size.

Exact values come from the Dyck DP, which is also the reference the tree
is tested against: the whole 2n-step DP for a series, and its first n
steps for one value (`dyck_value_exact`).
"""

from __future__ import annotations

from operator import add, mul

from . import series
from .errors import DomainError

# Backend name shown in benchmark records; both engines are pure Python.
BACKEND = "pure"

# Crossover between the Dyck DP and the S-fraction engine, from timing both
# on the Morse weight at moduli of 4 to 1952 bits (Python 3.11, 2-core
# x86-64 VM).  The DP costs about n*h cells, each linear in the modulus
# width; the tree costs a few Karatsuba products of n coefficients, each
# slot twice the modulus width.  For moduli up to 64 bits the tree wins from
# height 16 and 128 terms on (at n = h = 2048, 0.11 s against 0.65 s).
# Wider moduli move the break-even number of terms up with about the square
# of the width: n = 512 wins and n = 256 loses at 122 bits, n = 2048 wins
# and n = 1024 loses at 244 bits, and at 976 bits the tree is 6x slower at
# n = 1024.
SERIES_MIN_HEIGHT = 16
SERIES_MIN_TERMS = 128
_WORD_BITS = 64


def _check_args(bvals, n_max: int, modulus: int | None, height_cap: int | None) -> int:
    """Check the arguments; return the height limit min(height_cap, n_max)."""
    if n_max < 0:
        raise DomainError("semilength must be nonnegative")
    if modulus is not None and modulus < 2:
        raise DomainError(f"modulus must be at least 2, got {modulus}")
    height = max(n_max if height_cap is None else min(height_cap, n_max), 0)
    if len(bvals) < height:
        raise DomainError(
            f"need {height} weight values (heights 0..{height - 1}), got {len(bvals)}"
        )
    return height


def _series_wins(n_max: int, modulus: int, height: int) -> bool:
    width = max(modulus.bit_length(), _WORD_BITS)
    return height >= SERIES_MIN_HEIGHT and n_max * _WORD_BITS**2 >= SERIES_MIN_TERMS * width**2


def dyck_dp_mod(bvals, n_max: int, modulus: int, height_cap: int | None = None) -> list[int]:
    """Weighted Catalan residues mod `modulus` for n = 0..n_max."""
    height = _check_args(bvals, n_max, modulus, height_cap)
    if _series_wins(n_max, modulus, height):
        return series.dyck_series_mod(bvals, n_max, modulus, height)
    return _dyck_dp(bvals, n_max, modulus, height)


def dyck_dp_exact(bvals, n_max: int, height_cap: int | None = None) -> list[int]:
    """Exact weighted Catalan numbers for n = 0..n_max."""
    return _dyck_dp(bvals, n_max, None, _check_args(bvals, n_max, None, height_cap))


def dyck_value_exact(bvals, n: int) -> int:
    """Exact C_n^b alone, from the first n steps of the Dyck DP.

    After n steps, U(j) is the weight of all paths from height 0 to j.  A
    path from j down to 0 reversed is a path from 0 up to j whose up-steps
    were its down-steps, so it weighs its reverse divided by b_0 ... b_(j-1),
    one up-step from each level below j.  Splitting every Dyck path at its
    midpoint gives C_n^b = sum_j U(j) * (U(j) // (b_0 ... b_(j-1))), with
    exact divisions.  A zero weight b_z makes U(j) = 0 for every j > z.
    """
    _check_args(bvals, n, None, None)
    b = list(bvals[:n])
    even, odd = b[0::2], b[1::2]
    # u[i] = U(2i + (s & 1)) after s steps; up-steps from u[i] land on
    # u[i] of the next step at odd s + 1, and on u[i + 1] at even s + 1
    u = [1]
    for s in range(n):
        up = list(map(mul, u, odd if s & 1 else even))
        u = u[:1] * (s & 1) + list(map(add, up, u[1:])) + up[-1:]
    total, below = 0, 1  # below = b_0 ... b_(j-1)
    for j in range(n + 1):
        if (j - n) & 1 == 0:
            total += u[j >> 1] * (u[j >> 1] // below)
        if j == n or not b[j]:
            break
        below *= b[j]
    return total


def _dyck_dp(bvals, n_max: int, modulus: int | None, height: int) -> list[int]:
    """The Dyck-path DP over heights 0..height, exact or mod `modulus`.

    The state after s steps is the vector of total path-prefix weights by
    height; an up-step from height k multiplies by bvals[k], a down-step
    by 1.  Entry n of the output is the total weight of the paths back at
    height 0 after 2n steps.  The exact and residue inner loops are kept
    apart: one shared loop made small-height period jobs 70% slower.
    """
    if modulus is None:
        b = list(bvals[:height])
    else:
        b = [v % modulus for v in bvals[:height]]

    out = [0] * (n_max + 1)
    out[0] = 1
    size = height + 3
    prev = [0] * size
    cur = [0] * size
    prev[0] = 1
    for s in range(1, 2 * n_max + 1):
        hi = min(s, 2 * n_max - s, height)
        lo = s & 1
        if modulus is None:
            for j in range(lo, hi + 1, 2):
                v = prev[j + 1]
                if j:
                    v += prev[j - 1] * b[j - 1]
                cur[j] = v
        else:
            for j in range(lo, hi + 1, 2):
                v = prev[j + 1]
                if j:
                    v += prev[j - 1] * b[j - 1]
                cur[j] = v % modulus
        if hi + 2 < size:
            cur[hi + 2] = 0
        prev, cur = cur, prev
        if lo == 0:
            out[s >> 1] = prev[0]
    return out
