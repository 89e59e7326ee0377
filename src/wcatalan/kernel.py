"""Weighted Catalan numbers C_n^b for n = 0..n_max, exact or mod m.

`dyck_dp_exact` and `dyck_dp_mod` are the one contract: up-steps from
height k are weighted bvals[k], and with a height cap only paths staying
at or below the cap are counted.  `dyck_value_exact` gives C_n^b alone.
All three check their arguments here, once, and raise `DomainError`; the
engines behind them trust their input.

Residues mod m come from one of two pure-Python engines:

1. the S-fraction product tree in `series`, from 128 terms on at every
   height for a modulus below 2^30, and for wider moduli when the height
   limit, the number of terms and the modulus size all sit on its side of
   the measured crossover below; mod a power of two its polynomials stay
   packed, one int each, reduced by a mask (`series._dyck_series_pow2`),
   and mod any other m they are lists reduced by `% m`;
2. otherwise the Dyck DP in this module, whose O(n h) cost wins for few
   terms, for small heights under a modulus of 31 bits or more, and for
   moduli far above word size.

The same crossover (`series_wins`) picks the engine for the truncated
continued fraction P/Q mod m in `periodicity`: the tree's numerator and
denominator, or the one-pass gap-chain sums there.

Exact values come from the Dyck DP, which is also the reference the tree
is tested against: the whole 2n-step DP for a series, and its first n
steps for one value (`dyck_value_exact`).

Both DPs run on normalized path weights.  Let U_s(j) be the total weight
of the s-step paths from height 0 to height j, and B_j = b_0 ... b_(j-1).
Every such path takes an up-step off each level below j, so U_s(j) =
B_j V_s(j), where V_s(j) weighs each up-step 1 and each down-step from
k + 1 to k by b_k: moving a level's weight from its up-step to the
down-step back onto it leaves every closed path's weight unchanged
(Flajolet 1980).  V follows V_(s+1)(j) = V_s(j - 1) + b_j V_s(j + 1) with
no division, and its entries are smaller than U's by the factor B_j, so
the big-int work per cell shrinks while the cells stay the same.

Every engine stops at the vanishing height: the least k with B_(k+1) = 0,
that is, the first zero weight, or mod m the least k with m | B_(k+1).  A
path above it took an up-step off every level 0..k, so it weighs 0 (mod m).
The cells of U above k are 0 (mod m), but those of V need not be, so on V
the cap is what keeps the residue DP from doing work that vanishes, as on
the p^K ladders of the valuation profiles.

On those ladders the weights are far narrower than the modulus, and a `%`
costs more than a cell's add and small multiply.  So the residue DP
reduces only every r-th step, r = bits(m) // (bits(w) + 1) for the
largest weight w in absolute value, each weight taken as its least
absolute residue mod m, and its cells stay below m^2 in between; a narrow
modulus or weights as wide as it get r = 1, a `%` every step.
"""

from __future__ import annotations

from operator import add, mul

from . import series
from .errors import DomainError

# Backend name shown in benchmark records; both engines are pure Python.
BACKEND = "pure"

# Crossover between the Dyck DP and the S-fraction engine, from timing both
# on random and on Morse weights at moduli of 4 to 863 bits (Python 3.11,
# 2-core x86-64 VM).  The DP costs about n*h cells, each linear in the
# modulus width; the tree costs a few Karatsuba products of n coefficients,
# each slot twice the modulus width, and one `%` per slot.  A modulus below
# 2^30 is one CPython digit, whose `%` takes a fast path, and there the tree
# wins at every height from 128 terms on.  For h = 1-8 at 4-30 bits (random
# and Morse weights, best of 3-5, two runs of one sweep), DP/tree time is
# 1.1-2.2 at n = 128, 1.8-6.2 at n = 1024 and 2.8-7.3 at n = 4096 for an
# odd modulus, on lists, and 1.6-10, 2.4-26 and 2.9-30 for a power of two,
# on packed words.  At 31-33 bits it is 0.66-1.13 for h = 1-2 at
# n = 128, and at 61-64 bits the tree loses for h <= 4 (0.61-0.88 at
# n = 128).  So wider moduli keep a height floor: up to 64 bits the tree
# wins from height 16 and 128 terms on (h = 15: 1.6-2.9 at n = 128-1024).
# Beyond that the break-even number of terms grows with about the square of
# the width: with the Morse weight at h = 16, 0.88 at 122 bits and n = 128,
# 1.3 at n = 400; 0.68 at 216 bits and n = 1024, below the 1458 terms the
# rule asks for there.
SERIES_MIN_HEIGHT = 16
SERIES_MIN_TERMS = 128
SERIES_NARROW_BITS = 30
_WORD_BITS = 64


def _check_args(bvals, n_max: int, modulus: int | None, height_cap: int | None) -> int:
    """Check the arguments; return the height limit, min(height_cap, n_max)
    or the vanishing height below it."""
    if n_max < 0:
        raise DomainError("semilength must be nonnegative")
    if modulus is not None and modulus < 2:
        raise DomainError(f"modulus must be at least 2, got {modulus}")
    height = max(n_max if height_cap is None else min(height_cap, n_max), 0)
    if len(bvals) < height:
        raise DomainError(
            f"need {height} weight values (heights 0..{height - 1}), got {len(bvals)}"
        )
    k = vanishing_height(bvals[:height], modulus)
    return height if k is None else k


def vanishing_height(bvals, modulus: int | None = None) -> int | None:
    """Least k with b_0 ... b_k = 0, or = 0 mod `modulus` (at least 2); else None.

    A path above height k took an up-step off every level 0..k, so its
    weight vanishes (mod m), and the engines stop at height k.  Exactly,
    k is the first zero weight.  With a modulus, `bvals` may be any
    iterable, read no further than k.
    """
    if modulus is None:
        return bvals.index(0) if 0 in bvals else None
    prod = 1
    for k, v in enumerate(bvals):
        prod = prod * v % modulus
        if not prod:
            return k
    return None


def series_wins(n_max: int, modulus: int, height: int) -> bool:
    """Whether the S-fraction tree is picked over the Dyck DP for residues
    mod `modulus` at n = 0..n_max under height limit `height`.

    `periodicity.continued_fraction_pq` asks the same rule, at
    n_max = height = depth + 1, to pick its engine for P/Q mod m.
    """
    bits = modulus.bit_length()
    if bits <= SERIES_NARROW_BITS:
        return n_max >= SERIES_MIN_TERMS
    width = max(bits, _WORD_BITS)
    return height >= SERIES_MIN_HEIGHT and n_max * _WORD_BITS**2 >= SERIES_MIN_TERMS * width**2


def dyck_dp_mod(bvals, n_max: int, modulus: int, height_cap: int | None = None) -> list[int]:
    """Weighted Catalan residues mod `modulus` for n = 0..n_max."""
    height = _check_args(bvals, n_max, modulus, height_cap)
    if series_wins(n_max, modulus, height):
        return series.dyck_series_mod(bvals, n_max, modulus, height)
    return _dyck_dp(bvals, n_max, modulus, height)


def dyck_dp_exact(bvals, n_max: int, height_cap: int | None = None) -> list[int]:
    """Exact weighted Catalan numbers for n = 0..n_max."""
    return _dyck_dp(bvals, n_max, None, _check_args(bvals, n_max, None, height_cap))


def dyck_value_exact(bvals, n: int) -> int:
    """Exact C_n^b alone, from the first n steps of the Dyck DP.

    After n steps, U(j) = B_j V(j) weighs the paths from height 0 to j.
    Reversing a path from j back down to 0 turns its weighted up-steps into
    V's weighted down-steps, so those paths weigh V(j) in all.  Splitting
    every Dyck path at its midpoint gives C_n^b = sum_j U(j) V(j) =
    sum_j B_j V(j)^2 over j = n (mod 2), which Horner's rule sums from the
    top, since B_(j+2) = B_j b_j b_(j+1).  Heights above the first zero
    weight add 0.
    """
    top = _check_args(bvals, n, None, None)
    b = list(bvals[:top]) + [0]
    even, odd = b[0::2], b[1::2]
    # entries at or below the top, for even and odd heights
    keep = (top // 2 + 1, (top + 1) // 2)
    # v[i] = V(2i + (s & 1)) after s steps; a down-step (weighted odd[i] or
    # even[i]) from v[i + 1] lands on v[i] of the next step at odd s + 1,
    # and from v[i] on v[i] at even s + 1
    v = [1]
    for s in range(n):
        if s & 1:
            down = list(map(mul, even, v))
            v = down[:1] + list(map(add, v, down[1:])) + v[-1:]
        else:
            v = list(map(add, v, map(mul, odd, v[1:]))) + v[-1:]
        del v[keep[(s + 1) & 1]:]
    lo = n & 1
    total = v[-1] * v[-1] if v else 0
    for i in range(len(v) - 2, -1, -1):
        j = lo + 2 * i
        total = total * (b[j] * b[j + 1]) + v[i] * v[i]
    return total * b[0] if lo else total


def _dyck_dp(bvals, n_max: int, modulus: int | None, height: int) -> list[int]:
    """The Dyck-path DP over heights 0..height, exact or mod `modulus`.

    The state after s steps is the vector V_s(0..height) of normalized path
    weights (see the module docstring): an up-step weighs 1 and a down-step
    onto level k weighs bvals[k], and the 0 padded on top keeps the paths at
    or below the height.  Entry n of the output is V_2n(0) = U_2n(0), the
    total weight of the paths back at height 0 after 2n steps.

    Mod m a step multiplies the cells' bound in absolute value by at most
    w + 1, w the module docstring's, and (w + 1)^r <= 2^(bits(m) - r) <= m
    when r (bits(w) + 1) <= bits(m), as for its r > 1: from reduced cells,
    r steps stay below m^2.  The steps in between run the exact loop, and
    the output is reduced at the end.  The reducing and the exact inner
    loops are kept apart: one shared loop with a per-cell test made
    small-height period jobs 70% slower.
    """
    if modulus is None:
        b = list(bvals[:height]) + [0]
        every = 2 * n_max + 1  # no step s = 1..2 n_max is a multiple: none reduces
    else:
        b = [v % modulus for v in bvals[:height]] + [0]
        # a residue above m / 2 stands for a small negative weight, as -14 for
        # b(1) of 7(4 - 9x + 3x^2); with r = 1 the residues stay nonnegative,
        # since a `%` of a negative sum is slower
        w = max(min(v, modulus - v) for v in b)
        every = max(1, modulus.bit_length() // (w.bit_length() + 1))
        if every > 1:
            b = [v - modulus if 2 * v > modulus else v for v in b]

    out = [0] * (n_max + 1)
    out[0] = 1
    prev = [0] * (height + 2)
    cur = [0] * (height + 2)
    prev[0] = 1
    for s in range(1, 2 * n_max + 1):
        hi = min(s, 2 * n_max - s, height)
        lo = s & 1
        # cell 0 has no level below it, and after an even step it is out[s / 2]
        if s % every:
            if not lo:
                out[s >> 1] = cur[0] = b[0] * prev[1]
            for j in range(2 - lo, hi + 1, 2):
                cur[j] = prev[j - 1] + b[j] * prev[j + 1]
        else:
            if not lo:
                out[s >> 1] = cur[0] = b[0] * prev[1] % modulus
            for j in range(2 - lo, hi + 1, 2):
                cur[j] = (prev[j - 1] + b[j] * prev[j + 1]) % modulus
        prev, cur = cur, prev
    return out if modulus is None or every == 1 else [v % modulus for v in out]
