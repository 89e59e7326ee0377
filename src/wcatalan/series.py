"""Truncated power series over Z/mZ and the S-fraction residue engine.

Polynomials are lists of coefficients, lowest degree first, reduced into
[0, m), except in the residue engine mod a power of two (below).  Every
product of lists is one call of `_matmul`, which multiplies rows by
columns of one or two polynomials through Kronecker substitution: each
operand is packed once into one Python int with a fixed-width slot per
coefficient, wide enough that no slot of an entry overflows, so an entry
costs one or two big-int multiplies (done in C) in place of the quadratic
coefficient loop, and is unpacked once.  `mul_mod` is its 1x1 case, the
product tree's matrix combine its 2x2 by 2x2 case and the fraction spine
its 2x2 by 2x1 case.  A slot of at most 8 bytes is rounded up to 1, 2, 4
or 8 bytes, so that packing and unpacking is one `array` conversion plus
one pass of `% m`; wider slots are cut out of the byte string one
coefficient at a time.  `fits_word` tells a caller whether a modulus keeps
every slot of a product within one 64-bit word.

The weighted Catalan generating function is the S-fraction (Flajolet 1980)

    C^b(x) = 1 / (1 - b_0 x / (1 - b_1 x / (1 - ...))),

and its truncation after h levels counts exactly the paths that stay at
or below height h.  Level k is the Moebius step y -> 1 / (1 - b_k x y),
with matrix M_k = [[0, 1], [-b_k x, 1]]; so with M_0 M_1 ... M_{h-1} =
[[A, B], [C, D]] the truncated fraction is (A + B) / (C + D), whose
numerator and denominator (`fraction_mod`) are the P and Q of
`periodicity.continued_fraction_pq` at depth h - 1.  A balanced
product tree forms that product, and a Newton inverse (Sieveking 1972,
Kung 1974) to half the order with one correction step (Karp and Markstein
1997) divides, in O(M(n) log h) for polynomial multiplication time M(n),
against O(n h) for the Dyck DP in `kernel`.

The leaves of the tree, blocks of up to 32 levels, are multiplied out by
one loop, `_leaf`, on packed ints with no reduction: from the identity, with
steps in [0, m), x is a shift by one slot and each level costs four big-int
operations.  Its slots are wide enough for the exact block and for A + B
and C + D; a leaf is reduced once, when it is unpacked, all four entries
for a matrix and the two sums for the fraction spine.  Above the leaves
every product is reduced.

Mod a power of two, m = 2^K, `dyck_series_mod` runs the same tree,
inverse and quotient with every polynomial kept packed, in slots of one
width for the whole call (`_dyck_series_pow2`): reducing every slot mod m
is one `& mask`, a bitwise AND with m - 1 in every slot, and only the
result is unpacked.  Other moduli keep the lists, unpacked and reduced by
one `% m` per coefficient between levels: the packed reductions tried for
them, an `array` `%` per leaf level and a SWAR Barrett reduction of every
slot at once, were slower or barely faster (ROADMAP, dead ends).
"""

from __future__ import annotations

import sys
from array import array
from itertools import zip_longest
from operator import mul

__all__ = ["fits_word", "mul_mod", "inverse_mod", "fraction_mod", "dyck_series_mod"]

# Blocks of at most this many S-fraction levels are multiplied out one level
# at a time, exactly; above it, halves are combined by Kronecker products.
_LEAF_LEVELS = 32


# Bytes of the widest slot packed through `array`, and the unsigned typecode
# of each slot width, chosen by item size since the letters vary by platform.
_WORD_BYTES = 8
_TYPECODES = {array(code).itemsize: code for code in "BHILQ"}


def _slot_bits(modulus: int, terms: int) -> int:
    """Bits of a slot that holds a sum of two products of `terms`-term polynomials."""
    return 2 * (modulus - 1).bit_length() + (2 * terms).bit_length()


def fits_word(modulus: int, terms: int) -> bool:
    """Whether every slot of a product of `terms`-term polynomials fits 64 bits."""
    return _slot_bits(modulus, terms) <= 8 * _WORD_BYTES


def _round_slot(bits: int) -> int:
    """Slot width in bytes for `bits`: 1, 2, 4 or 8 while it fits one word, else exact."""
    width = (bits + 7) // 8
    return width if width > _WORD_BYTES else 1 << (width - 1).bit_length()


def _slot_bytes(modulus: int, terms: int) -> int:
    """Slot width in bytes for a sum of two products of `terms`-term polynomials."""
    return _round_slot(_slot_bits(modulus, terms))


def _leaf_bytes(modulus: int, levels: int) -> int:
    """Slot width in bytes for a leaf block of `levels` levels multiplied out exactly.

    Over steps in [0, m), the coefficient of x^k in any entry of the block
    sums at most 2^levels products of k <= ceil(levels / 2) steps.
    """
    return _round_slot(levels + (levels + 1) // 2 * (modulus - 1).bit_length())


def _pack(coeffs: list[int], width: int) -> int:
    if width > _WORD_BYTES:
        return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in coeffs]), "little")
    words = array(_TYPECODES[width], coeffs)
    if sys.byteorder == "big":
        words.byteswap()
    return int.from_bytes(words.tobytes(), "little")


def _words(data, width: int) -> array:
    """Little-endian slots of `width` bytes, at most one word, as an unsigned array."""
    words = array(_TYPECODES[width])
    words.frombytes(data)
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _unpack(packed: int, width: int, count: int | None, modulus: int) -> list[int]:
    """Slots of `packed` reduced mod `modulus`, trailing zeros dropped.

    The first `count` slots, or all of them for None; no slot above the
    highest nonzero one is read.
    """
    slots = -(-packed.bit_length() // (8 * width))
    count = slots if count is None else min(count, slots)
    if count <= 0:
        return []
    data = packed.to_bytes(slots * width, "little")
    if width > _WORD_BYTES:
        read = int.from_bytes
        out = [read(data[i : i + width], "little") % modulus for i in range(0, count * width, width)]
    else:
        out = [c % modulus for c in _words(memoryview(data)[: count * width], width)]
    while out and not out[-1]:
        out.pop()
    return out


def _matmul(rows, cols, modulus: int, size: int | None = None) -> list[list[int]]:
    """Every entry sum_k row[k] col[k] over Z/mZ of `rows` times `cols`, row by row.

    Rows and columns hold one or two polynomials each, with coefficients in
    [0, m); an entry keeps at most `size` terms, trailing zeros dropped.
    Each operand is packed once, at one slot width: `_slot_bytes` of the
    largest min(len f, len g) over the pairs.  Each entry is one big-int
    product or the sum of two, unpacked once.
    """
    if len(rows) == len(cols) == len(rows[0]) == 1:
        # one pair skips the containers, which cost a 4-term product half again
        (f,), (g,) = rows[0], cols[0]
        width = _slot_bytes(modulus, min(len(f), len(g)))
        return [_unpack(_pack(f, width) * _pack(g, width), width, size, modulus)]
    terms = max([min(len(f), len(g)) for row in rows for col in cols for f, g in zip(row, col)])
    width = _slot_bytes(modulus, terms)
    packed_cols = [[_pack(g, width) for g in col] for col in cols]
    return [
        _unpack(sum(map(mul, packed_row, packed_col)), width, size, modulus)
        for packed_row in [[_pack(f, width) for f in row] for row in rows]
        for packed_col in packed_cols
    ]


def mul_mod(f: list[int], g: list[int], modulus: int, size: int | None = None) -> list[int]:
    """f * g over Z/mZ, keeping at most `size` terms; coefficients in [0, m).

    Inputs must already lie in [0, m).  Trailing zeros are dropped.
    """
    if not f or not g:
        return []
    return _matmul(((f,),), ((g,),), modulus, size)[0]


def inverse_mod(f: list[int], modulus: int, order: int) -> list[int]:
    """First `order` coefficients of 1/f over Z/mZ; f[0] must be a unit.

    Newton iteration g <- g + g (1 - f g) doubles the precision per step.
    """
    if order <= 0:
        return []
    g = [pow(f[0] if f else 0, -1, modulus)]
    known = 1
    while known < order:
        target = min(2 * known, order)
        # f g = 1 + O(x^known); its coefficients known..target-1 are the error
        err = mul_mod(f[:target], g, modulus, target)[known:]
        corr = mul_mod(g, err, modulus, target - known)
        g = g + [0] * (known - len(g)) + [(modulus - c) % modulus for c in corr]
        known = target
    return g + [0] * (order - len(g))


def _leaf(steps: list[int], lo: int, hi: int, modulus: int):
    """M_lo ... M_(hi-1) multiplied out exactly on packed ints: (width, A, B, C, D).

    x is a shift by one slot, and nothing is reduced until an entry is
    unpacked.  The slots of `_leaf_bytes` hold every entry, and A + B and
    C + D too: a coefficient of either sum also adds at most 2^levels
    products of non-adjacent steps.
    """
    width = _leaf_bytes(modulus, hi - lo)
    shift = 8 * width
    a, b, c, d = 1, 0, 0, 1
    for s in steps[lo:hi]:
        # [[a, b], [c, d]] [[0, 1], [s x, 1]] = [[s x b, a + b], [s x d, c + d]]
        a, b, c, d = (s * b) << shift, a + b, (s * d) << shift, c + d
    return width, a, b, c, d


def _matrix(steps: list[int], lo: int, hi: int, modulus: int):
    """M_lo M_(lo+1) ... M_(hi-1) as (A, B, C, D), with M_k = [[0, 1], [steps[k] x, 1]]."""
    if hi - lo <= _LEAF_LEVELS:
        width, *block = _leaf(steps, lo, hi, modulus)
        return tuple(_unpack(p, width, None, modulus) for p in block)
    mid = (lo + hi) // 2
    a1, b1, c1, d1 = _matrix(steps, lo, mid, modulus)
    a2, b2, c2, d2 = _matrix(steps, mid, hi, modulus)
    return tuple(_matmul(((a1, b1), (c1, d1)), ((a2, c2), (b2, d2)), modulus))


def _fraction(steps: list[int], lo: int, hi: int, modulus: int):
    """(A + B, C + D) for M_lo ... M_(hi-1): the product applied to (1, 1).

    Only the left halves need whole matrices; the right spine carries the
    vector.
    """
    if hi - lo <= _LEAF_LEVELS:
        width, a, b, c, d = _leaf(steps, lo, hi, modulus)
        return _unpack(a + b, width, None, modulus), _unpack(c + d, width, None, modulus)
    mid = (lo + hi) // 2
    a, b, c, d = _matrix(steps, lo, mid, modulus)
    u, v = _fraction(steps, mid, hi, modulus)
    return tuple(_matmul(((a, b), (c, d)), ((u, v),), modulus))


def fraction_mod(bvals, modulus: int, height: int) -> tuple[list[int], list[int]]:
    """Numerator and denominator of the S-fraction truncated after `height` levels.

    For h levels b_0 .. b_(h-1) this is (P, Q) mod `modulus` of depth h - 1
    (`periodicity.continued_fraction_pq`): lists of coefficients in
    [0, modulus), lowest degree first, trailing zeros dropped.  P/Q counts
    the paths that stay at or below height h.  The arguments are trusted,
    as for `dyck_series_mod`: modulus at least 2, height at most
    len(bvals).
    """
    steps = [-v % modulus for v in bvals[:height]]
    return _fraction(steps, 0, height, modulus)


def dyck_series_mod(bvals, n_max: int, modulus: int, height: int) -> list[int]:
    """Residues of the weighted Catalan numbers mod `modulus` for n = 0..n_max.

    Only paths staying at or below `height` are counted.  The arguments
    are trusted: `kernel.dyck_dp_mod` checks them and resolves a height cap
    into `height` (at most n_max, and no more than len(bvals)).
    """
    if modulus & (modulus - 1) == 0:
        return _dyck_series_pow2(bvals, n_max, modulus, height)
    numer, denom = fraction_mod(bvals, modulus, height)
    # One-step quotient (Karp and Markstein 1997): with g = 1/denom to half
    # the order, q0 = numer g is right to half the order, and the remainder
    # numer - denom q0, which starts at x^half, times g gives the rest.
    order = n_max + 1
    half = (order + 1) // 2
    g = inverse_mod(denom, modulus, half)
    q0 = mul_mod(numer[:half], g, modulus, half)
    fit = mul_mod(denom[:order], q0, modulus, order)
    rest = [
        (c - f) % modulus
        for c, f in zip_longest(numer[half:order], fit[half:], fillvalue=0)
    ]
    # for a short fraction the remainder is short: keep the slots narrow
    while rest and not rest[-1]:
        rest.pop()
    q1 = mul_mod(g, rest, modulus, order - half)
    return q0 + [0] * (half - len(q0)) + q1 + [0] * (order - half - len(q1))


def _dyck_series_pow2(bvals, n_max: int, modulus: int, height: int) -> list[int]:
    """`dyck_series_mod` for a power of two m = 2^K, every polynomial one packed int.

    A polynomial has order = n_max + 1 slots, all of the width that
    `_slot_bytes` gives for order terms, which holds a sum of two products
    of reduced polynomials.  So a product is one big-int product, and
    `& mask`, with m - 1 in every slot, reduces each slot mod m and cuts the
    product to the order; `low(size)` cuts it to `size` terms.  A difference
    f - g is (f + top - g) & mask, with m in every slot of `top`, so that no
    slot borrows.  The tree, the Newton inverse and the one-step quotient are
    those of the list engine; only the result is unpacked.
    """
    order = n_max + 1
    half = (order + 1) // 2
    width = _slot_bytes(modulus, order)
    shift = 8 * width
    # 1 in every slot, by doubling shifts: all-ones divided by 2^shift - 1
    # would be quadratic at wide slots
    ones, slots = 1, 1
    while slots < order:
        ones |= ones << (shift * slots)
        slots *= 2
    ones &= (1 << (shift * order)) - 1
    top = ones * modulus
    mask = top - ones

    def low(size):
        return mask & ((1 << (shift * size)) - 1)

    steps = [-v % modulus for v in bvals[:height]]

    def matrix(lo, hi):
        if hi - lo <= _LEAF_LEVELS:
            a, b, c, d = 1, 0, 0, 1
            for s in steps[lo:hi]:
                a, b = (s * b << shift) & mask, (a + b) & mask
                c, d = (s * d << shift) & mask, (c + d) & mask
            return a, b, c, d
        mid = (lo + hi) // 2
        a1, b1, c1, d1 = matrix(lo, mid)
        a2, b2, c2, d2 = matrix(mid, hi)
        return (
            (a1 * a2 + b1 * c2) & mask,
            (a1 * b2 + b1 * d2) & mask,
            (c1 * a2 + d1 * c2) & mask,
            (c1 * b2 + d1 * d2) & mask,
        )

    def fraction(lo, hi):
        if hi - lo <= _LEAF_LEVELS:
            a, b, c, d = matrix(lo, hi)
            return (a + b) & mask, (c + d) & mask
        mid = (lo + hi) // 2
        a, b, c, d = matrix(lo, mid)
        u, v = fraction(mid, hi)
        return (a * u + b * v) & mask, (c * u + d * v) & mask

    numer, denom = fraction(0, height)
    g, known = pow(denom & (modulus - 1), -1, modulus), 1
    while known < half:
        target = min(2 * known, half)
        err = ((denom & low(target)) * g & low(target)) >> (shift * known)
        corr = g * err & low(target - known)
        g |= ((top - corr) & low(target - known)) << (shift * known)
        known = target
    q0 = (numer & low(half)) * g & low(half)
    fit = denom * q0 & mask
    rest = ((numer >> (shift * half)) + top - (fit >> (shift * half))) & low(order - half)
    packed = q0 | (g * rest & low(order - half)) << (shift * half)
    data = packed.to_bytes(order * width, "little")
    if width > _WORD_BYTES:
        return [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]
    return list(_words(data, width))
