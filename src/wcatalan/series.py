"""Truncated power series over Z/mZ and the S-fraction residue engine.

Polynomials are lists of coefficients, lowest degree first, reduced into
[0, m).  Products go through Kronecker substitution: each operand is packed
into one Python int with a fixed-width slot per coefficient, wide enough
that no slot of the product overflows, so a single big-int multiply (done
in C) replaces the quadratic coefficient loop.  A slot of at most 8 bytes
is rounded up to 1, 2, 4 or 8 bytes, so that packing and unpacking is one
`array` conversion plus one pass of `% m`; wider slots are cut out of the
byte string one coefficient at a time.  `fits_word` tells a caller whether
a modulus keeps every slot of a product within one 64-bit word.

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

The leaves of the tree, blocks of up to 32 levels, are multiplied out on
packed ints with no reduction: with steps in [0, m), x is a shift by one
slot and each level costs four big-int operations.  Their slots are wide
enough for the exact block, and each block is reduced once, when it is
unpacked; above the leaves every product is reduced.
"""

from __future__ import annotations

import sys
from array import array
from itertools import zip_longest

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


def _unpack_all(packed: int, width: int, modulus: int) -> list[int]:
    """Every slot of `packed`, reduced mod `modulus`, trailing zeros dropped."""
    return _unpack(packed, width, -(-packed.bit_length() // (8 * width)), modulus)


def _pack(coeffs: list[int], width: int) -> int:
    if width > _WORD_BYTES:
        return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in coeffs]), "little")
    words = array(_TYPECODES[width], coeffs)
    if sys.byteorder == "big":
        words.byteswap()
    return int.from_bytes(words.tobytes(), "little")


def _unpack(packed: int, width: int, count: int, modulus: int) -> list[int]:
    if count <= 0:
        return []
    total = max(count, (packed.bit_length() + 8 * width - 1) // (8 * width))
    data = packed.to_bytes(total * width, "little")
    if width > _WORD_BYTES:
        read = int.from_bytes
        out = [read(data[i : i + width], "little") % modulus for i in range(0, count * width, width)]
    else:
        words = array(_TYPECODES[width])
        words.frombytes(memoryview(data)[: count * width])
        if sys.byteorder == "big":
            words.byteswap()
        out = [c % modulus for c in words]
    while out and not out[-1]:
        out.pop()
    return out


def mul_mod(f: list[int], g: list[int], modulus: int, size: int | None = None) -> list[int]:
    """f * g over Z/mZ, keeping at most `size` terms; coefficients in [0, m).

    Inputs must already lie in [0, m).  Trailing zeros are dropped.
    """
    if not f or not g:
        return []
    width = _slot_bytes(modulus, min(len(f), len(g)))
    count = len(f) + len(g) - 1
    if size is not None:
        count = min(count, size)
    return _unpack(_pack(f, width) * _pack(g, width), width, count, modulus)


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


def _matrix(steps: list[int], lo: int, hi: int, modulus: int):
    """M_lo M_(lo+1) ... M_(hi-1) as (A, B, C, D), with M_k = [[0, 1], [steps[k] x, 1]]."""
    if hi - lo <= _LEAF_LEVELS:
        width = _leaf_bytes(modulus, hi - lo)
        shift = 8 * width
        # exact packed entries: x is a shift by one slot, and nothing is
        # reduced until the block is unpacked
        a, b, c, d = 0, 1, steps[lo] << shift, 1
        for s in steps[lo + 1 : hi]:
            # [[a, b], [c, d]] [[0, 1], [s x, 1]] = [[s x b, a + b], [s x d, c + d]]
            a, b, c, d = (s * b) << shift, a + b, (s * d) << shift, c + d
        return tuple(_unpack_all(p, width, modulus) for p in (a, b, c, d))
    mid = (lo + hi) // 2
    a1, b1, c1, d1 = _matrix(steps, lo, mid, modulus)
    a2, b2, c2, d2 = _matrix(steps, mid, hi, modulus)
    width = _slot_bytes(modulus, max(map(len, (a1, b1, c1, d1, a2, b2, c2, d2))))
    pa1, pb1, pc1, pd1, pa2, pb2, pc2, pd2 = (
        _pack(p, width) for p in (a1, b1, c1, d1, a2, b2, c2, d2)
    )
    la = max(len(a1) + len(a2), len(b1) + len(c2)) - 1
    lb = max(len(a1) + len(b2), len(b1) + len(d2)) - 1
    lc = max(len(c1) + len(a2), len(d1) + len(c2)) - 1
    ld = max(len(c1) + len(b2), len(d1) + len(d2)) - 1
    return (
        _unpack(pa1 * pa2 + pb1 * pc2, width, la, modulus),
        _unpack(pa1 * pb2 + pb1 * pd2, width, lb, modulus),
        _unpack(pc1 * pa2 + pd1 * pc2, width, lc, modulus),
        _unpack(pc1 * pb2 + pd1 * pd2, width, ld, modulus),
    )


def _fraction(steps: list[int], lo: int, hi: int, modulus: int):
    """(A + B, C + D) for M_lo ... M_(hi-1): the product applied to (1, 1).

    Only the left halves need whole matrices; the right spine carries the
    vector, which is the bottom-up continued fraction y -> (v, v + s x u).
    """
    if hi - lo <= _LEAF_LEVELS:
        width = _leaf_bytes(modulus, hi - lo)
        shift = 8 * width
        u, v = 1, 1
        for s in reversed(steps[lo:hi]):
            u, v = v, v + ((s * u) << shift)
        return _unpack_all(u, width, modulus), _unpack_all(v, width, modulus)
    mid = (lo + hi) // 2
    a, b, c, d = _matrix(steps, lo, mid, modulus)
    u, v = _fraction(steps, mid, hi, modulus)
    width = _slot_bytes(modulus, max(map(len, (a, b, c, d, u, v))))
    pa, pb, pc, pd, pu, pv = (_pack(p, width) for p in (a, b, c, d, u, v))
    lu = max(len(a) + len(u), len(b) + len(v)) - 1
    lv = max(len(c) + len(u), len(d) + len(v)) - 1
    return (
        _unpack(pa * pu + pb * pv, width, lu, modulus),
        _unpack(pc * pu + pd * pv, width, lv, modulus),
    )


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
