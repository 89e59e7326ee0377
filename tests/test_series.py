"""Parity of the S-fraction residue engine with the reference Dyck DP.

`kernel._dyck_dp` is the reference: the engine in `series` and the kernel
switch in front of both must return the same residues for every weight,
modulus and height cap, and the kernel's one argument check must raise the
same errors on either side of the crossover.  The half-length exact value
`kernel.dyck_value_exact` must equal the last entry of the exact DP; both
run on the same normalized weights, so `test_kernel.py` checks each of them
against references that share nothing with the DP.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcatalan import kernel, series
from wcatalan.errors import DomainError
from wcatalan.weights import WeightFunction

# Word-size moduli, powers of two, and the p^K moduli that certification
# doubling reaches (up to 2^2048).
MODULI = st.one_of(
    st.integers(2, 2**62),
    st.integers(1, 62).map(lambda k: 2**k),
    st.sampled_from([2, 3, 5]).flatmap(
        lambda p: st.integers(1, 2048 // p.bit_length()).map(lambda k: p**k)
    ),
)

POLY_COEFFS = st.lists(st.integers(-60, 60), min_size=1, max_size=4)
TABLE_VALUES = st.lists(
    st.one_of(st.just(0), st.integers(-(10**6), 10**6), st.integers(-(2**80), 2**80)),
    min_size=0,
    max_size=200,
)


@st.composite
def weights(draw, count):
    """`count` weight values from a polynomial or a table, with negatives and zeros."""
    if draw(st.booleans()):
        return WeightFunction.polynomial(draw(POLY_COEFFS)).values(0, count)
    table = draw(TABLE_VALUES)
    return (table * (count // max(len(table), 1) + 1))[:count] if table else [0] * count


@st.composite
def cases(draw, n_max):
    n = draw(n_max)
    cap = draw(st.one_of(st.none(), st.integers(0, n + 2)))
    return draw(weights(n + 2)), n, draw(MODULI), cap


@given(cases(st.integers(0, 60)))
@settings(max_examples=120, deadline=None)
def test_engine_matches_dp(case):
    bvals, n, m, cap = case
    h = kernel._check_args(bvals, n, m, cap)
    assert series.dyck_series_mod(bvals, n, m, h) == kernel._dyck_dp(bvals, n, m, h)


NEAR_CROSSOVER = st.integers(kernel.SERIES_MIN_TERMS - 8, kernel.SERIES_MIN_TERMS + 40)


@st.composite
def crossover_cases(draw):
    n = draw(NEAR_CROSSOVER)
    h = kernel.SERIES_MIN_HEIGHT
    cap = draw(st.one_of(st.none(), st.integers(h - 4, h + 4), st.just(n)))
    m = draw(st.one_of(MODULI, st.integers(2**63, 2**130)))
    return draw(weights(n)), n, m, cap


@given(crossover_cases())
@settings(max_examples=40, deadline=None)
def test_kernel_matches_dp_on_both_sides_of_the_crossover(case):
    bvals, n, m, cap = case
    h = kernel._check_args(bvals, n, m, cap)
    assert kernel.dyck_dp_mod(bvals, n, m, cap) == kernel._dyck_dp(bvals, n, m, h)


def test_crossover_selects_each_engine():
    n, h = kernel.SERIES_MIN_TERMS, kernel.SERIES_MIN_HEIGHT
    word = 1 << 61
    assert kernel.series_wins(n, word, n)
    assert kernel.series_wins(n, word, h)
    assert not kernel.series_wins(n, word, h - 1)
    assert not kernel.series_wins(n - 1, word, n - 1)
    # wider moduli need more terms before the tree pays off
    assert not kernel.series_wins(4 * n - 1, 1 << 127, 4 * n - 1)
    assert kernel.series_wins(4 * n, 1 << 127, 4 * n)
    # narrow moduli take the tree at every height once there are enough terms
    narrow = (1 << kernel.SERIES_NARROW_BITS) - 1
    for height in (0, 1, h - 1, h, n):
        assert kernel.series_wins(n, narrow, height)
        assert not kernel.series_wins(n - 1, narrow, height)
    assert not kernel.series_wins(n, narrow + 2, h - 1)
    assert kernel.series_wins(n, narrow + 2, h)


@pytest.mark.parametrize(
    "m", [2**kernel.SERIES_NARROW_BITS - 35, 2**kernel.SERIES_NARROW_BITS + 3]
)
@pytest.mark.parametrize("n", [kernel.SERIES_MIN_TERMS - 1, kernel.SERIES_MIN_TERMS])
def test_kernel_matches_dp_around_the_narrow_cut(m, n):
    """Both sides of the narrow-modulus rule at heights 0-3, where only that
    rule can pick the tree."""
    bvals = WeightFunction.preset("morse").values(0, n)
    narrow = m.bit_length() == kernel.SERIES_NARROW_BITS
    assert narrow or m.bit_length() == kernel.SERIES_NARROW_BITS + 1
    for cap in range(4):
        h = kernel._check_args(bvals, n, m, cap)
        assert kernel.series_wins(n, m, h) == (narrow and n >= kernel.SERIES_MIN_TERMS)
        assert kernel.dyck_dp_mod(bvals, n, m, cap) == kernel._dyck_dp(bvals, n, m, h)


def _poly_add(f, g):
    out = [0] * max(len(f), len(g))
    for h in (f, g):
        for i, c in enumerate(h):
            out[i] += c
    return out


def _exact_block(steps):
    """M_0 ... M_(L-1) over Z[x] as (A, B, C, D), coefficient lists."""
    a, b, c, d = [1], [], [], [1]
    for s in steps:
        # [[a, b], [c, d]] [[0, 1], [s x, 1]] = [[s x b, a + b], [s x d, c + d]]
        sxb, sxd = [0] + [s * v for v in b], [0] + [s * v for v in d]
        a, b, c, d = sxb, _poly_add(a, b), sxd, _poly_add(c, d)
    return a, b, c, d


def _reduced(f, m):
    out = [c % m for c in f]
    while out and not out[-1]:
        out.pop()
    return out


@pytest.mark.parametrize("m", [2, 3, 2**26 - 5, 2**61 - 1, 2**130 + 3])
def test_full_leaves_with_the_largest_steps_do_not_overflow(m):
    """A leaf block is multiplied out exactly in packed slots; with every step
    m - 1 its coefficients are the largest a slot must hold."""
    levels = series._LEAF_LEVELS
    # an empty and a one-level block; one full leaf; full leaves below a root
    for count in (0, 1, levels, 2 * levels + 1):
        steps = [m - 1] * count
        a, b, c, d = _exact_block(steps)
        if count <= levels:
            # the leaf's slots hold every entry, and A + B and C + D
            sums = _poly_add(a, b) + _poly_add(c, d)
            assert max(a + b + c + d + sums) < 1 << (8 * series._leaf_bytes(m, count))
        got = series._matrix(steps, 0, count, m)
        assert got == tuple(_reduced(p, m) for p in (a, b, c, d))
        # weights 1 give steps -1 = m - 1
        got = series.fraction_mod([1] * count, m, count)
        assert got == (_reduced(_poly_add(a, b), m), _reduced(_poly_add(c, d), m))


@pytest.mark.parametrize("n", [0, 1, 2, 30, 31, 32, 33, 126, 127, 128, 129])
@pytest.mark.parametrize("m", [2, 7, 2**26 - 5, 2**61 - 1, 2**130 + 3])
def test_quotient_at_small_orders_and_both_parities(n, m):
    """The one-step quotient splits n + 1 terms at half = ceil((n + 1) / 2);
    odd and even orders split unevenly and evenly."""
    bvals = WeightFunction.polynomial([3, -5, 7]).values(0, n + 1)
    for h in sorted({0, 1, 2, n // 2, n}):
        assert series.dyck_series_mod(bvals, n, m, h) == kernel._dyck_dp(bvals, n, m, h), h


@given(weights(4), MODULI, st.one_of(st.none(), st.integers(-2, 4)))
@settings(max_examples=40, deadline=None)
def test_zero_terms(bvals, m, cap):
    assert kernel._check_args(bvals, 0, m, cap) == 0
    assert series.dyck_series_mod(bvals, 0, m, 0) == kernel._dyck_dp(bvals, 0, m, 0) == [1]
    assert kernel.dyck_dp_mod(bvals, 0, m, cap) == kernel.dyck_dp_exact(bvals, 0, cap) == [1]


ERROR_TEXT = (
    r"^(semilength must be nonnegative"
    r"|modulus must be at least 2, got -?\d+"
    r"|need \d+ weight values \(heights 0\.\.\d+\), got \d+)$"
)


@pytest.mark.parametrize(
    "bvals, n, m, cap",
    [
        ([1, 2], 5, 7, None),  # needs 5 values; DP side
        ([1, 2], 300, 7, 20),  # needs 20 values; tree side
        ([1] * 10, -1, 7, None),
        ([1] * 10, 5, 1, None),  # DP side
        ([1] * 10, 5, 0, None),  # DP side
        ([1] * 400, 300, 1, None),  # tree side
        ([1] * 400, 300, -5, None),  # tree side
    ],
)
def test_engines_raise_the_same_errors(bvals, n, m, cap):
    """Every kernel entry point raises the user-visible DomainError, whichever
    engine the arguments would select; exact calls share the texts that do
    not concern the modulus."""
    with pytest.raises(DomainError, match=ERROR_TEXT) as residue:
        kernel.dyck_dp_mod(bvals, n, m, cap)
    if m < 2:
        assert str(residue.value) == f"modulus must be at least 2, got {m}"
        return
    with pytest.raises(DomainError) as exact:
        kernel.dyck_dp_exact(bvals, n, cap)
    assert str(exact.value) == str(residue.value)
    if cap is None:
        with pytest.raises(DomainError) as value:
            kernel.dyck_value_exact(bvals, n)
        assert str(value.value) == str(residue.value)


@given(cases(st.integers(0, 40)))
@settings(max_examples=40, deadline=None)
def test_dp_residues_reduce_the_exact_values(case):
    bvals, n, m, cap = case
    h = kernel._check_args(bvals, n, m, cap)
    exact = kernel._dyck_dp(bvals, n, None, h)
    assert kernel._dyck_dp(bvals, n, m, h) == [v % m for v in exact]


def _schoolbook(f, g, m):
    out = [0] * max(len(f) + len(g) - 1, 0)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % m
    while out and not out[-1]:
        out.pop()
    return out


@given(MODULI, st.data(), st.one_of(st.none(), st.integers(0, 80)))
@settings(max_examples=60, deadline=None)
def test_kronecker_product_matches_schoolbook(m, data, size):
    """Operands of independent lengths, empty ones included, cut to `size` terms."""
    coeffs = st.lists(st.integers(0, m - 1), max_size=40)
    f, g = data.draw(coeffs), data.draw(coeffs)
    assert series.mul_mod(f, g, m, size) == _reduced(_schoolbook(f, g, m)[:size], m)


@given(MODULI, st.data(), st.integers(0, 50))
@settings(max_examples=60, deadline=None)
def test_newton_inverse(m, data, order):
    f = [1] + data.draw(st.lists(st.integers(0, m - 1), max_size=30))
    g = series.inverse_mod(f, m, order)
    assert len(g) == order
    product = _schoolbook(f, g, m)[:order]
    assert product + [0] * (order - len(product)) == ([1] + [0] * order)[:order]


@pytest.mark.parametrize("width", [1, 2, 4, 8, 9, 18])
def test_pack_unpack_round_trip(width):
    """Slots of 8 bytes or less go through `array`, wider ones through bytes."""
    top = 1 << (8 * width)
    coeffs = [0, 1, top - 1, top // 2, 5, top - 2, 7]
    packed = series._pack(coeffs, width)
    assert packed == sum(c << (8 * width * i) for i, c in enumerate(coeffs))
    assert series._unpack(packed, width, len(coeffs), top) == coeffs
    # fewer slots than the packed int holds, reduced, trailing zeros dropped
    assert series._unpack(packed, width, 3, 2) == [0, 1, 1]
    assert series._unpack(packed, width, 1, 3) == []


def test_slot_widths_round_up_to_a_word_size():
    # 2 * bits(m - 1) + bits(2 * terms) bits, in bytes
    assert series._slot_bytes(2, 1) == 1  # 2 + 2 bits
    assert series._slot_bytes(2**5, 2) == 2  # 10 + 3 bits
    assert series._slot_bytes(2**9, 4) == 4  # 18 + 4 bits: 3 bytes rounded up
    assert series._slot_bytes(2**16, 64) == 8  # 32 + 8 bits: 5 bytes rounded up
    assert series._slot_bytes(2**26, 1024) == 8  # 52 + 12 = 64 bits
    assert series._slot_bytes(2**26, 2048) == 9  # 65 bits: exact bytes
    assert series._slot_bytes(2**61, 2048) == 17  # 122 + 13 bits


# Moduli whose m - 1 has 26 bits: with 1024 terms a product slot takes
# exactly 64 bits, with 2048 terms 65 bits.
BOUNDARY_MODULI = [2**26, 3**16, 5**11]


def test_engine_matches_dp_at_the_word_boundary():
    weight = WeightFunction.preset("morse")
    n = 2048
    bvals = weight.values(0, n)
    lcm = 2**26 * 3**16 * 5**11
    reference = kernel._dyck_dp(bvals, n, lcm, n)
    for m in BOUNDARY_MODULI:
        assert (m - 1).bit_length() == 26
        assert series.fits_word(m, 1024) and not series.fits_word(m, 2048)
        for terms in (1024, 2048):
            got = series.dyck_series_mod(bvals, terms - 1, m, terms - 1)
            assert got == [v % m for v in reference[:terms]], (m, terms)
    # the first certification rung for n_max = 2048 at p = 2 is narrower
    assert series.dyck_series_mod(bvals, n, 2**24, n) == [v % 2**24 for v in reference]


# Powers of two whose slots, at the orders below, take every width the
# packed engine can have: 1, 2, 4 and 8 bytes, and wider ones cut out of bytes.
POW2_EXPONENTS = [*range(1, 9), 16, 25, 26, 27, 30, 31, 54, 61, 62, 64, 65, 108, 130]
POW2_ORDERS = [0, 1, 2, 31, 32, 33, 64, 127, 128, 300, 700]


def _signed_weights(count, seed):
    """Small odd, huge and even signed values, and one zero: the height at
    which 2^K divides b(0)...b(k) spreads out over K."""
    rng = random.Random(seed)
    top = 2 ** max(POW2_EXPONENTS)
    draws = (
        lambda: rng.randrange(-9, 10, 2),
        lambda: rng.randrange(-4 * top, 4 * top),
        lambda: rng.randrange(-9, 10, 2) << rng.randint(1, 6),
    )
    values = [rng.choice(draws)() for _ in range(count)]
    values[3 * count // 4] = 0
    return values


@pytest.mark.parametrize("n", POW2_ORDERS)
def test_packed_engine_matches_dp(n):
    """The packed engine mod 2^K against the reference DP mod 2^130, reduced,
    at heights 0, 1, 2, a cap below n, the vanishing height and n; and the
    kernel, on whichever side of the crossover its arguments fall, at each
    cap."""
    bvals = _signed_weights(n + 1, n)
    wide = 2 ** max(POW2_EXPONENTS)
    reference = {}
    sides = set()
    for k in POW2_EXPONENTS:
        m = 2**k
        vanishing = kernel.vanishing_height(bvals[:n], m)
        for h in sorted({min(h, n) for h in (0, 1, 2, n // 3, n)} | {vanishing or 0}):
            if h not in reference:
                reference[h] = kernel._dyck_dp(bvals, n, wide, h)
            want = [v % m for v in reference[h]]
            assert series._dyck_series_pow2(bvals, n, m, h) == want, (k, h)
            # the kernel lowers h to the vanishing height, also in `reference`
            capped = kernel._check_args(bvals, n, m, h)
            sides.add(kernel.series_wins(n, m, capped))
            want = [v % m for v in reference[capped]]
            assert kernel.dyck_dp_mod(bvals, n, m, h) == want, (k, h)
    assert sides == ({True, False} if n >= kernel.SERIES_MIN_TERMS else {False})


def test_packed_cases_take_every_slot_width():
    widths = {series._slot_bytes(2**k, n + 1) for k in POW2_EXPONENTS for n in POW2_ORDERS}
    assert {1, 2, 4, 8} <= widths and max(widths) > 8


def test_each_modulus_reaches_its_engine(monkeypatch):
    """On the tree side a power of two runs the packed engine and an odd or
    even non-power modulus the list engine; below the crossover neither."""
    calls = []
    for name in ("_dyck_series_pow2", "fraction_mod"):
        real = getattr(series, name)
        monkeypatch.setattr(
            series, name, lambda *a, name=name, real=real: calls.append(name) or real(*a)
        )
    bvals = WeightFunction.preset("morse").values(0, 301)
    for m, n, engine in [
        (2**26, 300, "_dyck_series_pow2"),
        (2, 300, "_dyck_series_pow2"),
        (2**61, 300, "_dyck_series_pow2"),
        (3**16, 300, "fraction_mod"),
        (3 * 2**20, 300, "fraction_mod"),
        (2**26, 100, None),
    ]:
        assert kernel.series_wins(n, m, n) == (engine is not None)
        calls.clear()
        kernel.dyck_dp_mod(bvals, n, m)
        assert calls == ([engine] if engine else []), m


@st.composite
def half_length_cases(draw):
    n = draw(st.integers(0, 80))
    # poly:2,-1 has b(2) = 0 and negatives after it; poly:0,1 has b(0) = 0
    named = st.sampled_from([[2, -1], [0, 1]]).map(
        lambda c: WeightFunction.polynomial(c).values(0, n)
    )
    return draw(st.one_of(named, weights(n))), n


@given(half_length_cases())
@settings(max_examples=120, deadline=None)
def test_half_length_value_matches_the_dp(case):
    bvals, n = case
    assert kernel.dyck_value_exact(bvals, n) == kernel.dyck_dp_exact(bvals, n)[n]
