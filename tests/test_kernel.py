"""The exact Dyck kernels against references that share nothing with the DP.

`kernel.dyck_value_exact` and `kernel.dyck_dp_exact` both run on the
normalized weights V(j) = U(j) / (b(0)...b(j-1)), so comparing them with
each other checks neither.  Here they meet independent references:
enumeration of the Dyck paths themselves (n <= 9), the exact power series
of the continued fraction P/Q (n <= 60), and closed forms.  The residue DP
is checked against the exact values when m | b(0)...b(z) caps its height.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from wcatalan import kernel, series
from wcatalan.arith import series_divide_exact
from wcatalan.periodicity import continued_fraction_pq
from wcatalan.weights import WeightFunction

# Zeros, +-1, small and large values of either sign.
VALUES = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.integers(-7, 7),
    st.integers(-(10**6), 10**6),
)


@st.composite
def weights(draw, count):
    """`count` >= 1 values, with zeros forced at b(0), b(1), mid-way or on top."""
    bvals = draw(st.lists(VALUES, min_size=count, max_size=count))
    for z in draw(st.lists(st.sampled_from([0, 1, count // 2, count - 1]), max_size=2)):
        bvals[min(z, count - 1)] = 0
    return bvals


@st.composite
def cases(draw, n_max):
    n = draw(st.integers(0, n_max))
    cap = draw(st.one_of(st.none(), st.integers(0, n + 1)))
    return draw(weights(n + 1)), n, cap


def enumerated(bvals, n, cap=None):
    """Sum over the Dyck paths of semilength n (at or below `cap`) of the
    product of bvals[k] over their up-steps off level k."""
    top = n if cap is None else cap

    def walk(height, ups, downs, weight):
        if downs == n:
            return weight
        total = 0
        if ups < n and height < top:
            total += walk(height + 1, ups + 1, downs, weight * bvals[height])
        if downs < ups:
            total += walk(height - 1, ups, downs + 1, weight)
        return total

    return walk(0, 0, 0, 1)


def continued_fraction(bvals, n, cap=None):
    """C_0..C_n from the power series of P/Q, whose depth sets the height cap."""
    top = n if cap is None else min(cap, n)
    if top == 0:
        return [1] + [0] * n
    pair = continued_fraction_pq(WeightFunction.from_table(bvals), top - 1)
    return series_divide_exact(pair.P, pair.Q, n + 1)


@given(cases(9))
@settings(max_examples=80, deadline=None)
def test_exact_kernels_match_path_enumeration(case):
    bvals, n, cap = case
    assert kernel.dyck_dp_exact(bvals, n, cap) == [enumerated(bvals, k, cap) for k in range(n + 1)]
    assert kernel.dyck_value_exact(bvals, n) == enumerated(bvals, n)


@given(cases(60))
@settings(max_examples=80, deadline=None)
def test_exact_kernels_match_the_continued_fraction(case):
    bvals, n, cap = case
    assert kernel.dyck_dp_exact(bvals, n, cap) == continued_fraction(bvals, n, cap)
    assert kernel.dyck_value_exact(bvals, n) == continued_fraction(bvals, n)[n]


def test_second_weight_zero_gives_powers_of_the_first():
    # poly:3,-5,2 has b(0) = 3 and b(1) = 0: only the paths of height 1 count
    bvals = WeightFunction.polynomial([3, -5, 2]).values(0, 2000)
    assert bvals[:2] == [3, 0]
    assert kernel.dyck_value_exact(bvals, 2000) == 3**2000
    assert kernel.dyck_dp_exact(bvals, 2000) == [3**k for k in range(2001)]


def test_linear_weight_gives_double_factorials():
    # b(x) = x + 1 counts perfect matchings: C_n^b = (2n - 1)!!
    n = 400
    bvals = WeightFunction.polynomial([1, 1]).values(0, n)
    double_factorials = [math.prod(range(1, 2 * k, 2)) for k in range(n + 1)]
    assert kernel.dyck_dp_exact(bvals, n) == double_factorials
    for k in (0, 1, 2, 101, n):
        assert kernel.dyck_value_exact(bvals, k) == double_factorials[k]


def test_unit_weight_gives_catalan_numbers():
    n = 400
    catalan = [math.comb(2 * k, k) // (k + 1) for k in range(n + 1)]
    assert kernel.dyck_dp_exact([1] * n, n) == catalan
    for k in (0, 1, 2, 99, n):
        assert kernel.dyck_value_exact([1] * n, k) == catalan[k]


# Moduli of every width from 1 to 1000 bits, and the p^K rungs of a
# certification ladder (K doubling) up to about 2^1000.
DP_MODULI = st.one_of(
    st.integers(1, 1000).flatmap(lambda k: st.integers(max(2, 2 ** (k - 1)), 2**k)),
    st.sampled_from([2, 3, 5, 7]).flatmap(
        lambda p: st.integers(0, (1000 // p.bit_length()).bit_length() - 1).map(
            lambda i: p ** 2**i
        )
    ),
)


@st.composite
def dp_cases(draw):
    """Weights of 3 to 1100 bits, of either sign or nonnegative, so that the
    residue DP reduces every step (weights as wide as the modulus, or a
    narrow modulus) or every r >> 1 steps (narrow weights, a wide modulus),
    with zero weights and zero residues planted, and caps."""
    m = draw(DP_MODULI)
    bits = draw(st.sampled_from([3, 20, 64, 1100]))
    n = draw(st.integers(0, 150 if bits < 64 else 40))
    low = draw(st.sampled_from([0, -(2**bits)]))
    bvals = draw(st.lists(st.integers(low, 2**bits), min_size=n + 1, max_size=n + 1))
    for z in draw(st.lists(st.integers(0, n), max_size=2)):
        bvals[z] = draw(st.sampled_from([0, m, -3 * m]))
    return bvals, n, m, draw(st.one_of(st.none(), st.integers(0, n + 1)))


@given(dp_cases())
@settings(max_examples=80, deadline=None)
def test_residue_dp_reduces_the_exact_values(case):
    bvals, n, m, cap = case
    want = [v % m for v in kernel.dyck_dp_exact(bvals, n, cap)]
    h = kernel._check_args(bvals, n, m, cap)
    assert kernel._dyck_dp(bvals, n, m, h) == want
    if not kernel.series_wins(n, m, h):
        assert kernel.dyck_dp_mod(bvals, n, m, cap) == want


@st.composite
def vanishing_cases(draw, tree_side):
    """Arguments where m divides b(0)...b(z): b(z) is a zero residue, or
    m = a c with a | b(z - 1) and c | b(z).

    DP side: fewer than SERIES_MIN_TERMS terms, or a modulus wider than
    SERIES_NARROW_BITS under a cap below SERIES_MIN_HEIGHT.  Tree side: a
    narrow modulus and at least SERIES_MIN_TERMS terms, at any cap.
    """
    z = draw(st.sampled_from([0, 1, 5]))
    narrow = 2 ** (kernel.SERIES_NARROW_BITS // 2)
    if tree_side:
        a, c = draw(st.integers(2, narrow - 1)), draw(st.integers(1, narrow - 1))
        n = draw(st.integers(kernel.SERIES_MIN_TERMS, 2 * kernel.SERIES_MIN_TERMS))
        cap = draw(st.one_of(st.none(), st.integers(0, n + 1)))
    elif draw(st.booleans()):
        a, c = draw(st.integers(2, 10**6)), draw(st.integers(1, 10**6))
        n = draw(st.integers(z, kernel.SERIES_MIN_TERMS - 1))
        cap = draw(st.one_of(st.none(), st.integers(0, n + 1)))
    else:
        a = draw(st.integers(2, 10**6))
        c = draw(st.integers(-(-(2**kernel.SERIES_NARROW_BITS) // a), 2**32))
        n = draw(st.integers(z, 2 * kernel.SERIES_MIN_TERMS))
        cap = draw(st.integers(0, kernel.SERIES_MIN_HEIGHT - 1))
    m = a * c
    units = st.integers(-(10**6), 10**6).filter(lambda v: v % m)
    bvals = draw(st.lists(units, min_size=n + 1, max_size=n + 1))
    # nonzero multiples: the exact values still count the paths above z
    if z and c > 1 and draw(st.booleans()):
        bvals[z - 1], bvals[z] = a * draw(units), c * draw(units)
    else:
        bvals[z] = m * draw(st.sampled_from([1, -1, 3]))
    return bvals, n, m, cap


@given(vanishing_cases(tree_side=False))
@settings(max_examples=60, deadline=None)
def test_residue_dp_caps_at_the_vanishing_height(case):
    bvals, n, m, cap = case
    assert not kernel.series_wins(n, m, kernel._check_args(bvals, n, m, cap))
    exact = kernel.dyck_dp_exact(bvals, n, cap)
    assert kernel.dyck_dp_mod(bvals, n, m, cap) == [v % m for v in exact]


@given(vanishing_cases(tree_side=True))
@settings(max_examples=30, deadline=None)
def test_residue_tree_caps_at_the_vanishing_height(case):
    bvals, n, m, cap = case
    assert kernel.series_wins(n, m, kernel._check_args(bvals, n, m, cap))
    exact = kernel.dyck_dp_exact(bvals, n, cap)
    assert kernel.dyck_dp_mod(bvals, n, m, cap) == [v % m for v in exact]


def test_engines_stop_at_the_vanishing_height(monkeypatch):
    """With no cap from the caller, the kernel lowers the height to the least
    k with m | b(0)...b(k) (exactly: the first zero weight) for either engine."""
    heights = []
    for module, name in ((kernel, "_dyck_dp"), (series, "dyck_series_mod")):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda bv, n, m, h, real=real: heights.append(h) or real(bv, n, m, h)
        )
    morse = WeightFunction.preset("morse").values(0, 300)
    m = 3**40
    k = next(k for k in range(300) if math.prod(morse[: k + 1]) % m == 0)
    assert kernel.series_wins(300, m, k)
    kernel.dyck_dp_mod(morse, 60, 7)  # 7 | b(0)...b(3)
    kernel.dyck_dp_mod(morse, 300, m)
    kernel.dyck_dp_exact([2, 3, 0, 5], 4)
    assert heights == [3, k, 2]
