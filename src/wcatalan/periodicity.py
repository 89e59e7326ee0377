"""Periodicity of weighted Catalan numbers modulo m.

The truncated continued fraction for the generating function is a rational
function P/Q whose coefficients are signed sums over sparse index chains;
once the prefix product b(0)...b(k) vanishes mod m the residue sequence
satisfies the linear recurrence read off Q, hence is eventually periodic.
This module computes P/Q exactly or mod m, finds truncation indices,
detects cycles in residue streams, and certifies pure periodicity when the
degree and coprimality conditions hold.

P and Q mod m come from the S-fraction product tree in `series`, the
engine the residues use, wherever the kernel's crossover
(`kernel.series_wins`) would pick it for the residues of the same depth;
otherwise, and exactly, from one pass over the gap chains.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import add

from . import catalan, kernel, series
from .arith import IntPolynomial
from .errors import DomainError, ResourceLimitError
from .weights import WeightFunction

__all__ = [
    "PQPair",
    "PeriodReport",
    "PurePeriodicityCheck",
    "continued_fraction_pq",
    "truncation_index",
    "detect_period",
    "pure_periodicity_sufficient",
    "analyze_weight_period",
]

DEFAULT_TRUNCATION_BOUND = 4096
# Largest window analyze_weight_period takes; the largest default window
# below it is morse period --pow3 13, at 2,598,156 terms.
MAX_WINDOW = 1 << 22


@dataclass(frozen=True)
class PQPair:
    """Numerator and denominator of the depth-n truncated continued fraction.

    Both have constant term 1; for everywhere-nonzero weights
    deg P = ceil(n/2) and deg Q = ceil((n+1)/2).
    """

    P: IntPolynomial
    Q: IntPolynomial
    truncation: int


def _gap_chain_sums(bv: list[int], modulus: int | None) -> tuple[list[int], list[int]]:
    """Signed chain sums over indices 1..n and 0..n, n = len(bv) - 1, in one pass.

    Coefficient k is (-1)^k times the sum of b(i_1)...b(i_k) over chains
    i_1 < ... < i_k with gaps >= 2.  Going down from j = n, the chains inside
    j..n are those inside j+1..n plus b(j) times those inside j+2..n, so the
    state after j = 1 holds P's sums and the final state Q's.  With a modulus
    each product is reduced and the sums stay below len(bv) * modulus.
    """
    skip = skip2 = [1]  # chains inside j+1..n and j+2..n, trailing zeros kept
    for j in range(len(bv) - 1, -1, -1):
        if j == 0:
            p_sums = skip
        nb = -bv[j] if modulus is None else -bv[j] % modulus
        shifted = [nb * c for c in skip2] if modulus is None else [nb * c % modulus for c in skip2]
        # len(skip) is len(skip2) or len(skip2) + 1, so only `shifted` has a tail
        skip, skip2 = [1, *map(add, skip[1:], shifted), *shifted[len(skip) - 1 :]], skip
    return p_sums, skip


def continued_fraction_pq(b: WeightFunction, n: int, modulus: int | None = None) -> PQPair:
    """P/Q with deepest level b(n): exact, or residues in [0, modulus).

    P has coefficient (-1)^k * (chain sums over indices 1..n) at x^k and Q
    the same over indices 0..n; the chains are strictly increasing with
    consecutive gaps >= 2.  P/Q expands to the generating function of
    weighted paths of height at most n+1.  No exact sum is built mod m:
    the residues come from the S-fraction tree, in O(M(n) log n), where
    `kernel.series_wins` picks it for n + 1 terms at height n + 1, and
    from the O(n^2) gap-chain pass otherwise (wide moduli at small depth).
    Both arguments are checked before any weight is evaluated.
    """
    if n < 0:
        raise DomainError("truncation depth must be nonnegative")
    if modulus is not None and modulus < 2:
        raise DomainError(f"modulus must be at least 2, got {modulus}")
    bv = b.values(0, n + 1)
    if modulus is not None and kernel.series_wins(n + 1, modulus, n + 1):
        p_sums, q_sums = series.fraction_mod(bv, modulus, n + 1)
    else:
        p_sums, q_sums = _gap_chain_sums(bv, modulus)
        if modulus is not None:
            p_sums, q_sums = [c % modulus for c in p_sums], [c % modulus for c in q_sums]
    return PQPair(IntPolynomial(tuple(p_sums)), IntPolynomial(tuple(q_sums)), n)


def truncation_index(b: WeightFunction, modulus: int, bound: int) -> int | None:
    """Least k <= bound with modulus dividing b(0)...b(k), or None.

    None means eventual periodicity mod `modulus` is not certified within
    the bound; if no k ever works the residue sequence is not eventually
    periodic at all.
    """
    if modulus < 2:
        raise DomainError(f"modulus must be at least 2, got {modulus}")
    if bound < 0:
        raise DomainError("bound must be nonnegative")
    return kernel.vanishing_height(map(b, range(bound + 1)), modulus)


@dataclass(frozen=True)
class PeriodReport:
    """Cycle structure of a residue sequence over an examined window.

    period is None when no verified cycle was found within the window;
    certified records whether the truncation criterion guarantees eventual
    periodicity (it never asserts aperiodicity).
    """

    modulus: int
    preperiod: int | None
    period: int | None
    window: int
    certified: bool

    @property
    def found(self) -> bool:
        return self.period is not None


def _divisors(d: int) -> list[int]:
    small, large = [], []
    i = 1
    while i * i <= d:
        if d % i == 0:
            small.append(i)
            if i != d // i:
                large.append(d // i)
        i += 1
    return small + large[::-1]


def _match_length(seq: list[int], a: int, b: int) -> int:
    """Length of the longest common prefix of seq[a:] and seq[b:], a < b.

    Slices are compared in chunks that double while they match and halve
    once one does not, so a long match costs O(log) interpreted steps.
    """
    limit = len(seq) - b
    length, step = 0, 1
    while length < limit and (
        seq[a + length : a + length + step] == seq[b + length : b + length + step]
    ):
        length += step
        step *= 2
    while step > 1:
        step //= 2
        if seq[a + length : a + length + step] == seq[b + length : b + length + step]:
            length += step
    return length


def _z_function(seq: list[int]):
    """Yield Z[1], Z[2], ...: Z[i] is the length of the longest common prefix
    of seq and seq[i:] (Gusfield's Z-algorithm, linear in len(seq) overall)."""
    n = len(seq)
    z = [n]
    left = right = 0  # the rightmost match box seq[left:right] == seq[:right - left]
    for i in range(1, n):
        zi = min(right - i, z[i - left]) if i < right else 0
        if i + zi >= right:
            zi += _match_length(seq, zi, i + zi)
            left, right = i, i + zi
        z.append(zi)
        yield zi


def detect_period(
    residues,
    modulus: int,
    max_terms: int,
    state_width: int = 1,
    *,
    certified: bool = False,
) -> PeriodReport:
    """Find the cycle of a residue stream via first repeated state tuples.

    A repeat of a width-k tuple at distance d, first seen at j, suggests a
    cycle; the minimal period is the least divisor of d that verifies over
    the entire examined suffix, and the preperiod is then extended backwards
    as far as the repetition holds.  If no repeat verifies, the report
    carries period None ("undetected within window") rather than raising.

    Verification reads the Z-function of the window terms[0..N-1] reversed,
    computed on demand up to the largest shift asked for: Z[lam] is the
    length of the run, ending at the window's end, on which
    terms[t] == terms[t + lam].  So lam verifies from j iff
    lam + Z[lam] >= N - j, and its extended preperiod is N - lam - Z[lam].
    """
    if state_width < 1:
        raise DomainError("state width must be at least 1")
    if max_terms < 1:
        raise DomainError("window must contain at least one term")
    backward = [r % modulus for r in itertools.islice(iter(residues), max_terms)]
    backward.reverse()  # the window is read forwards through reversed(backward)
    n = len(backward)
    z = [n]
    z_rest = _z_function(backward)
    first: dict[tuple, int] = {}
    states = zip(*(itertools.islice(reversed(backward), s, None) for s in range(state_width)))
    for i, key in enumerate(states):
        j = first.setdefault(key, i)
        if j == i:
            continue
        d = i - j
        if d >= len(z):
            z.extend(itertools.islice(z_rest, d + 1 - len(z)))
        # a shift that holds from j makes its multiple d hold from j too
        if d + z[d] < n - j:
            continue
        lam = next(lam for lam in _divisors(d) if lam + z[lam] >= n - j)
        return PeriodReport(modulus, n - lam - z[lam], lam, n, certified)
    return PeriodReport(modulus, None, None, n, certified)


@dataclass(frozen=True)
class PurePeriodicityCheck:
    """Sufficient-condition verdict: deg P < deg Q and unit ends of Q mod m."""

    sufficient: bool
    reasons: tuple[str, ...]


def pure_periodicity_sufficient(pq: PQPair, modulus: int) -> PurePeriodicityCheck:
    """True iff deg P < deg Q and both ends of Q are units mod `modulus`.

    When true, the recurrence read off Q runs backwards as well, so the
    residue sequence of P/Q is purely periodic (preperiod 0).  A False
    verdict makes no claim about the sequence.
    """
    if modulus < 2:
        raise DomainError(f"modulus must be at least 2, got {modulus}")
    reasons = []
    if pq.P.degree >= pq.Q.degree:
        reasons.append(
            f"deg P = {pq.P.degree} is not strictly below deg Q = {pq.Q.degree}"
        )
    if math.gcd(pq.Q.constant, modulus) != 1:
        reasons.append(f"constant term {pq.Q.constant} of Q shares a factor with {modulus}")
    if math.gcd(pq.Q.leading, modulus) != 1:
        reasons.append(f"leading term {pq.Q.leading} of Q shares a factor with {modulus}")
    return PurePeriodicityCheck(not reasons, tuple(reasons))


def analyze_weight_period(
    b: WeightFunction,
    modulus: int,
    max_terms: int = 2048,
) -> PeriodReport:
    """End-to-end period analysis of the weighted Catalan residues mod m.

    When a truncation index k exists the DP is height-capped at k, the
    report is certified, and the cycle detector's state width is the degree
    of the truncated denominator Q mod m, whose recurrence the residues
    obey; otherwise the full DP runs uncertified with state width 4.  A
    window below 1 term raises DomainError and one above MAX_WINDOW terms
    ResourceLimitError, both before any residue or P/Q is computed.
    """
    if max_terms < 1:
        raise DomainError("need at least one term")
    if max_terms > MAX_WINDOW:
        raise ResourceLimitError(
            f"period window capped at {MAX_WINDOW} terms (requested {max_terms})"
        )
    k = truncation_index(b, modulus, DEFAULT_TRUNCATION_BOUND)
    if k is None:
        cap = None
        width = 4
        certified = False
    else:
        cap = k
        width = max(1, continued_fraction_pq(b, k, modulus).Q.degree)
        certified = True
    residues = catalan.weighted_catalan_series(b, max_terms - 1, height_cap=cap, modulus=modulus)
    return detect_period(residues, modulus, max_terms, width, certified=certified)
