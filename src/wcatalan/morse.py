"""Morse link numbers L_n: the weighted Catalan numbers for b(x) = (2x+1)^2.

Provides exact values, p-adic valuation profiles of L_n, L_n - C_n and
L_n - 1 (held as columns, row i belonging to n_range[i]), period
verification modulo 7, 11 and powers of 3, and digit-by-digit fitting of
the p-adic shift alpha appearing in the conjectured valuation formulas.
All conjecture reports are evidence generators: they state consistency
over a window, never truth.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate

from . import catalan, kernel, periodicity, series
from .arith import digit_sum, is_prime, valuation
from .errors import DomainError
from .weights import WeightFunction

__all__ = [
    "MORSE",
    "morse_weight",
    "morse_number",
    "ValuationProfile",
    "valuation_profile",
    "PadicFit",
    "PadicConflict",
    "fit_padic_alpha",
    "Mod3rPeriodCheck",
    "mod3r_period_check",
    "conjecture_report",
    "EXPRESSIONS",
]

MORSE = WeightFunction.preset("morse")

EXPRESSIONS = ("cb", "cb-c", "cb-1")

_EXACT_PROFILE_MAX = 320


def morse_weight(power: int = 1) -> WeightFunction:
    """Weight (2x+1)^(2*power); power 1 is the Morse link weight."""
    if power < 1:
        raise DomainError("power must be at least 1")
    return MORSE if power == 1 else WeightFunction.preset(f"morse-power:{power}")


def morse_number(n: int) -> int:
    """Exact number of combinatorial types of Morse links of order n."""
    return catalan.weighted_catalan(MORSE, n)


def _subtrahend(expr: str, n_max: int) -> list[int] | None:
    """What the expression subtracts from C_n^b for n = 0..n_max; None for cb."""
    if expr == "cb":
        return None
    if expr == "cb-1":
        return [1] * (n_max + 1)
    if expr == "cb-c":
        return catalan.catalan_series(n_max)
    raise DomainError(f"unknown expression '{expr}'; expected one of {EXPRESSIONS}")


def _difference(values: list[int], minus: list[int] | None, modulus: int | None) -> list[int]:
    """values - minus termwise, over as many terms as `values` has."""
    if minus is None:
        return values
    diff = [v - c for v, c in zip(values, minus)]
    return diff if modulus is None else [v % modulus for v in diff]


def _expression_values(weight: WeightFunction, expr: str, n_max: int) -> list[int]:
    """The expression for n = 0..n_max, exactly."""
    lt = catalan.weighted_catalan_series(weight, n_max)
    return _difference(lt, _subtrahend(expr, n_max), None)


def _first_exponent(p: int, n_max: int) -> int:
    """Largest K whose residues mod p^K keep every product slot in one word.

    At least 1: a p too wide for the word budget starts at p^1.
    """
    k = 1
    while series.fits_word(p ** (k + 1), n_max + 1):
        k += 1
    return k


def _value_bound(n: int, peak: int, minus: list[int] | None) -> int:
    """A bound on |expression at n|, where `peak` is the largest |b(x)| over
    the levels x a nonzero path of semilength n steps up from.

    C_n^b sums C_n <= 4^n paths of weight at most peak^n, and 4 peak <
    2^(bits(peak) + 2); the subtrahend, 1 or C_n, adds its own size.
    """
    paths = 1 << n * (peak.bit_length() + 2) if peak or not n else 0
    return paths + (minus[n] if minus else 0)


def _certified_valuations(
    weight: WeightFunction, expr: str, p: int, n_max: int
) -> list[int | None]:
    """xi_p of the expression for n = 0..n_max; None marks an exact zero.

    The weights b(0..n_max-1) are evaluated once, and the rows climb one
    ladder of residues mod p^K.  A nonzero residue pins the valuation
    exactly.  A zero residue is an exact zero once p^K exceeds the row's
    value bound (`_value_bound`): a path of nonzero weight steps up only
    from levels below the first zero weight h, so |C_n^b| <= C_n M^n with
    M the largest |b(x)| over x < min(n, h).  M is 0 for n >= 1 when
    b(0) = 0, so the first rung settles every row of such a weight.  The
    first K is the largest whose Kronecker slots fit one 64-bit word for
    this window; K then doubles, on a window cut at the last row still
    open, until every row is nonzero or proven zero.  For cb-c, the rows n
    whose weights b(0..n-1) are all 1 are exact zeros, since C_n^b = C_n
    there; they never enter the ladder, where they would climb past 2n bits.
    """
    minus = _subtrahend(expr, n_max)
    bvals = weight.values(0, n_max)
    vals: list[int | None] = [None] * (n_max + 1)
    first = 0
    if expr == "cb-c":
        # C_n^b depends on b(0..n-1) only: while those are all 1, C_n^b = C_n
        while first < n_max and bvals[first] == 1:
            first += 1
        first += 1
    pending = list(range(first, n_max + 1))
    peak = None  # peak[k] = max |b(x)| over x < k, up to the vanishing height
    exponent = _first_exponent(p, n_max)
    while pending:
        modulus = p**exponent
        residues = _difference(kernel.dyck_dp_mod(bvals, pending[-1], modulus), minus, modulus)
        open_rows = []
        for n in pending:
            if residues[n]:
                vals[n] = valuation(p, residues[n])
                continue
            if peak is None:  # built on the first zero residue only
                peak = [0, *accumulate(map(abs, bvals[: kernel.vanishing_height(bvals)]), max)]
            if modulus <= _value_bound(n, peak[min(n, len(peak) - 1)], minus):
                open_rows.append(n)
        pending = open_rows
        exponent *= 2
    return vals


class ValuationProfile(
    namedtuple("ValuationProfile", "expression p weight_id mode n_range valuations value_bits")
):
    """Per-index p-adic valuations of one expression over a range of n.

    The rows are held as columns: `valuations[i]` and `value_bits[i]`
    belong to n = `n_range[i]`, a range.  A valuation of None marks an
    exact zero ("infinite"); `value_bits`, the bit lengths of the exact
    values, is None in residue mode, where no value is computed.  mode is
    "exact" or "residue".
    """

    __slots__ = ()

    def to_csv(self) -> str:
        vals = ["inf" if v is None else str(v) for v in self.valuations]
        if self.value_bits is None:
            lines = map("{},{}".format, self.n_range, vals)
            header = "n,valuation"
        else:
            lines = map("{},{},{}".format, self.n_range, self.value_bits, vals)
            header = "n,value_bits,valuation"
        return header + "\n" + "\n".join(lines) + "\n"


def valuation_profile(
    expr: str,
    p: int,
    n_range: range,
    weight: WeightFunction = MORSE,
) -> ValuationProfile:
    """xi_p of the expression for each n in the range, exactly.

    Ranges reaching past a desk-scale bound switch from exact integers to
    certified residues mod p^K (the valuation is still exact; only the
    value_bits column is dropped).
    """
    if not is_prime(p):
        raise DomainError(f"valuation profiles need a prime p, got {p}")
    if len(n_range) == 0:
        raise DomainError("empty range")
    if n_range.start < 0 or n_range.step != 1:
        raise DomainError("range must be a nonnegative unit-step range")
    n_max = n_range.stop - 1
    if n_max > _EXACT_PROFILE_MAX:
        vals = _certified_valuations(weight, expr, p, n_max)[n_range.start :]
        return ValuationProfile(expr, p, weight.describe(), "residue", n_range, vals, None)
    values = _expression_values(weight, expr, n_max)[n_range.start :]
    vals = [valuation(p, v) if v else None for v in values]
    bits = [v.bit_length() for v in values]
    return ValuationProfile(expr, p, weight.describe(), "exact", n_range, vals, bits)


class PadicConflict(namedtuple("PadicConflict", "n expected observed")):
    """A datum (n, expected valuation) that the fit's residue r fails.

    observed is xi_p(n - r), capped at the level tested.
    """

    __slots__ = ()


class PadicFit(
    namedtuple(
        "PadicFit",
        "p digits_lsb_first certified_depth residue modulus consistency conflicts",
    )
):
    """Digit-by-digit reconstruction of a p-adic integer from valuation data.

    The digits are base-p, least significant first, and cover exactly the
    levels at which the data pinned a unique residue: `residue` is their
    value mod `modulus` = p^certified_depth.  conflicts is a tuple of
    `PadicConflict`, empty when the fit is consistent.
    """

    __slots__ = ()


def _capped_valuation(p: int, value: int, cap: int) -> int:
    return cap if value == 0 else min(valuation(p, value), cap)


def _fit_violations(data, p: int, r: int, level: int) -> list[PadicConflict]:
    # xi_p(d) = t < level  iff  p^t | d and p^(t+1) does not divide d
    powers = [p**k for k in range(level + 1)]
    out = []
    for n, t in data:
        d = n - r
        if t < level:
            consistent = d % powers[t] == 0 and d % powers[t + 1] != 0
        else:
            consistent = d % powers[level] == 0
        if not consistent:
            out.append(PadicConflict(n, t, _capped_valuation(p, d, level)))
    return out


def fit_padic_alpha(data, p: int, depth: int) -> PadicFit:
    """Reconstruct alpha mod p^depth from data points (n, t).

    Each datum asserts xi_p(n - alpha) = t, i.e. alpha = n mod p^t and
    alpha != n mod p^(t+1).  Residues are filtered level by level; the
    digits of the unique survivor are reported, or the conflict list of the
    least-violating candidate when no residue survives.
    """
    data = [(int(n), int(t)) for n, t in data]
    if not data:
        raise DomainError("the fitter needs at least one datum")
    if any(t < 0 for _, t in data):
        raise DomainError("residual valuations must be nonnegative")
    if depth < 1:
        raise DomainError("depth must be at least 1")
    if p < 2:
        raise DomainError("p must be at least 2")

    # Above level max t + 1 a datum's test reads r mod p^(max t + 1) only, so
    # every lift of every survivor survives and none is unique again.  Below,
    # some datum has t >= level - 1, and every survivor r has r = n mod
    # p^(level - 1) for it: the survivor r is unique, and `_level_digits`
    # decides its next digit.
    r = 0
    unique: tuple[int, int] = (0, 0)  # (level, residue)
    live = data
    for level in range(1, min(depth, max(t for _, t in data) + 1) + 1):
        live, digits = _level_digits(live, p, level)
        step = p ** (level - 1)
        if not digits:
            lvl, res = unique
            candidates = [r + d * step for d in range(p)]
            # the least-violating candidate's conflicts, the first on a tie
            fewest = min((_fit_violations(data, p, c, level) for c in candidates), key=len)
            return PadicFit(p, _digits_of(res, p, lvl), lvl, res, p**lvl, False, tuple(fewest[:16]))
        if len(digits) > 1:
            break  # no datum has t >= level: this is the last level
        r += digits[0] * step
        unique = (level, r)
    lvl, res = unique
    return PadicFit(p, _digits_of(res, p, lvl), lvl, res, p**lvl, True, ())


def _level_digits(data, p: int, level: int) -> tuple[list[tuple[int, int]], list[int]]:
    """The data with t >= level - 1, and the digits they allow at place
    level - 1 of the unique survivor r mod p^(level - 1).

    A datum with t < level - 1 tests r mod p^(t + 1) only, which the
    survivor already passed.  The rest have n = r mod p^(level - 1), so n's
    own digit at place level - 1 decides: t >= level forces it, since
    p^level divides n - alpha, and t = level - 1 forbids it.
    """
    step = p ** (level - 1)
    live = [(n, t) for n, t in data if t >= level - 1]
    forced = {n // step % p for n, t in live if t >= level}
    barred = {n // step % p for n, t in live if t < level}
    if len(forced) > 1:
        return live, []
    return live, sorted((forced or set(range(p))) - barred)


def _digits_of(residue: int, p: int, depth: int) -> tuple[int, ...]:
    out = []
    for _ in range(depth):
        residue, d = divmod(residue, p)
        out.append(d)
    return tuple(out)


class Mod3rPeriodCheck(namedtuple("Mod3rPeriodCheck", "r bound divides report")):
    """Detected period of L_n mod 3^r against the divisor bound 2*3^(r-3).

    report is the `periodicity.PeriodReport` of the residues.
    """

    __slots__ = ()


def mod3r_period_check(r: int, window: int | None = None) -> Mod3rPeriodCheck:
    """Detect the eventual period of L_n mod 3^r and test it against 2*3^(r-3).

    Certified by the truncation criterion: the prefix products of
    (2x+1)^2 accumulate powers of 3 at x = 1, 4, 13, ... so a truncation
    index always exists.
    """
    if r < 3:
        raise DomainError("the divisor bound is stated for r >= 3")
    bound = 2 * 3 ** (r - 3)
    terms = window if window is not None else max(200, 22 * bound)
    report = periodicity.analyze_weight_period(MORSE, 3**r, max_terms=terms)
    divides = report.found and bound % report.period == 0
    return Mod3rPeriodCheck(r, bound, divides, report)


# One row per conjecture: its statement, p, the expression, the window's
# first n, the least n_max it takes and the refusal below that.
_CONJECTURES = {
    "2adic": ("xi_2(L^({power})_n - C_n) = s_2(n) + xi_2(n - alpha) + c", 2, "cb-c", 2, 8,
              "window too small to estimate the additive constant"),
    "5adic": ("xi_5(L_n) = 2 (n even) | xi_5(n - alpha) + 3 (n odd), n >= 4", 5, "cb", 4, 16,
              "window too small"),
    "3adic": ("xi_3(L_n - 1) depends only on (xi_3(n - alpha), next digit) for odd n >= 3",
              3, "cb-1", 2, 54, "window too small to refine residue classes"),
}


def conjecture_report(which: str, n_max: int, depth: int = 6) -> dict:
    """Consistency report for one of the valuation conjectures.

    which is "2adic", "2adic-general:k" (the 2adic row at power k, 2 by
    default), "5adic" or "3adic".  The id, the window, the power and the
    depth are checked before any valuation is computed.  The report always
    records the window and the first unexplained datum, if any; the 2adic
    and 5adic reports hold their `PadicFit` under "fit".
    """
    name, sep, arg = which.partition(":")
    power = 1
    if name == "2adic-general":
        try:
            power = int(arg) if sep else 2
        except ValueError:
            raise DomainError(f"bad power in '{which}'") from None
        name = "2adic"
    elif sep or name not in _CONJECTURES:
        raise DomainError(
            f"unknown conjecture '{which}'; expected 2adic, 2adic-general:k, 5adic or 3adic"
        )
    statement, p, expr, first, least, refusal = _CONJECTURES[name]
    if n_max < least:
        raise DomainError(refusal)
    weight = morse_weight(power)
    if depth < 1:
        raise DomainError("depth must be at least 1")
    vals = _certified_valuations(weight, expr, p, n_max)
    report = {"conjecture": statement.format(power=power), "window": [first, n_max]}
    if name == "3adic":
        return report | _descend_3adic(vals, n_max, depth)
    if name == "2adic":
        window = range(first, n_max + 1)
        rows = [(n, vals[n]) for n in window if vals[n] is not None]
        # c is the least xi_2(...) - s_2(n) over the window, since
        # xi_2(n - alpha) vanishes on a positive-density set of n
        c = min(v - digit_sum(2, n) for n, v in rows)
        fit, checks = _fit_and_check(rows, p, lambda n: digit_sum(2, n) + c, depth)
        zero_rows = [n for n in window if vals[n] is None]
        report.update(c=c, fit=fit, zero_rows=zero_rows)
        exceptions = []
    else:
        # xi_5(L_n) = 2 for even n >= 4; the odd rows below the offset 3 are shallow
        even = [{"n": n, "valuation": vals[n]} for n in range(4, n_max + 1, 2) if vals[n] != 2]
        odd_rows = [(n, vals[n]) for n in range(5, n_max + 1, 2) if vals[n] is not None]
        shallow = [{"n": n, "valuation": v} for n, v in odd_rows if v < 3]
        fit, checks = _fit_and_check(odd_rows, p, lambda n: 3, depth)
        report.update(even_all_2=not even, even_exceptions=even[:8])
        report.update(odd_shallow_rows=shallow[:8], fit=fit)
        exceptions = even + shallow
    report.update(checks)
    report["consistent_over_window"] = (
        fit.consistency and not exceptions and checks["first_unexplained"] is None
    )
    return report


def _fit_and_check(rows, p: int, offset, depth: int) -> tuple[PadicFit, dict]:
    """Fit alpha to v = offset(n) + xi_p(n - alpha), then test every row (n, v).

    The fit reads the rows with v >= offset(n).  A row with n = alpha mod
    p^depth is unverifiable: its xi_p(n - alpha) is beyond the fitted
    depth.  Nothing is verified when the fit pinned no digit.
    """
    shifted = [(n, v, offset(n)) for n, v in rows]
    fit = fit_padic_alpha([(n, v - o) for n, v, o in shifted if v >= o], p, depth)
    verified = unverifiable = 0
    first_unexplained = None
    if fit.certified_depth:
        a, md = fit.residue, fit.modulus
        for n, v, o in shifted:
            d = (n - a) % md
            if d == 0:
                unverifiable += 1
                continue
            predicted = o + valuation(p, d)
            verified += 1
            if predicted != v and first_unexplained is None:
                first_unexplained = {"n": n, "observed": v, "predicted": predicted}
    return fit, {
        "verified_rows": verified,
        "unverifiable_rows": unverifiable,
        "first_unexplained": first_unexplained,
    }


def _descend_3adic(vals: list[int | None], n_max: int, depth: int) -> dict:
    """Group xi_3(L_n - 1) over odd n by (xi_3(n - alpha), next digit).

    Even n >= 2 are tabulated (expected value 2) and odd n >= 3 descend.
    Over odd n, the classes mod 2*3^level refine level by level, following
    the class whose values still vary (it contains alpha); the others must
    be single-valued.  The levels climb to depth while 2*3^level <= n_max // 6.
    """
    even_values = sorted({vals[n] for n in range(2, n_max + 1, 2) if vals[n] is not None})
    odd_rows = [(n, vals[n]) for n in range(3, n_max + 1, 2) if vals[n] is not None]
    max_level = 1
    while max_level < depth and 2 * 3 ** (max_level + 1) <= n_max // 6:
        max_level += 1
    class_tables: dict[int, dict[int, list[int]]] = {}
    anchor = 1  # odd class representative mod 2*3^level containing alpha
    level_reached = 0
    for level in range(1, max_level + 1):
        mod = 2 * 3**level
        table = {
            rep: sorted({v for n, v in odd_rows if n % mod == rep})
            for rep in range(anchor, mod, mod // 3)
        }
        class_tables[mod] = table
        populated = {rep: vs for rep, vs in table.items() if vs}
        if not populated:
            break
        anchor = max(populated, key=lambda rep: (max(populated[rep]), rep))
        level_reached = level

    md = 3**level_reached
    alpha = anchor % md
    groups: dict[str, set[int]] = {}
    for n, v in odd_rows:
        d = (n - alpha) % md
        if d == 0:  # always at level 0, where md = 1
            key = f"xi>={level_reached}"
        else:
            xi = valuation(3, d)
            key = f"xi={xi},digit={(d // 3**xi) % 3}"
        groups.setdefault(key, set()).add(v)
    single_valued = all(
        len(vs) == 1 for key, vs in groups.items() if not key.startswith("xi>=")
    )
    return {
        "even_value_set": even_values,
        "classes": {
            str(mod): {str(rep): vs for rep, vs in table.items()}
            for mod, table in class_tables.items()
        },
        "alpha_digits_lsb_first": list(_digits_of(alpha, 3, level_reached)),
        "alpha_mod": alpha,
        "alpha_modulus": md,
        "groups": {key: sorted(vs) for key, vs in groups.items()},
        "single_valued": single_valued,
        "consistent_over_window": single_valued and even_values == [2],
    }
