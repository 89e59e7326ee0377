"""Morse link numbers L_n: the weighted Catalan numbers for b(x) = (2x+1)^2.

Provides exact values, p-adic valuation profiles of L_n, L_n - C_n and
L_n - 1, period verification modulo 7, 11 and powers of 3, and digit-by-
digit fitting of the p-adic shift alpha appearing in the conjectured
valuation formulas.  All conjecture reports are evidence generators: they
state consistency over a window, never truth.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import catalan, periodicity
from .arith import digit_sum, is_prime, valuation
from .errors import DomainError
from .weights import WeightFunction

__all__ = [
    "MORSE",
    "morse_weight",
    "morse_number",
    "morse_series",
    "ValuationProfile",
    "ProfileRow",
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
_SMALL_EXACT = 8
_RESIDUE_BITS = 62
_RESIDUE_BITS_MAX = 2048


def morse_weight(power: int = 1) -> WeightFunction:
    """Weight (2x+1)^(2*power); power 1 is the Morse link weight."""
    if power < 1:
        raise DomainError("power must be at least 1")
    return MORSE if power == 1 else WeightFunction.preset(f"morse-power:{power}")


def morse_number(n: int) -> int:
    """Exact number of combinatorial types of Morse links of order n."""
    return catalan.weighted_catalan(MORSE, n)


def morse_series(n_max: int) -> list[int]:
    """Exact L_0..L_{n_max}."""
    return catalan.weighted_catalan_series(MORSE, n_max)


def _expression_values(
    weight: WeightFunction, expr: str, n_max: int, modulus: int | None = None
) -> list[int]:
    """The expression for n = 0..n_max: exact, or reduced mod `modulus`."""
    if modulus is None:
        lt = catalan.weighted_catalan_series(weight, n_max)
    else:
        lt = catalan.weighted_catalan_series_mod(weight, n_max, modulus)
    if expr == "cb":
        return lt
    if expr == "cb-1":
        diff = [v - 1 for v in lt]
    elif expr == "cb-c":
        diff = [v - c for v, c in zip(lt, catalan.catalan_series(n_max))]
    else:
        raise DomainError(f"unknown expression '{expr}'; expected one of {EXPRESSIONS}")
    return diff if modulus is None else [v % modulus for v in diff]


def _initial_exponent(p: int) -> int:
    e = 1
    while p ** (e + 1) < 1 << _RESIDUE_BITS:
        e += 1
    return e


def _certified_valuations(
    weight: WeightFunction, expr: str, p: int, n_max: int
) -> list[int | None]:
    """xi_p of the expression for n = 0..n_max; None marks an exact zero.

    Small n are handled with exact integers.  Larger n use residues modulo
    p^K: a nonzero residue pins the valuation exactly, and K doubles until
    every residue in the window is nonzero.  Rows still zero at the depth
    cap (exact zeros, or valuations beyond it) are resolved from exact
    values.
    """
    small = min(n_max, _SMALL_EXACT)
    exact = _expression_values(weight, expr, small)
    vals: list[int | None] = [
        None if v == 0 else valuation(p, v) for v in exact
    ]
    if n_max <= small:
        return vals
    rows = range(small + 1, n_max + 1)
    exponent = _initial_exponent(p)
    while True:
        residues = _expression_values(weight, expr, n_max, p**exponent)
        zero_rows = [n for n in rows if not residues[n]]
        if not zero_rows or p ** (2 * exponent) > 1 << _RESIDUE_BITS_MAX:
            break
        exponent *= 2
    vals.extend(valuation(p, residues[n]) if residues[n] else None for n in rows)
    if zero_rows:
        exact = _expression_values(weight, expr, zero_rows[-1])
        for n in zero_rows:
            vals[n] = valuation(p, exact[n]) if exact[n] else None
    return vals


@dataclass(frozen=True)
class ProfileRow:
    n: int
    valuation: int | None  # None = expression is exactly zero ("infinite")
    value_bits: int | None  # bit length of the exact value, when computed


@dataclass(frozen=True)
class ValuationProfile:
    """Per-index p-adic valuations of one expression over a range of n."""

    expression: str
    p: int
    weight_id: str
    mode: str  # "exact" | "residue"
    rows: tuple[ProfileRow, ...]

    def to_json_dict(self) -> dict:
        return {
            "expression": self.expression,
            "p": self.p,
            "weight": self.weight_id,
            "mode": self.mode,
            "rows": [
                {"n": r.n, "valuation": r.valuation, "value_bits": r.value_bits}
                for r in self.rows
            ],
        }

    def to_csv(self) -> str:
        with_bits = self.mode == "exact"
        header = "n,value_bits,valuation" if with_bits else "n,valuation"
        lines = [header]
        for r in self.rows:
            val = "inf" if r.valuation is None else str(r.valuation)
            if with_bits:
                lines.append(f"{r.n},{r.value_bits},{val}")
            else:
                lines.append(f"{r.n},{val}")
        return "\n".join(lines) + "\n"


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
    if n_max <= _EXACT_PROFILE_MAX:
        values = _expression_values(weight, expr, n_max)
        rows = tuple(
            ProfileRow(
                n,
                None if values[n] == 0 else valuation(p, values[n]),
                values[n].bit_length(),
            )
            for n in n_range
        )
        mode = "exact"
    else:
        vals = _certified_valuations(weight, expr, p, n_max)
        rows = tuple(ProfileRow(n, vals[n], None) for n in n_range)
        mode = "residue"
    return ValuationProfile(expr, p, weight.describe(), mode, rows)


@dataclass(frozen=True)
class PadicConflict:
    n: int
    expected: int
    observed: int


@dataclass(frozen=True)
class PadicFit:
    """Digit-by-digit reconstruction of a p-adic integer from valuation data.

    digits are base-p, least significant first, and cover exactly the
    levels at which the data pinned a unique residue.
    """

    p: int
    digits: tuple[int, ...]
    certified_depth: int
    consistency: bool
    conflicts: tuple[PadicConflict, ...]

    @property
    def residue(self) -> int:
        return sum(d * self.p**i for i, d in enumerate(self.digits))

    @property
    def modulus(self) -> int:
        return self.p**self.certified_depth

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "digits_lsb_first": list(self.digits),
            "certified_depth": self.certified_depth,
            "residue": self.residue,
            "modulus": self.modulus,
            "consistency": self.consistency,
            "conflicts": [
                {"n": c.n, "expected": c.expected, "observed": c.observed}
                for c in self.conflicts
            ],
        }


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

    current = [0]
    unique: tuple[int, int] = (0, 0)  # (level, residue)
    for level in range(1, depth + 1):
        step = p ** (level - 1)
        candidates = [r + d * step for r in current for d in range(p)]
        survivors = [r for r in candidates if not _fit_violations(data, p, r, level)]
        if not survivors:
            best = min(candidates, key=lambda r: len(_fit_violations(data, p, r, level)))
            lvl, res = unique
            digits = _digits_of(res, p, lvl)
            return PadicFit(
                p,
                digits,
                lvl,
                False,
                tuple(_fit_violations(data, p, best, level)[:16]),
            )
        current = survivors
        if len(survivors) == 1:
            unique = (level, survivors[0])
    lvl, res = unique
    return PadicFit(p, _digits_of(res, p, lvl), lvl, True, ())


def _digits_of(residue: int, p: int, depth: int) -> tuple[int, ...]:
    out = []
    for _ in range(depth):
        residue, d = divmod(residue, p)
        out.append(d)
    return tuple(out)


@dataclass(frozen=True)
class Mod3rPeriodCheck:
    """Detected period of L_n mod 3^r against the divisor bound 2*3^(r-3)."""

    r: int
    bound: int
    report: periodicity.PeriodReport
    divides: bool

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "bound": self.bound,
            "divides": self.divides,
            "report": self.report.to_json_dict(),
        }


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
    return Mod3rPeriodCheck(r, bound, report, divides)


def conjecture_report(which: str, n_max: int, depth: int = 6) -> dict:
    """Consistency report for one of the valuation conjectures.

    which is "2adic", "2adic-general:k", "5adic" or "3adic".  The report
    always records the window and the first unexplained datum, if any.
    """
    name, sep, arg = which.partition(":")
    if name == "2adic" and not sep:
        return _report_2adic(n_max, depth, 1)
    if name == "2adic-general":
        try:
            k = int(arg) if sep else 2
        except ValueError:
            raise DomainError(f"bad power in '{which}'") from None
        return _report_2adic(n_max, depth, k)
    if name == "5adic":
        return _report_5adic(n_max, depth)
    if name == "3adic":
        return _report_3adic(n_max, depth)
    raise DomainError(
        f"unknown conjecture '{which}'; expected 2adic, 2adic-general:k, 5adic or 3adic"
    )


def _check_fit(fit: PadicFit, rows, offset) -> tuple[int, int, dict | None]:
    """Test each row (n, v) against v = offset(n) + xi_p(n - alpha), alpha as fitted.

    Returns (verified, unverifiable, first_unexplained).  A row with
    n = alpha mod p^depth is unverifiable: its xi_p(n - alpha) is beyond the
    fitted depth.  Nothing is verified when the fit pinned no digit.
    """
    verified = unverifiable = 0
    first_unexplained = None
    if fit.certified_depth:
        a, md = fit.residue, fit.modulus
        for n, v in rows:
            d = (n - a) % md
            if d == 0:
                unverifiable += 1
                continue
            predicted = offset(n) + valuation(fit.p, d)
            verified += 1
            if predicted != v and first_unexplained is None:
                first_unexplained = {"n": n, "observed": v, "predicted": predicted}
    return verified, unverifiable, first_unexplained


def _report_2adic(n_max: int, depth: int, power: int) -> dict:
    """Fit xi_2(L^(k)_n - C_n) = s_2(n) + xi_2(n - alpha) + c over 2 <= n <= n_max.

    c is estimated as the minimum of xi_2(...) - s_2(n) over the window,
    since xi_2(n - alpha) vanishes on a positive-density set of n.
    """
    if n_max < 8:
        raise DomainError("window too small to estimate the additive constant")
    weight = morse_weight(power)
    vals = _certified_valuations(weight, "cb-c", 2, n_max)
    rows = [(n, vals[n]) for n in range(2, n_max + 1) if vals[n] is not None]
    zero_rows = [n for n in range(2, n_max + 1) if vals[n] is None]
    c = min(v - digit_sum(2, n) for n, v in rows)
    data = [(n, v - digit_sum(2, n) - c) for n, v in rows]
    fit = fit_padic_alpha(data, 2, depth)
    verified, unverifiable, first_unexplained = _check_fit(
        fit, rows, lambda n: digit_sum(2, n) + c
    )
    return {
        "conjecture": f"xi_2(L^({power})_n - C_n) = s_2(n) + xi_2(n - alpha) + c",
        "window": [2, n_max],
        "c": c,
        "fit": fit.to_json_dict(),
        "zero_rows": zero_rows,
        "verified_rows": verified,
        "unverifiable_rows": unverifiable,
        "first_unexplained": first_unexplained,
        "consistent_over_window": fit.consistency and first_unexplained is None,
    }


def _report_5adic(n_max: int, depth: int) -> dict:
    """Check xi_5(L_n) = 2 for even n and fit xi_5(L_n) = xi_5(n - alpha) + 3 for odd n."""
    if n_max < 16:
        raise DomainError("window too small")
    vals = _certified_valuations(MORSE, "cb", 5, n_max)
    even_exceptions = [
        {"n": n, "valuation": vals[n]}
        for n in range(4, n_max + 1, 2)
        if vals[n] != 2
    ]
    odd_rows = [(n, vals[n]) for n in range(5, n_max + 1, 2) if vals[n] is not None]
    shallow = [{"n": n, "valuation": v} for n, v in odd_rows if v < 3]
    data = [(n, v - 3) for n, v in odd_rows if v >= 3]
    fit = fit_padic_alpha(data, 5, depth)
    verified, unverifiable, first_unexplained = _check_fit(fit, odd_rows, lambda n: 3)
    return {
        "conjecture": "xi_5(L_n) = 2 (n even) | xi_5(n - alpha) + 3 (n odd), n >= 4",
        "window": [4, n_max],
        "even_all_2": not even_exceptions,
        "even_exceptions": even_exceptions[:8],
        "odd_shallow_rows": shallow[:8],
        "fit": fit.to_json_dict(),
        "verified_rows": verified,
        "unverifiable_rows": unverifiable,
        "first_unexplained": first_unexplained,
        "consistent_over_window": (
            fit.consistency and not even_exceptions and not shallow
            and first_unexplained is None
        ),
    }


def _report_3adic(n_max: int, depth: int) -> dict:
    """Tabulate xi_3(L_n - 1) and test the grouping by (xi_3(n - alpha), next digit).

    Even n are tabulated (expected value 2) but excluded from the alpha
    fit, which runs over odd n >= 3 by descending through the residue
    classes mod 2*3^j that keep refining.
    """
    if n_max < 54:
        raise DomainError("window too small to refine residue classes")
    vals = _certified_valuations(MORSE, "cb-1", 3, n_max)
    even_values = sorted({vals[n] for n in range(2, n_max + 1, 2) if vals[n] is not None})
    odd_rows = {n: vals[n] for n in range(3, n_max + 1, 2) if vals[n] is not None}

    # Descend through classes mod 2*3^j, following the class whose values
    # still vary (it contains alpha); the others must be single-valued.
    max_level = depth
    while 2 * 3**max_level > max(n_max // 6, 2):
        max_level -= 1
    max_level = max(max_level, 1)
    class_tables: dict[int, dict[int, list[int]]] = {}
    anchor = 1  # odd class representative mod 2*3^level containing alpha
    level_reached = 0
    for level in range(1, max_level + 1):
        mod = 2 * 3**level
        if level == 1:
            reps = [r for r in range(1, mod, 2)]
        else:
            prev_mod = 2 * 3 ** (level - 1)
            reps = [anchor + i * prev_mod for i in range(3)]
        table = {}
        for rep in reps:
            members = [v for n, v in odd_rows.items() if n % mod == rep % mod]
            table[rep % mod] = sorted(set(members))
        class_tables[mod] = table
        populated = {rep: vs for rep, vs in table.items() if vs}
        if not populated:
            break
        anchor = max(populated, key=lambda rep: (max(populated[rep]), rep))
        level_reached = level

    alpha_mod3 = anchor % 3**level_reached if level_reached else 0
    digits = _digits_of(alpha_mod3, 3, level_reached)

    groups: dict[str, list[int]] = {}
    md = 3**level_reached if level_reached else 1
    for n, v in odd_rows.items():
        d = (n - alpha_mod3) % md
        if level_reached == 0 or d == 0:
            key = f"xi>={level_reached}"
        else:
            xi = valuation(3, d)
            digit = (d // 3**xi) % 3
            key = f"xi={xi},digit={digit}"
        groups.setdefault(key, [])
        if v not in groups[key]:
            groups[key].append(v)
    for vs in groups.values():
        vs.sort()
    single_valued = all(
        len(vs) == 1 for key, vs in groups.items() if not key.startswith("xi>=")
    )
    return {
        "conjecture": "xi_3(L_n - 1) depends only on (xi_3(n - alpha), next digit) for odd n >= 3",
        "window": [2, n_max],
        "even_value_set": even_values,
        "classes": {
            str(mod): {str(rep): vs for rep, vs in table.items()}
            for mod, table in class_tables.items()
        },
        "alpha_digits_lsb_first": list(digits),
        "alpha_mod": alpha_mod3,
        "alpha_modulus": md,
        "groups": groups,
        "single_valued": single_valued,
        "consistent_over_window": single_valued and even_values == [2],
    }
