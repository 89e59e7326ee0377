"""Reference answers for every job kind, computed outside the timed region.

None of them runs the engine a job exercises.  They come from:
- the paper's constants: alpha = 23 mod 64 with c = 2 (2-adic), alpha = 35
  mod 125 (5-adic), the periods 12 mod 7 and 55 mod 11, and periods mod 3^r
  dividing 2*3^(r-3);
- closed forms: C(qn, n)/((q-1)n + 1), xi_2(L_n) = s_2(n+1) - 1, and the sum
  of orbit sizes being the q-ary Catalan number;
- the continued fraction of the generating function, evaluated bottom-up
  here and expanded as a power series (never the Dyck DP), with big exact
  values compared through residues mod 2^64 and the prime 2^127 - 1;
- small counting recurrences and brute force over a single orbit.

`check(job, text)` returns None when the output is right, else a message.
"""

from __future__ import annotations

import json
import math
from operator import mul
from functools import lru_cache

_PRESETS = {"morse": (1, 4, 4), "ones": (1,)}


def weight_coeffs(spec: str) -> tuple[int, ...]:
    kind, _, rest = spec.partition(":")
    if kind == "preset":
        if rest.startswith("morse-power:"):
            out = [1]
            for _ in range(2 * int(rest.split(":")[1])):
                out = [a + 2 * b for a, b in zip(out + [0], [0] + out)]
            return tuple(out)
        return _PRESETS[rest]
    return tuple(int(c) for c in rest.split(","))


def weight_values(coeffs, count: int) -> list[int]:
    out = []
    for x in range(count):
        acc = 0
        for c in reversed(coeffs):
            acc = acc * x + c
        out.append(acc)
    return out


def _strip(poly: list[int]) -> list[int]:
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def continuant_pq(bvals, depth: int, modulus: int | None = None) -> tuple[list[int], list[int]]:
    """P, Q of 1/(1 - b0 x/(1 - b1 x/(... (1 - b_depth x)))), built bottom-up.

    Each level maps the tail N/D to D/(D - b_k x N).
    """
    num, den = [1], [1, -bvals[depth]]
    for k in range(depth - 1, -1, -1):
        bk = bvals[k]
        shifted = [0] + num
        den += [0] * (len(shifted) - len(den))
        if modulus is None:
            den_new = [d - bk * c for d, c in zip(den, shifted)]
        else:
            den_new = [(d - bk * c) % modulus for d, c in zip(den, shifted)]
        num, den = den, den_new + den[len(shifted):]
    if modulus is not None:
        num = [c % modulus for c in num]
        den = [c % modulus for c in den]
    return _strip(num), _strip(den)


def series_divide(P: list[int], Q: list[int], order: int, modulus: int | None = None) -> list[int]:
    """First `order` coefficients of P/Q for Q(0) = 1, over Z or Z/mZ."""
    tail = [-c for c in Q[1:]][::-1]  # -q_d .. -q_1
    deg = len(tail)
    out: list[int] = []
    for n in range(order):
        lo = max(0, n - deg)
        acc = (P[n] if n < len(P) else 0) + sum(map(mul, tail[deg - (n - lo):], out[lo:n]))
        out.append(acc if modulus is None else acc % modulus)
    return out


def truncation_depth(bvals, modulus: int) -> int | None:
    """Least k with modulus | b(0)...b(k): paths climbing past k vanish mod m."""
    prod = 1
    for k, b in enumerate(bvals):
        prod = prod * b % modulus
        if prod == 0:
            return k
    return None


def catalan_series(bvals, n_max: int, modulus: int | None = None) -> list[int]:
    """C_0^b..C_{n_max}^b (mod m) from the continued fraction, not the DP.

    bvals must hold b(0)..b(n_max).
    """
    depth = n_max
    if modulus is not None:
        k = truncation_depth(bvals[: n_max + 1], modulus)
        if k is not None:
            depth = k
    depth = max(depth, 0)
    P, Q = continuant_pq(bvals, depth, modulus)
    return series_divide(P, Q, n_max + 1, modulus)


def q_ary_value(bvals, q: int, n: int) -> int:
    """Weighted q-ary tree total from F_x = 1/(1 - b(x) t F_{x+1}^(q-1))."""
    upper = [1]
    for x in range(n - 1, -1, -1):
        size = n - x + 1
        power = [1] + [0] * (size - 1)
        for _ in range(q - 1):
            prod = [0] * size
            for i, a in enumerate(power):
                if a:
                    for j, b in enumerate(upper[: size - i]):
                        prod[i + j] += a * b
            power = prod
        denom = [1] + [-bvals[x] * c for c in power[: size - 1]]
        upper = series_divide([1], denom, size)
    return upper[n]


def _catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def _val(p: int, v: int) -> int:
    m = 0
    while v % p == 0:
        v //= p
        m += 1
    return m


def _s2(n: int) -> int:
    return bin(n).count("1")


_SMALL = 16


@lru_cache(maxsize=None)
def valuations(spec: str, expr: str, p: int, n_max: int) -> tuple:
    """xi_p of the expression for n = 0..n_max; None marks an exact zero."""
    coeffs = weight_coeffs(spec)
    small = min(n_max, _SMALL)
    exact = catalan_series(weight_values(coeffs, small + 1), small)
    out = [_expr_value(expr, v, n, None) for n, v in enumerate(exact)]
    out = [None if v == 0 else _val(p, v) for v in out]
    todo = list(range(small + 1, n_max + 1))
    bits = 128
    bvals = weight_values(coeffs, n_max + 1)
    while todo:
        modulus = p ** math.ceil(bits / math.log2(p))
        res = catalan_series(bvals, n_max, modulus)
        found = {}
        for n in todo:
            r = _expr_value(expr, res[n], n, modulus)
            if r:
                found[n] = _val(p, r)
        out.extend([None] * (n_max + 1 - len(out)))
        for n, v in found.items():
            out[n] = v
        todo = [n for n in todo if n not in found]
        bits *= 2
        if bits > 1 << 13:
            break
    return tuple(out)


def _expr_value(expr: str, value: int, n: int, modulus: int | None) -> int:
    if expr == "cb-1":
        value -= 1
    elif expr == "cb-c":
        value -= _catalan(n)
    return value if modulus is None else value % modulus


def _preperiod(terms: list[int], start: int, lam: int) -> int:
    while start > 0 and terms[start - 1] == terms[start - 1 + lam]:
        start -= 1
    return start


def _first_repeat_period(terms: list[int], width: int) -> tuple[int | None, int | None]:
    """The documented rule: at the first repeated width-k state, at distance d,
    the least divisor of d that holds over the whole rest of the window."""
    seen: dict[tuple, int] = {}
    for i in range(len(terms) - width + 1):
        j = seen.setdefault(tuple(terms[i : i + width]), i)
        if j == i:
            continue
        d = i - j
        for lam in (x for x in range(1, d + 1) if d % x == 0):
            if terms[j : len(terms) - lam] == terms[j + lam :]:
                return _preperiod(terms, j, lam), lam
    return None, None


# -- per-kind checkers ------------------------------------------------------


def _result(text: str):
    return json.loads(text)["result"]


_FINGERPRINTS = (1 << 64, (1 << 127) - 1)


def _check_compute(job, text):
    n, q, mod = job["n"], job["q"], job["mod"]
    got = _result(text)
    coeffs = weight_coeffs(job["weight"])
    bvals = weight_values(coeffs, n + 1)
    if q == 3 and coeffs == (1,):
        want = math.comb(3 * n, n) // (2 * n + 1)
    elif q == 3:
        want = q_ary_value(bvals, 3, n)
    elif mod is not None:
        want = catalan_series(bvals, n, mod)[n]
    else:
        got = [got % m for m in _FINGERPRINTS]
        want = [catalan_series(bvals, n, m)[n] for m in _FINGERPRINTS]
    if mod is not None:
        want %= mod
    return None if got == want else f"compute: got {str(got)[:40]}, want {str(want)[:40]}"


def _check_pq(job, text):
    got = _result(text)
    coeffs = weight_coeffs(job["weight"])
    P, Q = continuant_pq(weight_values(coeffs, job["depth"] + 1), job["depth"], job["mod"])
    if got["P"] != P or got["Q"] != Q or got["truncation"] != job["depth"]:
        return "pq: P/Q differ from the bottom-up continued fraction"
    return None


def _parse_profile(job, text):
    if job["fmt"] == "csv":
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        rows = []
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            val = None if row["valuation"] == "inf" else int(row["valuation"])
            bits = int(row["value_bits"]) if "value_bits" in row else None
            rows.append((int(row["n"]), val, bits))
        return rows
    return [(r["n"], r["valuation"], r["value_bits"]) for r in _result(text)["rows"]]


def _check_valuation(job, text):
    lo, hi, p, expr = job["lo"], job["hi"], job["p"], job["expr"]
    rows = _parse_profile(job, text)
    if [r[0] for r in rows] != list(range(lo, hi + 1)):
        return "valuation: wrong row indices"
    if hi <= 320:
        values = catalan_series(weight_values(weight_coeffs(job["weight"]), hi + 1), hi)
        want = []
        for n in range(lo, hi + 1):
            v = _expr_value(expr, values[n], n, None)
            want.append((n, None if v == 0 else _val(p, v), v.bit_length()))
    else:
        vals = valuations(job["weight"], expr, p, hi)
        want = [(n, vals[n], None) for n in range(lo, hi + 1)]
    if rows != want:
        bad = next(r for r, w in zip(rows, want) if r != w)
        return f"valuation: row {bad} disagrees with the continued-fraction reference"
    if job["weight"] == "preset:morse" and p == 2 and expr == "cb":
        if any(v != _s2(n + 1) - 1 for n, v, _ in rows):
            return "valuation: xi_2(L_n) != s_2(n+1) - 1"
    return None


def _check_period(job, text):
    got = _result(text)
    coeffs = weight_coeffs(job["weight"])
    window, mod = job["window"], job["mod"]
    bvals = weight_values(coeffs, window)
    k = truncation_depth(bvals[:4097], mod)
    terms = catalan_series(bvals, window - 1, mod)
    width = 4 if k is None else max(1, len(continuant_pq(bvals, k)[1]) - 1)
    pre, lam = _first_repeat_period(terms, width)
    want = {"modulus": mod, "preperiod": pre, "period": lam, "window": window,
            "certified": k is not None}
    if got != want:
        return f"period: got {got}, want {want}"
    if k is not None and lam is not None and any(
            terms[pre : window - x] == terms[pre + x :] for x in range(1, lam)):
        return f"period: a period below {lam} holds from {pre} on"
    paper = job.get("paper_period")
    if paper is not None and lam != paper:
        return f"period: {lam} is not the paper's {paper}"
    return None


def _check_pow3(job, text):
    got = _result(text)
    r = job["r"]
    bound = 2 * 3 ** (r - 3)
    rep = got["report"]
    window = max(200, 22 * bound)
    bvals = weight_values((1, 4, 4), window)
    k = truncation_depth(bvals, 3**r)
    terms = catalan_series(bvals, window - 1, 3**r)
    pre, lam = _first_repeat_period(terms, max(1, len(continuant_pq(bvals, k)[1]) - 1))
    if got["bound"] != bound or not got["divides"] or not rep["period"] or bound % rep["period"]:
        return f"pow3: period {rep['period']} does not divide 2*3^(r-3) = {bound}"
    if (rep["preperiod"], rep["period"], rep["modulus"]) != (pre, lam, 3**r):
        return f"pow3: got ({rep['preperiod']}, {rep['period']}), want ({pre}, {lam})"
    return None


def _fit_ok(fit, residue: int, depth: int) -> bool:
    return (
        fit["certified_depth"] >= depth
        and fit["residue"] % fit["p"] ** depth == residue
        and fit["consistency"]
    )


def _check_fit(job, text):
    fit = _result(text)
    ok = _fit_ok(fit, 23, 6) if job["p"] == 2 else _fit_ok(fit, 35, 3)
    return None if ok else f"fit: alpha {fit['residue']} mod {fit['modulus']} off the paper"


def _check_report(job, text):
    rep = _result(text)
    which, n_max = job["which"], job["n_max"]
    if which == "2adic":
        if rep["c"] != 2 or not _fit_ok(rep["fit"], 23, 6):
            return "report: 2-adic c or alpha differ from the paper (c = 2, 23 mod 64)"
        rows = rep["verified_rows"] + rep["unverifiable_rows"]
        if rep["zero_rows"] or rows != n_max - 1 or not rep["consistent_over_window"]:
            return "report: 2-adic window not fully explained"
        return None
    if which == "5adic":
        if not _fit_ok(rep["fit"], 35, 3) or not rep["even_all_2"]:
            return "report: 5-adic alpha or even rows differ from the paper"
        return None if rep["consistent_over_window"] else "report: 5-adic inconsistent"
    if which == "3adic":
        vals = valuations("preset:morse", "cb-1", 3, n_max)
        even = sorted({vals[n] for n in range(2, n_max + 1, 2)})
        if rep["even_value_set"] != even or even != [2]:
            return f"report: 3-adic even values {rep['even_value_set']}, want [2]"
        for rep_class, got in rep["classes"]["6"].items():
            want = sorted({vals[n] for n in range(3, n_max + 1, 2) if n % 6 == int(rep_class)})
            if got != want:
                return f"report: 3-adic class {rep_class} mod 6 differs"
        return None
    return _check_general_2adic(job, rep)


def _check_general_2adic(job, rep):
    n_max = job["n_max"]
    vals = valuations(f"preset:morse-power:{job['power']}", "cb-c", 2, n_max)
    rows = [(n, vals[n]) for n in range(2, n_max + 1) if vals[n] is not None]
    zero = [n for n in range(2, n_max + 1) if vals[n] is None]
    c = min(v - _s2(n) for n, v in rows)
    if rep["c"] != c or rep["zero_rows"] != zero:
        return f"report: c = {rep['c']}, want {c}"
    fit = rep["fit"]
    verified = unverifiable = 0
    first = None
    if fit["certified_depth"]:
        a, md = fit["residue"], fit["modulus"]
        for n, v in rows:
            d = (n - a) % md
            if d == 0:
                unverifiable += 1
                continue
            verified += 1
            predicted = _s2(n) + _val(2, d) + c
            if predicted != v and first is None:
                first = {"n": n, "observed": v, "predicted": predicted}
    want = (verified, unverifiable, first, fit["consistency"] and first is None)
    got = (rep["verified_rows"], rep["unverifiable_rows"], rep["first_unexplained"],
           rep["consistent_over_window"])
    return None if got == want else f"report: general 2-adic rows {got}, want {want}"


@lru_cache(maxsize=None)
def _tree_counts(n_max: int, q: int) -> tuple[int, ...]:
    """Unordered rooted trees with at most q children, by vertex count."""
    count = [0] * (n_max + 1)
    # forests[k][t]: multisets of exactly k trees with t vertices in total
    for n in range(1, n_max + 1):
        forests = [[1] + [0] * (n - 1)] + [[0] * n for _ in range(q)]
        for size in range(1, n):
            kinds = count[size]
            if not kinds:
                continue
            for k in range(q, 0, -1):
                for t in range(n - 1, size - 1, -1):
                    total = 0
                    for j in range(1, k + 1):
                        if j * size > t:
                            break
                        total += math.comb(kinds + j - 1, j) * forests[k - j][t - j * size]
                    forests[k][t] += total
        count[n] = sum(forests[k][n - 1] for k in range(q + 1))
    return tuple(count)


def _check_orbits(job, text):
    n, q = job["n"], job["q"]
    rows = _result(text)
    shapes = [r["shape"] for r in rows]
    if len(rows) != _tree_counts(n, q)[n] or len(set(shapes)) != len(shapes):
        return f"orbits: {len(rows)} shapes, want {_tree_counts(n, q)[n]} distinct"
    if any(r["vertices"] != n or len(r["shape"]) != 2 * n for r in rows):
        return "orbits: a shape has the wrong vertex count"
    want = math.comb(q * n, n) // ((q - 1) * n + 1)
    total = sum(r["size"] for r in rows)
    return None if total == want else f"orbits: sizes sum to {total}, want {want}"


def _parse_shape(text: str):
    """Nested parentheses to a sorted tuple-of-children key."""
    stack = [[]]
    for ch in text:
        if ch == "(":
            stack.append([])
        else:
            kids = stack.pop()
            stack[-1].append(tuple(sorted(kids)))
    return stack[0][0]


def _shape_text(key) -> str:
    return "(" + "".join(_shape_text(k) for k in key) + ")"


def _binary_size_exp(key) -> int:
    if not key:
        return 0
    exps = [_binary_size_exp(k) for k in key]
    if len(key) == 1:
        return 1 + exps[0]
    return 2 * exps[0] if key[0] == key[1] else 1 + exps[0] + exps[1]


@lru_cache(maxsize=None)
def _minimal_count(n: int) -> tuple[int, int]:
    """(least orbit-size exponent, number of binary orbits reaching it) on n vertices."""
    table = [dict() for _ in range(n + 1)]  # vertices -> {exponent: shapes}
    table[1] = {0: 1}
    for v in range(2, n + 1):
        row: dict[int, int] = {}

        def add(e, c):
            row[e] = row.get(e, 0) + c

        for e, c in table[v - 1].items():
            add(e + 1, c)
        for a in range(1, (v - 1) // 2 + 1):
            b = v - 1 - a
            for e1, c1 in table[a].items():
                for e2, c2 in table[b].items():
                    if a < b:
                        add(1 + e1 + e2, c1 * c2)
                    elif e1 < e2:
                        add(1 + e1 + e2, c1 * c2)
                    elif e1 == e2:
                        add(2 * e1, c1)
                        add(1 + 2 * e1, c1 * (c1 - 1) // 2)
        table[v] = row
    low = min(table[n])
    return low, table[n][low]


def _reduce(key):
    """Collapse maximal complete subtrees of depth >= 1 to single vertices."""
    def complete(k):
        return not k or (len(k) == 2 and k[0] == k[1] and complete(k[0]))

    def count(k):
        return 1 + sum(count(c) for c in k)

    if complete(key):
        return (), count(key) - 1
    kids, removed = [], 0
    for k in key:
        rk, r = _reduce(k)
        kids.append(rk)
        removed += r
    return tuple(sorted(kids)), removed


def _check_minimal(job, text):
    n = job["n"]
    rows = _result(text)
    low, count = _minimal_count(n)
    if low != _s2(n + 1) - 1:
        return "minimal: least orbit size is not 2^(s_2(n+1)-1)"
    if len(rows) != count or len({r["shape"] for r in rows}) != count:
        return f"minimal: {len(rows)} orbits, want {count}"
    for r in rows:
        key = _parse_shape(r["shape"])
        reduced, removed = _reduce(key)
        if (r["size"], r["vertices"]) != (1 << low, n) or _binary_size_exp(key) != low:
            return f"minimal: {r['shape']} is not a minimal orbit"
        if (r["reduced"], r["removed"]) != (_shape_text(reduced), removed):
            return f"minimal: reduction of {r['shape']} differs"
    return None


def _ordered_trees(key) -> set:
    """Every ordered binary tree (left, right) in the orbit of key."""
    if not key:
        return {(None, None)}
    if len(key) == 1:
        return {t for a in _ordered_trees(key[0]) for t in ((a, None), (None, a))}
    left, right = _ordered_trees(key[0]), _ordered_trees(key[1])
    return {t for a in left for b in right for t in ((a, b), (b, a))}


def _tree_weight(tree, bvals, x: int) -> int:
    if tree is None:
        return 1
    left, right = tree
    return bvals[x] * _tree_weight(left, bvals, x + 1) * _tree_weight(right, bvals, x)


def _check_epsilon(job, text):
    got = _result(text)
    m = job["m"]
    key = _parse_shape(job["shape"])
    trees = _ordered_trees(key)
    bvals = weight_values(weight_coeffs(job["weight"]), m + 2 * len(job["shape"]) + 2)
    avg = []
    for x in range(m + 1):
        total = sum(_tree_weight(t, bvals, x) for t in trees)
        avg.append(total // len(trees))
    bits = []
    diffs = avg
    for order in range(m + 1):
        bits.append(diffs[0] // 2**order % 2)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    want = {"direct": bits, "recursive": bits, "coin": bits, "agree": True}
    return None if got == want else f"epsilon: got {got}, want bits {bits}"


_CLAUSES = {
    "ps": [("2^(n+1)-divides-diff-n", 1, None, lambda n: n + 1)],
    "main": [("4-divides-diff-1", 1, 1, lambda n: 2), ("2^n-divides-diff-n", 2, None, lambda n: n)],
    "conj": [("2^(n-s2(n))-divides-diff-n", 2, None, lambda n: n - _s2(n))],
    "qmain": [("q^2-divides-diff-1", 1, 1, lambda n: 2), ("q^n-divides-diff-n", 2, None, lambda n: n)],
}


def _check_check(job, text):
    got = _result(text)
    coeffs = weight_coeffs(job["weight"])
    name, _, arg = job["theorem"].partition(":")
    base = int(arg) if arg else 2
    deg = len(coeffs) - 1
    vals = weight_values(coeffs, 2 * deg + 3)
    b0, b1 = vals[0], vals[1]
    clauses = {}
    if name == "qmain":
        clauses["b0-is-1-mod-q"] = (b0 - 1) % base == 0
    else:
        clauses["b0-odd"] = b0 % 2 == 1
    for clause, first, last, exponent in _CLAUSES[name]:
        ok = True
        diffs = vals
        for order in range(1, deg + 1):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
            if order < first or (last is not None and order > last):
                continue
            divisor = base ** exponent(order)
            if any(d % divisor for d in diffs[: deg + 1]):
                ok = False
        clauses[clause] = ok
    if name == "conj":
        clauses["b0-b1-agree-mod-4"] = (b1 - b0) % 4 == 0
    if got["clauses"] != clauses or got["holds"] != all(clauses.values()):
        return f"check: clauses {got['clauses']}, want {clauses}"
    return None


_CHECKERS = {
    "compute": _check_compute,
    "pq": _check_pq,
    "valuation": _check_valuation,
    "period": _check_period,
    "pow3": _check_pow3,
    "fit": _check_fit,
    "report": _check_report,
    "orbits": _check_orbits,
    "minimal": _check_minimal,
    "epsilon": _check_epsilon,
    "check": _check_check,
}


def check(job: dict, text: str) -> str | None:
    """None when the job's output matches its reference, else what differs."""
    spec = job["check"]
    try:
        return _CHECKERS[spec["kind"]](spec, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"{spec['kind']}: unreadable output ({type(exc).__name__}: {exc})"
