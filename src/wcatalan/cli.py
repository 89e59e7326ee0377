"""Command-line front end with deterministic JSON envelopes.

Every subcommand prints {"command", "parameters", "result", "elapsed_ms"};
the payload is deterministic for fixed inputs (only elapsed_ms varies).
Exit codes: 0 success, 1 oracle disagreement, 2 parse error, 3 domain
error, 4 resource cap, 141 stdout closed by its reader (128 + SIGPIPE, as
a shell reports a tool killed by that signal).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from itertools import chain, repeat

from . import catalan, morse, orbits, periodicity
from .errors import DomainError, ResourceLimitError, WeightSpecError
from .weights import (
    WEIGHT_SPEC_GRAMMAR,
    check_conditions,
    parse_weight_spec,
)

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_RESOURCE = 4
EXIT_PIPE = 141


class _UsageError(ValueError):
    """A malformed range or a missing option: exit 2 with no weight grammar."""


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise _UsageError(f"range '{text}' must look like A..B (inclusive)")
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise _UsageError(f"range '{text}' has non-integer endpoints") from None
    if b < a:
        raise _UsageError(f"range '{text}' is empty")
    return range(a, b + 1)


# CPython's C encoder, which json.dump leaves unused once `indent` is set.
# With ensure_ascii on, no encoded token holds a raw newline, so every "\n"
# in its output of a list of scalars follows this item separator: the list
# can be re-indented by replace, or split into its encoded items.
_ENCODER = json.JSONEncoder(separators=(",\n", ": "))
_SCALARS = frozenset({str, int, float, bool, type(None)})
# Rows per batch of `_write_rows`: one C call per column encodes a batch.
# With its items split out and joined, a batch of orbits rows peaks near
# 200 kB; batches of 1024 rows measured no faster.
_COLUMN_BATCH = 512


class _Table:
    """A list of flat dicts with one key order, held column by column.

    `columns` maps each key, in row order, to a list or tuple of its
    `count` values, one per row, or to one scalar that every row holds.
    """

    __slots__ = ("count", "columns")

    def __init__(self, count: int, columns: dict):
        self.count, self.columns = count, columns


def _encode_key(key) -> str:
    """A dict key spelled as json spells it: floats, bools, None, ints as JSON."""
    if not isinstance(key, str):
        if not (isinstance(key, (int, float)) or key is None):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {type(key).__name__}"
            )
        key = _ENCODER.encode(key)
    return _ENCODER.encode(key)


def _write_rows(table: _Table, write, indent: str) -> None:
    """The rows of `table`, as json.dump(rows, out, indent=2) writes them.

    Each batch encodes every column of values in one C call and splits the
    text into its items; each row is then the key prefixes interleaved with
    its items, and a batch is one join.  A scalar column is encoded once,
    into the prefix that follows it.
    """
    if not table.count:
        write("[]")
        return
    row, field = indent + "  ", indent + "    "
    sep = ",\n" + row
    heads, values = [], []
    prefix = "{\n" + field
    for name, column in table.columns.items():
        prefix += _encode_key(name) + ": "
        if isinstance(column, (list, tuple)):
            heads.append(prefix)
            values.append(column)
            prefix = ""
        else:
            prefix += _ENCODER.encode(column)
        prefix += ",\n" + field
    tail = prefix[: -len(",\n" + field)] + "\n" + row + "}" + sep
    write("[\n" + row)
    for start in range(0, table.count, _COLUMN_BATCH):
        stop = min(start + _COLUMN_BATCH, table.count)
        parts = []
        for head, column in zip(heads, values):
            items = _ENCODER.encode(column[start:stop])[1:-1].split(",\n")
            parts += (repeat(head, stop - start), items)
        parts.append(repeat(tail, stop - start))
        text = "".join(chain.from_iterable(zip(*parts)))
        write(text if stop < table.count else text[: -len(sep)])
    write("\n" + indent + "]")


def _write_json(obj, write, indent: str = "") -> None:
    """Write `obj` through `write` as the bytes of json.dump(obj, out, indent=2).

    A `_Table` (the rows of orbits, valuation and morse profile) is written
    as its list of rows, column by column.  A record, a named tuple (the
    results of check, period and the morse commands), is written as the
    mapping of its fields, in declaration order: its fields are its schema.
    A non-empty list of scalars goes through the C encoder in one call and
    is re-indented.  Everything else, the short lists of dicts in morse
    report among it, is walked here one level at a time, so the document
    is never held as one string.
    """
    inner = indent + "  "
    if type(obj) in _SCALARS:  # most values walked: they pay one set lookup
        write(_ENCODER.encode(obj))
    elif isinstance(obj, _Table):
        _write_rows(obj, write, indent)
    elif isinstance(obj, tuple) and hasattr(obj, "_asdict"):
        # ahead of the tuples: a record is one
        _write_json(obj._asdict(), write, indent)
    elif isinstance(obj, (list, tuple)) and obj:
        if set(map(type, obj)) <= _SCALARS:
            text = _ENCODER.encode(obj)[1:-1].replace("\n", "\n" + inner)
            write("[\n" + inner + text + "\n" + indent + "]")
            return
        sep = "[\n" + inner
        for item in obj:
            write(sep)
            _write_json(item, write, inner)
            sep = ",\n" + inner
        write("\n" + indent + "]")
    elif isinstance(obj, dict) and obj:
        sep = "{\n" + inner
        for key, value in obj.items():
            write(sep + _encode_key(key) + ": ")
            _write_json(value, write, inner)
            sep = ",\n" + inner
        write("\n" + indent + "}")
    else:
        write(_ENCODER.encode(obj))


def _emit(command: str, parameters: dict, result, started: float) -> None:
    envelope = {
        "command": command,
        "parameters": parameters,
        "result": result,
        "elapsed_ms": round((time.perf_counter() - started) * 1000, 3),
    }
    _write_json(envelope, sys.stdout.write)
    sys.stdout.write("\n")


def _cmd_compute(args, started) -> int:
    b = parse_weight_spec(args.weight)
    params = {"weight": args.weight, "n": args.n, "q": args.q, "mod": args.mod}
    # the library checks the modulus too, but after the semilength (and at
    # q = 2 after the weights); this check keeps it the first error reported
    if args.mod is not None and args.mod < 2:
        raise DomainError(f"modulus must be at least 2, got {args.mod}")
    if args.q == 2:
        result = catalan.weighted_catalan(b, args.n, modulus=args.mod)
    else:
        result = catalan.q_weighted_catalan(b, args.q, args.n, args.mod)
    _emit("compute", params, result, started)
    return EXIT_OK


def _emit_profile(command: str, params: dict, profile, fmt: str, started: float) -> int:
    """A valuation profile as CSV, or as an envelope whose rows are a `_Table`.

    In residue mode `value_bits` is one scalar None, encoded once.
    """
    if fmt == "csv":
        sys.stdout.write(profile.to_csv())
        return EXIT_OK
    columns = {"n": list(profile.n_range), "valuation": profile.valuations,
               "value_bits": profile.value_bits}
    result = {"expression": profile.expression, "p": profile.p, "weight": profile.weight_id,
              "mode": profile.mode, "rows": _Table(len(profile.n_range), columns)}
    _emit(command, params, result, started)
    return EXIT_OK


def _cmd_valuation(args, started) -> int:
    b = parse_weight_spec(args.weight)
    rng = _parse_range(args.range)
    profile = morse.valuation_profile(args.expr, args.p, rng, weight=b)
    params = {
        "weight": args.weight,
        "p": args.p,
        "expr": args.expr,
        "range": args.range,
    }
    return _emit_profile("valuation", params, profile, args.format, started)


def _cmd_check(args, started) -> int:
    b = parse_weight_spec(args.weight)
    window = _parse_range(args.window) if args.window else None
    report = check_conditions(b, args.theorem, window=window)
    params = {"weight": args.weight, "theorem": args.theorem}
    _emit("check", params, report, started)
    return EXIT_OK


def _cmd_orbits(args, started) -> int:
    # every orbit listed has n vertices, so "vertices" is one shared scalar
    if args.minimal:
        if args.max_orbit_n is not None:
            raise _UsageError("--max-orbit-n caps the enumeration; --minimal has its own cap")
        table = orbits.minimal_orbits(args.n, args.q)
    else:
        table = orbits.enumerate_orbits(args.n, args.q, max_n=args.max_orbit_n)
    columns = {"shape": table.parens, "size": table.sizes, "vertices": args.n}
    if args.reduce and table.reduced is not None:
        # minimal orbits carry their reduction from the construction
        columns["reduced"], columns["removed"] = table.reduced, table.removed
    elif args.reduce:
        reduced = [orbits.reduce_orbit(sh) for sh in table]
        columns["reduced"] = [sh.to_parens() for sh, _ in reduced]
        columns["removed"] = [removed for _, removed in reduced]
    params = {
        "n": args.n,
        "q": args.q,
        "minimal": args.minimal,
        "reduce": args.reduce,
    }
    _emit("orbits", params, _Table(len(table), columns), started)
    return EXIT_OK


def _cmd_epsilon(args, started) -> int:
    b = parse_weight_spec(args.weight)
    result = orbits.carry_oracles(args.shape, args.q, b, args.m, args.method)
    params = {
        "weight": args.weight,
        "shape": args.shape,
        "m": args.m,
        "q": args.q,
        "method": args.method,
    }
    _emit("epsilon", params, result, started)
    return EXIT_OK if result.get("agree", True) else EXIT_DISAGREE


def _cmd_period(args, started) -> int:
    b = parse_weight_spec(args.weight)
    report = periodicity.analyze_weight_period(b, args.mod, max_terms=args.max_terms)
    params = {"weight": args.weight, "mod": args.mod, "max_terms": args.max_terms}
    _emit("period", params, report, started)
    return EXIT_OK


def _cmd_pq(args, started) -> int:
    b = parse_weight_spec(args.weight)
    pair = periodicity.continued_fraction_pq(b, args.truncate, args.mod)
    result = {
        "P": list(pair.P.coefficients),
        "Q": list(pair.Q.coefficients),
        "truncation": pair.truncation,
    }
    if args.mod is not None:
        result["mod"] = args.mod
    params = {"weight": args.weight, "truncate": args.truncate, "mod": args.mod}
    _emit("pq", params, result, started)
    return EXIT_OK


def _cmd_morse(args, started) -> int:
    if args.morse_cmd == "period":
        if args.pow3 is not None and args.mod is not None:
            raise _UsageError("morse period takes --mod M or --pow3 R, not both")
        if args.pow3 is not None:
            check = morse.mod3r_period_check(args.pow3, window=args.max_terms)
            params = {"pow3": args.pow3, "max_terms": args.max_terms}
            _emit("morse period", params, check, started)
            return EXIT_OK
        if args.mod is None:
            raise _UsageError("morse period needs --mod M or --pow3 R")
        terms = 2048 if args.max_terms is None else args.max_terms
        report = periodicity.analyze_weight_period(morse.MORSE, args.mod, max_terms=terms)
        params = {"mod": args.mod, "max_terms": args.max_terms}
        _emit("morse period", params, report, started)
        return EXIT_OK
    if args.morse_cmd == "profile":
        rng = _parse_range(args.range)
        profile = morse.valuation_profile(args.expr, args.p, rng)
        params = {"expr": args.expr, "p": args.p, "range": args.range}
        return _emit_profile("morse profile", params, profile, args.format, started)
    # report, or fit-alpha: the report's fit
    fit_only = args.morse_cmd == "fit-alpha"
    if fit_only and args.which == "3adic":
        raise DomainError(
            "fit-alpha takes 2adic, 2adic-general:k or 5adic; for 3adic run `morse report`"
        )
    report = morse.conjecture_report(args.which, args.n_max, args.depth)
    params = {"which": args.which, "n_max": args.n_max, "depth": args.depth}
    _emit(f"morse {args.morse_cmd}", params, report["fit"] if fit_only else report, started)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """A new parser on every call; `main` keeps the first one it builds."""
    parser = argparse.ArgumentParser(
        prog="wcatalan",
        description="Exact weighted Catalan arithmetic: values, valuations, orbits, periods.",
        epilog=f"weight grammar: {WEIGHT_SPEC_GRAMMAR}",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("compute", help="weighted (q-)Catalan number, exact or mod m")
    p.add_argument("--weight", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--mod", type=int)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("valuation", help="p-adic valuation profile over a range of n")
    p.add_argument("--weight", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--expr", choices=morse.EXPRESSIONS, default="cb")
    p.add_argument("--range", required=True, help="inclusive, e.g. 1..300")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_valuation)

    p = sub.add_parser("check", help="test a theorem's weight hypotheses")
    p.add_argument("--weight", required=True)
    p.add_argument("--theorem", required=True, help="ps | main | conj | qmain:Q")
    p.add_argument("--window", help="inclusive range A..B for table weights")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("orbits", help="tree orbits on n vertices with sizes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--minimal", action="store_true")
    p.add_argument("--reduce", action="store_true")
    p.add_argument("--max-orbit-n", type=int, help="enumeration cap, not with --minimal;"
                   " default 16 at q = 2, 14 at q = 3, 13 above")
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("epsilon", help="orbit carry bits by one or all oracles")
    p.add_argument("--weight", required=True)
    p.add_argument("--shape", required=True, help="nested parentheses, e.g. (())")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--method", choices=("direct", "recursive", "coin", "all"), default="all")
    p.set_defaults(func=_cmd_epsilon)

    p = sub.add_parser("period", help="cycle of the residue sequence mod m")
    p.add_argument("--weight", required=True)
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--max-terms", type=int, default=5000)
    p.set_defaults(func=_cmd_period)

    p = sub.add_parser("pq", help="truncated continued fraction as P, Q coefficients")
    p.add_argument("--weight", required=True)
    p.add_argument("--truncate", type=int, required=True)
    p.add_argument("--mod", type=int)
    p.set_defaults(func=_cmd_pq)

    p = sub.add_parser("morse", help="Morse link number tools")
    msub = p.add_subparsers(dest="morse_cmd", required=True)

    mp = msub.add_parser("period", help="period of L_n mod m, or mod 3^r with verdict")
    mp.add_argument("--mod", type=int)
    mp.add_argument("--pow3", type=int, help="exponent r; checks the 2*3^(r-3) bound")
    mp.add_argument("--max-terms", type=int)
    mp.set_defaults(func=_cmd_morse)

    mp = msub.add_parser("profile", help="valuation profile of L_n expressions")
    mp.add_argument("--expr", choices=morse.EXPRESSIONS, required=True)
    mp.add_argument("--p", type=int, required=True)
    mp.add_argument("--range", required=True)
    mp.add_argument("--format", choices=("json", "csv"), default="json")
    mp.set_defaults(func=_cmd_morse)

    mp = msub.add_parser("fit-alpha", help="p-adic alpha digits from valuation data")
    mp.add_argument("--which", required=True, help="2adic | 2adic-general:k | 5adic")
    mp.add_argument("--n-max", type=int, default=1024)
    mp.add_argument("--depth", type=int, default=6)
    mp.set_defaults(func=_cmd_morse)

    mp = msub.add_parser("report", help="full conjecture consistency report")
    mp.add_argument("--which", required=True, help="2adic | 2adic-general:k | 5adic | 3adic")
    mp.add_argument("--n-max", type=int, default=1024)
    mp.add_argument("--depth", type=int, default=6)
    mp.set_defaults(func=_cmd_morse)

    return parser


# The parser `main` built on its first call, with the builder that built it:
# (builder, parser).  A build costs some forty parses, so in-process callers
# share one parser.  When the module attribute `build_parser` is no longer
# that builder (a wrapper swapped in from outside, or the original put back),
# the next call builds again, through it.
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None or _PARSER[0] is not build_parser:
        _PARSER = (build_parser, build_parser())
    args = _PARSER[1].parse_args(argv)
    started = time.perf_counter()
    # A command builds large acyclic data (56,011 orbit rows at n = 17)
    # and makes no reference cycles, so every pass of the cyclic collector
    # over it frees nothing: pause the collector for the command, and leave
    # it as the caller had it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = args.func(args, started)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except WeightSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"weight grammar: {WEIGHT_SPEC_GRAMMAR}", file=sys.stderr)
        return EXIT_PARSE
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so that the interpreter's flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
