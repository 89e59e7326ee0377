"""Kernel selection for the weighted Catalan residues and exact values.

Residues mod m come from, in order of preference:

1. the compiled DP extension, when it is built (moduli below 2**62);
2. the S-fraction product tree in `series`, when the height limit, the
   number of terms and the modulus size all sit on its side of the measured
   crossover below;
3. the pure-Python DP in `_dyck_py`, whose O(n h) cost wins for small
   heights and for moduli far above word size.

Exact values always come from the pure-Python DP.  The environment
variable WCATALAN_PURE=1 forces the pure backend (used by the benchmark and
to exercise the fallback in tests).
"""

from __future__ import annotations

import os

from . import _dyck_py, series
from .errors import DomainError

try:
    from . import _dyck_cy  # type: ignore[attr-defined]
except ImportError:  # extension not built
    _dyck_cy = None

if os.environ.get("WCATALAN_PURE") == "1":
    _dyck_cy = None

BACKEND = "cython" if _dyck_cy is not None else "pure"

_COMPILED_MOD_LIMIT = 1 << 62

# Crossover between the pure DP and the S-fraction engine, from timing both
# on the Morse weight at moduli of 4 to 1952 bits (Python 3.11, 2-core
# x86-64 VM).  The DP costs about n*h cells, each linear in the modulus
# width; the tree costs a few Karatsuba products of n coefficients, each
# slot twice the modulus width.  For moduli up to 64 bits the tree wins from
# height 16 and 128 terms on (at n = h = 2048, 0.11 s against 0.65 s).
# Wider moduli move the break-even number of terms up with about the square
# of the width: n = 512 wins and n = 256 loses at 122 bits, n = 2048 wins
# and n = 1024 loses at 244 bits, and at 976 bits the tree is 6x slower at
# n = 1024.
SERIES_MIN_HEIGHT = 16
SERIES_MIN_TERMS = 128
_WORD_BITS = 64


def _series_wins(n_max: int, modulus: int, height_cap: int | None) -> bool:
    h = n_max if height_cap is None else min(height_cap, n_max)
    width = max(modulus.bit_length(), _WORD_BITS)
    return h >= SERIES_MIN_HEIGHT and n_max * _WORD_BITS**2 >= SERIES_MIN_TERMS * width**2


def dyck_dp_mod(bvals, n_max: int, modulus: int, height_cap: int | None = None) -> list[int]:
    """Weighted Catalan residues mod `modulus` for n = 0..n_max."""
    try:
        if _dyck_cy is not None and 2 <= modulus < _COMPILED_MOD_LIMIT:
            return _dyck_cy.dyck_dp_mod(bvals, n_max, modulus, height_cap)
        if _series_wins(n_max, modulus, height_cap):
            return series.dyck_series_mod(bvals, n_max, modulus, height_cap)
        return _dyck_py.dyck_dp(bvals, n_max, modulus, height_cap)
    except ValueError as exc:
        raise DomainError(str(exc)) from None


def dyck_dp_exact(bvals, n_max: int, height_cap: int | None = None) -> list[int]:
    """Exact weighted Catalan numbers for n = 0..n_max."""
    try:
        return _dyck_py.dyck_dp(bvals, n_max, None, height_cap)
    except ValueError as exc:
        raise DomainError(str(exc)) from None
