#!/usr/bin/env python3
"""Benchmark the three residue engines on the modular Dyck-path sweep.

Runs the modular DP (the hot loop behind valuation profiles and period
detection) on the Morse weight at several sizes, through the pure-Python
DP, the S-fraction product tree and, when built, the compiled DP, and
prints each engine's best time and its speedup over the pure DP.

Usage: python benchmarks/bench_kernel.py [--sizes 512,1024,2048,4096]
"""

import argparse
import sys
import time

from wcatalan import _dyck_py, series
from wcatalan.weights import WeightFunction

try:
    from wcatalan import _dyck_cy
except ImportError:
    _dyck_cy = None

MODULUS = 1 << 60


def bench(fn, bvals, n, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(bvals, n, MODULUS, None)
        best = min(best, time.perf_counter() - t0)
    return best, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="512,1024,2048,4096")
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]

    morse = WeightFunction.preset("morse")
    print("modular Dyck-path sweep, modulus 2^60, weight (2x+1)^2; seconds (speedup)")
    header = f"{'n_max':>6}  {'pure DP':>10}  {'series':>17}  {'cython':>17}"
    print(header)
    print("-" * len(header))
    for n in sizes:
        bvals = morse.values(0, n)
        t_pure, r_pure = bench(_dyck_py.dyck_dp, bvals, n)
        t_tree, r_tree = bench(series.dyck_series_mod, bvals, n)
        assert r_tree == r_pure, "series engine disagrees with the DP"
        cells = [f"{t_tree:>8.3f} ({t_pure / t_tree:>5.1f}x)"]
        if _dyck_cy is None:
            cells.append(f"{'n/a':>17}")
        else:
            t_cy, r_cy = bench(_dyck_cy.dyck_dp_mod, bvals, n)
            assert r_cy == r_pure, "compiled kernel disagrees with the DP"
            cells.append(f"{t_cy:>8.3f} ({t_pure / t_cy:>5.1f}x)")
        print(f"{n:>6}  {t_pure:>10.3f}  {cells[0]}  {cells[1]}")
    if _dyck_cy is None:
        print("compiled kernel not built; install with the extension to compare")
    return 0


if __name__ == "__main__":
    sys.exit(main())
