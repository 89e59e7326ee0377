#!/usr/bin/env python3
"""Benchmark the two residue engines on the modular Dyck-path sweep.

Runs the modular DP (the hot loop behind valuation profiles and period
detection) on the Morse weight at several sizes, through the Dyck DP and
the S-fraction product tree, and prints each engine's best time and the
tree's speedup over the DP.

Usage: python benchmarks/bench_kernel.py [--sizes 512,1024,2048,4096]
"""

import argparse
import sys
import time

from wcatalan import _dyck_py, series
from wcatalan.weights import WeightFunction

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
    header = f"{'n_max':>6}  {'Dyck DP':>10}  {'series':>17}"
    print(header)
    print("-" * len(header))
    for n in sizes:
        bvals = morse.values(0, n)
        t_dp, r_dp = bench(_dyck_py.dyck_dp, bvals, n)
        t_tree, r_tree = bench(series.dyck_series_mod, bvals, n)
        assert r_tree == r_dp, "series engine disagrees with the DP"
        print(f"{n:>6}  {t_dp:>10.3f}  {t_tree:>8.3f} ({t_dp / t_tree:>5.1f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
