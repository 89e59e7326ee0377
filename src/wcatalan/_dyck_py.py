"""Dyck-path DP kernel.

State after s steps is the vector of total path-prefix weights by height;
an up-step from height h multiplies by bvals[h], a down-step by 1.  Entry
n of the output is the total weight of paths returning to 0 after 2n
steps, i.e. the weighted Catalan number of semilength n.

The S-fraction engine in `series` implements the same contract for
residues; this module is the reference it is tested against, the residue
engine below the crossover in `kernel`, and the only exact engine.
"""

from __future__ import annotations


def check_dp_args(bvals, n_max: int, modulus: int | None, height_cap: int | None) -> int:
    """Validate kernel arguments; return the height limit min(height_cap, n_max)."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if modulus is not None and modulus < 2:
        raise ValueError("modulus must be at least 2")
    h_max = max(n_max if height_cap is None else min(height_cap, n_max), 0)
    if len(bvals) < h_max:
        raise ValueError(
            f"need {h_max} weight values (heights 0..{h_max - 1}), got {len(bvals)}"
        )
    return h_max


def dyck_dp(
    bvals, n_max: int, modulus: int | None = None, height_cap: int | None = None
) -> list[int]:
    """Weighted Catalan numbers for n = 0..n_max, exact or mod `modulus`.

    With a height cap, paths ever exceeding the cap are dropped; callers use
    this when those paths are known to vanish modulo `modulus`.
    """
    h_max = check_dp_args(bvals, n_max, modulus, height_cap)
    if modulus is None:
        b = list(bvals[:h_max])
        one = 1
    else:
        b = [v % modulus for v in bvals[:h_max]]
        one = 1 % modulus

    out = [0] * (n_max + 1)
    out[0] = one
    size = h_max + 3
    prev = [0] * size
    cur = [0] * size
    prev[0] = one
    for s in range(1, 2 * n_max + 1):
        hi = min(s, 2 * n_max - s, h_max)
        lo = s & 1
        if modulus is None:
            for j in range(lo, hi + 1, 2):
                v = prev[j + 1]
                if j:
                    v += prev[j - 1] * b[j - 1]
                cur[j] = v
        else:
            for j in range(lo, hi + 1, 2):
                v = prev[j + 1]
                if j:
                    v += prev[j - 1] * b[j - 1]
                cur[j] = v % modulus
        if hi + 2 < size:
            cur[hi + 2] = 0
        prev, cur = cur, prev
        if lo == 0:
            out[s >> 1] = prev[0]
    return out
