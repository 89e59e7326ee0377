"""Seeded job decks: the CLI argv lists each workload replays.

A deck is a fixed list of slots.  Each slot fixes a command and its size
(n, depth, window); the seed draws only the parameters that barely move
the cost: random weights of a fixed shape, primes, moduli, range starts and
the order of the jobs.  So every seed does about the same amount of work,
and the spread between seeds stays small.  Slots come in cost bands, so
that the median job and the tail job (ten jobs beyond it) fall inside a
band of similar jobs, never on a gap between two.

Every job is a dict with the argv the program sees and a `check` dict the
reference checker reads.  Nothing here imports the program.
"""

from __future__ import annotations

import random

WORKLOADS = ("padic", "series", "orbits")

# Exact `compute` of L_n overflows Python's 4300-digit int->str limit from
# n = 755 on; these sizes stay in the draw and fail until that is fixed.
DEFECT_EXACT_N = (760, 1000)


def _spec(coeffs) -> str:
    return "poly:" + ",".join(str(c) for c in coeffs)


def _poly_eval(coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _unit_quadratic(rng: random.Random, p: int) -> list[int]:
    """c0 + c1 x + c2 x^2 with no root mod p, so the p-adic valuations stay small."""
    while True:
        coeffs = [rng.randint(1, 9), rng.randint(0, 9), rng.randint(1, 4)]
        if all(_poly_eval(coeffs, x) % p for x in range(p)):
            return coeffs


def _quadratic(rng: random.Random) -> list[int]:
    return [rng.randint(1, 9), rng.randint(0, 9), rng.randint(1, 4)]


def _f2_weight(rng: random.Random) -> list[int]:
    """sum a_m (2x)^m with a_0 odd: a member of F(2) with odd b(0)."""
    return [2 * rng.randint(0, 4) + 1] + [rng.randint(-3, 3) * 2**m for m in range(1, 4)]


def _job(argv: list[str], kind: str, **check) -> dict:
    return {"argv": [str(a) for a in argv], "check": {"kind": kind, **check}}


def _padic(rng: random.Random) -> list[dict]:
    k = rng.choice((2, 3, 4))
    jobs = [
        _job(["morse", "report", "--which", "2adic", "--n-max", 2048, "--depth", 6],
             "report", which="2adic", n_max=2048),
        _job(["morse", "report", "--which", "5adic", "--n-max", 2000, "--depth", 3],
             "report", which="5adic", n_max=2000),
        _job(["morse", "report", "--which", "3adic", "--n-max", 1000, "--depth", 4],
             "report", which="3adic", n_max=1000),
        _job(["morse", "report", "--which", f"2adic-general:{k}", "--n-max", 1024,
              "--depth", 6], "report", which="2adic-general", power=k, n_max=1024),
        _job(["morse", "fit-alpha", "--which", "2adic", "--n-max", 1024, "--depth", 6],
             "fit", p=2),
        _job(["morse", "fit-alpha", "--which", "5adic", "--n-max", 1024, "--depth", 3],
             "fit", p=5),
    ]
    # p divides every weight value, so certification doubles K in p^K.
    for p in (2, 3):
        w = _spec([p * c for c in _unit_quadratic(rng, p)])
        jobs.append(_job(["valuation", "--weight", w, "--p", p, "--expr", "cb",
                          "--range", "1..400"], "valuation", weight=w, p=p, expr="cb",
                         lo=1, hi=400, fmt="json"))
    # Fixed (size, p, expression, format) slots: only the weights and the
    # range starts vary with the seed, so the cost profile barely does.
    for n_max in (360, 480, 600, 720):
        for p in (2, 3, 5):
            for expr, fmt in (("cb", "json"), ("cb-c", "json"), ("cb-1", "csv")):
                if p == 2 and expr == "cb":
                    w = "preset:morse"  # checked against xi_2(L_n) = s_2(n+1) - 1
                else:
                    w = _spec(_unit_quadratic(rng, p))
                lo = rng.randint(1, 40)
                jobs.append(_job(["valuation", "--weight", w, "--p", p, "--expr", expr,
                                  "--range", f"{lo}..{n_max}", "--format", fmt],
                                 "valuation", weight=w, p=p, expr=expr, lo=lo,
                                 hi=n_max, fmt=fmt))
    return jobs


def _series(rng: random.Random) -> list[dict]:
    """40 jobs in cost bands: 7 big, then a band of 7 holding the tail job,
    then 26 small ones whose middle holds the median."""
    def compute(w, n, q=2, mod=None):
        argv = ["compute", "--weight", w, "--n", n] + (["--q", q] if q != 2 else [])
        return _job(argv + (["--mod", mod] if mod else []), "compute",
                    weight=w, n=n, q=q, mod=mod)

    def pq(w, depth, mod=None):
        argv = ["pq", "--weight", w, "--truncate", depth] + (["--mod", mod] if mod else [])
        return _job(argv, "pq", weight=w, depth=depth, mod=mod)

    def period(w, mod, **extra):
        return _job(["period", "--weight", w, "--mod", mod], "period",
                    weight=w, mod=mod, window=5000, **extra)

    def valuation(hi):
        w = rng.choice(("preset:morse", _spec(_quadratic(rng))))
        p = rng.choice((2, 3, 5))
        expr = rng.choice(("cb", "cb-c", "cb-1"))
        return _job(["valuation", "--weight", w, "--p", p, "--expr", expr,
                     "--range", f"1..{hi}"], "valuation", weight=w, p=p, expr=expr,
                    lo=1, hi=hi, fmt="json")

    def rand_w():
        return _spec(_quadratic(rng))

    def mod_of(coeffs):
        # a weight value: a truncation index exists, so the reference is cheap
        return _poly_eval(coeffs, rng.randint(3, 30))

    def certified_period():
        # a prime dividing some b(x): a truncation index exists
        p = rng.choice((5, 7, 11, 13))
        while True:
            coeffs = _quadratic(rng)
            if any(_poly_eval(coeffs, x) % p == 0 for x in range(p)):
                return period(_spec(coeffs), p)

    big = [
        # (1 + 2x + 4x^2) is odd, so mod 12 no truncation index exists and
        # the full-height DP runs over the whole window
        period("poly:1,2,4", 12),
        compute("preset:ones", 240, q=3, mod=rng.choice((None, rng.randint(2, 10**9)))),
        *(compute("preset:morse", n) for n in DEFECT_EXACT_N),
        pq(rng.choice(("preset:morse", rand_w())), 1024),
        pq(rand_w(), 1024, rng.randint(5, 10**6)),
    ]
    c = _quadratic(rng)
    big.append(compute(_spec(c), 2000, mod=mod_of(c)))
    band = [pq("preset:morse", 512), compute("preset:morse", 1000, mod=7)]
    for _ in range(2):
        c = _quadratic(rng)
        band += [pq(rand_w(), 512, rng.randint(5, 10**6)),
                 compute(_spec(c), 1000, mod=mod_of(c))]
    band.append(pq(rand_w(), 512, rng.randint(5, 10**6)))
    middle = [
        period("preset:morse", 7, paper_period=12),
        period("preset:morse", 11, paper_period=55),
        *(certified_period() for _ in range(5)),
        _job(["morse", "period", "--pow3", 7], "pow3", r=7),
        pq(rand_w(), 256), pq(rand_w(), 256, rng.randint(5, 10**6)),
        valuation(240), valuation(240),
        compute(rand_w(), 300),
        compute(rand_w(), 60, q=3, mod=rng.choice((None, rng.randint(2, 10**6)))),
    ]
    low = [
        *(_job(["morse", "period", "--pow3", r], "pow3", r=r) for r in (3, 4, 5, 6, 8)),
        valuation(160), valuation(160), valuation(320), valuation(320),
        compute(rand_w(), 150),
        compute(rand_w(), 40, q=3, mod=rng.choice((None, rng.randint(2, 10**6)))),
        compute(rand_w(), 200),
    ]
    return big + band + middle + low


def _random_tree(rng: random.Random, vertices: int) -> str:
    if vertices == 1:
        return "()"
    left = rng.randint(0, vertices - 1)
    kids = [_random_tree(rng, v) for v in (left, vertices - 1 - left) if v]
    return "(" + "".join(kids) + ")"


def _orbits(rng: random.Random) -> list[dict]:
    """43 jobs: sixteen fixed enumerations on top, then small seeded jobs of
    similar cost, whose middle holds the median."""
    jobs = [
        _job(["orbits", "--n", n, "--max-orbit-n", 17], "orbits", n=n, q=2)
        for n in range(12, 18)
    ]
    jobs += [_job(["orbits", "--q", 3, "--n", n], "orbits", n=n, q=3) for n in range(8, 12)]
    # n + 1 with five binary digits: many minimal orbits to build and reduce;
    # with binary n = 12, 13 and ternary n = 11 they form the band of similar
    # jobs that holds the tail job
    jobs += [_job(["orbits", "--n", n, "--minimal", "--reduce"], "minimal", n=n)
             for n in (30, 46, 54, 58, 60, 61)]
    # n + 1 with two binary digits: one skeleton vertex, cheap to build
    cheap = [n for n in range(10, 70) if bin(n + 1).count("1") == 2]
    for n in rng.sample(cheap, 6):
        jobs.append(_job(["orbits", "--n", n, "--minimal", "--reduce"], "minimal", n=n))
    for _ in range(15):
        shape = _random_tree(rng, rng.randint(3, 5))
        w = _spec(_f2_weight(rng))
        m = rng.randint(1, 3)
        jobs.append(_job(["epsilon", "--weight", w, "--shape", shape, "--m", m,
                          "--method", "all"], "epsilon", weight=w, shape=shape, m=m))
    for _ in range(6):
        theorem = rng.choice(("ps", "main", "conj", "qmain:3", "qmain:4", "qmain:5"))
        w = rng.choice((_spec(_f2_weight(rng)), _spec(_quadratic(rng)), "preset:morse"))
        jobs.append(_job(["check", "--weight", w, "--theorem", theorem], "check",
                         weight=w, theorem=theorem))
    return jobs


_BUILDERS = {"padic": _padic, "series": _series, "orbits": _orbits}


def build_deck(workload: str, seed: int) -> list[dict]:
    """The seeded job list of one workload, in replay order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _BUILDERS[workload](rng)
    rng.shuffle(jobs)
    return jobs
