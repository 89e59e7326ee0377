"""Job runner: one fresh Python process replays a deck through cli.main(argv).

Usage (run.py starts it; it is not meant to be run by hand):

    python runner.py WORKDIR SECONDS TRACE

WORKDIR holds deck.json; the runner writes each job's stdout to
WORKDIR/out/<index>.txt and its timings to WORKDIR/results.json.

It is a closed loop with one client: one job at a time.  It replays whole
passes over the deck for about SECONDS: it stops when one more pass would
likely end past that.  Between jobs, outside the
timed region, it empties the package's function caches and collects
garbage, so every job starts as cold as a fresh `wcatalan` process.  With
TRACE=1 it alternates untraced and traced passes and then times the
kernel sweep.  Before each pass it times set-up (importing wcatalan and
building the CLI parser) in a few fresh interpreters, so the set-up samples
spread over the whole run.

Between jobs it also times a fixed calibration workload (calibrate()); each
job and set-up sample records the mean calibration time around it, so
run.py can scale the timing to a fixed machine speed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
from wcatalan import cli, kernel  # noqa: E402
from wcatalan.weights import WeightFunction  # noqa: E402

SETUP_PER_PASS = 3
_SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import wcatalan.cli\n"
    "wcatalan.cli.build_parser()\n"
    "print(time.perf_counter() - start)\n"
)
SWEEP_SIZES = (512, 1024, 2048, 4096)
SWEEP_MODULUS = 1 << 60
_ELAPSED = re.compile(rb'"elapsed_ms": [0-9.eE+-]+')


def calibrate() -> float:
    """Seconds for a fixed mix of pure-Python work like the program's own:
    a modular Dyck DP, a big integer printed in decimal, tuple keys in a dict
    serialised to JSON, and a sort of many small tuples.  It never calls the program, so a
    change to the program cannot move it; only the machine's speed does."""
    start = time.perf_counter()
    modulus = (1 << 61) - 1
    prev = [1] + [0] * 122
    for s in range(1, 241):
        cur = [0] * 122
        for j in range(s & 1, min(s, 240 - s, 120) + 1, 2):
            v = prev[j + 1]
            if j:
                v += prev[j - 1] * (2 * j + 1) ** 2
            cur[j] = v % modulus
        prev = cur
    big = math.factorial(1500)
    str(big)
    counts: dict[tuple[int, int], int] = {}
    for i in range(3000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
    json.dumps(sorted(counts.items()))
    sorted((i * 7919 % 100003, (i,)) for i in range(8000))
    return time.perf_counter() - start


def measure_setup() -> float:
    """Seconds to import wcatalan and build the CLI parser in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(ROOT / "src")],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip())


def clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "wcatalan":
            continue
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def run_job(argv: list[str], out_path: Path, tracer=None) -> dict:
    """Run one CLI job with stdout in a real file; time only the call."""
    clear_caches()
    gc.collect()
    exc_type = None
    with open(out_path, "w") as out, open(os.devnull, "w") as err:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = tracer.run_job(cli.main, argv) if tracer else cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # an uncaught exception exits 1, as in the CLI
                code, exc_type = 1, type(exc).__name__
            out.flush()
            seconds = time.perf_counter() - start
    # elapsed_ms is the one field that varies between runs; pin it to 0 so
    # the byte count and digest repeat exactly
    data = _ELAPSED.sub(b'"elapsed_ms": 0', out_path.read_bytes())
    return {
        "s": seconds,
        "rc": code,
        "exc": exc_type,
        "bytes": len(data),
        "digest": hashlib.blake2b(data, digest_size=16).hexdigest(),
    }


def run_pass(deck: list[dict], out_dir: Path, tracer=None) -> dict:
    """One pass over the deck, with a calibration between consecutive jobs."""
    cals = [calibrate()]
    jobs = []
    for i, job in enumerate(deck):
        jobs.append(run_job(job["argv"], out_dir / f"{i}.txt", tracer))
        cals.append(calibrate())
    for job, before, after in zip(jobs, cals, cals[1:]):
        job["cal"] = (before + after) / 2
    record = {"traced": tracer is not None, "jobs": jobs}
    if tracer is not None:
        record["self_s"] = dict(tracer.self_s)
        record["calls"] = dict(tracer.calls)
        record["counts"] = dict(tracer.counts)
        record["counts"]["cli.out_bytes"] = sum(j["bytes"] for j in jobs)
    return record


def kernel_sweep() -> dict:
    """Fixed-size DP sweep: Morse weight, modulus 2^60, through the kernel switch."""
    morse = WeightFunction.preset("morse")
    sizes, runs = {}, {}
    for n in SWEEP_SIZES:
        bvals = morse.values(0, n)
        gc.collect()
        start = time.perf_counter()
        runs[n] = kernel.dyck_dp_mod(bvals, n, SWEEP_MODULUS)
        sizes[n] = {"s": time.perf_counter() - start, "cells": spans.dp_cells(n)}
    longest = runs[SWEEP_SIZES[-1]]
    return {
        "sizes": sizes,
        "prefix_consistent": all(r == longest[: len(r)] for r in runs.values()),
        "first": runs[SWEEP_SIZES[0]],
    }


def main(argv: list[str]) -> int:
    work = Path(argv[0])
    seconds = float(argv[1])
    trace = argv[2] == "1"
    deck = json.loads((work / "deck.json").read_text())
    out_dir = work / "out"
    out_dir.mkdir(exist_ok=True)

    passes, setup_s = [], []
    started = time.perf_counter()
    rounds = 0
    while True:
        for _ in range(SETUP_PER_PASS):
            before = calibrate()
            sample = measure_setup()
            setup_s.append({"s": sample, "cal": (before + calibrate()) / 2})
        passes.append(run_pass(deck, out_dir))
        if trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                passes.append(run_pass(deck, out_dir, tracer))
            finally:
                tracer.uninstall()
        rounds += 1
        elapsed = time.perf_counter() - started
        # stop when one more round would likely run past the deadline
        if elapsed * (rounds + 1) / rounds > seconds:
            break
    result = {
        "backend": kernel.BACKEND,
        "passes": passes,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        result["sweep"] = kernel_sweep()
    (work / "results.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
