"""Tests of the benchmark itself: decks, references, counters, result format."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import decks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import runner  # noqa: E402
import spans  # noqa: E402
from wcatalan import catalan, kernel, orbits, periodicity  # noqa: E402
from wcatalan.weights import parse_weight_spec  # noqa: E402

SMALL_DECK = [
    {"argv": ["valuation", "--weight", "preset:morse", "--p", "2", "--expr", "cb-c",
              "--range", "1..340"]},
    {"argv": ["valuation", "--weight", "poly:2,2", "--p", "2", "--expr", "cb",
              "--range", "1..330", "--format", "csv"]},
    {"argv": ["period", "--weight", "preset:morse", "--mod", "7"]},
    {"argv": ["pq", "--weight", "preset:morse", "--truncate", "16"]},
    {"argv": ["compute", "--weight", "preset:ones", "--q", "3", "--n", "10"]},
    {"argv": ["orbits", "--n", "8", "--minimal", "--reduce"]},
    {"argv": ["orbits", "--n", "8"]},
    {"argv": ["epsilon", "--weight", "preset:morse", "--shape", "(()())", "--m", "3"]},
]


@pytest.mark.parametrize("workload", decks.WORKLOADS)
def test_decks_are_seeded_and_fixed_in_size(workload):
    a, b = decks.build_deck(workload, 7), decks.build_deck(workload, 7)
    assert a == b
    assert a != decks.build_deck(workload, 8)
    assert len({len(decks.build_deck(workload, s)) for s in range(5)}) == 1


def test_series_deck_keeps_the_exact_compute_defect_sizes():
    deck = decks.build_deck("series", 3)
    sizes = {j["check"]["n"] for j in deck if j["check"]["kind"] == "compute"
             and j["check"]["mod"] is None and j["check"]["weight"] == "preset:morse"}
    assert sizes == set(decks.DEFECT_EXACT_N) and min(sizes) >= 755


def test_continued_fraction_reference_matches_the_library():
    for spec in ("preset:morse", "poly:3,1,2", "poly:1,0,0,5"):
        b = parse_weight_spec(spec)
        coeffs = reference.weight_coeffs(spec)
        bvals = reference.weight_values(coeffs, 40)
        for depth in (0, 1, 5, 12):
            pq = periodicity.continued_fraction_pq(b, depth)
            P, Q = reference.continuant_pq(bvals, depth)
            assert (P, Q) == (list(pq.P.coefficients), list(pq.Q.coefficients))
        assert reference.catalan_series(bvals, 30) == catalan.weighted_catalan_series(b, 30)
        assert reference.catalan_series(bvals, 30, 1000) == [
            v % 1000 for v in catalan.weighted_catalan_series(b, 30)]
        assert reference.q_ary_value(bvals, 3, 9) == catalan.q_weighted_catalan(b, 3, 9)


def test_orbit_counts_match_enumeration():
    for q in (2, 3):
        counts = reference._tree_counts(9, q)
        assert counts[1:] == tuple(len(orbits.enumerate_orbits(n, q)) for n in range(1, 10))
    for n in range(1, 15):
        low, count = reference._minimal_count(n)
        assert low == bin(n + 1).count("1") - 1
        assert count == len(orbits.minimal_orbits(n))


def _outputs(tmp_path, deck, tracer=None):
    record = runner.run_pass(deck, tmp_path, tracer)
    return record, [(tmp_path / f"{i}.txt").read_text() for i in range(len(deck))]


def test_checker_accepts_right_and_rejects_wrong_outputs(tmp_path):
    deck = [j for w in decks.WORKLOADS for j in decks.build_deck(w, 5)
            if j["check"]["kind"] in ("pq", "check", "epsilon", "minimal", "pow3")
            and len(" ".join(j["argv"])) < 80][:12]
    deck = [j for j in deck if "1024" not in j["argv"]]
    record, texts = _outputs(tmp_path, deck)
    for job, text, rec in zip(deck, texts, record["jobs"]):
        assert rec["rc"] == 0
        assert reference.check(job, text) is None, job["argv"]
    compute = {"argv": ["compute", "--weight", "poly:3,1,2", "--n", "40"],
               "check": {"kind": "compute", "weight": "poly:3,1,2", "n": 40, "q": 2,
                         "mod": None}}
    (text,) = _outputs(tmp_path, [compute])[1]
    assert reference.check(compute, text) is None
    envelope = json.loads(text)
    envelope["result"] += 1
    assert reference.check(compute, json.dumps(envelope)) is not None


def test_counters_repeat_exactly_and_self_times_cover_the_job(tmp_path):
    runs = []
    for _ in range(2):
        tracer = spans.Tracer()
        tracer.install()
        try:
            record = runner.run_pass(SMALL_DECK, tmp_path, tracer)
        finally:
            tracer.uninstall()
        assert all(j["rc"] == 0 for j in record["jobs"])
        runs.append(record)
        wall = sum(j["s"] for j in record["jobs"])
        assert sum(record["self_s"].values()) == pytest.approx(wall, rel=0.05)
    assert runs[0]["counts"] == runs[1]["counts"]
    assert runs[0]["calls"] == runs[1]["calls"]
    counts = runs[0]["counts"]
    assert counts["morse.certify_dp_runs"] > counts["morse.certifications"] == 2
    assert counts["orbits.emitted"] == len(orbits.minimal_orbits(8)) + len(
        orbits.enumerate_orbits(8))
    assert counts["periodicity.pq.depth"] == 16 + 3
    assert kernel.dyck_dp_mod is not None and not hasattr(kernel.dyck_dp_mod, "__wrapped__")


def test_dp_cells_counts_inner_loop_updates():
    def brute(n_max, cap):
        h_max = n_max if cap is None else min(cap, n_max)
        return sum(len(range(s & 1, min(s, 2 * n_max - s, h_max) + 1, 2))
                   for s in range(1, 2 * n_max + 1))

    for n_max, cap in ((0, None), (1, None), (7, None), (30, 4), (33, 100)):
        assert spans.dp_cells(n_max, cap) == brute(n_max, cap)


def test_tail_uses_the_rank_with_ten_jobs_beyond():
    value, pct = run.tail([float(i) for i in range(1, 41)])
    assert (value, pct) == (30.0, 75.0)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(decks.WORKLOADS)
    assert all(m["unit"] == run.END_TO_END[m["name"]] for m in spec["end_to_end"])
    assert all(m["unit"] == run.PER_LAYER[m["name"]] for m in spec["per_layer"])


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "padic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
