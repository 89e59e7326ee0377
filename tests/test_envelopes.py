"""Byte-level regression of the CLI envelopes.

Each case pins, for one command: the exit code, the stderr text, and a
SHA-256 prefix of stdout with the `elapsed_ms` value zeroed (the only
field of an envelope that may vary between runs).  Together the cases run
every subcommand and the exit codes 2, 3 and 4.  For argparse errors only
the last stderr line is pinned; the usage block above it is argparse's
formatting.

A changed digest means an envelope changed.  To see the new output of a
case, run it through `wcatalan.cli.main` and print `normalised_stdout`.

To record cases, run this file with one quoted command per argument:

    PYTHONPATH=src python tests/test_envelopes.py 'orbits --n 3' 'compute --n 3'

It prints one ready-to-paste `CASES` tuple per command, made by the same
`run` and `digest` the test checks with.
"""

import hashlib
import io
import re
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from wcatalan.cli import main

_ELAPSED = re.compile(r'"elapsed_ms": [0-9.e+-]+')


def normalised_stdout(out: str) -> str:
    return _ELAPSED.sub('"elapsed_ms": 0', out)


def digest(out: str) -> str:
    return hashlib.sha256(normalised_stdout(out).encode()).hexdigest()[:16]


def run(command: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(shlex.split(command))
        except SystemExit as exc:  # argparse
            return exc.code, out.getvalue(), err.getvalue().strip().splitlines()[-1]
    return code, out.getvalue(), err.getvalue()


def case(command: str) -> tuple[str, int, str, str]:
    code, out, err = run(command)
    return command, code, err, digest(out)


# (command, exit code, stderr, stdout digest)
CASES = [
    ('compute --weight preset:ones --n 10', 0, '', '8f9964844aabda84'),
    ('compute --weight preset:morse --n 300 --mod 1000003', 0, '', '38985f0690248e11'),
    ('compute --weight preset:morse --n 40 --mod 97', 0, '', '6b6361c694297756'),
    # powers of two: the tree at 17-, 8- and 2-byte slots (2^61, 2^16, 2),
    # and the DP below 128 terms
    ('compute --weight preset:morse --n 600 --mod 2305843009213693952', 0, '', '90b4314e58209ffb'),
    ('compute --weight preset:morse --n 1000 --mod 65536', 0, '', '8bbba4b72f10aa5d'),
    ('compute --weight poly:1,2 --n 200 --mod 2', 0, '', 'e336aaa1c50064e2'),
    ('compute --weight preset:morse --n 100 --mod 1024', 0, '', '80728a9587bd61c8'),
    ('compute --weight poly:3,-5,2 --n 12 --q 3 --mod 97', 0, '', '9d4e649461dc5eb4'),
    ('compute --weight preset:matchings --n 8 --q 3', 0, '', 'b4dc0604426a1389'),
    ('compute --weight table:1,9 --n 5', 3, 'error: table weight has 2 entries (x < 2); extend the table to evaluate b(2)\n', 'e3b0c44298fc1c14'),
    ('compute --weight table:1,9 --n 5 --mod 7', 3, 'error: table weight has 2 entries (x < 2); extend the table to evaluate b(2)\n', 'e3b0c44298fc1c14'),
    ('compute --weight preset:ones --n -1', 3, 'error: semilength must be nonnegative\n', 'e3b0c44298fc1c14'),
    ('compute --weight preset:ones --n -1 --mod 7', 3, 'error: semilength must be nonnegative\n', 'e3b0c44298fc1c14'),
    ('compute --weight preset:ones --n 3 --mod 1', 3, 'error: modulus must be at least 2, got 1\n', 'e3b0c44298fc1c14'),
    # one exact value from the half-length DP (below the 4300-digit limit)
    ('compute --weight preset:morse --n 700', 0, '', 'bc7c0bf484667fd2'),
    # exact values with a zero weight: b(1) = 0, and b(2) = 0 in a table
    ('compute --weight poly:3,-5,2 --n 900', 0, '', '91aeff496655d474'),
    ('compute --weight table:2,3,0,5,7 --n 4', 0, '', '183c44ee3a5d6a7c'),
    # q-ary residues: a word modulus, an 89-bit one, and n = 0
    ('compute --weight preset:ones --n 120 --q 3 --mod 884952143', 0, '', '3b6db767ea1b8259'),
    ('compute --weight poly:3,-5,2 --n 60 --q 3 --mod 618970019642690137449562111', 0, '', 'f8dd4a285fdfead8'),
    ('compute --weight preset:ones --n 0 --q 3 --mod 2', 0, '', '1af0255ac3a49aa7'),
    # q-ary residues at 127 and 128 bits, and past the cut (exact, then reduced)
    ('compute --weight preset:morse --n 60 --q 3 --mod 170141183460469231731687303715884105727', 0, '', '351e5990fbd4313c'),
    ('compute --weight preset:morse --n 60 --q 3 --mod 340282366920938463463374607431768211297', 0, '', '50b0b46461e86188'),
    ('compute --weight preset:morse --n 60 --q 3 --mod 6864797660130609714981900799081393217269435300143305409394463459185543183397656052122559640661454554977296311391480858037121987999716643812574028291115057151', 0, '', 'a02c9976c9b2e258'),
    # the CLI checks the modulus before the semilength and the weights
    ('compute --weight preset:ones --n -1 --mod 1', 3, 'error: modulus must be at least 2, got 1\n', 'e3b0c44298fc1c14'),
    ('compute --weight preset:ones --n -1 --q 3 --mod 1', 3, 'error: modulus must be at least 2, got 1\n', 'e3b0c44298fc1c14'),
    ('compute --weight table:1,9 --n 5 --mod 1', 3, 'error: modulus must be at least 2, got 1\n', 'e3b0c44298fc1c14'),
    ('compute --weight bogus --n 2', 2, "error: weight spec 'bogus' has no kind prefix; expected preset:NAME | poly:c0,c1,... | table:v0,v1,...\nweight grammar: preset:NAME | poly:c0,c1,... | table:v0,v1,...\n", 'e3b0c44298fc1c14'),
    ('compute --n 3', 2, 'wcatalan compute: error: the following arguments are required: --weight', 'e3b0c44298fc1c14'),
    ('valuation --weight preset:morse --p 2 --expr cb-1 --range 1..200', 0, '', 'bb5208478e75daa2'),
    ('valuation --weight preset:morse --p 2 --expr cb --range 1..400', 0, '', 'a6afc6fa5d4e03a2'),
    ('valuation --weight preset:morse --p 5 --expr cb-c --range 1..40 --format csv', 0, '', 'a132146187c5e337'),
    ('valuation --weight preset:morse --p 4 --expr cb --range 1..4', 3, 'error: valuation profiles need a prime p, got 4\n', 'e3b0c44298fc1c14'),
    ('valuation --weight poly:0 --p 2 --expr cb --range 1..5', 0, '', '7c08a66310203db3'),
    # exact-mode windows (n <= 320): b(2) = 0, and the Morse weight at p = 5
    ('valuation --weight poly:2,-1 --p 2 --range 1..300', 0, '', '0c40db8f3a243097'),
    ('valuation --weight preset:morse --p 5 --expr cb-c --range 1..320', 0, '', '8bf6ff90c4e964d5'),
    # b(0) = 0 over residue-mode windows: the closed form, same envelopes
    ('valuation --weight poly:0 --p 2 --range 1..400', 0, '', '019edb7439c9a352'),
    ('valuation --weight poly:0,1 --p 3 --expr cb-c --range 1..500', 0, '', 'e9aa4d5cc3f53bc5'),
    ('valuation --weight poly:0,1 --p 2 --expr cb-1 --range 1..400 --format csv', 0, '', '831154ec5754dff5'),
    # a residue window that starts past 0, residue CSV with `inf` rows, and
    # an exact window whose first rows are exact zeros
    ('valuation --weight poly:3,2,1 --p 3 --range 37..721', 0, '', '8c66cf7db141b469'),
    ('valuation --weight preset:morse --p 3 --expr cb-1 --range 0..330 --format csv', 0, '', '8984d1d84401bacc'),
    # 2-adic residue windows: the tree at 28, 55 and 109 bits, then the DP;
    # and an odd weight over a window past 0
    ('valuation --weight poly:6,14,2 --p 2 --expr cb --range 1..400', 0, '', '6cddc304b9a9f7c9'),
    ('valuation --weight poly:1,0,4 --p 2 --expr cb-1 --range 15..720 --format csv', 0, '', '42dabc565d92a554'),
    ('valuation --weight preset:morse --p 2 --expr cb-c --range 0..12', 0, '', 'e9740c4d27e8d30a'),
    ('check --weight preset:morse --theorem main', 0, '', 'cbcf5c4a06520c43'),
    ('check --weight table:1,3,5,7,9,11 --theorem ps --window 0..5', 0, '', 'c6dd8693b6f4e21a'),
    ('check --weight poly:1,1 --theorem main', 0, '', '417f1350ba5d65ff'),
    # each theorem on a weight that meets its hypotheses and on one that does not
    ('check --weight preset:ones --theorem ps', 0, '', '7220cf27c8bdd1fa'),
    ('check --weight poly:1,2 --theorem ps', 0, '', '82e96e5d95e6c5fc'),
    ('check --weight poly:1,2 --theorem main', 0, '', '94e90dff3e8f3002'),
    ('check --weight preset:morse --theorem conj', 0, '', 'eb56053189daedce'),
    ('check --weight poly:2,1 --theorem conj', 0, '', 'ad0edd8c93dc5cb9'),
    ('check --weight poly:1,9 --theorem qmain:3', 0, '', 'f1878498ad96e519'),
    ('check --weight poly:1,3 --theorem qmain:3', 0, '', 'a1179a0407f7a10b'),
    ('check --weight poly:1,16,16 --theorem qmain:4', 0, '', '7149cd60113cf818'),
    ('check --weight poly:1,4 --theorem qmain:4', 0, '', 'e2046eb577a5c26e'),
    # conj failing only b0-b1-agree-mod-4; a ps family failing at 11 orders,
    # of which the first 8 are witnessed; a table window clipped to the table
    ('check --weight poly:1,2 --theorem conj', 0, '', 'b3f992d1e3d749fa'),
    ('check --weight table:1,0,0,0,0,0,0,0,0,0,0,0 --theorem ps', 0, '', 'ffc0fc0346547160'),
    ('check --weight table:1,3,5,7,9,11,13 --theorem main --window 2..100', 0, '', '81d5a3e73cfa9d12'),
    # refused at the front: a suffix on an id that takes none, and a window
    # on a polynomial, whose verdict covers every x
    ('check --weight preset:morse --theorem main:7', 3, "error: theorem 'main' takes no argument\n", 'e3b0c44298fc1c14'),
    ('check --weight preset:morse --theorem ps:', 3, "error: theorem 'ps' takes no argument\n", 'e3b0c44298fc1c14'),
    ('check --weight poly:1,2 --theorem main --window 5..10', 3, "error: --window applies to table weights; a polynomial's verdict covers every x\n", 'e3b0c44298fc1c14'),
    ('orbits --n 0', 0, '', '2e5230d463c07131'),
    ('orbits --n 7 --reduce', 0, '', '300984dcc6767f7a'),
    ('orbits --n 9 --minimal', 0, '', '559234fb874b08d6'),
    ('orbits --n 46 --minimal --reduce', 0, '', 'ba81b338c775681f'),
    # reductions from the minimal construction: an empty slot (n + 1 = 3),
    # a complete tree reduced to a leaf, and the 10,395 orbits of s = 6
    ('orbits --n 2 --minimal --reduce', 0, '', '3d084747a17c6a7b'),
    ('orbits --n 3 --minimal --reduce', 0, '', '4dd8fe3c84913b84'),
    ('orbits --n 126 --minimal --reduce', 0, '', 'b1b9a7516361d8a5'),
    ('orbits --n 14 --max-orbit-n 14', 0, '', '2512be2ee336b4e2'),
    ('orbits --q 3 --n 9 --reduce', 0, '', '3c7346d17d4fa31d'),
    # the enumeration order: binary at the default cap, and wide q, where a
    # node has more than two child slots to fill
    ('orbits --n 16 --max-orbit-n 16', 0, '', 'b7ae8c56f40f977c'),
    ('orbits --q 3 --n 11', 0, '', 'b243702d389b09a9'),
    ('orbits --q 4 --n 9', 0, '', '3720cf123b102152'),
    ('orbits --q 5 --n 8 --reduce', 0, '', '78fcd7b8f2547808'),
    ('orbits --n 12 --max-orbit-n 5', 4, 'error: orbit enumeration capped at 5 vertices (requested 12); raise the cap explicitly to go further\n', 'e3b0c44298fc1c14'),
    # a negative cap is malformed input, refused before any enumeration;
    # it exited 4 with "capped at -1 vertices"
    ('orbits --n 0 --max-orbit-n -1', 3, 'error: orbit enumeration cap must be nonnegative, got -1\n', 'e3b0c44298fc1c14'),
    # the cap applies to the enumeration only; with --minimal both exited 0
    # with the 16 minimal orbits, which have their own cap
    ('orbits --n 30 --minimal --max-orbit-n 3', 2, 'error: --max-orbit-n caps the enumeration; --minimal has its own cap\n', 'e3b0c44298fc1c14'),
    ('orbits --n 30 --minimal --max-orbit-n -5', 2, 'error: --max-orbit-n caps the enumeration; --minimal has its own cap\n', 'e3b0c44298fc1c14'),
    # the default cap depends on q: 14 at q = 3 and 13 at q >= 4; both
    # commands ran with exit 0 while the cap was 16 for every q
    ('orbits --q 3 --n 15', 4, 'error: orbit enumeration capped at 14 vertices (requested 15); raise the cap explicitly to go further\n', 'e3b0c44298fc1c14'),
    ('orbits --q 4 --n 14', 4, 'error: orbit enumeration capped at 13 vertices (requested 14); raise the cap explicitly to go further\n', 'e3b0c44298fc1c14'),
    # q < 2 is refused before any work; the first printed "result": [] with
    # exit 0, and the epsilon one said "at most 0 allowed"
    ('orbits --q 0 --n 3', 3, 'error: branching must be at least 2, got 0\n', 'e3b0c44298fc1c14'),
    ('orbits --q -1 --n 2', 3, 'error: branching must be at least 2, got -1\n', 'e3b0c44298fc1c14'),
    ('epsilon --q 0 --weight preset:morse --shape (()) --m 2', 3, 'error: branching must be at least 2, got 0\n', 'e3b0c44298fc1c14'),
    ('epsilon --weight preset:morse --shape (()()) --m 4', 0, '', 'f902453f1b318abb'),
    ('epsilon --weight preset:morse --m 1 --shape ' + '(' * 33 + ')' * 33, 4, 'error: carry oracles capped at shape depth 32 (requested 33)\n', 'e3b0c44298fc1c14'),
    # the depth cap depends on q: 17 at q = 3 and 11 at q = 4; the two
    # refused shapes ran with exit 0 while the cap was 32 for every q
    ('epsilon --q 3 --weight poly:1,0,9 --m 3 --shape ' + '(' * 18 + ')' * 18, 4, 'error: carry oracles capped at shape depth 17 (requested 18)\n', 'e3b0c44298fc1c14'),
    ('epsilon --q 4 --weight poly:1,0,16 --m 3 --shape ' + '(' * 12 + ')' * 12, 4, 'error: carry oracles capped at shape depth 11 (requested 12)\n', 'e3b0c44298fc1c14'),
    ('epsilon --q 4 --weight poly:1,0,16 --m 3 --shape ' + '(' * 11 + ')' * 11, 0, '', 'f9b120ebaedb2ce3'),
    ('epsilon --weight preset:morse --shape (()) --m 33', 4, 'error: carry oracles capped at order 32 (requested 33)\n', 'e3b0c44298fc1c14'),
    # the order cap depends on q; this exited 0 while it was 32 for every q
    ('epsilon --q 3 --weight poly:1,0,9 --shape (()) --m 18', 4, 'error: carry oracles capped at order 17 (requested 18)\n', 'e3b0c44298fc1c14'),
    # `--method coin` exited 0 with "coin": [] until it shared the order check
    ('epsilon --weight preset:morse --shape (()) --m -1 --method coin', 3, 'error: max order must be nonnegative\n', 'e3b0c44298fc1c14'),
    # the empty shape past the coin order cap: `all` runs the coin oracle on
    # it as `coin` does (it printed "coin": null under `all`)
    ('epsilon --weight preset:morse --shape "" --m 5 --method all', 0, '', 'f1c502733d9dae2d'),
    ('epsilon --weight preset:morse --shape "" --m 5 --method coin', 0, '', 'ff70e06403021522'),
    # where `all` leaves the coin oracle out ("coin": null): a ternary shape,
    # which `coin` refuses; a 7-vertex path, past the coin vertex cap
    ('epsilon --q 3 --weight poly:1,0,9 --shape (()) --m 3 --method all', 0, '', 'b7cd48eed0c150be'),
    ('epsilon --q 3 --weight poly:1,0,9 --shape (()) --m 3 --method coin', 3, 'error: the coin-configuration oracle is defined for binary orbits only\n', 'e3b0c44298fc1c14'),
    ('epsilon --weight preset:morse --shape ((((((())))))) --m 3 --method all', 0, '', '4c1d50958628c072'),
    ('period --weight preset:morse --mod 7 --max-terms 500', 0, '', 'd9c1e11fbce8a52d'),
    ('period --weight preset:morse --mod 11 --max-terms 40', 0, '', 'd48478ba111cbc84'),
    ('period --weight preset:ones --mod 5 --max-terms 300', 0, '', '27858d039a0c96a2'),
    ('period --weight preset:morse --mod 7 --max-terms 0', 3, 'error: need at least one term\n', 'e3b0c44298fc1c14'),
    ('period --weight table:1,3 --mod 1 --max-terms 10', 3, 'error: modulus must be at least 2, got 1\n', 'e3b0c44298fc1c14'),
    # an empty window is refused before the truncation index and P/Q (k = 4000
    # here); the state width is deg(Q mod 101) = 0, so 64 terms show the
    # residues vanish from n = 51 on, which a width of deg Q = 51 did not
    ('period --weight poly:-4000,1 --mod 1000003 --max-terms 0', 3, 'error: need at least one term\n', 'e3b0c44298fc1c14'),
    ('period --weight poly:-2,-2 --mod 101 --max-terms 64', 0, '', '95beceeaf8fca7dd'),
    ('pq --weight preset:morse --truncate 12 --mod 1000', 0, '', '620eb83028efefca'),
    ('pq --weight poly:1,1 --truncate 6', 0, '', 'b60d26da9dfc35d5'),
    # residues trim to [1] and [1, 2]
    ('pq --weight poly:2,0,2 --truncate 12 --mod 4', 0, '', 'e1531159cc661b8d'),
    # negative weight, zeros inside P and Q
    ('pq --weight poly:1,-1 --truncate 9 --mod 2', 0, '', '551a73ae1edc9e11'),
    ('pq --weight poly:0 --truncate 5 --mod 7', 0, '', '7eebf414715592c9'),
    ('pq --weight preset:morse --truncate 300', 0, '', '1fbe887aaf8b3586'),
    # the depth is checked before the modulus
    ('pq --weight preset:morse --truncate -1 --mod 1', 3, 'error: truncation depth must be nonnegative\n', 'e3b0c44298fc1c14'),
    ('pq --weight preset:morse --truncate 3 --mod 1', 3, 'error: modulus must be at least 2, got 1\n', 'e3b0c44298fc1c14'),
    ('morse period --mod 7 --max-terms 200', 0, '', '006ec8dc27bb37c4'),
    ('morse period --pow3 3 --max-terms 300', 0, '', 'a7d7b9e0cbbaef39'),
    # the default window, max(200, 22 * 2 * 3^(r - 3)) = 396 terms at r = 5
    ('morse period --pow3 5', 0, '', '259c7abcf039f0f8'),
    ('morse period --pow3 4 --max-terms 0', 3, 'error: need at least one term\n', 'e3b0c44298fc1c14'),
    # a usage error, not a weight spec error: no weight grammar under it
    ('morse period', 2, 'error: morse period needs --mod M or --pow3 R\n', 'e3b0c44298fc1c14'),
    # both options: this exited 0 with the mod-27 report, the 7 dropped unsaid
    ('morse period --mod 7 --pow3 3', 2, 'error: morse period takes --mod M or --pow3 R, not both\n', 'e3b0c44298fc1c14'),
    ('morse profile --expr cb-1 --p 2 --range 1..60 --format csv', 0, '', '77f13c616b5e4cf1'),
    ('morse profile --expr cb --p 5 --range 3..330', 0, '', '70273aa04f69f56a'),
    ('morse fit-alpha --which 2adic --n-max 256 --depth 4', 0, '', 'b4bff053a61e2775'),
    ('morse fit-alpha --which 2adic --n-max 64 --depth 3', 0, '', '573a1ec75f64d0ce'),
    ('morse report --which 5adic --n-max 200 --depth 3', 0, '', 'aad88c0d98ce040c'),
    ('morse report --which 3adic --n-max 100 --depth 2', 0, '', '435bc9f508197cb7'),
    # the 2-adic family, the default and explicit powers, and an
    # inconsistent fit with a conflict (power 2, a 32-row window)
    ('morse report --which 2adic --n-max 300 --depth 6', 0, '', '9fc7444e5044fc85'),
    ('morse report --which 2adic-general:3 --n-max 300 --depth 6', 0, '', '9b7ff72a02f7d1bd'),
    ('morse report --which 2adic-general --n-max 100 --depth 4', 0, '', '559d163a1d600eb4'),
    ('morse report --which 2adic-general:2 --n-max 32 --depth 6', 0, '', 'cbfe9a85c70d1c4b'),
    # the 2-adic jobs at deck size: each certification's first rung is one
    # tree call mod 2^25..2^28
    ('morse report --which 2adic --n-max 2048 --depth 6', 0, '', '4656de557bd7f72f'),
    ('morse report --which 2adic-general:4 --n-max 1024 --depth 6', 0, '', 'cb2bf65c31da9438'),
    ('morse fit-alpha --which 2adic --n-max 1024 --depth 6', 0, '', '25db4bfb453309a0'),
    ('morse fit-alpha --which 5adic --n-max 200 --depth 3', 0, '', 'a6a8af29e01a8e6a'),
    # a failed fit emitted alone: one conflict, at n = 3
    ('morse fit-alpha --which 2adic-general:2 --n-max 64 --depth 6', 0, '', 'f4c6228d6ecabe78'),
    # the fitter stops above the deepest datum: depth 40 gives the depth-3
    # fit at once (depth 13 took 57 s)
    ('morse fit-alpha --which 5adic --n-max 100 --depth 40', 0, '', 'af5fe02d0b1d924e'),
    # a stray suffix, a depth below 1 and a 3adic fit are refused; the first
    # three exited 0, and fit-alpha printed the whole 3adic report
    ('morse report --which 5adic:junk --n-max 100', 3, "error: unknown conjecture '5adic:junk'; expected 2adic, 2adic-general:k, 5adic or 3adic\n", 'e3b0c44298fc1c14'),
    ('morse report --which 3adic:9 --n-max 100', 3, "error: unknown conjecture '3adic:9'; expected 2adic, 2adic-general:k, 5adic or 3adic\n", 'e3b0c44298fc1c14'),
    ('morse report --which 3adic --n-max 100 --depth 0', 3, 'error: depth must be at least 1\n', 'e3b0c44298fc1c14'),
    ('morse fit-alpha --which 3adic --n-max 100', 3, 'error: fit-alpha takes 2adic, 2adic-general:k or 5adic; for 3adic run `morse report`\n', 'e3b0c44298fc1c14'),
]


@pytest.mark.parametrize("command, code, err, out", CASES, ids=[c[0] for c in CASES])
def test_envelope_is_unchanged(command, code, err, out):
    assert case(command) == (command, code, err, out)


if __name__ == "__main__":
    for command in sys.argv[1:]:
        print(f"    {case(command)!r},")
