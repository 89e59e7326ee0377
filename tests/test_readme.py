"""Every `wcatalan ...` line of the README's examples runs as shown.

Each line is run through `cli.main`: it must exit 0 and print an envelope
of its own command, or CSV where it asks for `--format csv`.  Where the
line under it is a one-line `# "result": ...` comment, that result must
equal the command's own.  A comment that elides part of the result with
`...`, or that runs on to an indented `#` line, is not compared.
"""

import io
import json
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from wcatalan.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
_LINES = README.read_text().splitlines()
EXAMPLES = [line.split("#")[0].strip() for line in _LINES if line.startswith("wcatalan ")]
_RESULT = '# "result": '
RESULTS = [
    (line.split("#")[0].strip(), shown[len(_RESULT):])
    for line, shown, after in zip(_LINES, _LINES[1:], _LINES[2:] + [""])
    if line.startswith("wcatalan ") and shown.startswith(_RESULT)
    and "..." not in shown and not after.startswith("#  ")
]


def run(line: str) -> tuple[list[str], int, str]:
    argv = shlex.split(line)[1:]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return argv, code, out.getvalue()


def test_the_readme_has_its_examples():
    assert len(EXAMPLES) >= 15
    assert len(RESULTS) == 6


@pytest.mark.parametrize("line", EXAMPLES)
def test_example_runs(line):
    argv, code, out = run(line)
    assert code == 0
    if "--format" in argv and argv[argv.index("--format") + 1] == "csv":
        header, *rows = out.splitlines()
        assert header.startswith("n,") and rows
        return
    command = " ".join(argv[:2] if argv[0] == "morse" else argv[:1])
    assert json.loads(out)["command"] == command


@pytest.mark.parametrize("line, shown", RESULTS)
def test_example_prints_the_result_shown(line, shown):
    _, code, out = run(line)
    assert code == 0
    assert json.loads(out)["result"] == json.loads(shown)
