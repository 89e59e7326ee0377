"""Every `wcatalan ...` line of the README's examples runs as shown.

Each line is run through `cli.main`: it must exit 0 and print an envelope
of its own command, or CSV where it asks for `--format csv`.
"""

import io
import json
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from wcatalan.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLES = [
    line.split("#")[0].strip()
    for line in README.read_text().splitlines()
    if line.startswith("wcatalan ")
]


def test_the_readme_has_its_examples():
    assert len(EXAMPLES) >= 15


@pytest.mark.parametrize("line", EXAMPLES)
def test_example_runs(line):
    argv = shlex.split(line)[1:]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    assert code == 0
    if "--format" in argv and argv[argv.index("--format") + 1] == "csv":
        header, *rows = out.getvalue().splitlines()
        assert header.startswith("n,") and rows
        return
    command = " ".join(argv[:2] if argv[0] == "morse" else argv[:1])
    assert json.loads(out.getvalue())["command"] == command
