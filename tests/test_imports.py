"""No unused imports in the library or its tests, and complete `__all__` lists.

Every name a module of `src/wcatalan` or `tests/` imports must be read
somewhere in that module or be re-exported through its `__all__`.
`from __future__` imports are directives, not names.  A library module
with an `__all__` lists in it every public function and class it defines.
Starting the CLI loads neither `dataclasses` nor `inspect`: each command
runs in a fresh process, and the two took about 12 ms of its start-up,
plus 15-18 ms for the classes they built.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "wcatalan"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize(
    "path",
    sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}",
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = _imported_names(tree)
    unused = set(imported) - _used_names(tree) - _exported_names(tree)
    assert not unused, {name: f"{path.name}:{imported[name]}" for name in sorted(unused)}


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.glob("*.py")) if _exported_names(ast.parse(p.read_text()))],
    ids=lambda p: p.name,
)
def test_all_lists_every_public_definition(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    exported = _exported_names(tree)
    defined = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }
    assert not defined - exported, sorted(defined - exported)


def test_cli_start_up_loads_no_dataclasses():
    # a fresh interpreter, as each command gets: what this one has loaded
    # proves nothing
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import wcatalan.cli\n"
        "wcatalan.cli.build_parser()\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC.parent)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout == "[]\n", done.stdout
