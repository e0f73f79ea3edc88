"""The runtime dependencies in ``pyproject.toml`` are exactly the
third-party packages ``src/aifv`` imports: a dropped dependency cannot
linger in the manifest and a new import cannot go unlisted."""

import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "aifv"


def normalized(name):
    return re.sub(r"[-_.]+", "-", name).lower()


def third_party_imports():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found.update(name.partition(".")[0] for name in names)
    return {normalized(name) for name in found
            if name not in sys.stdlib_module_names and name != "aifv"}


def declared_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    return {normalized(re.match(r"[A-Za-z0-9._-]+", dep).group())
            for dep in project["dependencies"]}


def test_dependencies_are_the_third_party_imports():
    assert third_party_imports() == declared_dependencies()
