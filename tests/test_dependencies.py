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


# the modules ``import aifv.cli`` and the codec commands load
CODEC_PATH = ("__init__", "bitstrings", "modes", "forest", "optimizer", "sources", "cli")


def import_time_imports(tree):
    """(line, module) of each import that runs when the module is loaded:
    everything outside function bodies; a relative import is named
    ``aifv.<module>``."""
    found = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.lineno, f"aifv.{node.module}" if node.level else node.module))
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_codec_path_loads_no_numpy():
    """No module on the codec path imports numpy, or a module off the
    path, when it is loaded; such imports belong inside the functions of
    the build and bench commands."""
    offending = []
    for stem in CODEC_PATH:
        for line, name in import_time_imports(ast.parse((SRC / f"{stem}.py").read_text())):
            top, _, sub = name.partition(".")
            if top == "numpy" or (top == "aifv" and sub.split(".")[0] not in CODEC_PATH):
                offending.append(f"{stem}.py:{line} imports {name}")
    assert offending == [], f"codec path imports at load time: {offending}"
