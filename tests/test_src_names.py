"""Every module-level function and class in ``src/aifv`` has a caller
outside the tests: helpers only the tests use belong in the tests."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "aifv"


def test_no_src_name_is_used_only_by_tests():
    bench_words = set()
    for path in (ROOT / "bench").glob("*.py"):
        bench_words |= set(re.findall(r"\w+", path.read_text()))
    defined = []
    used = set()  # (module, name) pairs
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = path.stem
        tree = ast.parse(path.read_text())
        inside = {}  # node id -> name of the top-level def enclosing it
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, top.name))
                for node in ast.walk(top):
                    inside[id(node)] = top.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if inside.get(id(node)) != node.id:
                    used.add((module, node.id))
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                used.update((node.module, alias.name) for alias in node.names)
    unused = [f"{module}.{name}" for module, name in defined
              if (module, name) not in used and name not in bench_words]
    assert unused == [], f"used only by tests: {unused}"
