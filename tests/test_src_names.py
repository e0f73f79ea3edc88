"""Every module-level function, class and assigned name (a constant, an
alias, a logger) in ``src/aifv`` has a reader outside the tests: what
only the tests use belongs in the tests."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "aifv"


def bench_names():
    """The names the bench reaches: attributes it reads, names it imports
    from ``aifv``, and identifier strings such as its traced names."""
    names = set()
    for path in (ROOT / "bench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "aifv":
                names.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.isidentifier()):
                names.add(node.value)
    return names


def test_no_src_name_is_used_only_by_tests():
    bench = bench_names()
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
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                defined.extend((module, node.id) for target in targets
                               for node in ast.walk(target) if isinstance(node, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if inside.get(id(node)) != node.id:
                    used.add((module, node.id))
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                used.update((node.module, alias.name) for alias in node.names)
    unused = [f"{module}.{name}" for module, name in defined
              if (module, name) not in used and name not in bench]
    assert unused == [], f"used only by tests: {unused}"


def test_every_src_import_is_read():
    """Every name a ``src/aifv`` module imports is read in that module
    (``__init__.py`` re-exports, and ``__future__`` imports are flags)."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unread.extend(f"{path.stem}: {name}" for name in bound if name not in read)
    assert unread == [], f"imported but never read: {unread}"
