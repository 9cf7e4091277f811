import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path):
    """The names a module imports at any level and never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.relative_to(ROOT)}:{line}: {name}"
                  for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    files = sorted((ROOT / "src" / "awpi").glob("*.py")) \
        + sorted((ROOT / "tests").glob("*.py"))
    assert len(files) > 10
    unused = [u for f in files for u in _unused_imports(f)]
    assert unused == []


def _private_definitions(tree):
    """The module-level private functions, classes and constants a module
    defines, with their lines."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out.setdefault(name, node.lineno)
    return out


def _reads(tree):
    """Every name a module reads, as a name, an attribute or an import."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_no_unreferenced_private_helpers():
    files = sorted((ROOT / "src" / "awpi").glob("*.py"))
    trees = {f: ast.parse(f.read_text(), str(f)) for f in files}
    read = set().union(*map(_reads, trees.values()))
    defined = [(f, name, line) for f, tree in trees.items()
               for name, line in _private_definitions(tree).items()]
    assert len(defined) > 100
    unread = [f"{f.relative_to(ROOT)}:{line}: {name}"
              for f, name, line in defined if name not in read]
    assert unread == []
