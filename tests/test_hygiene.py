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
