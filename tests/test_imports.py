"""Every imported name is read in its module: package sources and tests alike."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the package's __init__ imports names to re-export them, not to read them
MODULES = sorted(p for p in (ROOT / "src" / "hydropde").glob("*.py")
                 if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py"))


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns


def _unread_imports(source):
    """(line, name) of each name an import binds in source that nothing reads."""
    tree = ast.parse(source)
    bound, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    # a string annotation such as "Forcing | None" reads the names in it
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                read.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_unread_imports():
    assert MODULES
    unread = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in MODULES for line, name in _unread_imports(path.read_text())]
    assert not unread, "imported but never read:\n" + "\n".join(unread)
