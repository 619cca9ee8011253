"""Every imported name is read in its module: package sources and tests alike.

The package's __init__ imports names only to re-export them, so there the
check is that the names it imports are exactly its __all__.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INIT = ROOT / "src" / "hydropde" / "__init__.py"
MODULES = sorted(p for p in (ROOT / "src" / "hydropde").glob("*.py")
                 if p != INIT) + sorted((ROOT / "tests").glob("*.py"))


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


def test_init_imports_exactly_all():
    tree = ast.parse(INIT.read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    (exported,) = [ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__"]
    assert len(exported) == len(set(exported)), "__all__ lists a name twice"
    assert imported == set(exported), (
        f"imported, not in __all__: {sorted(imported - set(exported))}; "
        f"in __all__, not imported: {sorted(set(exported) - imported)}")
