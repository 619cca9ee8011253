"""List the statements of src/hydropde that no tier-1 test runs.

    python3 tools/untested_lines.py [pytest arguments, e.g. --hypothesis-seed=0]

Runs the tier-1 suite in this process under sys.settrace (and
threading.settrace for threads it starts), with the standard library
alone, and records the lines run in src/hydropde.  A statement is the
first line of an ast statement, or of an except clause, whose lines hold
bytecode; it has run when any line of it has (for a compound statement,
any line of its header, decorators included).  Docstrings are not
statements.

Prints every statement that did not run, with its file and line, and exits
1 if one lies outside an `if __name__ == "__main__":` body or the suite
fails, else 0.
"""

import ast
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hydropde"


def _is_main_guard(node):
    """True for the test of `if __name__ == "__main__":`."""
    return (isinstance(node, ast.Compare) and isinstance(node.left, ast.Name)
            and node.left.id == "__name__" and len(node.ops) == 1
            and isinstance(node.ops[0], ast.Eq)
            and isinstance(node.comparators[0], ast.Constant)
            and node.comparators[0].value == "__main__")


def _children(node):
    """The statement lists nested in a compound statement or except clause."""
    blocks = [getattr(node, name, []) for name in ("body", "orelse", "finalbody")]
    blocks += [[h] for h in getattr(node, "handlers", [])]  # except clauses
    blocks += [case.body for case in getattr(node, "cases", [])]  # match
    return [b for b in blocks if b]


def _is_docstring(node, position):
    return (position == 0 and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def statements(source, filename="<source>"):
    """{first line: (lines, exempt)} of each statement of a module's source.

    lines is the range of lines that count as the statement's own: all of a
    simple statement, the header of a compound one.  exempt is True inside
    an `if __name__ == "__main__":` body.  Statements with no bytecode on
    those lines (such as `global`) are left out.
    """
    with_code, stack = set(), [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        with_code.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))

    found = {}

    def visit(body, exempt, docstring_allowed):
        for position, node in enumerate(body):
            if docstring_allowed and _is_docstring(node, position):
                continue
            decorators = getattr(node, "decorator_list", [])
            first = min([node.lineno] + [d.lineno for d in decorators])
            blocks = _children(node)
            if blocks:
                last = max(first, min(b[0].lineno for b in blocks) - 1)
            else:
                last = node.end_lineno
            lines = range(first, last + 1)
            if with_code.intersection(lines):
                found[first] = (lines, exempt)
            scope = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            for block in blocks:
                inner = exempt or (isinstance(node, ast.If) and block is node.body
                                   and _is_main_guard(node.test))
                visit(block, inner, scope and block is node.body)

    visit(ast.parse(source, filename).body, False, True)
    return found


def not_run(source, ran, filename="<source>"):
    """[(line, exempt)] of the statements of source none of whose lines are in ran."""
    return sorted((first, exempt) for first, (lines, exempt) in statements(source, filename).items()
                  if not ran.intersection(lines))


def _trace_package(ran):
    """A sys.settrace function that adds (file, line) to ran for the package's frames."""
    prefix, ours = os.path.realpath(PACKAGE) + os.sep, {}

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = os.path.realpath(name).startswith(prefix)
        return local if ours[name] else None

    return global_trace


def main(argv):
    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    ran = set()
    tracer = _trace_package(ran)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    by_file = {}
    for name, line in ran:
        by_file.setdefault(os.path.realpath(name), set()).add(line)
    failing = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        for line, exempt in not_run(source, by_file.get(os.path.realpath(path), set()), str(path)):
            failing += not exempt
            note = "  [exempt: __main__ body]" if exempt else ""
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}{note}")
    print(f"untested statements outside __main__ bodies: {failing}")
    if status != 0:
        print(f"the test suite failed (pytest exit status {int(status)})")
    return 1 if failing or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
