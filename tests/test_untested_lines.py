"""tools/untested_lines.py: which lines are statements, and when a statement has run."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "untested_lines", Path(__file__).resolve().parent.parent / "tools" / "untested_lines.py")
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)

SOURCE = '''"""A module docstring."""
import os


@staticmethod
def f(x):
    """A docstring."""
    global seen
    if x:
        return (1 +
                x)
    return 0


if __name__ == "__main__":
    f(1)
'''


def test_statements_skip_docstrings_and_lines_without_bytecode():
    # the docstrings and `global seen` (line 8) are no statements
    found = tool.statements(SOURCE)
    assert sorted(found) == [2, 5, 9, 10, 12, 15, 16]
    assert list(found[5][0]) == [5, 6]  # a header: decorator and def
    assert list(found[10][0]) == [10, 11]  # a whole simple statement
    assert [line for line, (_, exempt) in sorted(found.items()) if exempt] == [16]


def test_a_statement_has_run_when_any_of_its_lines_has():
    # line 11 is the second line of the return on 10, line 6 the def below its decorator
    ran = {2, 6, 9, 11, 15}
    assert tool.not_run(SOURCE, ran) == [(12, False), (16, True)]
    assert tool.not_run(SOURCE, set(range(1, 17))) == []
