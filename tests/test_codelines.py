"""The line count that tools/codelines.py reports for the package."""

import runpy
from pathlib import Path

CODELINES = Path(__file__).resolve().parents[1] / "tools" / "codelines.py"

SOURCE = '''"""Module docstring,
over two lines."""

# a comment
X = """a string that is
not a docstring"""


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        return 1  # a trailing comment
'''


def test_counts_lines_outside_blanks_comments_and_docstrings():
    code_lines = runpy.run_path(str(CODELINES))["code_lines"]
    # X's two lines, the class line, the def line and the return line.
    assert code_lines(SOURCE) == 5
