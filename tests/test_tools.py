import subprocess
import sys
from pathlib import Path

CODE_LINES = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

FIXTURE = '''"""Module docstring,
two lines."""

import os  # a comment

# only a comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """not a
        docstring"""
        return (text,
                os.sep)
'''


def test_code_lines_skips_docstrings_comments_and_layout(tmp_path):
    # code lines of a.py: import, class, def, text = (a string that is not
    # a docstring counts on its first line), and both lines of the return
    (tmp_path / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
    out = subprocess.run(
        [sys.executable, str(CODE_LINES), str(tmp_path)],
        capture_output=True, text=True, check=True,
    ).stdout
    rows = [line.split() for line in out.splitlines()]
    assert rows == [["a.py", "18", "6"], ["b.py", "1", "1"], ["total", "19", "7"]]
