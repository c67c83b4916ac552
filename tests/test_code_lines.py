"""scripts/code_lines.py on small sources whose code lines are counted by hand."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location(_PATH.stem, _PATH)
code_lines_script = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines_script)
code_lines = code_lines_script.code_lines

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment


# a comment between statements
class Box:
    """Class docstring."""

    side = 2.0

    def area(self):
        """Function
        docstring."""
        # a comment inside the function
        return math.pow(
            self.side,
            2,
        )
'''


def test_counts_spanned_lines_less_docstrings():
    # the import 1; the class line, `side`, the blank lines around it and
    # the def line 5 (the class spans them); the comment inside the
    # function 1 and the four-line call 4
    assert code_lines(SOURCE) == 11


def test_blank_lines_comments_and_docstrings_alone_count_nothing():
    assert code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
    assert code_lines("") == 0


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    first, second = tmp_path / "a.py", tmp_path / "b.py"
    first.write_text(SOURCE, encoding="utf-8")
    second.write_text("x = 1\n", encoding="utf-8")
    assert code_lines_script.main([str(first), str(second)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"11 {first}", f"1 {second}", "12 total"]
