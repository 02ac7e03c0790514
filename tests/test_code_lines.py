import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    source = '''"""Module docstring,
over two lines."""

import math  # a comment on a code line


# a comment line
class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string that is
not a docstring"""
        return math.pi, text
'''
    # import, class, def, the two lines of the string, return
    assert code_lines.code_lines(source) == 6


def test_code_lines_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n', encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["2", str(tmp_path / "a.py")], ["0", str(tmp_path / "b.py")],
                                                ["2", "total"]]
