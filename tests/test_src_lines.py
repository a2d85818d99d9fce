import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _PATH)
tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tool)

# 22 lines, of which 9 are code: the import, the class line, both lines of
# the string assigned to x, f's def line and its return, the one-line g,
# h's def line and the line where code follows h's docstring, whose
# non-ASCII characters make its end column in bytes differ from the one in
# characters
FIXTURE = '''"""Module docstring,
on two lines."""

# a comment
import os  # and a comment after code


class A:
    """Class docstring."""

    x = """a string
that is code"""

    def f(self):
        """Function
        docstring."""
        return "\u03b5"  # non-ASCII


def g(): return os.sep
def h():
    """\u03b5\u03b5\u03b5\u03b5\u03b5\u03b5\u03b5\u03b5"""; pass
'''


def test_counts_code_lines():
    assert tool.count(FIXTURE) == (22, 9)
    assert tool.count("") == (0, 0)
    assert tool.count('"""Only a docstring."""\n\n# and a comment\n') == (3, 0)


def test_totals_are_what_wc_counts(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\ny = [\n    2,\n]", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not a module\n")
    rows = tool.table(tmp_path)
    assert rows == [("a.py", 22, 9), ("b.py", 4, 4), ("total", 26, 13)]
    # wc -l counts newline characters
    assert rows[-1][1] == sum(p.read_bytes().count(b"\n") for p in tmp_path.glob("*.py"))
    assert tool.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1].split() == ["total", "26", "13"]
    assert [line.split()[0] for line in out[1:]] == ["a.py", "b.py", "total"]


def test_package_totals_match_its_files():
    rows = tool.table(tool.SRC)
    assert rows[-1][1] == sum(p.read_bytes().count(b"\n") for p in tool.SRC.glob("*.py"))
    assert 0 < rows[-1][2] < rows[-1][1]
