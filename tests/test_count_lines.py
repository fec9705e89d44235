"""The line split that ``scripts/count_lines.py`` prints, on a hand-written
module."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SOURCE = '''"""Module docstring,

over three lines."""

import os  # a trailing comment keeps this a code line

# a comment line


def f(x):
    """One-line docstring."""
    s = """a string assigned
is code, every line of it"""
    "a bare string statement counts as docstring"
    return x + len(s)
'''


def load_count_lines():
    spec = importlib.util.spec_from_file_location("count_lines", REPO / "scripts" / "count_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_split_of_hand_written_source():
    counts = load_count_lines().split_lines(SOURCE)
    # docstring: the module's 3 lines, f's 1 and the bare string's 1; code:
    # the import, the def, the assignment's 2 lines and the return; the
    # blank line inside the module docstring counts as docstring
    assert counts == {"code": 5, "docstring": 5, "comment": 1, "blank": 4}
    assert sum(counts.values()) == len(SOURCE.splitlines())


def test_counts_of_a_directory_add_up(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
    assert load_count_lines().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["module", "a.py", "b.py", "total"]
    assert lines[-1].split()[1:] == ["6", "5", "1", "4", "16"]
