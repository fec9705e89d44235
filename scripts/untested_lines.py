#!/usr/bin/env python3
"""The statements of ``src/polyk`` that a pytest run never executes.

Run from the repository root:

    python scripts/untested_lines.py [PYTEST_ARG ...]

The arguments go to pytest (default: the ``tests`` directory), which runs
in this process with ``-q -p no:cacheprovider``, under a ``sys.settrace``
hook that records line events only in frames whose code lies in
``src/polyk``; every other frame, and any other thread, is left untraced
(no test starts one).  The hook is set before pytest imports polyk, so
module bodies count.  Then every statement of each module's AST that no
recorded line falls on is printed as ``module:line source`` (the
statement's first line), in file and line order.  A simple statement
counts as run if any of its lines ran, a compound one (``if``, ``for``,
``with``, ...) if its header did.  Docstrings, ``def`` and ``class``
statements, imports, bare annotations and ``try`` headers are left out:
they run at import or make no code of their own.  The last line counts
the statements and gives pytest's exit code, which is also the script's.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "polyk"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
           ast.Global, ast.Nonlocal, ast.Try)
DOCUMENTED = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def line_tracer(prefix: str, hits: set[tuple[str, int]]):
    """A global trace function recording (file, line) of every line event
    in a frame whose code file lies under ``prefix``."""
    inside: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        name = frame.f_code.co_filename
        keep = inside.get(name)
        if keep is None:
            keep = inside[name] = os.path.realpath(name).startswith(prefix)
        return local if keep else None

    return start


def statements(tree: ast.Module):
    """(first line, lines that count as its run) of every statement kept."""
    docstrings = {node.body[0] for node in ast.walk(tree) if isinstance(node, DOCUMENTED)
                  and ast.get_docstring(node, clean=False) is not None}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED) or node in docstrings:
            continue
        if isinstance(node, ast.AnnAssign) and node.value is None:
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        yield node.lineno, range(node.lineno, max(last, node.lineno) + 1)


def untested(hits: set[tuple[str, int]]) -> list[str]:
    ran: dict[str, set[int]] = {}
    for name, line in hits:
        ran.setdefault(os.path.realpath(name), set()).add(line)
    out = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines, done = text.splitlines(), ran.get(str(path.resolve()), set())
        for first, span in sorted(statements(ast.parse(text))):
            if done.isdisjoint(span):
                out.append(f"{path.name}:{first} {lines[first - 1].strip()}")
    return out


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(REPO / "src"))
    hits: set[tuple[str, int]] = set()
    tracer = line_tracer(str(SRC.resolve()) + os.sep, hits)
    sys.settrace(tracer)
    try:
        import pytest

        code = pytest.main(["-q", "-p", "no:cacheprovider", *(args or [str(REPO / "tests")])])
    finally:
        sys.settrace(None)
    out = untested(hits)
    print("\n".join(out + [f"{len(out)} statements never ran; pytest exit code {int(code)}"]))
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
