#!/usr/bin/env python3
"""Count the lines of Python modules as code, docstring, comment and blank.

Run from the repository root:

    python scripts/count_lines.py [PATH ...]      # default: src/polyk

Each PATH is a module or a directory, whose ``*.py`` files are counted in
name order.  Every line of a string-expression statement (a docstring, or
any bare string literal used as a statement) counts as docstring; of the
other lines, a blank one as blank, one whose first non-space character is
``#`` as comment, and every other one as code.  The four counts of a module
add up to its ``wc -l``.  One line per module is printed, then the total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
REPO = Path(__file__).resolve().parent.parent


def split_lines(source: str) -> dict[str, int]:
    """The number of lines of ``source`` of each kind in ``KINDS``."""
    docstring: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            docstring.update(range(node.lineno, node.end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        text = line.strip()
        if number in docstring:
            counts["docstring"] += 1
        elif not text:
            counts["blank"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def modules(paths: list[Path]) -> list[Path]:
    out = []
    for path in paths:
        out.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    return out


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or [REPO / "src" / "polyk"]
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<28}" + "".join(f"{kind:>10}" for kind in KINDS) + f"{'lines':>8}")
    for path in modules(paths):
        counts = split_lines(path.read_text(encoding="utf-8"))
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{path.name:<28}" + "".join(f"{counts[k]:>10}" for k in KINDS)
              + f"{sum(counts.values()):>8}")
    print(f"{'total':<28}" + "".join(f"{total[k]:>10}" for k in KINDS)
          + f"{sum(total.values()):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
