#!/usr/bin/env python3
"""Regenerate the golden JSON reports used by the CLI determinism tests.

Run from the repository root:

    python scripts/make_goldens.py          # rewrite the goldens
    python scripts/make_goldens.py --check  # compare them, write nothing

With ``--check`` it exits 1 and names every golden file whose report
differs, or 0 when all of them match byte for byte.
"""

import argparse
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from polyk.cli import main  # noqa: E402

CASES = ["segment", "triangle", "square", "cube"]
FLAGS = ["--faces", "--boundary", "--homology", "--ktheory", "--json"]
GOLDEN_DIR = REPO / "tests" / "data" / "golden"


def report(name: str) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(["report", str(REPO / "polytopes" / f"{name}.json")] + FLAGS)
    if rc != 0:
        raise SystemExit(f"report for {name} failed with exit code {rc}")
    return buf.getvalue()


def regenerate() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in CASES:
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(report(name), encoding="utf-8")
        print(f"wrote {path}")


def check() -> int:
    differing = []
    for name in CASES:
        path = GOLDEN_DIR / f"{name}.json"
        if not path.is_file() or path.read_bytes() != report(name).encode("utf-8"):
            differing.append(path)
    for path in differing:
        print(f"differs: {path}")
    if not differing:
        print(f"all {len(CASES)} goldens match")
    return 1 if differing else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare the goldens with fresh reports and write nothing")
    if parser.parse_args().check:
        sys.exit(check())
    regenerate()
