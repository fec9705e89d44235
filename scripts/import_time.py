#!/usr/bin/env python3
"""Median in-process seconds of a fresh import of polyk, from source and
from bytecode.

Run from the repository root:

    python scripts/import_time.py [--repeat N] [--src DIR]

Each of N rounds (default 20) drops every loaded ``polyk`` module and
imports the six modules the benchmark imports (``files``, ``polytope``,
``pipeline``, ``cli``, ``comb_type`` and ``corpus``), timing the whole
import.  The ``polyk`` package is copied from DIR (default: this
checkout's ``src``) into a temporary directory, and two cases run on the
copy:

- source: only the ``.py`` files, imported with ``sys.dont_write_bytecode``
  set, so every round compiles every module, as the benchmark's runs do
  (``PYTHONDONTWRITEBYTECODE=1`` on a fresh export);
- bytecode: the same files compiled once by ``compileall``, so every round
  reads ``__pycache__``.

An untimed import first loads the standard library modules polyk uses, so
the rounds time polyk alone.  Each case prints its median and quartiles in
milliseconds.  Nothing is written under DIR, and the ``polyk`` modules
loaded before the run are put back after it.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("files", "polytope", "pipeline", "cli", "comb_type", "corpus")


def _drop_polyk() -> dict[str, object]:
    """Remove every loaded polyk module from ``sys.modules``; returns them."""
    names = [n for n in sys.modules if n == "polyk" or n.startswith("polyk.")]
    return {n: sys.modules.pop(n) for n in names}


def import_seconds(root: Path, repeat: int) -> list[float]:
    """Seconds of each of ``repeat`` fresh imports of MODULES from the
    ``polyk`` package under ``root``, after one untimed import."""
    saved = _drop_polyk()
    sys.path.insert(0, str(root))
    importlib.invalidate_caches()
    try:
        seconds = []
        for _ in range(repeat + 1):
            _drop_polyk()
            start = time.perf_counter()
            for name in MODULES:
                importlib.import_module(f"polyk.{name}")
            seconds.append(time.perf_counter() - start)
        return seconds[1:]
    finally:
        sys.path.remove(str(root))
        sys.path_importer_cache.pop(str(root), None)
        _drop_polyk()
        sys.modules.update(saved)


def import_times(src: Path, repeat: int) -> dict[str, list[float]]:
    """The seconds of each round, by case, for the polyk package in ``src``."""
    with tempfile.TemporaryDirectory(prefix="polyk-import-") as tmp:
        root = Path(tmp)
        shutil.copytree(src / "polyk", root / "polyk",
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        write = sys.dont_write_bytecode
        sys.dont_write_bytecode = True
        try:
            source = import_seconds(root, repeat)
        finally:
            sys.dont_write_bytecode = write
        if not compileall.compile_dir(root / "polyk", quiet=1):
            raise RuntimeError(f"polyk in {src} does not compile")
        return {"source": source, "bytecode": import_seconds(root, repeat)}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=20, metavar="N")
    parser.add_argument("--src", type=Path, default=SRC, metavar="DIR")
    args = parser.parse_args(argv)
    for case, seconds in import_times(args.src, args.repeat).items():
        ms = [1000 * s for s in seconds]
        q1, q3 = statistics.quantiles(ms, n=4)[::2] if len(ms) > 1 else (ms[0], ms[0])
        print(f"{case}: {statistics.median(ms):.1f} ms median of {len(ms)} "
              f"(quartiles {q1:.1f}-{q3:.1f})", flush=True)


if __name__ == "__main__":
    main()
