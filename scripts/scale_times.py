#!/usr/bin/env python3
"""Seconds per pipeline stage and peak memory, one fresh process per input.

Run from the repository root:

    python scripts/scale_times.py [NAME ...]

Each NAME is read as ``scripts/stage_times.py`` reads it (``cross<d>``,
``cube<d>``, ``hull<d>_<k>`` or ``prism<d>``); the default is
``cube10 hull8_30``.  Each input runs once, in a new Python process, so
that the process's ``ru_maxrss``, its peak resident memory, is the run's
own and no earlier input's.  The stages are timed once each, in order:

- validate: ``validate`` on the input's vertices;
- lattice: ``face_lattice``, with the checks the lattice makes as it is
  built;
- ConeSystem: ``lift`` and ``ConeSystem``, the orientation of every
  covering pair included;
- build: ``trivialize`` and ``build_complex``;
- report: ``e1_page`` and ``k_report``.

One row of a Markdown table is printed per input: the faces and covering
pairs of its lattice, each stage's seconds, and ``ru_maxrss`` in MB.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stage_times import polytope  # noqa: E402  (it puts src on the path)

from polyk.cellular import build_complex, trivialize  # noqa: E402
from polyk.cones import ConeSystem, lift  # noqa: E402
from polyk.ktheory import e1_page, k_report  # noqa: E402
from polyk.polytope import face_lattice, validate  # noqa: E402

DEFAULT = ("cube10", "hull8_30")
STAGES = ("validate", "lattice", "ConeSystem", "build", "report")


def measure(name: str) -> dict:
    """One run of the stages on the input NAME, in this process: the
    lattice's faces and covering pairs, each stage's seconds, and the
    process's ``ru_maxrss`` in MB (Linux reports it in KB)."""
    P = polytope(name)
    marks = [time.perf_counter()]
    validate(P.vertices)
    marks.append(time.perf_counter())
    lattice = face_lattice(P)
    marks.append(time.perf_counter())
    system = ConeSystem(lift(P), lattice)
    marks.append(time.perf_counter())
    complex_ = build_complex(trivialize(lattice), system)
    marks.append(time.perf_counter())
    e1_page(complex_)
    k_report(complex_)
    marks.append(time.perf_counter())
    return {"faces": len(lattice.faces_by_id), "pairs": sum(map(len, lattice.down)),
            "seconds": [end - start for start, end in zip(marks, marks[1:])],
            "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", default=DEFAULT, metavar="NAME")
    parser.add_argument("--child", metavar="NAME", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:  # the fresh process of one input
        print(json.dumps(measure(args.child)))
        return
    print("| input | faces | pairs | " + " | ".join(STAGES) + " | `ru_maxrss` |")
    print("|---" * (len(STAGES) + 4) + "|")
    for name in args.names:
        run = subprocess.run([sys.executable, __file__, "--child", name],
                             capture_output=True, text=True)
        if run.returncode:
            raise SystemExit(f"{name}: {run.stderr.strip().splitlines()[-1]}")
        row = json.loads(run.stdout)
        cells = [f"{s:.3f}" for s in row["seconds"]]
        print(f"| `{name}` | {row['faces']:,} | {row['pairs']:,} | " + " | ".join(cells)
              + f" | {row['maxrss_mb']:.0f} MB |", flush=True)


if __name__ == "__main__":
    main()
