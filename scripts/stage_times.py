#!/usr/bin/env python3
"""Best-of-N in-process seconds of each pipeline stage on corpus inputs.

Run from the repository root:

    python scripts/stage_times.py [--repeat N] [NAME ...]

Each NAME is ``cross<d>`` (``cross_polytope(d)``), ``cube<d>``
(``hypercube(d)``), ``hull<d>_<k>`` (``random_hull(Random(3), d, k)``),
all from ``polyk.corpus``, or ``prism<d>``, the prism over
``cross_polytope(d)`` (its vertices times {0, 1}), which has many covering
pairs with m > 0 between faces that are not both dual-simple, all filled
by the diamond rule; the default is ``cross7 cube8 hull6_24 hull7_30``.
The pipeline runs N times (default 3) per input, and each stage's best
time is printed, with their sum as the total, as one row of a
Markdown table:

- validate: ``validate`` on the input's vertices;
- lattice: ``face_lattice``, the top-down walk with the checks the
  lattice makes as it is built (graded, distinct masks, atom masks,
  diamonds, meets);
- ConeSystem: ``lift`` and ``ConeSystem``;
- build: ``trivialize`` and ``build_complex``;
- report: ``e1_page`` and ``k_report``;
- reconstruct: ``lattice_from_incidence`` on the complex's unsigned
  incidence, the lattice rebuilt with no coordinates and checked as it is
  built; ``strip_signs``, which makes that incidence, runs outside the
  timer.
"""

from __future__ import annotations

import argparse
import random
import re
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from polyk.cellular import ChainComplex, build_complex, trivialize  # noqa: E402
from polyk.comb_type import lattice_from_incidence, strip_signs  # noqa: E402
from polyk.cones import ConeSystem, lift  # noqa: E402
from polyk.corpus import cross_polytope, hypercube, random_hull  # noqa: E402
from polyk.ktheory import e1_page, k_report  # noqa: E402
from polyk.polytope import FaceLattice, Polytope, face_lattice, validate  # noqa: E402

DEFAULT = ("cross7", "cube8", "hull6_24", "hull7_30")
PIPELINE = ("validate", "lattice", "ConeSystem", "build", "report")
STAGES = PIPELINE + ("reconstruct",)


def polytope(name: str) -> Polytope:
    """The corpus input a NAME stands for."""
    if m := re.fullmatch(r"cross(\d+)", name):
        return cross_polytope(int(m[1]))
    if m := re.fullmatch(r"cube(\d+)", name):
        return hypercube(int(m[1]))
    if m := re.fullmatch(r"hull(\d+)_(\d+)", name):
        return random_hull(random.Random(3), int(m[1]), int(m[2]))
    if m := re.fullmatch(r"prism(\d+)", name):
        return validate([v + (t,) for t in (0, 1) for v in cross_polytope(int(m[1])).vertices],
                        name=name)
    raise ValueError(
        f"unknown input {name!r}: expected cross<d>, cube<d>, hull<d>_<k> or prism<d>")


def pipeline_times(P: Polytope) -> tuple[FaceLattice, ChainComplex, list[float]]:
    """One run of the stages up to ``report`` on P, each timed once: the
    lattice, the complex and the seconds of each stage, in ``PIPELINE``
    order.  ``scripts/scale_times.py`` runs this alone, so it makes no
    dense incidence."""
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
    return lattice, complex_, [end - start for start, end in zip(marks, marks[1:])]


def stage_times(P: Polytope, repeat: int) -> dict[str, float]:
    """The best of ``repeat`` runs of each stage, in seconds, by stage:
    ``pipeline_times``, then ``reconstruct``."""
    best = dict.fromkeys(STAGES, float("inf"))
    for _ in range(repeat):
        _, complex_, spans = pipeline_times(P)
        incidence = strip_signs(complex_)
        start = time.perf_counter()
        lattice_from_incidence(incidence)
        spans.append(time.perf_counter() - start)
        for stage, span in zip(STAGES, spans, strict=True):
            best[stage] = min(best[stage], span)
    return best


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", default=DEFAULT, metavar="NAME")
    parser.add_argument("--repeat", type=int, default=3, metavar="N")
    args = parser.parse_args(argv)
    print("| input | total | " + " | ".join(STAGES) + " |")
    print("|---" * (len(STAGES) + 2) + "|")
    for name in args.names:
        best = stage_times(polytope(name), args.repeat)
        cells = [f"{best[stage]:.3f}" for stage in STAGES]
        print(f"| `{name}` | {sum(best.values()):.3f} s | " + " | ".join(cells) + " |",
              flush=True)


if __name__ == "__main__":
    main()
