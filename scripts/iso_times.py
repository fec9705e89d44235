#!/usr/bin/env python3
"""Best-of-N in-process seconds of ``is_isomorphic`` against an affine image.

Run from the repository root:

    python scripts/iso_times.py [--repeat N] [NAME ...]

Each NAME takes a form that ``scripts/stage_times.py`` accepts (``cross<d>``,
``cube<d>``, ``hull<d>_<k>`` or ``prism<d>``); the default is ``cross5 cube4
cube6 cross7``.  The image of a d-dimensional input is x -> Ax + t, with A
the upper triangular matrix of ones (unimodular) and t = (1, ..., d).  The
search runs N times (default 3) from the input's face lattice to the
image's: once with the image's vertices in the input's order, and once with
them shuffled by ``random.Random(1207)``, so that the two lattices number
their faces differently.  Each input prints one row of a Markdown table:
both best times, and the verdict.  The script exits 1 when any search
finds the two lattices not isomorphic, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from polyk.comb_type import is_isomorphic  # noqa: E402
from polyk.polytope import FaceLattice, Polytope, face_lattice, validate  # noqa: E402
from stage_times import polytope  # noqa: E402

DEFAULT = ("cross5", "cube4", "cube6", "cross7")


def image_vertices(P: Polytope, shuffled: bool) -> list[tuple]:
    """The vertices of P's image, in P's order or shuffled by Random(1207)."""
    d = P.ambient_dim
    image = [tuple(sum(v[i:]) + i + 1 for i in range(d)) for v in P.vertices]
    if shuffled:
        random.Random(1207).shuffle(image)
    return image


def best_time(L1: FaceLattice, L2: FaceLattice, repeat: int) -> tuple[float, bool]:
    """The best of ``repeat`` runs of ``is_isomorphic(L1, L2)``, in seconds,
    and its verdict."""
    best = float("inf")
    for _ in range(repeat):
        clock = time.perf_counter()
        iso = is_isomorphic(L1, L2)
        best = min(best, time.perf_counter() - clock)
    return best, iso.isomorphic


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", default=DEFAULT, metavar="NAME")
    parser.add_argument("--repeat", type=int, default=3, metavar="N")
    args = parser.parse_args(argv)
    print("| input | source order | shuffled | isomorphic |")
    print("|---|---|---|---|")
    status = 0
    for name in args.names:
        P = polytope(name)
        source = face_lattice(P)
        times, verdicts = [], []
        for shuffled in (False, True):
            image = face_lattice(validate(image_vertices(P, shuffled)))
            seconds, isomorphic = best_time(source, image, args.repeat)
            times.append(f"{seconds:.4f} s")
            verdicts.append(isomorphic)
        print(f"| `{name}` | {times[0]} | {times[1]} | {all(verdicts)} |", flush=True)
        status |= not all(verdicts)
    return status


if __name__ == "__main__":
    sys.exit(main())
