#!/usr/bin/env python3
"""Run the full verification corpus and print a summary table.

For every member: f-vector, covering-pair count, whether the augmented
complex is exact, whether the reduced homology is a single Z in degree 0,
the K-group conclusions, and per-member wall time in milliseconds, from
the vertex list: validation (which computes the facets) and the pipeline.

    python scripts/run_corpus.py [--seed N]
"""

import argparse
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from polyk.corpus import acceptance_corpus  # noqa: E402
from polyk.pipeline import run_pipeline  # noqa: E402
from polyk.polytope import validate  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20240,
                        help="seed for the random-hull members")
    args = parser.parse_args()

    members = acceptance_corpus(seed=args.seed)
    print(f"{'name':<14} {'f-vector':<24} {'pairs':>5} {'exact':>5} "
          f"{'Z@0':>4} {'K(A)':>6} {'K(A/K)':>8} {'ms':>7}")
    total = 0.0
    failures = 0
    for p in members:
        t0 = time.monotonic()
        res = run_pipeline(validate(p.vertices, name=p.name))
        dt = time.monotonic() - t0
        total += dt
        exact = res.report.augmented_homology.is_trivial()
        zed = res.report.reduced_homology.is_z_concentrated_in_degree_zero()
        if not (exact and zed):
            failures += 1
        k_alg = f"({res.report.k_algebra[0]},{res.report.k_algebra[1]})"
        k_quot = f"({res.report.k_quotient[0]},{res.report.k_quotient[1]})"
        print(f"{res.polytope.name:<14} {str(list(res.lattice.f_vector)):<24} "
              f"{sum(map(len, res.lattice.down)):>5} {str(exact):>5} {str(zed):>4} "
              f"{k_alg:>6} {k_quot:>8} {1000 * dt:>7.1f}")
    print(f"\n{len(members)} members, {failures} failures, {total:.3f} s total")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
