"""Seeded exact affine images of polytopes, for the invariance tests.

An invertible rational affine map preserves the face lattice, so the image
of a polytope must have the same combinatorial type and homology.
"""

from __future__ import annotations

import random
from fractions import Fraction

from polyk.linalg import QMatrix, qvec
from polyk.polytope import Polytope, validate

from oracles import q_from_rows, q_identity, q_mat_vec


def random_invertible_affine(rng: random.Random, d: int) -> tuple[QMatrix, tuple]:
    """An exact invertible rational affine map (A, t), built from shears and
    nonzero diagonal scalings so invertibility never needs a determinant check."""
    A = q_identity(d)
    scalars = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)]
    for _ in range(3 * d):
        kind = rng.randrange(3)
        rows = [list(r) for r in A.entries]
        if d >= 2 and kind == 0:  # shear
            i, j = rng.sample(range(d), 2)
            c = Fraction(rng.randint(-2, 2))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        elif kind == 1:  # scale a row
            i = rng.randrange(d)
            c = rng.choice(scalars)
            rows[i] = [c * x for x in rows[i]]
        else:  # swap rows
            if d >= 2:
                i, j = rng.sample(range(d), 2)
                rows[i], rows[j] = rows[j], rows[i]
        A = q_from_rows(rows, cols=d)
    t = tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(d))
    return A, t


def apply_affine(P: Polytope, A: QMatrix, t: tuple, name: str | None = None) -> Polytope:
    verts = [tuple(x + s for x, s in zip(q_mat_vec(A, v), qvec(t))) for v in P.vertices]
    return validate(verts, name=name or (P.name and P.name + "_affine"))
