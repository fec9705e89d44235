"""Standard test polytopes and seeded random rational hulls.

The verification corpus is simplices up to dimension 5, hypercubes and
cross-polytopes up to dimension 4, and twenty random rational hulls with at
most ten points in dimension at most 4.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import InputError
from .polytope import Polytope, convex_hull, validate


def simplex(d: int, name: str | None = None) -> Polytope:
    """conv{0, e_1, ..., e_d}; d = 0 gives the point polytope in R^0."""
    verts = [[0] * d]
    for i in range(d):
        v = [0] * d
        v[i] = 1
        verts.append(v)
    return validate(verts, name=name or f"simplex{d}")


def hypercube(d: int, name: str | None = None) -> Polytope:
    verts = [[(k >> i) & 1 for i in range(d)] for k in range(2 ** d)]
    return validate(verts, name=name or f"cube{d}")


def cross_polytope(d: int, name: str | None = None) -> Polytope:
    if d < 1:
        raise InputError("cross-polytope needs dimension >= 1")
    verts = []
    for i in range(d):
        plus = [0] * d
        plus[i] = 1
        minus = [0] * d
        minus[i] = -1
        verts.append(plus)
        verts.append(minus)
    return validate(verts, name=name or f"cross{d}")


def random_hull(rng: random.Random, dim: int, n_points: int,
                name: str | None = None) -> Polytope:
    """A validated random polytope: sample distinct rational points until
    their hull is full-dimensional, and keep the points that are its
    vertices.

    The hull's own starting basis decides the rank: a draw whose hull is
    not full-dimensional makes ``convex_hull`` raise ``InputError``, and
    the points are drawn again.  That test takes nothing from ``rng``.

    A coordinate is k / q with -8 <= k <= 8 and q in {1, 2, 3}: 37 distinct
    values.  So no draw ends unless dim + 1 <= n_points <= 37^dim, and any
    other ``n_points`` is a ``ValueError`` before the first draw.
    """
    if not dim + 1 <= n_points <= 37 ** dim:
        raise ValueError(f"random_hull needs dim + 1 <= n_points <= 37^dim "
                         f"(dim {dim}), got n_points = {n_points}")
    while True:
        pts = []
        seen = set()
        while len(pts) < n_points:
            p = tuple(Fraction(rng.randint(-8, 8), rng.choice((1, 1, 2, 3)))
                      for _ in range(dim))
            if p not in seen:
                seen.add(p)
                pts.append(p)
        try:
            return convex_hull(pts, name=name)
        except InputError:  # not full-dimensional, the only error distinct points raise
            continue


def acceptance_corpus(seed: int = 20240) -> list[Polytope]:
    """The full verification corpus, deterministic for a fixed seed."""
    rng = random.Random(seed)
    members: list[Polytope] = []
    members.extend(simplex(d) for d in range(1, 6))
    members.extend(hypercube(d) for d in range(1, 5))
    members.extend(cross_polytope(d) for d in range(1, 5))
    dims = [2, 3, 4]
    for k in range(20):
        dim = dims[k % len(dims)]
        n_points = rng.randint(dim + 1, 10)
        members.append(random_hull(rng, dim, n_points, name=f"random{k}_d{dim}"))
    return members
