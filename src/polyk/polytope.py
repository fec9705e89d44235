"""V-representation polytopes, facet enumeration, and full face lattices.

A polytope is the convex hull of finitely many rational points that must all
be vertices of the hull, with the hull full-dimensional in its ambient space.
Faces are represented by their vertex index sets; the lattice always contains
the empty face (dimension -1) and the polytope itself.  It is built from the
vertex-facet incidences on int bitmasks, level by level from the empty face,
taking each face's upper covers from the closure step; a face's dimension is
its level minus one.  The faces are numbered once, in that order, and every
later stage reads their covers by id.  The intersection closure of the facet
vertex sets with one rational rank per face, which it replaced, is the
tests' oracle.

Facets come from the double description method on the homogenized integer
points, inserted one at a time, with combinatorial adjacency on bitmask zero
sets; the work grows with the facets found, not with the C(n, d) vertex
subsets.  It runs once, in ``validate``, and the facet list is stored on the
polytope; every later stage reads it from there.  The brute force over
d-subsets that it replaced is the tests' oracle (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain
from math import lcm
from operator import and_, or_
from typing import Iterable, Sequence

from .errors import InputError, InternalInvariantError
from .linalg import (
    IntEchelon,
    IntVector,
    Vector,
    clear_denominators,
    cofactor_kernel_vector,
    first_independent,
    primitive_vector,
    qvec,
)


@dataclass(frozen=True)
class Polytope:
    """A validated rational polytope in V-representation.

    ``facets`` is the facet list ``validate`` computed; it is determined by
    the vertices, so it takes no part in equality or hashing.
    """

    ambient_dim: int
    vertices: tuple[Vector, ...]
    facets: tuple[Facet, ...] = field(compare=False, repr=False)
    name: str | None = None

    @property
    def nvertices(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class Face:
    """A face identified by the sorted indices of the vertices it contains.

    The empty tuple is the unique face of dimension -1.
    """

    vertex_set: tuple[int, ...]
    dim: int

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.vertex_set) + "}"


@dataclass(frozen=True)
class Facet:
    """Supporting hyperplane <normal, x> <= offset, tight on vertex_set."""

    normal: IntVector
    offset: Fraction
    vertex_set: tuple[int, ...]


class GradedIds:
    """Elements numbered level by level from the bottom, rank r taking the
    ids ``ids(r)`` from ``level_start[r + 1]``: element i is
    ``faces_by_id[i]``, and ``down[i]`` and ``up[i]`` are the ids of its
    lower and upper covers, in covering order."""

    faces_by_id: tuple
    level_start: tuple[int, ...]
    down: tuple[tuple[int, ...], ...]
    up: tuple[tuple[int, ...], ...]

    def _number(self, faces_by_id: tuple, level_start: tuple[int, ...],
                id_pairs: Iterable[tuple[int, int]]) -> None:
        down: list[list[int]] = [[] for _ in range(level_start[-1])]
        up: list[list[int]] = [[] for _ in range(level_start[-1])]
        for a, b in id_pairs:
            down[b].append(a)
            up[a].append(b)
        object.__setattr__(self, "faces_by_id", faces_by_id)
        object.__setattr__(self, "level_start", level_start)
        object.__setattr__(self, "down", tuple(map(tuple, down)))
        object.__setattr__(self, "up", tuple(map(tuple, up)))

    def ids(self, rank: int) -> range:
        return range(self.level_start[rank + 1], self.level_start[rank + 2])

    def cover_masks(self) -> tuple[list[int], list[int]]:
        """The upper and the lower covers of each element as id bitmasks."""
        return tuple([reduce(or_, (1 << i for i in c), 0) for c in covers]
                     for covers in (self.up, self.down))


@dataclass(frozen=True)
class FaceLattice(GradedIds):
    """All faces of a polytope graded by dimension, with covering pairs.

    ``faces_by_dim[k]`` holds the faces of dimension ``k - 1`` (so index 0 is
    the empty face and index dim+1 the whole polytope), each level ordered
    lexicographically by vertex set.  The faces are numbered once, in that
    order (``GradedIds``): face i is ``faces_by_id[i]``, and ``face_id``
    gives the id of a ``Face``.
    """

    dim: int
    faces_by_dim: tuple[tuple[Face, ...], ...]
    covering: tuple[tuple[Face, Face], ...]
    f_vector: tuple[int, ...]
    face_id: dict[Face, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        faces = tuple(chain.from_iterable(self.faces_by_dim))
        object.__setattr__(self, "face_id", {f: i for i, f in enumerate(faces)})
        self._number(faces, tuple(accumulate(map(len, self.faces_by_dim), initial=0)),
                     ((self.face_id[e], self.face_id[f]) for e, f in self.covering))

    def faces(self, j: int) -> tuple[Face, ...]:
        """Faces of dimension j, for -1 <= j <= dim."""
        if not -1 <= j <= self.dim:
            raise ValueError(f"face dimension {j} out of range [-1, {self.dim}]")
        return self.faces_by_dim[j + 1]

    @property
    def empty_face(self) -> Face:
        return self.faces_by_dim[0][0]

    @property
    def top_face(self) -> Face:
        return self.faces_by_dim[-1][0]

    def lower_covers(self, f: Face) -> tuple[Face, ...]:
        return tuple(self.faces_by_id[e] for e in self.down[self.face_id[f]])


def affine_dim(points: Sequence[Sequence]) -> int:
    """Dimension of the affine hull; -1 for no points.  The differences to
    the first point are scaled to integers, which keeps their rank."""
    if not points:
        return -1
    base = qvec(points[0])
    return IntEchelon(clear_denominators([a - b for a, b in zip(qvec(p), base)])
                      for p in points[1:]).rank


def _hull_facets(points: Sequence[Vector], d: int) -> list[Facet]:
    """The facets of conv(points), by the double description method.

    The points are rescaled to a common integer grid (``scale`` = lcm of the
    denominators) and homogenized to g_i = (1, scale * p_i).  The facets are
    the extreme rays of the cone {h : <h, g_i> >= 0 for all i}: the ray
    h = (b, -a) is the facet <a, x> <= b / scale, tight on the points with
    <h, g_i> = 0.  Redundant (non-extreme) points are allowed.

    The cone is built by inserting the points one at a time (Fukuda & Prodon
    1996, "Double description method revisited").  It starts from d + 1
    linearly independent points, whose cone is simplicial: its rays are the
    cofactor kernel vectors of d of them, signed positive on the remaining
    one.  Inserting g keeps the rays h with <h, g> >= 0 and adds, for every
    adjacent pair h+, h- with <h+, g> > 0 > <h-, g>, the ray
    primitive(<h+, g> h- - <h-, g> h+), which is zero on g.  Each ray carries
    its zero set (the inserted points it is tight on) as a bitmask.  Adjacency
    is decided combinatorially (Fukuda & Prodon, Prop. 7): two extreme rays
    of a pointed cone are adjacent iff their common zero set has at least
    d - 1 elements and no third extreme ray's zero set contains it.  The
    identity needs the rays to be exactly the extreme rays, which holds after
    every insertion.  A primitive normal makes each facet's (normal, offset)
    unique, so the sorted list does not depend on the insertion order.
    """
    if d == 0:
        return []
    scale = lcm(*(x.denominator for p in points for x in p))
    gens = [(1,) + tuple(int(x * scale) for x in p) for p in points]
    basis, _ = first_independent(gens, d + 1)
    if len(basis) != d + 1:
        raise InternalInvariantError(
            f"hull generators span only {len(basis)} of {d + 1} dimensions")
    rays: list[tuple[IntVector, int]] = []  # (h, zero set as a bitmask)
    for b in basis:
        others = [c for c in basis if c != b]
        h = primitive_vector(cofactor_kernel_vector([gens[c] for c in others], d + 1))
        if sum(x * y for x, y in zip(h, gens[b])) < 0:
            h = tuple(-x for x in h)
        rays.append((h, sum(1 << c for c in others)))
    for i, g in enumerate(gens):
        if i in basis:
            continue
        bit = 1 << i
        values = [sum(x * y for x, y in zip(h, g)) for h, _ in rays]
        kept = [(h, z | bit if v == 0 else z) for (h, z), v in zip(rays, values) if v >= 0]
        minus = [n for n, v in enumerate(values) if v < 0]
        for p, vp in enumerate(values):
            if vp <= 0:
                continue
            hp, zp = rays[p]
            for n in minus:
                hn, zn = rays[n]
                common = zp & zn
                if common.bit_count() < d - 1 or any(
                        k != p and k != n and z & common == common
                        for k, (_, z) in enumerate(rays)):
                    continue
                vn = values[n]
                kept.append((primitive_vector(tuple(vp * a - vn * b for a, b in zip(hn, hp))),
                             common | bit))
        rays = kept
    facet_list = [Facet(normal=tuple(-x for x in h[1:]), offset=Fraction(h[0], scale),
                        vertex_set=tuple(i for i in range(len(gens)) if z >> i & 1))
                  for h, z in rays]
    facet_list.sort(key=lambda f: (f.normal, f.offset))
    return facet_list


def _hull(points: Sequence[Vector], d: int) -> tuple[list[Facet], list[int]]:
    """The facets of conv(points) and the indices of the points that are not
    its vertices, for distinct points with a full-dimensional hull.

    A listed point is a vertex iff the tight sets of the facets through it
    meet in that point alone: every face, a vertex too, is the intersection
    of the facets that contain it, and a point on no facet is interior.
    """
    facet_list = _hull_facets(points, d)
    masks = [sum(1 << i for i in f.vertex_set) for f in facet_list]
    inner = []
    for i in range(len(points)):
        meet = (1 << len(points)) - 1
        for m in masks:
            if m >> i & 1:
                meet &= m
        if meet != 1 << i:
            inner.append(i)
    return facet_list, inner


def validate(vertices: Sequence[Sequence], name: str | None = None) -> Polytope:
    """Validate a vertex list and build a Polytope.

    Rejects, in this order and naming the offending index: inconsistent
    coordinate counts, duplicate points, a hull that is not full-dimensional,
    and listed points that are not extreme.
    """
    if not vertices:
        raise InputError("empty vertex list")
    pts = [qvec(v) for v in vertices]
    d = len(pts[0])
    for i, p in enumerate(pts):
        if len(p) != d:
            raise InputError(f"vertex {i} has {len(p)} coordinates, expected {d}")
    seen: dict[Vector, int] = {}
    for i, p in enumerate(pts):
        if p in seen:
            raise InputError(f"duplicate vertex: {i} equals {seen[p]}")
        seen[p] = i
    dim = affine_dim(pts)
    if dim != d:
        raise InputError(f"hull not full-dimensional: affine dimension {dim} < ambient {d}")
    facet_list, inner = _hull(pts, d)
    if inner:
        i = inner[0]
        tight = [f.normal for f in facet_list if i in f.vertex_set]
        raise InputError(f"point {i} not extreme (tight facet normals span "
                         f"only {IntEchelon(tight).rank} of {d} dimensions)")
    return Polytope(ambient_dim=d, vertices=tuple(pts), facets=tuple(facet_list), name=name)


def convex_hull(points: Sequence[Vector], name: str | None = None) -> Polytope:
    """The polytope conv(points), on those of the points that are its vertices.

    The points must be distinct rational vectors with a full-dimensional
    hull.  The facets are computed once, for all the points, and their tight
    sets are then restricted to the vertices.
    """
    d = len(points[0])
    facet_list, inner = _hull(points, d)
    keep = [i for i in range(len(points)) if i not in inner]
    new_index = {old: new for new, old in enumerate(keep)}
    restricted = tuple(
        Facet(normal=f.normal, offset=f.offset,
              vertex_set=tuple(new_index[i] for i in f.vertex_set if i in new_index))
        for f in facet_list)
    return Polytope(ambient_dim=d, vertices=tuple(qvec(points[i]) for i in keep),
                    facets=restricted, name=name)


def facets(P: Polytope) -> tuple[Facet, ...]:
    """The complete, duplicate-free facet list with primitive integer normals."""
    return P.facets


def face_lattice(P: Polytope) -> FaceLattice:
    """The full face lattice, from the empty face up to the polytope.

    Built level by level from the vertex-facet incidences, in int bitmasks
    only (Kaibel & Pfetsch 2002, "Computing the face lattice of a polytope
    from its vertex-facet incidences").  A face is a vertex mask with its
    facet mask, the facets that contain it; ``vfac[v]`` is the facet mask of
    vertex v.  The smallest face containing a face F and a vertex v has the
    facet mask ``facets(F) & vfac[v]``, and its vertices are the w whose
    ``vfac[w]`` contains that mask (all of them when the mask is empty: the
    polytope).  That mask is exactly the facet mask of the closure, so it
    names the face.  Every upper cover of F is such a closure, and a closure
    H is an upper cover iff every vertex of H outside F gives H, that is, iff
    the number of vertices v outside F that give H is the number of vertices
    of H outside F: a vertex of H outside F whose closure with F is smaller
    than H shows a face strictly between F and H.  Starting from the empty
    face (no vertices, every facet), the upper covers of level k are level
    k + 1, and the closure step yields the covering pairs.

    The face lattice of a polytope is graded by dim + 1 (Ziegler, "Lectures
    on Polytopes", Thm 2.7), so a face at level k has dimension k - 1.  A
    face found at two levels, or any level d + 1 other than the polytope
    alone, is an internal error.  Levels are ordered by vertex set and the
    covering pairs by the level and position of F, then the position of E.
    Gradedness and the diamond property are verified before returning.
    """
    d = P.ambient_dim
    n = P.nvertices
    facet_list = facets(P)
    vfac = [0] * n
    for j, fc in enumerate(facet_list):
        for v in fc.vertex_set:
            vfac[v] |= 1 << j

    def vertex_set(mask: int) -> tuple[int, ...]:
        return tuple(v for v in range(n) if mask >> v & 1)

    level_of = {0: 0}  # vertex mask -> level
    # per level: (vertex mask, facet mask) of each face, from the empty face
    levels: list[list[tuple[int, int]]] = [[(0, (1 << len(facet_list)) - 1)]]
    lower: list[list[tuple[int, int]]] = [[]]  # per level: (E, F) vertex masks
    closure: dict[int, int] = {}  # facet mask -> vertex mask; each is a face
    for k in range(d + 1):
        found: dict[int, int] = {}  # facet mask -> vertex mask, of level k + 1
        pairs = []
        for fv, ff in levels[k]:
            counts: dict[int, int] = {}
            for v in range(n):
                if not fv >> v & 1:
                    hf = ff & vfac[v]
                    counts[hf] = counts.get(hf, 0) + 1
            for hf, count in counts.items():
                hv = closure.get(hf)
                if hv is None:
                    hv = closure[hf] = sum(1 << w for w in range(n) if vfac[w] & hf == hf)
                if (hv & ~fv).bit_count() == count:
                    found[hf] = hv
                    pairs.append((fv, hv))
        for hv in found.values():
            if hv in level_of:
                raise InternalInvariantError(
                    f"face {Face(vertex_set(hv), k)} found at levels {level_of[hv]} and {k + 1}")
            level_of[hv] = k + 1
        levels.append([(hv, hf) for hf, hv in found.items()])
        lower.append(pairs)
    full = (1 << n) - 1
    if [hv for hv, _ in levels[d + 1]] != [full]:
        top = ", ".join(str(Face(vertex_set(hv), d)) for hv, _ in levels[d + 1])
        raise InternalInvariantError(
            f"level {d + 1} of the face lattice must hold the polytope "
            f"{Face(vertex_set(full), d)} alone, found [{top}]")

    faces_by_dim = []
    position: dict[int, int] = {}  # vertex mask -> position in its level
    for k, level in enumerate(levels):
        ordered = sorted((vertex_set(hv), hv) for hv, _ in level)
        position.update((hv, i) for i, (_, hv) in enumerate(ordered))
        faces_by_dim.append(tuple(Face(vs, k - 1) for vs, _ in ordered))
    covering = []
    for k in range(1, d + 2):
        for fi, ei in sorted((position[hv], position[fv]) for fv, hv in lower[k]):
            covering.append((faces_by_dim[k - 1][ei], faces_by_dim[k][fi]))

    lattice = FaceLattice(
        dim=d,
        faces_by_dim=tuple(faces_by_dim),
        covering=tuple(covering),
        f_vector=tuple(len(level) for level in faces_by_dim),
    )
    verify_lattice(lattice)
    return lattice


def verify_lattice(L: FaceLattice) -> None:
    """Exact structural checks: covers that are strict vertex-set
    containments, a unique bottom and top, gradedness, and the diamond
    property, on int bitmasks.

    Each covering pair (low, high) must have low's vertex set strictly inside
    high's: with one vertex bitmask per face, ``lo & hi == lo != hi``.

    ``up[i]`` and ``down[i]`` are the id masks of face i's upper and lower
    covers (``cover_masks``).  The faces that cover ``low`` and are covered
    by ``high`` are the set bits of ``up[low] & down[high]``, so for faces
    low and high two levels apart the number of intermediate faces is its
    popcount, and the diamond property asks for exactly two whenever low's
    vertex set lies in high's.

    The pairs tested are all such pairs, found by an inverted vertex index
    rather than by trying every face two levels up: ``containing[v]`` is the
    bitmask of the level-(j + 2) faces whose vertex set holds v, so the
    faces above ``low`` are the AND of ``containing[v]`` over the vertices
    of ``low`` (the whole level for the empty face), taken in id order.
    Containment is read off the vertex sets, not off the covers: a face
    that holds ``low``'s vertices but that no path of covers reaches from
    ``low`` fails with 0 intermediate faces.

    Any failure is an internal error; valid polytope input cannot produce it.
    """
    mask = [sum(1 << v for v in f.vertex_set) for f in L.faces_by_id]
    for high, below in enumerate(L.down):
        hi = mask[high]
        for low in below:
            lo = mask[low]
            if lo & hi != lo or lo == hi:
                raise InternalInvariantError(
                    f"covering pair ({L.faces_by_id[low]}, {L.faces_by_id[high]}) "
                    "is not a strict vertex-set containment")
    if L.f_vector[0] != 1 or L.f_vector[-1] != 1:
        raise InternalInvariantError("face lattice must have unique bottom and top")
    up, down = L.cover_masks()
    for i, f in enumerate(L.faces_by_id[:L.level_start[-2]]):  # below the top
        if not up[i]:
            raise InternalInvariantError(f"face {f} of dim {f.dim} has no upper cover")
    for i, f in enumerate(L.faces_by_id[L.level_start[1]:], L.level_start[1]):  # above the bottom
        if not down[i]:
            raise InternalInvariantError(f"face {f} of dim {f.dim} has no lower cover")
    for j in range(-1, L.dim - 1):
        highs = L.ids(j + 2)
        containing: dict[int, int] = {}
        for b, high in enumerate(highs):
            for v in L.faces_by_id[high].vertex_set:
                containing[v] = containing.get(v, 0) | 1 << b
        for low in L.ids(j):
            ups = up[low]
            above = reduce(and_, (containing.get(v, 0) for v in L.faces_by_id[low].vertex_set),
                           (1 << len(highs)) - 1)
            while above:
                bit = above & -above
                above ^= bit
                high = highs.start + bit.bit_length() - 1
                mids = (ups & down[high]).bit_count()
                if mids != 2:
                    raise InternalInvariantError(
                        f"diamond property fails between {L.faces_by_id[low]} and "
                        f"{L.faces_by_id[high]}: {mids} intermediate faces")
