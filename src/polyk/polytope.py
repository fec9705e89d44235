"""V-representation polytopes, facet enumeration, and full face lattices.

A polytope is the convex hull of finitely many rational points that must all
be vertices of the hull, with the hull full-dimensional in its ambient space.
Faces are represented by their vertex index sets; the lattice always contains
the empty face (dimension -1) and the polytope itself, and is built by
closing the facet vertex sets under intersection.

Facet enumeration is brute force over affinely independent d-subsets of the
vertices: transparent and exact, and entirely adequate at desk scale.  It
runs once, in ``validate``, and the facet list is stored on the polytope;
every later stage reads it from there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Sequence

from .errors import InputError, InternalInvariantError
from .linalg import (
    IntVector,
    Vector,
    cofactor_kernel_vector,
    primitive_vector,
    qvec,
    rank_of_vectors,
    vec_sub,
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

    def lifted_vertex(self, i: int) -> Vector:
        """The vertex prepended with homogenizing coordinate 1."""
        return (Fraction(1),) + self.vertices[i]


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


@dataclass
class FaceLattice:
    """All faces of a polytope graded by dimension, with covering pairs.

    ``faces_by_dim[k]`` holds the faces of dimension ``k - 1`` (so index 0 is
    the empty face and index dim+1 the whole polytope), each level ordered
    lexicographically by vertex set.  Treated as immutable once built.
    """

    dim: int
    faces_by_dim: tuple[tuple[Face, ...], ...]
    covering: tuple[tuple[Face, Face], ...]
    f_vector: tuple[int, ...]
    _upper: dict[Face, tuple[Face, ...]] = field(default_factory=dict, repr=False, compare=False)
    _lower: dict[Face, tuple[Face, ...]] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        up: dict[Face, list[Face]] = {f: [] for f in self.all_faces()}
        down: dict[Face, list[Face]] = {f: [] for f in self.all_faces()}
        for e, f in self.covering:
            up[e].append(f)
            down[f].append(e)
        self._upper = {f: tuple(v) for f, v in up.items()}
        self._lower = {f: tuple(v) for f, v in down.items()}

    def faces(self, j: int) -> tuple[Face, ...]:
        """Faces of dimension j, for -1 <= j <= dim."""
        if not -1 <= j <= self.dim:
            raise ValueError(f"face dimension {j} out of range [-1, {self.dim}]")
        return self.faces_by_dim[j + 1]

    def all_faces(self) -> Iterable[Face]:
        for level in self.faces_by_dim:
            yield from level

    @property
    def empty_face(self) -> Face:
        return self.faces_by_dim[0][0]

    @property
    def top_face(self) -> Face:
        return self.faces_by_dim[-1][0]

    def upper_covers(self, f: Face) -> tuple[Face, ...]:
        return self._upper[f]

    def lower_covers(self, f: Face) -> tuple[Face, ...]:
        return self._lower[f]


def affine_dim(points: Sequence[Sequence], ambient_dim: int) -> int:
    """Dimension of the affine hull; -1 for no points."""
    if not points:
        return -1
    base = qvec(points[0])
    diffs = [vec_sub(p, base) for p in points[1:]]
    return rank_of_vectors(diffs, ambient_dim)


def _enumerate_facets(points: Sequence[Vector], d: int) -> list[Facet]:
    """All supporting hyperplanes spanned by affinely independent d-subsets.

    Works on arbitrary point lists (redundant points allowed): every facet of
    the hull contains d affinely independent listed points, so none is missed.
    The points are rescaled to a common integer grid so the whole enumeration
    runs in plain integer arithmetic; offsets are mapped back at the end.
    """
    if d == 0:
        return []
    scale = lcm(*(x.denominator for p in points for x in p))
    ipts = [tuple(int(x * scale) for x in p) for p in points]
    seen: set[tuple[IntVector, int]] = set()
    facets: list[Facet] = []
    for subset in combinations(range(len(ipts)), d):
        base = ipts[subset[0]]
        rows = []
        for i in subset[1:]:
            diff = tuple(a - b for a, b in zip(ipts[i], base))
            if all(x == 0 for x in diff):
                rows = None
                break
            rows.append(primitive_vector(diff))
        if rows is None:
            continue
        normal = cofactor_kernel_vector(rows, d)
        if normal is None:  # subset affinely dependent
            continue
        normal = primitive_vector(normal)
        offset = sum(a * b for a, b in zip(normal, base))
        if (normal, offset) in seen or (tuple(-x for x in normal), -offset) in seen:
            continue
        values = [sum(a * b for a, b in zip(normal, p)) for p in ipts]
        lo, hi = min(values), max(values)
        if hi == offset:
            pass
        elif lo == offset:
            normal = tuple(-x for x in normal)
            offset = -offset
            values = [-v for v in values]
        else:
            seen.add((normal, offset))
            continue
        seen.add((normal, offset))
        tight = tuple(i for i, v in enumerate(values) if v == offset)
        facets.append(Facet(normal=normal, offset=Fraction(offset, scale),
                            vertex_set=tight))
    facets.sort(key=lambda f: (f.normal, f.offset))
    return facets


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
    if affine_dim(pts, d) != d:
        raise InputError(
            f"hull not full-dimensional: affine dimension {affine_dim(pts, d)} < ambient {d}")
    facet_list = tuple(_enumerate_facets(pts, d))
    for i, p in enumerate(pts):
        tight = [f.normal for f in facet_list if i in f.vertex_set]
        if d > 0 and rank_of_vectors(tight, d) < d:
            raise InputError(f"point {i} not extreme (tight facet normals span "
                             f"only {rank_of_vectors(tight, d)} of {d} dimensions)")
    return Polytope(ambient_dim=d, vertices=tuple(pts), facets=facet_list, name=name)


def facets(P: Polytope) -> tuple[Facet, ...]:
    """The complete, duplicate-free facet list with primitive integer normals."""
    return P.facets


def _face_dim(P: Polytope, vertex_set: frozenset[int]) -> int:
    return affine_dim([P.vertices[i] for i in sorted(vertex_set)], P.ambient_dim)


def face_lattice(P: Polytope) -> FaceLattice:
    """The full face lattice, from the empty face up to the polytope.

    Proper faces are exactly the intersections of facet vertex sets, so the
    lattice is the intersection closure of those sets plus the two ends.
    Gradedness and the diamond property are verified before returning.
    """
    d = P.ambient_dim
    full = frozenset(range(P.nvertices))
    sets: set[frozenset[int]] = {frozenset(f.vertex_set) for f in facets(P)}
    frontier = set(sets)
    while frontier:
        new: set[frozenset[int]] = set()
        for a in frontier:
            for b in sets:
                c = a & b
                if c not in sets and c not in new:
                    new.add(c)
        sets |= new
        frontier = new
    sets.add(full)
    sets.add(frozenset())

    by_dim: dict[int, list[Face]] = {j: [] for j in range(-1, d + 1)}
    for s in sets:
        fdim = -1 if not s else _face_dim(P, s)
        by_dim[fdim].append(Face(vertex_set=tuple(sorted(s)), dim=fdim))
    for j in by_dim:
        by_dim[j].sort(key=lambda f: f.vertex_set)

    covering: list[tuple[Face, Face]] = []
    for j in range(0, d + 1):
        for f in by_dim[j]:
            fset = set(f.vertex_set)
            for e in by_dim[j - 1]:
                if set(e.vertex_set) <= fset:
                    covering.append((e, f))

    lattice = FaceLattice(
        dim=d,
        faces_by_dim=tuple(tuple(by_dim[j]) for j in range(-1, d + 1)),
        covering=tuple(covering),
        f_vector=tuple(len(by_dim[j]) for j in range(-1, d + 1)),
    )
    verify_lattice(lattice)
    return lattice


def verify_lattice(L: FaceLattice) -> None:
    """Exact structural checks: gradedness and the diamond property.

    Any failure is an internal error; valid polytope input cannot produce it.
    """
    if L.f_vector[0] != 1 or L.f_vector[-1] != 1:
        raise InternalInvariantError("face lattice must have unique bottom and top")
    for j in range(-1, L.dim):
        for f in L.faces(j):
            if not L.upper_covers(f):
                raise InternalInvariantError(f"face {f} of dim {j} has no upper cover")
    for j in range(0, L.dim + 1):
        for f in L.faces(j):
            if not L.lower_covers(f):
                raise InternalInvariantError(f"face {f} of dim {j} has no lower cover")
    for j in range(-1, L.dim - 1):
        for low in L.faces(j):
            ups = set(L.upper_covers(low))
            for high in L.faces(j + 2):
                # vertex-set containment decides the face order
                if set(low.vertex_set) <= set(high.vertex_set):
                    mids = ups.intersection(L.lower_covers(high))
                    if len(mids) != 2:
                        raise InternalInvariantError(
                            f"diamond property fails between {low} and {high}: "
                            f"{len(mids)} intermediate faces")


def covering_pairs(L: FaceLattice, j: int) -> tuple[tuple[Face, Face], ...]:
    """Covering pairs (E, F) with dim E = j - 1 and dim F = j.

    j = 0 yields the pairs (empty face, vertex).
    """
    if not 0 <= j <= L.dim:
        raise ValueError(f"covering rank {j} out of range [0, {L.dim}]")
    return tuple((e, f) for e, f in L.covering if f.dim == j)
