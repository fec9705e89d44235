"""Oriented cellular chain complex of a polytope via the lifted cone.

Each face F carries a basis A_F of the span of its lifted subcone (a greedy
independent subset of the integer lifted vertices in vertex-index order);
the basis orients the span.  For a covering pair (E, F) with edge ray e the
incidence number is the orientation sign of the basis B = [e | A_E] of
span(F) against A_F, that is sign det C for the coordinate matrix C with
B C = A_F.  It is computed on integers, with no solve:

    [E : F] = sign det( B^T A_F ),

because B^T A_F = (B^T B) C and the Gram determinant det(B^T B) is positive
for independent columns.  They are independent, and span span(F), because
e lies in span(F) and is orthogonal to span(E) (both checked by
``edge_ray``) while A_E is a basis of span(E), a subspace of span(F).  The
pair (empty face, vertex) needs no special case: B = (e) and A_F = (g) are
positive multiples of one lifted vertex, so the 1 x 1 determinant <e, g> is
positive, giving +1, and the bottom boundary matrix is the all-ones
augmentation row.

Boundary matrices are integer matrices over the stable (lexicographic by
vertex set) face ordering; assembling the complex verifies both the
consecutive-product identity and the independent barycenter cross-check of
every edge ray, aborting loudly on any failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .cones import ConeSystem, EdgeRay, IntBasis
from .errors import InternalInvariantError
from .linalg import (
    IntMatrix,
    bareiss_det,
    int_dot,
    int_mat_is_zero,
    int_mat_mul,
    primitive_vector,
    smith_normal_form,
)
from .polytope import Face, FaceLattice


@dataclass
class Trivialization:
    """Per-face orientation bases, with optional per-face sign flips.

    A flip negates the last basis column of the face, reversing the induced
    orientation; the empty face has no columns and cannot be flipped.
    Treated as immutable once built.
    """

    bases: dict[Face, IntBasis]
    flipped: frozenset[Face] = field(default_factory=frozenset)

    def basis(self, F: Face) -> IntBasis:
        return self.bases[F]


def trivialize(L: FaceLattice, system: ConeSystem,
               flip_faces: Iterable[Face] = ()) -> Trivialization:
    """Deterministic bases for every face of the lattice: the span bases of
    the cone system's face data, with the requested flips applied."""
    flips = frozenset(flip_faces)
    for f in flips:
        if f.dim < 0:
            raise ValueError("the empty face has no basis column to flip")
    bases: dict[Face, IntBasis] = {}
    for f in L.all_faces():
        basis = system.face_data(f).span_basis
        if f in flips:
            basis = basis[:-1] + (tuple(-x for x in basis[-1]),)
        bases[f] = basis
    return Trivialization(bases=bases, flipped=flips)


def incidence_sign(T: Trivialization, ray: EdgeRay, E: Face, F: Face) -> int:
    """The incidence number [E : F] of a covering pair; always +1 or -1.

    It is sign det(B^T A_F) with B = [e | A_E]: the Gram identity in the
    module docstring makes that the sign of det C for B C = A_F.
    """
    b = (ray.direction,) + T.basis(E)
    det = bareiss_det([[int_dot(u, v) for v in T.basis(F)] for u in b])
    sign = (det > 0) - (det < 0)
    if sign == 0:
        raise InternalInvariantError(
            f"incidence sign of ({E}, {F}) is zero: corrupt edge ray or basis")
    return sign


@dataclass(frozen=True)
class ChainComplex:
    """Integer boundary matrices of the augmented cellular complex.

    ``boundary[j]`` maps dimension-j chains to dimension-(j-1) chains, with
    rows and columns ordered like ``face_order``; ``face_order[k]`` lists the
    vertex sets of the faces of dimension k - 1.
    """

    dim: int
    boundary: tuple[IntMatrix, ...]
    face_order: tuple[tuple[tuple[int, ...], ...], ...]

    def face_labels(self, j: int) -> tuple[tuple[int, ...], ...]:
        return self.face_order[j + 1]

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.face_order)


def boundary_matrix(T: Trivialization, L: FaceLattice,
                    system: ConeSystem, j: int) -> IntMatrix:
    """The boundary matrix D_j, rows over (j-1)-faces, columns over j-faces."""
    if not 0 <= j <= L.dim:
        raise ValueError(f"boundary dimension {j} out of range [0, {L.dim}]")
    rows = L.faces(j - 1)
    row_index = {f: i for i, f in enumerate(rows)}
    cols = L.faces(j)
    out = [[0] * len(cols) for _ in rows]
    for cj, f in enumerate(cols):
        for e in L.lower_covers(f):
            ray = system.ray(e, f)
            out[row_index[e]][cj] = incidence_sign(T, ray, e, f)
    return tuple(tuple(r) for r in out)


def build_complex(T: Trivialization, L: FaceLattice, system: ConeSystem) -> ChainComplex:
    """Assemble all boundary matrices and verify the complex exactly.

    Verifies, and aborts with diagnostics on failure:
      * every edge ray agrees with its barycenter cross-check up to a
        strictly positive rational factor, that is, the cross-check's
        primitive vector is the ray's direction (which is primitive);
      * D_{j-1} @ D_j = 0 for every j, reporting the offending face pair.
    """
    for j in range(0, L.dim + 1):
        for e, f in ((e, f) for e, f in L.covering if f.dim == j):
            ray = system.ray(e, f)
            if primitive_vector(system.crosscheck(e, f)) != ray.direction:
                raise InternalInvariantError(
                    f"edge-ray cross-check failed for ({e}, {f}): "
                    "barycenter projection is not a positive multiple")
    matrices = tuple(boundary_matrix(T, L, system, j) for j in range(0, L.dim + 1))
    for j in range(1, L.dim + 1):
        product = int_mat_mul(matrices[j - 1], matrices[j])
        if not int_mat_is_zero(product):
            g_idx, f_idx = next((gi, fi) for gi, row in enumerate(product)
                                for fi, x in enumerate(row) if x != 0)
            g = L.faces(j - 2)[g_idx]
            f = L.faces(j)[f_idx]
            raise InternalInvariantError(
                f"boundary squared nonzero at j={j}: entry ({g}, {f}) = "
                f"{product[g_idx][f_idx]}")
    face_order = tuple(tuple(f.vertex_set for f in L.faces(j)) for j in range(-1, L.dim + 1))
    return ChainComplex(dim=L.dim, boundary=matrices, face_order=face_order)


@dataclass(frozen=True)
class HomologyResult:
    """Free rank and torsion invariant factors per degree.

    Degrees run from ``min_degree`` (-1 for the augmented complex, 0 for the
    reduced complex without the augmentation row) up to the dimension.
    """

    augmented: bool
    min_degree: int
    free_ranks: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    def degrees(self) -> range:
        return range(self.min_degree, self.min_degree + len(self.free_ranks))

    def group(self, j: int) -> tuple[int, tuple[int, ...]]:
        idx = j - self.min_degree
        if not 0 <= idx < len(self.free_ranks):
            raise ValueError(f"degree {j} outside {list(self.degrees())}")
        return self.free_ranks[idx], self.torsion[idx]

    def is_trivial(self) -> bool:
        return all(r == 0 for r in self.free_ranks) and all(not t for t in self.torsion)

    def is_z_concentrated_in_degree_zero(self) -> bool:
        for j in self.degrees():
            free, tors = self.group(j)
            if j == 0 and (free != 1 or tors):
                return False
            if j != 0 and (free != 0 or tors):
                return False
        return True


def homology_pair(X: ChainComplex) -> tuple[HomologyResult, HomologyResult]:
    """Augmented and reduced integral homology, from one Smith normal form
    per boundary matrix.

    The reduced complex drops the augmentation row (the empty-face
    generator), so its degree 0 sees no boundary below it.
    """
    for j in range(1, X.dim + 1):
        if not int_mat_is_zero(int_mat_mul(X.boundary[j - 1], X.boundary[j])):
            raise InternalInvariantError("homology of a non-complex: boundary squared != 0")
    f = X.f_vector
    snfs = [smith_normal_form(m) for m in X.boundary]
    ranks = [sum(1 for x in s.diagonal if x != 0) for s in snfs]
    # torsion of H_j comes from the map arriving from degree j+1: torsion[j + 1]
    torsion = [tuple(x for x in s.diagonal if x > 1) for s in snfs] + [()]

    def result(augmented: bool) -> HomologyResult:
        # rank of the boundary map leaving degree j downward: rank_out[j + 1]
        rank_out = [0, ranks[0] if augmented else 0, *ranks[1:], 0]
        min_degree = -1 if augmented else 0
        degrees = range(min_degree, X.dim + 1)
        return HomologyResult(
            augmented=augmented, min_degree=min_degree,
            free_ranks=tuple(f[j + 1] - rank_out[j + 1] - rank_out[j + 2] for j in degrees),
            torsion=tuple(torsion[j + 1] for j in degrees))

    return result(True), result(False)


def homology(X: ChainComplex, augmented: bool = True) -> HomologyResult:
    """Integral homology of the complex via Smith normal form.

    With ``augmented=False`` the augmentation row (the empty-face generator)
    is dropped, so degree 0 sees no boundary below it.
    """
    aug, red = homology_pair(X)
    return aug if augmented else red


def diagonal_sign_equivalence(A: ChainComplex, B: ChainComplex) -> dict[tuple[int, int], int] | None:
    """Per-face signs eps with eps_E * A[E,F] = eps_F * B[E,F], or None.

    Both complexes must share shapes and unsigned support.  The signs are
    found by propagation over the covering graph and verified globally, so a
    return value is a proof that the complexes are isomorphic via a diagonal
    +-1 map (and None a proof that they are not).
    """
    if A.dim != B.dim or A.f_vector != B.f_vector:
        return None
    for da, db in zip(A.boundary, B.boundary):
        if tuple(tuple(abs(x) for x in r) for r in da) != tuple(tuple(abs(x) for x in r) for r in db):
            return None
    eps: dict[tuple[int, int], int] = {(-1, 0): 1}
    # constraints: eps_E * eps_F = A[E,F] * B[E,F] over all covering entries
    edges: dict[tuple[int, int], list[tuple[tuple[int, int], int]]] = {}
    nodes = [(j, i) for j in range(-1, A.dim + 1) for i in range(len(A.face_order[j + 1]))]
    for node in nodes:
        edges[node] = []
    for j in range(0, A.dim + 1):
        da, db = A.boundary[j], B.boundary[j]
        for row in range(len(da)):
            for col in range(len(da[row]) if da else 0):
                if da[row][col] != 0:
                    rel = da[row][col] * db[row][col]
                    edges[(j - 1, row)].append(((j, col), rel))
                    edges[(j, col)].append(((j - 1, row), rel))
    stack = [(-1, 0)]
    while stack:
        node = stack.pop()
        for other, rel in edges[node]:
            want = eps[node] * rel
            if other not in eps:
                eps[other] = want
                stack.append(other)
            elif eps[other] != want:
                return None
    if len(eps) != len(nodes):  # disconnected cover graph cannot happen for polytopes
        for node in nodes:
            if node not in eps:
                eps[node] = 1
    for j in range(0, A.dim + 1):
        da, db = A.boundary[j], B.boundary[j]
        for row in range(len(da)):
            for col in range(len(da[row]) if da else 0):
                if eps[(j - 1, row)] * da[row][col] != eps[(j, col)] * db[row][col]:
                    return None
    return eps
