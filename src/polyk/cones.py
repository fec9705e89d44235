"""The lifted cone of a polytope and its duality apparatus.

A polytope P in R^d lifts to the cone over 1 x P in R^n, n = d + 1; each
face F of P spans a subcone whose linear span has dimension dim F + 1.  The
cone's generators are the integer lifted vertices L * (1, v_i), scaled by
the lcm L of the vertex denominators.  One positive factor for all columns
changes no span, kernel, ray direction or determinant sign, so everything
below runs on Python integers, with the ranks of the cone and of the dual
faces decided by fraction-free elimination (``IntEchelon``).

Every inner product the covering pairs need is between two lifted vertices
(a span basis is made of the face's own vertices) or between a lifted
vertex and a facet normal of the cone.  So ``ConeSystem`` builds two tables
once per run: the Gram table T[i][j] = <v_i, v_j> of the lifted vertices
(``gram_table``) and the slack table S[i][k] = <y_k, v_i> of the lifted
vertices against the facet normals (``slack_table``), whose zeros give each
vertex's facet bitmask.  For every face id, once per run, we compute

  * a deterministic basis A_F of the span (integer lifted vertices, greedy
    in index order), by vertex ids and as a map from each id to its row of
    coordinates in that basis, with the Gram matrix G = A_F^T A_F,
    det G and adj G, all from T alone, in one bordered pass over F's
    vertices (``bordered_gram_basis``): a Schur complement per candidate
    decides its independence and grows det G and adj G exactly,
  * the sum b_F of its lifted vertices,
  * the dual face (facet normals of the cone vanishing on F), by facet ids
    and generators, as the AND of its vertices' facet bitmasks; its rank is
    counted up to n - (dim F + 1), the most it can be.

In the paper, the edge vector of a covering pair E < F is the extreme ray of
the dual of E's dual face, taken inside that dual face's span (the
``circledast`` cone of E), that is orthogonal to the dual face of F.  That
ray spans the line where span(F) meets span(E)^perp.  So it is the
projection of a lifted vertex g of F outside E off span(E), scaled by
det G_E > 0 to stay integral (see ``edge_ray``):

    w = det G_E * g - A_E x,   x = adj(G_E) A_E^T g,

an integer combination of vertices of F, hence in span(F) by construction,
whose coefficients are table lookups; the circledast cones themselves are
not built here.  Its primitive integer generator e plays the role of the
unit edge vector in the incidence-sign determinant det([e | A_E]^T A_F).
Since [w | A_E] = [g | A_E] U with U unit lower triangular but for its
corner det G_E, det U = det G_E > 0, and w is a positive multiple of e,
that sign is the sign of det([g | A_E]^T A_F) = det(C^T G_F), C the
coordinates of [g | A_E] in the basis A_F; det G_F > 0, so it is
sign det C: the ray's orientation (see ``polyk.cellular``).  With g one of
F's span ids, every column of C that is a vertex of F's basis is a unit
vector, so det C is a permutation sign times an m x m minor, m the number
of E's span ids outside F's, whose entries are read off adj(G_F) and T;
most pairs have m = 0 and need no arithmetic for their sign.  Unit
normalization is irrelevant to signs, so primitive integer ray generators
replace unit vectors throughout and keep the arithmetic exact.

A second, independent construction of the same ray (orthogonal projection of
the barycenter of the lifted F-vertices away from the span of E, by an
integer Cramer solve of the Gram system whose numerators det(G_i) are the
entries of adj(G) A_E^T b_F) is used as a cross-check: the two must agree
up to a strictly positive factor, so they have the same primitive vector.
Its vector lies in span(F), so it would also reject a ray outside span(F).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import gcd, lcm
from operator import and_
from typing import Sequence

from .errors import InternalInvariantError
from .linalg import (
    IntEchelon,
    IntMatrix,
    IntVector,
    bareiss_det,
    cofactor_kernel_vector,
    first_independent,
    int_dot,
    is_zero_vector,
    permutation_sign,
    primitive_vector,
    qvec,
)
from .polytope import Face, FaceLattice, Polytope, set_bits

IntBasis = tuple[IntVector, ...]  # the columns of an integer matrix


@dataclass(frozen=True)
class LiftedCone:
    """The cone over 1 x P: pointed, solid, with explicit dual generators."""

    dim: int  # n = ambient polytope dimension + 1
    base: Polytope
    generators: tuple[IntVector, ...]  # L * (1, v_i) in vertex order, L = lcm of vertex denominators
    facet_normals: tuple[IntVector, ...]  # primitive generators of the dual cone


@dataclass(frozen=True)
class FaceConeData:
    """Per-face data inside the lifted cone, all the covering pairs read of
    the face (see the module docstring)."""

    span_ids: tuple[int, ...]  # vertex ids of the columns of span_basis
    span_row: dict[int, int]  # span_ids[r] -> r, its row of coordinates in span_basis
    span_basis: IntBasis  # columns: greedy independent integer lifted vertices of the face
    vertex_sum: IntVector  # b_F, the sum of the integer lifted vertices of the face
    gram: IntMatrix  # G = A_F^T A_F, read off the Gram table
    gram_det: int  # det G > 0
    gram_adj: IntMatrix  # adj G
    dual_ids: tuple[int, ...]  # indices into the cone's facet_normals of the dual face
    dual_face_gens: tuple[IntVector, ...]  # those facet normals


@dataclass(frozen=True)
class EdgeRay:
    """Primitive generator e of the edge ray attached to a covering pair,
    and its orientation sign det([e | A_E]^T A_F) (see ``edge_ray``): the
    incidence sign [E : F] of the unflipped span bases."""

    pair: tuple[Face, Face]
    direction: IntVector
    orientation: int  # +1 or -1


def dual_cone(gens: Sequence[Sequence], ambient_dim: int | None = None) -> tuple[IntVector, ...]:
    """Primitive generators (extreme rays) of {y : <y, g> >= 0 for all g}.

    The input generators must span the ambient space (the cone must be
    solid), which makes the dual pointed; its extreme rays are then exactly
    the facet normals of the input cone, found by brute-force enumeration of
    spanning (n-1)-subsets.
    """
    gens = [qvec(g) for g in gens]
    if ambient_dim is None:
        if not gens:
            raise InternalInvariantError("dual_cone needs generators or an explicit dimension")
        ambient_dim = len(gens[0])
    n = ambient_dim
    if n == 0:
        return ()
    int_gens = [primitive_vector(g) for g in gens if not is_zero_vector(g)]
    if IntEchelon(int_gens).rank < n:
        raise InternalInvariantError("dual_cone: input cone is not solid in its ambient space")
    seen: set[IntVector] = set()  # hyperplanes already classified, canonical orientation
    out: set[IntVector] = set()
    for subset in combinations(range(len(int_gens)), n - 1):
        normal = cofactor_kernel_vector([int_gens[i] for i in subset], n)
        if normal is None:
            continue
        normal = primitive_vector(normal)
        lead = next(x for x in normal if x != 0)
        canonical = normal if lead > 0 else tuple(-x for x in normal)
        if canonical in seen:
            continue
        seen.add(canonical)
        supports_pos = supports_neg = True
        for g in int_gens:
            s = sum(a * b for a, b in zip(normal, g))
            if s > 0:
                supports_neg = False
            elif s < 0:
                supports_pos = False
            if not supports_pos and not supports_neg:
                break
        if supports_pos:
            out.add(normal)
        elif supports_neg:
            out.add(tuple(-x for x in normal))
    return tuple(sorted(out))


def lift(P: Polytope) -> LiftedCone:
    """Build the lifted cone with exact facet normals, read off P's facets.

    A facet <a, x> <= b of P lifts to the cone facet normal (b, -a): it
    vanishes on the lifted vertices (1, v) with <a, v> = b and is positive on
    the others, and every cone facet arises this way.  The point (d = 0) has
    no facets, yet its cone, the ray through (1), has the one facet normal
    (1,).  Pointedness is witnessed by the functional (1, 0, ..., 0), which is
    strictly positive on every generator; solidity follows from the polytope
    being full-dimensional.  Both are asserted.

    The generators are L * (1, v_i), with L the lcm of all vertex
    denominators.  One positive factor for every column leaves spans,
    kernels, ray directions and determinant signs as they are, and keeps
    the barycenter exact; L is their first coordinate.
    """
    n = P.ambient_dim + 1
    scale = lcm(*(x.denominator for v in P.vertices for x in v))
    gens = tuple((scale,) + tuple(x.numerator * (scale // x.denominator) for x in v)
                 for v in P.vertices)
    if any(g[0] <= 0 for g in gens):
        raise InternalInvariantError("lifted cone is not pointed")
    if IntEchelon(gens).rank != n:
        raise InternalInvariantError("lifted cone is not solid")
    normals = tuple(sorted(primitive_vector((f.offset,) + tuple(-a for a in f.normal))
                           for f in P.facets))
    if n == 1:  # the point has no facets, but the ray through (1) has facet normal (1,)
        normals = ((1,),)
    return LiftedCone(dim=n, base=P, generators=gens, facet_normals=normals)


def bordered_gram_basis(F: Face, gram: IntMatrix) -> tuple[tuple[int, ...], int, IntMatrix]:
    """The span basis of F with the determinant and adjugate of its Gram
    matrix, in one bordered pass over the Gram table ``gram`` = T.

    It walks F's vertices in increasing index order and keeps the chosen
    ids S with D = det G_S and adj G_S (D = 1 and S empty at the start).  A
    candidate u borders G_S with the column b = T[S][u]; with y = adj(G_S) b
    the Schur complement gives

        D' = det G_{S+u} = T[u][u] D - b^T y,

    the leading principal minor of order |S| + 1 of the Gram matrix of the
    ids kept so far and u.  A Gram matrix is positive semidefinite, and
    D' = 0 exactly when u lies in span(S):

      * D' > 0: u is kept, and adj G_{S+u} = [[(D' adj G_S + y y^T) / D, -y],
        [-y^T, D]], each division exact (an adjugate of an integer matrix is
        integral), and D becomes D';
      * D' = 0: u is skipped;
      * D' < 0: no Gram table gives that, so it is an error.

    This is the greedy independent subset of F's lifted vertices in index
    order, dim F + 1 of them (none for the empty face); the walk stops there,
    and finding fewer is an error.  Its D and adj G are those of a
    fraction-free Gauss-Jordan pass on the Gram matrix of the chosen ids
    (Bareiss 1968, by Sylvester's identity).
    """
    want = F.dim + 1
    ids: list[int] = []
    det, adj = 1, []
    for u in F.vertex_set:
        if len(ids) == want:
            break
        t_u = gram[u]
        b = [t_u[s] for s in ids]
        y = [int_dot(row, b) for row in adj]
        minor = t_u[u] * det - int_dot(b, y)
        if minor > 0:
            adj = [[(minor * a + yi * yj) // det for a, yj in zip(row, y)] + [-yi]
                   for row, yi in zip(adj, y)]
            adj.append([-yj for yj in y] + [det])
            ids.append(u)
            det = minor
        elif minor < 0:
            raise InternalInvariantError(
                f"Gram determinant of the span of {F} is not positive: "
                f"leading minor of order {len(ids) + 1} is {minor}")
    if len(ids) != want:
        raise InternalInvariantError(
            f"face {F}: span has {len(ids)} independent lifted vertices, expected {want}")
    return tuple(ids), det, tuple(map(tuple, adj))


def gram_table(C: LiftedCone) -> IntMatrix:
    """T[i][j] = <v_i, v_j> for the integer lifted vertices v_i."""
    return tuple(tuple(int_dot(u, v) for v in C.generators) for u in C.generators)


def slack_table(C: LiftedCone) -> IntMatrix:
    """S[i][k] = <y_k, v_i> for the integer lifted vertex v_i and the facet
    normal y_k = ``C.facet_normals[k]``; nonnegative, zero where v_i lies on
    the facet."""
    return tuple(tuple(int_dot(y, g) for y in C.facet_normals) for g in C.generators)


def vertex_facet_masks(slack: IntMatrix) -> tuple[int, ...]:
    """For each lifted vertex, the bitmask of the facet normals vanishing on
    it (bit k for the normal y_k of ``slack_table``), read off the zeros of
    its row of the slack table."""
    return tuple(sum(1 << k for k, s in enumerate(row) if s == 0) for row in slack)


def face_cone_data(C: LiftedCone, F: Face, vertex_masks: tuple[int, ...],
                   gram: IntMatrix) -> FaceConeData:
    """The per-face data of F, with its span basis, Gram matrix, det G and
    adj G read off the Gram table ``gram`` (``bordered_gram_basis``).  The
    dual face is a face of the dual cone, hence generated by the facet
    normals of the cone that vanish on every lifted vertex of F: the AND of
    the vertices' ``vertex_facet_masks``.  Its span must have dimension
    n - (dim F + 1); anything else is a geometry bug.

    The rank is counted only up to that dimension: every dual normal
    vanishes on F's lifted vertices, dim F + 1 of which are independent
    (the span basis), so the normals span at most n - (dim F + 1)
    dimensions, and the rank is right exactly when that many independent
    ones are found."""
    n = C.dim
    span_ids, gram_det, gram_adj = bordered_gram_basis(F, gram)
    dual = reduce(and_, (vertex_masks[i] for i in F.vertex_set), (1 << len(C.facet_normals)) - 1)
    dual_ids = set_bits(dual)
    dual_gens = tuple(C.facet_normals[k] for k in dual_ids)
    expected = n - (F.dim + 1)
    got = len(first_independent(dual_gens, expected)[0])
    if got != expected:
        raise InternalInvariantError(f"dual face of {F} spans rank {got}, expected {expected}")
    vertex_sum = tuple(map(sum, zip(*(C.generators[i] for i in F.vertex_set)))) or (0,) * n
    return FaceConeData(span_ids=span_ids, span_row={a: r for r, a in enumerate(span_ids)},
                        span_basis=tuple(C.generators[i] for i in span_ids),
                        vertex_sum=vertex_sum,
                        gram=tuple(tuple(gram[a][b] for b in span_ids) for a in span_ids),
                        gram_det=gram_det, gram_adj=gram_adj, dual_ids=dual_ids,
                        dual_face_gens=dual_gens)


def edge_ray(C: LiftedCone, E: Face, F: Face, data_E: FaceConeData, data_F: FaceConeData,
             gram: IntMatrix, slack: IntMatrix) -> EdgeRay:
    """The primitive generator of the edge ray of a covering pair (E, F),
    with the sign that orients it, from the Gram table ``gram`` = T and the
    slack table ``slack`` = S of the cone.

    The paper's edge ray is the extreme ray of the circledast cone of E
    orthogonal to the dual face of F; it spans the line where span(F) meets
    span(E)^perp.  With g the first span id of F not in E, A = A_E and
    G = G_E, the ray is the primitive vector of

        w = det G * g - A x,   x = adj(G) A^T g,

    det G times the component of g orthogonal to span(E); A^T g is the row
    of T at g.  Such a g exists, since A_F does not lie in span(E); none is
    an error naming the pair.  Every vertex v of F outside E gives the same
    primitive ray, and the same sign below: inside span(F), <., e> vanishes
    exactly on span(E), so it has one sign on the vertices of F outside E,
    positive at g, and v projects to det G <v, e> / |e|^2 * e, a positive
    multiple of e.  Each check reads the tables, by these identities:

      * orthogonality to span(E): <w, a_j> = det G * T[g][a_j] - (G x)_j,
        zero for every j exactly when G adj(G) = det G * I on A^T g;
      * circledast cone of E: for y in E's dual face, <a_i, y> = 0 for
        every vertex a_i of E, so <w, y> = det G * <g, y> = det G * S[g][y],
        which must be >= 0;
      * orientation: <w, g> = det G * T[g][g] - <x, A^T g>
        = det G * |g - P_E g|^2, positive unless g lies in span(E), and
        then w = 0.

    Membership of the ray in span(F) is an identity, not a check: w is an
    integer combination of g and the columns of A_E, all lifted vertices of
    F.  The barycenter cross-check that ``build_complex`` makes on every
    pair would reject a ray outside span(F) anyway: its vector lies in
    span(F), so such a ray could not be its primitive vector.  The
    primitive vector of w is w // gcd(w), on integers; gcd(w) = 0 exactly
    when w = 0, an error naming the pair.

    The orientation is sign det([e | A_E]^T A_F), which is
    sign det([g | A_E]^T A_F): [w | A_E] = [g | A_E] U with det U = det G
    > 0, and w is a positive multiple of e.  Let C be the coordinates of
    [g | A_E] in the basis A_F, [g | A_E] = A_F C.  Then

        [g | A_E]^T A_F = C^T G_F,   det G_F > 0,   so   sigma = sign det C.

    A column of C whose vertex is one of F's span ids (g, and each id of A_E
    that F's basis holds) is the unit vector at that id's row.  Give the m
    other columns, of E's span ids outside F's basis, the m rows no unit
    column takes, in increasing order: with pi the permutation of rows so
    assigned, det C = sign(pi) * det M for the m x m block M of C on those
    rows and columns.  The coordinates of a vertex a are
    adj(G_F) A_F^T a / det G_F, and A_F^T a is read off T, so det G_F * M
    is an integer matrix with the sign of det M, det G_F being positive.
    For m = 0, as on most pairs, sigma = sign(pi), never zero; for m > 0 it
    takes one Bareiss determinant of that matrix, and a zero one is an
    error naming the pair ([g | A_E] would not be a basis of span(F)).  For
    E empty, x is empty, w = g, and C is the one unit vector of g: +1.
    """
    a_ids, f_ids = data_E.span_ids, data_F.span_ids
    if len(a_ids) != len(f_ids) - 1:
        raise InternalInvariantError(
            f"edge ray of ({E}, {F}): the kernel of A_E^T A_F is not a line "
            f"(spans of dimension {len(a_ids)} and {len(f_ids)})")
    g = next((i for i in f_ids if i not in E.vertex_set), None)
    if g is None:
        raise InternalInvariantError(
            f"edge ray of ({E}, {F}): every span id of {F} lies in {E}")
    t_g = gram[g]
    at_g = [t_g[a] for a in a_ids]
    det_e = data_E.gram_det
    x = [int_dot(row, at_g) for row in data_E.gram_adj]
    if any(det_e * t != int_dot(row, x) for row, t in zip(data_E.gram, at_g)):
        raise InternalInvariantError(f"edge ray of ({E}, {F}) not orthogonal to span of {E}")
    if any(slack[g][k] < 0 for k in data_E.dual_ids):
        raise InternalInvariantError(f"edge ray of ({E}, {F}) outside circledast cone of {E}")
    side = det_e * t_g[g] - int_dot(x, at_g)
    if side <= 0:
        raise InternalInvariantError(
            f"edge ray of ({E}, {F}) is orthogonal to lifted vertex {g}: it has no orientation"
            if side == 0 else f"edge ray of ({E}, {F}) points away from lifted vertex {g}")
    w = [det_e * c for c in C.generators[g]]
    for xi, a in zip(x, a_ids):
        w = [u - xi * v for u, v in zip(w, C.generators[a])]
    common = gcd(*w)
    if common == 0:
        raise InternalInvariantError(f"edge ray of ({E}, {F}) is the zero vector")
    direction = tuple(u // common for u in w)
    row = data_F.span_row
    rows = [row[g]] + [row.get(a) for a in a_ids]  # None: a is not in F's basis
    if None not in rows:
        return EdgeRay(pair=(E, F), direction=direction, orientation=permutation_sign(rows))
    outside = [a for a, r in zip(a_ids, rows[1:]) if r is None]
    free = sorted(set(range(len(f_ids))).difference(rows))
    fill = iter(free)
    rows = [next(fill) if r is None else r for r in rows]
    columns = [[gram[a][b] for b in f_ids] for a in outside]  # A_F^T a
    det = bareiss_det([[int_dot(data_F.gram_adj[r], col) for col in columns] for r in free])
    if det == 0:
        raise InternalInvariantError(f"incidence sign of ({E}, {F}) is zero")
    return EdgeRay(pair=(E, F), direction=direction,
                   orientation=permutation_sign(rows) * (1 if det > 0 else -1))


def edge_ray_crosscheck(E: Face, F: Face,
                        data_E: FaceConeData, data_F: FaceConeData) -> IntVector:
    """Independent reconstruction of the edge-ray direction of (E, F).

    The component w of the barycenter of the lifted F-vertices orthogonal
    to the span of E (within the span of F) must be a strictly positive
    multiple of the edge-ray direction.  This returns a positive integer
    multiple of w, so its primitive vector must be the ray's direction.

    It is computed on integers.  With A = A_E (the span basis of E's face
    data) and b = b_F the sum of the m integer lifted vertices of F (F's
    face data), so that b = L * m * barycenter, the projection of b onto
    span(A) is A x for the solution x of the Gram system G x = A^T b,
    G = A^T A.  By Cramer, x_i = det(G_i) / det(G), with G_i the Gram
    matrix whose column i is replaced by A^T b; since G^-1 = adj(G) / det(G),
    det(G_i) = (adj(G) A^T b)_i, with det G > 0 and adj G from E's face
    data.  So

        w' = det(G) b - sum_i det(G_i) A_i = (L * m * det G) * w,

    which is returned as it is: the factor is positive, so w' has the
    primitive vector of w.
    """
    a_e, b = data_E.span_basis, data_F.vertex_sum
    rhs = [int_dot(u, b) for u in a_e]
    w = [data_E.gram_det * x for x in b]
    for adj_row, col in zip(data_E.gram_adj, a_e):
        det_i = int_dot(adj_row, rhs)
        w = [x - det_i * a for x, a in zip(w, col)]
    if is_zero_vector(w):
        raise InternalInvariantError(f"barycenter of {F} projects to zero over {E}")
    return tuple(w)


class ConeSystem:
    """Per-face cone data (``FaceConeData``), computed once per face and
    in a list indexed by the face ids of ``lattice``, and read by the edge
    rays and the cross-checks.  The Gram and slack tables of the lifted
    vertices (``gram``, ``slack``) and the vertex-facet masks behind the dual
    faces are built once, with the system.  Edge rays and cross-checks are
    not kept: ``build_complex`` asks for each covering pair's once.

    Safe to share within a run: nothing cached is modified after it is built.
    """

    def __init__(self, cone: LiftedCone, lattice: FaceLattice):
        self.cone = cone
        self.lattice = lattice
        self.gram = gram_table(cone)
        self.slack = slack_table(cone)
        self._vertex_masks = vertex_facet_masks(self.slack)
        self._face_data: list[FaceConeData | None] = [None] * len(lattice.faces_by_id)

    def face_data(self, f: int) -> FaceConeData:
        data = self._face_data[f]
        if data is None:
            data = self._face_data[f] = face_cone_data(
                self.cone, self.lattice.faces_by_id[f], self._vertex_masks, self.gram)
        return data

    def ray(self, e: int, f: int) -> EdgeRay:
        E, F = self.lattice.faces_by_id[e], self.lattice.faces_by_id[f]
        return edge_ray(self.cone, E, F, data_E=self.face_data(e), data_F=self.face_data(f),
                        gram=self.gram, slack=self.slack)

    def crosscheck(self, e: int, f: int) -> IntVector:
        E, F = self.lattice.faces_by_id[e], self.lattice.faces_by_id[f]
        return edge_ray_crosscheck(E, F, data_E=self.face_data(e), data_F=self.face_data(f))
