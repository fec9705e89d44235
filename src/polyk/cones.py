"""The lifted cone of a polytope and its duality apparatus.

A polytope P in R^d lifts to the cone over 1 x P in R^n, n = d + 1; each
face F of P spans a subcone whose linear span has dimension dim F + 1.  The
cone's generators are the integer lifted vertices L * (1, v_i), scaled by
the lcm L of the vertex denominators.  One positive factor for all columns
changes no span, kernel, ray direction or determinant sign, so everything
below runs on Python integers, with the rank of the cone decided by
fraction-free elimination (``IntEchelon``) and those of the dual faces by
the growth of their facet bitmasks along the lattice.

Every inner product the covering pairs need is between two lifted vertices
(a span basis is made of the face's own vertices) or between a lifted
vertex and a facet normal of the cone.  So ``ConeSystem`` builds two tables
once per run: the Gram table T[i][j] = <v_i, v_j> of the lifted vertices
(``gram_table``) and the slack table S[i][k] = <y_k, v_i> of the lifted
vertices against the facet normals (``slack_table``), whose zeros give each
vertex's facet bitmask, and each face's dual-face bitmask, the AND of its
vertices' bitmasks.  S >= 0 entrywise, in the same pass over S as the
bitmasks (``vertex_facet_masks``), and the dual faces (``check_dual_faces``:
the top's mask is empty, and along every covering pair E < H, H one
dimension up, the mask strictly shrinks) are checked there, once per run,
before anything reads the masks; that certifies every dual face's rank, and
every pair's barycenter test reduces to it (``check_dual_faces``).
S is read by that one pass and not kept; the pairs read the bitmasks.
Every face F has a deterministic basis A_F of its span (integer lifted
vertices, greedy in index order), held by vertex ids and as the bitmask s_F
of those ids.  A simplex face, |F| = dim F + 1, has all its vertices as
span ids and its vertex mask as s_F, and carries no other data: each of
its lower covers is F without one vertex, the simplicial boundary, whose
sign is a permutation sign (``ConeSystem``).  Any other
face carries face data (``FaceConeData``): its span basis with det G and
adj G of the Gram matrix G = A_F^T A_F, all from T alone, by bordered
steps (``face_cone_data``): a Schur complement per candidate decides
its independence and grows det G and adj G exactly.  Such a face resumes
the pass of a lower cover E that carries data, when E's span ids all lie
below p = min(F - E), with one step by p; the others walk all their
vertices.  The certificate G adj(G) = det G * I, det G > 0, is carried by
the steps: each kept step checks G_S y = D b and that its divisions are
exact, in O(k^2), and by a block identity (stated there) that turns a
certified state into a certified state, so no face forms the k x k
product.

No n-vector is read for any of it, and a face's data holds vertex ids and
integers only: its span basis is the cone's generators at its span ids.
The dual face of F, a face of the dual cone, is generated by the facet
normals of the cone that vanish on every lifted vertex of F; it is not
built, and its bitmask serves the rank check (``check_dual_faces``).

In the paper, the edge vector of a covering pair E < F is the extreme ray of
the dual of E's dual face, taken inside that dual face's span (the
``circledast`` cone of E), that is orthogonal to the dual face of F.  That
ray spans the line where span(F) meets span(E)^perp.  So ``edge_ray`` makes
it as the projection of a lifted vertex g of F outside E off span(E),
scaled by c = det G_E > 0 to stay integral, w = c * g - A_E x, with the
sign that orients it; its docstring states the identities and checks.  The
circledast cones are not built here, nor is w: an ``EdgeRay`` holds
(g, c, x) and makes its primitive integer generator e, the ``direction``,
only when it is read.  Unit normalization is irrelevant to signs, so
primitive integer ray generators replace unit vectors and keep the
arithmetic exact.  ``edge_ray_crosscheck`` checks a ray against a second,
independent construction, the barycenter vector, on Gram numbers.

The covering pairs are oriented in one pass over the face ids from the
bottom up, when the ``ConeSystem`` is built, by two sources of signs and
one rule (the class states them):

  * m = 0, E's span ids F's minus one: read off F's certified adjugate with
    no ray made; ``adjugate_column`` states the identities that give its
    ray and sign, and ``check_dual_faces`` why its cross-check reduces
    to the dual-mask certificate and the principal-minor check of
    ``adjugate_pair_fault``; every pair into a simplex face takes this
    route with no Gram number read, its sign (-1)^r a permutation sign;
  * a face with no m = 0 lower cover takes one sign by the general route
    on its first lower cover, sign det C for [g | A_E] = A_F C, one m x m
    determinant off F's certified adjugate and E's span ids
    (``_coordinate_sign`` states it);
  * every other pair is filled by the diamond rule
    [G : E][E : F] + [G : E'][E' : F] = 0 from the signs below it and
    beside it (Bjoerner 1984).

No pair takes a barycenter test of its own: ``check_dual_faces`` has
certified what it reduces to.  So the system makes no ray on any input, and
``edge_ray`` and ``edge_ray_crosscheck``, the Gram solve and the
Cauchy-Schwarz test, are its independent per-pair oracle.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from math import gcd
from operator import and_, mul, neg
from typing import NamedTuple, Sequence

from .errors import InternalInvariantError
from .linalg import (
    IntEchelon,
    IntMatrix,
    IntVector,
    bareiss_det,
    cofactor_kernel_vector,
    int_dot,
    is_zero_vector,
    permutation_sign,
    primitive_vector,
    qvec,
)
from .polytope import Face, FaceLattice, Polytope, integer_grid, set_bits


class LiftedCone(NamedTuple):
    """The cone over 1 x P: pointed, solid, with explicit dual generators."""

    dim: int  # n = ambient polytope dimension + 1
    generators: tuple[IntVector, ...]  # L * (1, v_i) in vertex order, L = lcm of vertex denominators
    facet_normals: tuple[IntVector, ...]  # primitive generators of the dual cone


class FaceConeData(NamedTuple):
    """Per-face data inside the lifted cone, all the covering pairs read of
    the face (see the module docstring): its span basis and the
    determinant and adjugate of its Gram matrix, as vertex ids and
    integers, no n-vector.  The columns of A_F are the cone's generators
    at ``span_ids``.  ``ConeSystem`` builds it for exactly the faces that
    are not simplices: no pair reads a simplex face's Gram numbers."""

    span_ids: tuple[int, ...]  # vertex ids of the columns of A_F, increasing
    span_mask: int  # the bitmask s_F of span_ids; id a is row popcount(s_F & (2^a - 1))
    gram_det: int  # det G > 0, G = A_F^T A_F
    gram_adj: IntMatrix  # adj G, certified step by step: G adj G = det G * I


class EdgeRay(NamedTuple):
    """The edge ray attached to a covering pair, as the coefficients of
    w = c * g - sum_i x_i a_i over the lifted vertex g and E's span ids a_i
    (see ``edge_ray``), with its orientation sign det([e | A_E]^T A_F): the
    incidence sign [E : F] of the unflipped span bases.  Its primitive
    generator e, ``direction``, is made from the cone's generators when it
    is read; the report never reads it.  The system makes none: it is the
    per-pair oracle's."""

    pair: tuple[Face, Face]
    g: int  # vertex id of the lifted vertex projected
    c: int  # its coefficient, det G_E
    x: tuple[int, ...]  # coefficients of E's span ids, adj(G_E) A_E^T g
    e_ids: tuple[int, ...]  # E's span ids
    orientation: int  # +1 or -1
    generators: tuple[IntVector, ...]  # the cone's, which w combines

    @property
    def direction(self) -> IntVector:
        """The primitive vector w // gcd(w) of w; gcd(w) = 0 exactly when
        w = 0, an error naming the pair.  On the tables of the generators
        that cannot happen once ``edge_ray`` has found side > 0, since
        |w|^2 = c * side."""
        gens = self.generators
        w = [self.c * u for u in gens[self.g]]
        for xi, a in zip(self.x, self.e_ids):
            w = [u - xi * v for u, v in zip(w, gens[a])]
        common = gcd(*w)
        if common == 0:
            E, F = self.pair
            raise InternalInvariantError(f"edge ray of ({E}, {F}) is the zero vector")
        return tuple(u // common for u in w)


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
    the others, and every cone facet arises this way.  With b = p / q in
    lowest terms, the normal is the primitive vector of q (b, -a) = (p, -q a),
    an integer vector on the same ray, so no ``Fraction`` enters.  The point
    (d = 0) has no facets, yet its cone, the ray through (1), has the one
    facet normal (1,).  The cone is pointed by construction: every
    generator's first coordinate is L (below), the lcm of positive
    denominators, so L >= 1 and the functional (1, 0, ..., 0) is strictly
    positive on every generator.  Solidity follows from the polytope being
    full-dimensional, and is asserted.

    The generators are L * (1, v_i), with L the lcm of all vertex
    denominators and L * v_i the vertex on the integer grid
    (``polytope.integer_grid``).  One positive factor for every column
    leaves spans, kernels, ray directions and determinant signs as they
    are, and keeps the barycenter exact; L is their first coordinate.
    """
    n = P.ambient_dim + 1
    scale, grid = integer_grid(P.vertices)
    gens = tuple((scale,) + p for p in grid)
    if IntEchelon(gens).rank != n:
        raise InternalInvariantError("lifted cone is not solid")
    normals = tuple(sorted(primitive_vector((f.offset.numerator,) + tuple(
        -f.offset.denominator * a for a in f.normal)) for f in P.facets))
    if n == 1:  # the point has no facets, but the ray through (1) has facet normal (1,)
        normals = ((1,),)
    return LiftedCone(dim=n, generators=gens, facet_normals=normals)


def face_cone_data(F: Face, gram: IntMatrix,
                   cover: tuple[FaceConeData, int] | None = None) -> FaceConeData:
    """The per-face data of F: its span basis with the determinant and
    adjugate of its Gram matrix G = A_F^T A_F, by bordered steps over the
    Gram table ``gram`` = T, each step checked so that the result carries
    the certificate G adj(G) = det G * I, det G > 0.  The certificate makes
    every ray off span(F), c g - A_F adj(G) A_F^T g, orthogonal to span(F),
    and with it the identities of the cross-check.  The span ids are also
    kept as the bitmask s_F, which ``ConeSystem``'s orientation pass reads.
    Only the Gram table is read, no generator of the cone.  ``ConeSystem``
    calls it for the faces that are not simplices, and its ``face_data``
    for a simplex face, the full walk, whose span ids are F's vertices.

    The pass walks F's vertices in increasing order and keeps the chosen
    ids S with D = det G_S and adj G_S, from S empty and D = 1, or from the
    state of ``cover`` (below).  A candidate u borders G_S with the column
    b = T[S][u] and the corner t = T[u][u]; with y = adj(G_S) b the Schur
    complement gives

        D' = det G_{S+u} = t D - b^T y,

    the leading principal minor of order |S| + 1 of the Gram matrix of the
    ids kept so far and u.  A Gram matrix is positive semidefinite, and
    D' = 0 exactly when u lies in span(S):

      * D' > 0: u is kept, and adj G_{S+u} = [[(D' adj G_S + y y^T) / D, -y],
        [-y^T, D]], and D becomes D';
      * D' = 0: u is skipped;
      * D' < 0: no Gram table gives that, so it is an error.

    Each kept step checks, in O(k^2) for k = |S|, that G_S y = D b, with
    G_S read off T, and that every division by D is exact (``divmod``, a
    zero remainder).  Only the upper triangle of (D' adj G_S + y y^T) / D
    is formed, and each entry below it is the integer mirrored from above:
    with adj G_S symmetric the matrix is symmetric before the division, so
    a mirrored entry is the same quotient of the same numerator, and the
    exact-division check of the upper triangle covers every entry.  Let
    (G_S, D, adj G_S) be certified, G_S adj G_S = D I
    with adj G_S symmetric.  Then the blocks of G_{S+u} adj G_{S+u}, with
    G_{S+u} = [[G_S, b], [b^T, t]], are

        upper left:   (D' G_S adj G_S + G_S y y^T) / D - b y^T
                      = D' I + b y^T - b y^T = D' I,
        upper right:  -G_S y + D b = 0,
        lower left:   (D' b^T adj G_S + b^T y y^T) / D - t y^T
                      = (D' + b^T y - t D) y^T / D = 0,
        lower right:  -b^T y + t D = D',

    the lower left by b^T adj G_S = y^T (symmetry), and the new adjugate is
    symmetric again.  So G_{S+u} adj G_{S+u} = D' I with D' > 0: by
    induction from the empty state (G empty, D = 1), or from the state of
    a lower cover's face data, built by the same checked steps and never
    changed after, every face's result is certified, and no k x k product
    is formed for it.  A failed check is an error naming F and u.  A
    skipped step only reads y, exact on a certified state.

    From the empty state this is the greedy independent subset of F's
    lifted vertices in index order, dim F + 1 of them (none for the empty
    face); the walk stops there, and finding fewer is an error.  Its D and
    adj G are those of a fraction-free Gauss-Jordan pass on the Gram
    matrix of the chosen ids (Bareiss 1968, by Sylvester's identity).

    The walk can resume from a lower cover E of F: ``cover`` = (E's face
    data, p).  Let p = min(F - E), the lowest set bit of mask_F & ~mask_E
    on the vertex bitmasks, and let every span id of E lie below p.  F's
    vertices below p are E's vertices below p, since E is contained in F;
    so F's walk makes E's choices up to E's last span id, and skips the
    vertices of E from there to p, which lie in span(E).  p lies outside
    span(E), as E is a face of F and p is not a vertex of E, so p is kept,
    and then F has its dim F + 1 ids.  F's state is therefore E's
    (ids, D, adj G) bordered once by p, O(k^2) in place of O(|F| k^2).  The
    basis, and every orientation read off it, are those of the full walk.
    A zero minor at p leaves F one id short, an error.
    """
    if cover is None:
        ids, det, adj, walk = [], 1, (), F.vertex_set
    else:
        data_E, p = cover
        ids, det, adj, walk = list(data_E.span_ids), data_E.gram_det, data_E.gram_adj, (p,)
    for u in walk:
        if len(ids) > F.dim:
            break
        t_u = gram[u]
        b = [t_u[s] for s in ids]
        y = [sum(map(mul, row, b)) for row in adj]  # int_dot inlined in this hot loop
        minor = t_u[u] * det - sum(map(mul, b, y))
        if minor > 0:
            for s, b_s in zip(ids, b):
                if sum(map(mul, map(gram[s].__getitem__, ids), y)) != det * b_s:
                    raise _certificate_error(F, u, f"G_S y != D b at vertex {s} (D = {det})")
            bordered = []
            for i, (row, y_i) in enumerate(zip(adj, y)):
                new = [above[i] for above in bordered]  # mirrored: the adjugate is symmetric
                for a, y_j in zip(row[i:], y[i:]):
                    q, rem = divmod(minor * a + y_i * y_j, det)
                    if rem:
                        raise _certificate_error(
                            F, u, f"(D' adj G_S + y y^T) / D is not exact (D = {det})")
                    new.append(q)
                new.append(-y_i)
                bordered.append(new)
            bordered.append([-y_j for y_j in y] + [det])
            adj = bordered
            ids.append(u)
            det = minor
        elif minor < 0:
            raise InternalInvariantError(
                f"Gram determinant of the span of {F} is not positive: "
                f"leading minor of order {len(ids) + 1} is {minor}")
    if len(ids) != F.dim + 1:
        raise InternalInvariantError(
            f"face {F}: span has {len(ids)} independent lifted vertices, expected {F.dim + 1}")
    return FaceConeData(span_ids=tuple(ids), span_mask=sum(1 << a for a in ids),
                        gram_det=det, gram_adj=tuple(map(tuple, adj)))


def _certificate_error(F: Face, u: int, why: str) -> InternalInvariantError:
    return InternalInvariantError(
        f"Gram adjugate of the span of {F} fails the certificate "
        f"G adj(G) = det G * I, det G > 0: bordering by vertex {u}, {why}")


def gram_table(C: LiftedCone) -> IntMatrix:
    """T[i][j] = <v_i, v_j> for the integer lifted vertices v_i.  T is
    symmetric, so one dot product is taken per entry on or above the
    diagonal, ``upper[i][j - i]`` for j >= i, and row i is the column i of
    the rows above it, mirrored, then its own part of the triangle."""
    upper = [[int_dot(u, v) for v in C.generators[i:]] for i, u in enumerate(C.generators)]
    return tuple(tuple([upper[j][i - j] for j in range(i)] + row) for i, row in enumerate(upper))


def slack_table(C: LiftedCone) -> IntMatrix:
    """S[i][k] = <y_k, v_i> for the integer lifted vertex v_i and the facet
    normal y_k = ``C.facet_normals[k]``; nonnegative, zero where v_i lies on
    the facet."""
    return tuple(tuple(int_dot(y, g) for y in C.facet_normals) for g in C.generators)


def vertex_facet_masks(slack: IntMatrix) -> tuple[int, ...]:
    """For each lifted vertex, the bitmask of the facet normals vanishing on
    it (bit k for the normal y_k of ``slack_table``), read off the zeros of
    its row of the slack table, in one pass that also checks S >= 0
    entrywise: every lifted vertex is on the inner side of every facet
    normal.  An edge ray w = c g - A_E x of a pair (E, F) has
    <w, y> = c S[g][y] >= 0 on E's dual face, so this puts every ray in its
    circledast cone at once; a negative entry is an error naming the vertex
    and the facet."""
    masks = []
    for i, row in enumerate(slack):
        if min(row, default=0) < 0:
            k = next(k for k, s in enumerate(row) if s < 0)
            raise InternalInvariantError(
                f"vertex {{{i}}} lies outside facet normal {k} of the cone (slack {row[k]}): "
                "the edge rays at it would leave their circledast cones")
        masks.append(sum(1 << k for k, s in enumerate(row) if s == 0))
    return tuple(masks)


def check_dual_faces(lattice: FaceLattice, dual_masks: Sequence[int], n: int) -> None:
    """The dual faces certified once per run, on ``dual_masks`` (for each
    face, the bitmask of the facet normals vanishing on it, the AND of its
    vertices' ``vertex_facet_masks``), before anything reads them.  The top
    face must have dimension n - 1 and an empty mask.  Every covering
    pair, level by level from the top down, must then have dual_H a proper
    subset of dual_E.  A failing pair is an error naming both faces.

    The dual face of every face F then spans rank n - (dim F + 1), the
    lattice being graded (``GradedIds``).  Lower bound, by induction from
    the top, whose dual face has rank 0 = n - (dim top + 1): take an upper
    cover H of F.  A normal y in dual(F) but not in dual(H) does not vanish
    on some vertex v of H: its slack there is nonzero.  Every normal of
    dual(H) vanishes on v, and so does their span; so y is not in
    span(dual H), and with dual(H) inside dual(F),
    rank dual(F) >= rank dual(H) + 1 >= n - (dim H + 1) + 1
    = n - (dim F + 1).  Upper bound: every normal of dual(F) vanishes on
    F's lifted vertices, dim F + 1 of which are independent, so the
    normals span at most n - (dim F + 1) dimensions.  For a face that
    carries data, that is the span basis ``face_cone_data`` finds, with
    det G > 0; for a simplex face, it is the identity below.

    The barycenter test of every covering pair (E, F) reduces to this
    certificate, so ``ConeSystem`` makes no mask comparison per pair.
    The ray v of the pair spans the line span(F) meet span(E)^perp:
    w = c g - A_E x (``edge_ray``), or F's adjugate column for m = 0
    (``adjugate_column``, once ``adjugate_pair_fault`` has passed).  Take
    y in dual_E & ~dual_F.  y vanishes on E's span ids, so
    <y, v> = det G_E * S[g][y].  Every vertex u of F is e_u + t_u v with
    e_u in span(E), so S[u][y] = t_u <y, v>.  S >= 0
    (``vertex_facet_masks``), and y is not in dual_F, so S[u][y] > 0 at
    some u: hence <y, v> > 0, every t_u >= 0 and some t_u > 0.  The
    barycenter vector is then w' = det G_E * (sum of the t_u) * v, a
    positive multiple of the ray.  For m = 0, with b_F the sum of F's
    lifted vertices and z_F = adj(G_F) A_F^T b_F, that is
    z_F[r] = <b_F, v> = |v|^2 * (sum of the t_u) > 0, the test's form on
    Gram numbers.  So the certificate implies the test, and on a
    hand-built lattice may reject more; on a lattice of P, whose distinct
    faces have distinct dual faces, both accept.

    A simplex face F, |F| = dim F + 1, needs no det G_F > 0 of its own:
    on a lattice of P each lower cover E is F without one vertex g, and
    a normal y in dual_E & ~dual_F vanishes on span(E) and is positive at
    a vertex of F outside E, which can only be g; so g is not in span(E),
    and F's vertices are independent when E's are.  The faces below a
    simplex are simplices, so along a chain of covers from the empty face,
    whose span is {0}, to F the span grows at each of the dim F + 1
    covers, and dim span(F) = dim F + 1 = |F|.  With F's vertices
    independent, G_F is positive definite, and each principal minor
    adj(G_F)[r][r] is det G_E > 0.
    """
    faces, up = lattice.faces_by_id, lattice.up
    top = len(faces) - 1
    if faces[top].dim != n - 1:
        raise InternalInvariantError(
            f"top face {faces[top]} has dimension {faces[top].dim} in a cone of dimension {n}")
    if dual_masks[top]:
        raise InternalInvariantError(
            f"dual face of the top face {faces[top]} is not empty: facet normals "
            f"{list(set_bits(dual_masks[top]))} vanish on every vertex")
    for f in range(top - 1, -1, -1):
        mask = dual_masks[f]
        for h in up[f]:
            smaller = dual_masks[h]
            if smaller == mask or smaller & ~mask:
                raise InternalInvariantError(
                    f"dual face of {faces[f]} does not strictly contain that of its upper "
                    f"cover {faces[h]}, so its rank {n - 1 - faces[f].dim} is not certified")


def adjugate_column(span_F: int, span_E: int) -> int | None:
    """The row r of F's basis whose column of F's certified adjugate is the
    edge ray of a covering pair (E, F) with m = 0, from the span bitmasks
    s_F and s_E, or None for m > 0.  The pair has m = 0 when s_E & ~s_F = 0:
    E's span ids are then F's minus the one id g of s_F & ~s_E
    (|s_E| = |s_F| - 1), in the same increasing order, and
    r = popcount(s_F & (g - 1)) is g's row in F's basis.  None too when
    s_F & ~s_E is not a single bit, which no covering pair gives.  This g is
    the vertex ``edge_ray`` projects, the first span id of F outside E: F's
    other span ids are E's, and g is not a vertex of E, or span(E) would
    hold all of F's basis.

    The ray ``edge_ray`` makes for such a pair by its Gram solve is a column
    of F's certified adjugate, read off with no solve:

        w = A_F adj(G_F) e_r,   so   c = adj(G_F)[r][r] = det G_E,
        x_a = -adj(G_F)[a][r] for the other rows a,   sigma = (-1)^r.

    For v = A_F adj(G_F) e_r gives A_F^T v = G_F adj(G_F) e_r = det G_F e_r:
    v is orthogonal to span(E) and lies in span(F), so it spans the same
    line as w, and its coefficient on g, the cofactor adj(G_F)[r][r], is
    the principal minor det G_E, w's own.  The coordinates in the
    independent basis A_F are unique, so v = w.  The certified adjugate is
    det G_F G_F^{-1}, hence symmetric, and column r is row r.  The number
    ``edge_ray`` checks for the orientation, <w, g> = c * side, is
    (G_F adj(G_F))[r][r] = det G_F, which F's certificate has already found
    positive.  The coordinates C of [g | A_E] in the basis A_F are unit
    columns, g's at row r and E's span ids at the other rows in order, so
    sigma = sign det C is the sign of the permutation that moves row r to
    the front, (-1)^r, never zero.  So the ray is O(k) copies and no
    arithmetic, and its sign none; ``ConeSystem`` makes neither, and
    reads sigma = (-1)^r."""
    g = span_F & ~span_E
    if span_E & ~span_F or g & (g - 1) or not g:
        return None
    return (span_F & (g - 1)).bit_count()


def adjugate_pair_fault(data_E: FaceConeData | None, data_F: FaceConeData, r: int) -> str | None:
    """Why the cross-check rejects a covering pair (E, F) with m = 0 whose
    ray is column r of F's adjugate (``adjugate_column``) on its face
    data, or None: it accepts iff adj(G_F)[r][r] = det G_E > 0.  F is not
    a simplex; a pair into a simplex face takes no such check
    (``ConeSystem`` states why).

    That is the principal-minor identity, the cofactor at (r, r) of G_F
    being the Gram determinant of F's span ids minus row r's, which are
    E's; so it checks E's face data against F's, which the per-pair
    functions read each on its own.  With it, the ray ``edge_ray`` makes
    for the pair, (c, x) = (adj(G_F)[r][r], -adj(G_F)[a][r] for the other
    rows a), is F's adjugate column v = A_F adj(G_F) e_r itself, and
    c = det G_E > 0.  The pair's barycenter test then reduces to the
    dual-mask certificate of ``check_dual_faces``, which states the
    identity.

    A simplex E that carries no data (``data_E`` None) has its vertices as
    span ids, F's span ids minus row r's, so its Gram matrix is G_F without
    row and column r, and the identity makes adj(G_F)[r][r] its
    determinant.  With no det G_E to compare, the check reduces to
    adj(G_F)[r][r] > 0, a principal minor of G_F, which F's certificate
    shows positive definite: G_F adj(G_F) = det G_F * I with det G_F > 0
    makes adj(G_F) = det G_F * G_F^-1, and the inverse of a positive
    definite matrix has a positive diagonal."""
    cofactor = data_F.gram_adj[r][r]
    if data_E is None:
        if cofactor <= 0:
            return f"cofactor adj(G_F)[{r}][{r}] = {cofactor} is not det G_E > 0"
    elif cofactor != data_E.gram_det or cofactor <= 0:
        return f"cofactor adj(G_F)[{r}][{r}] = {cofactor} is not det G_E = {data_E.gram_det} > 0"
    return None


def edge_ray(C: LiftedCone, E: Face, F: Face, data_E: FaceConeData, data_F: FaceConeData,
             gram: IntMatrix, e_mask: int) -> EdgeRay:
    """The edge ray of a covering pair (E, F), with the sign that orients
    it, from the Gram table ``gram`` = T of the cone and E's vertex bitmask
    ``e_mask``.

    The paper's edge ray is the extreme ray of the circledast cone of E
    orthogonal to the dual face of F; it spans the line where span(F) meets
    span(E)^perp.  With g the first span id of F not in E, A = A_E and
    G = G_E, the ray is the primitive vector of

        w = c * g - A x,   c = det G,   x = adj(G) A^T g,

    det G times the component of g orthogonal to span(E); A^T g is the row
    of T at g.  The ray is returned as (g, c, x); w itself is not formed.
    Such a g exists, since A_F does not lie in span(E); none is an error
    naming the pair.  Every vertex v of F outside E gives the same
    primitive ray, and the same sign below: inside span(F), <., e> vanishes
    exactly on span(E), so it has one sign on the vertices of F outside E,
    positive at g, and v projects to det G <v, e> / |e|^2 * e, a positive
    multiple of e.

    The system makes no ray: on a pair with m = 0 the ray is a column of
    F's certified adjugate (``adjugate_column``), a face with no such
    pair takes the sign below alone on one pair, and the diamond rule
    gives the rest (``ConeSystem``).  So this function is the system's
    independent oracle on every pair.  The ray takes one check per
    pair, on k numbers (k = dim F, the size of E's basis), besides the
    sign minor's below:

      * orientation: <w, g> = c T[g][g] - <x, A^T g> = c * side, with
        side = c |g - P_E g|^2, positive unless g lies in span(E), and then
        w = 0; since |w|^2 = c * side too, side > 0 also shows w != 0.

    The other checks hold by certificates made once: w is orthogonal to
    span(E) because G adj(G) = det G * I (carried by the checked bordering
    steps of ``face_cone_data``), so <w, a_j> = c T[g][a_j] - (G x)_j
    = 0; and w lies
    in the circledast cone of E because <w, y> = c S[g][y] for y in E's
    dual face, where every vertex of E vanishes, and S >= 0
    (``vertex_facet_masks``, once per run).
    Membership of the ray in span(F) is an identity, not a check: w is an
    integer combination of g and the columns of A_E, all lifted vertices of
    F.  The barycenter cross-check (``edge_ray_crosscheck``) would reject
    a ray outside span(F) anyway: its vector lies in span(F), so such a ray
    could not be a positive multiple of it.

    The orientation is sign det([e | A_E]^T A_F), the incidence-sign
    determinant with e in the role of the unit edge vector, which is
    sign det([g | A_E]^T A_F):

        [w | A_E] = [g | A_E] U,   U = [[det G, 0], [-x, I]],   det U = det G > 0,

    and w is a positive multiple of e.  That sign is sign det C for the
    coordinates C of [g | A_E] in the basis A_F, one m x m determinant off
    F's certified adjugate (``_coordinate_sign`` states the identities).
    """
    a_ids = data_E.span_ids
    g = _vertex_outside(E, F, a_ids, data_F.span_ids, e_mask)
    t_g = gram[g]
    at_g = [t_g[a] for a in a_ids]
    det_e = data_E.gram_det
    x = tuple([int_dot(row, at_g) for row in data_E.gram_adj])
    side = det_e * t_g[g] - int_dot(x, at_g)
    if side <= 0:
        raise InternalInvariantError(
            f"edge ray of ({E}, {F}) is orthogonal to lifted vertex {g}: it has no orientation"
            if side == 0 else f"edge ray of ({E}, {F}) points away from lifted vertex {g}")
    sign = _coordinate_sign(E, F, g, a_ids, data_F, gram)
    return EdgeRay((E, F), g, det_e, x, a_ids, sign, C.generators)


def _vertex_outside(E: Face, F: Face, a_ids: Sequence[int], f_ids: Sequence[int],
                    e_mask: int) -> int:
    """g, the first of F's span ids ``f_ids`` outside E (vertex bitmask
    ``e_mask``), once the kernel of A_E^T A_F is a line: E's span ids
    ``a_ids`` one fewer than F's.  Either failing is an error naming the
    pair (``edge_ray``)."""
    if len(a_ids) != len(f_ids) - 1:
        raise InternalInvariantError(
            f"edge ray of ({E}, {F}): the kernel of A_E^T A_F is not a line "
            f"(spans of dimension {len(a_ids)} and {len(f_ids)})")
    for g in f_ids:
        if not e_mask >> g & 1:
            return g
    raise InternalInvariantError(f"edge ray of ({E}, {F}): every span id of {F} lies in {E}")


def _coordinate_sign(E: Face, F: Face, g: int, a_ids: Sequence[int], data_F: FaceConeData,
                     gram: IntMatrix) -> int:
    """sign det C for [g | A_E] = A_F C, E's span ids ``a_ids``: the
    orientation sigma of the covering pair (E, F), the permutation sign
    times that of one m x m Bareiss determinant, read off F's certified
    adjugate; a zero one is an error naming the pair.

    sigma is sign det([g | A_E]^T A_F) (``edge_ray`` shows that the ray
    may stand in for g), and

        [g | A_E]^T A_F = C^T G_F,   det G_F > 0,   so   sigma = sign det C.

    A column of C whose vertex is one of F's span ids (g, and each id of A_E
    that F's basis holds) is the unit vector at that id's row.  Give the m
    other columns, of E's span ids outside F's basis, the m rows no unit
    column takes, in increasing order: with pi the permutation of rows so
    assigned, det C = sign(pi) * det M for the m x m block M of C on those
    rows and columns.  The coordinates of a vertex a are
    adj(G_F) A_F^T a / det G_F, and A_F^T a is read off T, so det G_F * M
    is an integer matrix with the sign of det M, det G_F being positive.
    For m = 0, M is the 0 x 0 matrix, det M = 1, and sigma = sign(pi).  For
    E empty, C is the one unit vector of g: +1.  det M != 0 means
    [g | A_E] = A_F C with C nonsingular, so [g | A_E] is a basis of
    span(F): A_E is independent and g is not in span(E), what side > 0 and
    det G_E > 0 show on the ray.  So the general route
    (``ConeSystem._general_sign``) takes sigma = sign det C alone, from F's
    data and E's span ids (g from ``_vertex_outside``), with no ray made.
    """
    span_F, f_ids = data_F.span_mask, data_F.span_ids
    rows = [(span_F & ((1 << a) - 1)).bit_count() if span_F >> a & 1 else None
            for a in (g, *a_ids)]  # None: a is not in F's basis
    outside = [a for a, r in zip(a_ids, rows[1:]) if r is None]
    free = sorted(set(range(len(f_ids))).difference(rows))
    fill = iter(free)
    rows = [next(fill) if r is None else r for r in rows]
    columns = [[gram[a][b] for b in f_ids] for a in outside]  # A_F^T a
    det = bareiss_det([[int_dot(data_F.gram_adj[r], col) for col in columns] for r in free])
    if det == 0:
        raise InternalInvariantError(f"incidence sign of ({E}, {F}) is zero")
    return permutation_sign(rows) * (1 if det > 0 else -1)


def edge_ray_crosscheck(ray: EdgeRay, data_E: FaceConeData, gram: IntMatrix) -> None:
    """Check the edge ray of (E, F) against an independent construction:
    the barycenter vector w' = D b_F - A_E x' must be a strictly positive
    multiple of the ray's w = c g - A_E x, or an error names the pair.

    Here A = A_E, D = det G_E > 0, b_F is the sum of the m integer lifted
    vertices of F (so b_F = L * m * barycenter) and x' = adj(G_E) A^T b_F:
    by Cramer, x'_i = det(G_i) for the Gram matrix G_i whose column i is
    A^T b_F, so A x' / D is the projection of b_F onto span(E), and w' is
    L * m * D times the barycenter's component orthogonal to span(E).

    Every ray takes the Cauchy-Schwarz test, and nothing there is an
    n-vector.  (The system makes no ray: on every pair the test reduces to
    the dual-mask certificate, which ``check_dual_faces`` states and
    makes.)  Only E's face data and the Gram table are read:
    for F = ``ray.pair[1]``, <v, b_F> = sum over u in F of T[v][u] for each
    vertex v of F, and |b_F|^2 is their sum; A^T g and G_E are read off it.
    G_E adj(G_E) = D * I (certified by E's bordering steps)
    gives A^T w' = D A^T b_F - G_E x' = 0, hence

        |w'|^2  = D (D |b_F|^2 - x'^T A^T b_F),
        <w, w'> = c <g, w'> - x^T A^T w' = c (D <g, b_F> - x'^T A^T g),
        |w|^2   = c^2 T[g][g] - 2 c x^T A^T g + x^T G_E x,

    the last for any coefficients the ray carries (it is c * side when
    x = adj(G_E) A^T g and c = D).  Then w' = lambda w with lambda > 0
    exactly when <w, w'> > 0 and <w, w'>^2 = |w|^2 |w'|^2: equality in
    Cauchy-Schwarz, exact on integers.  It is the test the n-vector
    comparison primitive(w') = primitive(w) made, on k numbers.

    The ray's g must be a vertex of F, its x must go with E's span ids, and
    those must be vertices of F; a g outside F (a ray outside span(F))
    fails the check.  So does w' = 0, with <w, w'> = 0.
    """
    g, c, x = ray.g, ray.c, ray.x
    a_ids = data_E.span_ids
    E, F = ray.pair
    b_dots = {v: sum(map(gram[v].__getitem__, F.vertex_set)) for v in F.vertex_set}
    b_sq = sum(b_dots.values())
    at_b = [b_dots.get(a) for a in a_ids]  # None: a is not a vertex of F
    if g not in b_dots or ray.e_ids != a_ids or None in at_b:
        raise InternalInvariantError(
            f"edge-ray cross-check failed for ({E}, {F}): the ray is not a combination "
            f"of a vertex of {F} and the span basis of {E} inside {F}")
    det = data_E.gram_det
    t_g = gram[g]
    at_g = [t_g[a] for a in a_ids]
    x_b = [int_dot(row, at_b) for row in data_E.gram_adj]
    bary_sq = det * (det * b_sq - int_dot(x_b, at_b))
    inner = c * (det * b_dots[g] - int_dot(x_b, at_g))
    w_sq = c * (c * t_g[g] - 2 * int_dot(x, at_g)) + int_dot(
        x, [sum(gram[a][b] * x_b for b, x_b in zip(a_ids, x)) for a in a_ids])
    if inner <= 0 or inner * inner != w_sq * bary_sq:
        raise InternalInvariantError(
            f"edge-ray cross-check failed for ({E}, {F}): "
            "barycenter projection is not a positive multiple")


class ConeSystem:
    """Per-face cone data (``FaceConeData``) for the faces of ``lattice``
    that need it, indexed by face id, and the orientation of every covering
    pair.  The Gram table of the lifted vertices (``gram``) and each face's
    dual-face bitmask (``dual_masks``, the AND of its vertices'
    ``vertex_facet_masks``) are built first, and the dual masks of every
    covering pair (``check_dual_faces``) are certified then.  The slack
    table S is read once, by the pass of ``vertex_facet_masks`` that also
    checks S >= 0, and not kept: no covering pair reads it.

    A simplex face, |F| = dim F + 1, takes no data of its own: its span
    ids are its vertex ids and its span mask its vertex mask, which
    ``span_masks`` holds for every face, and every pair into it is read
    with no arithmetic (below).  The data of every other face is built
    once, in face-id order.  It grows from the data of a lower cover E, its
    resume cover, when E's span ids all lie below p = min(F - E) (see
    ``face_cone_data``): the first such cover in ``down`` order that
    carries data.  Lower covers have lower ids, so E's data is already
    built.  A face with no such cover, a square say, whose lower covers are
    simplices, takes the full walk.  So a face carries data exactly when it
    is not a simplex.  ``face_data`` gives a simplex face's data, made when
    read and not kept, for the per-pair API.  No ray is made.

    Last, ``orientations[f]`` holds the orientation sigma of every
    covering pair (E, F) of face f, one per lower cover in ``down[f]``
    order, the sign ``build_complex`` reads.  One pass over the face ids
    from the bottom up sets them, from two sources and one rule:

      * a pair with m = 0 (``adjugate_column``: s_E & ~s_F = 0 on the span
        bitmasks, its ray column r of F's certified adjugate) reads
        sigma = (-1)^r, with the verdict of ``adjugate_pair_fault`` where F
        carries data.  A pair into a simplex face is one of these, E being
        F without one vertex g and r the row of g in F's vertex tuple, the
        sign of the simplicial boundary; it takes no cofactor check, since
        F's independence and det G_E > 0 follow from the dual masks
        (``check_dual_faces``);
      * a face with no m = 0 lower cover takes the general route on its
        first lower cover: sigma = sign det C for [g | A_E] = A_F C, one
        m x m determinant off F's certified adjugate and E's span ids
        (``_coordinate_sign``).  F is not a simplex there, so it carries
        data.  None does on the 5-cube, the 5-cross-polytope or the prisms
        over cross-polytopes; one face each does on three members of the
        acceptance corpus;
      * every other pair, with m > 0, is filled by the diamond rule.  Each
        interval [G, F] of length 2 holds exactly two faces E and E' (the
        diamond axiom, which the lattice checks), and on +-1 entries
        D_{j-1} D_j = 0 reads

            [G : E][E : F] + [G : E'][E' : F] = 0,

        so [E' : F] = -[G : E'][G : E][E : F] once E's sign is set; the
        signs of the pairs (G, E) and (G, E') are set, G lying below F.
        Flips negate rows and columns of D alike, so the rule holds for
        the unflipped sigma.  The fill starts from the covers whose sign
        is set and goes in rounds, each setting every cover that shares a
        lower cover G with one already set (``_fill``).  The lower covers
        of F are joined by such diamonds, through its ridges when
        dim F >= 2, since the boundary of F is a sphere, and through the
        empty face for an edge; on a regular CW complex, +-1 incidences on
        the covers with D_{j-1} D_j = 0 are unique up to re-orienting cells
        (Bjoerner 1984, "Posets, regular CW complexes and Bruhat order").
        So on a lattice of P the fill reaches every cover, and a cover it
        does not reach is an error naming the pair.

    Each filled sign is forced by the one diamond the fill crossed, so it
    is the sign of the geometric orientation, which satisfies
    D_{j-1} D_j = 0.  The ``ChainComplex`` that ``build_complex`` makes
    checks every entry of D_{j-1} D_j, so it evaluates every other
    diamond, the m = 0 read-offs against each other and against the
    fill included: a comparison of the m = 0 signs with a second sign per
    face, on the dual side, would check nothing that it does not.  What
    D_{j-1} D_j = 0 cannot see is a source that flips whole columns, which
    re-orients cells.  So each source has a witness (``_witness``): the
    first pair read off an adjugate in each dimension of F, and every
    general-route sign, is recomputed as sign det([g | A_E]^T A_F), one
    k x k determinant of Gram entries that reads no adjugate (``edge_ray``
    shows that it is sigma).  That is at most d + 1 determinants per run,
    and one more per general-route sign.  Nothing is assigned after
    ``__init__``.
    """

    def __init__(self, cone: LiftedCone, lattice: FaceLattice):
        self.cone = cone
        self.lattice = lattice
        self.gram = gram_table(cone)
        vertex_masks = vertex_facet_masks(slack_table(cone))
        every = (1 << len(cone.facet_normals)) - 1
        faces = lattice.faces_by_id
        self.dual_masks = tuple(reduce(and_, (vertex_masks[i] for i in f.vertex_set), every)
                                for f in faces)
        check_dual_faces(lattice, self.dual_masks, cone.dim)
        data: list[FaceConeData | None] = [None] * len(faces)
        for f, F in enumerate(faces):
            if len(F.vertex_set) != F.dim + 1:
                data[f] = face_cone_data(F, self.gram, self._resume(f, data))
        self._face_data = tuple(data)
        self.span_masks = tuple(lattice.vertex_masks[f] if d is None else d.span_mask
                                for f, d in enumerate(data))
        self.orientations = self._orient()

    def face_data(self, f: int) -> FaceConeData:
        """The face data of face f: the one built with the system, or, for a
        simplex face that carries none, the full bordered walk, made when
        read and not kept."""
        data = self._face_data[f]
        return face_cone_data(self.lattice.faces_by_id[f], self.gram) if data is None else data

    def _resume(self, f: int, data: Sequence[FaceConeData | None]
                ) -> tuple[FaceConeData, int] | None:
        """(E's face data, p) for the first lower cover E of face f already
        carrying data that the bordered pass of f can resume from, or None."""
        masks = self.lattice.vertex_masks
        mask = masks[f]
        for e in self.lattice.down[f]:
            data_e, rest = data[e], mask & ~masks[e]
            if data_e is not None:
                p = (rest & -rest).bit_length() - 1
                ids = data_e.span_ids
                if not ids or ids[-1] < p:
                    return data_e, p
        return None

    def _orient(self) -> tuple[tuple[int, ...], ...]:
        """``orientations``, face by face from the bottom up (see the
        class): the m = 0 read-offs and their checks, the witness of the
        first in each dimension, then the fill.  A rejected pair is an
        error naming it.  Faces with the same signs share one tuple: a run
        has few distinct ones (10 of the 74,930 faces of ``hull8_30``), so
        the stored signs cost about a pointer per face."""
        L, data, spans = self.lattice, self._face_data, self.span_masks
        faces, signs, witnessed = L.faces_by_id, [], -1  # the last dimension witnessed
        shared: dict[tuple[int, ...], tuple[int, ...]] = {}
        for f, lower in enumerate(L.down):
            data_F, span_F = data[f], spans[f]
            sigma = []
            for e in lower:
                r = adjugate_column(span_F, spans[e])
                if r is not None and data_F is not None and (
                        fault := adjugate_pair_fault(data[e], data_F, r)):
                    raise InternalInvariantError(
                        f"edge-ray cross-check failed for ({faces[e]}, {faces[f]}): {fault}")
                sigma.append(0 if r is None else -1 if r & 1 else 1)
            if faces[f].dim > witnessed and any(sigma):
                i = next(i for i, s in enumerate(sigma) if s)
                self._witness(lower[i], f, sigma[i], "F's adjugate")
                witnessed = faces[f].dim
            if 0 in sigma:
                self._fill(f, sigma, signs)
            sigma = tuple(sigma)
            signs.append(shared.setdefault(sigma, sigma))
        return tuple(signs)

    def _fill(self, f: int, sigma: list[int], signs: Sequence[tuple[int, ...]]) -> None:
        """Set the zero entries of ``sigma``, the signs of face f's lower
        covers in ``down[f]`` order, by the diamond rule, after one
        general-route sign if none is set (see the class); ``signs`` holds
        the orientations of the faces below f."""
        down = self.lattice.down
        lower = down[f]
        if not any(sigma):
            sigma[0] = self._general_sign(lower[0], f)
            self._witness(lower[0], f, sigma[0], "the general route")
        above: dict[int, int] = {}  # G -> [G : E][E : F] for a set cover E of F above G
        fresh = [i for i, s in enumerate(sigma) if s]
        pending = [i for i, s in enumerate(sigma) if not s]
        while pending:  # a round: the covers set last enter ``above``, then the rest look
            for i in fresh:
                e, s = lower[i], sigma[i]
                above.update(zip(down[e], signs[e] if s > 0 else map(neg, signs[e])))
            fresh, left = [], []
            for i in pending:
                e = lower[i]
                for g, t in zip(down[e], signs[e]):
                    if (u := above.get(g)) is not None:
                        sigma[i] = -t * u
                        fresh.append(i)
                        break
                else:
                    left.append(i)
            if not fresh:
                faces = self.lattice.faces_by_id
                E, F = faces[lower[left[0]]], faces[f]
                raise InternalInvariantError(f"no diamond sets the sign of ({E}, {F}): it joins "
                                             f"no lower cover of {F} whose sign is set")
            pending = left

    def _witness(self, e: int, f: int, sigma: int, source: str) -> None:
        """The sign sigma that ``source`` gave the covering pair (E, F),
        against sign det([g | A_E]^T A_F), one k x k ``bareiss_det`` of
        Gram entries, which reads no adjugate (see the class).  A mismatch
        is an error naming the pair."""
        E, F, g, a_ids, f_ids = self._general_pair(e, f)
        det = bareiss_det([[self.gram[a][b] for b in f_ids] for a in (g, *a_ids)])
        if (sign := (det > 0) - (det < 0)) != sigma:
            raise InternalInvariantError(f"sign witness ({E}, {F}): {source} gives {sigma}, "
                                         f"sign det([g | A_E]^T A_F) = {sign}")

    def _general_pair(self, e: int, f: int) -> tuple[Face, Face, int, tuple[int, ...],
                                                     tuple[int, ...]]:
        """(E, F, g, E's span ids, F's span ids) of the covering pair
        (E, F), a simplex's span ids its vertex ids."""
        L, data_E, data_F = self.lattice, self._face_data[e], self._face_data[f]
        E, F = L.faces_by_id[e], L.faces_by_id[f]
        a_ids = E.vertex_set if data_E is None else data_E.span_ids
        f_ids = F.vertex_set if data_F is None else data_F.span_ids
        return E, F, _vertex_outside(E, F, a_ids, f_ids, L.vertex_masks[e]), a_ids, f_ids

    def _general_sign(self, e: int, f: int) -> int:
        """sigma of the covering pair (E, F) by the general route, sign det C
        for [g | A_E] = A_F C, off F's data and E's span ids, a simplex E's
        vertex ids (``_coordinate_sign``).  F takes it only when none of its
        lower covers has m = 0, so F is not a simplex and carries data."""
        E, F, g, a_ids, _ = self._general_pair(e, f)
        return _coordinate_sign(E, F, g, a_ids, self._face_data[f], self.gram)

    def ray(self, e: int, f: int) -> EdgeRay:
        L = self.lattice
        return edge_ray(self.cone, L.faces_by_id[e], L.faces_by_id[f], data_E=self.face_data(e),
                        data_F=self.face_data(f), gram=self.gram, e_mask=L.vertex_masks[e])

    def crosscheck(self, e: int, f: int, ray: EdgeRay) -> None:
        """``edge_ray_crosscheck`` of the ray of the pair of face ids (e, f)."""
        return edge_ray_crosscheck(ray, self.face_data(e), self.gram)
