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
vertices' bitmasks.  S >= 0 entrywise and the rank of every dual face
(``check_dual_faces``: the top's mask is empty, and every other face's mask
strictly holds that of an upper cover) are checked there, once per run.
For every face id, once per run, we compute

  * a deterministic basis A_F of the span (integer lifted vertices, greedy
    in index order), by vertex ids, as the bitmask s_F of those ids and as
    a map from each id to its row of coordinates in that basis, with
    det G and adj G of the Gram matrix G = A_F^T A_F, all from T alone, by
    bordered steps (``bordered_gram_basis``): a Schur complement per
    candidate decides its independence and grows det G and adj G exactly.
    Nearly every face resumes the pass of a lower cover E, whose span ids
    all lie below p = min(F - E), with one step by p; the others walk all
    their vertices.  The certificate G adj(G) = det G * I, det G > 0, is
    carried by the steps: each kept step checks G_S y = D b and that its
    divisions are exact, in O(k^2), and by a block identity (stated there)
    that turns a certified state into a certified state, so no face forms
    the k x k product,
  * for the sum b_F of its lifted vertices, A_F^T b_F, each entry
    <a, b_F> = sum over u in F of T[a][u] read off the table, then
    z_F = adj(G) A_F^T b_F and |b_F|^2 = <A_F^T b_F, z_F> / det G: b_F lies
    in span(F), so b_F = A_F z_F / det G, and the division is exact,
  * the dual face (facet normals of the cone vanishing on F), kept as its
    bitmask; its facet ids are read off that mask.

No n-vector is read for any of it: the span basis and the dual face's
generators are looked up in the cone only when a caller reads them.

In the paper, the edge vector of a covering pair E < F is the extreme ray of
the dual of E's dual face, taken inside that dual face's span (the
``circledast`` cone of E), that is orthogonal to the dual face of F.  That
ray spans the line where span(F) meets span(E)^perp.  So ``edge_ray`` makes
it as the projection of a lifted vertex g of F outside E off span(E),
scaled by c = det G_E > 0 to stay integral, w = c * g - A_E x, with the
sign that orients it; on most pairs w is a column of F's certified
adjugate.  Those identities, and the checks of the ray, each made where it
costs least, are stated in its docstring.  The circledast cones themselves
are not built here, nor is w: an ``EdgeRay`` holds (g, c, x) and makes its
primitive integer generator e, the ``direction``, only when it is read.
Unit normalization is irrelevant to signs, so primitive integer ray
generators replace unit vectors throughout and keep the arithmetic exact.
``edge_ray_crosscheck`` checks every ray against a second, independent
construction, the barycenter vector, on Gram numbers; its docstring states
that test.

The covering pairs are taken by face: ``ConeSystem.cover_orientations``
orients and checks all the lower covers E of a face F in one pass.  A pair
has m = 0 exactly when s_E & ~s_F = 0; its ray is then column
r = popcount(s_F & (g - 1)) of F's adjugate, g the one bit of s_F & ~s_E,
so its sign is (-1)^r, and its cross-check reduces to z_F[r] > 0 and the
principal-minor identity adj(G_F)[r][r] = det G_E > 0, all read off F's and
E's data with no ray made.  Only the pairs with m > 0 call ``edge_ray`` and
``edge_ray_crosscheck``, which still take any pair: they are the per-pair
API and the oracle of the batch, and share its row lookup
(``adjugate_column``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import gcd, lcm
from operator import and_, neg
from typing import Iterable, NamedTuple, Sequence

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
    the face (see the module docstring).  The span basis and the dual face's
    generators are n-vectors of ``cone``, looked up when read; the report
    never reads them."""

    span_ids: tuple[int, ...]  # vertex ids of the columns of span_basis, increasing
    span_mask: int  # the bitmask of span_ids
    span_row: dict[int, int]  # span_ids[r] -> r, its row of coordinates in span_basis
    span_sum_dot: tuple[int, ...]  # A_F^T b_F: <a, b_F> for each span id a, b_F the vertex sum
    sum_coords: tuple[int, ...]  # z_F = adj(G) A_F^T b_F, det G times b_F's coordinates in A_F
    sum_sq: int  # |b_F|^2 = <A_F^T b_F, z_F> / det G
    gram_det: int  # det G > 0, G = A_F^T A_F
    gram_adj: IntMatrix  # adj G, certified step by step: G adj G = det G * I
    dual_mask: int  # bit k for each facet normal k of the cone in the dual face
    cone: LiftedCone

    @property
    def span_basis(self) -> IntBasis:
        """The columns of A_F: greedy independent integer lifted vertices of
        the face."""
        return tuple(self.cone.generators[i] for i in self.span_ids)

    @property
    def dual_ids(self) -> tuple[int, ...]:
        """Indices into the cone's facet_normals of the dual face."""
        return set_bits(self.dual_mask)

    @property
    def dual_face_gens(self) -> tuple[IntVector, ...]:
        """The facet normals of the dual face."""
        return tuple(self.cone.facet_normals[k] for k in self.dual_ids)


class EdgeRay(NamedTuple):
    """The edge ray attached to a covering pair, as the coefficients of
    w = c * g - sum_i x_i a_i over the lifted vertex g and E's span ids a_i
    (see ``edge_ray``), with its orientation sign det([e | A_E]^T A_F): the
    incidence sign [E : F] of the unflipped span bases.  Its primitive
    generator e, ``direction``, is made from the cone's generators when it
    is read; the report never reads it.  A named tuple, immutable like the
    frozen dataclasses elsewhere: one is made per covering pair, and it is
    made in a third of a frozen dataclass's time."""

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
    facet normal (1,).  Pointedness is witnessed by the functional
    (1, 0, ..., 0), which is strictly positive on every generator; solidity
    follows from the polytope being full-dimensional.  Both are asserted.

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
    normals = tuple(sorted(primitive_vector((f.offset.numerator,) + tuple(
        -f.offset.denominator * a for a in f.normal)) for f in P.facets))
    if n == 1:  # the point has no facets, but the ray through (1) has facet normal (1,)
        normals = ((1,),)
    return LiftedCone(dim=n, base=P, generators=gens, facet_normals=normals)


def bordered_gram_basis(F: Face, gram: IntMatrix, walk: Iterable[int] | None = None,
                        start: tuple[tuple[int, ...], int, IntMatrix] = ((), 1, ())
                        ) -> tuple[tuple[int, ...], int, IntMatrix]:
    """The span basis of F with the determinant and adjugate of its Gram
    matrix, by bordered steps over the Gram table ``gram`` = T, each step
    checked so that the result carries the certificate
    G adj(G) = det G * I, det G > 0.

    It walks the ids of ``walk`` (F's vertices by default) in increasing
    order and keeps the chosen ids S with D = det G_S and adj G_S, from the
    state ``start`` = (S, D, adj G_S) (S empty and D = 1 by default).  A
    candidate u borders G_S with the column b = T[S][u] and the corner
    t = T[u][u]; with y = adj(G_S) b the Schur complement gives

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
    zero remainder).  Let (G_S, D, adj G_S) be certified, G_S adj G_S = D I
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

    From the default start this is the greedy independent subset of F's
    lifted vertices in index order, dim F + 1 of them (none for the empty
    face); the walk stops there, and finding fewer is an error.  Its D and
    adj G are those of a fraction-free Gauss-Jordan pass on the Gram
    matrix of the chosen ids (Bareiss 1968, by Sylvester's identity).

    The walk can resume from a lower cover E of F.  Let p = min(F - E), the
    lowest set bit of mask_F & ~mask_E on the vertex bitmasks, and let
    every span id of E lie below p.  F's vertices below p are E's vertices
    below p, since E is contained in F; so F's walk makes E's choices up to
    E's last span id, and skips the vertices of E from there to p, which
    lie in span(E).  p lies outside span(E), as E is a face of F and p is
    not a vertex of E, so p is kept, and then F has its dim F + 1 ids.
    F's state is therefore E's (ids, D, adj G) bordered once by p:
    ``walk`` = (p,) with E's state as ``start``, O(k^2) in place of
    O(|F| k^2).  The basis, and every orientation read off it, are those of
    the full walk.  A zero minor at p leaves F one id short, an error.
    """
    want = F.dim + 1
    ids, det, adj = start
    ids = list(ids)
    for u in F.vertex_set if walk is None else walk:
        if len(ids) == want:
            break
        t_u = gram[u]
        b = [t_u[s] for s in ids]
        y = [int_dot(row, b) for row in adj]
        minor = t_u[u] * det - int_dot(b, y)
        if minor > 0:
            for s, b_s in zip(ids, b):
                t_s = gram[s]
                if sum(t_s[v] * y_v for v, y_v in zip(ids, y)) != det * b_s:
                    raise _certificate_error(F, u, f"G_S y != D b at vertex {s} (D = {det})")
            bordered = []
            for row, y_i in zip(adj, y):
                new = []
                for a, y_j in zip(row, y):
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
    if len(ids) != want:
        raise InternalInvariantError(
            f"face {F}: span has {len(ids)} independent lifted vertices, expected {want}")
    return tuple(ids), det, tuple(map(tuple, adj))


def _certificate_error(F: Face, u: int, why: str) -> InternalInvariantError:
    return InternalInvariantError(
        f"Gram adjugate of the span of {F} fails the certificate "
        f"G adj(G) = det G * I, det G > 0: bordering by vertex {u}, {why}")


def gram_table(C: LiftedCone) -> IntMatrix:
    """T[i][j] = <v_i, v_j> for the integer lifted vertices v_i."""
    return tuple(tuple(int_dot(u, v) for v in C.generators) for u in C.generators)


def slack_table(C: LiftedCone) -> IntMatrix:
    """S[i][k] = <y_k, v_i> for the integer lifted vertex v_i and the facet
    normal y_k = ``C.facet_normals[k]``; nonnegative, zero where v_i lies on
    the facet."""
    return tuple(tuple(int_dot(y, g) for y in C.facet_normals) for g in C.generators)


def check_slack(slack: IntMatrix) -> None:
    """S >= 0 entrywise: every lifted vertex is on the inner side of every
    facet normal.  An edge ray w = c g - A_E x of a pair (E, F) has
    <w, y> = c S[g][y] >= 0 on E's dual face, so this puts every ray in its
    circledast cone at once; a negative entry is an error naming the vertex
    and the facet."""
    for i, row in enumerate(slack):
        if min(row, default=0) < 0:
            k = next(k for k, s in enumerate(row) if s < 0)
            raise InternalInvariantError(
                f"vertex {{{i}}} lies outside facet normal {k} of the cone (slack {row[k]}): "
                "the edge rays at it would leave their circledast cones")


def vertex_facet_masks(slack: IntMatrix) -> tuple[int, ...]:
    """For each lifted vertex, the bitmask of the facet normals vanishing on
    it (bit k for the normal y_k of ``slack_table``), read off the zeros of
    its row of the slack table."""
    return tuple(sum(1 << k for k, s in enumerate(row) if s == 0) for row in slack)


def check_dual_faces(lattice: FaceLattice, dual_masks: Sequence[int], n: int) -> None:
    """The dual face of every face F of ``lattice`` spans rank
    n - (dim F + 1), checked once per run on ``dual_masks``: for each face,
    the bitmask of the facet normals vanishing on it, the AND of its
    vertices' ``vertex_facet_masks``.  The top face must have dimension
    n - 1 and an empty mask, and every other face F must have an upper
    cover H, of dimension dim F + 1, whose mask F's strictly contains.

    Lower bound, by induction from the top, whose dual face has rank
    0 = n - (dim top + 1).  A normal y in dual(F) but not in dual(H) does
    not vanish on some vertex v of H: its slack there is nonzero.  Every
    normal of dual(H) vanishes on v, and so does their span; so y is not in
    span(dual H), and with dual(H) inside dual(F),
    rank dual(F) >= rank dual(H) + 1 >= n - (dim H + 1) + 1
    = n - (dim F + 1).

    Upper bound: every normal of dual(F) vanishes on F's lifted vertices,
    dim F + 1 of which are independent (the span basis that
    ``bordered_gram_basis`` finds for F's face data, with det G > 0), so
    the normals span at most n - (dim F + 1) dimensions.

    So a face's dual rank is right without an echelon of its normals.  A
    failure names the face and its upper cover.
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
    for f in range(top):
        mask, dim = dual_masks[f], faces[f].dim + 1
        for h in up[f]:
            smaller = dual_masks[h]
            if smaller != mask and not smaller & ~mask and faces[h].dim == dim:
                break
        else:
            F = faces[f]
            covers = [h for h in up[f] if faces[h].dim == dim]
            if not covers:
                raise InternalInvariantError(
                    f"dual face of {F}: {F} has no upper cover of dimension {dim}")
            raise InternalInvariantError(
                f"dual face of {F} does not strictly contain that of its upper cover "
                f"{faces[covers[0]]}, so its rank {n - dim} is not certified")


def face_cone_data(C: LiftedCone, F: Face, gram: IntMatrix, dual_mask: int,
                   cover: tuple[FaceConeData, int] | None = None) -> FaceConeData:
    """The per-face data of F, with its span basis, det G and adj G of its
    Gram matrix G = A_F^T A_F read off the Gram table ``gram``
    (``bordered_gram_basis``): the bordered pass resumed from ``cover`` =
    (E's face data, p) for a lower cover E of F whose span ids all lie below
    p = min(F - E), one bordering step by p, and the full walk over F's
    vertices without one.  Each bordering step checks what carries the
    certificate G adj(G) = det G * I, det G > 0 from its state to the next
    (the block identity is in ``bordered_gram_basis``), so no k x k product
    is formed here.  The certificate makes every ray off span(F),
    c g - A_F adj(G) A_F^T g, orthogonal to span(F), and with it the
    identities of the cross-check.  The span ids are also kept as the
    bitmask s_F, which ``ConeSystem.cover_orientations`` reads.

    The dual face is a face of the dual cone, hence generated by the facet
    normals of the cone that vanish on every lifted vertex of F, the set
    bits of ``dual_mask``, which is kept; its rank n - (dim F + 1) is
    certified once per run by ``check_dual_faces``.

    For the sum b_F of F's lifted vertices, <a, b_F> = sum over u in F of
    T[a][u] is taken for each span id a (A_F^T b_F, by row), then
    z_F = adj(G) A_F^T b_F, and |b_F|^2 = <A_F^T b_F, z_F> / det G: b_F lies
    in span(F), so G adj(G) = det G * I makes b_F = A_F z_F / det G, and
    the division is exact.  The cross-check reads z_F[r] for the pairs with
    m = 0 and the rest for the others.  No generator of the cone is read
    here."""
    if cover is None:
        span_ids, gram_det, gram_adj = bordered_gram_basis(F, gram)
    else:
        data_E, p = cover
        span_ids, gram_det, gram_adj = bordered_gram_basis(
            F, gram, (p,), (data_E.span_ids, data_E.gram_det, data_E.gram_adj))
    at_b = tuple([sum(map(gram[a].__getitem__, F.vertex_set)) for a in span_ids])
    z = tuple([int_dot(row, at_b) for row in gram_adj])
    return FaceConeData(span_ids=span_ids, span_mask=sum(1 << a for a in span_ids),
                        span_row={a: r for r, a in enumerate(span_ids)},
                        span_sum_dot=at_b, sum_coords=z, sum_sq=int_dot(at_b, z) // gram_det,
                        gram_det=gram_det, gram_adj=gram_adj, dual_mask=dual_mask, cone=C)


def adjugate_column(span_F: int, span_E: int) -> int | None:
    """The column r of F's certified adjugate that is the edge ray of a
    covering pair (E, F) with m = 0, from the span bitmasks s_F and s_E, or
    None for m > 0.  The pair has m = 0 when s_E & ~s_F = 0: E's span ids
    are then F's minus the one id g of s_F & ~s_E (|s_E| = |s_F| - 1), in
    the same increasing order, and r = popcount(s_F & (g - 1)) is g's row
    in F's basis.  None too when s_F & ~s_E is not a single bit, which no
    covering pair gives."""
    g = span_F & ~span_E
    if span_E & ~span_F or g & (g - 1) or not g:
        return None
    return (span_F & (g - 1)).bit_count()


NOT_A_POSITIVE_MULTIPLE = "barycenter projection is not a positive multiple"


def adjugate_pair_fault(data_E: FaceConeData, data_F: FaceConeData, r: int) -> str | None:
    """Why the cross-check rejects a covering pair (E, F) with m = 0 whose
    ray is column r of F's adjugate (``adjugate_column``), or None: it
    accepts iff z_F[r] > 0 and adj(G_F)[r][r] = det G_E > 0.  The first is
    the barycenter test (see ``edge_ray_crosscheck``); the second is the
    principal-minor identity, the cofactor at (r, r) of G_F being the Gram
    determinant of F's span ids minus row r's, which are E's, so it also
    checks E's face data against F's."""
    if data_F.sum_coords[r] <= 0:
        return NOT_A_POSITIVE_MULTIPLE
    cofactor, det = data_F.gram_adj[r][r], data_E.gram_det
    if cofactor != det or det <= 0:
        return f"cofactor adj(G_F)[{r}][{r}] = {cofactor} is not det G_E = {det} > 0"
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

    When m = 0, that is, E's span ids are F's minus g in the same order
    (g at row r of F's basis), the ray is a column of F's certified
    adjugate, read off with no solve (``adjugate_column``):

        w = A_F adj(G_F) e_r,   so   c = adj(G_F)[r][r] = det G,
        x_a = -adj(G_F)[a][r] for the other rows a,   sigma = (-1)^r.

    For v = A_F adj(G_F) e_r gives A_F^T v = G_F adj(G_F) e_r = det G_F e_r:
    v is orthogonal to span(E) and lies in span(F), so it spans the same
    line as w, and its coefficient on g, the cofactor adj(G_F)[r][r], is
    the principal minor det G_E, w's own.  The coordinates in the
    independent basis A_F are unique, so v = w.  The certified adjugate is
    det G_F G_F^{-1}, hence symmetric, and column r is row r.  So the ray
    is O(k) copies and no arithmetic.  Otherwise the ray takes one check per
    pair, on k numbers (k = dim F, the size of E's basis), besides the sign
    minor's below:

      * orientation: <w, g> = c T[g][g] - <x, A^T g> = c * side, with
        side = c |g - P_E g|^2, positive unless g lies in span(E), and then
        w = 0; since |w|^2 = c * side too, side > 0 also shows w != 0.
        For m = 0 the same number is (G_F adj(G_F))[r][r] = det G_F, which
        F's certificate has already found positive.

    The other checks hold by certificates made once: w is orthogonal to
    span(E) because G adj(G) = det G * I (carried by the checked bordering
    steps of ``bordered_gram_basis``), so <w, a_j> = c T[g][a_j] - (G x)_j
    = 0; and w lies
    in the circledast cone of E because <w, y> = c S[g][y] for y in E's
    dual face, where every vertex of E vanishes, and S >= 0
    (``check_slack``, once per run).
    Membership of the ray in span(F) is an identity, not a check: w is an
    integer combination of g and the columns of A_E, all lifted vertices of
    F.  The barycenter cross-check (``edge_ray_crosscheck``) would reject
    a ray outside span(F) anyway: its vector lies in span(F), so such a ray
    could not be a positive multiple of it.

    The orientation is sign det([e | A_E]^T A_F), the incidence-sign
    determinant with e in the role of the unit edge vector, which is
    sign det([g | A_E]^T A_F):

        [w | A_E] = [g | A_E] U,   U = [[det G, 0], [-x, I]],   det U = det G > 0,

    and w is a positive multiple of e.  Let C be the coordinates of
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
    for g in f_ids:
        if not e_mask >> g & 1:
            break
    else:
        raise InternalInvariantError(
            f"edge ray of ({E}, {F}): every span id of {F} lies in {E}")
    r = adjugate_column(data_F.span_mask, data_E.span_mask)
    if r is not None and f_ids[r] == g:
        col = data_F.gram_adj[r]
        return EdgeRay((E, F), g, col[r], tuple(map(neg, col[:r] + col[r + 1:])), a_ids,
                       -1 if r & 1 else 1, C.generators)
    span_row = data_F.span_row
    t_g = gram[g]
    at_g = [t_g[a] for a in a_ids]
    det_e = data_E.gram_det
    x = tuple([int_dot(row, at_g) for row in data_E.gram_adj])
    side = det_e * t_g[g] - int_dot(x, at_g)
    if side <= 0:
        raise InternalInvariantError(
            f"edge ray of ({E}, {F}) is orthogonal to lifted vertex {g}: it has no orientation"
            if side == 0 else f"edge ray of ({E}, {F}) points away from lifted vertex {g}")
    rows = [span_row[g]] + [span_row.get(a) for a in a_ids]  # None: a is not in F's basis
    if None not in rows:
        sign = permutation_sign(rows)
    else:
        outside = [a for a, r in zip(a_ids, rows[1:]) if r is None]
        free = sorted(set(range(len(f_ids))).difference(rows))
        fill = iter(free)
        rows = [next(fill) if r is None else r for r in rows]
        columns = [[gram[a][b] for b in f_ids] for a in outside]  # A_F^T a
        det = bareiss_det([[int_dot(data_F.gram_adj[r], col) for col in columns] for r in free])
        if det == 0:
            raise InternalInvariantError(f"incidence sign of ({E}, {F}) is zero")
        sign = permutation_sign(rows) * (1 if det > 0 else -1)
    return EdgeRay((E, F), g, det_e, x, a_ids, sign, C.generators)


def edge_ray_crosscheck(ray: EdgeRay, data_E: FaceConeData, data_F: FaceConeData,
                        gram: IntMatrix) -> None:
    """Check the edge ray of (E, F) against an independent construction:
    the barycenter vector w' = D b_F - A_E x' must be a strictly positive
    multiple of the ray's w = c g - A_E x, or an error names the pair.

    Here A = A_E, D = det G_E > 0, b_F is the sum of the m integer lifted
    vertices of F (so b_F = L * m * barycenter) and x' = adj(G_E) A^T b_F:
    by Cramer, x'_i = det(G_i) for the Gram matrix G_i whose column i is
    A^T b_F, so A x' / D is the projection of b_F onto span(E), and w' is
    L * m * D times the barycenter's component orthogonal to span(E).

    For a ray whose E's span ids are F's minus its g, in the same order (m
    = 0, g at row r of F's basis), the test is O(k) and takes no product.
    F's adjugate column v = A_F adj(G_F) e_r spans the line span(F) meet
    span(E)^perp, and so does w', with <w', v> = D <b_F, v> = D z_F[r]
    (A_E^T v = 0), z_F = adj(G_F) A_F^T b_F from F's face data.  So w' is a
    positive multiple of v exactly when z_F[r] > 0, and w is one exactly
    when (c, x) is a positive multiple of v's coefficients
    (adj(G_F)[r][r], -adj(G_F)[a][r] for the other rows a), A_F being
    independent; adj(G_F)[r][r] = det G_E > 0.  The check accepts iff
    c > 0, (c, x) is such a multiple (equal, for the ray ``edge_ray``
    makes) and z_F[r] > 0: the n-vector verdict, for the ray it is handed.
    It also checks the principal-minor identity adj(G_F)[r][r] = det G_E
    (``adjugate_pair_fault``), which holds E's data against F's; so its
    verdict on the ray ``edge_ray`` makes is that of
    ``ConeSystem.cover_orientations``, which makes no ray for the pair.

    Every other ray takes the Cauchy-Schwarz test, and nothing there is an
    n-vector.  <a, b_F> is read off F's face data for a span id a of F and
    summed off the Gram table, sum over u in F of T[a][u], for another
    vertex; |b_F|^2 is F's, A^T g and G_E are read off the Gram table.
    G_E adj(G_E) = D * I (certified by E's bordering steps) gives
    A^T w' = D A^T b_F - G_E x' = 0, hence

        |w'|^2  = D (D |b_F|^2 - x'^T A^T b_F),
        <w, w'> = c <g, w'> - x^T A^T w' = c (D <g, b_F> - x'^T A^T g),
        |w|^2   = c^2 T[g][g] - 2 c x^T A^T g + x^T G_E x,

    the last for any coefficients the ray carries (it is c * side when
    x = adj(G_E) A^T g and c = D).  Then w' = lambda w with lambda > 0
    exactly when <w, w'> > 0 and <w, w'>^2 = |w|^2 |w'|^2: equality in
    Cauchy-Schwarz, exact on integers.  It is the test the n-vector
    comparison primitive(w') = primitive(w) made, on k numbers.

    The ray's g must be a vertex of F and its x must go with E's span ids;
    a g outside F (a ray outside span(F)) fails the check.  So does w' = 0,
    with <w, w'> = 0.
    """
    g, c, x = ray.g, ray.c, ray.x
    a_ids = data_E.span_ids
    E, F = ray.pair
    span_row = data_F.span_row
    if g not in span_row and g not in F.vertex_set or ray.e_ids != a_ids:
        raise InternalInvariantError(
            f"edge-ray cross-check failed for ({E}, {F}): the ray is not a combination "
            f"of a vertex of {F} and the span basis of {E}")
    r = adjugate_column(data_F.span_mask, data_E.span_mask)
    if r is not None and data_F.span_ids[r] == g:
        col = data_F.gram_adj[r]
        d, rest = col[r], tuple(map(neg, col[:r] + col[r + 1:]))
        fault = adjugate_pair_fault(data_E, data_F, r)
        accepted = fault is None and c > 0 and (
            (c, x) == (d, rest)
            or len(x) == len(rest) and all(d * xi == c * v for xi, v in zip(x, rest)))
    else:
        fault = None
        det = data_E.gram_det
        adj = data_E.gram_adj
        t_g = gram[g]
        at_g = [t_g[a] for a in a_ids]
        sums = data_F.span_sum_dot

        def b_dot(v: int) -> int:  # <v, b_F> for a vertex v of F
            i = span_row.get(v)
            return sum(map(gram[v].__getitem__, F.vertex_set)) if i is None else sums[i]

        at_b = [b_dot(a) for a in a_ids]
        x_b = [int_dot(row, at_b) for row in adj]
        b_sq = det * (det * data_F.sum_sq - int_dot(x_b, at_b))
        inner = c * (det * b_dot(g) - int_dot(x_b, at_g))
        w_sq = c * (c * t_g[g] - 2 * int_dot(x, at_g)) + int_dot(
            x, [sum(gram[a][b] * x_b for b, x_b in zip(a_ids, x)) for a in a_ids])
        accepted = inner > 0 and inner * inner == w_sq * b_sq
    if not accepted:
        raise InternalInvariantError(f"edge-ray cross-check failed for ({E}, {F}): "
                                     f"{fault or NOT_A_POSITIVE_MULTIPLE}")


class ConeSystem:
    """Per-face cone data (``FaceConeData``) for every face of ``lattice``,
    in a list indexed by its face ids, read by the edge rays and the
    cross-checks.  The Gram and slack tables of the lifted vertices
    (``gram``, ``slack``) and each face's dual-face bitmask (the AND of its
    vertices' ``vertex_facet_masks``) are built first; S >= 0 and the dual
    ranks (``check_dual_faces``) are checked then.  Every face's data is
    then built once, in face-id order.  A face's data grows from the data
    of a lower cover E when E's span ids all lie below p = min(F - E) (see
    ``bordered_gram_basis``): the first such cover in ``down`` order whose
    vertex set F's strictly holds.  Lower covers have lower ids, so E's
    data is already built (a cover with a higher id, which only a
    hand-built lattice can list, is not resumed from).  A face with no such
    cover takes the full walk.  Edge rays are not kept: ``build_complex``
    asks for the orientations of each face's lower covers once
    (``cover_orientations``), which makes and cross-checks a ray only for
    a pair with m > 0.

    Safe to share within a run: nothing is modified after ``__init__``.
    """

    def __init__(self, cone: LiftedCone, lattice: FaceLattice):
        self.cone = cone
        self.lattice = lattice
        self.gram = gram_table(cone)
        self.slack = slack_table(cone)
        check_slack(self.slack)
        vertex_masks = vertex_facet_masks(self.slack)
        every = (1 << len(cone.facet_normals)) - 1
        dual_masks = tuple(reduce(and_, (vertex_masks[i] for i in f.vertex_set), every)
                           for f in lattice.faces_by_id)
        check_dual_faces(lattice, dual_masks, cone.dim)
        self._face_data: list[FaceConeData] = []
        for f, F in enumerate(lattice.faces_by_id):
            self._face_data.append(face_cone_data(cone, F, self.gram, dual_masks[f], self._cover(f)))

    def face_data(self, f: int) -> FaceConeData:
        return self._face_data[f]

    def _cover(self, f: int) -> tuple[FaceConeData, int] | None:
        """(E's face data, p) for the first lower cover E of face f, already
        built, that the bordered pass of f can resume from, or None."""
        masks = self.lattice.vertex_masks
        mask = masks[f]
        for e in self.lattice.down[f]:
            rest = mask & ~masks[e]
            if e < f and rest and not masks[e] & ~mask:
                p = (rest & -rest).bit_length() - 1
                data = self._face_data[e]
                if not data.span_ids or data.span_ids[-1] < p:
                    return data, p
        return None

    def cover_orientations(self, f: int) -> list[int]:
        """The orientation sigma of every covering pair (E, F) of face f, one
        per lower cover e in ``down[f]`` order, each checked as
        ``edge_ray`` + ``edge_ray_crosscheck`` check it.

        A pair with m = 0 (``adjugate_column``: s_E & ~s_F = 0 on the span
        bitmasks, its ray column r of F's certified adjugate) is read off
        F's data in O(1): sigma = (-1)^r, and the verdict that z_F[r] > 0
        and adj(G_F)[r][r] = det G_E > 0 (``adjugate_pair_fault``), with no
        ray made.  That is the verdict the per-pair functions give it, whose
        comparison of (c, x) with column r is an identity on a ray read off
        that column.  Only the pairs with m > 0 take ``ray`` and
        ``crosscheck``.  A rejected pair is an error naming it."""
        faces = self._face_data
        data_F = faces[f]
        span_F = data_F.span_mask
        signs = []
        for e in self.lattice.down[f]:
            data_E = faces[e]
            r = adjugate_column(span_F, data_E.span_mask)
            if r is None:
                ray = self.ray(e, f)
                self.crosscheck(e, f, ray)
                signs.append(ray.orientation)
                continue
            fault = adjugate_pair_fault(data_E, data_F, r)
            if fault is not None:
                E, F = self.lattice.faces_by_id[e], self.lattice.faces_by_id[f]
                raise InternalInvariantError(f"edge-ray cross-check failed for ({E}, {F}): {fault}")
            signs.append(-1 if r & 1 else 1)
        return signs

    def ray(self, e: int, f: int) -> EdgeRay:
        L = self.lattice
        return edge_ray(self.cone, L.faces_by_id[e], L.faces_by_id[f], data_E=self.face_data(e),
                        data_F=self.face_data(f), gram=self.gram, e_mask=L.vertex_masks[e])

    def crosscheck(self, e: int, f: int, ray: EdgeRay) -> None:
        """``edge_ray_crosscheck`` of the ray of the pair of face ids (e, f)."""
        return edge_ray_crosscheck(ray, data_E=self.face_data(e), data_F=self.face_data(f),
                                   gram=self.gram)
