"""Independent oracles for the test suite.

Everything here deliberately avoids the library's computational paths:
determinants by Leibniz expansion over permutations, rank by maximal nonzero
minors, linear solves and kernels by a separate Gauss-Jordan elimination,
convex-hull membership by Caratheodory enumeration, face enumeration by
maximizing integer directions, and the classical simplicial boundary formula
with alternating signs.

The circledast oracle is the paper's own construction of the cones whose
extreme rays are the edge vectors: the dual of a face's dual face, taken
inside the dual face's span.  It enumerates extreme rays by brute force with
``polyk.cones.dual_cone``, which no report computation calls.

The kernel edge-ray oracle is the construction the library used before it
projected a vertex off span(E) on the vertex Gram table: the ray of a
covering pair (E, F) is A_F kappa for the signed cofactor vector kappa of
A_E^T A_F (``cofactor_kernel_vector``, from k Bareiss minors and (k-1) k
dot products of n-vectors), signed positive on the first lifted vertex g
of F outside E, and its orientation is the sign sigma = sign <A_F kappa, g>
of that fix; it returns the primitive direction with sigma.  By Laplace expansion along the first row,
det([e | A_E]^T A_F) = <e, A_F kappa>, so sigma is the incidence sign of
the unflipped bases.  The projection oracle takes the component of a
lifted vertex orthogonal to span(E) by a rational Gram solve.

The orientation oracle is the determinant the edge ray took before it
read its sign off F's basis coordinates: sign det([g | A_E]^T A_F), one
k x k ``bareiss_det`` of Gram-table entries, for any lifted vertex g of F
outside E (``table_orientation``), with that vertex's projection off
span(E), det G_E g - A_E adj(G_E) A_E^T g, on integers
(``vertex_projection``).

The facet oracle is the brute force the library used before it switched to
the double description method: every affinely independent d-subset of the
points spans a candidate hyperplane, kept when all points lie on one side.
It takes its normals from ``polyk.linalg.cofactor_kernel_vector``.  The
scan oracle ``scan_hull_facets`` is the double description as the library
ran it before it moved to an adjugate starting cone and an inverted
zero-set index: its starting rays are the cofactor kernel vectors of d of
the d + 1 basis points, signed positive on the last one
(``cofactor_starting_cone``), and a candidate pair is tested for adjacency
by scanning every current ray for a third zero set that contains the
common one.  ``hull_by_rank`` is ``polyk.corpus.random_hull`` as it was
before it left the rank to the hull: it draws the same points, and redraws
while ``affine_dim`` of a draw is short.

The incidence-sign oracles are the formulas the library used before it read
the sign off the edge ray's orientation, with A_E and A_F the span bases of
the face data as the trivialization flips them: the sign of det C for the
coordinate matrix C with [e | A_E] C = A_F, by ``coords_in_basis`` and
``det_sign`` on rationals, and the Gram form sign det([e | A_E]^T A_F), by
``bareiss_det`` on integers.  The cross-check oracle is the rational formula
the library used before it moved to integers: the component of the
barycenter of the rational lifted vertices (1, v) orthogonal to span(E), by
a rational Gram solve over E's own greedy basis.  The barycenter
projection oracle is the integer n-vector the library's cross-check built
before it decided on Gram numbers: w' = det G_E b_F - A_E adj(G_E) A_E^T b_F,
that component times the positive integer L * |F| * det G
(``barycenter_projection``); either is accepted when it is a positive
multiple of the ray (``positive_multiple_ratio``), and
``crosscheck_verdict`` is the n-vector verdict primitive(w') = primitive(w)
for any ray coefficients.  No report computation calls
``coords_in_basis`` or ``det_sign``.  The other oracles read the cone's
integer generators L * (1, v) wherever the answer does not change under
positive scaling.

The Gram-solve ray oracle is the construction the edge ray used on every
covering pair before it read the pairs with m = 0 (E's span ids are F's
minus g) off one column of adj(G_F): the k x k solve x = adj(G_E) A_E^T g,
c = det G_E, with side = c T[g][g] - x^T A_E^T g, and the orientation as
the sign of one Bareiss determinant (``solved_edge_ray``).  The
Cauchy-Schwarz oracle is the cross-check's verdict on every pair before
the m = 0 pairs were decided by the sign of z_F[r]: equality in
Cauchy-Schwarz between the ray's w and the barycenter vector w', on Gram
numbers, with <v, b_F> and |b_F|^2 summed off the Gram table
(``cauchy_schwarz_verdict``).  ``vertex_sum`` is b_F as an n-vector.  The
vertex-sum oracle is the per-face pass the library's face data made before
the m = 0 barycenter test became a comparison of dual masks: A_F^T b_F,
z_F = adj(G_F) A_F^T b_F and |b_F|^2 on Gram numbers
(``vertex_sum_numbers``).

The span-basis oracles are the two passes the library made per face before
one bordered pass over the Gram table replaced them: ``span_basis_of_face``
picks the greedy independent lifted vertices of F in index order with a
fraction-free echelon of n-vectors (``first_independent``), whose kept rows
span exactly span(F), and ``gram_adjugate`` takes det G and adj G of their
Gram matrix by fraction-free Gauss-Jordan on [G | I].
``gram_certificate_holds`` is the certificate G adj(G) = det G * I the
library checked on every face's result, k^2 dot products of length k,
before each bordering step checked G_S y = D b and exact divisions, which
carry the certificate from step to step; ``span_gram`` is G read off the
Gram table, the matrix the face data held then.

The face-data views rebuild what the library's per-face data does not
hold, since no report reads it: ``span_basis`` is A_F, the cone's
generators at the face's span ids; ``dual_face_ids`` and
``dual_face_gens`` are the facet normals of the dual face, read off the
zeros of the slack table; ``rational_lifted_vertex`` is (1, v) in
rationals, the integer lifted vertex L (1, v) over its first coordinate;
and ``span_row`` is a span id's row, its position in ``span_ids``.

The route oracles classify a covering pair by its masks as the cone
batch's docstring defines its three routes, without running the batch:
``dual_simple`` counts a face's dual mask against n - dim F - 1, and
``pair_route`` names the route.  ``pyramid_prism`` is a small polytope
whose pairs take all three, and so do the prisms over cross-polytopes
(``prism_over_cross``).

The per-face-path oracle is the face data the cone stage built before
simplex faces went without it: ``per_face_data`` builds the data of every
face, simplex faces included, in id order, each face resumed from the
first lower cover it can resume from, a simplex or not, or walked in full.
``PerFaceSystem`` is a cone system whose per-pair API (``face_data``,
``ray`` and ``crosscheck``) reads that data, so a test can run the API on
every covering pair without a full bordered walk at each read of a simplex
face.

The dual-base oracle is the second source of signs for the pairs with
m > 0 that the cone stage had before the diamond fill replaced it
(``polyk.cones.ConeSystem``): the dual base sign tau_F, the sign of
[A_F | Y_F] of a dual-simple face F, whose dual mask has exactly
n - dim F - 1 bits.  ``dual_sign`` gives a pair of dual-simple faces its
sigma from tau_E tau_F and one bit of their dual masks.  ``TauSystem`` is
a cone system with ``taus`` fixed from the top face down as the library
fixed them (``_signs_from_top``): spread over the pairs with m = 0, and at
a face the spread does not reach, a bridge, taken over its first upper
cover from that pair's general-route sign (``_bridge``) and checked by one
Gram determinant (``_check_bridge``).  Its ``cover_orientations`` orients
a face's lower covers by the three routes the batch took: m = 0 off F's
adjugate, each such pair between dual-simple faces checked against tau;
the dual route; and the general route's sign on every other pair.
``dual_base_sign`` is the determinant the batch took for tau_F before it
fixed every tau from the top: one n x n Bareiss determinant on the Gram
and slack tables against the top face's basis.

The dual-rank oracle is the count the library made per face before it
certified dual ranks once per run by the growth of the dual-face masks
along the lattice: ``echelon_dual_rank`` runs a fraction-free echelon on
the facet normals of F's dual face, stopped at n - (dim F + 1).

The Cramer oracle is the integer solve the cross-check used before it read
the Gram adjugate off the face data: one determinant per unknown, of the
Gram matrix with that column replaced by the right-hand side.  It shares
``polyk.linalg.bareiss_det`` with the library's edge-ray orientation.

The homology oracle is the dense computation the library used before it
moved to sparse columns and unit pivots: D_{j-1} D_j = 0 by dense products
and one full ``smith_normal_form`` per boundary matrix.  The unit-pivot
oracle is the elimination the library ran before it read its ranks off an
acyclic matching: ``unit_pivot_elimination`` pivots on +-1 entries by
unimodular column operations, so r pivots give M ~ diag(I_r, N), and
``check_unit_pivots`` certifies that by replaying the recorded operations.
``sparse_columns`` and ``complex_from_dense`` turn the dense literals the
tests write into the sparse columns a ``ChainComplex`` holds, and
``dense_matrices`` turns a complex back into dense matrices.

The face lattice oracle is the construction the library used before it
switched to vertex-facet incidences: the intersection closure of the facet
vertex sets, one rational affine dimension per face, and covering pairs by
subset tests between consecutive dimensions, with ``affine_dim``, which
the library no longer has: validation takes the rank from the hull, and
the library's lattice takes no rank.
The vertex-side oracle ``vertex_closure_face_lattice`` is the Kaibel-Pfetsch
closure from the bottom up, with the vertices as atoms, as the library ran
it before it walked the lattice from the top down: one step on every face,
one per vertex outside a face and per vertex for each new closure, each
face numbered by hashing its vertex mask.  ``lattice_from_pairs`` builds a
``FaceLattice`` from faces and covering pairs of faces, by hashing each
face to its id, for lattices written by hand; ``cover_masks`` gives the id
masks of every element's upper and lower covers.  A lattice checks its
axioms when it is built; ``UncheckedFaceLattice`` and
``UncheckedAbstractLattice`` are numbered the same way with no check, so
that a poset the library refuses to build can still feed the oracles, and
``built`` builds the library's lattice from such a one's fields.
``GradedPoset`` checks only the bounded and graded axioms, so that the
search oracles can be run on posets that are not lattices; the library's
search is given only lattices that are built, whose atom masks are
distinct.

The numbering oracles are the passes an abstract lattice made before
``GradedIds._number`` made the atom masks in its loop over ``down`` and
``AbstractLattice`` computed each id from (rank, index):
``DictNumberedLattice`` numbers its covers by an element -> id dict,
refusing an element the dict does not hold, and checks the axioms on
``pass_atom_masks``, the separate pass in id order over ``down``, made
after the graded axiom holds, as ``_atom_masks`` made it.
``three_scan_lattice_from_incidence`` is ``lattice_from_incidence`` as it
read each row with the list methods ``count`` (of 1s, then of 0s) and
``index`` (once per 1), naming the first entry not in (0, 1), which a
float 1.0 is in.

The lattice-check and isomorphism oracles are the all-pairs forms the
library used before it enumerated only the pairs a cover can reach:
``all_pairs_verify_lattice`` and ``all_pairs_abstract_lattice`` check what
each kind of lattice checks as it is built, after
``all_pairs_order_axioms`` has tested every cover, and a face lattice each
cover a containment and each face the union of the vertices in its
down-set: ``all_pairs_diamonds``
counts the mids of every two elements two ranks apart whose masks nest
(the popcount of the AND of two ``cover_masks``), on vertex sets or on the
atoms of each down-set, and ``all_pairs_meets``, which both run last,
tests the meet of every pair of elements.
``all_pairs_verify_abstract_lattice`` is the rule an abstract lattice
followed before, every pair a path of two covers joins, kept as the
witness that both rules accept the same posets.
``rank_scan_is_isomorphic`` scans a source element's whole target rank for
candidates.  ``up_scan_is_isomorphic`` is
the search the library ran before it keyed candidates on atom masks: the
candidates are the upper covers of the image of an element's first lower
cover, no atom is pruned, and a final pass checks every ``up`` list.
They raise the library's messages and return its results, so the tests
compare the two directly.

The dense rational helpers are what the library's ``QMatrix`` offered
before it kept only its fields, its shape check and ``hstack``, the
argument type of the rational oracles ``rank``, ``det_sign`` and
``coords_in_basis``: ``q_from_rows``, ``q_from_columns``, ``q_identity``,
``q_zeros``, ``q_column``, ``q_transpose``, ``q_matmul``, ``q_mat_vec``
and the rational ``dot``, each raising the message the library raised.
``echelon_contains`` is span membership on an ``IntEchelon``, a zero
remainder, and ``lower_covers`` reads a face's lower covers off ``down``;
no report asks either.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import accumulate, combinations, permutations
from math import lcm
from operator import itemgetter, or_
from typing import Sequence

from polyk.cellular import AbelianGroup, ChainComplex, HomologyResult
from polyk.comb_type import AbstractLattice, LatticeIso, UnsignedIncidence
from polyk.cones import (
    ConeSystem,
    EdgeRay,
    FaceConeData,
    LiftedCone,
    adjugate_column,
    adjugate_pair_fault,
    dual_cone,
    face_cone_data,
)
from polyk.errors import InternalInvariantError
from polyk.linalg import (
    IntEchelon,
    IntMatrix,
    QMatrix,
    bareiss_det,
    clear_denominators,
    cofactor_kernel_vector,
    coords_in_basis,
    det_sign,
    first_independent,
    int_dot,
    int_mat_mul,
    primitive_vector,
    qvec,
    smith_normal_form,
)
from polyk.polytope import (
    Face,
    Facet,
    FaceLattice,
    Polytope,
    convex_hull,
    set_bits,
    validate,
)
from polyk.sparse import SparseColumn


def affine_dim(points: Sequence[Sequence]) -> int:
    """Dimension of the affine hull; -1 for no points.  The differences to
    the first point are scaled to integers, which keeps their rank."""
    if not points:
        return -1
    base = qvec(points[0])
    return IntEchelon(clear_denominators([a - b for a, b in zip(qvec(p), base)])
                      for p in points[1:]).rank


def leibniz_det(rows) -> Fraction:
    """Determinant as the signed sum over all permutations; a term stops at
    its first zero factor, and only a nonzero term has its sign counted."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("square matrix required")
    total = Fraction(0)
    for perm in permutations(range(n)):
        term = Fraction(1)
        for i in range(n):
            term *= Fraction(rows[i][perm[i]])
            if not term:  # a zero factor: the term adds nothing
                break
        else:
            for i in range(n):  # count inversions for the permutation sign
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        term = -term
            total += term
    return total


def oracle_rank(rows, n_cols: int) -> int:
    """Largest k with a nonzero k x k minor."""
    n_rows = len(rows)
    for k in range(min(n_rows, n_cols), 0, -1):
        for rsel in combinations(range(n_rows), k):
            for csel in combinations(range(n_cols), k):
                minor = [[rows[r][c] for c in csel] for r in rsel]
                if leibniz_det(minor) != 0:
                    return k
    return 0


def dot(u, v) -> Fraction:
    """<u, v> in rationals, for two vectors of the same length."""
    if len(u) != len(v):
        raise InternalInvariantError(f"dot of length {len(u)} with {len(v)}")
    return sum((Fraction(a) * b for a, b in zip(u, v)), start=Fraction(0))


def q_from_rows(rows, cols: int | None = None) -> QMatrix:
    """The ``QMatrix`` with these rows; ``cols`` is needed only without
    rows."""
    data = tuple(qvec(r) for r in rows)
    if cols is None:
        cols = len(data[0]) if data else 0
    return QMatrix(len(data), cols, data)


def q_from_columns(columns, rows: int | None = None) -> QMatrix:
    """The ``QMatrix`` with these columns; ``rows`` is needed only without
    columns."""
    cols = [qvec(c) for c in columns]
    if rows is None:
        if not cols:
            raise InternalInvariantError("from_columns([]) needs an explicit row count")
        rows = len(cols[0])
    return QMatrix(rows, len(cols), tuple(tuple(c[i] for c in cols) for i in range(rows)))


def q_identity(n: int) -> QMatrix:
    return q_from_rows([[int(i == j) for j in range(n)] for i in range(n)], cols=n)


def q_zeros(rows: int, cols: int) -> QMatrix:
    return q_from_rows([[0] * cols for _ in range(rows)], cols=cols)


def q_column(M: QMatrix, j: int) -> tuple[Fraction, ...]:
    return tuple(r[j] for r in M.entries)


def q_transpose(M: QMatrix) -> QMatrix:
    return QMatrix(M.cols, M.rows, tuple(q_column(M, j) for j in range(M.cols)))


def q_matmul(A: QMatrix, B: QMatrix) -> QMatrix:
    """The product A B."""
    if A.cols != B.rows:
        raise InternalInvariantError("matmul shape mismatch")
    columns = [q_column(B, j) for j in range(B.cols)]
    return QMatrix(A.rows, B.cols, tuple(tuple(dot(r, c) for c in columns) for r in A.entries))


def q_mat_vec(M: QMatrix, v) -> tuple[Fraction, ...]:
    """The product M v."""
    if len(v) != M.cols:
        raise InternalInvariantError("mat_vec shape mismatch")
    return tuple(dot(r, v) for r in M.entries)


def echelon_contains(echelon: IntEchelon, v) -> bool:
    """Is v in the span of the echelon's kept rows: is its remainder zero?"""
    return not any(echelon.remainder(v))


def lower_covers(L: FaceLattice, f: Face) -> tuple[Face, ...]:
    """The lower covers of the face f of L, in ``down`` order."""
    return tuple(L.faces_by_id[e] for e in L.down[L.face_id[f]])


def _rref(M: QMatrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by Gauss-Jordan; (rows, pivot columns)."""
    a = [list(r) for r in M.entries]
    pivots: list[int] = []
    for col in range(M.cols):
        pr = len(pivots)
        pivot_row = next((i for i in range(pr, M.rows) if a[i][col] != 0), None)
        if pivot_row is None:
            continue
        a[pr], a[pivot_row] = a[pivot_row], a[pr]
        pivot = a[pr][col]
        a[pr] = [x / pivot for x in a[pr]]
        for i in range(M.rows):
            if i != pr and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[pr])]
        pivots.append(col)
    return a, pivots


def solve_in_span(B: QMatrix, target) -> tuple[Fraction, ...] | None:
    """A vector x with B @ x = target, or None when the target is outside
    the column span.  B need not have independent columns; free coordinates
    are set to zero."""
    t = qvec(target)
    a, pivots = _rref(B.hstack(q_from_columns([t])))
    if B.cols in pivots:
        return None
    x = [Fraction(0)] * B.cols
    for row_idx, p in enumerate(pivots):
        x[p] = a[row_idx][B.cols]
    return tuple(x)


def kernel_basis(M: QMatrix) -> QMatrix:
    """Columns form a basis of the right null space over the rationals."""
    a, pivots = _rref(M)
    cols = []
    for free in (j for j in range(M.cols) if j not in pivots):
        v = [Fraction(0)] * M.cols
        v[free] = Fraction(1)
        for row_idx, p in enumerate(pivots):
            v[p] = -a[row_idx][free]
        cols.append(v)
    if not cols:
        return QMatrix(M.cols, 0, tuple(() for _ in range(M.cols)))
    return q_from_columns(cols, rows=M.cols)


def _greedy_independent(vectors, n: int) -> QMatrix:
    """Columns: the vectors that raise the rank, in the given order."""
    cols: list = []
    for v in vectors:
        candidate = q_from_columns(cols + [qvec(v)], rows=n)
        if len(_rref(candidate)[1]) > len(cols):
            cols.append(qvec(v))
    if not cols:
        return QMatrix(n, 0, tuple(() for _ in range(n)))
    return q_from_columns(cols, rows=n)


def dual_cone_in_span(basis, gens) -> tuple[tuple[int, ...], ...]:
    """Dual of cone(gens) computed inside the span of the independent
    integer vectors ``basis``.

    The generators must span the subspace.  Working in coordinates: a point
    B @ xi of the span pairs with y as <B @ xi, y> = <xi, B^T y>, so the dual
    inside the span is the ordinary dual of the cone over the vectors B^T y.
    Results are mapped back to ambient primitive integer vectors, all on
    integers.
    """
    if not basis:
        return ()
    projected = [[int_dot(b, y) for b in basis] for y in gens]
    rays = dual_cone(projected, ambient_dim=len(basis))
    return tuple(sorted(primitive_vector([int_dot(xi, column) for column in zip(*basis)])
                        for xi in rays))


def circledast_gens(C: LiftedCone, F: Face) -> tuple[tuple[int, ...], ...]:
    """Extreme rays of the circledast cone of F: the dual of F's dual face,
    taken inside the dual face's span.  For a covering pair E < F exactly one
    of those of E is orthogonal to the dual face of F: the edge ray.  The
    dual face's generators are the facet normals zero on F's lifted
    vertices, by integer products, and the span's basis the greedy
    independent ones among them, in order."""
    dual_gens = [y for y in C.facet_normals
                 if all(int_dot(y, C.generators[i]) == 0 for i in F.vertex_set)]
    basis, _ = first_independent(dual_gens, C.dim)
    return dual_cone_in_span([dual_gens[i] for i in basis], dual_gens)


def span_basis(C: LiftedCone, data: FaceConeData) -> tuple[tuple[int, ...], ...]:
    """The columns of A_F for a face's data: the cone's integer lifted
    vertices at its span ids."""
    return tuple(C.generators[a] for a in data.span_ids)


def span_row(data: FaceConeData, a: int) -> int | None:
    """The row of vertex id a in the face's span basis A_F, its position in
    ``span_ids``, or None when a is not a span id."""
    return data.span_ids.index(a) if a in data.span_ids else None


def pyramid_prism() -> Polytope:
    """A prism over a square pyramid, 10 vertices in R^4.  The pyramid's
    apex edge is not dual-simple (its dual mask has one normal too many),
    so 4 of the 38 covering pairs with m > 0 take the general route and the
    other 34 the dual route."""
    pyramid = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 2)]
    return validate([v + (t,) for t in (0, 1) for v in pyramid], name="pyramid_prism")


def prism_over_cross(d):
    """The prism over the d-cross-polytope: for d = 4, 80 of its 188 pairs
    with m > 0 take the general route, and 320 of 556 for d = 5."""
    cross = [tuple(s * (i == j) for j in range(d)) for i in range(d) for s in (1, -1)]
    return validate([v + (t,) for t in (0, 1) for v in cross], name=f"prism_cross{d}")


def dual_simple(system, f) -> bool:
    """Does the dual mask of face f have n - dim F - 1 bits?"""
    dim = system.lattice.faces_by_id[f].dim
    return system.dual_masks[f].bit_count() == system.cone.dim - dim - 1


def pair_route(system, e, f) -> str:
    """The route the batch takes for the covering pair of face ids (e, f),
    by its masks: "adjugate" for m = 0, "dual" for m > 0 with both faces
    dual-simple, "general" otherwise."""
    span_e, span_f = system.face_data(e).span_mask, system.face_data(f).span_mask
    if not span_e & ~span_f:
        return "adjugate"
    return "dual" if dual_simple(system, e) and dual_simple(system, f) else "general"


def per_face_data(system) -> tuple[FaceConeData, ...]:
    """The face data of every face of the system's lattice, simplex faces
    included, in id order: each face resumes its bordered pass from the
    first lower cover E in ``down`` order whose vertices it strictly holds
    and whose span ids all lie below p = min(F - E), or walks all its
    vertices."""
    L, data = system.lattice, []
    masks = L.vertex_masks
    for f, F in enumerate(L.faces_by_id):
        cover = None
        for e in L.down[f]:
            rest = masks[f] & ~masks[e]
            if e < f and rest and not masks[e] & ~masks[f]:
                p = (rest & -rest).bit_length() - 1
                ids = data[e].span_ids
                if not ids or ids[-1] < p:
                    cover = data[e], p
                    break
        data.append(face_cone_data(F, system.gram, cover))
    return tuple(data)


class PerFaceSystem(ConeSystem):
    """``system`` with its per-pair API reading ``per_face_data``: its
    tables, masks, tau and stored face data are the system's, which is
    left unchanged."""

    def __init__(self, system: ConeSystem):
        vars(self).update(vars(system))
        self.every_face = per_face_data(system)

    def face_data(self, f: int) -> FaceConeData:
        return self.every_face[f]


def dual_face_ids(system, f: int) -> tuple[int, ...]:
    """The facet normals of the dual face of the face with id f, as indices
    into the cone's ``facet_normals``: those whose column of the slack
    table, S[i][k] = <y_k, v_i>, vanishes at every vertex of the face (only
    the face's rows are formed)."""
    F, C = system.lattice.faces_by_id[f], system.cone
    return tuple(k for k, y in enumerate(C.facet_normals)
                 if all(int_dot(y, C.generators[i]) == 0 for i in F.vertex_set))


def dual_face_gens(system, f: int) -> tuple[tuple[int, ...], ...]:
    """The facet normals of the dual face of the face with id f."""
    return tuple(system.cone.facet_normals[k] for k in dual_face_ids(system, f))


def dual_base_sign(F: Face, span_ids: Sequence[int], dual_mask: int, top_ids: Sequence[int],
                   gram: IntMatrix, slack: IntMatrix) -> int:
    """tau_F, the sign of [A_F | Y_F] for a dual-simple face F, by one n x n
    Bareiss determinant on the Gram and slack tables: A_F the cone's
    generators at F's ``span_ids``, Y_F the facet normals of F's
    ``dual_mask`` in index order (``polyk.cones.dual_sign``).

    It is taken against the basis A_P of the top face P (``top_ids``, n
    independent lifted vertices): tau_F = sign det([A_F | Y_F]^T A_P), whose
    entries are <a, b> = T[a][b] and <y_k, b> = S[b][k] for b in P's span
    ids.  That is sign det[A_F | Y_F] times sign det A_P, one factor for
    every face, which cancels in the product tau_E tau_F of
    ``polyk.cones.dual_sign``, and +1 at P itself; so no generator of the
    cone is read.

    [A_F | Y_F] is nonsingular: A_F is independent (det G_F > 0), the
    n - dim F - 1 normals of Y_F are independent (their certified rank) and
    orthogonal to span(F), as each vanishes on F's vertices; a vector in
    both spans is orthogonal to itself, and the counts add up to n.  A_P is
    a basis of R^n.  So a zero determinant is an error naming F."""
    rows = [[gram[a][b] for b in top_ids] for a in span_ids]
    rows += [[slack[b][k] for b in top_ids] for k in set_bits(dual_mask)]
    det = bareiss_det(rows)
    if det == 0:
        raise InternalInvariantError(f"dual base [A_F | Y_F] of {F} is singular")
    return 1 if det > 0 else -1


def dual_sign(n: int, dual_F: int, dual_E: int) -> int:
    """(-1)^(n-1) * pi for a covering pair (E, F) whose faces are both
    dual-simple, from their dual masks: pi = (-1)^(popcount of the bits of
    ``dual_F`` above y), y the one bit of ``dual_E`` & ~``dual_F``.  The
    pair's orientation is then

        sigma = (-1)^(n-1) * pi * tau_E * tau_F,

    with tau the dual base sign of each face (``TauSystem.taus``).

    A face F is dual-simple when its dual mask has exactly n - dim F - 1
    bits, the rank ``check_dual_faces`` certifies; its normals, in index
    order the columns of Y_F, are then independent.  [A_F | Y_F] is then a
    basis of R^n: A_F is independent (det G_F > 0), the normals of Y_F are
    orthogonal to span(F), as each vanishes on F's vertices, a vector in
    both spans is orthogonal to itself, and the counts add up to n.  Its
    sign, taken against the top face's basis A_P, is
    tau_F = sign det[A_F | Y_F] * sign det A_P, one factor for every face,
    which cancels in tau_E tau_F.  E lies in F, so dual_F is inside
    dual_E, and their counts differ by one: dual_E = dual_F plus the one
    normal y, column j of Y_E, j = popcount(dual_F below y).

    Proof.  The ray w = c g - A_E x of the pair (``edge_ray``) spans
    span(F) meet span(E)^perp, and span(E)^perp is span(Y_E): the
    n - dim E - 1 independent normals of Y_E vanish on span(E), of that
    codimension.  So w = alpha y + Y_F beta.  Every normal of Y_F vanishes
    on g, a vertex of F, so <w, g> = alpha S[g][y]; <w, g> = c * side > 0
    and S >= 0 give alpha > 0.  Expand det[w | A_E | Y_F], n columns, both
    ways:

      * [w | A_E] = A_F C with sign det C = sigma (``edge_ray``), so the
        matrix is [A_F | Y_F] diag(C, I): the sign is sigma * tau_F;
      * Y_F beta is a combination of the other columns, so the determinant
        is alpha det[y | A_E | Y_F]; moving y past the dim F columns of A_E
        and the j of Y_F below it gives [A_E | Y_E]: the sign is
        (-1)^(dim F + j) * tau_E.

    So sigma = (-1)^(dim F + j) tau_E tau_F, and
    dim F + j = n - 1 - popcount(dual_F above y), as |dual_F| = n - dim F - 1.
    No ray is made, and no Gram number is read."""
    y = dual_E & ~dual_F
    return -1 if (n - 1 + (dual_F >> y.bit_length()).bit_count()) & 1 else 1


class TauSystem(ConeSystem):
    """``system`` with ``taus``, the dual base sign tau_F of every face:
    +1 or -1 for a dual-simple face, 0 for any other, fixed from the top
    face P down (``_signs_from_top``); its tables, masks, face data and
    orientations are the system's, which is left unchanged.

    Every upper cover H of a dual-simple face E is dual-simple: dual_H is
    a subset of dual_E, whose normals are independent, so dual_H's are
    too, and their count is their rank n - dim H - 1.  tau is fixed:

      * tau_P = +1: Y_P is empty and A_P is a basis with det G_P > 0;
      * tau spreads over the covering pairs (E, F) with m = 0 between
        dual-simple faces, both ways: there sigma = (-1)^r
        (``adjugate_column``), so tau_E = (-1)^r * dual_sign * tau_F, and
        tau_F = (-1)^r * dual_sign * tau_E;
      * the dual-simple face E of highest id that the spread has not
        reached, a bridge, takes tau over its first upper cover
        H = ``up[E][0]``, whose tau the descending loop has set: the pair
        (E, H) has m > 0, and its general-route sign sigma gives
        tau_E = sigma * dual_sign * tau_H (``_bridge``), checked against
        sign det([g | A_E]^T A_H) (``_check_bridge``); the spread goes on
        from E."""

    def __init__(self, system: ConeSystem):
        vars(self).update(vars(system))
        n, faces = self.cone.dim, self.lattice.faces_by_id
        simple = [mask.bit_count() == n - F.dim - 1 for mask, F in zip(self.dual_masks, faces)]
        self.taus = self._signs_from_top(simple)

    def _signs_from_top(self, simple: Sequence[bool]) -> tuple[int, ...]:
        """tau of every face, from the top face down (see the class), with
        ``simple`` flagging the dual-simple faces."""
        n, dual, L, spans = self.cone.dim, self.dual_masks, self.lattice, self.span_masks
        taus: list[int | None] = [None if s else 0 for s in simple]  # None: not set yet
        top = len(taus) - 1
        for root in range(top, -1, -1):
            if taus[root] is not None:
                continue
            if root == top:
                taus[root] = 1
            else:
                taus[root] = self._bridge(root, taus)
                self._check_bridge(root, taus)
            stack = [root]
            while stack:
                f = stack.pop()
                for g in L.down[f] + L.up[f]:
                    if taus[g] is None:
                        e, h = min(f, g), max(f, g)  # lower covers have lower ids
                        r = adjugate_column(spans[h], spans[e])
                        if r is not None:
                            sigma = -1 if r & 1 else 1
                            taus[g] = sigma * dual_sign(n, dual[h], dual[e]) * taus[f]
                            stack.append(g)
        return tuple(taus)

    def _bridge(self, e: int, taus: Sequence[int | None]) -> int:
        """tau_E of a face E the spread does not reach, over its first upper
        cover H = ``up[E][0]``, whose tau is set (see the class)."""
        h, dual = self.lattice.up[e][0], self.dual_masks
        return self._general_sign(e, h) * dual_sign(self.cone.dim, dual[h], dual[e]) * taus[h]

    def _check_bridge(self, e: int, taus: Sequence[int | None]) -> None:
        """The tau of the bridge E against the sign of its pair (E, H),
        H = ``up[E][0]``: dual_sign * tau_E * tau_H must be
        sign det([g | A_E]^T A_H), one k x k determinant of Gram entries.
        A mismatch is an error naming the pair."""
        h = self.lattice.up[e][0]
        E, H, g, a_ids, h_ids = self._general_pair(e, h)
        det = bareiss_det([[self.gram[a][b] for b in h_ids] for a in (g, *a_ids)])
        sign, dual = (det > 0) - (det < 0), self.dual_masks
        sigma = dual_sign(self.cone.dim, dual[h], dual[e]) * taus[e] * taus[h]
        if sign != sigma:
            raise InternalInvariantError(f"bridge ({E}, {H}): the dual base signs give {sigma}, "
                                         f"sign det([g | A_E]^T A_H) = {sign}")

    def cover_orientations(self, f: int) -> list[int]:
        """The orientation sigma of every covering pair (E, F) of face f, one
        per lower cover in ``down[f]`` order, by the three routes, fixed by
        the pair's span and dual masks alone:

          * m = 0: sigma = (-1)^r off F's adjugate column r, with the
            verdict of ``adjugate_pair_fault``, and, between two
            dual-simple faces, (-1)^r = dual_sign * tau_E * tau_F;
          * m > 0, E and F both dual-simple: dual_sign * tau_E * tau_F;
          * any other pair: the general route's sign det C
            (``ConeSystem._general_sign``).

        A rejected pair is an error naming it."""
        faces, spans, taus, dual = self._face_data, self.span_masks, self.taus, self.dual_masks
        L, n = self.lattice, self.cone.dim
        data_F = faces[f]  # None: F is a simplex
        span_F, dual_F, tau_F = spans[f], dual[f], taus[f]
        signs = []
        for e in L.down[f]:
            r = adjugate_column(span_F, spans[e])
            tau = taus[e] * tau_F  # nonzero iff both faces are dual-simple
            if r is not None:
                sigma = -1 if r & 1 else 1
                fault = None if data_F is None else adjugate_pair_fault(faces[e], data_F, r)
                if fault is None and tau and dual_sign(n, dual_F, dual[e]) * tau != sigma:
                    fault = f"the dual base signs give {-sigma}, F's adjugate (-1)^{r} = {sigma}"
                if fault is not None:
                    E, F = L.faces_by_id[e], L.faces_by_id[f]
                    raise InternalInvariantError(
                        f"edge-ray cross-check failed for ({E}, {F}): {fault}")
                signs.append(sigma)
            elif tau:
                signs.append(dual_sign(n, dual_F, dual[e]) * tau)
            else:
                signs.append(self._general_sign(e, f))
        return signs


def rational_lifted_vertex(C: LiftedCone, i: int) -> tuple[Fraction, ...]:
    """(1, v_i) in rationals, from the integer lifted vertex L (1, v_i):
    its coordinates over its first one, L."""
    g = C.generators[i]
    return tuple(Fraction(x, g[0]) for x in g)


def coords_det_sign(b_cols, a_cols, n: int) -> int:
    """Sign of det C for B C = A, B and A given by their columns (length n);
    the columns of A must lie in the span of B's independent columns."""
    b = q_from_columns(list(b_cols), rows=n)
    a = q_from_columns(list(a_cols), rows=n)
    return det_sign(coords_in_basis(b, a))


def oriented_basis(system, flipped, f: int) -> tuple[tuple[int, ...], ...]:
    """A_F as the trivialization ``flipped``, the set of flipped face ids,
    orients the face with id f: the span basis of its face data in the
    ``ConeSystem``, its last column negated when the face is flipped."""
    basis = span_basis(system.cone, system.face_data(f))
    if f in flipped:
        basis = basis[:-1] + (tuple(-x for x in basis[-1]),)
    return basis


def oracle_incidence_sign(system, flipped, ray, e: int, f: int) -> int:
    """[E : F] for the faces with ids e and f, as the orientation sign of
    [e | A_E] against A_F, by solving for the coordinate matrix."""
    n = len(ray.direction)
    return coords_det_sign((ray.direction,) + oriented_basis(system, flipped, e),
                           oriented_basis(system, flipped, f), n)


def gram_incidence_sign(system, flipped, ray, e: int, f: int) -> int:
    """[E : F] as sign det(B^T A_F) with B = [e | A_E], by a Bareiss
    determinant: B^T A_F = (B^T B) C for the coordinate matrix C, and the
    Gram determinant det(B^T B) is positive."""
    b = (ray.direction,) + oriented_basis(system, flipped, e)
    a_f = oriented_basis(system, flipped, f)
    det = bareiss_det([[sum(x * y for x, y in zip(u, v)) for v in a_f] for u in b])
    return (det > 0) - (det < 0)


def vertex_projection(C: LiftedCone, data_E: FaceConeData, g: int, gram) -> list[int]:
    """det G_E times the component of the lifted vertex g orthogonal to
    span(E): det G_E g - A_E adj(G_E) A_E^T g, on integers."""
    at_g = [gram[g][a] for a in data_E.span_ids]
    w = [data_E.gram_det * c for c in C.generators[g]]
    for adj_row, a in zip(data_E.gram_adj, span_basis(C, data_E)):
        xi = int_dot(adj_row, at_g)
        w = [u - xi * v for u, v in zip(w, a)]
    return w


def table_orientation(data_E: FaceConeData, data_F: FaceConeData, g: int, gram) -> int:
    """sign det([g | A_E]^T A_F) for a lifted vertex g of F outside E: one
    k x k Bareiss determinant of entries of the Gram table ``gram``."""
    f_ids = data_F.span_ids
    det = bareiss_det([[gram[a][b] for b in f_ids] for a in (g,) + data_E.span_ids])
    return (det > 0) - (det < 0)


def kernel_edge_ray(C: LiftedCone, E: Face, F: Face,
                    data_E: FaceConeData, data_F: FaceConeData) -> tuple[tuple[int, ...], int]:
    """The edge ray of a covering pair as primitive(sigma * A_F kappa), with
    kappa the signed cofactor vector of A_E^T A_F (rows scaled to their
    primitive vectors, which scales kappa by a positive factor) and
    sigma = sign <A_F kappa, g> for the first lifted vertex g of F outside
    E: (direction, orientation sigma)."""
    a_e, a_f = span_basis(C, data_E), span_basis(C, data_F)
    rows = [primitive_vector([int_dot(a, b) for b in a_f]) for a in a_e]
    kappa = cofactor_kernel_vector(rows, len(a_f))
    ray = [int_dot(row, kappa) for row in zip(*a_f)]
    g = next(i for i in F.vertex_set if i not in E.vertex_set)
    sigma = 1 if int_dot(ray, C.generators[g]) > 0 else -1
    return primitive_vector([sigma * x for x in ray]), sigma


def vertex_sum(C: LiftedCone, F: Face) -> tuple[int, ...]:
    """b_F, the sum of the integer lifted vertices of F, as an n-vector."""
    return tuple(sum(C.generators[i][c] for i in F.vertex_set) for c in range(C.dim))


def vertex_sum_numbers(system, f: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(A_F^T b_F, z_F, |b_F|^2) for the face with id f and the sum b_F of
    its integer lifted vertices, off the Gram table and F's face data:
    <a, b_F> = sum over u in F of T[a][u] for each span id a,
    z_F = adj(G_F) A_F^T b_F, det G_F times b_F's coordinates in A_F, and
    |b_F|^2 = <A_F^T b_F, z_F> / det G_F, exact since b_F lies in span(F).
    z_F[r] > 0 is the barycenter test of a pair with m = 0 whose ray is
    column r of adj(G_F) (``polyk.cones.ConeSystem.cover_orientations``)."""
    F, data, gram = system.lattice.faces_by_id[f], system.face_data(f), system.gram
    at_b = tuple(sum(gram[a][u] for u in F.vertex_set) for a in data.span_ids)
    z = tuple(int_dot(row, at_b) for row in data.gram_adj)
    b_sq, rem = divmod(int_dot(at_b, z), data.gram_det)
    assert rem == 0, F
    return at_b, z, b_sq


def barycenter_projection(system, e: int, f: int) -> tuple[int, ...]:
    """w' = det G_E b_F - A_E adj(G_E) A_E^T b_F for the pair of face ids
    (e, f), as an integer n-vector: b_F is the sum of F's integer lifted
    vertices, and adj(G_E) A_E^T b_F holds the Cramer numerators det(G_i)
    of the Gram system G_E x = A_E^T b_F.  That is L * |F| * det G_E times
    the barycenter's component orthogonal to span(E); zero is an error."""
    E, F = system.lattice.faces_by_id[e], system.lattice.faces_by_id[f]
    data_E, data_F = system.face_data(e), system.face_data(f)
    a_e, b = span_basis(system.cone, data_E), vertex_sum(system.cone, F)
    rhs = [int_dot(u, b) for u in a_e]
    w = [data_E.gram_det * x for x in b]
    for adj_row, col in zip(data_E.gram_adj, a_e):
        det_i = int_dot(adj_row, rhs)
        w = [x - det_i * a for x, a in zip(w, col)]
    if all(x == 0 for x in w):
        raise InternalInvariantError(f"barycenter of {F} projects to zero over {E}")
    return tuple(w)


def solved_edge_ray(system, e: int, f: int) -> tuple[int, int, tuple[int, ...], tuple[int, ...],
                                                     int, int]:
    """(g, c, x, e_ids, orientation, side) of the pair of face ids (e, f)
    by the per-pair Gram solve: g the first span id of F outside E,
    c = det G_E, x = adj(G_E) A_E^T g, side = c T[g][g] - x^T A_E^T g, and
    the orientation sign det([g | A_E]^T A_F) by one Bareiss determinant."""
    E = system.lattice.faces_by_id[e]
    data_E, data_F = system.face_data(e), system.face_data(f)
    g = next(a for a in data_F.span_ids if a not in E.vertex_set)
    at_g = [system.gram[g][a] for a in data_E.span_ids]
    x = tuple(int_dot(row, at_g) for row in data_E.gram_adj)
    c = data_E.gram_det
    side = c * system.gram[g][g] - int_dot(x, at_g)
    orientation = table_orientation(data_E, data_F, g, system.gram)
    return g, c, x, data_E.span_ids, orientation, side


def cauchy_schwarz_verdict(system, ray: EdgeRay, e: int, f: int) -> bool:
    """Does the Gram-number cross-check accept the ray on every pair: with
    D = det G_E, x' = adj(G_E) A_E^T b_F and w' = D b_F - A_E x', is
    <w, w'> > 0 and <w, w'>^2 = |w|^2 |w'|^2?  <v, b_F> = sum over u in F
    of T[v][u], and |b_F|^2 the sum of those over v in F."""
    F = system.lattice.faces_by_id[f]
    data_E = system.face_data(e)
    gram, g, c, x = system.gram, ray.g, ray.c, ray.x
    if g not in F.vertex_set or ray.e_ids != data_E.span_ids:
        return False
    b_dot = {v: sum(gram[v][u] for u in F.vertex_set) for v in F.vertex_set}
    det, a_ids = data_E.gram_det, data_E.span_ids
    at_g = [gram[g][a] for a in a_ids]
    at_b = [b_dot[a] for a in a_ids]
    x_b = [int_dot(row, at_b) for row in data_E.gram_adj]
    b_sq = det * (det * sum(b_dot.values()) - int_dot(x_b, at_b))
    inner = c * (det * b_dot[g] - int_dot(x_b, at_g))
    w_sq = c * (c * gram[g][g] - 2 * int_dot(x, at_g)) + int_dot(
        x, [int_dot(row, x) for row in span_gram(gram, a_ids)])
    return inner > 0 and inner * inner == w_sq * b_sq


def crosscheck_verdict(system, ray: EdgeRay, e: int, f: int) -> bool:
    """Does the n-vector cross-check accept the ray: is its w = c g - A_E x,
    built from the cone's generators, nonzero with the primitive vector of
    the barycenter projection?"""
    gens = system.cone.generators
    w = [ray.c * u for u in gens[ray.g]]
    for xi, a in zip(ray.x, ray.e_ids):
        w = [u - xi * v for u, v in zip(w, gens[a])]
    return any(w) and primitive_vector(w) == primitive_vector(barycenter_projection(system, e, f))


def orthogonal_component(C: LiftedCone, E: Face, point) -> tuple[Fraction, ...]:
    """The component of a point of the lifted space orthogonal to the span
    of E's rational lifted vertices (1, v), by a rational Gram solve
    G x = A^T point with G = A^T A over E's own greedy basis A."""
    point = qvec(point)
    A = _greedy_independent([rational_lifted_vertex(C, i) for i in E.vertex_set], C.dim)
    if A.cols == 0:
        return point
    at = q_transpose(A)
    x = coords_in_basis(q_matmul(at, A), q_from_columns([q_mat_vec(at, point)]))
    proj = q_mat_vec(A, q_column(x, 0))
    return tuple(b - p for b, p in zip(point, proj))


def oracle_crosscheck(C: LiftedCone, E: Face, F: Face) -> tuple[Fraction, ...]:
    """The component of the barycenter of the rational lifted F-vertices
    (1, v) orthogonal to span(E)."""
    lifted = [rational_lifted_vertex(C, i) for i in F.vertex_set]
    bary = tuple(sum(col, start=Fraction(0)) / len(lifted) for col in zip(*lifted))
    return orthogonal_component(C, E, bary)


def span_basis_of_face(C: LiftedCone, F: Face) -> tuple[tuple[int, ...], IntEchelon]:
    """Greedy maximal independent subset of the integer lifted vertices of F,
    in increasing vertex-index order, as vertex ids; dim F + 1 of them (none
    for the empty face).  One fraction-free echelon pass decides each
    candidate; it is returned with the ids, since its kept rows span exactly
    span(F)."""
    chosen, echelon = first_independent((C.generators[i] for i in F.vertex_set), F.dim + 1)
    if len(chosen) != F.dim + 1:
        raise InternalInvariantError(
            f"face {F}: span has {len(chosen)} independent lifted vertices, expected {F.dim + 1}")
    return tuple(F.vertex_set[i] for i in chosen), echelon


def echelon_dual_rank(gens, bound: int) -> int:
    """The number of independent facet normals among a dual face's
    generators ``gens``, found by a fraction-free echelon
    (``first_independent``) that stops at ``bound``, the most the rank can
    be: n - (dim F + 1) for the dual face of F."""
    return len(first_independent(gens, bound)[0])


def span_gram(gram, ids) -> IntMatrix:
    """The Gram matrix G = A^T A of the lifted vertices ``ids``, read off
    the Gram table."""
    return tuple(tuple(gram[a][b] for b in ids) for a in ids)


def gram_certificate_holds(gram, data: FaceConeData) -> bool:
    """G adj(G) = det G * I with det G > 0 for a face's data, G read off the
    Gram table: k^2 dot products of length k, the per-face check that the
    checked bordering steps of ``polyk.cones.face_cone_data`` replace."""
    k = len(data.span_ids)
    G = span_gram(gram, data.span_ids)
    return data.gram_det > 0 and all(
        sum(G[i][t] * data.gram_adj[t][j] for t in range(k)) == (data.gram_det if i == j else 0)
        for i in range(k) for j in range(k))


def gram_adjugate(F: Face, gram) -> tuple[int, IntMatrix]:
    """det G and adj G for the Gram matrix G of the span basis of F.

    One fraction-free Gauss-Jordan pass on [G | I] with no pivoting: step k
    sets each row i != k to (p_k a_i - a_ik a_k) / p_{k-1}, exactly
    divisible (Sylvester), where p_k = a_kk is the leading principal minor
    of order k + 1 and p_{-1} = 1; it ends at [det G * I | adj G].  G is
    positive definite (independent columns), so each p_k must be positive:
    that is checked, and det G = p_{n-1} > 0 follows.
    """
    n = len(gram)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(gram)]
    prev = 1
    for k in range(n):
        p = a[k][k]
        if p <= 0:
            raise InternalInvariantError(
                f"Gram determinant of the span of {F} is not positive: "
                f"leading minor of order {k + 1} is {p}")
        for i in range(n):
            if i != k:
                x = a[i][k]
                a[i] = [(p * u - x * v) // prev for u, v in zip(a[i], a[k])]
        prev = p
    return prev, tuple(tuple(row[n:]) for row in a)


def cramer_numerators(gram, rhs) -> list[int]:
    """det(G_i) for each i, with G_i the matrix G whose column i is replaced
    by rhs: the numerators of Cramer's rule for G x = rhs."""
    return [bareiss_det([list(row[:i]) + [y] + list(row[i + 1:]) for row, y in zip(gram, rhs)])
            for i in range(len(gram))]


def positive_multiple_ratio(w, direction) -> Fraction | None:
    """The rational lambda > 0 with w = lambda * direction, or None: the
    cross-check's acceptance test written without primitive vectors."""
    wq = qvec(w)
    dq = qvec(direction)
    idx = next((i for i, x in enumerate(dq) if x != 0), None)
    if idx is None:
        return None
    lam = wq[idx] / dq[idx]
    if lam <= 0:
        return None
    if wq != tuple(lam * x for x in dq):
        return None
    return lam


def in_convex_hull(point, points, dim: int) -> bool:
    """Caratheodory enumeration: is the point a convex combination of the
    others?  Solves the affine system exactly on every subset of size at
    most dim + 1 and checks nonnegativity."""
    target = tuple(Fraction(x) for x in point) + (Fraction(1),)
    for k in range(1, dim + 2):
        for subset in combinations(range(len(points)), k):
            cols = [tuple(Fraction(x) for x in points[i]) + (Fraction(1),) for i in subset]
            sol = solve_in_span(q_from_columns(cols), target)
            if sol is not None and all(c >= 0 for c in sol):
                return True
    return False


def brute_force_facets(points, d: int) -> list[Facet]:
    """All supporting hyperplanes spanned by affinely independent d-subsets.

    Works on arbitrary point lists (redundant points allowed): every facet of
    the hull contains d affinely independent listed points, so none is missed.
    The points are rescaled to a common integer grid so the whole enumeration
    runs in plain integer arithmetic; offsets are mapped back at the end.
    C(n, d) subsets: use it only on small inputs.
    """
    if d == 0:
        return []
    scale = lcm(*(x.denominator for p in points for x in p))
    ipts = [tuple(int(x * scale) for x in p) for p in points]
    seen: set[tuple[tuple[int, ...], int]] = set()
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


def cofactor_starting_cone(gens, basis) -> list[tuple[tuple[int, ...], int]]:
    """The starting rays of the double description, each with its zero set
    as a bitmask: for each basis point g_b, the primitive cofactor kernel
    vector of the other basis points, signed positive on g_b."""
    rays = []
    for b in basis:
        others = [c for c in basis if c != b]
        h = primitive_vector(cofactor_kernel_vector([gens[c] for c in others], len(basis)))
        if int_dot(h, gens[b]) < 0:
            h = tuple(-x for x in h)
        rays.append((h, sum(1 << c for c in others)))
    return rays


def scan_hull_facets(points, d: int) -> list[Facet]:
    """The double description with the cofactor starting cone and the
    per-pair adjacency scan over every ray; same facets, sorted the same
    way, as ``polyk.polytope._hull_facets``."""
    if d == 0:
        return []
    scale = lcm(*(Fraction(x).denominator for p in points for x in p))
    gens = [(1,) + tuple(int(Fraction(x) * scale) for x in p) for p in points]
    basis, _ = first_independent(gens, d + 1)
    assert len(basis) == d + 1, "hull not full-dimensional"
    rays = cofactor_starting_cone(gens, basis)
    for i, g in enumerate(gens):
        if i in basis:
            continue
        bit = 1 << i
        values = [int_dot(h, g) for h, _ in rays]
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


def random_hull_draw(rng, dim: int, n_points: int) -> list[tuple[Fraction, ...]]:
    """One draw of ``random_hull``: n_points distinct rational points."""
    pts = []
    seen = set()
    while len(pts) < n_points:
        p = tuple(Fraction(rng.randint(-8, 8), rng.choice((1, 1, 2, 3))) for _ in range(dim))
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return pts


def hull_by_rank(rng, dim: int, n_points: int, name=None) -> Polytope:
    """``random_hull`` with a rank test per draw: draw points until
    ``affine_dim`` says their hull is full-dimensional."""
    while True:
        pts = random_hull_draw(rng, dim, n_points)
        if affine_dim(pts) == dim:
            return convex_hull(pts, name=name)


def faces_by_direction(vertices, dim: int, radius: int = 1) -> set[tuple[int, ...]]:
    """Vertex sets of faces found as argmax sets of small integer directions.

    Complete for the structured corpus (simplices, cubes, cross-polytopes,
    and their affine friends with radius 2): every face's normal cone there
    contains a direction with coordinates in [-radius, radius].
    """
    def directions(prefix):
        if not prefix:
            yield ()
            return
        for rest in directions(prefix[1:]):
            for c in range(-radius, radius + 1):
                yield (c,) + rest

    found: set[tuple[int, ...]] = set()
    for a in directions([0] * dim):
        values = [sum(Fraction(c) * x for c, x in zip(a, v)) for v in vertices]
        top = max(values)
        found.add(tuple(i for i, v in enumerate(values) if v == top))
    return found


def simplicial_boundary_matrices(d: int) -> list[list[list[int]]]:
    """Augmented simplicial chain complex of the d-simplex on vertices 0..d.

    Faces of dimension j are the (j+1)-subsets in lexicographic order; the
    boundary of a face drops one vertex at a time with alternating signs,
    and the augmentation sends every vertex to the empty face with sign +1.
    """
    levels = [[()]] + [sorted(combinations(range(d + 1), j + 1)) for j in range(d + 1)]
    matrices = []
    for j in range(0, d + 1):
        rows = {face: i for i, face in enumerate(levels[j])}
        cols = levels[j + 1]
        mat = [[0] * len(cols) for _ in rows]
        for cj, face in enumerate(cols):
            for drop in range(len(face)):
                sub = face[:drop] + face[drop + 1:]
                mat[rows[sub]][cj] = (-1) ** drop if sub else 1
        matrices.append(mat)
    return matrices


def closure_face_lattice(P: Polytope) -> FaceLattice:
    """The face lattice as the intersection closure of the facet vertex sets.

    Proper faces are exactly the intersections of facet vertex sets, so the
    lattice is that closure plus the two ends; each face's dimension is the
    affine dimension of its vertices, and E < F is a covering pair when
    dim E = dim F - 1 and E's vertex set lies in F's.  Levels and covering
    pairs are ordered as ``face_lattice`` orders them.  Nothing is verified.
    """
    d = P.ambient_dim
    full = frozenset(range(P.nvertices))
    sets: set[frozenset[int]] = {frozenset(f.vertex_set) for f in P.facets}
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
        fdim = -1 if not s else affine_dim([P.vertices[i] for i in sorted(s)])
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

    return lattice_from_pairs(d, tuple(tuple(by_dim[j]) for j in range(-1, d + 1)), covering)


class UncheckedFaceLattice(FaceLattice):
    """A ``FaceLattice`` numbered as the library numbers one, a cover listed
    twice still an error, with no check of its axioms."""

    def _verify_axioms(self, union) -> None:
        pass


class UncheckedAbstractLattice(AbstractLattice):
    """An ``AbstractLattice`` numbered as the library numbers one, a cover
    listed twice one cover, with no check of its axioms."""

    def _verify_axioms(self, union) -> None:
        pass


class GradedPoset(AbstractLattice):
    """An ``AbstractLattice`` that checks only the bounded and graded
    axioms: a bounded graded poset, a lattice or not, that the search
    oracles (``rank_scan_is_isomorphic``, ``up_scan_is_isomorphic``) can
    still be run on."""

    def _verify_axioms(self, union) -> None:
        self.verify_graded()


def pass_atom_masks(L) -> tuple[int, ...]:
    """Per element, the bitmask of the atoms below it, in one pass in id
    order over ``L.down``: the k-th element of rank 0 has bit k, every
    element above rank 0 the OR of its lower covers' masks, and the bottom
    none.  Each lower cover must come first in id order, as on every
    lattice whose graded axiom holds."""
    atoms = L.ids(0)
    masks = [0] * atoms.start + [1 << k for k in range(len(atoms))]
    for below in L.down[atoms.stop:]:
        m = 0
        for e in below:
            m |= masks[e]
        masks.append(m)
    return tuple(masks)


class DictNumberedLattice(AbstractLattice):
    """An ``AbstractLattice`` whose covers are numbered by an element -> id
    dict, a cover naming an element the dict does not hold refused, and
    whose axioms are checked on ``pass_atom_masks``, made once the graded
    axiom holds."""

    def __post_init__(self) -> None:
        elements = tuple((r - 1, i) for r, n in enumerate(self.f_vector) for i in range(n))
        index = {x: i for i, x in enumerate(elements)}
        down: list[set[int]] = [set() for _ in elements]
        try:
            for a, b in self.covering:
                down[index[b]].add(index[a])
        except KeyError:
            raise InternalInvariantError(f"cover ({a}, {b}) names no element") from None
        self._number(elements, tuple(accumulate(self.f_vector, initial=0)),
                     tuple(tuple(sorted(below)) for below in down))
        self.verify_graded()
        object.__setattr__(self, "atom_masks", pass_atom_masks(self))
        self._verify_axioms(self.atom_masks)


def three_scan_lattice_from_incidence(U: UnsignedIncidence) -> AbstractLattice:
    """``lattice_from_incidence`` with each row read by ``count(1)``,
    ``count(0)`` and one ``index`` per 1."""
    mats = U.matrices
    if not mats:
        raise InternalInvariantError("no incidence matrices")
    f_vector = [len(mats[0])] + [len(m[0]) if m else 0 for m in mats]
    for j in range(1, len(mats)):
        if len(mats[j]) != f_vector[j]:
            raise InternalInvariantError(
                f"incidence matrices dimensionally inconsistent at rank {j}")
    covering = []
    for j, m in enumerate(mats):
        for r, row in enumerate(m):
            if len(row) != f_vector[j + 1]:
                raise InternalInvariantError(f"D_{j} is ragged: row {r} has length {len(row)}, "
                                             f"row 0 has length {f_vector[j + 1]}")
            ones = row.count(1)
            if row.count(0) + ones != len(row):
                x = next(x for x in row if x not in (0, 1))
                raise InternalInvariantError(f"unsigned incidence entry {x} not in {{0, 1}}")
            c = -1
            for _ in range(ones):
                c = row.index(1, c + 1)
                covering.append(((j - 1, r), (j, c)))
    return AbstractLattice(dim=len(mats) - 1, f_vector=tuple(f_vector), covering=tuple(covering))


def built(lat) -> FaceLattice | AbstractLattice:
    """The library's lattice with the fields of ``lat``, checked as it is
    built: the library's verdict on ``lat``."""
    if isinstance(lat, FaceLattice):
        return FaceLattice(lat.dim, lat.faces_by_dim, lat.down, lat.vertex_masks)
    return AbstractLattice(lat.dim, lat.f_vector, lat.covering)


def lattice_from_pairs(dim: int, faces_by_dim, covering, unchecked: bool = False
                       ) -> FaceLattice:
    """The ``FaceLattice`` with these levels whose lower covers are the
    covering pairs (E, F) of faces, each F's in the order given, checked as
    it is built, or an ``UncheckedFaceLattice`` if ``unchecked``."""
    faces = [f for level in faces_by_dim for f in level]
    face_id = {f: i for i, f in enumerate(faces)}
    down: list[list[int]] = [[] for _ in face_id]
    for e, f in covering:
        down[face_id[f]].append(face_id[e])
    return (UncheckedFaceLattice if unchecked else FaceLattice)(
        dim=dim, faces_by_dim=tuple(map(tuple, faces_by_dim)), down=tuple(map(tuple, down)),
        vertex_masks=tuple(sum(1 << v for v in f.vertex_set) for f in faces))


def cover_masks(L) -> tuple[list[int], list[int]]:
    """The upper and the lower covers of each element as id bitmasks."""
    return tuple([reduce(or_, (1 << i for i in c), 0) for c in covers]
                 for covers in (L.up, L.down))


def adjacent_rank_covers(elements: Sequence, up: Sequence[int], rank) -> None:
    """Every cover joins adjacent ranks, on the id bitmasks ``up`` of upper
    covers and each element's ``rank(element)``: the first failing pair,
    by the id of the lower element, then of the upper, is named."""
    for e, low in enumerate(elements):
        above = up[e]
        while above:
            f = (above & -above).bit_length() - 1
            above &= above - 1
            step = rank(elements[f]) - rank(low)
            if step != 1:
                how = "skips a rank" if step > 1 else "does not go up a rank"
                raise InternalInvariantError(
                    f"cover ({low}, {elements[f]}) {how}: not graded")


def vertex_closure_face_lattice(P: Polytope) -> FaceLattice:
    """The face lattice by the Kaibel-Pfetsch closure with the vertices as
    atoms, whatever the sizes of the two sides, numbered by vertex mask.

    A face is a vertex mask with its facet mask; ``vfac[v]`` is the facet
    mask of vertex v.  The closure of a face F and a vertex v has the facet
    mask ``facets(F) & vfac[v]``, and its vertices are the w whose
    ``vfac[w]`` contains that mask.  It covers F iff the number of vertices
    outside F that give it is the number of its vertices outside F.  Levels
    are ordered by vertex set and the covering pairs by the level and
    position of F, then the position of E.  Nothing is verified.
    """
    d, n = P.ambient_dim, P.nvertices
    vfac = [0] * n
    for j, fc in enumerate(P.facets):
        for v in fc.vertex_set:
            vfac[v] |= 1 << j

    def vertex_set(mask: int) -> tuple[int, ...]:
        return tuple(v for v in range(n) if mask >> v & 1)

    levels: list[list[tuple[int, int]]] = [[(0, (1 << len(P.facets)) - 1)]]
    lower: list[list[tuple[int, int]]] = [[]]  # per level: (E, F) vertex masks
    closure: dict[int, int] = {}
    for k in range(d + 1):
        found: dict[int, int] = {}
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
        levels.append([(hv, hf) for hf, hv in found.items()])
        lower.append(pairs)

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
    return lattice_from_pairs(d, faces_by_dim, covering)


def int_mat_is_zero(A) -> bool:
    return all(x == 0 for r in A for x in r)


def sparse_columns(A, rows: int, cols: int) -> list[SparseColumn]:
    """The columns of a dense rows x cols integer matrix as {row: entry}
    dicts of its nonzero entries, in one scan; the shape is checked."""
    if len(A) != rows or any(len(r) != cols for r in A):
        raise InternalInvariantError(f"sparse_columns: matrix is not {rows} x {cols}")
    out: list[SparseColumn] = [{} for _ in range(cols)]
    for i, row in enumerate(A):
        for j, x in enumerate(row):
            if x:
                out[j][i] = x
    return out


def _leftover(cols: Sequence[SparseColumn], pivots: Sequence[tuple[int, int]],
              rows: int) -> list[SparseColumn]:
    """The block of ``cols`` on the rows and columns without a pivot, in
    index order, as the columns of its nonzero entries: a stored zero is
    dropped."""
    pivot_rows = {r for r, _ in pivots}
    pivot_cols = {c for _, c in pivots}
    position = {i: k for k, i in enumerate(i for i in range(rows) if i not in pivot_rows)}
    return [{position[i]: x for i, x in col.items() if x and i in position}
            for j, col in enumerate(cols) if j not in pivot_cols]


def unit_pivot_elimination(
        columns: Sequence[SparseColumn],
        rows: int) -> tuple[tuple[tuple[int, int], ...], list[SparseColumn], int]:
    """Reduce a sparse integer matrix M (``rows`` rows, the given columns)
    by pivoting on entries +-1 only (Kaczynski, Mrozek & Slusarek 1998).
    Returns the pivots (row, column) in the order taken, then the block N
    left on the other rows and columns, in index order, as sparse columns,
    and its row count.

    Columns are visited in index order, in passes, until a pass takes no
    pivot.  A column c with a unit entry u = M[r, c] becomes a pivot, with r
    the unit's row that has the fewest nonzeros (to limit fill): every other
    column t with M[r, t] != 0 gets col_t -= (M[r, t] * u) * col_c, which
    clears row r outside column c since u * u = 1, and row r and column c
    drop out.

    Identity: each step adds an integer multiple of one column to another,
    a unimodular column operation, so M V = M' with V unimodular.  Take the
    pivot rows and columns in the order taken, then the others.  Pivot row
    r_k was cleared from every column still in play at step k, which takes
    in every later pivot column and every non-pivot column, and no later
    step puts an entry back, since later pivot columns are zero there.  So
    M' = [[T, 0], [X, N]] with T lower triangular with units on its
    diagonal, hence unimodular.  Unimodular row operations (T^-1 on the
    pivot rows, then clearing X) give M ~ diag(I_r, N) for r pivots: the
    invariant factors of M are r ones followed by those of N.  Before
    returning, ``check_unit_pivots`` certifies this shape.
    """
    cols = [dict(c) for c in columns]
    in_row: list[set[int]] = [set() for _ in range(rows)]
    for j, col in enumerate(cols):
        for i in col:
            in_row[i].add(j)
    pivots: list[tuple[int, int]] = []
    ops: list[tuple[int, int, int]] = []  # (target, source, multiplier)
    pending = list(range(len(cols)))
    while pending:
        waiting = []
        for c in pending:
            col = cols[c]
            r = None
            for i, x in col.items():
                if (x == 1 or x == -1) and (r is None or len(in_row[i]) < len(in_row[r])):
                    r = i
            if r is None:
                if col:
                    waiting.append(c)
                continue
            u = col[r]
            for i in col:
                in_row[i].discard(c)
            targets, in_row[r] = in_row[r], set()
            for t in targets:
                target = cols[t]
                q = -target[r] * u
                for i, x in col.items():
                    y = target.get(i, 0) + q * x
                    if y:
                        if i not in target:
                            in_row[i].add(t)
                        target[i] = y
                    else:
                        del target[i]
                        in_row[i].discard(t)
                ops.append((t, c, q))
            pivots.append((r, c))
        if len(waiting) == len(pending):
            break
        pending = waiting
    leftover = _leftover(cols, pivots, rows)
    check_unit_pivots(columns, rows, ops, pivots, leftover)
    return tuple(pivots), leftover, rows - len(pivots)


def check_unit_pivots(columns: Sequence[SparseColumn], rows: int,
                      ops: Sequence[tuple[int, int, int]],
                      pivots: Sequence[tuple[int, int]],
                      leftover: Sequence[SparseColumn]) -> None:
    """Certificate of ``unit_pivot_elimination``: replay the column
    operations (target, source, multiplier) on fresh copies of the original
    columns, and raise unless the result M' has the shape its identity
    needs: pivots in distinct rows and columns, a unit at each pivot
    (r_k, c_k), no entry in row r_k on a
    non-pivot column or on a pivot column taken after step k, and the
    sparse columns ``leftover`` on the other rows and columns, where a zero
    the replay stores does not count as an entry."""
    replayed = [dict(c) for c in columns]
    for t, s, q in ops:
        if t == s:
            raise InternalInvariantError("unit pivots: a column operation adds a column to itself")
        target = replayed[t]
        for i, x in replayed[s].items():
            target[i] = target.get(i, 0) + q * x
    last = len(pivots)  # the step of a row or column without a pivot
    step_of_row = {r: k for k, (r, _) in enumerate(pivots)}
    step_of_col = {c: k for k, (_, c) in enumerate(pivots)}
    if len(step_of_row) != last or len(step_of_col) != last:
        raise InternalInvariantError("unit pivots: two pivots share a row or a column")
    for j, col in enumerate(replayed):
        step = step_of_col.get(j, last)
        for i, x in col.items():
            if x and step > step_of_row.get(i, last):
                raise InternalInvariantError(
                    f"unit pivots: replayed entry ({i}, {j}) = {x} lies outside the triangular shape")
    for r, c in pivots:
        if replayed[c].get(r) not in (1, -1):
            raise InternalInvariantError(f"unit pivots: replayed pivot ({r}, {c}) is not a unit")
    if _leftover(replayed, pivots, rows) != list(leftover):
        raise InternalInvariantError("unit pivots: replayed leftover differs")


def complex_from_dense(dim: int, boundary, face_order) -> ChainComplex:
    """The complex whose D_j is the dense matrix ``boundary[j]``."""
    f = tuple(len(level) for level in face_order)
    return ChainComplex(
        dim=dim, face_order=face_order,
        columns=tuple(tuple(sparse_columns(m, f[j], f[j + 1])) for j, m in enumerate(boundary)))


def dense_matrices(X: ChainComplex) -> tuple:
    """Every boundary matrix of the complex, dense."""
    return tuple(X.matrix(j) for j in range(X.dim + 1))


def dense_homology_pair(X: ChainComplex) -> tuple[HomologyResult, HomologyResult]:
    """Augmented and reduced integral homology from dense products and one
    dense Smith normal form per boundary matrix."""
    boundary = dense_matrices(X)
    for j in range(1, X.dim + 1):
        if not int_mat_is_zero(int_mat_mul(boundary[j - 1], boundary[j])):
            raise InternalInvariantError("homology of a non-complex: boundary squared != 0")
    f = X.f_vector
    snfs = [smith_normal_form(m) for m in boundary]
    ranks = [sum(1 for x in s.diagonal if x != 0) for s in snfs]
    # torsion of H_j comes from the map arriving from degree j+1: torsion[j + 1]
    torsion = [tuple(x for x in s.diagonal if x > 1) for s in snfs] + [()]

    def result(augmented: bool) -> HomologyResult:
        # rank of the boundary map leaving degree j downward: rank_out[j + 1]
        rank_out = [0, ranks[0] if augmented else 0, *ranks[1:], 0]
        return HomologyResult(augmented=augmented, groups=tuple(
            AbelianGroup(f[j + 1] - rank_out[j + 1] - rank_out[j + 2], torsion[j + 1])
            for j in range(-1 if augmented else 0, X.dim + 1)))

    return result(True), result(False)


def failure(check, lat) -> str | None:
    """The message of the InternalInvariantError check(lat) raises, or None."""
    try:
        check(lat)
    except InternalInvariantError as exc:
        return str(exc)
    return None


def all_pairs_order_axioms(L) -> None:
    """What a lattice checks as it is built, on every cover: bounded and
    graded, each cover one rank up (``adjacent_rank_covers``), a face's
    rank being its dimension and an abstract element's its first entry."""
    faces = isinstance(L, FaceLattice)
    if L.f_vector[0] != 1 or L.f_vector[-1] != 1:
        raise InternalInvariantError(f"not bounded: f-vector {L.f_vector}")
    elements = L.faces_by_id
    up, down = cover_masks(L)
    for i in range(L.level_start[-2]):  # below the top
        if not up[i]:
            raise InternalInvariantError(f"{elements[i]} has no upper cover: not graded")
    for i in range(L.level_start[1], len(elements)):  # above the bottom
        if not down[i]:
            raise InternalInvariantError(f"{elements[i]} has no lower cover: not graded")
    adjacent_rank_covers(elements, up, (lambda face: face.dim) if faces else itemgetter(0))


def all_pairs_diamonds(L, masks, highs=None) -> None:
    """Every two elements two ranks apart whose ``masks`` nest,
    ``lo & hi == lo``, the higher one in ``highs`` if given, have two
    elements between them, counted as the popcount of the AND of two
    ``cover_masks``."""
    up, down = cover_masks(L)
    for j in range(-1, L.dim - 1):
        for low in L.ids(j):
            for high in L.ids(j + 2):
                if masks[low] & masks[high] == masks[low] and (highs is None or high in highs):
                    mids = (up[low] & down[high]).bit_count()
                    if mids != 2:
                        raise InternalInvariantError(
                            f"diamond property fails between {L.faces_by_id[low]} and "
                            f"{L.faces_by_id[high]}: {mids} intermediate elements")


def first_repeat(masks: list[int]) -> tuple[int, int] | None:
    """The first id f, in id order, whose mask an earlier id e has, as
    (e, f) with e the first id of that mask (``list.index``), or None."""
    return next(((e, f) for f, m in enumerate(masks) if (e := masks.index(m)) < f), None)


def all_pairs_verify_lattice(L: FaceLattice) -> None:
    """What a ``FaceLattice`` checks as it is built, over all pairs:
    distinct vertex sets (``first_repeat``), the repeat named as a face
    found at two levels, then ``all_pairs_order_axioms``, then each
    covering pair a strict containment of vertex sets, on Python sets,
    then each face's vertex set the set of the k for which the k-th face
    of dimension 0 lies in its down-set (``down_sets``), then
    ``all_pairs_diamonds`` on the vertex sets as masks, then
    ``all_pairs_meets``."""
    faces = L.faces_by_id
    masks = [sum(1 << v for v in f.vertex_set) for f in faces]
    repeat = first_repeat(masks)
    if repeat:
        e, f = (faces[i] for i in repeat)
        raise InternalInvariantError(f"face {f} found at levels {e.dim + 1} and {f.dim + 1}")
    all_pairs_order_axioms(L)
    for high, below in enumerate(L.down):
        for low in below:
            lo, hi = faces[low], faces[high]
            if not set(lo.vertex_set) < set(hi.vertex_set):
                raise InternalInvariantError(
                    f"covering pair ({lo}, {hi}) is not a strict vertex-set containment")
    for f, down_set in zip(faces, down_sets(L)):
        if set(f.vertex_set) != {k for k, v in enumerate(L.ids(0)) if down_set >> v & 1}:
            raise InternalInvariantError(f"face {f} is not the union of the vertices below it")
    all_pairs_diamonds(L, masks)
    all_pairs_meets(L)


def all_pairs_abstract_lattice(lat: AbstractLattice) -> None:
    """What an ``AbstractLattice`` checks as it is built, over all pairs:
    ``all_pairs_order_axioms``, then distinct atom sets (``first_repeat``)
    on the atoms below each element, read off its down-set
    (``down_sets``), naming both elements of the repeat, then
    ``all_pairs_diamonds`` on those atom sets, then ``all_pairs_meets``."""
    all_pairs_order_axioms(lat)
    atoms = sum(1 << a for a in lat.ids(0))
    masks = [d & atoms for d in down_sets(lat)]
    repeat = first_repeat(masks)
    if repeat:
        e, f = (lat.faces_by_id[i] for i in repeat)
        raise InternalInvariantError(f"{e} and {f} lie above the same atoms")
    all_pairs_diamonds(lat, masks)
    all_pairs_meets(lat)


def all_pairs_verify_abstract_lattice(lat: AbstractLattice) -> None:
    """The rule an abstract lattice's diamond check followed before it read
    atom masks, over all pairs, after ``all_pairs_order_axioms``: every two
    elements two ranks apart that a path of two covers joins have two
    elements between them; then ``all_pairs_meets``.  It accepts what
    ``all_pairs_abstract_lattice`` accepts (``GradedIds``)."""
    all_pairs_order_axioms(lat)
    elements = lat.faces_by_id
    up, down = cover_masks(lat)
    for rank in range(-1, lat.dim - 1):
        for low in lat.ids(rank):
            ups = up[low]
            for high in lat.ids(rank + 2):
                mids = (ups & down[high]).bit_count()
                if mids and mids != 2:
                    raise InternalInvariantError(
                        f"diamond property fails between {elements[low]} and "
                        f"{elements[high]}: {mids} intermediate elements")
    all_pairs_meets(lat)


def down_sets(lat) -> list[int]:
    """Per element i, the id bitmask of the elements below or at i: ``1 <<
    i`` OR'd with the down-sets of its lower covers, lower ids first."""
    ds: list[int] = []
    for i, below in enumerate(lat.down):
        ds.append(reduce(or_, (ds[b] for b in below), 1 << i))
    return ds


def all_pairs_meets(lat) -> None:
    """Every two elements a, b have a meet: ``ds[a] & ds[b]`` is the down-set
    of its highest-numbered element, with covers going up in id."""
    elements = lat.faces_by_id
    ds = down_sets(lat)
    for i, a in enumerate(elements):
        ds_a = ds[i]
        for j in range(i + 1, len(elements)):
            common = ds_a & ds[j]
            if common != ds[common.bit_length() - 1]:
                raise InternalInvariantError(
                    f"meet of {a} and {elements[j]} is not unique: poset is not a lattice")


def rank_scan_is_isomorphic(L1, L2) -> LatticeIso:
    """``is_isomorphic`` with each source's candidates scanned over its whole
    target rank in id order."""
    if L1.dim != L2.dim:
        return LatticeIso(False, certificate=f"dimension mismatch: {L1.dim} != {L2.dim}")
    ranks1, ranks2 = ([L.ids(r) for r in range(-1, L.dim + 1)] for L in (L1, L2))
    fv1, fv2 = tuple(map(len, ranks1)), tuple(map(len, ranks2))
    if fv1 != fv2:
        return LatticeIso(False, certificate=f"f-vector mismatch: {fv1} != {fv2}")
    up1, down1, up2 = L1.up, L1.down, L2.up
    down2 = [set(d) for d in L2.down]

    for level1, level2 in zip(ranks1, ranks2):
        sig1 = sorted((len(down1[e]), len(up1[e])) for e in level1)
        sig2 = sorted((len(down2[e]), len(up2[e])) for e in level2)
        if sig1 != sig2:
            return LatticeIso(False, certificate="up/down cover degree multisets differ")

    targets = [level2 for level1, level2 in zip(ranks1, ranks2) for _ in level1]
    mapping: list[int] = []
    used: set[int] = set()
    start = 0
    while len(mapping) < len(targets):
        s = len(mapping)
        wanted_down = {mapping[d] for d in down1[s]}
        found = next((t for t in range(max(start, targets[s].start), targets[s].stop)
                      if t not in used and len(up2[t]) == len(up1[s])
                      and down2[t] == wanted_down), None)
        if found is not None:
            mapping.append(found)
            used.add(found)
            start = 0
            continue
        if not mapping:
            return LatticeIso(False, certificate="exhausted search: no cover-preserving bijection")
        start = mapping.pop()
        used.discard(start)
        start += 1

    if any({mapping[b] for b in up1[a]} != set(up2[t]) for a, t in enumerate(mapping)):
        raise InternalInvariantError("lattice bijection failed final cover verification")
    return LatticeIso(True, mapping=tuple((L1.faces_by_id[s], L2.faces_by_id[t])
                                          for s, t in enumerate(mapping)))


def up_scan_is_isomorphic(L1, L2) -> LatticeIso:
    """``is_isomorphic`` with each source's candidates read off the upper
    covers of its first lower cover's image, in id order, and the complete
    assignment checked again on every ``up`` list."""
    if L1.dim != L2.dim:
        return LatticeIso(False, certificate=f"dimension mismatch: {L1.dim} != {L2.dim}")
    ranks1, ranks2 = ([L.ids(r) for r in range(-1, L.dim + 1)] for L in (L1, L2))
    fv1, fv2 = tuple(map(len, ranks1)), tuple(map(len, ranks2))
    if fv1 != fv2:
        return LatticeIso(False, certificate=f"f-vector mismatch: {fv1} != {fv2}")
    up1, down1, up2, down2 = L1.up, L1.down, L2.up, L2.down

    for level1, level2 in zip(ranks1, ranks2):
        sig1 = sorted((len(down1[e]), len(up1[e])) for e in level1)
        sig2 = sorted((len(down2[e]), len(up2[e])) for e in level2)
        if sig1 != sig2:
            return LatticeIso(False, certificate="up/down cover degree multisets differ")

    targets = [level2 for level1, level2 in zip(ranks1, ranks2) for _ in level1]
    mapping: list[int] = []
    image = mapping.__getitem__
    used: set[int] = set()
    start = 0
    while len(mapping) < len(targets):
        s = len(mapping)
        below, rank = down1[s], targets[s]
        wanted_down = set(map(image, below))
        wanted = len(wanted_down)
        candidates = up2[mapping[below[0]]] if below else rank
        found = next((t for t in candidates
                      if t >= start and t in rank and t not in used
                      and len(up2[t]) == len(up1[s]) and len(down2[t]) == wanted
                      and wanted_down.issuperset(down2[t])), None)
        if found is not None:
            mapping.append(found)
            used.add(found)
            start = 0
            continue
        if not mapping:
            return LatticeIso(False, certificate="exhausted search: no cover-preserving bijection")
        start = mapping.pop()
        used.discard(start)
        start += 1

    if any(tuple(sorted(map(image, up1[a]))) != up2[t] for a, t in enumerate(mapping)):
        raise InternalInvariantError("lattice bijection failed final cover verification")
    return LatticeIso(True, mapping=tuple((L1.faces_by_id[s], L2.faces_by_id[t])
                                          for s, t in enumerate(mapping)))
