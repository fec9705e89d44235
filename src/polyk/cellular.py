"""Oriented cellular chain complex of a polytope via the lifted cone.

Each face F is oriented by the basis A_F of the span of its lifted subcone
(the cone's generators at its span ids, greedy in vertex-index order: a
simplex face's vertex ids, any other face's ``FaceConeData.span_ids``),
its last column negated if F is flipped.  The trivialization is the set
of flipped face ids, a frozenset of the lattice's ids (``trivialize``).
For a covering pair (E, F) with edge ray e the incidence number is the
orientation sign of the basis B = [e | A_E] of span(F) against A_F:
sign det C for B C = A_F, which is
sign det(B^T A_F) since B^T A_F = (B^T B) C and det(B^T B) > 0.  (B is a
basis of span(F): e spans the line where span(F) meets span(E)^perp, and
A_E is a basis of span(E), as the checks of the ``ConeSystem``
certify.)

The cone stage has already decided that sign for the unflipped bases,
when the ``ConeSystem`` was built: ``ConeSystem.orientations[f]`` holds
the orientation sigma of every lower cover E of F, in ``down[f]`` order.
Two sources give a sign, and one rule gives the rest.  A pair with m = 0
reads sigma off F's certified adjugate with no ray made
(``cones.adjugate_column`` states the identities), and a pair into a
simplex face, which carries no face data, reads it off F's vertex tuple,
the simplicial boundary's (-1)^r.  A face with no m = 0 lower cover takes
one sign off F's basis coordinates, one m x m determinant with no ray
made (``cones._coordinate_sign``).  Every other pair is filled by the
diamond rule [G : E][E : F] + [G : E'][E' : F] = 0, which D_{j-1} D_j = 0
reads on the two faces E and E' between G and F (Bjoerner 1984, "Posets,
regular CW complexes and Bruhat order").  Each source has a witness, the
Gram determinant sign det([g | A_E]^T A_F), and the ``ChainComplex``
check below evaluates every diamond the fill did not cross.  A flip of F
negates a column of B^T A_F and a flip of E a row, so with eps = -1 for a
flipped face and +1 otherwise

    [E : F] = sigma * eps_E * eps_F,

with no further determinant per pair, in ``incidence_sign``, the one place
the flips are applied.  For (empty face, vertex) the ray is
a positive multiple of the lifted vertex, sigma = +1, and the empty face
cannot be flipped: the bottom boundary matrix is the all-ones augmentation
row.

The cone stage makes no ray, so it runs no barycenter cross-check of one.  On
every pair that check reduces to a fact of the dual masks and S >= 0,
some facet normal vanishing on E and not on F, which
``cones.check_dual_faces`` states and certifies for every covering pair
when the ``ConeSystem`` is built; an m = 0 pair also takes the
principal-minor check of ``cones.adjugate_pair_fault``.  The
per-pair ray and its barycenter check (``cones.edge_ray``,
``cones.edge_ray_crosscheck``) are the tests' oracle.

Boundary matrices are integer matrices over the stable (lexicographic by
vertex set) face ordering, the lattice's face ids.  They are built, kept in
the ``ChainComplex`` and read as sparse columns, {row: [E : F]} over the
lower covers E of each face F; only a printed matrix is densified
(``ChainComplex.matrix``).  Assembling the complex walks the id covers
once, in lattice order (the faces F of dimension j, then each F's lower
covers E): it takes the checked orientations of F's covering pairs in one
pass, and computes each [E : F] into F's column.
Every ``ChainComplex`` verifies the consecutive-product identity when it
is made, aborting loudly on any failure, so ``homology_pair`` need not
repeat it.  The product D_{j-1} D_j is formed column by column over the
nonzero entries of D_j only,

    (D_{j-1} D_j)[., F] = sum over E with [E : F] != 0 of [E : F] D_{j-1}[., E],

which is every entry of the dense product, since each term it leaves out
has the factor [E : F] = 0.

Homology reads the rank of each boundary matrix off an acyclic matching
of the augmented complex (``sparse.acyclic_matching``, Forman 1998): the
pairs of D_j, matched on +-1 entries, span a unimodular triangular block,
certified on the columns.  With D_{j-1} D_j = 0, a level whose cells are
all matched pins both maps at it: each has rank equal to its pair count
and every invariant factor 1 (the argument is in ``homology_pair``).  A
perfect matching is an explicit contraction of the complex, the exactness
that makes the Wiener-Hopf algebra KK-contractible.  Only a map pinned at
neither end goes to the dense Smith normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .cones import ConeSystem
from .errors import InternalInvariantError
from .linalg import IntMatrix, smith_normal_form
from .polytope import Face, FaceLattice, face_label
from .sparse import SparseColumn, acyclic_matching, dense_matrix


def trivialize(L: FaceLattice, flip_faces: Iterable[Face] = ()) -> frozenset[int]:
    """The orientation of every face of the lattice: the ids, in L, of the
    requested flips.  Each face is oriented by the span basis A_F of its
    face data, its last column negated when its id is in the set, which
    reverses its orientation.  Each flip must be a nonempty face of L: the
    empty face has no column to flip."""
    flips = tuple(flip_faces)
    for f in flips:
        if f.dim < 0:
            raise ValueError("the empty face has no basis column to flip")
        if f not in L.face_id:
            raise ValueError(f"cannot flip {f}: it is not a face of the lattice")
    return frozenset(L.face_id[f] for f in flips)


def incidence_sign(flipped: frozenset[int], sigma: int, e: int, f: int) -> int:
    """[E : F] for the covering pair of face ids (e, f); always +1 or -1.

    It is sigma * eps_E * eps_F, with sigma the pair's orientation and
    eps = -1 for a face whose id is in ``flipped``: sigma is the sign
    det(B^T A_F) for the edge ray's direction e, B = [e | A_E] and the
    unflipped bases, as ``ConeSystem.orientations`` holds it: read off an
    adjugate, taken by the general route, or filled by the diamond rule
    (Bjoerner 1984; see the module docstring).
    """
    return sigma * (-1) ** ((e in flipped) + (f in flipped))


@dataclass(frozen=True)
class ChainComplex:
    """Integer boundary matrices of the augmented cellular complex, as
    sparse columns.

    ``columns[j]`` is D_j, which maps dimension-j chains to dimension-(j-1)
    chains: one {row: entry} dict of its nonzero entries per j-face, rows and
    columns ordered like ``face_order``; ``face_order[k]`` lists the vertex
    sets of the faces of dimension k - 1.  ``matrix(j)`` is D_j dense.

    The constructor checks the shapes, then D_{j-1} D_j = 0 for every j on
    the sparse columns (``boundary_squared_entry``), naming the faces of the
    first nonzero entry of the product.  The generated ``__init__`` calls
    ``__post_init__`` on ``dataclasses.replace`` too, so no instance is made
    without the checks.  The sparse columns are dicts; they must not be
    changed after the complex is made.
    """

    dim: int
    columns: tuple[tuple[SparseColumn, ...], ...]
    face_order: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self) -> None:
        f = self.f_vector
        if len(f) != self.dim + 2 or len(self.columns) != self.dim + 1:
            raise InternalInvariantError(
                f"a {self.dim}-complex has {self.dim + 2} face levels and {self.dim + 1} maps")
        for j, cols in enumerate(self.columns):
            if len(cols) != f[j + 1] or not all(
                    x and 0 <= i < f[j] for col in cols for i, x in col.items()):
                raise InternalInvariantError(
                    f"D_{j} is not {f[j]} x {f[j + 1]} in sparse columns without stored zeros")
        for j in range(1, self.dim + 1):
            bad = boundary_squared_entry(self.columns[j - 1], self.columns[j])
            if bad is not None:
                row, col, value = bad
                low, high = self.face_order[j - 1][row], self.face_order[j + 1][col]
                raise InternalInvariantError(f"boundary squared nonzero at j={j}: entry "
                                             f"({face_label(low)}, {face_label(high)}) = {value}")

    def matrix(self, j: int) -> IntMatrix:
        """D_j as a dense f_{j-1} x f_j matrix, for 0 <= j <= dim."""
        if not 0 <= j <= self.dim:
            raise ValueError(f"boundary dimension {j} out of range [0, {self.dim}]")
        return dense_matrix(self.columns[j], len(self.face_order[j]))

    def face_labels(self, j: int) -> tuple[tuple[int, ...], ...]:
        """The vertex sets of the faces of dimension j, for -1 <= j <= dim."""
        if not -1 <= j <= self.dim:
            raise ValueError(f"face dimension {j} out of range [-1, {self.dim}]")
        return self.face_order[j + 1]

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.face_order)


def boundary_columns(flipped: frozenset[int], system: ConeSystem, j: int) -> list[SparseColumn]:
    """The columns of D_j as {row: [E : F]} dicts, one per j-face F of the
    system's lattice in order; the row of a (j-1)-face is its id minus its
    level's first id.  Each lower cover E of F is one covering pair, visited
    once: its orientation sigma, which the system set and checked when it
    was built (``ConeSystem.orientations``), gives the incidence sign."""
    L = system.lattice
    if not 0 <= j <= L.dim:
        raise ValueError(f"boundary dimension {j} out of range [0, {L.dim}]")
    first_row = L.level_start[j]
    columns = []
    for f in L.ids(j):
        columns.append({e - first_row: incidence_sign(flipped, sigma, e, f)
                        for e, sigma in zip(L.down[f], system.orientations[f])})
    return columns


def boundary_squared_entry(lower: Sequence[SparseColumn],
                           upper: Sequence[SparseColumn]) -> tuple[int, int, int] | None:
    """The first nonzero entry (g, f, value) of D_{j-1} D_j in row-major
    order, or None when the product is zero, from the sparse columns of
    D_{j-1} (``lower``) and D_j (``upper``).

    Column f of the product is accumulated as the sum of
    D_j[e, f] * D_{j-1}[., e] over the nonzero entries of column f of D_j
    only: every term the dense product adds besides these carries the
    factor D_j[e, f] = 0, so these are exactly the entries of D_{j-1} D_j.
    """
    first = None
    for f, col in enumerate(upper):
        acc: dict[int, int] = {}
        for e, s in col.items():
            for g, t in lower[e].items():
                acc[g] = acc.get(g, 0) + s * t
        for g, x in acc.items():
            if x and (first is None or (g, f) < first[:2]):
                first = (g, f, x)
    return first


def build_complex(flipped: frozenset[int], system: ConeSystem) -> ChainComplex:
    """Assemble all boundary matrices of the system's lattice and verify
    the complex exactly.

    Walks the covering pairs once, by ``boundary_columns`` for j = 0..dim,
    face by face, reading the orientation sigma of each lower cover E of a
    face F off ``ConeSystem.orientations``, with no second path: each
    pair with m = 0 read off F's certified adjugate, one pair of a face
    with no such cover by one sign determinant off F's adjugate, every
    other pair filled by the diamond rule, no ray made on any, and each
    source witnessed by a Gram determinant.  ``incidence_sign`` then
    computes each [E : F] from sigma.  The ``ChainComplex`` it returns checks
    D_{j-1} @ D_j = 0 for every j on the sparse columns when it is made.
    Any failure aborts with the offending face pair.  The lattice is the
    one the system numbers its faces by, ``system.lattice``.
    """
    L = system.lattice
    columns = tuple(tuple(boundary_columns(flipped, system, j)) for j in range(0, L.dim + 1))
    face_order = tuple(tuple(f.vertex_set for f in L.faces(j)) for j in range(-1, L.dim + 1))
    return ChainComplex(dim=L.dim, columns=columns, face_order=face_order)


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: free rank plus invariant factors.

    Invariant factors are > 1 and form a divisibility chain, so equal groups
    have equal descriptors.
    """

    free_rank: int = 0
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise InternalInvariantError("negative free rank")
        prev = 1
        for n in self.invariant_factors:
            if n <= 1 or n % prev != 0:
                raise InternalInvariantError(
                    f"invariant factors {self.invariant_factors} are not a chain")
            prev = n

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{n}" for n in self.invariant_factors)
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.invariant_factors)}

    @classmethod
    def from_json(cls, data: dict) -> "AbelianGroup":
        return cls(free_rank=int(data["free_rank"]),
                   invariant_factors=tuple(int(x) for x in data["torsion"]))


ZERO_GROUP = AbelianGroup()
Z = AbelianGroup(free_rank=1)


class HomologyResult(NamedTuple):
    """The integral homology group of each degree.

    ``groups`` runs from ``min_degree`` (-1 for the augmented complex, 0 for
    the reduced complex without the augmentation row) up to the dimension.
    It is the one record of these groups: the K-theory report
    (``ktheory.KReport``) holds the two results of ``homology_pair`` and
    reads every group, and every deviation it states, off them.
    """

    augmented: bool
    groups: tuple[AbelianGroup, ...]

    @property
    def min_degree(self) -> int:
        return -1 if self.augmented else 0

    def degrees(self) -> range:
        return range(self.min_degree, self.min_degree + len(self.groups))

    def group(self, j: int) -> AbelianGroup:
        idx = j - self.min_degree
        if not 0 <= idx < len(self.groups):
            raise ValueError(f"degree {j} outside {list(self.degrees())}")
        return self.groups[idx]

    def is_trivial(self) -> bool:
        return all(g.is_trivial() for g in self.groups)

    def deviations_from_point(self) -> list[tuple[int, AbelianGroup]]:
        """(degree, group) for every degree whose group differs from the
        reduced homology of a point: Z in degree 0 and 0 elsewhere."""
        return [(j, g) for j, g in enumerate(self.groups, self.min_degree)
                if g != (Z if j == 0 else ZERO_GROUP)]

    def is_z_concentrated_in_degree_zero(self) -> bool:
        return not self.deviations_from_point()


def homology_pair(X: ChainComplex) -> tuple[HomologyResult, HomologyResult]:
    """Augmented and reduced integral homology, from the rank and the
    invariant factors of each boundary matrix.

    The argument below depends on D_{j-1} D_j = 0, which every
    ``ChainComplex`` was checked for when it was made.
    ``sparse.acyclic_matching`` then pairs its cells, certified: the m_j
    pairs of D_j span a unimodular triangular block, so rank D_j >= m_j.
    Level k holds the f_k faces of dimension k - 1, and D_j maps level
    j + 1 to level j.  Take a level k whose cells are all matched, each in
    one pair (of D_k or of D_{k-1}).  The
    map into it, D_k, and the map out of it, D_{k-1}, have
    rank D_k + rank D_{k-1} <= f_k, since D_{k-1} D_k = 0, while
    m_k + m_{k-1} = f_k.  So each rank equals its pair count, and its m x m
    unimodular minor makes every invariant factor 1.  A map with no such
    level at either end goes whole to the dense ``smith_normal_form``.

    Every polytope complex checked (the acceptance corpus, cubes and
    cross-polytopes up to dimension 6, random hulls of dimension 3 to 6) is
    matched perfectly, so no dense SNF runs.  Nothing bounds the fallback:
    a matching that left critical cells on a large polytope would send its
    maps, whole, to the dense SNF, which may not finish.

    The reduced complex drops the augmentation row (the empty-face
    generator), so its degree 0 sees no boundary below it.  A Smith
    diagonal is a divisibility chain, so its entries > 1 are the invariant
    factors of the torsion, as each ``AbelianGroup`` checks.
    """
    f = X.f_vector
    pairs = acyclic_matching(X.columns, f)
    m = [0, *map(len, pairs), 0]  # the pairs of D_j are m[j + 1]
    full = [m[k] + m[k + 1] == f[k] for k in range(len(f))]  # level k all matched
    factors = [(1,) * m[j + 1] if full[j] or full[j + 1]
               else smith_normal_form(dense_matrix(cols, f[j])).diagonal
               for j, cols in enumerate(X.columns)]
    ranks = [sum(1 for x in d if x != 0) for d in factors]
    # torsion of H_j comes from the map arriving from degree j+1: torsion[j + 1]
    torsion = [tuple(x for x in d if x > 1) for d in factors] + [()]

    def result(augmented: bool) -> HomologyResult:
        # rank of the boundary map leaving degree j downward: rank_out[j + 1]
        rank_out = [0, ranks[0] if augmented else 0, *ranks[1:], 0]
        return HomologyResult(augmented=augmented, groups=tuple(
            AbelianGroup(f[j + 1] - rank_out[j + 1] - rank_out[j + 2], torsion[j + 1])
            for j in range(-1 if augmented else 0, X.dim + 1)))

    return result(True), result(False)


def homology(X: ChainComplex, augmented: bool = True) -> HomologyResult:
    """Integral homology of the complex (see ``homology_pair``).

    With ``augmented=False`` the augmentation row (the empty-face generator)
    is dropped, so degree 0 sees no boundary below it.
    """
    aug, red = homology_pair(X)
    return aug if augmented else red


def diagonal_sign_equivalence(A: ChainComplex, B: ChainComplex) -> dict[tuple[int, int], int] | None:
    """Per-face signs eps with eps_E * A[E,F] = eps_F * B[E,F], or None.

    Both complexes must share shapes and unsigned support.  The signs are
    found by propagation over the covering graph, from +1 at the empty face
    and at the first cell of every other component, and every constraint is
    checked as the propagation crosses it, so a return value is a proof that
    the complexes are isomorphic via a diagonal +-1 map (and None a proof
    that they are not: a component fixes its signs up to one common sign).
    """
    if A.dim != B.dim or A.f_vector != B.f_vector:
        return None
    def unsigned(X: ChainComplex) -> list[list[SparseColumn]]:
        return [[{i: abs(x) for i, x in col.items()} for col in cols] for cols in X.columns]

    if unsigned(A) != unsigned(B):
        return None
    # the nonzero entries (E, F, A[E,F], B[E,F]), nodes keyed (dimension, index)
    entries = [((j - 1, row), (j, col), x, cb[row])
               for j, (cols_a, cols_b) in enumerate(zip(A.columns, B.columns))
               for col, (ca, cb) in enumerate(zip(cols_a, cols_b)) for row, x in ca.items()]
    # constraints: eps_E * A[E,F] = eps_F * B[E,F] over all covering entries
    nodes = [(j, i) for j in range(-1, A.dim + 1) for i in range(len(A.face_order[j + 1]))]
    edges: dict[tuple[int, int], list[tuple[tuple[int, int], int]]] = {n: [] for n in nodes}
    for e, f, a, b in entries:  # |a| = |b|, so eps_F = eps_E * sign(a * b)
        rel = 1 if a == b else -1
        edges[e].append((f, rel))
        edges[f].append((e, rel))
    eps: dict[tuple[int, int], int] = {}
    for root in nodes:  # the empty face first; each component of the graph from +1
        if root in eps:
            continue
        eps[root] = 1
        stack = [root]
        while stack:
            node = stack.pop()
            for other, rel in edges[node]:
                want = eps[node] * rel
                if other not in eps:
                    eps[other] = want
                    stack.append(other)
                elif eps[other] != want:
                    return None
    return eps
