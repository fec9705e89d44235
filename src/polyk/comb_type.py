"""Combinatorial type: recover the face lattice from unsigned incidence data
and decide lattice isomorphism between polytopes.

The absolute values of the boundary-matrix entries record exactly the
covering relation of the face lattice; transitive closure then recovers the
whole order, so the unsigned complex determines the combinatorial type.  The
reconstruction is an ``AbstractLattice``, which checks the lattice axioms
as it is built, by the one rule ``GradedIds`` states and runs for every
lattice, a face lattice included: the graded axiom, the atom masks, which
an abstract lattice reads off its covers and a face lattice compares with
its vertex masks, distinct masks, the diamonds on the atom masks, and the
meets, on pairs of lower covers of a common element.  So the search reads
the atom masks of either kind with no pass.
Isomorphism testing is backtracking in id order, rank by rank, on the
element ids, id covers and atom masks of the two lattices, pruned by
f-vector and up/down cover degrees.  An atom is placed only where the
counts of coatoms it shares with the atoms already placed agree, and every
other element's candidates are one dict lookup of the OR of its lower
covers' images' atom masks (Kaibel and Schwartz 2003: a face lattice is
fixed by its atoms and coatoms).  The search returns either a bijection
on faces that preserves covers both ways, with the test that places each
element as its only certificate, or a certificate of non-isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Hashable, NamedTuple

from .cellular import ChainComplex
from .errors import InternalInvariantError
from .linalg import IntMatrix
from .polytope import FaceLattice, GradedIds
from .sparse import dense_matrix

Element = Hashable


class UnsignedIncidence(NamedTuple):
    """Entrywise absolute values of the boundary matrices."""

    matrices: tuple[IntMatrix, ...]


def strip_signs(X: ChainComplex) -> UnsignedIncidence:
    f = X.f_vector
    return UnsignedIncidence(matrices=tuple(
        dense_matrix([{i: abs(x) for i, x in col.items()} for col in cols], f[j])
        for j, cols in enumerate(X.columns)))


@dataclass(frozen=True)
class AbstractLattice(GradedIds):
    """A graded lattice reconstructed without coordinates.

    Elements, its abstract faces, are (rank, index) pairs with rank from -1
    (bottom) to dim (top), numbered level by level (``GradedIds``): (rank, i)
    has the id ``level_start[rank + 1] + i`` and is ``faces_by_id`` there.
    A pair listed twice in ``covering`` is one cover, and each ``down[i]``
    is ascending, whatever the order of ``covering``; a pair naming an
    element that the f-vector does not have is refused.  Built, it checks
    the axioms as every lattice does (``GradedIds._verify_axioms``),
    storing the atom masks it reads off its covers and naming the two
    elements of the first repeated one.
    """

    dim: int
    f_vector: tuple[int, ...]
    covering: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    repeated_mask = "{0} and {1} lie above the same atoms"

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
        self._verify_axioms()


def lattice_from_incidence(U: UnsignedIncidence) -> AbstractLattice:
    """Rebuild the abstract face lattice from unsigned boundary matrices.

    Every row of D_j must have as many entries as its first row, which
    sets the column count.  The support of the matrices is taken as the covering
    relation, read row by row with the list methods ``count`` and ``index``
    (a row whose 0s and 1s do not fill it holds a bad entry, named first in
    row order); the result checks the lattice axioms of a polytope face
    lattice as it is built (``AbstractLattice``), and any failure means the
    incidence data is corrupt.
    """
    mats = U.matrices
    if not mats:
        raise InternalInvariantError("no incidence matrices")
    dim = len(mats) - 1
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
    return AbstractLattice(dim=dim, f_vector=tuple(f_vector), covering=tuple(covering))


class LatticeIso(NamedTuple):
    """A verified rank-preserving bijection, or a non-isomorphism certificate."""

    isomorphic: bool
    mapping: tuple[tuple[Element, Element], ...] | None = None
    certificate: str | None = None


def is_isomorphic(L1: "FaceLattice | AbstractLattice",
                  L2: "FaceLattice | AbstractLattice") -> LatticeIso:
    """Backtracking search for a cover-preserving rank bijection.

    Prunes on f-vector and per-element (down-degree, up-degree), and extends
    in id order, that is rank by rank, requiring the already-mapped lower
    covers to match exactly.  The search runs on the lattices' element ids,
    id covers (``up``, ``down``) and atom masks (``GradedIds.atom_masks``,
    on a face lattice its vertex masks, so no pass makes them); only the
    returned pairs are faces or abstract elements.

    The targets for a source s are the unused elements t of s's rank, in
    ascending id order, with s's up-degree and with ``set(down[t])`` the
    image W of s's lower covers; the first one is placed.  Every list of
    covers holds each cover once (``GradedIds``), and the images of one
    list are distinct, as the mapping is injective, so t matches iff
    ``down[t]`` has |W| entries, all in W, whatever the order of
    ``down[t]``, which a lattice built by hand may list in any order.
    Three identities make the search cheap, and the first mapping found is
    the least valid one in id order, since it prunes only by properties
    that every isomorphism has:

    - *candidates by mask.*  Any t with ``set(down[t]) == W`` has as its
      atom mask the OR of the masks of W, by the rule the masks are read
      off.  Every lattice checks its atom masks distinct as it is built
      (``GradedIds``), so for s above rank 0 the one candidate is the id of
      L2 with that mask: one dict lookup.  After the test above, the
      candidates are those of a scan of the rank, and so is the mapping.
      No candidate needs a rank test: for s
      at rank -1 or 0 the candidates are s's rank itself, and for s of
      rank r above the atoms, W is a nonempty set of images of rank r - 1,
      since s has a lower cover (``GradedIds``), and the test above makes
      ``down[t]`` equal to W; every cover joins adjacent ranks, so t has
      rank r.
    - *atoms by coatom counts.*  Atom s is placed at t only if, for every
      earlier atom a, as many coatoms hold both s and a in L1 (by their
      atom masks) as hold both t and a's image in L2.  An isomorphism maps
      atom masks to atom masks, so it keeps these counts, and no extendable
      placement is cut.  Kaibel and Schwartz (2003) show that a face
      lattice is fixed by its atoms and coatoms: once the atoms are placed,
      each other element is one lookup.  The counts are needed only when the
      search backtracks, so they are made then, with the atom masks of L1,
      and the atoms are placed again from the first, now pruned; a search
      that never backtracks reads no mask of L1.
    - *one certificate.*  Let a mapping f send each rank onto the same
      rank, each target once, with ``set(down[f(s)]) == f(down[s])`` for
      every s, the bottom and the atoms included.  Then (e, s) -> (fe, fs)
      sends covers of L1 to covers of L2, and every cover (e', fs) of L2
      has e' in f(down[s]), so comes from a cover of L1.  So every complete
      assignment preserves covers both ways, and it is returned with no
      further pass.
    """
    if L1.dim != L2.dim:
        return LatticeIso(False, certificate=f"dimension mismatch: {L1.dim} != {L2.dim}")
    fv1, fv2 = tuple(L1.f_vector), tuple(L2.f_vector)
    if fv1 != fv2:
        return LatticeIso(False, certificate=f"f-vector mismatch: {fv1} != {fv2}")
    # equal f-vectors number both lattices alike: rank r has the ids L1.ids(r) in both
    up1, down1, up2, down2 = L1.up, L1.down, L2.up, L2.down
    for r in map(L1.ids, range(-1, L1.dim + 1)):
        sig1, sig2 = (sorted(zip(map(len, L.down[r.start:r.stop]), map(len, L.up[r.start:r.stop])))
                      for L in (L1, L2))
        if sig1 != sig2:
            return LatticeIso(False, certificate="up/down cover degree multisets differ")

    atoms, masks2 = L1.ids(0), L2.atom_masks
    first = dict(zip(masks2, range(len(masks2))))  # mask -> id
    # Depth-first search over the sources in id order, that is rank by
    # rank, with an explicit stack, since lattices can have more faces than
    # Python's recursion limit.  mapping[s] is the target id placed for
    # source s; after a backtrack, the search resumes at the next target.
    targets = [r for r in map(L1.ids, range(-1, L1.dim + 1)) for _ in r]
    mapping: list[int] = []
    used: set[int] = set()
    # holding[a]: the bitmask of the coatoms whose masks hold atom a, made on the first backtrack
    start, holding1, holding2 = 0, None, None
    while len(mapping) < len(targets):
        s = len(mapping)
        below, rank = down1[s], targets[s]
        wanted_down = {mapping[e] for e in below}
        counts = [(holding2[mapping[a]], (holding1[s] & holding1[a]).bit_count())
                  for a in range(atoms.start, s)] if holding1 and s in atoms else ()
        key = 0
        for e in wanted_down:
            key |= masks2[e]
        candidates = rank if s < atoms.stop else (first[key],) if key in first else ()
        for t in candidates:
            if (t >= start and t not in used and len(up2[t]) == len(up1[s])
                    and len(down2[t]) == len(wanted_down) and wanted_down.issuperset(down2[t])
                    and (not counts or all((holding2[t] & h).bit_count() == n for h, n in counts))):
                mapping.append(t)
                used.add(t)
                start = 0
                break
        else:
            if not mapping:
                return LatticeIso(False, certificate="exhausted search: no cover-preserving bijection")
            if holding1 is None:  # the first backtrack: prune the atoms, and place them again
                holding1, holding2 = ({a: sum(1 << c for c, m in enumerate(
                    L.atom_masks[L.level_start[L.dim]:L.level_start[L.dim + 1]]) if m >> k & 1)
                    for k, a in enumerate(atoms)} for L in (L1, L2))
                # a sentinel -1 in place of the first atom's target: the pop below resumes there
                mapping[atoms.start:], used = [-1], set(mapping[:atoms.start])
            used.discard(mapping[-1])
            start = mapping.pop() + 1

    return LatticeIso(True, mapping=tuple(zip(L1.faces_by_id,
                                              map(L2.faces_by_id.__getitem__, mapping))))
