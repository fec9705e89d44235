"""Combinatorial type: recover the face lattice from unsigned incidence data
and decide lattice isomorphism between polytopes.

The absolute values of the boundary-matrix entries record exactly the
covering relation of the face lattice; transitive closure then recovers the
whole order, so the unsigned complex determines the combinatorial type.  The
reconstruction is an ``AbstractLattice``, which checks the lattice axioms
as it is built, by the one rule ``GradedIds`` states and runs for every
lattice, a face lattice included: the graded axiom, the atom masks, which
an abstract lattice reads off its covers and a face lattice compares with
its vertex masks, distinct masks, the diamonds, as counts of paths of two
covers, and the meets, on pairs of lower covers of a common element.  So
the search reads the atom masks of either kind with no pass.
Isomorphism testing is a depth-first search over the bijections of the
atoms, pruned by f-vector and up/down cover degrees: the bottom maps to the
bottom, an atom to an unused atom of its up-degree, once the search first
backtracks only where the counts of coatoms it shares with the atoms
already placed agree, and every other element, with no test, to the one
element whose atom mask is the atom bijection applied to its own, one dict
lookup (Kaibel and Schwartz 2003: a face lattice is fixed by its atoms).
Every lattice that is built is ordered by containment of its atom masks,
which are distinct, so a complete assignment preserves the order both ways,
and so the covers: the search returns it, or a certificate of
non-isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from typing import Hashable, NamedTuple

from .cellular import ChainComplex
from .errors import InternalInvariantError
from .linalg import IntMatrix
from .polytope import GradedIds
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

    Elements, its abstract faces, are (rank, index) pairs of ints with rank
    from -1 (bottom) to dim (top), numbered level by level (``GradedIds``):
    (rank, i) has the id ``level_start[rank + 1] + i``, read as entry i of
    one list of ids per rank the f-vector lists, i >= 0, so that every
    cover naming an element shares one int, and is ``faces_by_id`` there.
    A pair listed twice in ``covering`` is one cover, and each ``down[i]``
    is ascending, whatever the order of ``covering``; a pair naming an
    element that the f-vector does not have, or that is not a pair of ints,
    such as a rank -1.0, is refused; a bool is an int.  Built, it checks
    the axioms as every lattice does (``GradedIds._verify_axioms``),
    storing the atom masks ``_number`` read off its covers and naming the
    two elements of the first repeated one.
    """

    dim: int
    f_vector: tuple[int, ...]
    covering: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    repeated_mask = "{0} and {1} lie above the same atoms"

    def __post_init__(self) -> None:
        start = tuple(accumulate(self.f_vector, initial=0))
        ids = [list(range(i, j)) for i, j in zip(start, start[1:])]  # rank r at r + 1
        down: list[set[int]] = [set() for _ in range(start[-1])]
        for a, b in self.covering:
            try:
                (ra, ia), (rb, ib) = a, b
                if ia < 0 or ib < 0 or ra < -1 or rb < -1:  # would wrap in ids
                    raise IndexError
                down[ids[rb + 1][ib]].add(ids[ra + 1][ia])
            except (IndexError, TypeError, ValueError):
                raise InternalInvariantError(f"cover ({a}, {b}) names no element") from None
        elements = tuple(chain.from_iterable(zip(repeat(r), range(len(level)))
                                             for r, level in enumerate(ids, -1)))
        union = self._number(elements, start, tuple(map(tuple, map(sorted, down))))
        object.__setattr__(self, "atom_masks", union)
        self._verify_axioms(union)


def lattice_from_incidence(U: UnsignedIncidence) -> AbstractLattice:
    """Rebuild the abstract face lattice from unsigned boundary matrices.

    Every row of D_j must have as many entries as its first row, which
    sets the column count.  The support of the matrices is taken as the
    covering relation, each row read once, as ``bytes(row)``: ``count`` of
    its 0s and 1s is the entry test, and ``find`` gives the columns of its
    1s, each cover a pair of (rank, index) elements made once per
    element.  An entry is 0 or 1, as an int or a bool; ``bytes`` refuses an
    entry that is no integer, a float such as 1.0 included, or that lies
    outside 0..255, and a row it refuses, or whose 0s and 1s do not fill
    it, holds a bad entry, the first of which in row order is named.  The
    result checks the lattice axioms of a polytope face lattice as it is
    built (``AbstractLattice``), and any failure means the incidence data
    is corrupt.
    """
    mats = U.matrices
    if not mats:
        raise InternalInvariantError("no incidence matrices")
    f_vector = [len(mats[0])] + [len(m[0]) if m else 0 for m in mats]
    for j in range(1, len(mats)):
        if len(mats[j]) != f_vector[j]:
            raise InternalInvariantError(
                f"incidence matrices dimensionally inconsistent at rank {j}")
    covering, elements = [], [[(r, i) for i in range(n)] for r, n in enumerate(f_vector, -1)]
    for j, m in enumerate(mats):
        below, above = elements[j], elements[j + 1]  # ranks j - 1 and j
        for r, row in enumerate(m):
            if len(row) != f_vector[j + 1]:
                raise InternalInvariantError(f"D_{j} is ragged: row {r} has length {len(row)}, "
                                             f"row 0 has length {f_vector[j + 1]}")
            try:
                b = bytes(row)
            except (TypeError, ValueError):
                b = b""  # shorter than any row that holds an entry
            if b.count(0) + (ones := b.count(1)) != len(row):
                x = next(x for x in row if not hasattr(x, "__index__") or x not in (0, 1))
                raise InternalInvariantError(f"unsigned incidence entry {x} not in {{0, 1}}")
            low, c = below[r], -1
            for _ in range(ones):
                c = b.find(1, c + 1)
                covering.append((low, above[c]))
    return AbstractLattice(dim=len(mats) - 1, f_vector=tuple(f_vector), covering=tuple(covering))


class LatticeIso(NamedTuple):
    """A verified rank-preserving bijection, or a non-isomorphism certificate."""

    isomorphic: bool
    mapping: tuple[tuple[Element, Element], ...] | None = None
    certificate: str | None = None


def is_isomorphic(L1: GradedIds, L2: GradedIds) -> LatticeIso:
    """Depth-first search over the bijections π of the atoms for a lattice
    isomorphism.

    Returns the isomorphism as pairs of faces or abstract elements, or a
    certificate of non-isomorphism: unequal dimensions, unequal f-vectors,
    unequal multisets of (down-degree, up-degree) on some rank, or an
    exhausted search.  With equal f-vectors both lattices give rank r the
    ids ``ids(r)``.  The search runs on element ids, ``up``, ``down`` and
    atom masks (``GradedIds.atom_masks``: on an abstract lattice the pass
    its numbering made, on a face lattice its vertex masks, so the search
    makes no pass for them).

    The sources are placed in id order, that is rank by rank.  The bottom
    maps to the bottom.  Atom s takes the first atom t of L2, in id order,
    not yet taken, with s's up-degree; that sets π on s's bit.  Every
    source s above rank 0 takes ``first[key]``, the id of L2 whose atom
    mask is key, the OR of the masks of the images of s's lower covers,
    and makes no test; if no element of L2 has that mask, the search goes
    back to the last atom and resumes at its next target.

    *The identity.*  On every lattice that exists, x lies below y iff x's
    atom mask lies in y's: ``GradedIds._verify_axioms`` checks every cover
    a containment of atom masks, and its diamonds and meets make every
    element above the bottom the join of its atoms (``GradedIds``).  Let
    m1, m2 be the atom masks and f the mapping.  By induction in id order,
    ``m2[f(s)] == π(m1[s])`` for every source placed: both are 0 at the
    bottom, an atom's holds by the choice of π, and above rank 0 m1[s] is
    the OR of m1 over s's lower covers, each placed before s, so key is
    π(m1[s]), the mask of ``first[key]``.  π permutes the bits and the
    masks of L1 are distinct, so distinct sources get distinct targets,
    and a complete f is a bijection, the two lattices having equal size.
    By the identity, x <= y iff m1[x] lies in m1[y] iff π(m1[x]) lies in
    π(m1[y]) iff f(x) <= f(y): f preserves the order both ways, so it is
    an isomorphism, and it preserves covers both ways.  A complete
    assignment is returned with no further pass.  Conversely, every
    isomorphism g sends each mask by its own atom bijection π_g, so g is
    the mapping the search completes once it has placed the atoms as g.

    *Atoms by coatom counts.*  Atom s is placed at t only if, for every
    earlier atom a, as many coatoms hold both s and a in L1 (by their atom
    masks) as hold both t and a's image in L2.  An isomorphism keeps these
    counts, and the up-degrees, so no π_g is cut.  The counts are needed
    only when the search goes back, so they are made then, with the atom
    masks of L1, and the atoms are placed again from the first, now
    pruned; a search that never goes back reads no mask of L1 (Kaibel and
    Schwartz 2003: a face lattice is fixed by its atoms and coatoms).  The
    atoms are tried in id order and pruned only by properties that every
    isomorphism has, and the other targets follow from them, so the first
    mapping found is the least isomorphism in id order.  The stack is
    explicit, since lattices can have more faces than Python's recursion
    limit.
    """
    if L1.dim != L2.dim:
        return LatticeIso(False, certificate=f"dimension mismatch: {L1.dim} != {L2.dim}")
    fv1, fv2 = tuple(L1.f_vector), tuple(L2.f_vector)
    if fv1 != fv2:
        return LatticeIso(False, certificate=f"f-vector mismatch: {fv1} != {fv2}")
    for r in map(L1.ids, range(-1, L1.dim + 1)):
        sig1, sig2 = (sorted(zip(map(len, L.down[r.start:r.stop]), map(len, L.up[r.start:r.stop])))
                      for L in (L1, L2))
        if sig1 != sig2:
            return LatticeIso(False, certificate="up/down cover degree multisets differ")

    atoms, down1, up1, up2, masks2 = L1.ids(0), L1.down, L1.up, L2.up, L2.atom_masks
    first = dict(zip(masks2, range(len(masks2))))  # mask -> id
    # mapping[s] is the target id placed for source s, the bottom's first;
    # used holds the atoms' targets.  After going back, the search resumes
    # the last atom at its next target, start
    mapping, used = [0], set()
    # holding[a]: the bitmask of the coatoms whose masks hold atom a, made on the first backtrack
    start, holding1, holding2 = 0, None, None
    while len(mapping) < len(masks2):
        s = len(mapping)
        if s >= atoms.stop:
            key = 0
            for e in down1[s]:
                key |= masks2[mapping[e]]
            if key in first:
                mapping.append(first[key])
                continue
            del mapping[atoms.stop:]
        else:
            counts = [(holding2[mapping[a]], (holding1[s] & holding1[a]).bit_count())
                      for a in range(atoms.start, s)] if holding1 else ()
            t = next((t for t in range(max(start, atoms.start), atoms.stop)
                      if t not in used and len(up2[t]) == len(up1[s])
                      and all((holding2[t] & h).bit_count() == n for h, n in counts)), None)
            if t is not None:
                mapping.append(t)
                used.add(t)
                start = 0
                continue
        if len(mapping) == atoms.start:
            return LatticeIso(False, certificate="exhausted search: no cover-preserving bijection")
        if holding1 is None:  # the first backtrack: prune the atoms, and place them again
            holding1, holding2 = ({a: sum(1 << c for c, m in enumerate(
                L.atom_masks[L.level_start[L.dim]:L.level_start[L.dim + 1]]) if m >> k & 1)
                for k, a in enumerate(atoms)} for L in (L1, L2))
            # a sentinel -1 in place of the first atom's target: the pop below resumes there
            mapping[atoms.start:], used = [-1], set()
        used.discard(mapping[-1])
        start = mapping.pop() + 1

    return LatticeIso(True, mapping=tuple(zip(L1.faces_by_id,
                                              map(L2.faces_by_id.__getitem__, mapping))))
