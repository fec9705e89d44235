"""Combinatorial type: recover the face lattice from unsigned incidence data
and decide lattice isomorphism between polytopes.

The absolute values of the boundary-matrix entries record exactly the
covering relation of the face lattice; transitive closure then recovers the
whole order, so the unsigned complex determines the combinatorial type.  The
reconstruction is checked against the lattice axioms on int bitmasks: the
order is kept as bitset down-sets, and the meet of two elements exists iff
the intersection of their down-sets is the down-set of its last element in
rank order.
Isomorphism testing is rank-by-rank backtracking on the element ids and id
covers of the two lattices, pruned by f-vector and up/down cover degrees,
returning either a verified bijection on faces or a certificate of
non-isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import or_
from typing import Hashable

from .cellular import ChainComplex
from .errors import InternalInvariantError
from .linalg import IntMatrix
from .polytope import FaceLattice, GradedIds
from .sparse import dense_matrix

Element = Hashable


@dataclass(frozen=True)
class UnsignedIncidence:
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
    """

    dim: int
    f_vector: tuple[int, ...]
    covering: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    def __post_init__(self) -> None:
        start = tuple(accumulate(self.f_vector, initial=0))
        self._number(tuple((r, i) for r in range(-1, self.dim + 1)
                           for i in range(self.f_vector[r + 1])),
                     start, ((start[ra + 1] + a, start[rb + 1] + b)
                             for (ra, a), (rb, b) in self.covering))


def lattice_from_incidence(U: UnsignedIncidence) -> AbstractLattice:
    """Rebuild the abstract face lattice from unsigned boundary matrices.

    The support of the matrices is taken as the covering relation; the
    result is checked against the lattice axioms of a polytope face lattice
    (bounded, graded, diamond property, meets exist; see
    ``_verify_abstract_lattice``) and any failure means the incidence data
    is corrupt.
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
            for c, x in enumerate(row):
                if x not in (0, 1):
                    raise InternalInvariantError(f"unsigned incidence entry {x} not in {{0, 1}}")
                if x == 1:
                    covering.append(((j - 1, r), (j, c)))
    lat = AbstractLattice(dim=dim, f_vector=tuple(f_vector), covering=tuple(covering))
    _verify_abstract_lattice(lat)
    return lat


def _verify_abstract_lattice(lat: AbstractLattice) -> None:
    """The lattice axioms of a polytope face lattice, on int bitmasks.

    Elements are numbered in rank order, the bottom first; ``up[i]`` and
    ``down[i]`` are the bitmasks of element i's upper and lower covers
    (``cover_masks``), and ``ds[i]``, ``1 << i`` OR'd with the ``ds`` of
    i's lower covers (lower ids, so computed first), is its down-set.
    Checked in turn:

    - bounded: one element of rank -1 and one of rank dim;
    - graded: every element below the top has an upper cover and every
      element above the bottom a lower cover;
    - diamond: the elements between ``low`` and ``high`` two ranks apart are
      the set bits of ``up[low] & down[high]``, and there are none or two;
    - meets: for any a and b, ``c = ds[a] & ds[b]`` is a down-set, and the
      meet of a and b exists iff c has a unique maximal element.  Covers go
      up one rank (``lattice_from_incidence`` reads them off consecutive
      matrices), so numbers grow upward and the highest-numbered element x
      of c is maximal in c.  Hence the meet exists iff ``c == ds[x]``: then
      every element of c lies below x; otherwise an element of c outside
      ``ds[x]`` lies below a second maximal element.
    """
    if lat.f_vector[0] != 1 or lat.f_vector[-1] != 1:
        raise InternalInvariantError(
            f"reconstructed poset is not bounded: f-vector {lat.f_vector}")
    elements = lat.faces_by_id
    up, down = lat.cover_masks()
    for i in range(lat.level_start[-2]):  # below the top
        if not up[i]:
            raise InternalInvariantError(f"element {elements[i]} has no upper cover: not graded")
    for i in range(lat.level_start[1], len(elements)):  # above the bottom
        if not down[i]:
            raise InternalInvariantError(f"element {elements[i]} has no lower cover: not graded")
    for rank in range(-1, lat.dim - 1):
        for low in lat.ids(rank):
            ups = up[low]
            for high in lat.ids(rank + 2):
                mids = (ups & down[high]).bit_count()
                if mids and mids != 2:
                    raise InternalInvariantError(
                        f"diamond property fails between {elements[low]} and "
                        f"{elements[high]}: {mids} mids")
    ds: list[int] = []
    for i, below in enumerate(lat.down):
        ds.append(reduce(or_, (ds[b] for b in below), 1 << i))
    for i, a in enumerate(elements):
        ds_a = ds[i]
        for j in range(i + 1, len(elements)):
            common = ds_a & ds[j]
            if common != ds[common.bit_length() - 1]:
                raise InternalInvariantError(
                    f"meet of {a} and {elements[j]} is not unique: poset is not a lattice")


@dataclass(frozen=True)
class LatticeIso:
    """A verified rank-preserving bijection, or a non-isomorphism certificate."""

    isomorphic: bool
    mapping: tuple[tuple[Element, Element], ...] | None = None
    certificate: str | None = None


def is_isomorphic(L1: "FaceLattice | AbstractLattice",
                  L2: "FaceLattice | AbstractLattice") -> LatticeIso:
    """Backtracking search for a cover-preserving rank bijection.

    Prunes on f-vector and per-element (down-degree, up-degree), and extends
    rank by rank requiring the already-mapped lower covers to match exactly;
    a complete assignment is re-verified on all covering pairs in both
    directions before being returned: the bijection maps the upper covers
    of every element onto those of its image, which is the same as mapping
    the covering pairs of L1 onto those of L2.  The search runs on the
    lattices' element ids and id covers (``up``, ``down``); only the
    returned pairs are faces or abstract elements.
    """
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

    # Depth-first search over the sources in id order, that is rank by
    # rank, with an explicit stack, since lattices can have more faces than
    # Python's recursion limit.  mapping[s] is the target id placed for
    # source s; after a backtrack, the search resumes at the next target.
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
