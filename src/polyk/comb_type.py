"""Combinatorial type: recover the face lattice from unsigned incidence data
and decide lattice isomorphism between polytopes.

The absolute values of the boundary-matrix entries record exactly the
covering relation of the face lattice; transitive closure then recovers the
whole order, so the unsigned complex determines the combinatorial type.  The
reconstruction is checked against the lattice axioms on int bitmasks: the
order is kept as bitset down-sets, and the meet of two elements exists iff
the intersection of their down-sets is the down-set of its last element in
rank order.
Isomorphism testing is rank-by-rank backtracking, pruned by f-vector and
up/down cover degrees, returning either a verified bijection on faces or a
certificate of non-isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from .cellular import ChainComplex
from .errors import InternalInvariantError
from .linalg import IntMatrix, int_mat_abs
from .polytope import FaceLattice

Element = Hashable


@dataclass(frozen=True)
class UnsignedIncidence:
    """Entrywise absolute values of the boundary matrices."""

    matrices: tuple[IntMatrix, ...]


def strip_signs(X: ChainComplex) -> UnsignedIncidence:
    return UnsignedIncidence(matrices=tuple(int_mat_abs(m) for m in X.boundary))


@dataclass(frozen=True)
class AbstractLattice:
    """A graded lattice reconstructed without coordinates.

    Elements are (rank, index) pairs with rank from -1 (bottom) to dim (top).
    """

    dim: int
    f_vector: tuple[int, ...]
    covering: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    def elements(self, rank: int) -> tuple[tuple[int, int], ...]:
        return tuple((rank, i) for i in range(self.f_vector[rank + 1]))


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
    ``down[i]`` are the bitmasks of element i's upper and lower covers, and
    ``ds[i]``, ``1 << i`` OR'd with the ``ds`` of i's lower covers, is its
    down-set.  Checked in turn:

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
    elements = [e for r in range(-1, lat.dim + 1) for e in lat.elements(r)]
    number = {e: i for i, e in enumerate(elements)}
    up = [0] * len(elements)
    down = [0] * len(elements)
    for a, b in lat.covering:
        up[number[a]] |= 1 << number[b]
        down[number[b]] |= 1 << number[a]
    for rank in range(-1, lat.dim):
        for e in lat.elements(rank):
            if not up[number[e]]:
                raise InternalInvariantError(f"element {e} has no upper cover: not graded")
    for rank in range(0, lat.dim + 1):
        for e in lat.elements(rank):
            if not down[number[e]]:
                raise InternalInvariantError(f"element {e} has no lower cover: not graded")
    for rank in range(-1, lat.dim - 1):
        for low in lat.elements(rank):
            ups = up[number[low]]
            for high in lat.elements(rank + 2):
                mids = (ups & down[number[high]]).bit_count()
                if mids and mids != 2:
                    raise InternalInvariantError(
                        f"diamond property fails between {low} and {high}: {mids} mids")
    ds = [0] * len(elements)
    for i, below in enumerate(down):
        ds[i] = 1 << i
        while below:
            low = below & -below
            ds[i] |= ds[low.bit_length() - 1]
            below ^= low
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


def _normalize(L: "FaceLattice | AbstractLattice"
               ) -> tuple[int, list[range], list[set[int]], list[set[int]], list[Element]]:
    """Number the elements once, in rank order.  Returns the dimension, the
    numbers of each rank, the upper and the lower covers of each number as
    sets of numbers, and the elements by number."""
    if isinstance(L, FaceLattice):
        levels = [L.faces(j) for j in range(-1, L.dim + 1)]
    else:
        levels = [L.elements(r) for r in range(-1, L.dim + 1)]
    elements = [e for level in levels for e in level]
    number = {e: i for i, e in enumerate(elements)}
    up: list[set[int]] = [set() for _ in elements]
    down: list[set[int]] = [set() for _ in elements]
    for a, b in L.covering:
        i, j = number[a], number[b]
        up[i].add(j)
        down[j].add(i)
    ranks, start = [], 0
    for level in levels:
        ranks.append(range(start, start + len(level)))
        start += len(level)
    return L.dim, ranks, up, down, elements


def is_isomorphic(L1: "FaceLattice | AbstractLattice",
                  L2: "FaceLattice | AbstractLattice") -> LatticeIso:
    """Backtracking search for a cover-preserving rank bijection.

    Prunes on f-vector and per-element (down-degree, up-degree), and extends
    rank by rank requiring the already-mapped lower covers to match exactly;
    a complete assignment is re-verified on all covering pairs in both
    directions before being returned: the bijection maps the upper covers
    of every element onto those of its image, which is the same as mapping
    the covering pairs of L1 onto those of L2.  The search runs on the
    element numbers of ``_normalize``; only the returned pairs are elements.
    """
    dim1, ranks1, up1, down1, elements1 = _normalize(L1)
    dim2, ranks2, up2, down2, elements2 = _normalize(L2)
    if dim1 != dim2:
        return LatticeIso(False, certificate=f"dimension mismatch: {dim1} != {dim2}")
    fv1 = tuple(len(r) for r in ranks1)
    fv2 = tuple(len(r) for r in ranks2)
    if fv1 != fv2:
        return LatticeIso(False, certificate=f"f-vector mismatch: {fv1} != {fv2}")

    for level1, level2 in zip(ranks1, ranks2):
        sig1 = sorted((len(down1[e]), len(up1[e])) for e in level1)
        sig2 = sorted((len(down2[e]), len(up2[e])) for e in level2)
        if sig1 != sig2:
            return LatticeIso(False, certificate="up/down cover degree multisets differ")

    # Depth-first search over the sources in rank order with an explicit
    # stack, since lattices can have more faces than Python's recursion
    # limit.  choice[i] is the index of the target placed for sources[i];
    # after a backtrack, the search resumes at the next target index.
    sources = [(r, s) for r, level in enumerate(ranks1) for s in level]
    mapping: dict[int, int] = {}
    used: list[set[int]] = [set() for _ in ranks1]
    choice: list[int] = []
    start = 0
    while len(choice) < len(sources):
        r, s = sources[len(choice)]
        targets = ranks2[r]
        wanted_down = {mapping[d] for d in down1[s]}
        found = next((t_idx for t_idx in range(start, len(targets))
                      if t_idx not in used[r] and len(up2[targets[t_idx]]) == len(up1[s])
                      and down2[targets[t_idx]] == wanted_down), None)
        if found is not None:
            mapping[s] = targets[found]
            used[r].add(found)
            choice.append(found)
            start = 0
            continue
        if not choice:
            return LatticeIso(False, certificate="exhausted search: no cover-preserving bijection")
        start = choice.pop()
        r, s = sources[len(choice)]
        del mapping[s]
        used[r].discard(start)
        start += 1

    if any({mapping[b] for b in up1[a]} != up2[mapping[a]] for a in mapping):
        raise InternalInvariantError("lattice bijection failed final cover verification")
    pairs = tuple((elements1[e], elements2[mapping[e]]) for level in ranks1 for e in level)
    return LatticeIso(True, mapping=pairs)
