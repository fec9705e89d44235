"""Combinatorial type: recover the face lattice from unsigned incidence data
and decide lattice isomorphism between polytopes.

The absolute values of the boundary-matrix entries record exactly the
covering relation of the face lattice; transitive closure then recovers the
whole order, so the unsigned complex determines the combinatorial type.  The
reconstruction is checked against the lattice axioms, as ``GradedIds``
states them, on int bitmasks, and every check enumerates only the pairs a
cover can reach: the diamond property on the elements two covers up, and
meets, kept as bitset down-sets, on pairs of lower covers of a common
element, which suffices by the dual of a lemma of Bjorner, Edelman and
Ziegler (``_verify_meets``).
Isomorphism testing is backtracking in id order, rank by rank, on the
element ids and id covers of the two lattices, pruned by f-vector and
up/down cover degrees, with the candidates for an element read off the
upper covers of an image already placed.  It returns either a verified
bijection on faces or a certificate of non-isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import or_
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
    is ascending, whatever the order of ``covering``.
    """

    dim: int
    f_vector: tuple[int, ...]
    covering: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    def __post_init__(self) -> None:
        start = tuple(accumulate(self.f_vector, initial=0))
        down: list[set[int]] = [set() for _ in range(start[-1])]
        for (ra, a), (rb, b) in self.covering:
            down[start[rb + 1] + b].add(start[ra + 1] + a)
        self._number(tuple((r, i) for r in range(-1, self.dim + 1)
                           for i in range(self.f_vector[r + 1])),
                     start, tuple(tuple(sorted(below)) for below in down))


def lattice_from_incidence(U: UnsignedIncidence) -> AbstractLattice:
    """Rebuild the abstract face lattice from unsigned boundary matrices.

    Every row of D_j must have as many entries as its first row, which
    sets the column count.  The support of the matrices is taken as the covering
    relation, read row by row with the list methods ``count`` and ``index``
    (a row whose 0s and 1s do not fill it holds a bad entry, named first in
    row order); the result is checked against the lattice axioms of a
    polytope face lattice (``_verify_abstract_lattice``) and any failure
    means the incidence data is corrupt.
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
    lat = AbstractLattice(dim=dim, f_vector=tuple(f_vector), covering=tuple(covering))
    _verify_abstract_lattice(lat)
    return lat


def _verify_abstract_lattice(lat: AbstractLattice) -> None:
    """The lattice axioms of a polytope face lattice (``GradedIds``), on
    int bitmasks: bounded and graded, then the diamond property, then meets.

    An abstract lattice has no vertex sets, so the highs above ``low`` are
    those a path of two covers reaches, and the failure mask of ``low`` is
    ``once & (thrice | ~twice)``: some paths, but not exactly two.
    """
    lat.verify_graded()
    for rank in range(-1, lat.dim - 1):
        for low, once, twice, thrice in lat.two_step_paths(rank):
            bad = once & (thrice | ~twice)
            if bad:
                raise lat.diamond_error(low, rank, bad)
    _verify_meets(lat)


def _verify_meets(lat: AbstractLattice) -> None:
    """Every two lower covers of a common element have a meet.

    That suffices for every pair to have one, by the dual of Bjorner,
    Edelman & Ziegler 1990, "Hyperplane arrangements with a lattice of
    regions", Lemma 2.1: a bounded poset of finite length is a lattice if
    any two elements covered by a common element have a meet.  Proof, by
    induction upward on z: every a, b <= z have a meet.  If a or b is z,
    the other one is the meet.  Otherwise a <= a' and b <= b' for lower
    covers a', b' of z.  If a' = b', the induction at a' gives the meet.
    Otherwise a' and b' have a meet m, every common lower bound of a and b
    lies below m, the induction at a' gives the meet p of a and m, and the
    induction at b' gives the meet of p and b.  It is the meet of a and b:
    the common lower bounds of a and b are those of a, m and b, hence those
    of p and b.  A bounded finite poset in which every pair has a meet is a
    lattice: the join is the meet of the common upper bounds.

    ``ds[i]``, ``1 << i`` OR'd with the ``ds`` of i's lower covers (lower
    ids, so computed first), is element i's down-set.  For elements a and
    b, ``c = ds[a] & ds[b]`` is a down-set, and the meet of a and b exists
    iff c has a unique maximal element.  Covers go up in
    id (``lattice_from_incidence`` reads them off consecutive matrices), so
    the highest-numbered element x of c is maximal in c.  Hence the meet
    exists iff ``c == ds[x]``: then every element of c lies below x;
    otherwise an element of c outside ``ds[x]`` lies below a second maximal
    element.
    """
    ds: list[int] = []
    for i, below in enumerate(lat.down):
        ds.append(reduce(or_, (ds[b] for b in below), 1 << i))
    for below in lat.down:
        for k, a in enumerate(below):
            for b in below[k + 1:]:
                common = ds[a] & ds[b]
                if common != ds[common.bit_length() - 1]:
                    first, second = sorted((a, b))
                    raise InternalInvariantError(
                        f"meet of {lat.faces_by_id[first]} and {lat.faces_by_id[second]} "
                        "is not unique: poset is not a lattice")


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
    covers to match exactly; a complete assignment is re-verified on all
    covering pairs in both directions before being returned: the bijection
    maps the upper covers of every element onto those of its image, which
    is the same as mapping the covering pairs of L1 onto those of L2.  The
    search runs on the lattices' element ids and id covers (``up``,
    ``down``); only the returned pairs are faces or abstract elements.

    The targets for a source s are the unused elements t of s's rank, in
    ascending id order, with s's up-degree and with ``down[t]`` the image
    of s's lower covers; the first one is placed.  Such a t covers the
    image of s's first lower cover, so when s has lower covers, the
    candidates are read from that image's upper covers, ascending like
    every ``up``, rather than from the whole rank; the first match, and so
    the mapping, is the same.

    Every list of covers holds each cover once (``GradedIds``), and the
    images of one list are distinct, as the mapping is injective, so the
    set equalities the search needs are read off the lists as they are,
    with no copy of the target's lists and no set per target element.  A
    target t matches the set W of images of s's lower covers iff
    ``down[t]`` has |W| entries, all in W: then its set lies in W and has
    |W| elements.  That holds whatever the order of ``down[t]``, which a
    lattice built by hand may list in any order.  In the final check, the
    images of s's upper covers, sorted, must equal the tuple ``up[t]``:
    ``up`` is ascending, read off ``down``, and two ascending tuples
    without repeats are equal exactly when their sets are.
    """
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

    # Depth-first search over the sources in id order, that is rank by
    # rank, with an explicit stack, since lattices can have more faces than
    # Python's recursion limit.  mapping[s] is the target id placed for
    # source s; after a backtrack, the search resumes at the next target.
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
