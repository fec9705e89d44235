"""V-representation polytopes, facet enumeration, and full face lattices.

A polytope is the convex hull of finitely many rational points that must all
be vertices of the hull, with the hull full-dimensional in its ambient space.
Faces are represented by their vertex index sets; the lattice always contains
the empty face (dimension -1) and the polytope itself.  It is built on int
bitmasks from the polytope down, level by level; a face's dimension is its
level minus one.  Three identities give each face's lower covers.  The
facets are P's lower covers, read from the facet list.  The interval below
a simplex face G, |G| = dim G + 1, is Boolean, so its lower covers are G
minus one vertex, each named by G's vertex set with one entry dropped.
Every face above a face that is not a simplex is not a simplex either, so
the Kaibel-Pfetsch closure step on the vertex-facet incidences, with the
facets as atoms, reaches every such face from P down, and it runs on those
faces alone.  Each level is sorted by vertex set as soon as it is
complete, and the faces are numbered once, from the bottom in that
order, with each face's lower covers as the ascending id tuples every
later stage reads.  The lattice checks its grading, its vertex masks
distinct and its atom masks, so that each face is the union of the
vertices below it, its diamonds, as counts of paths of two covers, and
its meets as it is built; a corrupt facet list fails there or in the
walk's check of level 0, naming a face.
The same Boolean interval spares the diamond and meet checks: a cheap
certificate on each face's vertex mask and covers leaves them only the
faces that fail it, faces that are not simplices on a sound lattice.  The
intersection closure of the facet vertex sets with one rational rank per
face, and the closure over the vertices alone, are the tests' oracles.

Facets come from the double description method on the homogenized integer
points, inserted one at a time, with combinatorial adjacency on bitmask zero
sets; the work grows with the facets found, not with the C(n, d) vertex
subsets.  Two identities keep it in integers and off per-pair scans.  The
starting cone is read off one adjugate: for the matrix B of d + 1
independent points as rows, B adj(B) = det(B) I, so column b of adj(B),
signed by det B, is the ray tight on every basis point but g_b.  Adjacency
reads an inverted zero-set index: with tight[j] the bitmask of the rays
tight on point j, the AND of tight[j] over a common zero set is the set of
rays whose zero sets contain it.  It runs once, in ``validate``, and the
facet list is stored on the polytope; every later stage reads it from
there.  The brute force over d-subsets that it replaced, and the
cofactor-kernel starting cone with a scan over every ray per pair, are the
tests' oracles (``tests/oracles.py``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from bisect import bisect_right
from functools import cached_property, reduce
from itertools import accumulate, chain, combinations, repeat
from math import gcd, lcm
from operator import and_, itemgetter
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError, InternalInvariantError
from .linalg import (
    IntEchelon,
    IntVector,
    Vector,
    first_independent,
    int_adjugate,
    int_dot,
    primitive_vector,
    qvec,
)


class Polytope(NamedTuple):
    """A validated rational polytope in V-representation.

    ``facets`` is the facet list ``validate`` computed.  It takes part in
    equality and hashing, but adds nothing to either: ``validate`` and
    ``convex_hull`` compute the facets from the vertices alone, so two
    polytopes with equal vertices have equal facets.
    """

    ambient_dim: int
    vertices: tuple[Vector, ...]
    facets: tuple[Facet, ...]
    name: str | None = None

    @property
    def nvertices(self) -> int:
        return len(self.vertices)


def face_label(vertex_set: Sequence[int]) -> str:
    """A face's printed name: its vertex indices in braces, as ``{0,2}``."""
    return "{" + ",".join(map(str, vertex_set)) + "}"


class Face(NamedTuple):
    """A face identified by the sorted indices of the vertices it contains.

    The empty tuple is the unique face of dimension -1.
    """

    vertex_set: tuple[int, ...]
    dim: int

    def __str__(self) -> str:
        return face_label(self.vertex_set)


class Facet(NamedTuple):
    """Supporting hyperplane <normal, x> <= offset, tight on vertex_set."""

    normal: IntVector
    offset: Fraction
    vertex_set: tuple[int, ...]


class GradedIds:
    """Elements numbered level by level from the bottom, rank r taking the
    ids ``ids(r)`` from ``level_start[r + 1]``: element i is
    ``faces_by_id[i]``, and ``down[i]`` and ``up[i]`` are the ids of its
    lower and upper covers; ``up[i]`` is ascending, read off ``down``.  A
    cover listed twice in some ``down[i]`` is an error, raised as ``up`` is
    read, so each cover is listed once in each.

    The axioms of a polytope face lattice are stated here once:

    - bounded: one element of rank -1 and one of rank dim;
    - graded: every element below the top has an upper cover and every
      element above the bottom a lower cover, every cover joins adjacent
      ranks, and the top has no upper cover;
    - diamond: two elements ``low`` and ``high`` two ranks apart, with
      ``low`` below ``high``, have exactly two elements between them.  The
      elements between are those that cover ``low`` and are covered by
      ``high``, so ``low`` lies below ``high`` iff a path of two covers
      joins them, and the elements between are counted by those paths:
      the times ``low`` occurs among the lower covers of high's lower
      covers, which ``_verify_diamonds`` reads per ``high``;
    - meets: every two elements have a meet, asked of the lower covers of
      a common element (``_verify_meets``).  The faces of a polytope are
      closed under intersection, but a face lattice given by hand need not
      be: four squares around two vertices, the pillow, pass every other
      axiom, and two of them meet in two edges;
    - distinct masks: distinct elements have distinct atom masks.  A face
      of a polytope is fixed by its vertex set (Ziegler, "Lectures on
      Polytopes", section 2.2), and a lattice whose intervals of length 2
      are diamonds is atomic (below).  ``verify_distinct`` checks it, and
      it is the one place where a repeated mask is refused.

    Each lattice checks them once, when it is built, in one method,
    ``_verify_axioms``, that its ``__post_init__`` calls last, after
    ``_number`` has refused a malformed shape and found each cover listed
    once.  Both kinds run it alike: ``verify_graded``, then the atom
    masks, ``verify_distinct`` on them included, then ``_verify_diamonds``,
    then ``_verify_meets``.  So every lattice that exists is a lattice in the
    sense stated here, every lower cover lies one rank down, at a lower
    id, and every later stage rests on that and checks it nowhere else.
    Any failure is an ``InternalInvariantError``.

    The atom masks (``atom_masks``) follow one rule: the k-th element of
    rank 0 has bit k, and every other element the OR of its lower covers'
    masks, the bottom none.  ``_number`` makes them in the loop over
    ``down`` that reads ``up``, the pass, and returns them: each element
    starts from its own bit, or none, and ORs in the masks of its lower
    covers as it lists itself above them.  Once the graded axiom holds,
    lower covers come first in id order and neither the bottom nor an atom
    has a lower cover but the bottom, so the pass follows the rule; on a
    poset that fails the graded axiom it is refused before any check reads
    it.  An abstract lattice stores the pass.  A face lattice takes its
    vertex masks as its atom masks, and, once they are distinct, compares
    them with the pass, which it keeps no copy of: the atoms are the
    vertices, in vertex order, and a face of dimension 1 or more is the
    union of its facets, as it is the convex hull of their vertices.  The
    first face whose vertex mask differs from the pass is the first whose
    mask is not the OR of its lower covers' vertex masks.  So on every
    lattice that exists every cover is a containment of atom masks, a
    strict one as the masks are distinct, and every check reads one mask,
    ``atom_masks``.

    On every lattice that exists, face or abstract, x lies below y iff x's
    atom mask lies in y's, and ``comb_type.is_isomorphic`` rests on this
    order.  A chain of covers nests the masks.  Conversely, the diamonds
    and the meets make every element above the bottom the join of its
    atoms (an atom is one; an element of rank r >= 1 is the join of two of
    its lower covers, each a join of atoms by induction), so nested masks
    put the join of x's atoms, x itself, below y.  So a poset with two
    elements whose masks nest but that no chain of covers joins is
    refused, by the meets if its diamonds hold.

    The simplex certificate (``simplex_certificate``) spares the diamond
    and meet checks most pairs.  It judges each element on its own, on its
    atom mask: an element G of rank r passes when its mask has r + 1 bits
    and it has exactly r + 1 lower covers.  The claims below hold on a
    lattice whose atom masks are distinct and whose graded axiom holds, so
    that its covers are strict containments of masks; each lattice checks
    these before its diamonds.

    - An element of rank r has at least r + 1 bits: a chain of r + 1
      lower covers, each one rank down, reaches the bottom, and each is a
      strict containment.
    - If G passes, each lower cover of G, of rank r - 1 and so of at least
      r bits, is G minus one bit, and, the masks being distinct, the r + 1
      of them are all the elements G - u.
    - If G and every G - u pass, no pair (low, G) fails: a low that a path
      of two covers joins to G is a lower cover of some G - u, so, by the
      second claim on G - u, it is the element G - {u, v} for some v; the
      passing G - v covers it too, and no other G - w does, as low's mask
      holds w; so two elements lie between it and G.
    - If an element X of rank s has s + 1 bits and fails, some pair
      (low, high) fails with low of rank at most s - 2.  By induction on
      s: as in the second claim, X's lower covers are elements X - v, at
      most s + 1 of them, and as X fails, they are fewer, the X - v for v
      in some V.  For s = 1 X covers one atom, and one element lies between
      the bottom and X; an atom of one bit always passes, as the bottom is
      its only lower cover.  For s >= 2, if some X - v fails, the
      induction gives the pair; otherwise each X - v passes and covers
      every X - {v, w}.  Take v in V and w not in V: X - {v, w} lies under
      X - v, a path of two covers to X, and under no other lower cover
      X - u of X, whose mask lacks u, so one element lies between.

    So the first failing pair (low, G) in the check's order, by the rank
    of low, then by the ids of low and G, has a high that fails the
    certificate: were G to pass, some G - u would fail, by the third
    claim, and the fourth would give a failing pair whose low has rank at
    most r - 3, earlier in that order.  The diamond check reads only the highs that fail the
    certificate (``_verify_diamonds``), and it accepts the same lattices
    and names the same first failing pair as with every element a high.

    Once the diamonds hold, every element with rank + 1 bits, a simplex,
    passes, by the fourth claim.  So the elements below a simplex G are,
    by the second claim and induction, one simplex per subset of G's
    mask: the interval below G is Boolean.  Any two simplices G and H
    have a meet: an element below both has its mask in the intersection M
    of theirs, and each element whose mask lies in M is the one below G
    with that mask and the one below H, the masks being distinct.  So the
    elements below both are those below the element of mask M below G,
    which is their meet.  The meet check reads the elements just above the
    same highs (``_verify_meets``).
    """

    faces_by_id: tuple
    level_start: tuple[int, ...]
    f_vector: tuple[int, ...]
    down: tuple[tuple[int, ...], ...]
    up: tuple[tuple[int, ...], ...]
    atom_masks: tuple[int, ...]

    def _number(self, faces_by_id: tuple, level_start: tuple[int, ...],
                down: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
        """Stores the numbering and reads ``up`` off ``down``, after
        refusing a malformed shape: a dim below 0, an f-vector without one
        entry per rank from -1 to dim, a ``down`` without one list per
        element, or a cover id that names no element.  Returns the atom
        masks made in the same loop, the pass (see the class docstring)."""
        if not 0 <= self.dim == len(level_start) - 3:
            raise InternalInvariantError(f"dim {self.dim} does not fit f-vector {self.f_vector}")
        if len(down) != (n := level_start[-1]):
            raise InternalInvariantError(f"{len(down)} lists of lower covers for {n} elements")
        up: list[list[int]] = [[] for _ in down]
        masks = [0] * level_start[1] + [1 << k for k in range(level_start[2] - level_start[1])]
        masks += [0] * (n - len(masks))
        for f, below in enumerate(down):
            m = masks[f]
            for e in below:
                if not 0 <= e < n:
                    raise InternalInvariantError(
                        f"lower cover id {e} of {faces_by_id[f]} names no element")
                above = up[e]
                if above and above[-1] == f:
                    raise InternalInvariantError(
                        f"cover ({faces_by_id[e]}, {faces_by_id[f]}) is listed twice")
                above.append(f)
                m |= masks[e]
            masks[f] = m
        object.__setattr__(self, "faces_by_id", faces_by_id)
        object.__setattr__(self, "level_start", level_start)
        object.__setattr__(self, "down", down)
        object.__setattr__(self, "up", tuple(map(tuple, up)))
        return tuple(masks)

    def ids(self, rank: int) -> range:
        return range(self.level_start[rank + 1], self.level_start[rank + 2])

    def _verify_axioms(self, union: tuple[int, ...]) -> None:
        """The axioms (see the class docstring), in their order: the graded
        axiom, the atom masks, the diamonds, the meets.

        ``union`` is the pass ``_number`` returned, which an abstract
        lattice stores as its atom masks.  The atom masks must be distinct,
        a repeated mask named by the lattice's ``repeated_mask``
        (``verify_distinct``), and vertex masks must then equal the pass.
        On a failure, the first cover, by high and then as listed, whose
        low's mask does not lie in its high's is named, as a containment is
        what each cover must be; with none, the first face in id order
        whose mask breaks the rule.
        """
        self.verify_graded()
        self.verify_distinct()
        if (masks := self.atom_masks) != union:
            faces = self.faces_by_id
            for high, below in enumerate(self.down):
                for low in below:
                    if masks[low] & ~masks[high]:
                        raise InternalInvariantError(f"covering pair ({faces[low]}, {faces[high]}) "
                                                     "is not a strict vertex-set containment")
            f = next(f for f, m in enumerate(union) if m != masks[f])
            raise InternalInvariantError(f"face {faces[f]} is not the union of the vertices below it")
        self._verify_meets(chain.from_iterable(self._verify_diamonds()))

    def verify_graded(self) -> None:
        """The bounded and graded axioms (see the class docstring), checked
        by each lattice's ``__post_init__``.

        Every ``up`` is ascending, so the covers of rank r join adjacent
        ranks iff the least first entry and the greatest last entry of the
        ``up`` lists of rank r lie in ``ids(r + 1)``: a range test on the
        two ends of each list, by ``min`` and ``max`` over the level.  Only
        when a level fails is the first offending pair, in id order,
        searched for, to name it.
        """
        if self.f_vector[0] != 1 or self.f_vector[-1] != 1:
            raise InternalInvariantError(f"not bounded: f-vector {self.f_vector}")
        elements, up, down, start = self.faces_by_id, self.up, self.down, self.level_start
        if not all(up[:start[-2]]):  # below the top; the first () in up is there
            raise InternalInvariantError(f"{elements[up.index(())]} has no upper cover: not graded")
        if not all(down[start[1]:]):  # above the bottom
            i = next(i for i in range(start[1], len(down)) if not down[i])
            raise InternalInvariantError(f"{elements[i]} has no lower cover: not graded")
        for r in range(-1, self.dim):  # no level met is empty: the one below covers into it
            low, high = start[r + 2], start[r + 3]
            level = up[start[r + 1]:low]
            if (min(map(itemgetter(0), level)) < low
                    or max(map(itemgetter(-1), level)) >= high):
                e, f = next((e, f) for e in self.ids(r) for f in up[e] if not low <= f < high)
                how = "skips a rank" if f >= high else "does not go up a rank"
                raise InternalInvariantError(
                    f"cover ({elements[e]}, {elements[f]}) {how}: not graded")
        if up[-1]:
            raise InternalInvariantError(f"cover ({elements[-1]}, {elements[up[-1][0]]}) "
                                         "does not go up a rank: not graded")

    def verify_distinct(self) -> None:
        """The distinct-mask axiom (see the class docstring), checked by
        ``_verify_axioms`` on ``atom_masks``: the lattice's
        ``repeated_mask`` is formatted with the first element, in id order,
        whose mask an element e before it has, in the order (e, that
        element, e's level, its level), a level being a rank + 1.  Only
        when a set of the masks is smaller than their list is that element
        searched for, to name it."""
        if len(set(self.atom_masks)) < len(self.atom_masks):
            first: dict[int, int] = {}  # mask -> the least id that has it
            for f, m in enumerate(self.atom_masks):
                e = first.setdefault(m, f)
                if e != f:
                    raise InternalInvariantError(self.repeated_mask.format(
                        self.faces_by_id[e], self.faces_by_id[f],
                        *(bisect_right(self.level_start, i) - 1 for i in (e, f))))

    def _verify_diamonds(self) -> list[list[int]]:
        """The diamond axiom (see the class docstring), read after the
        lattice's other checks have passed.  Returns the highs it read,
        rank by rank from 0 (``simplex_certificate``).

        For each high, the lower covers of its lower covers hold each low
        below it once per path of two covers, so each must occur exactly
        twice: sorted, the list pairs up, ``lows[::2] == lows[1::2]``, with
        no two pairs alike.  Only a high that fails has its paths counted
        per low (``Counter``), to name its least failing low, and a rank
        that fails names its least failing (low, high), with the count.

        The highs are the elements that fail the simplex certificate, and
        the ranks are read from the lowest low up.  The class docstring
        shows that the first failing pair, with every element a high, has
        a high that fails it, so the check accepts the same lattices and
        names the same first failing pair.  On a simplicial polytope, only
        P over its ridges is left.
        """
        down, others = self.down, simplex_certificate(self)
        for highs in others[1:]:  # an atom has no low two ranks down
            failed = None  # (low, high, paths), the least low; the first high among equals
            for high in highs:
                lows = sorted([low for m in down[high] for low in down[m]])
                pairs = lows[::2]
                if pairs != lows[1::2] or len(set(pairs)) != len(pairs):
                    paths = Counter(lows)
                    low = min(low for low, n in paths.items() if n != 2)
                    if failed is None or low < failed[0]:
                        failed = low, high, paths[low]
            if failed:
                low, high, n = failed
                raise InternalInvariantError(
                    f"diamond property fails between {self.faces_by_id[low]} and "
                    f"{self.faces_by_id[high]}: {n} intermediate elements")
        return others

    def _verify_meets(self, others: Iterable[int]) -> None:
        """Every two lower covers of a common element have a meet, asked
        only of the elements just above ``others``, the elements that fail
        the simplex certificate, which are not simplices once the diamonds
        hold; any two simplices have a meet (see the class docstring).

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
        iff c has a unique maximal element.  Covers go up in id, so the
        highest-numbered element x of c is maximal in c.  Hence the meet
        exists iff ``c == ds[x]``: then every element of c lies below x;
        otherwise an element of c outside ``ds[x]`` lies below a second
        maximal element.  The down-sets are made only below the last element
        asked: on a simplicial polytope only the top fails the certificate,
        and no element lies above it, so none is made.  The elements asked
        are taken in ascending id order, and each one's lower covers are
        paired in ascending id order too, whatever the order of its
        ``down`` list, so the first failing pair named does not depend on
        how a lattice built by hand lists its covers.
        """
        asked = sorted({z for g in others for z in self.up[g]})
        ds: list[int] = []  # up to the last element asked: its lower covers have lower ids
        for i, below in enumerate(self.down[:asked[-1]] if asked else ()):
            d = 1 << i
            for b in below:
                d |= ds[b]
            ds.append(d)
        for a, b in chain.from_iterable(combinations(sorted(self.down[z]), 2) for z in asked):
            common = ds[a] & ds[b]
            if common != ds[common.bit_length() - 1]:
                raise InternalInvariantError(f"meet of {self.faces_by_id[min(a, b)]} and "
                                             f"{self.faces_by_id[max(a, b)]} is not unique: "
                                             "poset is not a lattice")


@dataclass(frozen=True)
class FaceLattice(GradedIds):
    """All faces of a polytope graded by dimension, with covering pairs.

    ``faces_by_dim[k]`` holds the faces of dimension ``k - 1`` (so index 0 is
    the empty face and index dim+1 the whole polytope), each level ordered
    lexicographically by vertex set.  The faces are numbered once, in that
    order (``GradedIds``): face i is ``faces_by_id[i]``, and ``down[i]``
    holds the ids of its lower covers (ascending, as ``face_lattice`` fills
    it); ``up`` is read off ``down``, each ascending.  ``vertex_masks[i]`` is
    the vertex bitmask of face i, given by whoever builds the lattice:
    ``face_lattice`` passes the masks its walk found, and the lattice
    derives none from the vertex sets.  ``covering`` (the pairs of faces
    (E, F), E covered by F, ordered by the id of F, then of E) and
    ``face_id`` (the id of a ``Face``) are views made on first use.

    Built, it refuses vertex masks that are not one per face, naming both
    counts, takes its vertex masks as its atom masks (``atom_masks`` is
    ``vertex_masks``), and checks the axioms as every lattice does
    (``GradedIds._verify_axioms``): its vertex masks must be the pass
    ``_number`` made, which it does not keep, and a repeated one is named
    as the face found at two levels.
    """

    dim: int
    faces_by_dim: tuple[tuple[Face, ...], ...]
    down: tuple[tuple[int, ...], ...]
    vertex_masks: tuple[int, ...] = field(compare=False, repr=False)
    f_vector: tuple[int, ...] = field(init=False)

    repeated_mask = "face {1} found at levels {2} and {3}"

    def __post_init__(self) -> None:
        object.__setattr__(self, "f_vector", tuple(map(len, self.faces_by_dim)))
        if len(self.vertex_masks) != sum(self.f_vector):
            raise InternalInvariantError(
                f"{len(self.vertex_masks)} vertex masks for {sum(self.f_vector)} faces")
        union = self._number(tuple(chain.from_iterable(self.faces_by_dim)),
                             tuple(accumulate(self.f_vector, initial=0)), self.down)
        object.__setattr__(self, "atom_masks", self.vertex_masks)
        self._verify_axioms(union)

    @cached_property
    def covering(self) -> tuple[tuple[Face, Face], ...]:
        faces = self.faces_by_id
        return tuple((faces[e], faces[f]) for f, below in enumerate(self.down) for e in below)

    @cached_property
    def face_id(self) -> dict[Face, int]:
        return {f: i for i, f in enumerate(self.faces_by_id)}

    def faces(self, j: int) -> tuple[Face, ...]:
        """Faces of dimension j, for -1 <= j <= dim."""
        if not -1 <= j <= self.dim:
            raise ValueError(f"face dimension {j} out of range [-1, {self.dim}]")
        return self.faces_by_dim[j + 1]


def set_bits(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of a nonnegative mask, in increasing
    order, one step per set bit (lowest first)."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return tuple(bits)


def _starting_cone(gens: Sequence[IntVector], basis: Sequence[int]
                   ) -> list[tuple[IntVector, int]]:
    """The rays of the simplicial cone {h : <h, g_c> >= 0 for c in basis},
    each with its zero set as a bitmask of the indices in ``basis``.

    With B the matrix whose rows are the basis points, B adj(B) = det(B) I
    (``int_adjugate`` certifies it), so column b of adj(B) vanishes on every
    basis point but g_b and takes det B on g_b.  Made primitive, and negated
    when det B < 0, it is the ray positive on g_b and tight on the others.
    """
    adj, det = int_adjugate([gens[c] for c in basis])
    full = sum(1 << c for c in basis)
    return [(primitive_vector(col if det > 0 else [-x for x in col]), full ^ 1 << c)
            for c, col in zip(basis, zip(*adj))]


def integer_grid(points: Sequence[Vector]) -> tuple[int, list[IntVector]]:
    """(scale, grid): the lcm ``scale`` of the points' coordinate
    denominators, and each point p as the integer tuple scale * p, each
    coordinate x.numerator * (scale // x.denominator).  Two points are equal
    exactly when their grid tuples are."""
    scale = lcm(*(x.denominator for p in points for x in p))
    return scale, [tuple([x.numerator * (scale // x.denominator) for x in p]) for p in points]


def _hull_facets(grid: tuple[int, Sequence[IntVector]], d: int) -> tuple[list[Facet], list[int]]:
    """The facets of the convex hull of the points of ``grid`` =
    (scale, scale * p_i) (``integer_grid``), by the double description
    method, with each facet's tight set as a bitmask of point indices.

    The grid points are homogenized to g_i = (1, scale * p_i), in
    integers.  The facets are the extreme rays of the cone
    {h : <h, g_i> >= 0 for all i}: the ray h = (b, -a) is the facet
    <a, x> <= b / scale, tight on the points with <h, g_i> = 0.  Redundant
    (non-extreme) points are allowed.

    The cone is built by inserting the points one at a time (Fukuda & Prodon
    1996, "Double description method revisited").  It starts from d + 1
    linearly independent points, whose cone is simplicial: with B the
    matrix of those points as rows, B adj(B) = det(B) I, so the columns of
    adj(B), signed by det B, are its rays, column b tight on every basis
    point but g_b (``_starting_cone``).  Inserting g keeps the rays h with
    <h, g> >= 0 and adds, for every adjacent pair h+, h- with
    <h+, g> > 0 > <h-, g>, the ray w = <h+, g> h- - <h-, g> h+, which is
    zero on g, made primitive by one gcd of its entries: an integer
    combination of integer rays, w has integer entries.  Each ray carries
    its zero set (the inserted points it is tight on) as a bitmask.
    Adjacency is decided combinatorially (Fukuda & Prodon, Prop. 7): two
    extreme rays of a pointed cone are adjacent iff their common zero set
    has at least d - 1 elements and no third extreme ray's zero set
    contains it.  The identity needs the rays
    to be exactly the extreme rays, which holds after every insertion.

    The third rays are found on an inverted zero-set index: ``tight[j]``,
    rebuilt on each insertion, is the bitmask of the current rays tight on
    point j, so the AND of ``tight[j]`` over j in ``common`` (every ray when
    ``common`` is empty) is the set of rays whose zero sets contain
    ``common``.  Each ray carries its zero set's bits too, decoded once,
    when the zero set is made, and read by every rebuild of the index and
    as its facet's vertex set.  It always holds p and n, so the AND can stop once it is
    {p, n}, and the pair is adjacent iff it ends there.  A primitive
    normal makes each facet's (normal, offset) unique, so the list, sorted
    by facet and so by (normal, offset), does not depend on the insertion
    order; each facet's tight set is its ray's zero set.

    The homogenized points span rank affine dim + 1, so fewer than d + 1
    independent ones is the input error of a hull that is not
    full-dimensional; on valid input it is the only rank ``validate`` takes.
    """
    if d == 0:
        return [], []
    scale, grid_points = grid
    gens = [(1,) + p for p in grid_points]
    basis, _ = first_independent(gens, d + 1)
    if len(basis) != d + 1:
        raise InputError(
            f"hull not full-dimensional: affine dimension {len(basis) - 1} < ambient {d}")
    # (h, zero set as a bitmask, its bits), the bits decoded once per zero set
    rays = [(h, z, set_bits(z)) for h, z in _starting_cone(gens, basis)]
    for i, g in enumerate(gens):
        if i in basis:
            continue
        bit = 1 << i
        values = [int_dot(r[0], g) for r in rays]
        kept = [r if v else (r[0], r[1] | bit, set_bits(r[1] | bit))
                for r, v in zip(rays, values) if v >= 0]
        minus = [(n, r[1]) for n, (r, v) in enumerate(zip(rays, values)) if v < 0]
        tight = [0] * len(gens)  # point j -> bitmask of the rays tight on it
        for k, r in enumerate(rays):
            for j in r[2]:
                tight[j] |= 1 << k
        everything = (1 << len(rays)) - 1
        for p, vp in enumerate(values):
            if vp <= 0:
                continue
            hp, zp, _ = rays[p]
            for n, common in [(n, zp & zn) for n, zn in minus
                              if (zp & zn).bit_count() >= d - 1]:
                pair = 1 << p | 1 << n
                contain, rest = everything, common
                while rest and contain != pair:
                    low = rest & -rest
                    contain &= tight[low.bit_length() - 1]
                    rest ^= low
                if contain != pair:
                    continue
                hn, vn = rays[n][0], values[n]
                w = [vp * a - vn * b for a, b in zip(hn, hp)]
                if not (q := gcd(*w)):
                    raise InternalInvariantError("zero vector has no primitive form")
                kept.append((tuple([x // q for x in w]), common | bit, set_bits(common | bit)))
        rays = kept
    facet_list = sorted((Facet(normal=tuple([-x for x in h[1:]]), offset=Fraction(h[0], scale),
                               vertex_set=bits), z) for h, z, bits in rays)
    return [f for f, _ in facet_list], [z for _, z in facet_list]


def _hull(grid: tuple[int, Sequence[IntVector]], d: int) -> tuple[list[Facet], list[int]]:
    """The facets of the hull of the points of ``grid`` (``integer_grid``)
    and the indices of the points that are not its vertices, for distinct
    points with a full-dimensional hull.

    A listed point is a vertex iff the tight sets of the facets through it
    meet in that point alone: every face, a vertex too, is the intersection
    of the facets that contain it, and a point on no facet is interior.
    """
    facet_list, masks = _hull_facets(grid, d)
    n = len(grid[1])
    return facet_list, [i for i in range(n)
                        if reduce(and_, [m for m in masks if m >> i & 1], (1 << n) - 1) != 1 << i]


def _checked_points(points: Sequence[Sequence]
                    ) -> tuple[list[Vector], int, tuple[int, list[IntVector]]]:
    """(points, d, grid): the points as rational vectors, their common
    coordinate count d and their ``integer_grid``, the input checks of both
    ``validate`` and ``convex_hull``.  Rejects, in this order and naming the
    offending index: an empty list, inconsistent coordinate counts and
    duplicate points."""
    if not points:
        raise InputError("empty vertex list")
    pts = [qvec(v) for v in points]
    d = len(pts[0])
    for i, p in enumerate(pts):
        if len(p) != d:
            raise InputError(f"vertex {i} has {len(p)} coordinates, expected {d}")
    grid = integer_grid(pts)
    seen: dict[IntVector, int] = {}
    for i, p in enumerate(grid[1]):
        if p in seen:
            raise InputError(f"duplicate vertex: {i} equals {seen[p]}")
        seen[p] = i
    return pts, d, grid


def validate(vertices: Sequence[Sequence], name: str | None = None) -> Polytope:
    """Validate a vertex list and build a Polytope.

    Rejects, in this order and naming the offending index: the input
    errors of ``_checked_points``, a hull that is not full-dimensional,
    and listed points that are not extreme.  The last two come from the one
    facet computation (``_hull``): its starting basis decides the affine
    dimension, and its facets which points are extreme.
    """
    pts, d, grid = _checked_points(vertices)
    facet_list, inner = _hull(grid, d)
    if inner:
        i = inner[0]
        tight = [f.normal for f in facet_list if i in f.vertex_set]
        raise InputError(f"point {i} not extreme (tight facet normals span "
                         f"only {IntEchelon(tight).rank} of {d} dimensions)")
    return Polytope(ambient_dim=d, vertices=tuple(pts), facets=tuple(facet_list), name=name)


def convex_hull(points: Sequence[Sequence], name: str | None = None) -> Polytope:
    """The polytope conv(points), on those of the points that are its vertices.

    The points must pass the input checks ``validate`` makes
    (``_checked_points``), and their hull must be full-dimensional.  The
    facets are computed once, for all the points, and their tight sets are
    then restricted to the vertices.
    """
    pts, d, grid = _checked_points(points)
    facet_list, inner = _hull(grid, d)
    keep = [i for i in range(len(points)) if i not in inner]
    new_index = {old: new for new, old in enumerate(keep)}
    restricted = tuple(
        Facet(normal=f.normal, offset=f.offset,
              vertex_set=tuple(new_index[i] for i in f.vertex_set if i in new_index))
        for f in facet_list)
    return Polytope(ambient_dim=d, vertices=tuple(pts[i] for i in keep),
                    facets=restricted, name=name)


def facets(P: Polytope) -> tuple[Facet, ...]:
    """The complete, duplicate-free facet list with primitive integer normals."""
    return P.facets


def _closure_step(face: list, atoms: Sequence[tuple[int, int]], vfac: Sequence[int],
                  closure: dict[int, tuple[int, tuple[int, ...]]], found: dict[int, list]) -> None:
    """Records in ``found`` the lower covers of the walk's face record
    ``face`` (``face_lattice``), with vertex mask ``gv`` and facet mask
    ``gf``, by one closure step on the order dual of the lattice, with the
    facets as atoms and the vertex masks as coatoms (Kaibel & Pfetsch 2002,
    "Computing the face lattice of a polytope from its vertex-facet
    incidences").  ``atoms`` lists (facet bit, facet vertex mask), ``vfac``
    is the facet mask of each vertex, and ``closure`` maps the vertex mask
    of each face a step has met to its facet mask and vertex set, and gains
    the new ones.  A lower cover met again gains ``face`` as one more face
    it was found under.

    Each lower cover of G is G's meet with a facet outside it, and each
    such meet is a face.  The candidates are read off in one pass: for
    each facet j outside ``gf``, its meet ``hc = gv & vertex mask of j``,
    and ``gave[hc]``, the facets outside G that give hc.  A new face's
    facet mask is the AND of the facet masks of its vertices.  G covers
    the face hc iff ``facets(hc) & ~gf == gave[hc]``.  Proof: every facet
    of hc outside G has a candidate that holds hc, and ``gave[hc]`` is
    those whose candidate is hc.  So the test fails iff some candidate h2
    strictly holds hc, and the face h2, inside a facet outside G, lies
    strictly between hc and G.  Conversely, a face strictly between them
    lies in some facet j' outside G, whose candidate holds it, so j' is a
    facet of hc outside G but not in ``gave[hc]``.
    """
    gv, gf = face[1], face[2]
    gave: dict[int, int] = {}
    for bit, fv in atoms:
        if not gf & bit:
            hc = gv & fv
            gave[hc] = gave.get(hc, 0) | bit
    for hc, g in gave.items():
        known = closure.get(hc)
        if known is None:
            name = set_bits(hc)
            known = closure[hc] = (reduce(and_, map(vfac.__getitem__, name)), name)
        if known[0] & ~gf == g:
            e = found.get(hc)
            if e is None:
                found[hc] = [known[1], hc, known[0], [], face]
            else:
                e.append(face)


def face_lattice(P: Polytope) -> FaceLattice:
    """The full face lattice, from the empty face up to the polytope.

    Found from P down, level by level, each face's lower covers by one of
    three rules, which rest on three identities:

    - the facets are P's lower covers, so P, unless it is a simplex, reads
      them from ``P.facets``;
    - the interval below a simplex face G, |G| = dim G + 1, is Boolean
      (Ziegler, "Lectures on Polytopes", section 2.1), so G, P too if it
      is a simplex, covers G minus each one of its vertices, each named by
      G's vertex set with that entry dropped; the point, which has no
      facets, takes this rule;
    - every face above a face that is not a simplex is not a simplex
      either, since every face of a simplex is one, so every other face
      lies below P through faces that are not simplices, and one closure
      step on each of them (``_closure_step``) reaches them all.

    The face lattice is graded by dim + 1 (Ziegler, Thm 2.7), so a face at
    level k has dimension k - 1.  Each face is a record [vertex set, vertex
    mask, facet mask, lower covers, the records of the faces it was found
    under...], and each level is sorted by vertex set as soon as it is
    complete.  The faces are numbered once, from the bottom level up in
    ``GradedIds`` order: one pass appends each face's id to the lower-cover
    lists of the faces it was found under, so each list is the face's
    ``down``, ascending.  The walk starts level d + 1 as P alone and never
    adds to it; a level 0 that is not the empty face alone is an internal
    error, raised before the lattice is built, so that the message lists
    the level.

    The lattice then checks, as every lattice does (``GradedIds``), the
    bounded and graded axioms, its vertex masks distinct, naming a face
    found at two levels, that each face is the union of the vertices below
    it, the diamond axiom and the meets as it is built; the second
    identity, certified on each face of the lattice itself
    (``simplex_certificate``), spares the diamond and meet checks every
    pair below a simplex face.  A facet list that is not P's fails there
    or in the walk's own check, each naming a face: a facet with a vertex
    too few or a dropped facet leaves a diamond short, or a face at two
    levels; a face of a facet listed as a facet too puts a face at two
    levels; a facet with a vertex too many leaves vertices in level 0.
    """
    d, n = P.ambient_dim, P.nvertices
    facet_list = facets(P)
    atoms = [(1 << j, sum(1 << v for v in fc.vertex_set)) for j, fc in enumerate(facet_list)]
    vbit = [1 << v for v in range(n)]
    vfac = [0] * n  # vertex -> facet mask
    for bit, fv in atoms:
        for v in set_bits(fv):
            vfac[v] |= bit
    # a face: [vertex set, vertex mask, facet mask, lower covers, the faces above...]
    levels = [[[tuple(range(n)), (1 << n) - 1, 0, []]]]
    # vertex mask -> (facet mask, vertex set) of each face a closure step
    # met; the empty face, in every facet, is there from the start
    closure = {0: ((1 << len(atoms)) - 1, ())}
    for k in range(d + 1, 0, -1):
        found: dict[int, list] = {}  # vertex mask -> face
        get = found.get
        for face in levels[-1]:
            name, gv = face[0], face[1]
            if len(name) == k:  # a simplex: G minus each one of its vertices
                for j, v in enumerate(name):
                    ev = gv ^ vbit[v]
                    e = get(ev)
                    if e is None:
                        found[ev] = [name[:j] + name[j + 1:], ev, 0, [], face]
                    else:
                        e.append(face)
            elif k > d:  # P: its facets
                for (bit, fv), fc in zip(atoms, facet_list):
                    found[fv] = [fc.vertex_set, fv, bit, [], face]
            else:
                _closure_step(face, atoms, vfac, closure, found)
        levels.append(sorted(found.values(), key=itemgetter(0)))
    levels.reverse()
    for f, face in enumerate(chain.from_iterable(levels)):
        for above in face[4:]:
            above[3].append(f)
    if [face[1] for face in levels[0]] != [0]:
        listed = ", ".join(face_label(face[0]) for face in levels[0])
        raise InternalInvariantError("level 0 of the face lattice must hold the empty face {} "
                                     f"alone, found [{listed}]")
    return FaceLattice(dim=d, faces_by_dim=tuple(  # each Face made in C, by tuple.__new__
        tuple(map(tuple.__new__, repeat(Face), zip(map(itemgetter(0), level), repeat(k - 1))))
        for k, level in enumerate(levels)),
        down=tuple(map(tuple, map(itemgetter(3), chain.from_iterable(levels)))),
        vertex_masks=tuple(map(itemgetter(1), chain.from_iterable(levels))))


def simplex_certificate(L: GradedIds) -> list[list[int]]:
    """The highs the diamond check reads (``GradedIds._verify_diamonds``),
    rank by rank from 0 to ``L.dim``: the ids of the elements that fail the
    simplex certificate, each judged on its own, those whose atom mask
    does not have rank + 1 bits, or that do not have rank + 1 lower
    covers.  What passing it proves, on a lattice whose masks are
    distinct, is stated and proved in ``GradedIds``.
    """
    masks, down = L.atom_masks, L.down
    return [[g for g in L.ids(r) if masks[g].bit_count() != r + 1 or len(down[g]) != r + 1]
            for r in range(L.dim + 1)]
