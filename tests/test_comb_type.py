"""Unsigned incidence, lattice reconstruction, and isomorphism testing."""

import hashlib
import json
import random
import sys
from itertools import chain, combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyk.polytope as polytope
from polyk.cellular import build_complex, trivialize
from polyk.comb_type import (
    AbstractLattice,
    LatticeIso,
    UnsignedIncidence,
    is_isomorphic,
    lattice_from_incidence,
    strip_signs,
)
from polyk.cones import ConeSystem, lift
from polyk.corpus import (
    acceptance_corpus,
    cross_polytope,
    hypercube,
    simplex,
)
from polyk.errors import InternalInvariantError
from polyk.polytope import (
    Face,
    FaceLattice,
    face_lattice,
    simplex_certificate,
    validate,
)

from affine import apply_affine, random_invertible_affine
from oracles import (
    DictNumberedLattice,
    GradedPoset,
    UncheckedAbstractLattice,
    UncheckedFaceLattice,
    all_pairs_abstract_lattice,
    all_pairs_diamonds,
    all_pairs_meets,
    all_pairs_order_axioms,
    all_pairs_verify_abstract_lattice,
    all_pairs_verify_lattice,
    built,
    complex_from_dense,
    failure,
    lattice_from_pairs,
    pass_atom_masks,
    rank_scan_is_isomorphic,
    three_scan_lattice_from_incidence,
    up_scan_is_isomorphic,
)


def complex_of(poly):
    lat = face_lattice(poly)
    system = ConeSystem(lift(poly), lat)
    return lat, build_complex(trivialize(lat), system)


# --- strip_signs ---

def test_strip_signs_segment():
    _, x = complex_of(simplex(1))
    u = strip_signs(x)
    assert u.matrices[1] == ((1,), (1,))
    assert u.matrices[0] == ((1, 1),)  # augmentation row unchanged


def test_strip_signs_triangle():
    _, x = complex_of(simplex(2))
    u = strip_signs(x)
    for col in range(3):
        assert sum(u.matrices[1][r][col] for r in range(3)) == 2


# --- lattice_from_incidence ---

def test_reconstruct_triangle():
    lat, x = complex_of(simplex(2))
    rebuilt = lattice_from_incidence(strip_signs(x))
    assert rebuilt.f_vector == lat.f_vector
    iso = is_isomorphic(lat, rebuilt)
    assert iso.isomorphic


def test_reconstruct_point_two_chain():
    lat, x = complex_of(simplex(0, name="point"))
    rebuilt = lattice_from_incidence(strip_signs(x))
    assert rebuilt.f_vector == (1, 1)
    assert rebuilt.covering == ((((-1, 0)), (0, 0)),)


def test_reconstruct_square_cycle():
    lat, x = complex_of(hypercube(2))
    rebuilt = lattice_from_incidence(strip_signs(x))
    assert is_isomorphic(lat, rebuilt).isomorphic


def test_roundtrip_small_corpus(small_corpus):
    for poly in small_corpus:
        lat, x = complex_of(poly)
        assert is_isomorphic(lat, lattice_from_incidence(strip_signs(x))).isomorphic, poly.name


def test_reconstruct_names_first_bad_entry_in_row_order():
    # a row with a valid 1 before two bad entries, and a bad entry in a
    # later row and in the next matrix: the first in row order is named
    _, x = complex_of(simplex(2))
    mats = [list(list(r) for r in m) for m in strip_signs(x).matrices]
    assert mats[1][0][0] == 1
    mats[1][0][1:] = [4, 3]
    mats[1][1][0] = 5
    mats[2][0][0] = 6
    with pytest.raises(InternalInvariantError,
                       match=r"^unsigned incidence entry 4 not in \{0, 1\}$"):
        lattice_from_incidence(UnsignedIncidence(tuple(tuple(tuple(r) for r in m) for m in mats)))


def test_reconstruct_rejects_corrupt_incidence():
    _, x = complex_of(simplex(2))
    mats = [list(list(r) for r in m) for m in strip_signs(x).matrices]
    mats[1][0][0] = 0  # edge {0,1} loses a vertex: diamond/grading breaks
    with pytest.raises(InternalInvariantError):
        lattice_from_incidence(UnsignedIncidence(tuple(tuple(tuple(r) for r in m) for m in mats)))


def test_reconstruct_rejects_bad_entry():
    _, x = complex_of(simplex(1))
    mats = [list(list(r) for r in m) for m in strip_signs(x).matrices]
    mats[1][0][0] = 2
    with pytest.raises(InternalInvariantError, match="not in"):
        lattice_from_incidence(UnsignedIncidence(tuple(tuple(tuple(r) for r in m) for m in mats)))


@pytest.mark.parametrize("mats, message", [
    ((((1, 1),), ((1,), (1, 1))), "D_1 is ragged: row 1 has length 2, row 0 has length 1"),
    ((((1, 1),), ((1, 0), (1,))), "D_1 is ragged: row 1 has length 1, row 0 has length 2"),
], ids=["long-row", "short-row"])
def test_reconstruct_rejects_ragged_rows(mats, message):
    # every row is checked against the column count of row 0: a longer row
    # would name a column past the rank's last element, and a shorter one
    # would drop its covers and fail as some other fault
    with pytest.raises(InternalInvariantError) as err:
        lattice_from_incidence(UnsignedIncidence(mats))
    assert str(err.value) == message


def test_verify_abstract_lattice_rejects_two_maximal_lower_bounds():
    # two atoms a, b, both covered by c and by d: c and d are incomparable
    # and have two maximal common lower bounds, a and b; bounded, graded,
    # and every diamond has two middle elements, but c and d lie above the
    # same atoms, which the distinct-mask axiom refuses as it is built,
    # before the meets
    with pytest.raises(InternalInvariantError,
                       match=r"^\(1, 0\) and \(1, 1\) lie above the same atoms$"):
        AbstractLattice(dim=2, f_vector=(1, 2, 2, 1), covering=(
            ((-1, 0), (0, 0)), ((-1, 0), (0, 1)),
            ((0, 0), (1, 0)), ((0, 1), (1, 0)), ((0, 0), (1, 1)), ((0, 1), (1, 1)),
            ((1, 0), (2, 0)), ((1, 1), (2, 0))))


def test_verify_abstract_lattice_accepts_boolean_lattice():
    # every pair of subsets of a 5-set has a meet, their intersection: the
    # lattice is built, and so passes its checks
    n = 5
    levels = [list(combinations(range(n), k)) for k in range(n + 1)]
    index = [{s: i for i, s in enumerate(level)} for level in levels]
    covering = tuple(((k - 1, index[k][s]), (k, index[k + 1][tuple(sorted(s + (x,)))]))
                     for k, level in enumerate(levels[:-1]) for s in level
                     for x in range(n) if x not in s)
    AbstractLattice(dim=n - 1, f_vector=tuple(len(level) for level in levels), covering=covering)


# --- cover-driven checks against the all-pairs oracles ---

def abstract_of(lat: FaceLattice) -> AbstractLattice:
    """The abstract lattice of the same covers, unchecked if ``lat`` is."""
    def element(f):
        return f.dim, lat.face_id[f] - lat.level_start[f.dim + 1]

    kind = UncheckedAbstractLattice if isinstance(lat, UncheckedFaceLattice) else AbstractLattice
    return kind(dim=lat.dim, f_vector=lat.f_vector,
                covering=tuple((element(e), element(f)) for e, f in lat.covering))


def incidence_of(lat: FaceLattice) -> UnsignedIncidence:
    """The unsigned boundary matrices of the lattice's covers, each between
    consecutive levels."""
    rows = [[[0] * len(upper) for _ in lower]
            for lower, upper in zip(lat.faces_by_dim, lat.faces_by_dim[1:])]
    for e, f in lat.covering:
        rows[f.dim][lat.faces(e.dim).index(e)][lat.faces(f.dim).index(f)] = 1
    return UnsignedIncidence(tuple(tuple(map(tuple, m)) for m in rows))


def corpus_lattices_and_one_cover_changes(rng):
    """Each acceptance corpus lattice, then, unchecked, the same with one
    covering pair dropped and with one added between faces of consecutive
    levels."""
    for poly in acceptance_corpus():
        lat = face_lattice(poly)
        yield lat
        covering = list(lat.covering)
        if covering:
            drop = rng.randrange(len(covering))
            yield lattice_from_pairs(lat.dim, lat.faces_by_dim,
                                     covering[:drop] + covering[drop + 1:], unchecked=True)
        present = set(covering)
        new = [(e, f) for k in range(1, len(lat.faces_by_dim))
               for e in lat.faces_by_dim[k - 1] for f in lat.faces_by_dim[k]
               if (e, f) not in present]
        if new:
            yield lattice_from_pairs(lat.dim, lat.faces_by_dim, covering + [rng.choice(new)],
                                     unchecked=True)


MEETS = "is not unique: poset is not a lattice"


def assert_abstract_check_matches_oracle(lat):
    """Built or refused as the all-pairs check of nested atom masks accepts
    it or not, with its message, except that a meet failure may name
    another pair; and the same verdict from the all-pairs check of the
    pairs a path of two covers joins, with the meets (``GradedIds``)."""
    found, expected = failure(built, lat), failure(all_pairs_abstract_lattice, lat)
    if expected is not None and expected.endswith(MEETS):
        assert found is not None and found.endswith(MEETS), (found, expected)
    else:
        assert found == expected
    assert (failure(all_pairs_verify_abstract_lattice, lat) is None) == (expected is None), \
        (lat.covering, expected)
    return expected


def test_lattice_checks_and_search_match_all_pairs_oracles():
    rng = random.Random(1412)
    outcomes = []
    for lat in corpus_lattices_and_one_cover_changes(rng):
        expected = failure(all_pairs_verify_lattice, lat)
        assert failure(built, lat) == expected
        abstract = abstract_of(lat)
        outcomes.append((expected, assert_abstract_check_matches_oracle(abstract)))
        if failure(built, lat) is None:  # only a lattice that is built is searched
            lat, abstract = built(lat), built(abstract)
            for a, b in ((lat, abstract), (abstract, lat)):
                assert is_isomorphic(a, b) == rank_scan_is_isomorphic(a, b) == \
                    up_scan_is_isomorphic(a, b)
    assert (None, None) in outcomes
    for kind in ("diamond property fails", "has no upper cover", "has no lower cover"):
        assert any(kind in (face or "") and kind in (abstract or "")
                   for face, abstract in outcomes), kind


def random_graded_poset(rng) -> GradedPoset:
    """A bounded graded poset of rank 1 to 4 with 1 to 4 elements on each
    middle rank and random covers between consecutive ranks; each element
    gets an upper cover (but the top) and a lower cover (but the bottom).
    Most are not lattices, so it is a ``GradedPoset``."""
    dim = rng.randint(1, 4)
    f_vector = (1, *(rng.randint(1, 4) for _ in range(dim)), 1)
    covers = set()
    for r in range(-1, dim):
        below, above = range(f_vector[r + 1]), range(f_vector[r + 2])
        covers |= {((r, a), (r + 1, b)) for a in below for b in above if rng.random() < 0.4}
        covers |= {((r, a), (r + 1, rng.choice(above))) for a in below
                   if not any(x == (r, a) for x, _ in covers)}
        covers |= {((r, rng.choice(below)), (r + 1, b)) for b in above
                   if not any(y == (r + 1, b) for _, y in covers)}
    return GradedPoset(dim=dim, f_vector=f_vector, covering=tuple(sorted(covers)))


def every_meet(lat) -> None:
    """``GradedIds._verify_meets`` asked at every element, as if every
    element failed the simplex certificate."""
    lat._verify_meets(range(len(lat.down)))


def test_meets_of_lower_covers_decide_lattices():
    # the dual of Bjorner-Edelman-Ziegler's Lemma 2.1, against the meet of
    # every pair, on posets where the diamond check would rarely pass
    rng = random.Random(2203)
    verdicts = set()
    for _ in range(400):
        lat = random_graded_poset(rng)
        lattice = failure(all_pairs_meets, lat) is None
        assert (failure(every_meet, lat) is None) == lattice, lat.covering
        assert_abstract_check_matches_oracle(lat)
        verdicts.add(lattice)
    assert verdicts == {True, False}


# --- diamond check by path-count bit planes ---

def tetrahedron_with_unreached_face() -> UncheckedFaceLattice:
    """The tetrahedron with its 2-face {0,1,2} given the vertex set
    {0,1,2,3} and the top the extra vertex 4: {3} lies in that face, but
    no path of covers leads there from {3}.  Unchecked, as are the two
    below, so that the oracles can be given it."""
    lat = face_lattice(simplex(3))
    renamed = {Face((0, 1, 2), 2): Face((0, 1, 2, 3), 2),
               lat.faces_by_id[-1]: Face((0, 1, 2, 3, 4), 3)}

    def swap(f):
        return renamed.get(f, f)

    return lattice_from_pairs(3, tuple(tuple(map(swap, level)) for level in lat.faces_by_dim),
                              tuple((swap(e), swap(f)) for e, f in lat.covering), unchecked=True)


def tetrahedron_without_cover() -> UncheckedFaceLattice:
    """The tetrahedron without the cover ({1,2}, {0,1,2}): one path of two
    covers from {1} to {0,1,2}, after the pair of {0} with two; every atom
    mask stays distinct."""
    lat = face_lattice(simplex(3))
    drop = (Face((1, 2), 1), Face((0, 1, 2), 2))
    return lattice_from_pairs(3, lat.faces_by_dim, [c for c in lat.covering if c != drop],
                              unchecked=True)


def three_atoms_under_an_edge() -> UncheckedFaceLattice:
    bottom, top = Face((), -1), Face((0, 1, 2), 1)
    atoms = (Face((0,), 0), Face((1,), 0), Face((2,), 0))
    return lattice_from_pairs(1, ((bottom,), atoms, (top,)),
                              tuple((bottom, v) for v in atoms) + tuple((v, top) for v in atoms),
                              unchecked=True)


@pytest.mark.parametrize("build, face_message, abstract_message", [
    (tetrahedron_with_unreached_face,
     "face {0,1,2,3} is not the union of the vertices below it", None),
    (tetrahedron_without_cover,
     "diamond property fails between {1} and {0,1,2}: 1 intermediate elements",
     "diamond property fails between (0, 1) and (2, 0): 1 intermediate elements"),
    (three_atoms_under_an_edge,
     "diamond property fails between {} and {0,1,2}: 3 intermediate elements",
     "diamond property fails between (-1, 0) and (1, 0): 3 intermediate elements"),
], ids=["0-paths", "1-path", "3-paths"])
def test_bit_plane_diamond_check_matches_all_pairs_oracles(build, face_message,
                                                          abstract_message):
    # a pair two levels apart with 0, 1 or 3 faces between: the face check
    # fails on all three, on 0 before any diamond, as the face {0,1,2,3}
    # holds {3} though no vertex below it is {3}; the abstract check fails
    # on 1 and 3, each naming the pair its oracle names; the abstract
    # lattice of the first has the tetrahedron's covers, and so the
    # tetrahedron's atom masks, which nest only where covers lead
    lat = build()
    assert failure(built, lat) == failure(all_pairs_verify_lattice, lat) == face_message
    abstract = abstract_of(lat)
    assert failure(built, abstract) == failure(all_pairs_abstract_lattice, abstract) == \
        failure(all_pairs_verify_abstract_lattice, abstract) == abstract_message
    # the same covers as unsigned incidence fail with the same message, whose
    # tail after the pair reads as the face check's
    assert failure(lattice_from_incidence, incidence_of(lat)) == abstract_message
    if abstract_message is not None:
        assert abstract_message.rpartition(": ")[2] == face_message.rpartition(": ")[2]


def triangle_poset(extra=(), drop=(), kind=AbstractLattice) -> AbstractLattice:
    """The triangle's lattice as (rank, index) elements, the edges
    (1, 0), (1, 1), (1, 2) being {0,1}, {0,2}, {1,2}, with covers added and
    removed, as a lattice of the given kind."""
    covers = [((-1, 0), (0, a)) for a in range(3)] + \
             [((0, a), (1, e)) for e, atoms in enumerate([(0, 1), (0, 2), (1, 2)]) for a in atoms] + \
             [((1, e), (2, 0)) for e in range(3)]
    return kind(dim=2, f_vector=(1, 3, 3, 1),
                covering=tuple(c for c in covers if c not in drop) + tuple(extra))


def assert_refused_as_built(build, message):
    """``build(kind)`` fails with ``message`` for the library's kind, and
    the all-pairs oracle gives the same message on the unchecked kind."""
    with pytest.raises(InternalInvariantError) as err:
        build(AbstractLattice)
    assert str(err.value) == failure(all_pairs_abstract_lattice,
                                     build(UncheckedAbstractLattice)) == message


@pytest.mark.parametrize("extra, drop, message", [
    ([((-1, 0), (1, 0))], (), "cover ((-1, 0), (1, 0)) skips a rank: not graded"),
    ([((0, 0), (2, 0))], (), "cover ((0, 0), (2, 0)) skips a rank: not graded"),
    ([((0, 0), (2, 0))], [((0, 0), (1, 0))], "cover ((0, 0), (2, 0)) skips a rank: not graded"),
], ids=["bottom-to-edge", "atom-to-top", "atom-to-top-instead-of-edge"])
def test_abstract_diamond_check_with_covers_that_skip_a_rank(extra, drop, message):
    # a cover two ranks up breaks the graded axiom, which the lattice checks
    # as it is built, before any diamond: the library and the oracle name
    # the same pair
    assert_refused_as_built(lambda kind: triangle_poset(extra, drop, kind), message)


def test_face_diamond_check_with_a_cover_that_skips_a_level():
    # the triangle with the empty face also below the edge {0,1}
    lat = face_lattice(simplex(2))
    skip = lattice_from_pairs(2, lat.faces_by_dim,
                              lat.covering + ((lat.faces_by_id[0], Face((0, 1), 1)),),
                              unchecked=True)
    assert failure(built, skip) == failure(all_pairs_verify_lattice, skip) == \
        "cover ({}, {0,1}) skips a rank: not graded"


@pytest.mark.parametrize("extra, message", [
    ([((1, 0), (0, 0))], "cover ((1, 0), (0, 0)) does not go up a rank: not graded"),
    ([((2, 0), (1, 0))], "cover ((2, 0), (1, 0)) does not go up a rank: not graded"),
], ids=["edge-over-atom", "top-over-edge"])
def test_abstract_covers_that_do_not_go_up_a_rank(extra, message):
    # a cover down a rank, or from the top, which has no upper cover, breaks
    # the graded axiom as a skip up does
    assert_refused_as_built(lambda kind: triangle_poset(extra, kind=kind), message)


@pytest.mark.parametrize("poly, high", [(simplex(3), Face((0, 1, 2), 2)),
                                        (hypercube(3), Face((0, 1, 2, 3), 2))],
                         ids=["tetrahedron", "cube"])
def test_a_cover_that_skips_a_rank_is_rejected_by_every_check(poly, high):
    # the true lattice with the vertex {0} also under a 2-face: neither
    # kind of lattice can be built with it, each refusing it with one
    # message naming the pair, so no cone system or search is given it
    lat = face_lattice(poly)
    low = Face((0,), 0)
    skip = lattice_from_pairs(lat.dim, lat.faces_by_dim, lat.covering + ((low, high),),
                              unchecked=True)
    message = f"cover ({low}, {high}) skips a rank: not graded"
    assert failure(built, skip) == failure(all_pairs_verify_lattice, skip) == message
    abstract = abstract_of(skip)
    element = (2, skip.face_id[high] - skip.level_start[3])
    assert failure(built, abstract) == failure(all_pairs_abstract_lattice, abstract) == \
        f"cover ((0, 0), {element}) skips a rank: not graded"


def test_a_cover_listed_twice_is_one_cover():
    # the path counts see each cover once, as the id masks of covers do,
    # so the lattice with a cover listed twice is built
    once = triangle_poset()
    twice = triangle_poset(extra=once.covering[:1])
    assert twice.up == once.up and twice.down == once.down


@st.composite
def cover_graphs(draw) -> UncheckedAbstractLattice:
    """One bottom, one top, ranks 0 to dim - 1 with 1 to 4 elements each,
    and covers from a lower rank to a higher one, listed in any order, some
    twice: one or more upper covers of each element below the top and
    lower covers of each element above the bottom, all between adjacent
    ranks, then, in some draws, one of those dropped or one cover added
    that skips ranks.  Graded or not, so unchecked; most reach the diamond
    check.  A poset that is not bounded stops at the first check, so none
    is drawn (``test_abstract_check_rejects_a_poset_that_is_not_bounded``)."""
    dim = draw(st.integers(0, 3))
    f_vector = (1, *draw(st.lists(st.integers(1, 4), min_size=dim, max_size=dim)), 1)
    level = [range(n) for n in f_vector]  # level r + 1 holds rank r
    covering = {((r, a), (r + 1, b)) for r in range(-1, dim) for a in level[r + 1]
                for b in draw(st.sets(st.sampled_from(level[r + 2]), min_size=1))}
    covering |= {((r - 1, a), (r, b)) for r in range(0, dim + 1) for b in level[r + 1]
                 for a in draw(st.sets(st.sampled_from(level[r]), min_size=1))}
    listed = sorted(covering)
    fault = draw(st.sampled_from((None, None, None, None, "drop", "skip")))
    if fault == "drop":
        listed.remove(draw(st.sampled_from(listed)))
    if fault == "skip" and dim > 0:
        r = draw(st.integers(-1, dim - 2))
        s = draw(st.integers(r + 2, dim))
        listed.append(((r, draw(st.sampled_from(level[r + 1]))),
                       (s, draw(st.sampled_from(level[s + 1])))))
    listed += draw(st.lists(st.sampled_from(listed), max_size=3)) if listed else []
    return UncheckedAbstractLattice(dim=dim, f_vector=f_vector,
                                    covering=tuple(draw(st.permutations(listed))))


@given(st.one_of(st.randoms(use_true_random=False).map(random_graded_poset), cover_graphs()))
@settings(max_examples=200, deadline=None)
def test_a_poset_is_built_exactly_when_it_passes_the_order_axioms(lat):
    # a GradedPoset, which checks only the order axioms, is built or refused
    # with the message of the all-pairs oracle of those axioms; a lattice
    # checks them first, so a poset that breaks them is refused with the
    # same message.  A lattice's later checks, diamonds and meets, are
    # test_abstract_check_names_what_the_all_pairs_oracle_names
    order = failure(all_pairs_order_axioms, lat)
    assert failure(lambda p: GradedPoset(p.dim, p.f_vector, p.covering), lat) == order
    if order is not None:
        assert failure(built, lat) == order


@given(st.one_of(st.randoms(use_true_random=False).map(random_graded_poset), cover_graphs()))
@settings(max_examples=300, deadline=None)
def test_abstract_check_names_what_the_all_pairs_oracle_names(lat):
    # the lattice refuses to be built with the message the all-pairs
    # oracle gives on the same poset, order axioms, diamonds on nested atom
    # masks and meets, or is built, and the oracle accepts it; the oracle
    # of the pairs a path of two covers joins, with meets, gives the same
    # verdict (GradedIds).  A face lattice adds the check that its vertex
    # masks are its atom masks
    # (test_lattice_checks_and_search_match_all_pairs_oracles)
    assert_abstract_check_matches_oracle(lat)


@pytest.mark.parametrize("f_vector, covering", [
    ((2, 1), (((-1, 0), (0, 0)), ((-1, 1), (0, 0)))),
    ((1, 1, 2), (((-1, 0), (0, 0)), ((0, 0), (1, 0)), ((0, 0), (1, 1)))),
], ids=["two-bottoms", "two-tops"])
def test_abstract_check_rejects_a_poset_that_is_not_bounded(f_vector, covering):
    # refused as it is built
    assert_refused_as_built(
        lambda kind: kind(dim=len(f_vector) - 2, f_vector=f_vector, covering=covering),
        f"not bounded: f-vector {f_vector}")


SEGMENT = (((-1, 0), (0, 0)), ((-1, 0), (0, 1)), ((0, 0), (1, 0)), ((0, 1), (1, 0)))


@pytest.mark.parametrize("dim, extra, message", [
    (3, (), "dim 3 does not fit f-vector (1, 2, 1)"),
    (1, (((0, 5), (1, 0)),), "cover ((0, 5), (1, 0)) names no element"),
    (1, (((1, 0), (3, 0)),), "cover ((1, 0), (3, 0)) names no element"),
    (1, (((0, -1), (1, 0)),), "cover ((0, -1), (1, 0)) names no element"),
    (1, (((-2, 0), (0, 0)),), "cover ((-2, 0), (0, 0)) names no element"),
    (1, (((1, 0), (2, 0)),), "cover ((1, 0), (2, 0)) names no element"),
    (1, (((0, 2), (1, 0)),), "cover ((0, 2), (1, 0)) names no element"),
    (1, (((0, 0), (1, -1)),), "cover ((0, 0), (1, -1)) names no element"),
    (1, (((0,), (1, 0)),), "cover ((0,), (1, 0)) names no element"),
], ids=["dim-beyond-f-vector", "index-beyond-rank", "rank-beyond-dim", "negative-index",
        "rank-minus-2", "rank-dim-plus-1", "index-at-f-vector-entry", "negative-index-of-top",
        "not-a-pair"])
def test_abstract_lattice_refuses_a_malformed_shape(dim, extra, message):
    # the segment's f-vector (1, 2, 1) with a dim it does not fit, or a
    # cover naming an element it does not have, as the input lists it: a
    # rank outside -1..dim, a negative index or one at the f-vector's entry
    # does not wrap to another element, though the id is computed from
    # (rank, index); the element -> id dict numbering names the same cover
    with pytest.raises(InternalInvariantError) as err:
        AbstractLattice(dim=dim, f_vector=(1, 2, 1), covering=SEGMENT + extra)
    assert str(err.value) == message
    assert failure(lambda c: DictNumberedLattice(dim=dim, f_vector=(1, 2, 1), covering=c),
                   SEGMENT + extra) == message


def every_diamond(lat) -> None:
    """``_verify_diamonds`` with every element a high, as if every element
    failed the simplex certificate."""
    with mock.patch.object(polytope, "simplex_certificate",
                           lambda L: [list(L.ids(r)) for r in range(L.dim + 1)]):
        lat._verify_diamonds()


@given(st.one_of(st.randoms(use_true_random=False).map(random_graded_poset), cover_graphs()))
@settings(max_examples=150, deadline=None)
def test_two_step_path_planes_count_the_mids(lat):
    # the planes, made from the masks U of the highs' down lists, count
    # mids(low, high) for every low and high two ranks up: on a poset that
    # passes the order axioms, with every element a high, the check names
    # the first pair of nested atom masks whose mids is not 2, with its
    # mids, as the all-pairs count does
    if failure(all_pairs_order_axioms, lat) is None:
        assert failure(every_diamond, lat) == \
            failure(lambda x: all_pairs_diamonds(x, x.atom_masks), lat)


# --- is_isomorphic ---

def test_square_isomorphic_to_quadrilateral():
    square = hypercube(2)
    quad = validate([(0, 0), (3, 1), (4, 5), (1, 3)], name="quad")
    iso = is_isomorphic(face_lattice(square), face_lattice(quad))
    assert iso.isomorphic
    assert len(iso.mapping) == 10
    pairs = dict(iso.mapping)
    covers2 = set(face_lattice(quad).covering)
    for e, f in face_lattice(square).covering:
        assert (pairs[e], pairs[f]) in covers2


def test_cube_vs_octahedron():
    iso = is_isomorphic(face_lattice(hypercube(3)), face_lattice(cross_polytope(3)))
    assert not iso.isomorphic
    assert "f-vector mismatch" in iso.certificate
    assert "8, 12, 6" in iso.certificate and "6, 12, 8" in iso.certificate


def test_self_isomorphism_identity(small_corpus):
    for poly in small_corpus:
        lat = face_lattice(poly)
        iso = is_isomorphic(lat, lat)
        assert iso.isomorphic
        assert all(a == b for a, b in iso.mapping)


def test_self_isomorphism_beyond_recursion_limit():
    # the boolean lattice of an 11-set has 2,048 elements; a search that
    # recursed once per element would overflow the interpreter stack
    n = 11
    levels = [list(combinations(range(n), k)) for k in range(n + 1)]
    index = [{s: i for i, s in enumerate(level)} for level in levels]
    covering = tuple(((k - 1, index[k][s]), (k, index[k + 1][tuple(sorted(s + (x,)))]))
                     for k, level in enumerate(levels[:-1]) for s in level
                     for x in range(n) if x not in s)
    lat = AbstractLattice(dim=n - 1, f_vector=tuple(len(level) for level in levels),
                          covering=covering)
    assert sum(lat.f_vector) > sys.getrecursionlimit()
    iso = is_isomorphic(lat, lat)
    assert iso.isomorphic
    mapping = dict(iso.mapping)
    assert len(mapping) == len(set(mapping.values())) == sum(lat.f_vector)
    assert {(mapping[a], mapping[b]) for a, b in covering} == set(covering)


def test_symmetry(small_corpus):
    a = face_lattice(simplex(2))
    b = face_lattice(validate([(0, 0), (5, 1), (2, 3)], name="tri2"))
    assert is_isomorphic(a, b).isomorphic
    assert is_isomorphic(b, a).isomorphic


def test_non_isomorphic_different_f_vector():
    iso = is_isomorphic(face_lattice(hypercube(2)), face_lattice(simplex(2)))
    assert not iso.isomorphic
    assert iso.certificate == "f-vector mismatch: (1, 4, 4, 1) != (1, 3, 3, 1)"


# Three 3-polytopes with f-vector (1, 7, 14, 9, 1), found by search: draws 4,
# 263 and 674 (counting from 0) of random_hull(rng, 3, 7) with a single
# rng = random.Random(5), the first draws whose lattices are not isomorphic
# to draw 4's.  Draw 263 differs from draw 4 in its cover degrees; draw 674
# agrees in them and only the search tells the two apart.
HULL_DRAW_4 = [("7/2", 1, 3), (4, "3/2", 1), (3, 3, 2), (8, -1, "7/2"),
               (-2, -1, "1/2"), (-8, -1, -3), (-3, 7, -3)]
HULL_DRAW_263 = [("-5/3", -5, -1), (1, "-1/3", "8/3"), (-7, -1, -5), (2, 0, "-2/3"),
                 (3, -8, "8/3"), ("7/3", -7, "7/3"), ("-5/2", "1/3", -2)]
HULL_DRAW_674 = [(-3, 2, "-4/3"), ("-7/2", -8, "-1/2"), (2, "-4/3", -2), (8, 2, "2/3"),
                 (1, 2, 1), (3, -3, 1), ("-1/2", 2, -4)]


def test_non_isomorphic_same_f_vector():
    a, b = face_lattice(validate(HULL_DRAW_4)), face_lattice(validate(HULL_DRAW_674))
    assert a.f_vector == b.f_vector == (1, 7, 14, 9, 1)
    for x, y in ((a, b), (b, a)):
        iso = is_isomorphic(x, y)
        assert not iso.isomorphic
        assert iso.certificate == "exhausted search: no cover-preserving bijection"


def test_non_isomorphic_same_f_vector_by_cover_degrees():
    a, b = face_lattice(validate(HULL_DRAW_4)), face_lattice(validate(HULL_DRAW_263))
    assert a.f_vector == b.f_vector == (1, 7, 14, 9, 1)
    iso = is_isomorphic(a, b)
    assert not iso.isomorphic
    assert iso.certificate == "up/down cover degree multisets differ"


def test_affine_images_isomorphic(small_corpus):
    rng = random.Random(23)
    for poly in small_corpus:
        if poly.ambient_dim == 0:
            continue
        A, t = random_invertible_affine(rng, poly.ambient_dim)
        image = apply_affine(poly, A, t)
        assert is_isomorphic(face_lattice(poly), face_lattice(image)).isomorphic, poly.name


def test_signed_match_across_isomorphic_polytopes_reported(small_corpus, capsys):
    """Whether the signed complexes of isomorphic polytopes differ only by a
    diagonal +-1 map composed with the lattice bijection is informational:
    the unsigned match is asserted, the signed outcome only reported."""
    from polyk.cellular import diagonal_sign_equivalence

    rng = random.Random(31)
    outcomes = []
    for poly in small_corpus:
        if poly.ambient_dim == 0:
            continue
        A, t = random_invertible_affine(rng, poly.ambient_dim)
        image = apply_affine(poly, A, t, name=f"{poly.name}-image")
        lat_a, x_a = complex_of(poly)
        lat_b, x_b = complex_of(image)
        iso = is_isomorphic(lat_a, lat_b)
        assert iso.isomorphic, poly.name
        to_b = dict(iso.mapping)
        index_b = {f: i for j in range(-1, lat_b.dim + 1)
                   for i, f in enumerate(lat_b.faces(j))}
        permuted = []
        for j in range(0, x_a.dim + 1):
            rows_a = lat_a.faces(j - 1)
            cols_a = lat_a.faces(j)
            d_b = x_b.matrix(j)
            permuted.append(tuple(
                tuple(d_b[index_b[to_b[r]]][index_b[to_b[c]]] for c in cols_a)
                for r in rows_a))
        transported = complex_from_dense(dim=x_a.dim, boundary=tuple(permuted),
                                         face_order=x_a.face_order)
        eps = diagonal_sign_equivalence(x_a, transported)
        outcomes.append((poly.name, eps is not None))
    with capsys.disabled():
        matched = sum(1 for _, ok in outcomes if ok)
        print(f"\n[signed-match report] diagonal +-1 match through the lattice "
              f"bijection: {matched}/{len(outcomes)} "
              f"({', '.join(f'{n}={ok}' for n, ok in outcomes)})")


def test_isomorphism_search_on_unsorted_covers():
    # the target's covering pairs shuffled; the lattice numbers them into
    # the same ascending up and down tuples as the unshuffled pairs, so
    # candidates are still tried in id order
    lat = face_lattice(hypercube(3))
    abstract = abstract_of(lat)
    covering = list(abstract.covering)
    random.Random(5).shuffle(covering)
    assert covering != list(abstract.covering)
    shuffled = AbstractLattice(dim=abstract.dim, f_vector=abstract.f_vector,
                               covering=tuple(covering))
    assert (shuffled.up, shuffled.down) == (abstract.up, abstract.down)
    assert all(list(c) == sorted(c) for c in shuffled.up + shuffled.down)
    for source in (lat, abstract):
        iso = is_isomorphic(source, shuffled)
        assert iso.isomorphic
        assert iso == rank_scan_is_isomorphic(source, shuffled)


def scrambled(lat: AbstractLattice, rng) -> AbstractLattice:
    """The same lattice with its covering pairs shuffled and a third of
    them listed a second time."""
    covering = list(lat.covering)
    covering += rng.sample(covering, len(covering) // 3)
    rng.shuffle(covering)
    return AbstractLattice(dim=lat.dim, f_vector=lat.f_vector, covering=tuple(covering))


def test_isomorphism_search_on_covers_out_of_order_and_twice():
    # the search reads the target's down and up lists as they are; the
    # lattice lists each cover once and ascending, however the pairs came,
    # so the mappings and the certificates (exhausted search, cover
    # degrees) are those of the clean lattices
    rng = random.Random(2917)
    draw4, draw263, draw674 = (abstract_of(face_lattice(validate(v)))
                               for v in (HULL_DRAW_4, HULL_DRAW_263, HULL_DRAW_674))
    cube, image = (abstract_of(face_lattice(p)) for p in (
        hypercube(3), apply_affine(hypercube(3), *random_invertible_affine(rng, 3))))
    certificates = set()
    for a, b in ((cube, image), (image, cube), (draw4, draw674), (draw674, draw4),
                 (draw4, draw263), (draw4, draw4)):
        messy_a, messy_b = scrambled(a, rng), scrambled(b, rng)
        assert len(messy_a.covering) > len(a.covering)
        assert (messy_a.up, messy_a.down) == (a.up, a.down)
        expected = is_isomorphic(a, b)
        assert expected == rank_scan_is_isomorphic(a, b)
        for x, y in ((messy_a, b), (a, messy_b), (messy_a, messy_b)):
            assert is_isomorphic(x, y) == expected
        certificates.add(expected.certificate)
    assert certificates == {None, "exhausted search: no cover-preserving bijection",
                            "up/down cover degree multisets differ"}


def test_compare_path_builds_no_pair_or_face_view():
    # face_lattice, with the checks the lattice makes as it is built, and
    # is_isomorphic read ids and id covers only; the covering and face_id
    # views, O(covers) and O(faces) each, are made on first use, so none may
    # be made on the compare path
    rng = random.Random(2918)
    for poly in (cross_polytope(5), hypercube(4)):
        a = face_lattice(poly)
        b = face_lattice(apply_affine(poly, *random_invertible_affine(rng, poly.ambient_dim)))
        assert is_isomorphic(a, b).isomorphic
        for lat in (a, b):
            assert "covering" not in lat.__dict__ and "face_id" not in lat.__dict__, poly.name
    assert a.covering and a.face_id
    assert "covering" in a.__dict__ and "face_id" in a.__dict__


def mapping_digest_pairs():
    """The lattice pairs whose ``is_isomorphic`` mappings are pinned: the
    5-cross-polytope and the 4-cube against affine images, every acceptance
    corpus member against itself, and every reconstruction from unsigned
    incidence against its source lattice."""
    rng = random.Random(1207)
    pairs = []
    for poly in (cross_polytope(5), hypercube(4)):
        A, t = random_invertible_affine(rng, poly.ambient_dim)
        pairs.append((face_lattice(poly), face_lattice(apply_affine(poly, A, t))))
    for poly in acceptance_corpus():
        lat, x = complex_of(poly)
        pairs.append((lat, lat))
        pairs.append((lattice_from_incidence(strip_signs(x)), lat))
    return pairs


def element_label(e):
    return ["face", list(e.vertex_set), e.dim] if isinstance(e, Face) else ["element", *e]


# sha256 of the mappings of these pairs; renumbering the faces or
# reordering the search must leave every mapping as it is
MAPPING_DIGEST = "3f1fb7f5a4221c65a941deb433b78028198a3eac25d6448b921fe1174f4590b8"


def test_isomorphism_mappings_pinned():
    mappings = []
    for a, b in mapping_digest_pairs():
        iso = is_isomorphic(a, b)
        assert iso.isomorphic
        mappings.append([[element_label(x), element_label(y)] for x, y in iso.mapping])
    text = json.dumps(mappings, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == MAPPING_DIGEST


@pytest.mark.parametrize("matrices, message", [
    ((), "no incidence matrices"),
    ((((1,),), ((1, 1), (1, 1))), "incidence matrices dimensionally inconsistent at rank 1"),
], ids=["none", "rows-not-columns-below"])
def test_incidence_shape_guards_name_the_fault(matrices, message):
    # D_1 must have one row per column of D_0: here D_0 is 1 x 1 and D_1
    # has two rows
    with pytest.raises(InternalInvariantError) as err:
        lattice_from_incidence(UnsignedIncidence(matrices))
    assert str(err.value) == message


# --- the one-loop numbering and the bytes row reader, against the passes they replaced ---

class DictNumberedPoset(DictNumberedLattice):
    """``DictNumberedLattice`` checking only the graded axiom, as
    ``GradedPoset`` does."""

    def _verify_axioms(self, union) -> None:
        self.verify_graded()


BAD_ELEMENTS = ((-2, 0), (5, 0), (0, -1), (0, 4), (-1, 1), (0,), (0, 0, 0))


@given(st.one_of(st.randoms(use_true_random=False).map(random_graded_poset), cover_graphs()),
       st.data())
@settings(max_examples=200, deadline=None)
def test_one_loop_numbering_matches_the_dict_numbering_and_the_mask_pass(lat, data):
    # covers listed in any order, some twice, some skipping ranks, and in
    # half the draws one naming an element the f-vector lacks (each rank has
    # at most 4 elements, and dim is at most 4): refused with one message
    # by both numberings, or built, checked as a lattice or only as a graded
    # poset, with equal down, up and atom masks, the masks those of the pass
    covering = list(lat.covering)
    if covering and data.draw(st.booleans()):
        k = data.draw(st.integers(0, len(covering) - 1))
        a, b = covering[k]
        bad = data.draw(st.sampled_from(BAD_ELEMENTS))
        covering.insert(k, (bad, b) if data.draw(st.booleans()) else (a, bad))
    for kind, oracle in ((GradedPoset, DictNumberedPoset), (AbstractLattice, DictNumberedLattice)):
        def build(k):
            return k(dim=lat.dim, f_vector=lat.f_vector, covering=tuple(covering))

        message = failure(build, kind)
        assert message == failure(build, oracle)
        if message is None:
            new, old = build(kind), build(oracle)
            assert (new.down, new.up, new.atom_masks) == (old.down, old.up, old.atom_masks)
            assert new.atom_masks == pass_atom_masks(new)


class PassRecordingFaceLattice(FaceLattice):
    """A ``FaceLattice`` that keeps the pass ``_number`` gave its axiom
    check, and checks nothing."""

    def _verify_axioms(self, union) -> None:
        object.__setattr__(self, "union", union)


def test_one_loop_numbering_on_corpus_lattices():
    # the abstract lattice of each corpus lattice is numbered as the dict
    # numbers it, with the pass's atom masks, which are the vertex masks; a
    # face lattice compares its vertex masks with the same pass, and keeps
    # no copy of it
    for poly in acceptance_corpus():
        lat = face_lattice(poly)
        new, old = (kind(dim=lat.dim, f_vector=lat.f_vector, covering=abstract_of(lat).covering)
                    for kind in (AbstractLattice, DictNumberedLattice))
        assert (new.down, new.up, new.atom_masks) == (old.down, old.up, old.atom_masks), poly.name
        assert new.down == lat.down and new.up == lat.up, poly.name
        assert new.atom_masks == pass_atom_masks(lat) == lat.vertex_masks, poly.name
        recorded = PassRecordingFaceLattice(lat.dim, lat.faces_by_dim, lat.down, lat.vertex_masks)
        assert recorded.union == lat.vertex_masks and recorded.union is not lat.vertex_masks
        assert [name for name, value in vars(lat).items() if value == lat.vertex_masks] == \
            ["vertex_masks", "atom_masks"] and lat.atom_masks is lat.vertex_masks, poly.name


@given(st.sampled_from((simplex(2), hypercube(3), cross_polytope(3), simplex(0, name="point"))),
       st.lists(st.tuples(st.sampled_from((0, 1, 2, -1, 256, True, False)),
                          st.integers(0, 10 ** 6)), max_size=3))
@settings(max_examples=200, deadline=None)
def test_bytes_row_reader_matches_the_three_scan_reader(poly, changes):
    # entries of the polytope's unsigned incidence set anywhere to 0, 1,
    # True, False or a bad int: both readers refuse with one message, the
    # first bad entry in row order or the lattice check's, or both read the
    # same covers
    mats = [[list(row) for row in m] for m in incidence_of(face_lattice(poly)).matrices]
    cells = [(j, r, c) for j, m in enumerate(mats) for r, row in enumerate(m)
             for c in range(len(row))]
    for x, k in changes:
        j, r, c = cells[k % len(cells)]
        mats[j][r][c] = x
    U = UnsignedIncidence(tuple(tuple(map(tuple, m)) for m in mats))
    message = failure(lattice_from_incidence, U)
    assert message == failure(three_scan_lattice_from_incidence, U)
    if message is None:
        new, old = lattice_from_incidence(U), three_scan_lattice_from_incidence(U)
        assert (new.f_vector, new.covering) == (old.f_vector, old.covering)


@pytest.mark.parametrize("entry", [-1, 256, 2, 1.0], ids=["minus-1", "256", "2", "float-1"])
def test_reconstruct_names_an_entry_outside_0_1(entry):
    # the entry put after a 1 in the first row of D_1, before a 2 in a
    # later row: it is named, as the first bad entry in row order.  A float
    # 1.0 is refused by name, as bytes() refuses it, where the list methods
    # of the three-scan reader counted it as a 1
    _, x = complex_of(simplex(2))
    mats = [list(list(r) for r in m) for m in strip_signs(x).matrices]
    assert mats[1][0][:2] == [1, 1]
    mats[1][0][1] = entry

    def incidence():
        return UnsignedIncidence(tuple(tuple(tuple(r) for r in m) for m in mats))

    if entry == 1.0:
        assert three_scan_lattice_from_incidence(incidence()).covering == \
            lattice_from_incidence(strip_signs(x)).covering
    mats[1][1][0] = 2
    with pytest.raises(InternalInvariantError) as err:
        lattice_from_incidence(incidence())
    assert str(err.value) == f"unsigned incidence entry {entry} not in {{0, 1}}"


def test_reconstruct_reads_true_as_1():
    # a bool is an int: True is read as a 1, False as a 0
    _, x = complex_of(hypercube(3))
    U = strip_signs(x)
    as_bools = UnsignedIncidence(tuple(tuple(tuple(map(bool, row)) for row in m)
                                       for m in U.matrices))
    assert lattice_from_incidence(as_bools).covering == lattice_from_incidence(U).covering


# --- the search keyed on atom masks, against both oracles ---

def relabeled(lat: AbstractLattice, perms) -> AbstractLattice:
    """The same covers with element i of rank r renamed perms[r + 1][i]."""
    def rename(element):
        rank, i = element
        return rank, perms[rank + 1][i]

    return type(lat)(dim=lat.dim, f_vector=lat.f_vector,
                     covering=tuple((rename(a), rename(b)) for a, b in lat.covering))


def switched(lat: AbstractLattice, i: int, j: int) -> AbstractLattice:
    """Covers i and j of ``lat.covering``, (a, b) and (c, d), replaced by
    (a, d) and (c, b) when both are new and join the same ranks: every
    element keeps its up and down degrees, so only the search can tell the
    two apart."""
    covering = list(dict.fromkeys(lat.covering))
    (a, b), (c, d) = covering[i % len(covering)], covering[j % len(covering)]
    if (a[0], b[0]) == (c[0], d[0]) and {(a, d), (c, b)}.isdisjoint(covering):
        covering[i % len(covering)], covering[j % len(covering)] = (a, d), (c, b)
    return type(lat)(dim=lat.dim, f_vector=lat.f_vector, covering=tuple(covering))


def changed(lat: AbstractLattice, how: int, i: int, j: int) -> AbstractLattice:
    """``lat`` itself (how 0), with covers i and j switched (how 1), or
    with a cover dropped (how 2), which changes two degrees: the first from
    cover i on, cyclically, whose ends keep a cover each, so that the poset
    stays graded and can be built; ``lat`` if there is none."""
    if how == 0 or not lat.covering:
        return lat
    if how == 1:
        return switched(lat, i, j)
    covering = list(dict.fromkeys(lat.covering))
    n = len(covering)
    for k in range(i, i + n):
        a, b = covering[k % n]
        if len(lat.down[lat.faces_by_id.index(b)]) > 1 and \
                len(lat.up[lat.faces_by_id.index(a)]) > 1:
            del covering[k % n]
            return type(lat)(dim=lat.dim, f_vector=lat.f_vector, covering=tuple(covering))
    return lat


@st.composite
def relabeled_pairs(draw):
    """A bounded graded poset (``random_graded_poset``), and the same
    poset, or one changed a little (``changed``), with the elements of
    every rank renumbered: only posets that can be built are searched."""
    source = random_graded_poset(draw(st.randoms(use_true_random=False)))
    target = changed(source, draw(st.integers(0, 2)), draw(st.integers(0, 99)),
                     draw(st.integers(0, 99)))
    perms = [draw(st.permutations(range(n))) for n in source.f_vector]
    return source, relabeled(target, perms)


def assert_search_matches_oracles(a, b) -> LatticeIso:
    """The verdict of both search oracles on ``a`` and ``b``, which must
    agree; when both build as lattices, ``is_isomorphic`` on the built ones
    gives it too.  The library's search is given only lattices that are
    built, whose atom masks are distinct (``GradedIds``)."""
    expected = rank_scan_is_isomorphic(a, b)
    assert up_scan_is_isomorphic(a, b) == expected
    if failure(built, a) is None and failure(built, b) is None:
        assert is_isomorphic(built(a), built(b)) == expected
    return expected


@given(relabeled_pairs())
@settings(max_examples=300, deadline=None)
def test_search_on_atom_masks_matches_both_oracles(pair):
    # the same mapping, the least valid one in id order, or the same
    # certificate, both ways round, on posets renumbered within each rank:
    # from the two oracles on every draw, and from the library's search as
    # well on the draws that build as lattices
    a, b = pair
    assert_search_matches_oracles(a, b)
    assert_search_matches_oracles(b, a)


def test_search_on_atom_masks_reaches_every_verdict():
    # the draws of the property test above, seeded, reach an isomorphism
    # and all three certificates a search on equal f-vectors can give; the
    # 49 pairs that build as lattices are searched by the library too, and
    # are isomorphic
    rng = random.Random(4103)
    verdicts, built_verdicts = set(), []
    for _ in range(600):
        source = random_graded_poset(rng)
        target = relabeled(changed(source, rng.randrange(3), rng.randrange(99),
                                   rng.randrange(99)),
                           [rng.sample(range(n), n) for n in source.f_vector])
        iso = assert_search_matches_oracles(source, target)
        verdicts.add(iso.certificate)
        if failure(built, source) is None and failure(built, target) is None:
            built_verdicts.append(iso.certificate)
    assert verdicts == {None, "up/down cover degree multisets differ",
                        "exhausted search: no cover-preserving bijection"}
    assert built_verdicts == [None] * 49


def two_squares(over) -> GradedPoset:
    """Four atoms, the edges (1, 0) = {0,1}, (1, 1) = {2,3}, (1, 2) = {0,2}
    and (1, 3) = {1,3}, the elements (2, 0) and (2, 1) over the edge pairs
    ``over``, and a top over both."""
    edges = [(0, 1), (2, 3), (0, 2), (1, 3)]
    covering = [((-1, 0), (0, a)) for a in range(4)]
    covering += [((0, a), (1, e)) for e, atoms in enumerate(edges) for a in atoms]
    covering += [((1, e), (2, f)) for f, pair in enumerate(over) for e in pair]
    covering += [((2, f), (3, 0)) for f in range(2)]
    return GradedPoset(dim=3, f_vector=(1, 4, 4, 2, 1), covering=tuple(covering))


def test_a_candidate_of_the_right_mask_and_degrees_fails_the_down_set_test():
    # (2, 0) of the source lies over the edges (1, 0) and (1, 1); in the
    # target, (2, 0) lies over (1, 2) and (1, 3).  Both have all four atoms
    # and the same degrees, so both are candidates of the oracles' scans;
    # their down-set test rejects the first, and the second is placed.  Two
    # elements of one mask make neither poset a lattice, so the library's
    # search, which reads one candidate per mask, is never given them
    source, target = two_squares([(0, 1), (2, 3)]), two_squares([(2, 3), (0, 1)])
    masks = target.atom_masks
    rank2 = target.ids(2)
    assert masks[rank2[0]] == masks[rank2[1]] == 0b1111
    assert [len(target.up[t]) for t in rank2] == [len(source.up[rank2[0]])] * 2
    assert [len(target.down[t]) for t in rank2] == [len(source.down[rank2[0]])] * 2
    for poset in (source, target):
        assert failure(built, poset) == "(2, 0) and (2, 1) lie above the same atoms"
    iso = assert_search_matches_oracles(source, target)
    assert dict(iso.mapping)[(2, 0)] == (2, 1)


def test_the_search_sends_each_atom_mask_through_its_atom_bijection():
    # the identity is_isomorphic rests on: the search chooses a bijection
    # pi of the atoms, and every other element takes the one target whose
    # mask is pi of its own.  On shuffled images, where pi is not the
    # identity, and on an abstract lattice rebuilt from an image's
    # incidence, each mask of the source goes through pi onto its image's
    # mask, and the images of each element's lower covers are its image's
    # lower covers
    for poly in (hypercube(4), cross_polytope(5)):
        a = face_lattice(poly)
        image = face_lattice(shuffled_image(poly, random.Random(1207)))
        for b in (image, lattice_from_incidence(incidence_of(image))):
            iso = is_isomorphic(a, b)
            assert [x for x, _ in iso.mapping] == list(a.faces_by_id)
            index = {y: i for i, y in enumerate(b.faces_by_id)}
            f = [index[y] for _, y in iso.mapping]
            atoms = a.ids(0)
            pi = [f[atom] - atoms.start for atom in atoms]
            assert sorted(pi) == list(range(len(atoms))) != pi
            for s, m in enumerate(a.atom_masks):
                assert b.atom_masks[f[s]] == sum(1 << pi[k] for k in range(len(atoms)) if m >> k & 1)
                assert set(b.down[f[s]]) == {f[e] for e in a.down[s]}


def pillow() -> GradedPoset:
    """Four squares (2, i) around the atoms p = (0, 0) and q = (0, 1), the
    square i over the edges from p and q to the atoms (0, 2 + i) and
    (0, 2 + (i + 1) % 4), and a top: bounded, graded, every diamond has two
    middle elements, the atom masks are distinct and every edge is a
    simplex; but two squares meet in two edges, or in p and q alone."""
    edges = [(0, 2 + i) for i in range(4)] + [(1, 2 + i) for i in range(4)]
    covering = [((-1, 0), (0, a)) for a in range(6)]
    covering += [((0, a), (1, e)) for e, pair in enumerate(edges) for a in pair]
    for i in range(4):
        j = (i + 1) % 4
        covering += [((1, e), (2, i)) for e in (i, j, 4 + i, 4 + j)] + [((2, i), (3, 0))]
    return GradedPoset(dim=3, f_vector=(1, 6, 8, 4, 1), covering=tuple(covering))


def test_meet_check_reads_the_lower_covers_that_are_not_simplices():
    # the certificate holds, so the meet check skips every element whose
    # lower covers are all simplices (here the squares, over edges) and
    # pairs the squares under the top, where the first failure is
    lat = pillow()
    others = simplex_certificate(lat)
    assert others == [[], [], list(lat.ids(2)), list(lat.ids(3))]
    message = "meet of (2, 0) and (2, 1) is not unique: poset is not a lattice"
    assert failure(built, lat) == failure(every_meet, lat) == message
    assert failure(lambda x: x._verify_meets(chain.from_iterable(others)), lat) == message
    assert failure(all_pairs_abstract_lattice, lat).endswith(MEETS)
    assert failure(all_pairs_verify_abstract_lattice, lat).endswith(MEETS)


def test_a_face_lattice_checks_its_meets():
    # the pillow by vertex sets: bounded, graded, each face the union of the
    # vertices below it, distinct masks and every diamond; the squares over
    # {0,2} have no meet, so the face lattice is refused as the abstract
    # one is, with the first pair the all-pairs oracle names.  Without its
    # meet check it was built, with f-vector (1, 6, 8, 4, 1).  The meet
    # check takes each element's lower covers in id order, so it names the
    # same pair with the squares listed under the top in their order
    # around the pillow, which is not their id order
    vertices = [Face((v,), 0) for v in range(6)]
    edges = [Face((p, a), 1) for p in (0, 1) for a in range(2, 6)]
    around = [Face(tuple(sorted((0, 1, a, b))), 2) for a, b in ((2, 3), (3, 4), (4, 5), (2, 5))]
    squares = sorted(around)
    bottom, top = Face((), -1), Face(tuple(range(6)), 3)
    covering = [(bottom, v) for v in vertices]
    covering += [(v, e) for e in edges for v in vertices if v.vertex_set[0] in e.vertex_set]
    covering += [(e, q) for q in squares for e in edges if set(e.vertex_set) <= set(q.vertex_set)]
    for under_top in (squares, around):
        lat = lattice_from_pairs(3, [(bottom,), vertices, edges, squares, (top,)],
                                 covering + [(q, top) for q in under_top], unchecked=True)
        assert lat.f_vector == (1, 6, 8, 4, 1)
        assert [lat.faces_by_id[q] for q in lat.down[-1]] == under_top
        assert failure(built, lat) == failure(all_pairs_verify_lattice, lat) == \
            "meet of {0,1,2,3} and {0,1,2,5} is not unique: poset is not a lattice"
        assert failure(lambda x: all_pairs_diamonds(x, x.vertex_masks), lat) is None


class RepeatedMasksAllowed(AbstractLattice):
    """An ``AbstractLattice`` that skips only the distinct-mask check."""

    def verify_distinct(self, message) -> None:
        pass


def two_edges_over_two_atoms(kind=AbstractLattice) -> AbstractLattice:
    """Three atoms; (1, 0) and (1, 1) both cover atoms 0 and 1, (1, 2)
    covers atoms 1 and 2, and the top covers all three edges."""
    covering = [((-1, 0), (0, a)) for a in range(3)]
    covering += [((0, a), (1, e)) for e, pair in enumerate([(0, 1), (0, 1), (1, 2)]) for a in pair]
    covering += [((1, e), (2, 0)) for e in range(3)]
    return kind(dim=2, f_vector=(1, 3, 3, 1), covering=tuple(covering))


def test_the_simplex_certificate_needs_distinct_masks():
    # every element passes the certificate on its own: each edge has two
    # atoms and two lower covers, and the top three of each.  So the
    # diamond check reads no high, and only the distinct-mask axiom
    # refuses the poset, naming the two edges over atoms 0 and 1; without
    # it, the lattice is built, though atom 1 lies under three edges
    with pytest.raises(InternalInvariantError) as err:
        two_edges_over_two_atoms()
    assert str(err.value) == "(1, 0) and (1, 1) lie above the same atoms" == \
        failure(all_pairs_abstract_lattice, two_edges_over_two_atoms(UncheckedAbstractLattice))
    lat = two_edges_over_two_atoms(RepeatedMasksAllowed)
    assert simplex_certificate(lat) == [[], [], []]
    assert failure(lambda x: all_pairs_diamonds(x, x.atom_masks), lat) == \
        "diamond property fails between (0, 1) and (2, 0): 3 intermediate elements"


def digon(unchecked=False) -> FaceLattice:
    """The vertices {0} and {1}, the edges {0,1} and {0,1,2}, each over
    both vertices, and the top {0,1,2,3}: distinct vertex masks, but the
    edge {0,1,2} holds the vertex 2, which is no vertex below it, so not a
    face lattice, and its two edges share one atom mask.  Unchecked if
    ``unchecked``."""
    bottom, top = Face((), -1), Face((0, 1, 2, 3), 2)
    vertices, edges = (Face((0,), 0), Face((1,), 0)), (Face((0, 1), 1), Face((0, 1, 2), 1))
    return lattice_from_pairs(2, ((bottom,), vertices, edges, (top,)),
                              [(bottom, v) for v in vertices]
                              + [(v, e) for e in edges for v in vertices]
                              + [(e, top) for e in edges], unchecked)


def test_a_face_lattice_with_a_shared_atom_mask_is_searched_as_the_oracles_search_it():
    # the digon's vertex masks are distinct, but its edge {0,1,2} is not the
    # union of the vertices below it: refused as it is built, as the
    # all-pairs oracle refuses it.  Its covers, as a poset built unchecked,
    # give the two edges one atom mask, which the abstract lattice refuses
    # too; the oracles, which scan a rank for candidates, map it to itself
    with pytest.raises(InternalInvariantError) as err:
        digon()
    assert str(err.value) == failure(all_pairs_verify_lattice, digon(unchecked=True)) == \
        "face {0,1,2} is not the union of the vertices below it"
    lat = abstract_of(digon(unchecked=True))
    edges = lat.ids(1)
    assert lat.atom_masks[edges[0]] == lat.atom_masks[edges[1]] == 0b11
    assert failure(built, lat) == "(1, 0) and (1, 1) lie above the same atoms"
    iso = assert_search_matches_oracles(lat, lat)
    assert iso.isomorphic and all(a == b for a, b in iso.mapping)


def test_atom_masks_are_the_vertex_masks_of_a_face_lattice(small_corpus):
    # atom k is the vertex {k}, and a face of dimension 1 or more is the
    # union of its facets: the lattice checks it, and takes its vertex
    # masks as its atom masks, so the search makes no pass for them; the
    # pass an abstract lattice makes on the same covers gives them too
    for poly in small_corpus + [cross_polytope(5), hypercube(4), validate(HULL_DRAW_674)]:
        lat = face_lattice(poly)
        assert lat.atom_masks is lat.vertex_masks, poly.name
        assert abstract_of(lat).atom_masks == lat.vertex_masks, poly.name


def shuffled_image(poly, rng):
    """An affine image of ``poly`` with its vertex list shuffled by ``rng``."""
    image = apply_affine(poly, *random_invertible_affine(rng, poly.ambient_dim))
    vertices = list(image.vertices)
    rng.shuffle(vertices)
    return validate(vertices)


def preserves_covers(iso: LatticeIso, a: FaceLattice, b: FaceLattice) -> bool:
    m = dict(iso.mapping)
    return (len(m) == len(set(m.values())) == len(a.faces_by_id)
            and all(e.dim == m[e].dim for e in m)
            and {(m[e], m[f]) for e, f in a.covering} == set(b.covering))


@pytest.mark.parametrize("poly", [cross_polytope(5), hypercube(4)], ids=["cross5", "cube4"])
def test_search_on_an_image_with_shuffled_vertices(poly):
    # the faces of the image are numbered in another order than the
    # source's; the search placed the atoms by scans of their rank, pruned
    # only by degrees, and took 7.6 to 15.7 s on cross5 and more than 60 s
    # on cube4.  The mapping is checked on the faces themselves
    a, b = face_lattice(poly), face_lattice(shuffled_image(poly, random.Random(1207)))
    iso = is_isomorphic(a, b)
    assert iso.isomorphic and preserves_covers(iso, a, b)


def test_search_between_hull_draws_with_shuffled_vertices():
    # the exhausted search of test_non_isomorphic_same_f_vector, on an
    # image of draw 674 with its vertices shuffled
    a = face_lattice(validate(HULL_DRAW_4))
    b = face_lattice(shuffled_image(validate(HULL_DRAW_674), random.Random(1207)))
    for x, y in ((a, b), (b, a)):
        assert assert_search_matches_oracles(x, y).certificate == \
            "exhausted search: no cover-preserving bijection"


# the 6-vertex real projective plane: ten triangles on the complete graph
# K6, each edge in two of them; a lattice, though not a polytope's
RP2_6 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
         (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5)]


def surface(triangles) -> AbstractLattice:
    """The lattice of a triangulated surface: its vertices, its edges and
    its triangles, each level in sorted order, under a top."""
    triangles = sorted(tuple(sorted(t)) for t in triangles)
    edges = sorted({e for t in triangles for e in combinations(t, 2)})
    n = max(map(max, triangles)) + 1
    covering = [((-1, 0), (0, v)) for v in range(n)]
    covering += [((0, v), (1, k)) for k, e in enumerate(edges) for v in e]
    covering += [((1, edges.index(e)), (2, k))
                 for k, t in enumerate(triangles) for e in combinations(t, 2)]
    covering += [((2, k), (3, 0)) for k in range(len(triangles))]
    return AbstractLattice(dim=3, f_vector=(1, n, len(edges), len(triangles), 1),
                           covering=tuple(covering))


@pytest.mark.parametrize("sigma", [(1, 0, 2, 3, 4, 5), (5, 4, 3, 2, 1, 0)])
def test_the_search_goes_back_from_above_the_atoms_after_pruning_them(sigma):
    # every two atoms lie in two coatoms, so the coatom counts prune no
    # atom bijection: each one that is not an automorphism fails above the
    # atoms, after the counts are made, and the search goes back to the
    # last atom, past every element placed above rank 0
    a = surface(RP2_6)
    coatoms = a.atom_masks[a.level_start[a.dim]:a.level_start[a.dim + 1]]
    assert {sum(m >> u & m >> v & 1 for m in coatoms) for u, v in combinations(range(6), 2)} == {2}
    b = surface([[sigma[v] for v in t] for t in RP2_6])
    assert b.down != a.down
    iso = assert_search_matches_oracles(a, b)
    m = dict(iso.mapping)
    assert iso.isomorphic and {(m[e], m[f]) for e, f in a.covering} == set(b.covering)
