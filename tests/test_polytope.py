"""Polytope validation, facet enumeration, and face lattices, checked against
brute-force facet, direction-maximization and Caratheodory oracles."""

import random
from fractions import Fraction
from functools import reduce
from operator import and_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyk.linalg as linalg
import polyk.polytope as polytope
from polyk.corpus import (
    acceptance_corpus,
    cross_polytope,
    hypercube,
    random_hull,
    simplex,
)
from polyk.errors import InputError, InternalInvariantError
from polyk.linalg import IntEchelon
from polyk.polytope import (
    Face,
    _hull_facets,
    integer_grid,
    face_lattice,
    facets,
    validate,
)

from affine import apply_affine, random_invertible_affine
from oracles import (
    affine_dim,
    all_pairs_diamonds,
    all_pairs_order_axioms,
    all_pairs_verify_lattice,
    brute_force_facets,
    built,
    closure_face_lattice,
    cofactor_starting_cone,
    down_sets,
    faces_by_direction,
    failure,
    hull_by_rank,
    in_convex_hull,
    lattice_from_pairs,
    lower_covers,
    prism_over_cross,
    pyramid_prism,
    random_hull_draw,
    scan_hull_facets,
    vertex_closure_face_lattice,
)


# --- validate ---

def test_validate_segment():
    p = validate([(0,), (1,)])
    assert p.ambient_dim == 1 and p.nvertices == 2


def test_validate_names_redundant_point():
    # (1/2, 1/4) is a convex combination of the others (oracle-confirmed)
    pts = [(0, 0), (1, 0), (0, 1), (Fraction(1, 2), Fraction(1, 4))]
    assert in_convex_hull(pts[3], pts[:3], 2)
    with pytest.raises(InputError, match="point 3 not extreme"):
        validate(pts)


def test_validate_rejects_collinear():
    with pytest.raises(InputError) as err:
        validate([(0, 0), (1, 1), (2, 2)])
    assert str(err.value) == "hull not full-dimensional: affine dimension 1 < ambient 2"


def test_validate_takes_its_rank_from_the_hull():
    # the hull's starting basis of homogenized points has affine dim + 1
    # ids, so validate needs no affine dimension of its own: it accepts the
    # corpus and rejects four coplanar points in R^3
    members = acceptance_corpus()
    for P in members:
        Q = validate(P.vertices, P.name)
        assert Q == P and Q.facets == P.facets and hash(Q) == hash(P)
    with pytest.raises(InputError) as err:
        validate([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    assert str(err.value) == "hull not full-dimensional: affine dimension 2 < ambient 3"


def test_validate_rejects_duplicates():
    with pytest.raises(InputError, match="duplicate vertex: 2"):
        validate([(0, 0), (1, 0), (0, 0), (0, 1)])


def test_validate_finds_duplicates_on_the_integer_grid():
    # duplicates are found on the integer points of the grid the hull runs
    # on, so "1/2" and "2/4" are one coordinate; the rejection order is
    # kept: a coordinate count first, then a duplicate, then a hull that is
    # not full-dimensional (the last three points are collinear too)
    with pytest.raises(InputError) as err:
        validate([("0", "0"), ("1/2", "1"), ("1", "0"), ("2/4", "1")])
    assert str(err.value) == "duplicate vertex: 3 equals 1"
    with pytest.raises(InputError) as err:
        validate([("1/2", "0"), ("2/4", "0"), ("1",)])
    assert str(err.value) == "vertex 2 has 1 coordinates, expected 2"
    with pytest.raises(InputError) as err:
        validate([("0", "0"), ("1/2", "1/3"), ("2/4", "2/6")])
    assert str(err.value) == "duplicate vertex: 2 equals 1"
    assert validate([("1/2", "1/3"), ("1/3", "1/2"), ("0", "0")]).nvertices == 3


def test_validate_rejects_interior_point():
    pts = [(0, 0), (4, 0), (0, 4), (1, 1)]
    assert in_convex_hull((1, 1), pts[:3], 2)
    with pytest.raises(InputError, match="point 3 not extreme"):
        validate(pts)


def test_validate_names_point_on_an_edge():
    # (1, 0) lies on the edge from (0, 0) to (2, 0): on a facet, yet not a vertex
    with pytest.raises(InputError, match="point 3 not extreme .* only 1 of 2"):
        validate([(0, 0), (2, 0), (0, 2), (1, 0)])


def _random_points(rng: random.Random, d: int, n: int) -> list:
    """n random rational points on a coarse grid, plus the midpoint of two of
    them and the centroid of all, so collinear, coplanar, boundary and
    interior points are common; duplicates dropped, order kept."""
    pts = [tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(d))
           for _ in range(n)]
    pts.append(tuple((a + b) / 2 for a, b in zip(pts[0], pts[-1])))
    pts.append(tuple(sum(c) / len(pts) for c in zip(*pts)))
    return list(dict.fromkeys(pts))


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
@settings(max_examples=25)
def test_validate_extreme_check_matches_caratheodory_oracle(seed, d):
    rng = random.Random(seed)
    pts = _random_points(rng, d, rng.randint(d + 1, 7))
    if affine_dim(pts) != d:
        return
    inner = [i for i, p in enumerate(pts) if in_convex_hull(p, pts[:i] + pts[i + 1:], d)]
    if inner:
        with pytest.raises(InputError, match=f"point {inner[0]} not extreme"):
            validate(pts)
    else:
        assert validate(pts).nvertices == len(pts)


def test_validate_point_in_dimension_zero():
    p = validate([()])
    assert p.ambient_dim == 0
    assert face_lattice(p).f_vector == (1, 1)


def test_validate_inconsistent_coordinates():
    with pytest.raises(InputError, match="vertex 1 has 1 coordinates"):
        validate([(0, 0), (1,)])


# --- facets ---

def test_segment_facets():
    f = facets(validate([(0,), (1,)]))
    assert {(fc.normal, fc.offset) for fc in f} == {((-1,), Fraction(0)), ((1,), Fraction(1))}


def test_square_facets():
    f = facets(hypercube(2))
    assert len(f) == 4
    for fc in f:
        assert IntEchelon([fc.normal]).rank == 1
        assert affine_dim([hypercube(2).vertices[i] for i in fc.vertex_set]) == 1


def test_cube_facet_count():
    assert len(facets(hypercube(3))) == 6
    assert len(facets(cross_polytope(3))) == 8


def test_facets_support_all_vertices():
    p = validate([(0, 0), (3, 1), (4, 5), (1, 3)])
    for fc in facets(p):
        values = [sum(Fraction(a) * x for a, x in zip(fc.normal, v)) for v in p.vertices]
        assert all(v <= fc.offset for v in values)
        assert sorted(i for i, v in enumerate(values) if v == fc.offset) == list(fc.vertex_set)


def test_every_vertex_on_at_least_d_facets():
    for p in [simplex(3), hypercube(3), cross_polytope(3)]:
        f = facets(p)
        for i in range(p.nvertices):
            assert sum(1 for fc in f if i in fc.vertex_set) >= p.ambient_dim


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 5))
@settings(max_examples=60)
def test_facets_match_brute_force_oracle(seed, d):
    rng = random.Random(seed)
    pts = _random_points(rng, d, rng.randint(d + 1, 10))
    if affine_dim(pts) != d:
        return
    assert hull_facets_with_masks(pts, d) == brute_force_facets(pts, d)


def hull_facets_with_masks(pts, d):
    """``_hull_facets`` on ``pts``, its tight-set masks checked against
    each facet's vertex set encoded again, as ``_hull`` encoded it before
    it read the masks: the facets."""
    facet_list, masks = _hull_facets(integer_grid(pts), d)
    assert masks == [sum(1 << i for i in f.vertex_set) for f in facet_list]
    return facet_list


def test_validate_makes_at_most_d_plus_1_kernel_calls(monkeypatch):
    # the starting cone is one adjugate, not d + 1 cofactor kernels of
    # (d + 1)^2 Bareiss minors; C(32, 5) = 201,376 kernels before the double
    # description
    calls = []
    for name in ("cofactor_kernel_vector", "bareiss_det"):
        real = getattr(linalg, name)

        def counting(*args, name=name, real=real):
            calls.append(name)
            return real(*args)

        for module in (linalg, polytope):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    P = validate([[(k >> i) & 1 for i in range(5)] for k in range(32)])
    assert len(P.facets) == 10
    assert calls == []


@pytest.mark.parametrize("d", range(3, 8))
def test_hull_facets_match_scan_and_brute_force(d):
    # seeded point sets with redundant points (a midpoint and the centroid,
    # and grid points inside the hull) against both oracles; the 0/1 points
    # put many points on each facet, so that pairs with d - 1 common zeros
    # can be non-adjacent
    rng = random.Random(7000 + d)
    checked = redundant = 0
    while checked < 12:
        n = rng.randint(d + 2, d + 4)
        if checked % 2:
            corners = [tuple(Fraction(rng.randint(0, 1)) for _ in range(d)) for _ in range(n)]
            pts = list(dict.fromkeys(corners + [(Fraction(1, 2),) * d]))
        else:
            pts = _random_points(rng, d, n)
        if affine_dim(pts) != d:
            continue
        assert (hull_facets_with_masks(pts, d) == scan_hull_facets(pts, d)
                == brute_force_facets(pts, d))
        checked += 1
        redundant += bool(polytope._hull(integer_grid(pts), d)[1])
    assert redundant


def test_hull_facets_match_scan_on_larger_hulls():
    for seed, d, n in ((5, 5, 30), (6, 6, 24)):
        pts = random_hull_draw(random.Random(seed), d, n)
        facet_list, inner = polytope._hull(integer_grid(pts), d)
        assert inner  # interior points are inserted too
        assert facet_list == scan_hull_facets(pts, d)


def test_a_zero_ray_is_an_internal_error(monkeypatch):
    # opposite starting rays, a cone that is not pointed, combine into the
    # zero ray on the next point, (1, 2): its gcd is 0, and the double
    # description names it rather than dividing by 0
    monkeypatch.setattr(polytope, "_starting_cone",
                        lambda gens, basis: [((0, 1), 0b01), ((0, -1), 0b10)])
    with pytest.raises(InternalInvariantError, match="^zero vector has no primitive form$"):
        validate([(0,), (1,), (2,)])


def test_starting_cone_matches_cofactor_oracle():
    rng = random.Random(4)
    negative = 0
    for d in range(1, 8):
        for _ in range(20):
            pts = _random_points(rng, d, d + 3)
            gens = [(1,) + tuple(int(2 * x) for x in p) for p in pts]
            basis, _ = linalg.first_independent(gens, d + 1)
            if len(basis) != d + 1:
                continue
            assert polytope._starting_cone(gens, basis) == cofactor_starting_cone(gens, basis)
            negative += linalg.bareiss_det([gens[c] for c in basis]) < 0
    assert negative


def test_random_hull_redraws_like_the_rank_loop():
    # a seed whose first draw of three points in the plane is collinear,
    # found by search; the hull's error and the old rank test redraw alike
    seed = next(s for s in range(10 ** 4)
                if affine_dim(random_hull_draw(random.Random(s), 2, 3)) < 2)
    rng, old = random.Random(seed), random.Random(seed)
    P, Q = random_hull(rng, 2, 3, name="t"), hull_by_rank(old, 2, 3, name="t")
    assert P == Q and P.facets == Q.facets
    assert rng.getstate() == old.getstate()
    for k in range(20):
        rng, old = random.Random(k), random.Random(k)
        assert random_hull(rng, 3, 5).facets == hull_by_rank(old, 3, 5).facets
        assert rng.getstate() == old.getstate()


@pytest.mark.parametrize("dim, n_points", [(3, 3), (1, 60)],
                         ids=["below_dim_plus_1", "above_37_to_dim"])
def test_random_hull_rejects_unreachable_point_counts(dim, n_points):
    # fewer than dim + 1 points span no full-dimensional hull, and a grid of
    # 37 coordinates has only 37^dim distinct points: either count would
    # redraw forever, so it is refused before anything is drawn
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError, match=r"dim \+ 1 <= n_points <= 37\^dim"):
        random_hull(rng, dim, n_points)
    assert rng.getstate() == state


def test_random_hull_reaches_both_bounds():
    # dim + 1 points, and all 37 points of the 1-d grid, are drawn
    assert random_hull(random.Random(1), 3, 4).nvertices == 4
    assert random_hull(random.Random(1), 1, 37).vertices == ((-8,), (8,))


def _ridges(P, fc) -> set[tuple[int, ...]]:
    """Vertex sets of the ridges in facet fc: the oracle's facets of fc, with
    fc's points written in the d - 1 coordinates left after dropping one on
    which the facet normal is nonzero (an affine bijection of the hyperplane)."""
    k = next(j for j, a in enumerate(fc.normal) if a)
    pts = [tuple(x for j, x in enumerate(P.vertices[v]) if j != k) for v in fc.vertex_set]
    return {tuple(fc.vertex_set[i] for i in r.vertex_set)
            for r in brute_force_facets(pts, P.ambient_dim - 1)}


SCALE_CASES = {
    "cube6": (lambda: hypercube(6), 12),
    "cross7": (lambda: cross_polytope(7), 128),
    "simplex8": (lambda: simplex(8), 9),
    "hull40_d5": (lambda: random_hull(random.Random(11), 5, 40), None),
}


@pytest.mark.parametrize("case", sorted(SCALE_CASES))
def test_facets_complete_at_scale(case):
    """Checks that do not depend on how the facets were found.  Each listed
    facet supports every vertex and is tight on a set of affine dimension
    d - 1, so it is a true facet.  Where the facet count is known, the count
    then proves the list complete; otherwise every ridge of every listed
    facet must lie in exactly two listed facets, so the list is closed under
    crossing ridges and, the facet graph being connected, complete."""
    build, expected = SCALE_CASES[case]
    P = build()
    d = P.ambient_dim
    assert validate(P.vertices).facets == P.facets
    assert len({(fc.normal, fc.offset) for fc in P.facets}) == len(P.facets)
    for fc in P.facets:
        values = [sum(a * x for a, x in zip(fc.normal, v)) for v in P.vertices]
        assert max(values) == fc.offset
        assert tuple(i for i, v in enumerate(values) if v == fc.offset) == fc.vertex_set
        assert affine_dim([P.vertices[i] for i in fc.vertex_set]) == d - 1
    if expected is not None:
        assert len(P.facets) == expected
        return
    tight = [set(fc.vertex_set) for fc in P.facets]
    for fc in P.facets:
        for ridge in _ridges(P, fc):
            assert sum(1 for t in tight if t.issuperset(ridge)) == 2


# --- face lattice ---

def test_point_lattice():
    lat = face_lattice(simplex(0, name="point"))
    assert lat.f_vector == (1, 1)


def test_triangle_f_vector():
    assert face_lattice(simplex(2)).f_vector == (1, 3, 3, 1)


def test_cube_f_vector():
    assert face_lattice(hypercube(3)).f_vector == (1, 8, 12, 6, 1)


def test_cross4_f_vector():
    assert face_lattice(cross_polytope(4)).f_vector == (1, 8, 24, 32, 16, 1)


@pytest.mark.parametrize("poly", [simplex(2), simplex(3), hypercube(2), hypercube(3),
                                  cross_polytope(2), cross_polytope(3)],
                         ids=lambda p: p.name)
def test_faces_match_direction_oracle(poly):
    lat = face_lattice(poly)
    ours = {f.vertex_set for f in lat.faces_by_id} - {(), tuple(range(poly.nvertices))}
    oracle = faces_by_direction(poly.vertices, poly.ambient_dim)
    oracle.discard(tuple(range(poly.nvertices)))  # argmax of 0 is everything
    assert ours == oracle


def test_euler_relation_small():
    for p in [simplex(4), hypercube(3), cross_polytope(3)]:
        fv = face_lattice(p).f_vector
        assert sum((-1) ** j * fv[j + 1] for j in range(-1, p.ambient_dim + 1)) == 0


def test_lattice_is_graded_with_diamonds(small_corpus):
    # the lattice checks itself as it is built; the all-pairs oracle agrees
    for p in small_corpus:
        assert failure(all_pairs_verify_lattice, face_lattice(p)) is None, p.name


def test_face_lattice_returns_faces(small_corpus):
    # the walk makes each Face in C, by tuple.__new__, not by calling Face:
    # every face is still of the type Face, with its level's dimension
    for p in small_corpus + [cross_polytope(5), hypercube(4), random_hull(random.Random(3), 4, 9)]:
        lat = face_lattice(p)
        assert all(type(f) is Face and f.dim == k - 1
                   for k, level in enumerate(lat.faces_by_dim) for f in level), p.name


def _assert_matches_closure_oracle(P):
    """The lattice equals the intersection-closure oracle's, orders included,
    and each face's dimension, its level minus one, is the affine dimension
    of its vertices (the rank identity of a graded face lattice)."""
    lat = face_lattice(P)
    assert lat == closure_face_lattice(P)
    for f in lat.faces_by_id:
        assert f.dim == affine_dim([P.vertices[i] for i in f.vertex_set])


def test_lattice_matches_closure_oracle(small_corpus):
    for P in [*small_corpus, hypercube(5), cross_polytope(6)]:
        _assert_matches_closure_oracle(P)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5))
@settings(max_examples=30)
def test_lattice_matches_closure_oracle_on_random_hulls(seed, d):
    rng = random.Random(seed)
    _assert_matches_closure_oracle(random_hull(rng, d, rng.randint(d + 1, 10)))


def incidence_cases():
    """The acceptance corpus, cubes and cross-polytopes of dimension 1 to 6,
    seeded random hulls with fewer and with more facets than vertices, and
    the point."""
    rng = random.Random(1717)
    return [*acceptance_corpus(), *(hypercube(d) for d in range(1, 7)),
            *(cross_polytope(d) for d in range(1, 7)),
            *(random_hull(rng, d, k) for d in (2, 3, 4, 5) for k in (d + 3, 2 * d + 5)),
            simplex(0, name="point")]


def is_simplex(face) -> bool:
    return len(face.vertex_set) == face.dim + 1


def test_lattice_matches_the_vertex_side_oracle():
    # the top-down walk gives the levels, numbering, covering order and
    # vertex masks of the vertex-side closure, with fewer and with more
    # facets than vertices, on simplices (the point too) and on the inputs
    # whose cone pairs take the general route
    for P in [*incidence_cases(), *(simplex(d) for d in range(6)),
              prism_over_cross(4), pyramid_prism()]:
        oracle = vertex_closure_face_lattice(P)
        lat = face_lattice(P)
        assert lat == oracle, P.name
        assert lat.down == oracle.down and lat.up == oracle.up, P.name
        assert lat.covering == oracle.covering, P.name
        assert lat.vertex_masks == oracle.vertex_masks, P.name


def closure_step_faces(monkeypatch, P):
    """The vertex sets of the faces of P that take a closure step in
    ``face_lattice``, in the order they take it."""
    real = polytope._closure_step
    stepped = []

    def recording(face, *rest):  # face: the walk's record, vertex mask second
        stepped.append(polytope.set_bits(face[1]))
        return real(face, *rest)

    monkeypatch.setattr(polytope, "_closure_step", recording)
    face_lattice(P)
    return stepped


def test_closure_step_runs_on_faces_that_are_not_simplices(monkeypatch):
    # the faces that are not simplices, |F| > dim F + 1, take the
    # non-simplex rules: P reads its facets and every other one takes one
    # closure step; the simplex faces, P too if it is one, drop a vertex.
    # On the 4-cross-polytope that is P alone, with no closure step; on the
    # 4-cube P and every face of dimension 2 and 3
    for P in (cross_polytope(4), hypercube(4), simplex(3), *acceptance_corpus()):
        lat = face_lattice(P)
        stepped = closure_step_faces(monkeypatch, P)
        assert len(stepped) == len(set(stepped)), P.name
        expected = {f.vertex_set for f in lat.faces_by_id if not is_simplex(f)}
        expected.discard(lat.faces_by_id[-1].vertex_set)
        assert set(stepped) == expected, P.name
    assert closure_step_faces(monkeypatch, cross_polytope(4)) == []
    cube = face_lattice(hypercube(4))
    assert sorted(closure_step_faces(monkeypatch, hypercube(4))) == sorted(
        f.vertex_set for f in (*cube.faces(2), *cube.faces(3)))


def test_point_takes_the_simplex_rule(monkeypatch):
    # the point has no facets: as a 0-simplex it covers itself minus its
    # one vertex, the empty face, with no closure step
    assert closure_step_faces(monkeypatch, simplex(0, name="point")) == []
    lat = face_lattice(simplex(0, name="point"))
    assert lat.faces_by_dim == ((Face((), -1),), (Face((0,), 0),))
    assert lat.down == ((), (0,))


def nested_candidate_cases():
    """0/1 point sets in dimensions 3 to 5, a pyramid over a square and a
    prism over a pentagon: polytopes with faces that are not simplices, so
    some of a face's candidate closures lie inside others."""
    rng = random.Random(2903)
    cases = []
    for d in (3, 4, 5):
        cube = [tuple(k >> i & 1 for i in range(d)) for k in range(2 ** d)]
        for size in (d + 2, 2 ** (d - 1) + 1, 2 ** d - 2):
            points = rng.sample(cube, size)
            while affine_dim(points) < d:
                points = rng.sample(cube, size)
            cases.append(validate(points, name=f"zero_one{d}_{size}"))
    cases.append(validate([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)],
                          name="pyramid_square"))
    pentagon = [(0, 0), (2, 0), (3, 2), (1, 3), (-1, 2)]
    cases.append(validate([v + (t,) for t in (0, 1) for v in pentagon], name="prism_pentagon"))
    return cases


def nested_candidates(atoms_of, lattice_atoms):
    """The number of elements, given by their atom and coatom masks, with
    two candidate closures hc != h2, h2 inside hc: the closure with h2 then
    takes in atoms whose own candidate is not h2."""
    count = 0
    for fa, fc in lattice_atoms:
        candidates = {fc & c for a, c in enumerate(atoms_of) if not fa >> a & 1}
        count += any(h2 != hc and h2 & hc == h2 for hc in candidates for h2 in candidates)
    return count


def test_closures_from_candidates_match_the_vertex_side_oracle():
    # each new face's facet mask is the AND of its vertices' and the cover
    # test is a mask identity (``_closure_step``); the levels, numbering and
    # covers are the oracle's, on five inputs where candidate closures nest
    # on faces that take a closure step (the others have too few faces that
    # are not simplices)
    nesting = []
    for P in nested_candidate_cases():
        oracle = vertex_closure_face_lattice(P)
        lat = face_lattice(P)
        assert lat.faces_by_dim == oracle.faces_by_dim, P.name
        assert lat.down == oracle.down and lat.up == oracle.up, P.name
        vfac = [sum(1 << j for j, fc in enumerate(P.facets) if v in fc.vertex_set)
                for v in range(P.nvertices)]
        every = (1 << len(P.facets)) - 1
        stepped = [(reduce(and_, (vfac[v] for v in f.vertex_set), every),
                    sum(1 << v for v in f.vertex_set))
                   for f in oracle.faces_by_id[:-1] if not is_simplex(f)]
        fvert = [sum(1 << v for v in fc.vertex_set) for fc in P.facets]
        if nested_candidates(fvert, stepped):
            nesting.append(P.name)
    assert nesting == ["zero_one4_9", "zero_one4_14", "zero_one5_17", "zero_one5_30",
                       "prism_pentagon"]


def corrupt_facets(P, kind):
    """P with its facet list broken one way, the vertex sets alone kept:
    the first facet missing its first vertex or given the first vertex
    outside it, the first facet dropped, or a "facet" added on the first
    edge of the first facet, a ridge of it in dimension 3."""
    sets = [fc.vertex_set for fc in P.facets]
    first = sets[0]
    if kind == "missing_vertex":
        sets[0] = first[1:]
    elif kind == "extra_vertex":
        sets[0] = tuple(sorted(first + (min(set(range(P.nvertices)) - set(first)),)))
    elif kind == "dropped_facet":
        del sets[0]
    else:
        ridge = next(e.vertex_set for e in face_lattice(P).faces(P.ambient_dim - 2)
                     if set(e.vertex_set) <= set(first))
        sets.append(ridge)
    return polytope.Polytope(P.ambient_dim, P.vertices, tuple(
        polytope.Facet(normal=(0,) * P.ambient_dim, offset=Fraction(0), vertex_set=vs)
        for vs in sets), name=f"{P.name}_{kind}")


CORRUPT_CASES = {
    ("cube3", "missing_vertex"):
        r"diamond property fails between \{0\} and \{0,1,2,3\}: 1 intermediate elements",
    ("cube3", "extra_vertex"): r"level 0 of the face lattice must hold the empty face \{\} "
                               r"alone, found \[\{\}, \{1\}\]",
    ("cube3", "dropped_facet"):
        r"diamond property fails between \{0\} and \{0,1,2,3\}: 1 intermediate elements",
    ("cube3", "nested_ridge"): r"face \{0,2\} found at levels 2 and 3",
    ("cross3", "missing_vertex"): r"face \{3,5\} found at levels 2 and 3",
    ("cross3", "extra_vertex"): r"level 0 of the face lattice must hold the empty face \{\} "
                                r"alone, found \[\{\}, \{0\}, \{3\}, \{5\}\]",
    ("cross3", "dropped_facet"):
        r"diamond property fails between \{1,3\} and \{0,1,2,3,4,5\}: 1 intermediate elements",
    ("cross3", "nested_ridge"): r"face \{1,3\} found at levels 2 and 3",
}


@pytest.mark.parametrize("case", CORRUPT_CASES, ids="-".join)
def test_corrupt_facet_list_names_a_face(case):
    # a facet list that is not P's fails in the walk's level checks or as
    # the lattice is built, naming a face; the nested ridge, a facet's edge
    # listed as a facet too, passed the closure before the walk read P's
    # lower covers off the facet list (cross3 gave f-vector (1, 6, 12, 8, 1))
    name, kind = case
    P = {"cube3": hypercube(3), "cross3": cross_polytope(3)}[name]
    with pytest.raises(InternalInvariantError, match=f"^{CORRUPT_CASES[case]}$"):
        face_lattice(corrupt_facets(P, kind))


def test_face_lattice_takes_no_rank(monkeypatch):
    P = cross_polytope(5)
    real = linalg.rank
    calls = []

    def counting(M):
        calls.append(M)
        return real(M)

    monkeypatch.setattr(linalg, "rank", counting)
    assert face_lattice(P).f_vector == (1, 10, 40, 80, 80, 32, 1)
    assert calls == []  # one rational rank per face of dimension >= 1 before: 233


def test_verify_lattice_rejects_broken_diamond():
    # bounded and graded, but three faces lie between the bottom and the
    # top: refused as it is built
    bottom, top = Face((), -1), Face((0, 1, 2), 1)
    atoms = (Face((0,), 0), Face((1,), 0), Face((2,), 0))
    with pytest.raises(InternalInvariantError,
                       match=r"^diamond property fails between \{\} and \{0,1,2\}: "
                             r"3 intermediate elements$"):
        lattice_from_pairs(1, ((bottom,), atoms, (top,)),
                           tuple((bottom, v) for v in atoms) + tuple((v, top) for v in atoms))


def test_verify_lattice_names_missing_cover():
    # the lattice checks its grading as it is built, so the lattice is
    # never made, and the all-pairs oracle names the same face
    bottom, top = Face((), -1), Face((0, 1), 1)
    atoms = (Face((0,), 0), Face((1,), 0))
    args = (1, ((bottom,), atoms, (top,)),
            ((bottom, atoms[0]), (bottom, atoms[1]), (atoms[0], top)))
    with pytest.raises(InternalInvariantError, match=r"^\{1\} has no upper cover: not graded$"):
        lattice_from_pairs(*args)
    assert failure(all_pairs_verify_lattice, lattice_from_pairs(*args, unchecked=True)) == \
        "{1} has no upper cover: not graded"


def test_verify_lattice_tests_containment_not_cover_paths():
    # the tetrahedron's 2-face {0,1,2} given the vertex set {0,1,2,3}, its
    # covers {0,1}, {1,2}, {0,2} kept: {3} lies in it, but no path of
    # covers leads from {3} to it; the top gets a vertex 4, so that every
    # cover stays a strict vertex-set containment.  The face is not the
    # union of the vertices below it, refused before any diamond, as the
    # all-pairs oracle refuses it
    lat = face_lattice(simplex(3))
    renamed = {Face((0, 1, 2), 2): Face((0, 1, 2, 3), 2),
               lat.faces_by_id[-1]: Face((0, 1, 2, 3, 4), 3)}
    new = renamed[Face((0, 1, 2), 2)]

    def swap(f):
        return renamed.get(f, f)

    broken = lattice_from_pairs(3, tuple(tuple(map(swap, level)) for level in lat.faces_by_dim),
                                tuple((swap(e), swap(f)) for e, f in lat.covering), unchecked=True)
    assert lower_covers(broken, new) == (Face((0, 1), 1), Face((0, 2), 1), Face((1, 2), 1))
    message = "face {0,1,2,3} is not the union of the vertices below it"
    assert failure(built, broken) == failure(all_pairs_verify_lattice, broken) == message


def test_verify_lattice_rejects_cover_that_is_not_a_containment():
    # an edge of the 4-cube added below a 2-face that does not hold it (the
    # diamond counts alone pass this lattice), and the tetrahedron's 2-face
    # {0,1,2} given the top's vertex set, so that the top covers an equal
    # set: two faces of one vertex mask, refused before any containment
    cube = face_lattice(hypercube(4))
    edge, square = Face((4, 12), 1), Face((9, 11, 13, 15), 2)
    assert edge in cube.faces(1) and square in cube.faces(2)
    tetra = face_lattice(simplex(3))
    old, new = Face((0, 1, 2), 2), Face((0, 1, 2, 3), 2)

    def swap(f):
        return new if f == old else f

    cases = [
        ((cube.dim, cube.faces_by_dim, cube.covering + ((edge, square),)),
         f"covering pair ({edge}, {square}) is not a strict vertex-set containment"),
        ((tetra.dim, tuple(tuple(map(swap, level)) for level in tetra.faces_by_dim),
          tuple((swap(e), swap(f)) for e, f in tetra.covering)),
         f"face {tetra.faces_by_id[-1]} found at levels 3 and 4"),
    ]
    for args, message in cases:
        # refused as it is built, before its grading is checked
        with pytest.raises(InternalInvariantError) as err:
            lattice_from_pairs(*args)
        assert str(err.value) == message
        assert failure(all_pairs_verify_lattice, lattice_from_pairs(*args, unchecked=True)) == \
            message


def test_vertex_masks_are_the_vertex_sets_and_the_lattice_checks_read_them(
        small_corpus):
    # face_lattice keeps the vertex masks its walk found, by face id;
    # a lattice built from faces and covers derives the same ones; and
    # the checks as the lattice is built read them, not the vertex sets:
    # the cube's lattice with the mask of one vertex cleared repeats the
    # empty face's mask, and with it moved to a bit no face has, the
    # vertex's covers fail the containment check
    for poly in list(small_corpus) + [hypercube(4), cross_polytope(4)]:
        lat = face_lattice(poly)
        masks = tuple(sum(1 << v for v in f.vertex_set) for f in lat.faces_by_id)
        assert lat.vertex_masks == masks, poly.name
        assert lattice_from_pairs(lat.dim, lat.faces_by_dim, lat.covering).vertex_masks == masks
    lat = face_lattice(hypercube(3))
    vertex = lat.face_id[lat.faces(0)[0]]
    edge = lat.up[vertex][0]
    for mask, message in ((0, f"face {lat.faces_by_id[vertex]} found at levels 0 and 1"),
                          (1 << 8, f"covering pair ({lat.faces_by_id[vertex]}, "
                                   f"{lat.faces_by_id[edge]}) is not a strict vertex-set "
                                   "containment")):
        masks = list(lat.vertex_masks)
        masks[vertex] = mask
        with pytest.raises(InternalInvariantError) as err:
            polytope.FaceLattice(lat.dim, lat.faces_by_dim, lat.down, vertex_masks=tuple(masks))
        assert str(err.value) == message


# --- the simplex certificate ---

def certificate_holds(lat) -> bool:
    """Does every simplex face, one whose vertex mask has rank + 1 bits,
    pass the simplex certificate, so that the highs it returns hold no
    simplex?"""
    masks = lat.vertex_masks
    return all(masks[g].bit_count() != r + 1
               for r, highs in enumerate(polytope.simplex_certificate(lat)) for g in highs)


def test_simplex_certificate_holds_on_polytopes_and_verify_matches_all_pairs():
    # every simplex face of a face lattice passes the certificate, so its
    # diamond check reads the diamonds only below faces that are not
    # simplices, and the all-pairs oracle, which reads every pair, finds
    # each lattice sound as well
    rng = random.Random(3901)
    inputs = (acceptance_corpus() + [hypercube(d) for d in range(1, 7)]
              + [cross_polytope(d) for d in range(1, 7)] + [simplex(8)]
              + [random_hull(rng, d, d + 6) for d in range(3, 7)]
              + [prism_over_cross(4), prism_over_cross(5), pyramid_prism()])
    for poly in inputs:
        lat = face_lattice(poly)
        assert certificate_holds(lat), poly.name
        assert failure(built, lat) == failure(all_pairs_verify_lattice, lat) is None, poly.name
    # on a simplicial polytope only P is left as a high: the diamonds of P
    # over its ridges; on a simplex not even P
    for poly, simplicial in ((cross_polytope(6), True), (simplex(8), False)):
        lat = face_lattice(poly)
        top = [len(lat.faces_by_id) - 1] if simplicial else []
        assert polytope.simplex_certificate(lat) == [[]] * lat.dim + [top]


TRIANGLE = Face((0, 1, 2), 2)


def tetrahedron_with_covers(drop=(), extra=(), unchecked=False) -> polytope.FaceLattice:
    lat = face_lattice(simplex(3))
    return lattice_from_pairs(3, lat.faces_by_dim,
                              tuple(c for c in lat.covering if c not in drop) + tuple(extra),
                              unchecked)


def tetrahedron_with_a_repeated_mask(unchecked=False) -> polytope.FaceLattice:
    """The tetrahedron with the vertex {3} given the vertex set {0,1}, that
    of the edge {0,1} a level up, and placed first in its level; every face
    above it gains {0,1} and a new vertex of its own (4 to 9), so that
    every cover stays a strict containment.  {0,1} then lies in the
    triangle {0,1,2}, with no path of covers between them."""
    lat = face_lattice(simplex(3))
    renamed = {Face((3,), 0): (0, 1), Face((0, 3), 1): (0, 1, 3, 4),
               Face((1, 3), 1): (0, 1, 3, 5), Face((2, 3), 1): (0, 1, 2, 3, 6),
               Face((0, 1, 3), 2): (0, 1, 3, 4, 5, 7),
               Face((0, 2, 3), 2): (0, 1, 2, 3, 4, 6, 8),
               Face((1, 2, 3), 2): (0, 1, 2, 3, 5, 6, 9), lat.faces_by_id[-1]: tuple(range(10))}

    def swap(f):
        return Face(renamed[f], f.dim) if f in renamed else f

    levels = [list(map(swap, level)) for level in lat.faces_by_dim]
    levels[1].insert(0, levels[1].pop())
    return lattice_from_pairs(3, levels, tuple((swap(e), swap(f)) for e, f in lat.covering),
                              unchecked)


SHORT = "diamond property fails between {1} and {0,1,2}: 1 intermediate elements"
SHORT_BY_A_SKIP = "cover ({}, {0,1,2}) skips a rank: not graded"


@pytest.mark.parametrize("build, message", [
    (lambda: tetrahedron_with_covers(drop=[(Face((1, 2), 1), TRIANGLE)], unchecked=True), SHORT),
    (lambda: tetrahedron_with_a_repeated_mask(unchecked=True), "face {0,1} found at levels 1 and 2"),
    (lambda: tetrahedron_with_covers(drop=[(Face((1, 2), 1), TRIANGLE)],
                                     extra=[(Face((), -1), TRIANGLE)], unchecked=True),
     SHORT_BY_A_SKIP),
], ids=["simplex-short-of-a-cover", "two-faces-one-mask", "cover-skips-a-level"])
def test_simplex_certificate_fails_and_the_full_check_names_the_pair(build, message):
    # one premise of the diamond check's shortcut broken each: the triangle
    # {0,1,2} has two lower covers, so it fails the certificate on its own
    # and stays a high, and the check names the pair below it as the
    # all-pairs oracle does; a vertex repeats an edge's mask, refused by the
    # distinct-mask axiom before any diamond; the triangle covers the empty
    # face in place of {1,2}, refused by the graded axiom.  In the last two
    # the triangle passes the certificate.  The lattices here are
    # unchecked, so that the certificate can be read on each
    lat = build()
    triangle = lat.face_id[TRIANGLE]
    assert lat.vertex_masks[triangle].bit_count() == TRIANGLE.dim + 1
    highs = polytope.simplex_certificate(lat)
    assert (triangle in highs[TRIANGLE.dim]) == (message == SHORT)
    assert failure(built, lat) == failure(all_pairs_verify_lattice, lat) == message


@pytest.mark.parametrize("drop, extra, pair", [
    ((), [(Face((0,), 0), Face((0, 1), 1))], "({0}, {0,1})"),
    ([(Face((1, 2), 1), TRIANGLE)], [(Face((0, 1), 1), TRIANGLE)], "({0,1}, {0,1,2})"),
], ids=["vertex-under-edge", "edge-under-triangle-in-place-of-another"])
def test_a_cover_listed_twice_is_an_error_at_construction(drop, extra, pair):
    # each cover is listed once (GradedIds): a path count would see a
    # repeated one twice, and reject the sound lattice of the first case
    # with 2 intermediate elements, or take the second case's repeat for
    # the dropped cover and accept it
    with pytest.raises(InternalInvariantError) as err:
        tetrahedron_with_covers(drop=drop, extra=extra)
    assert str(err.value) == f"cover {pair} is listed twice"


def test_simplex_certificate_holds_and_a_diamond_above_a_square_fails():
    # the cube without the cover ({0,1}, {0,1,2,3}): the simplex faces keep
    # their covers, so the certificate holds, and the square, not a
    # simplex, is still a high of the diamond check
    lat = face_lattice(hypercube(3))
    edge, square = Face((0, 1), 1), Face((0, 1, 2, 3), 2)
    assert (edge, square) in lat.covering
    broken = lattice_from_pairs(3, lat.faces_by_dim,
                                tuple(c for c in lat.covering if c != (edge, square)),
                                unchecked=True)
    assert certificate_holds(broken)
    assert failure(built, broken) == failure(all_pairs_verify_lattice, broken) == \
        "diamond property fails between {0} and {0,1,2,3}: 1 intermediate elements"


def test_the_diamond_check_on_some_highs_names_the_first_failing_pair_among_them(
        monkeypatch):
    # the 4-cube, whole and without one cover, each in turn, that keeps it
    # graded; with every second element of each rank as a high, with the
    # others, and with none, the check names the first failing pair whose
    # high is one of them, as the all-pairs count of paths on those highs
    # does
    lat = face_lattice(hypercube(4))
    lattices = [lat] + [
        lattice_from_pairs(lat.dim, lat.faces_by_dim, [c for c in lat.covering if c != drop],
                           unchecked=True) for drop in lat.covering[::3]]
    lattices = [x for x in lattices if failure(all_pairs_order_axioms, x) is None]
    named = set()
    for some in (slice(0, None, 2), slice(1, None, 2), slice(0, 0)):
        highs = [list(lat.ids(r))[some] for r in range(lat.dim + 1)]
        monkeypatch.setattr(polytope, "simplex_certificate", lambda L: highs)
        for broken in lattices:
            found = failure(lambda x: x._verify_diamonds(), broken)
            assert found == failure(lambda x: all_pairs_diamonds(
                x, down_sets(x), {h for level in highs for h in level}), broken)
            named.add(found)
    assert None in named and len(named) > 10


# --- covering pairs ---

def test_covering_triangle_edges():
    lat = face_lattice(simplex(2))
    assert sum(len(lower_covers(lat, f)) for f in lat.faces(1)) == 6


def test_covering_bottom_rank():
    lat = face_lattice(hypercube(2))
    pairs = [(e, f) for e, f in lat.covering if f.dim == 0]
    assert len(pairs) == 4
    assert all(e.dim == -1 for e, _ in pairs)
    assert all(lower_covers(lat, v) == (lat.faces_by_id[0],) for v in lat.faces(0))


def test_covering_segment():
    lat = face_lattice(simplex(1))
    assert len(lower_covers(lat, lat.faces_by_id[-1])) == 2


def test_faces_out_of_range():
    lat = face_lattice(simplex(1))
    assert lat.faces(-1) == (lat.faces_by_id[0],)
    with pytest.raises(ValueError, match=r"face dimension 2 out of range \[-1, 1\]"):
        lat.faces(2)
    with pytest.raises(ValueError):
        lat.faces(-2)


# --- invariance properties ---

@given(st.randoms(use_true_random=False))
@settings(max_examples=15)
def test_lattice_invariant_under_relabeling(rnd):
    p = hypercube(2)
    perm = list(range(p.nvertices))
    rnd.shuffle(perm)
    relabeled = validate([p.vertices[perm[i]] for i in range(p.nvertices)])
    lat1 = face_lattice(p)
    lat2 = face_lattice(relabeled)
    back = lambda fs: tuple(sorted(perm[v] for v in fs))
    assert {back(f.vertex_set) for f in lat2.faces_by_id} == \
        {f.vertex_set for f in lat1.faces_by_id}


@given(st.integers(0, 10_000))
@settings(max_examples=10)
def test_lattice_invariant_under_affine_maps(seed):
    rng = random.Random(seed)
    p = cross_polytope(2)
    A, t = random_invertible_affine(rng, 2)
    q = apply_affine(p, A, t)
    lat1, lat2 = face_lattice(p), face_lattice(q)
    assert lat1.f_vector == lat2.f_vector
    assert {f.vertex_set for f in lat1.faces_by_id} == {f.vertex_set for f in lat2.faces_by_id}


def test_random_hulls_validate(small_corpus):
    rng = random.Random(99)
    for k in range(5):
        p = random_hull(rng, 2 + k % 3, 7)
        fv = face_lattice(p).f_vector
        assert sum((-1) ** j * fv[j + 1] for j in range(-1, p.ambient_dim + 1)) == 0


def test_validate_rejects_empty_vertex_list():
    with pytest.raises(InputError, match="^empty vertex list$"):
        validate([])


@pytest.mark.parametrize("points, message", [
    ([[0], [0], [1]], "duplicate vertex: 1 equals 0"),
    ([], "empty vertex list"),
    ([[0, 0], [1], [0, 1]], "vertex 1 has 1 coordinates, expected 2"),
], ids=["duplicate", "empty", "ragged"])
def test_convex_hull_makes_the_input_checks_of_validate(points, message):
    # both entry points share one input check: unchecked, the repeated
    # point gave a 1-d polytope with a facet on no vertex, which the face
    # lattice refused, the empty list an IndexError, and the ragged rows
    # a non-square adjugate
    for build in (validate, polytope.convex_hull):
        with pytest.raises(InputError) as err:
            build(points)
        assert str(err.value) == message, build.__name__


def test_cross_polytope_needs_dimension_one():
    with pytest.raises(InputError) as err:
        cross_polytope(0)
    assert str(err.value) == "cross-polytope needs dimension >= 1"


def test_verify_lattice_names_unbounded_f_vector():
    # two vertices over the empty face with no top face: covers are strict
    # containments, but the lattice has no top, and is refused as it is
    # built
    empty, a, b = Face((), -1), Face((0,), 0), Face((1,), 0)
    args = (1, ((empty,), (a, b), ()), [(empty, a), (empty, b)])
    with pytest.raises(InternalInvariantError) as err:
        lattice_from_pairs(*args)
    assert str(err.value) == "not bounded: f-vector (1, 2, 0)" == \
        failure(all_pairs_verify_lattice, lattice_from_pairs(*args, unchecked=True))


@pytest.mark.parametrize("dim, down, message", [
    (3, (), "dim 3 does not fit f-vector (1, 2, 1)"),
    (0, (), "dim 0 does not fit f-vector (1, 2, 1)"),
    (1, ((), (0,), (0,), (1, 2), ()), "5 lists of lower covers for 4 elements"),
    (1, ((), (0,), (0,), (1, -2)), "lower cover id -2 of {0,1} names no element"),
], ids=["dim-beyond-levels", "dim-below-levels", "down-beyond-faces", "negative-cover-id"])
def test_face_lattice_refuses_a_malformed_shape(dim, down, message):
    # the segment's levels with a dim they do not fit, a down list for a
    # face it does not have, or a cover id -2, which would wrap to the
    # face {1}
    lat = face_lattice(simplex(1))
    with pytest.raises(InternalInvariantError) as err:
        polytope.FaceLattice(dim, lat.faces_by_dim, down or lat.down, lat.vertex_masks)
    assert str(err.value) == message


@pytest.mark.parametrize("masks", [(0, 1, 2), (0, 1, 2, 3, 8)], ids=["short", "long"])
def test_face_lattice_refuses_vertex_masks_of_the_wrong_length(masks):
    # one vertex mask per face, or the lattice is refused before any check,
    # with both counts; a short tuple raised IndexError and a long one
    # StopIteration
    lat = face_lattice(simplex(1))
    with pytest.raises(InternalInvariantError) as err:
        polytope.FaceLattice(lat.dim, lat.faces_by_dim, lat.down, vertex_masks=masks)
    assert str(err.value) == f"{len(masks)} vertex masks for 4 faces"


def test_face_lattice_of_a_polytope_without_facets_names_bottom_level():
    # a Polytope record built by hand with no facets: the walk from the top
    # finds no lower cover, so level 0 is empty, an error naming the level
    square = hypercube(2)
    with pytest.raises(InternalInvariantError) as err:
        face_lattice(square._replace(facets=()))
    assert str(err.value) == (
        "level 0 of the face lattice must hold the empty face {} alone, found []")
