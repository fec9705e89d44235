"""Orientation bases, incidence signs, boundary matrices, and homology.

The sign convention is pinned against the classical simplicial boundary
formula with alternating signs (oracle in tests/oracles.py): on simplices
the two complexes must agree up to a diagonal +-1 change of basis.
"""

import dataclasses
import hashlib
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import polyk.cellular as cellular
import polyk.cones as cones
import polyk.linalg as linalg
import polyk.pipeline as pipeline
from polyk.cellular import (
    ZERO_GROUP,
    AbelianGroup,
    ChainComplex,
    HomologyResult,
    Z,
    boundary_columns,
    boundary_squared_entry,
    build_complex,
    diagonal_sign_equivalence,
    homology,
    homology_pair,
    incidence_sign,
    trivialize,
)
from polyk.comb_type import is_isomorphic, lattice_from_incidence, strip_signs
from polyk.cones import ConeSystem, EdgeRay, lift
from polyk.corpus import (
    acceptance_corpus,
    cross_polytope,
    hypercube,
    random_hull,
    simplex,
)
from polyk.errors import InternalInvariantError
from polyk.linalg import int_mat_mul
from polyk.pipeline import run_pipeline
from polyk.polytope import Face, face_lattice, validate
from polyk.sparse import dense_matrix

from oracles import (
    complex_from_dense,
    dense_homology_pair,
    dense_matrices,
    gram_incidence_sign,
    int_mat_is_zero,
    lower_covers,
    oracle_incidence_sign,
    pair_route,
    PerFaceSystem,
    prism_over_cross,
    pyramid_prism,
    simplicial_boundary_matrices,
    span_basis,
    sparse_columns,
)


def setup_polytope(poly):
    lat = face_lattice(poly)
    system = ConeSystem(lift(poly), lat)
    triv = trivialize(lat)
    return lat, system, triv


def boundary_matrix(triv, lat, system, j):
    """D_j as a dense matrix, rows over (j-1)-faces, columns over j-faces."""
    return dense_matrix(boundary_columns(triv, system, j), len(lat.faces(j - 1)))


# --- trivialize ---

def test_trivialize_vertex_and_empty():
    # a trivialization is the set of its flips' face ids; the bases it
    # orients are the face data's span bases
    poly = simplex(2)
    lat, system, triv = setup_polytope(poly)
    v0 = lat.faces(0)[0]
    assert triv == frozenset()
    assert trivialize(lat, flip_faces=[v0]) == {lat.face_id[v0]}
    v0_data = system.face_data(lat.face_id[v0])
    assert span_basis(system.cone, v0_data) == (system.cone.generators[0],)
    assert len(system.face_data(0).span_ids) == 0
    assert len(system.face_data(len(lat.faces_by_id) - 1).span_ids) == 3


def test_trivialize_rejects_flipping_empty_face():
    poly = simplex(1)
    lat, system, _ = setup_polytope(poly)
    with pytest.raises(ValueError):
        trivialize(lat, flip_faces=[lat.faces_by_id[0]])


def test_trivialize_rejects_flipping_a_face_not_in_the_lattice():
    lat, system, _ = setup_polytope(hypercube(2))
    diagonal = Face(vertex_set=(0, 3), dim=1)  # two opposite corners of the square
    too_big = Face(vertex_set=(0, 1, 2, 3), dim=3)
    for stray in (diagonal, too_big):
        with pytest.raises(ValueError) as err:
            trivialize(lat, flip_faces=[lat.faces_by_id[-1], stray])
        assert str(err.value) == f"cannot flip {stray}: it is not a face of the lattice"


def test_one_span_basis_per_face_per_run(monkeypatch):
    # the edge rays and the cross-checks read the span basis off the face
    # data, picked once per face that carries data by the bordered Gram
    # pass, resumed from a lower cover's or walked in full.  On the 3-cube
    # those are the faces that are not simplices, the six squares and the
    # top; a simplex face's span ids are its vertex ids, with no pass
    real = cones.face_cone_data
    calls = []

    def counting(F, gram, cover=None):
        calls.append(F)
        return real(F, gram, cover)

    for module in (cones, cellular):
        if hasattr(module, "face_cone_data"):
            monkeypatch.setattr(module, "face_cone_data", counting)
    result = run_pipeline(hypercube(3))
    assert calls == [f for f in result.lattice.faces_by_id if len(f.vertex_set) > f.dim + 1]
    assert len(calls) == 7


def test_no_edge_ray_per_run(monkeypatch):
    # build_complex walks each covering pair once, and neither ConeSystem
    # nor build_complex makes a ray: a pair with m = 0 is read off F's
    # adjugate, and one with m > 0 (a span id of E outside F's basis) is
    # filled by the diamond rule.  On the 4-cube 76 pairs of 232 have
    # m > 0, all of two dual-simple faces; on the prism over a square
    # pyramid 38 do, 4 of them with a face that is not dual-simple (the
    # oracle's general route).  A ray of the per-pair API builds its
    # n-vector direction only when it is read
    real = cones.edge_ray
    calls = []
    built = []
    direction = EdgeRay.direction

    def counting(C, e, f, **kwargs):
        calls.append((e, f))
        return real(C, e, f, **kwargs)

    def building(ray):
        built.append(ray.pair)
        return direction.fget(ray)

    monkeypatch.setattr(cones, "edge_ray", counting)
    monkeypatch.setattr(EdgeRay, "direction", property(building))
    for poly, pairs, m_positive, general in ((hypercube(4), 232, 76, 0),
                                             (pyramid_prism(), 159, 38, 4)):
        result = run_pipeline(poly)
        lat = result.lattice
        system = ConeSystem(lift(poly), lat)
        routes = {(lat.faces_by_id[e], lat.faces_by_id[f]): pair_route(system, e, f)
                  for f, lower in enumerate(lat.down) for e in lower}
        assert len(lat.covering) == pairs
        assert sum(route != "adjugate" for route in routes.values()) == m_positive
        assert sum(route == "general" for route in routes.values()) == general
        assert calls == []
    assert not built
    ray = ConeSystem(lift(hypercube(1)), face_lattice(hypercube(1))).ray(1, 3)
    assert ray.direction == (0, 1) and built == [ray.pair]


@pytest.mark.parametrize("polys, counts", [
    (lambda: acceptance_corpus(), (57, 0)),
    (lambda: [hypercube(5)], (131, 0)),
    (lambda: [cross_polytope(5)], (1, 0)),
    (lambda: [prism_over_cross(4)], (75, 48)),
    (lambda: [prism_over_cross(5)], (235, 160)),
    (lambda: [pyramid_prism()], (18, 4)),
], ids=["corpus", "cube5", "cross5", "prism_cross4", "prism_cross5", "pyramid_prism"])
def test_face_data_only_where_a_pair_reads_it(polys, counts, monkeypatch):
    # a run builds the face data of each face that is not a simplex once,
    # and none of a simplex face, nor any while the complex is built: the
    # system holds data exactly for the faces with |F| > dim F + 1, and no
    # ray is made and none cross-checked.  counts: the faces that are not
    # simplices, and the pairs of the oracle's general route whose E is a
    # simplex, whose sign the system fills by the diamond rule
    real = cones.face_cone_data
    built, rays = [], []

    def counting(F, *args):
        built.append(F)
        return real(F, *args)

    def refused(name):
        return lambda *args, **kwargs: rays.append(name)

    monkeypatch.setattr(cones, "face_cone_data", counting)
    for name in ("edge_ray", "edge_ray_crosscheck"):
        monkeypatch.setattr(cones, name, refused(name))
    got = [0, 0]
    for poly in polys():
        built.clear()
        result = run_pipeline(poly)
        lat, data = result.lattice, list(built)
        simplex = [len(F.vertex_set) == F.dim + 1 for F in lat.faces_by_id]
        assert [d is None for d in result.system._face_data] == simplex, poly.name
        assert Counter(data) == Counter(F for f, F in enumerate(lat.faces_by_id)
                                        if not simplex[f]), poly.name
        system = PerFaceSystem(result.system)
        got[0] += simplex.count(False)
        got[1] += sum(simplex[e] and pair_route(system, e, f) == "general"
                      for f, lower in enumerate(lat.down) for e in lower)
    assert tuple(got) == counts
    assert rays == []


def test_per_face_work_once_per_run(monkeypatch):
    # the bordered Gram pass (span basis, det G, adj G) runs once for each
    # face that carries data, the 18 faces that are not simplices here,
    # and the Gram and slack tables once per ConeSystem, with the dual ranks
    # checked on masks and no echelon; the per-pair steps only read them: no
    # echelon or Gram pass runs inside a pair, a pair with m > 0 is filled
    # by the diamond rule with no determinant and no edge ray (every face
    # here has a lower cover with m = 0, so none takes a general-route
    # sign minor), the incidence sign takes none, and no cofactor kernel is
    # solved while the complex is built
    poly = pyramid_prism()
    active = []  # the wrapped per-pair functions now running

    def within(name, fn):
        def wrapped(*args, **kwargs):
            active.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                active.pop()
        return wrapped

    echelons, grams, dets, kernels, tables = [], [], [], [], []
    real_gram, real_det = cones.face_cone_data, linalg.bareiss_det
    real_kernel = linalg.cofactor_kernel_vector

    class CountingEchelon(cones.IntEchelon):
        def __init__(self, vectors=()):
            echelons.append((sys._getframe(1).f_code.co_name, tuple(active)))
            super().__init__(vectors)

    def counting_gram(f, gram, cover=None):
        grams.append((f, tuple(active)))
        return real_gram(f, gram, cover)

    def counting_det(rows):
        dets.append(tuple(active))
        return real_det(rows)

    def counting_kernel(rows, n):
        kernels.append(tuple(active))
        return real_kernel(rows, n)

    def counting_table(name, fn):
        def wrapped(C):
            tables.append(name)
            return fn(C)
        return wrapped

    monkeypatch.setattr(cones, "_coordinate_sign",
                        within("_coordinate_sign", cones._coordinate_sign))
    monkeypatch.setattr(cellular, "incidence_sign",
                        within("incidence_sign", cellular.incidence_sign))
    monkeypatch.setattr(pipeline, "build_complex",
                        within("build_complex", pipeline.build_complex))
    for name in ("gram_table", "slack_table"):
        monkeypatch.setattr(cones, name, counting_table(name, getattr(cones, name)))
    for module in (linalg, cones):
        monkeypatch.setattr(module, "IntEchelon", CountingEchelon)
    monkeypatch.setattr(cones, "face_cone_data", counting_gram)
    for module in (linalg, cones, cellular):
        if getattr(module, "bareiss_det", None) is real_det:
            monkeypatch.setattr(module, "bareiss_det", counting_det)
        if getattr(module, "cofactor_kernel_vector", None) is real_kernel:
            monkeypatch.setattr(module, "cofactor_kernel_vector", counting_kernel)
    result = run_pipeline(poly)
    lat = result.lattice
    built = Counter(f for f, _ in grams)
    assert Counter(tables) == {"gram_table": 1, "slack_table": 1}
    # only lift's solidity takes an echelon: neither A_F nor a dual face does
    assert Counter(caller for caller, _ in echelons) == {"lift": 1}
    assert not any(set(pair) - {"build_complex"} for _, pair in echelons + grams)
    assert not any("incidence_sign" in pair for pair in dets)
    # the orientation: no sign minor for the 38 pairs with m > 0 here (m the
    # number of E's span ids outside F's), 4 of which took one each on the
    # oracle's general route; the only determinants are the witnesses of
    # the adjugate read-off, one per dimension of F, 0 to 4, made when the
    # system is built
    system = PerFaceSystem(result.system)
    routes = {(e, f): pair_route(system, e, f) for f, lower in enumerate(lat.down) for e in lower}
    counts = Counter(routes.values())
    assert not any("_coordinate_sign" in pair for pair in dets)
    assert counts["general"] == 4 and counts["dual"] == 34
    assert dets == [()] * 5 and len(lat.covering) == 159
    assert built == Counter(F for F in lat.faces_by_id if len(F.vertex_set) > F.dim + 1)
    assert sum(built.values()) == 18
    assert not any("build_complex" in pair for pair in kernels)


def test_no_face_hash_in_build_complex_or_is_isomorphic(monkeypatch):
    # faces are numbered once, by the lattice, which hashes no Face: the
    # cellular walk and the isomorphism search read face ids and never hash
    # a Face, and the face_id view hashes each face once, on first use
    poly = hypercube(4)
    real_hash = Face.__hash__
    calls = []

    def counting(self):
        calls.append(self)
        return real_hash(self)

    monkeypatch.setattr(Face, "__hash__", counting)
    lat, cone = face_lattice(poly), lift(poly)
    relabeled = face_lattice(validate(list(reversed(poly.vertices)), name="cube4-reversed"))
    triv, system = trivialize(lat), ConeSystem(cone, lat)
    assert calls == []
    assert lat.face_id[lat.faces_by_id[-1]] == len(lat.faces_by_id) - 1
    assert len(calls) == len(lat.faces_by_id) + 1
    calls.clear()
    x = build_complex(triv, system)
    assert calls == [] and x.f_vector == lat.f_vector
    assert is_isomorphic(lat, relabeled).isomorphic
    assert calls == []
    rebuilt = lattice_from_incidence(strip_signs(x))
    calls.clear()
    assert is_isomorphic(rebuilt, rebuilt).isomorphic
    assert is_isomorphic(rebuilt, lat).isomorphic
    assert calls == []


def test_cone_and_cellular_stages_make_no_fraction(monkeypatch):
    # the face data, rays, cross-checks and signs run on integers only
    poly = hypercube(4)
    lat, cone = face_lattice(poly), lift(poly)
    real_new = Fraction.__new__
    made = []

    def counting(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    assert Fraction(1, 2) == Fraction(2, 4) and len(made) == 2  # the counter sees them
    made.clear()
    system = ConeSystem(cone, lat)
    x = build_complex(trivialize(lat), system)
    assert made == []
    assert x.f_vector == lat.f_vector


# --- incidence signs ---

def test_sign_empty_to_vertex_is_plus_one(small_corpus):
    for poly in small_corpus:
        lat, system, triv = setup_polytope(poly)
        empty = 0
        for v in lat.ids(0):
            assert system.orientations[v] == (1,)
            assert incidence_sign(triv, system.ray(empty, v).orientation, empty, v) == 1


def test_segment_signs_frozen():
    # hand computation: 2x2 solves give [v0 : P] = -1 and [v1 : P] = +1
    poly = simplex(1)
    lat, system, triv = setup_polytope(poly)
    v0, v1 = lat.ids(0)
    top = len(lat.faces_by_id) - 1
    assert tuple(lat.down[top]) == (v0, v1) and system.orientations[top] == (-1, 1)
    for v, sign in ((v0, -1), (v1, 1)):
        assert incidence_sign(triv, system.ray(v, top).orientation, v, top) == sign


def test_incidence_signs_match_coordinate_oracle(small_corpus):
    # the ray's orientation times the flips against the rational sign det of
    # B^{-1} A_F and the Gram form sign det(B^T A_F), with no flips and with
    # every nonempty face flipped; the random hulls have rational vertices
    rational = [random_hull(random.Random(seed), d, 9) for seed, d in ((1, 2), (2, 3), (3, 4))]
    for poly in list(small_corpus) + [hypercube(4), cross_polytope(4)] + rational:
        lat, system, triv = setup_polytope(poly)
        flipped = trivialize(lat, flip_faces=[f for f in lat.faces_by_id if f.dim >= 0])
        sigma = {(e, f): s for f, lower in enumerate(lat.down)
                 for e, s in zip(lower, system.orientations[f])}
        for t in (triv, flipped):
            for e, f in lat.covering:
                e, f = lat.face_id[e], lat.face_id[f]
                ray = system.ray(e, f)
                assert sigma[e, f] == ray.orientation, (poly.name, e, f)
                sign = incidence_sign(t, sigma[e, f], e, f)
                assert sign == oracle_incidence_sign(system, t, ray, e, f) \
                    == gram_incidence_sign(system, t, ray, e, f), (poly.name, e, f)


def test_segment_pair_signs_opposite():
    poly = simplex(1)
    lat, system, triv = setup_polytope(poly)
    d1 = boundary_matrix(triv, lat, system, 1)
    assert d1[0][0] * d1[1][0] == -1


# --- boundary matrices ---

def test_augmentation_row_all_ones(small_corpus):
    for poly in small_corpus:
        lat, system, triv = setup_polytope(poly)
        d0 = boundary_matrix(triv, lat, system, 0)
        assert d0 == (tuple([1] * lat.f_vector[1]),)


def test_triangle_boundary_columns():
    poly = simplex(2)
    lat, system, triv = setup_polytope(poly)
    d1 = boundary_matrix(triv, lat, system, 1)
    for col in range(3):
        entries = [d1[r][col] for r in range(3) if d1[r][col] != 0]
        assert sorted(entries) == [-1, 1]
    d0 = boundary_matrix(triv, lat, system, 0)
    assert int_mat_is_zero(int_mat_mul(d0, d1))


def test_boundary_out_of_range():
    poly = simplex(1)
    lat, system, triv = setup_polytope(poly)
    with pytest.raises(ValueError):
        boundary_columns(triv, system, 2)


@pytest.mark.parametrize("d", [2, 3])
def test_complex_matrix_and_labels_reject_dimension_out_of_range(d):
    # D_j exists for 0 <= j <= dim and face labels for -1 <= j <= dim; a
    # negative index does not wrap around to the top, and one past either
    # end is a ValueError naming the range, as for boundary_columns and
    # FaceLattice.faces
    x = run_pipeline(hypercube(d)).complex
    assert x.matrix(0) == ((1,) * 2 ** d,)
    assert x.face_labels(-1) == ((),) and x.face_labels(d) == (tuple(range(2 ** d)),)
    for j in (-2, -1, d + 1):
        with pytest.raises(ValueError, match=rf"^boundary dimension {j} out of range \[0, {d}\]$"):
            x.matrix(j)
    for j in (-2, d + 1):
        with pytest.raises(ValueError, match=rf"^face dimension {j} out of range \[-1, {d}\]$"):
            x.face_labels(j)


# --- build_complex ---

def test_point_complex():
    poly = simplex(0, name="point")
    lat, system, triv = setup_polytope(poly)
    x = build_complex(triv, system)
    assert dense_matrices(x) == (((1,),),)


def test_square_complex_shapes():
    poly = hypercube(2)
    lat, system, triv = setup_polytope(poly)
    x = build_complex(triv, system)
    assert [len(m) for m in dense_matrices(x)] == [1, 4, 4]
    assert [len(m[0]) for m in dense_matrices(x)] == [4, 4, 1]


def test_cube_complex_shapes_and_ddzero():
    poly = hypercube(3)
    lat, system, triv = setup_polytope(poly)
    x = build_complex(triv, system)
    shapes = [(len(m), len(m[0])) for m in dense_matrices(x)]
    assert shapes == [(1, 8), (8, 12), (12, 6), (6, 1)]
    for j in range(1, 4):
        assert int_mat_is_zero(int_mat_mul(x.matrix(j - 1), x.matrix(j)))


def test_column_support_counts(small_corpus):
    for poly in small_corpus:
        lat, system, triv = setup_polytope(poly)
        x = build_complex(triv, system)
        for j in range(1, x.dim + 1):
            d = x.matrix(j)
            for ci, f in enumerate(lat.faces(j)):
                nonzero = [d[r][ci] for r in range(len(d)) if d[r][ci] != 0]
                assert len(nonzero) == len(lower_covers(lat, f))
                assert all(e in (-1, 1) for e in nonzero)


def test_build_complex_reports_failed_crosscheck(monkeypatch):
    # a ray with negated coefficients, -w = -c g + A_E x, is a negative
    # multiple of its barycenter projection: <w, w'> < 0, and the per-pair
    # cross-check rejects it.  The system makes no ray on a pair with
    # m > 0: its sign, filled by the diamond rule, negated there breaks
    # D_{j-1} D_j = 0, which build_complex reports.  The target is the last
    # pair of the (oracle's) general route of the prism over a square
    # pyramid
    lat, system, triv = setup_polytope(pyramid_prism())
    target = [pair for pair in lat.covering
              if pair_route(system, lat.face_id[pair[0]], lat.face_id[pair[1]]) == "general"][-1]
    e, f = lat.face_id[target[0]], lat.face_id[target[1]]
    ray = system.ray(e, f)
    system.crosscheck(e, f, ray)
    negated = ray._replace(c=-ray.c, x=tuple(-v for v in ray.x), orientation=-ray.orientation)
    with pytest.raises(InternalInvariantError) as err:
        system.crosscheck(e, f, negated)
    assert f"edge-ray cross-check failed for ({target[0]}, {target[1]})" in str(err.value)
    signs = list(system.orientations)
    signs[f] = tuple(-s if c == e else s for c, s in zip(lat.down[f], signs[f]))
    monkeypatch.setattr(system, "orientations", tuple(signs))
    with pytest.raises(InternalInvariantError, match="boundary squared nonzero"):
        build_complex(triv, system)


@pytest.mark.parametrize("poly, digest", [
    (cross_polytope(5), "d9123e177529c0fece30b60f6b1d35d15a05f5f9490cc933c64e3742b768c1e1"),
    (hypercube(5), "3ae862f7276f6108c5e7e9f9d786ed255a31bb12d61521a509172fb911a2f987"),
    (cross_polytope(6), "63d6587f30e734b94ad1ceb8fde80cfba5afffb84d3e3731f27ea60246398590"),
    (hypercube(6), "0cc461c87957ef6b689ef678a2abf270db5e3675b5d6dca8fd7861bbf6459b37"),
], ids=["cross5", "cube5", "cross6", "cube6"])
def test_boundary_matrices_pinned(poly, digest):
    # digests of the boundary matrices computed by the rational formulas;
    # cross6 and cube6 reach the 7 x 7 determinants that dimension 5 never does
    boundary = dense_matrices(run_pipeline(poly).complex)
    assert hashlib.sha256(repr(boundary).encode()).hexdigest() == digest


def test_build_complex_reports_corrupt_sign(monkeypatch):
    poly = hypercube(2)
    lat, system, triv = setup_polytope(poly)
    target = tuple(lat.face_id[x] for x in lat.covering[-1])
    real = cellular.incidence_sign

    def flipped(t, ray, e, f):
        s = real(t, ray, e, f)
        return -s if (e, f) == target else s

    monkeypatch.setattr(cellular, "incidence_sign", flipped)
    with pytest.raises(InternalInvariantError, match="boundary squared nonzero"):
        build_complex(triv, system)


# --- homology ---

def test_homology_point_reduced():
    poly = simplex(0, name="point")
    lat, system, triv = setup_polytope(poly)
    x = build_complex(triv, system)
    red = homology(x, augmented=False)
    assert red.group(0) == Z
    assert homology(x, augmented=True).is_trivial()


def test_homology_small_corpus(small_corpus):
    for poly in small_corpus:
        lat, system, triv = setup_polytope(poly)
        x = build_complex(triv, system)
        assert homology(x, augmented=True).is_trivial(), poly.name
        assert homology(x, augmented=False).is_z_concentrated_in_degree_zero(), poly.name


def test_build_complex_names_first_nonzero_entry_of_corrupt_square(monkeypatch):
    # one negated covering pair of the 3-cube; the message must name the
    # first nonzero entry of the dense product D_{j-1} D_j, row-major
    poly = hypercube(3)
    lat, system, triv = setup_polytope(poly)
    target = next((lat.face_id[e], lat.face_id[f]) for e, f in lat.covering if f.dim == 2)
    real = cellular.incidence_sign

    def flipped(t, ray, e, f):
        s = real(t, ray, e, f)
        return -s if (e, f) == target else s

    monkeypatch.setattr(cellular, "incidence_sign", flipped)
    mats = [boundary_matrix(triv, lat, system, j) for j in range(lat.dim + 1)]
    j, g_idx, f_idx, value = next(
        (j, gi, fi, x) for j in range(1, lat.dim + 1)
        for gi, row in enumerate(int_mat_mul(mats[j - 1], mats[j]))
        for fi, x in enumerate(row) if x != 0)
    g, f = lat.faces(j - 2)[g_idx], lat.faces(j)[f_idx]
    with pytest.raises(InternalInvariantError) as err:
        build_complex(triv, system)
    assert str(err.value) == f"boundary squared nonzero at j={j}: entry ({g}, {f}) = {value}"
    assert j == 2 and value in (2, -2)


small_ints = st.integers(-2, 2)


@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
def test_boundary_squared_entry_is_first_nonzero_of_dense_product(a, b, c, data):
    lower = data.draw(st.lists(st.lists(small_ints, min_size=b, max_size=b),
                               min_size=a, max_size=a))
    upper = data.draw(st.lists(st.lists(small_ints, min_size=c, max_size=c),
                               min_size=b, max_size=b))
    product = [[sum(lower[i][k] * upper[k][j] for k in range(b)) for j in range(c)]
               for i in range(a)]
    first = next(((i, j, x) for i, row in enumerate(product)
                  for j, x in enumerate(row) if x != 0), None)
    assert boundary_squared_entry(sparse_columns(lower, a, b), sparse_columns(upper, b, c)) == first


@pytest.mark.parametrize("name", ["small_corpus", "cube5", "cross5"])
def test_homology_matches_dense_snf_oracle(name, pipelines):
    if name == "small_corpus":
        complexes = [res.complex for res in pipelines.values()]
    else:
        poly = hypercube(5) if name == "cube5" else cross_polytope(5)
        complexes = [run_pipeline(poly).complex]
    for x in complexes:
        assert homology_pair(x) == dense_homology_pair(x)


def test_homology_rejects_malformed_boundary():
    # the segment's D_1 has one column, on rows 0 and 1: a second column, a
    # row index past the two vertices, or a stored zero is no 2 x 1 matrix
    segment = (((),), ((0,), (1,)), ((0, 1),))
    for d1 in (({0: -1, 1: 1}, {0: 1}), ({0: -1, 2: 1},), ({0: -1, 1: 0},)):
        with pytest.raises(InternalInvariantError, match=r"^D_1 is not 2 x 1 "):
            ChainComplex(dim=1, columns=(({0: 1}, {0: 1}), d1), face_order=segment)


def test_homology_rejects_non_complex():
    # homology needs D_{j-1} D_j = 0, and no ChainComplex without it is
    # made: the segment with D_1 = (1, 1)^T has D_0 D_1 = (2)
    with pytest.raises(InternalInvariantError, match="^boundary squared nonzero at j=1"):
        complex_from_dense(dim=1, boundary=(((1, 1),), ((1,), (1,))),
                           face_order=(((),), ((0,), (1,)), ((0, 1),)))


def test_chain_complex_rejects_non_complex():
    # a ChainComplex checks D_{j-1} D_j = 0 when it is made, naming the
    # faces of the first nonzero entry, and again when it is replaced; the
    # segment with D_1 = (1, 1)^T has D_0 D_1 = (2)
    segment = (((),), ((0,), (1,)), ((0, 1),))
    columns = (({0: 1}, {0: 1}), ({0: 1, 1: 1},))
    with pytest.raises(InternalInvariantError) as err:
        ChainComplex(dim=1, columns=columns, face_order=segment)
    assert str(err.value) == "boundary squared nonzero at j=1: entry ({}, {0,1}) = 2"
    good = ChainComplex(dim=1, columns=(columns[0], ({0: -1, 1: 1},)), face_order=segment)
    with pytest.raises(InternalInvariantError) as err:
        dataclasses.replace(good, columns=columns)
    assert str(err.value) == "boundary squared nonzero at j=1: entry ({}, {0,1}) = 2"


def test_pipeline_checks_boundary_squared_once(monkeypatch):
    # run_pipeline checks D_{j-1} D_j = 0 once per j, when build_complex
    # makes its ChainComplex; homology_pair, which k_report calls, does not
    # check again, and a second complex on the same columns is checked
    # when it is made
    calls = []
    real = cellular.boundary_squared_entry

    def counting(lower, upper):
        calls.append(len(upper))
        return real(lower, upper)

    monkeypatch.setattr(cellular, "boundary_squared_entry", counting)
    result = run_pipeline(hypercube(3))
    assert len(calls) == 3
    calls.clear()
    x = result.complex
    assert homology_pair(x) == (result.report.augmented_homology, result.report.reduced_homology)
    assert calls == []
    plain = ChainComplex(dim=x.dim, columns=x.columns, face_order=x.face_order)
    assert len(calls) == 3
    assert homology_pair(plain) == homology_pair(x)
    assert len(calls) == 3


def test_homology_torsion_from_scaled_column():
    # doubling the segment's top column keeps dd = 0 but creates Z/2 in
    # degree 0: invariant factors of (-2, 2)^T are (2)
    x = complex_from_dense(dim=1, boundary=(((1, 1),), ((-2,), (2,))),
                           face_order=(((),), ((0,), (1,)), ((0, 1),)))
    aug = homology(x, augmented=True)
    assert aug.group(0) == AbelianGroup(0, (2,))
    assert aug.group(-1) == ZERO_GROUP
    assert aug.group(1) == ZERO_GROUP


# --- orientation covariance ---

def flip_deltas(base, flipped, g, dim):
    """Indices where the two complexes differ; must be row g of D_{dim+1}
    and column g of D_dim, negated."""
    for j in range(0, base.dim + 1):
        mb, mf = base.matrix(j), flipped.matrix(j)
        for r in range(len(mb)):
            for c in range(len(mb[r])):
                b, f = mb[r][c], mf[r][c]
                if b != f:
                    yield j, r, c, b, f


def test_orientation_flip_negates_row_and_column(small_corpus):
    rng = random.Random(4)
    for poly in small_corpus:
        lat, system, _ = setup_polytope(poly)
        base = build_complex(trivialize(lat), system)
        flippable = [f for f in lat.faces_by_id if f.dim >= 0]
        g = rng.choice(flippable)
        flipped_triv = trivialize(lat, flip_faces=[g])
        flipped = build_complex(flipped_triv, system)
        g_level = lat.faces(g.dim)
        g_idx = g_level.index(g)
        for j, r, c, b, f in flip_deltas(base, flipped, g, g.dim):
            assert f == -b
            if j == g.dim:
                assert c == g_idx
            elif j == g.dim + 1:
                assert r == g_idx
            else:
                pytest.fail(f"unexpected change in D_{j} at ({r},{c})")
        assert homology(base, augmented=True) == homology(flipped, augmented=True)
        assert homology(base, augmented=False) == homology(flipped, augmented=False)


def test_homology_invariant_under_relabeling():
    rng = random.Random(11)
    poly = hypercube(2)
    perm = list(range(poly.nvertices))
    rng.shuffle(perm)
    relabeled = validate([poly.vertices[i] for i in perm], name="square-relabeled")
    results = []
    for p in (poly, relabeled):
        lat, system, triv = setup_polytope(p)
        x = build_complex(triv, system)
        results.append((homology(x, True), homology(x, False)))
    assert results[0] == results[1]


# --- simplicial oracle ---

@pytest.mark.parametrize("d", [1, 2, 3])
def test_simplex_matches_simplicial_complex(d):
    poly = simplex(d)
    lat, system, triv = setup_polytope(poly)
    ours = build_complex(triv, system)
    oracle = complex_from_dense(
        dim=d,
        boundary=tuple(tuple(tuple(r) for r in m) for m in simplicial_boundary_matrices(d)),
        face_order=ours.face_order)
    eps = diagonal_sign_equivalence(ours, oracle)
    assert eps is not None


def test_diagonal_equivalence_rejects_sign_break():
    # flipping entries of one column is not a diagonal change of basis.  On
    # a polytope's lattice, boundary squared zero fixes the signs up to one
    # (Bjoerner 1984), so the sign break is shown on two complexes of four
    # parallel edges a, b, c, d from u to v and one 2-cell, whose boundary
    # is a - b + c - d in one and a + b - c - d in the other: both have
    # D_1 D_2 = 0 and the same support, and eps would have to be +1 and -1
    # on the 2-cell
    levels = (((),), ((0,), (1,)), ((0, 1),) * 4, ((0, 1, 2),))
    edges = ((1, 1),), ((-1,) * 4, (1,) * 4)
    one, other = (complex_from_dense(dim=2, boundary=(*edges, tuple((x,) for x in top)),
                                     face_order=levels)
                  for top in ((1, -1, 1, -1), (1, 1, -1, -1)))
    assert diagonal_sign_equivalence(one, other) is None
    assert diagonal_sign_equivalence(one, one) is not None


def test_diagonal_equivalence_roots_every_component_and_reads_signs():
    # a vertex v under the empty face, and apart from them an edge e with a
    # zero boundary under a 2-cell F, whose boundary is k e in one complex
    # and -k e in the other: the cover graph has two components, and
    # eps_F = -1 against eps_e = +1 is the equivalence, for a unit and for
    # a non-unit entry alike.  The square's complex against itself with
    # the top column negated and doubled on both sides gives -1 on the top
    # cell alone
    levels = (((),), ((0,),), ((0,),), ((0,),))
    for k in (1, 2):
        one, other = (complex_from_dense(dim=2, boundary=(((1,),), ((0,),), ((x,),)),
                                         face_order=levels) for x in (k, -k))
        assert diagonal_sign_equivalence(one, other) == {
            (-1, 0): 1, (0, 0): 1, (1, 0): 1, (2, 0): -1}
    square = run_pipeline(hypercube(2)).complex

    def top_times(c):
        return ChainComplex(dim=2, face_order=square.face_order, columns=(
            *square.columns[:2], tuple({e: c * s for e, s in col.items()}
                                       for col in square.columns[2])))

    eps = diagonal_sign_equivalence(top_times(2), top_times(-2))
    assert eps == {node: -1 if node == (2, 0) else 1 for node in eps}
    assert len(eps) == sum(square.f_vector)


def test_diagonal_equivalence_rejects_other_shape_or_support():
    lat, system, triv = setup_polytope(simplex(2))
    x = build_complex(triv, system)
    square = run_pipeline(hypercube(2)).complex
    assert diagonal_sign_equivalence(x, square) is None  # f-vectors differ

    # the same support, the top column doubled: boundary squared stays zero
    doubled = ChainComplex(dim=x.dim, face_order=x.face_order, columns=(
        *x.columns[:2], tuple({e: 2 * s for e, s in col.items()} for col in x.columns[2])))
    assert diagonal_sign_equivalence(x, doubled) is None
    # the same f-vector, another support: the square with its vertices
    # relabelled has an edge on other vertex rows
    poly = hypercube(2)
    relabeled = run_pipeline(validate([poly.vertices[i] for i in (0, 3, 1, 2)])).complex
    assert [set(col) for col in square.columns[1]] != [set(col) for col in relabeled.columns[1]]
    assert diagonal_sign_equivalence(square, relabeled) is None


def test_diagonal_equivalence_rejects_another_bottom_row_count():
    # equal dimensions and equal columns, but two empty faces against one:
    # the columns do not record how many rows D_0 has, so only the f-vector
    # test tells the complexes apart
    one = ChainComplex(dim=0, columns=(({0: 1},),), face_order=(((),), ((0,),)))
    two = ChainComplex(dim=0, columns=(({0: 1},),), face_order=(((), ()), ((0,),)))
    assert one.dim == two.dim and one.columns == two.columns
    assert one.f_vector != two.f_vector
    assert diagonal_sign_equivalence(one, two) is None
    assert diagonal_sign_equivalence(two, one) is None


def test_chain_complex_rejects_wrong_number_of_maps():
    # a 1-complex has three face levels and two boundary maps
    with pytest.raises(InternalInvariantError) as err:
        ChainComplex(dim=1, columns=(), face_order=(((),), ((0,),), ((0,),)))
    assert str(err.value) == "a 1-complex has 3 face levels and 2 maps"


def test_homology_result_names_degree_out_of_range():
    # augmented homology starts in degree -1, one group per degree
    result = HomologyResult(augmented=True, groups=(ZERO_GROUP, Z))
    assert list(result.degrees()) == [-1, 0]
    assert result.group(0) == Z
    with pytest.raises(ValueError) as err:
        result.group(1)
    assert str(err.value) == "degree 1 outside [-1, 0]"
