"""Lifted cones, dual cones, per-face duality data, and edge rays.

Cone membership for the bipolarity check is decided by an independent
Caratheodory-style enumeration over generator subsets.
"""

import random
import sys
from collections import Counter
from itertools import combinations
from math import lcm
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyk.cones as cones
from polyk.cellular import build_complex, trivialize
from polyk.cones import (
    ConeSystem,
    FaceConeData,
    dual_cone,
    edge_ray,
    face_cone_data,
    gram_table,
    lift,
    slack_table,
)
from polyk.corpus import (
    acceptance_corpus,
    cross_polytope,
    hypercube,
    random_hull,
    simplex,
)
from polyk.errors import InternalInvariantError
from polyk.linalg import (
    IntEchelon,
    QMatrix,
    bareiss_det,
    first_independent,
    int_dot,
    int_mat_mul,
    primitive_vector,
    rank,
)
from polyk.polytope import Face, face_lattice, validate

from oracles import (
    all_pairs_verify_lattice,
    barycenter_projection,
    cauchy_schwarz_verdict,
    circledast_gens,
    cramer_numerators,
    crosscheck_verdict,
    dual_base_sign,
    dual_face_gens,
    dual_face_ids,
    dot,
    dual_sign,
    dual_simple,
    echelon_contains,
    echelon_dual_rank,
    failure,
    gram_adjugate,
    gram_certificate_holds,
    kernel_edge_ray,
    lattice_from_pairs,
    leibniz_det,
    lower_covers,
    oracle_crosscheck,
    orthogonal_component,
    pair_route,
    PerFaceSystem,
    positive_multiple_ratio,
    prism_over_cross,
    pyramid_prism,
    q_from_columns,
    solve_in_span,
    solved_edge_ray,
    span_basis,
    span_basis_of_face,
    span_gram,
    span_row,
    table_orientation,
    TauSystem,
    vertex_projection,
    vertex_sum,
    vertex_sum_numbers,
)


def in_cone(x, gens, dim):
    """Is x a nonnegative combination of the generators (exact enumeration)?"""
    if all(v == 0 for v in x):
        return True
    for k in range(1, dim + 1):
        for subset in combinations(gens, k):
            sol = solve_in_span(q_from_columns(subset, rows=dim), x)
            if sol is not None and all(c >= 0 for c in sol):
                return True
    return False


def faces_of(poly):
    lat = face_lattice(poly)
    return lat, {f.vertex_set: f for f in lat.faces_by_id}


# --- lift ---

def test_lift_segment():
    cone = lift(simplex(1))
    assert cone.dim == 2
    assert cone.generators == ((1, 0), (1, 1))
    assert set(cone.facet_normals) == {(0, 1), (1, -1)}


def test_lift_point_self_dual():
    cone = lift(simplex(0, name="point"))
    assert cone.dim == 1
    assert cone.facet_normals == ((1,),)


def test_lift_triangle_normal_count():
    cone = lift(simplex(2))
    assert len(cone.facet_normals) == 3


def test_lift_normals_match_polytope_facets(small_corpus):
    # lift reads the normals off the polytope facets; the independent route
    # is the brute-force dual of the lifted generators (the point is d = 0)
    for poly in list(small_corpus) + [hypercube(4), cross_polytope(4)]:
        cone = lift(poly)
        assert cone.facet_normals == dual_cone(cone.generators), poly.name


def test_gram_table_is_the_full_product(small_corpus):
    # T is filled on and above its diagonal and mirrored: it equals the
    # product A^T A of the lifted generators as columns, one dot product
    # per entry of the upper triangle, and is symmetric
    for poly in list(small_corpus) + list(acceptance_corpus()) + [hypercube(4)]:
        cone = lift(poly)
        gens, calls = cone.generators, []

        def counting(u, v):
            calls.append(1)
            return int_dot(u, v)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cones, "int_dot", counting)
            table = gram_table(cone)
        assert table == int_mat_mul(gens, tuple(zip(*gens))), poly.name
        assert table == tuple(zip(*table)), poly.name
        assert len(calls) == len(gens) * (len(gens) + 1) // 2, poly.name


# --- dual_cone ---

def test_dual_cone_orthant_self_dual():
    assert set(dual_cone([(1, 0), (0, 1)])) == {(1, 0), (0, 1)}


def test_dual_cone_segment_example():
    assert set(dual_cone([(1, 0), (1, 1)])) == {(0, 1), (1, -1)}


def test_dual_cone_half_line():
    assert dual_cone([(1,)]) == ((1,),)


def test_dual_cone_requires_solid():
    with pytest.raises(InternalInvariantError):
        dual_cone([(1, 0)])


def test_dual_cone_bipolarity_on_corpus():
    for poly in [simplex(1), simplex(2), simplex(3), hypercube(2), hypercube(3)]:
        gens = [primitive_vector(g) for g in lift(poly).generators]
        n = poly.ambient_dim + 1
        dd = dual_cone(dual_cone(gens))
        assert all(in_cone(g, dd, n) for g in gens)
        assert all(in_cone(g, gens, n) for g in dd)


# --- face_cone_data ---

def test_face_data_top_face():
    poly = simplex(2)
    lat, by_set = faces_of(poly)
    cone = lift(poly)
    system = ConeSystem(cone, lat)
    top = len(lat.faces_by_id) - 1
    assert dual_face_gens(system, top) == ()
    assert circledast_gens(cone, lat.faces_by_id[top]) == ()
    assert len(system.face_data(top).span_ids) == 3


def test_face_data_empty_face_bipolar():
    # circledast of the empty face recovers the cone itself
    poly = hypercube(2)
    lat, _ = faces_of(poly)
    cone = lift(poly)
    system = ConeSystem(cone, lat)
    empty = 0
    assert set(circledast_gens(cone, lat.faces_by_id[empty])) == {
        primitive_vector(g) for g in cone.generators}
    assert dual_face_gens(system, empty) == cone.facet_normals
    assert len(system.face_data(empty).span_ids) == 0


def test_face_data_segment_vertex():
    poly = simplex(1)
    lat, by_set = faces_of(poly)
    cone = lift(poly)
    system = ConeSystem(cone, lat)
    vertex = lat.face_id[by_set[(0,)]]
    assert span_basis(cone, system.face_data(vertex)) == ((1, 0),)
    assert dual_face_gens(system, vertex) == ((0, 1),)
    assert circledast_gens(cone, by_set[(0,)]) == ((0, 1),)


def test_face_data_invariants_small_corpus(small_corpus):
    for poly in small_corpus:
        lat = face_lattice(poly)
        cone = lift(poly)
        system = ConeSystem(cone, lat)
        n = cone.dim
        for i, f in enumerate(lat.faces_by_id):
            assert len(system.face_data(i).span_ids) == f.dim + 1
            dual = dual_face_gens(system, i)
            for g in dual:
                assert all(dot(g, cone.generators[i]) == 0 for i in f.vertex_set)
                assert all(dot(g, v) >= 0 for v in cone.generators)
            for x in circledast_gens(cone, f):
                assert all(dot(x, y) >= 0 for y in dual)
            # duality of span dimensions
            span_gens = q_from_columns(list(dual), rows=n) \
                if dual else QMatrix(n, 0, tuple(() for _ in range(n)))
            assert rank(span_gens) == n - (f.dim + 1)


# --- edge rays ---

def test_edge_ray_segment_vertex_to_top():
    poly = simplex(1)
    lat, by_set = faces_of(poly)
    system = ConeSystem(lift(poly), lat)
    e, f = lat.face_id[by_set[(0,)]], lat.face_id[by_set[(0, 1)]]
    ray = system.ray(e, f)
    assert ray.direction == (0, 1)
    system.crosscheck(e, f, ray)
    # b = (1, 0) + (1, 1), A_E = ((1, 0),), det G = 1: w' = b - 2 (1, 0)
    w = barycenter_projection(system, e, f)
    assert w == (0, 1)
    assert positive_multiple_ratio(w, ray.direction) == 1


def test_edge_ray_from_empty_face_is_lifted_vertex(small_corpus):
    for poly in small_corpus:
        lat = face_lattice(poly)
        cone = lift(poly)
        system = ConeSystem(cone, lat)
        empty = 0
        for v in lat.faces(0):
            ray = system.ray(empty, lat.face_id[v])
            assert ray.direction == primitive_vector(cone.generators[v.vertex_set[0]])
            assert ray.orientation == 1
            # A_E is empty, det G = 1: w' = b, the one integer lifted vertex
            system.crosscheck(empty, lat.face_id[v], ray)
            w = barycenter_projection(system, empty, lat.face_id[v])
            assert w == cone.generators[v.vertex_set[0]]


def test_edge_ray_triangle_vertex_edge_invariants():
    poly = simplex(2)
    lat, by_set = faces_of(poly)
    cone = lift(poly)
    e, f = lat.face_id[by_set[(0,)]], lat.face_id[by_set[(0, 1)]]
    system = ConeSystem(cone, lat)
    ray = system.ray(e, f)
    # inside span of F
    assert rank(q_from_columns(span_basis(cone, system.face_data(f)) + (ray.direction,))) == 2
    # orthogonal to span of E
    assert dot(ray.direction, cone.generators[0]) == 0
    # nonnegative against dual face of E, zero against dual face of F
    assert all(dot(ray.direction, y) >= 0 for y in dual_face_gens(system, e))
    assert all(dot(ray.direction, y) == 0 for y in dual_face_gens(system, f))


def test_edge_ray_rejects_non_covering_pair():
    poly = hypercube(2)
    lat, by_set = faces_of(poly)
    vertex, top = by_set[(0,)], lat.faces_by_id[-1]
    with pytest.raises(InternalInvariantError) as err:
        ConeSystem(lift(poly), lat).ray(lat.face_id[vertex], lat.face_id[top])
    assert f"edge ray of ({vertex}, {top}):" in str(err.value)


def test_crosscheck_positive_on_corpus(small_corpus):
    for poly in small_corpus:
        lat = face_lattice(poly)
        system = ConeSystem(lift(poly), lat)
        for e, f in lat.covering:
            e, f = lat.face_id[e], lat.face_id[f]
            ray = system.ray(e, f)
            system.crosscheck(e, f, ray)
            ratio = positive_multiple_ratio(barycenter_projection(system, e, f), ray.direction)
            assert ratio is not None and ratio > 0


def test_crosscheck_matches_rational_gram_oracle(small_corpus):
    # the integer Cramer solve of the barycenter projection oracle, the
    # n-vector the cross-check built before it decided on Gram numbers, is
    # (L * |F| * det G) times the rational
    # barycenter projection, exactly, with G the Gram matrix of E's span
    # basis and L the lcm of the vertex denominators; the random hulls have
    # rational vertices
    rational = [random_hull(random.Random(seed), d, 9) for seed, d in ((1, 2), (2, 3), (3, 4))]
    for poly in list(small_corpus) + [hypercube(4), cross_polytope(4)] + rational:
        lat = face_lattice(poly)
        cone = lift(poly)
        system = ConeSystem(cone, lat)
        scale = lcm(*(x.denominator for v in poly.vertices for x in v))
        for e, f in lat.covering:
            a_e = span_basis(cone, system.face_data(lat.face_id[e]))
            det_g = leibniz_det([[dot(u, v) for v in a_e] for u in a_e])
            factor = scale * len(f.vertex_set) * det_g
            assert barycenter_projection(system, lat.face_id[e], lat.face_id[f]) == \
                tuple(factor * x for x in oracle_crosscheck(cone, e, f)), (poly.name, e, f)


def gram_verdict(system, ray, e, f) -> bool:
    try:
        system.crosscheck(e, f, ray)
    except InternalInvariantError:
        return False
    return True


@pytest.mark.parametrize("polys", [
    list(acceptance_corpus()), [hypercube(6)], [cross_polytope(6)],
    [random_hull(random.Random(seed), d, 9) for seed, d in ((1, 2), (2, 3), (3, 4))],
], ids=["corpus", "cube6", "cross6", "hulls"])
def test_gram_crosscheck_verdict_matches_vector_oracle(polys):
    # the cross-check on Gram numbers (Cauchy-Schwarz equality and
    # <w, w'> > 0) accepts exactly the rays the n-vector comparison
    # primitive(w') = primitive(w) accepts.  Per covering pair it is shown
    # the ray, the projections of up to two other vertices of F outside E
    # (the same ray), and rays it must reject: negated coefficients, one
    # coefficient of x moved by one, and the projection of a vertex of E
    # (w = 0); the random hulls have rational vertices
    verdicts = Counter()
    for poly in polys:
        lat = face_lattice(poly)
        system = PerFaceSystem(ConeSystem(lift(poly), lat))
        for f, lower in enumerate(lat.down):
            F = lat.faces_by_id[f]
            for e in lower:
                E = lat.faces_by_id[e]
                ray = system.ray(e, f)
                adj = system.face_data(e).gram_adj

                def projecting(v):
                    at_v = [system.gram[v][a] for a in ray.e_ids]
                    return ray._replace(g=v, x=tuple(int_dot(r, at_v) for r in adj))

                others = [v for v in F.vertex_set if v not in E.vertex_set and v != ray.g]
                candidates = [("ray", ray)] + [("other", projecting(v)) for v in others[:2]]
                candidates.append(("negated", ray._replace(c=-ray.c, x=tuple(-v for v in ray.x))))
                if ray.x:
                    candidates.append(("moved", ray._replace(x=(ray.x[0] + 1,) + ray.x[1:])))
                    candidates.append(("in E", projecting(ray.e_ids[0])))
                for kind, candidate in candidates:
                    verdict = gram_verdict(system, candidate, e, f)
                    assert verdict == bool(crosscheck_verdict(system, candidate, e, f)), \
                        (poly.name, E, F, kind)
                    verdicts[kind, verdict] += 1
    assert set(verdicts) == {("ray", True), ("other", True), ("negated", False),
                             ("moved", False), ("in E", False)}


def is_m_zero(system, ray, e, f) -> bool:
    """Are E's span ids F's minus the ray's g, in the same order?"""
    f_ids = system.face_data(f).span_ids
    return ray.g in f_ids and ray.e_ids == tuple(a for a in f_ids if a != ray.g)


@pytest.fixture(scope="module")
def m_zero_systems():
    """The acceptance corpus, the 5- and 6-cubes, the 5- to 7-cross-polytopes
    and a random 6-dimensional hull, each with its cone system, whose
    per-pair API reads the per-face path's data (``PerFaceSystem``)."""
    polys = list(acceptance_corpus()) + [hypercube(5), hypercube(6), cross_polytope(5),
                                         cross_polytope(6), cross_polytope(7),
                                         random_hull(random.Random(3), 6, 24)]
    return [(poly, PerFaceSystem(ConeSystem(lift(poly), face_lattice(poly)))) for poly in polys]


def test_m_zero_ray_is_the_gram_solve(m_zero_systems):
    # on every pair with m = 0, the column r of adj(G_F) is the ray of the
    # per-pair Gram solve, with c = adj(G_F)[r][r] = det G_E, and the
    # solve's side is det G_F, the certificate's diagonal entry; the sign
    # of the oracle's z_F[r] agrees with Cauchy-Schwarz equality
    counts = Counter()
    corpus = len(m_zero_systems) - 6
    for k, (poly, system) in enumerate(m_zero_systems):
        lat = system.lattice
        for f, lower in enumerate(lat.down):
            for e in lower:
                ray = system.ray(e, f)
                m_zero = is_m_zero(system, ray, e, f)
                counts["corpus" if k < corpus else poly.name, m_zero] += 1
                if not m_zero:
                    continue
                g, c, x, e_ids, orientation, side = solved_edge_ray(system, e, f)
                assert (ray.g, ray.c, ray.x, ray.e_ids, ray.orientation) == \
                    (g, c, x, e_ids, orientation), (poly.name, e, f)
                assert ray.c == system.face_data(e).gram_det
                assert side == system.face_data(f).gram_det
                assert vertex_sum_numbers(system, f)[1][span_row(system.face_data(f), g)] > 0
                assert cauchy_schwarz_verdict(system, ray, e, f), (poly.name, e, f)
    assert counts["cross5", True] == 812 and counts["cross5", False] == 30
    assert counts["cube5", True] == 517 and counts["cube5", False] == 325
    assert counts["corpus", True] == 2566 and counts["corpus", False] == 249


def test_scaled_ray_is_accepted(m_zero_systems):
    # (2c, 2x) is the same ray: the Gram verdict accepts it on both paths
    # (a multiple of F's adjugate column for m = 0, Cauchy-Schwarz equality
    # otherwise), as do the n-vector verdict and the Cauchy-Schwarz oracle.
    # A ray whose x has lost a nonzero last entry is not: every verdict
    # rejects it
    kinds = Counter()
    for poly, system in m_zero_systems[:-4]:  # the corpus, cube5 and cube6
        lat = system.lattice
        for f, lower in enumerate(lat.down):
            for e in lower:
                ray = system.ray(e, f)
                scaled = ray._replace(c=2 * ray.c, x=tuple(2 * v for v in ray.x))
                assert gram_verdict(system, scaled, e, f), (poly.name, e, f)
                assert crosscheck_verdict(system, scaled, e, f), (poly.name, e, f)
                assert cauchy_schwarz_verdict(system, scaled, e, f), (poly.name, e, f)
                m_zero = is_m_zero(system, ray, e, f)
                kinds[m_zero] += 1
                if ray.x and ray.x[-1]:
                    short = ray._replace(x=ray.x[:-1])
                    assert not gram_verdict(system, short, e, f), (poly.name, e, f)
                    assert not crosscheck_verdict(system, short, e, f), (poly.name, e, f)
                    assert not cauchy_schwarz_verdict(system, short, e, f), (poly.name, e, f)
                    kinds["short", m_zero] += 1
    assert all(kinds[k] > 0 for k in (True, False, ("short", True), ("short", False)))


def test_m_zero_pairs_take_no_dot_products(monkeypatch):
    # on cross5, inside the system's orientation pass, no pair runs an
    # int_dot: not the 812 with m = 0, read off F's adjugate, nor the other
    # 30, filled by the diamond rule; a pair's count runs from its
    # adjugate_column call in the pass, the first thing the pass does for
    # it, to the next pair's.  face_cone_data reads no n-vector generator of the cone,
    # for the top, the one face that is not a simplex and the one face
    # whose data the system builds, nor for a simplex face whose data is
    # made when read; nor does the batch
    poly = cross_polytope(5)
    lat = face_lattice(poly)
    cone = lift(poly)
    reads = []

    class Recording(tuple):
        def __getitem__(self, i):
            reads.append(i)
            return super().__getitem__(i)

        def __iter__(self):
            reads.append(None)
            return super().__iter__()

    real_data = cones.face_cone_data
    data_reads = []  # per face, the generators read while its data is built

    def recording_data(*args):
        before = len(reads)
        data = real_data(*args)
        data_reads.append(reads[before:])
        return data

    monkeypatch.setattr(cones, "face_cone_data", recording_data)
    system = ConeSystem(cone._replace(generators=Recording(cone.generators)), lat)
    assert data_reads == [[]]
    for f in range(len(lat.faces_by_id)):
        system.face_data(f)
    assert data_reads == [[]] * len(lat.faces_by_id)  # the top's, then 243 made when read
    reads.clear()
    calls = [0]
    real = cones.int_dot

    def counting(u, v):
        calls[0] += 1
        return real(u, v)

    real_column = cones.adjugate_column
    starts = []  # per pair of the face: (m = 0, int_dot calls before it)

    def marking(span_f, span_e):
        r = real_column(span_f, span_e)
        starts.append((r is not None, calls[0]))
        return r

    monkeypatch.setattr(cones, "int_dot", counting)
    monkeypatch.setattr(cones, "adjugate_column", marking)
    assert system._orient() == system.orientations
    assert len(starts) == sum(map(len, lat.down))
    ends = [before for _, before in starts[1:]] + [calls[0]]
    dots = Counter((m_zero, end > before) for (m_zero, before), end in zip(starts, ends))
    assert dots == {(True, False): 812, (False, False): 30}
    assert reads == []


def certify_masks_with(monkeypatch, e: int, f: int) -> None:
    """Make the next ``ConeSystem`` certify its dual masks with face e's
    mask set to face f's: the fault the certificate must reject, injected
    where ``check_dual_faces`` reads the masks."""
    real = cones.check_dual_faces

    def broken(lattice, masks, n):
        masks = list(masks)
        masks[e] = masks[f]
        return real(lattice, masks, n)

    monkeypatch.setattr(cones, "check_dual_faces", broken)


def test_equal_dual_masks_fail_the_m_zero_pair(monkeypatch):
    # a pair with m = 0 passes its barycenter test by a normal of dual_E
    # outside dual_F.  For the first edge F of the square and its first
    # lower cover E, E's dual mask set to F's leaves no such normal, and
    # the system's certificate rejects (E, F) by name when it is built,
    # though the oracle's z_F[r] is still positive.  The per-pair
    # cross-check reads only E's face data and the Gram table: on a prism
    # over a square pyramid, whose apex is not dual-simple, it accepts the
    # first pair of the general route, and with <a, b_F> moved up by one
    # on the table, for a span id a of E, it rejects that pair
    poly = hypercube(2)
    lat, _ = faces_of(poly)
    system = ConeSystem(lift(poly), lat)
    F = lat.faces(1)[0]
    E = lower_covers(lat, F)[0]
    e, f = lat.face_id[E], lat.face_id[F]
    r = span_row(system.face_data(f), system.ray(e, f).g)
    assert cones.adjugate_column(system.face_data(f).span_mask,
                                 system.face_data(e).span_mask) == r  # m = 0
    assert vertex_sum_numbers(system, f)[1][r] > 0
    with monkeypatch.context() as patch:
        certify_masks_with(patch, e, f)
        with pytest.raises(InternalInvariantError) as err:
            ConeSystem(lift(poly), lat)
    assert str(err.value) == (
        f"dual face of {E} does not strictly contain that of its upper cover {F}, "
        "so its rank 2 is not certified")

    pyramid = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 2)]
    poly = validate([v + (t,) for t in (0, 1) for v in pyramid])
    lat = face_lattice(poly)
    system = ConeSystem(lift(poly), lat)
    e, f = next((e, f) for f, lower in enumerate(lat.down) for e in lower
                if pair_route(system, e, f) == "general")
    E, F = lat.faces_by_id[e], lat.faces_by_id[f]
    ray = system.ray(e, f)
    data_e = system.face_data(e)
    cones.edge_ray_crosscheck(ray, data_e, system.gram)
    a = data_e.span_ids[0]
    u = next(u for u in F.vertex_set if u not in data_e.span_ids and u != ray.g)
    gram = [list(row) for row in system.gram]
    gram[a][u] += 1
    with pytest.raises(InternalInvariantError) as err:
        cones.edge_ray_crosscheck(ray, data_e, gram)
    assert str(err.value) == (
        f"edge-ray cross-check failed for ({E}, {F}): "
        "barycenter projection is not a positive multiple")


@given(st.integers(1, 8).flatmap(lambda n: st.integers(0, min(n, 7)).flatmap(lambda k: st.tuples(
    st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=k, max_size=k),
    st.lists(st.integers(-20, 20), min_size=k, max_size=k)))))
def test_gram_adjugate_matches_bareiss_and_cramer(data):
    # on the Gram table of integer columns, dependent ones too, the bordered
    # pass keeps the columns the echelon keeps and returns det G and adj G
    # of their Gram matrix G, those of the Gauss-Jordan oracle; adj G . r
    # gives the Cramer numerators of G x = r
    cols, r = data
    table = [[int_dot(u, v) for v in cols] for u in cols]
    chosen, echelon = first_independent(cols, len(cols))
    face = Face(vertex_set=tuple(range(len(cols))), dim=echelon.rank - 1)
    data = face_cone_data(face, table)
    ids, det, adj = data.span_ids, data.gram_det, data.gram_adj
    assert list(ids) == chosen
    gram = [[table[a][b] for b in ids] for a in ids]
    assert (det, adj) == gram_adjugate(face, gram)
    assert det == bareiss_det(gram) > 0
    k = len(ids)
    assert int_mat_mul(tuple(map(tuple, gram)), adj) == tuple(
        tuple(det if i == j else 0 for j in range(k)) for i in range(k))
    assert [int_dot(row, r[:k]) for row in adj] == cramer_numerators(gram, r[:k])


@pytest.mark.parametrize("gram, order, minor", [
    ([[1, 2], [2, 1]], 2, -3),  # indefinite
    ([[2, 2], [2, 2]], 2, 0),  # dependent columns: singular
    ([[-1]], 1, -1),
], ids=["indefinite", "singular", "negative"])
def test_gram_adjugate_rejects_non_positive_definite(gram, order, minor):
    # a negative bordered minor is an error; a zero one skips the vertex,
    # so two dependent vertices leave a 1-face one short of its span
    face = Face(vertex_set=(0, 1), dim=1)
    with pytest.raises(InternalInvariantError) as err:
        face_cone_data(face, gram)
    assert str(err.value) == (
        f"face {face}: span has 1 independent lifted vertices, expected 2" if minor == 0 else
        f"Gram determinant of the span of {face} is not positive: "
        f"leading minor of order {order} is {minor}")


def test_face_data_holds_per_face_work(small_corpus):
    # the span basis is the echelon oracle's, its columns span what the
    # face's lifted vertices span, and the numbers of the vertex sum b_F
    # that the oracle reads off the face data and the Gram table
    # (A_F^T b_F, z_F = adj(G) A_F^T b_F with A_F z_F = det G b_F, and
    # |b_F|^2, against the n-vector sum of the generators), Gram matrix
    # and determinant are those of the face; its dual face read off the
    # slack table's zeros is the one of the dot products
    for poly in small_corpus:
        lat = face_lattice(poly)
        system = ConeSystem(lift(poly), lat)
        for i, f in enumerate(lat.faces_by_id):
            data = system.face_data(i)
            ids, oracle = span_basis_of_face(system.cone, f)
            assert data.span_ids == ids
            basis = span_basis(system.cone, data)
            fresh = IntEchelon(basis)
            assert oracle.rank == fresh.rank == f.dim + 1
            for g in system.cone.generators:
                assert echelon_contains(oracle, g) == echelon_contains(fresh, g)
            b = vertex_sum(system.cone, f)
            at_b, sum_coords, sum_sq = vertex_sum_numbers(system, i)
            assert at_b == tuple(int_dot(a, b) for a in basis)
            assert sum_coords == tuple(int_dot(row, at_b) for row in data.gram_adj)
            assert [sum(z * a[c] for z, a in zip(sum_coords, basis))
                    for c in range(system.cone.dim)] == [data.gram_det * x for x in b]
            assert sum_sq == int_dot(b, b)
            gram = [[int_dot(u, v) for v in basis] for u in basis]
            assert span_gram(system.gram, data.span_ids) == tuple(map(tuple, gram))
            assert data.gram_det == bareiss_det(gram) > 0
            assert data.span_mask == sum(1 << a for a in ids)
            verts = [system.cone.generators[i] for i in f.vertex_set]
            assert dual_face_ids(system, i) == tuple(
                k for k, y in enumerate(system.cone.facet_normals)
                if all(int_dot(y, g) == 0 for g in verts))


@pytest.fixture(scope="module")
def identity_systems():
    """The acceptance corpus, the 5-cube and the 5-cross-polytope, each with
    its lattice and cone system."""
    systems = []
    for poly in list(acceptance_corpus()) + [hypercube(5), cross_polytope(5)]:
        lat = face_lattice(poly)
        systems.append((poly, lat, ConeSystem(lift(poly), lat)))
    return systems


def test_bordered_pass_matches_echelon_and_gauss_jordan_oracles(identity_systems):
    # the ids of the echelon oracle, the det G and adj G of the Gauss-Jordan
    # oracle on their Gram matrix, over faces whose walk meets dependent
    # vertices before its last chosen id
    skipped = 0
    for poly, lat, system in identity_systems:
        for i, f in enumerate(lat.faces_by_id):
            data = system.face_data(i)
            ids, _ = span_basis_of_face(system.cone, f)
            assert data.span_ids == ids, (poly.name, f)
            assert (data.gram_det, data.gram_adj) == gram_adjugate(
                f, span_gram(system.gram, ids)), (poly.name, f)
            if ids:  # the vertices walked, up to the last one chosen
                skipped += f.vertex_set.index(ids[-1]) + 1 - len(ids)
    assert skipped > 0


def test_span_echelon_oracle_contains_every_ray(identity_systems):
    # membership of the ray in span(F) is an identity of the construction:
    # the echelon of F's lifted vertices contains every ray direction
    for poly, lat, system in identity_systems:
        echelons = {}
        for e, f in lat.covering:
            if f not in echelons:
                echelons[f] = span_basis_of_face(system.cone, f)[1]
            direction = system.ray(lat.face_id[e], lat.face_id[f]).direction
            assert echelon_contains(echelons[f], direction), (poly.name, e, f)


@pytest.fixture(scope="module")
def resume_lattices():
    """The acceptance corpus, the 5- and 6-cubes and cross-polytopes and a
    random 6-dimensional hull, each with its lattice."""
    polys = list(acceptance_corpus()) + [hypercube(5), cross_polytope(5), hypercube(6),
                                         cross_polytope(6), random_hull(random.Random(3), 6, 24)]
    return [(poly, face_lattice(poly)) for poly in polys]


def test_resumed_pass_is_the_full_walk(resume_lattices, monkeypatch):
    # each face's (ids, det G, adj G), resumed from a lower cover by one
    # bordering step or walked in full, is the full walk's.  The system
    # builds data for the faces that are not simplices and, on these
    # inputs, for no simplex face; a face resumes only from a lower cover
    # that is not a simplex, so a face whose lower covers are all simplices
    # (a square, or the top of a simplicial polytope) walks in full: 370 do,
    # and 294 resume
    real = cones.face_cone_data
    calls = []

    def recording(F, gram, cover=None):
        calls.append((F, cover))
        return real(F, gram, cover)

    monkeypatch.setattr(cones, "face_cone_data", recording)
    resumed = full = 0
    for poly, lat in resume_lattices:
        system = ConeSystem(lift(poly), lat)
        built = [f for f, _ in calls]
        assert built == [f for f in lat.faces_by_id if len(f.vertex_set) > f.dim + 1], poly.name
        for f, cover in calls:
            if cover:
                data_e, p = cover
                assert p in f.vertex_set and len(data_e.span_ids) == f.dim, (poly.name, f)
                resumed += 1
            else:
                full += 1
        for i, f in enumerate(lat.faces_by_id):
            assert system.face_data(i) == real(f, system.gram), (poly.name, f)
        calls.clear()
    assert (resumed, full) == (294, 370)


def test_dual_rank_stops_at_full_rank(resume_lattices):
    # wherever the cone system's mask check passes, as it does on all of
    # these, the echelon oracle finds rank n - (dim F + 1) for the dual
    # face of F, the full rank, and stopping it there loses nothing
    for poly, lat in resume_lattices:
        system = ConeSystem(lift(poly), lat)
        for i, f in enumerate(lat.faces_by_id):
            gens = dual_face_gens(system, i)
            expected = system.cone.dim - (f.dim + 1)
            assert IntEchelon(gens).rank == echelon_dual_rank(gens, expected) == expected, \
                (poly.name, f)


@pytest.fixture(scope="module")
def resume_systems(resume_lattices):
    """The polytopes of ``resume_lattices``, each with its cone system."""
    return [(poly, ConeSystem(lift(poly), lat)) for poly, lat in resume_lattices]


def test_bordering_steps_carry_the_face_certificate(resume_systems):
    # no face's data forms G adj(G): the checked bordering steps carry the
    # certificate, and the k^2 dot-product check it replaced holds on every
    # face, resumed or walked in full
    faces = 0
    for poly, system in resume_systems:
        for f in range(len(system.lattice.faces_by_id)):
            assert gram_certificate_holds(system.gram, system.face_data(f)), (poly.name, f)
            faces += 1
    assert faces > 2000


@pytest.fixture(scope="module")
def mixed_route_systems():
    """A prism over the 4-cross-polytope, a pyramid over the 4-cube and a
    0/1 hull in 5 d, each with its cone system: their pairs with m > 0 take
    the dual route, and on the prism and the 0/1 hull some take the general
    one."""
    cube4 = [tuple(2 * (k >> i & 1) for i in range(4)) for k in range(16)]
    zero_one = [tuple(k >> i & 1 for i in range(5)) for k in (3, 4, 6, 8, 12, 14, 15, 20, 24, 28, 29)]
    polys = [prism_over_cross(4),
             validate([v + (0,) for v in cube4] + [(1, 1, 1, 1, 1)], name="pyramid_cube4"),
             validate(zero_one, name="zero_one5")]
    return [(poly, ConeSystem(lift(poly), face_lattice(poly))) for poly in polys]


def test_cover_batch_matches_per_pair_api(resume_systems, mixed_route_systems):
    # on every covering pair the batch's sigma is the orientation of
    # edge_ray, and its verdict that of edge_ray + edge_ray_crosscheck,
    # which take the general Gram solve and Cauchy-Schwarz test on every
    # route, here on the per-face path's data of every face.  On m = 0 the solved ray is the identity the batch rests on,
    # column r of F's certified adjugate: c = adj(G_F)[r][r] = det G_E,
    # x = (-adj(G_F)[a][r] for a != r) and sigma = (-1)^r.  The pairs with
    # m > 0, of the oracle's dual and general routes, are filled by the
    # diamond rule
    routes = Counter()
    for poly, batch in resume_systems + mixed_route_systems:
        lat, system = batch.lattice, PerFaceSystem(batch)
        for f, lower in enumerate(lat.down):
            data_f = system.face_data(f)
            for e, sigma in zip(lower, batch.orientations[f]):
                ray = system.ray(e, f)
                system.crosscheck(e, f, ray)
                assert sigma == ray.orientation, (poly.name, e, f)
                route = pair_route(system, e, f)
                routes[route] += 1
                r = cones.adjugate_column(data_f.span_mask, system.face_data(e).span_mask)
                assert (r is not None) == (route == "adjugate"), (poly.name, e, f)
                if r is None:
                    continue
                assert is_m_zero(system, ray, e, f), (poly.name, e, f)
                adj = data_f.gram_adj
                assert ray.c == adj[r][r] == system.face_data(e).gram_det, (poly.name, e, f)
                assert ray.x == tuple(-adj[a][r] for a in range(len(adj)) if a != r), \
                    (poly.name, e, f)
                assert ray.orientation == (-1) ** r, (poly.name, e, f)
    assert routes["adjugate"] > 10000 and routes["dual"] > 1000 and routes["general"] > 80


def test_filled_signs_match_the_tau_oracle_and_the_per_pair_rays():
    # every sign the system stores, read off an adjugate, taken by the
    # general route or filled by the diamond rule, is the sign the tau
    # oracle's three routes give (spread from the top, bridged, dual route,
    # general route per pair) and the orientation of the per-pair edge ray,
    # on the per-face path's data
    polys = list(acceptance_corpus()) + [hypercube(5), cross_polytope(5), prism_over_cross(4),
                                         pyramid_prism(), random_hull(random.Random(3), 6, 24)]
    filled = Counter()
    for poly in polys:
        lat = face_lattice(poly)
        system = ConeSystem(lift(poly), lat)
        oracle, per_pair = TauSystem(system), PerFaceSystem(system)
        spans = system.span_masks
        for f, lower in enumerate(lat.down):
            sigma = system.orientations[f]
            assert list(sigma) == oracle.cover_orientations(f), (poly.name, f)
            for e, s in zip(lower, sigma):
                assert s == per_pair.ray(e, f).orientation, (poly.name, e, f)
                filled[cones.adjugate_column(spans[f], spans[e]) is None] += 1
    assert filled[True] > 1000 and filled[False] > 10000


def test_unreached_cover_names_the_pair(monkeypatch):
    # on the 3-cube, the square {4,5,6,7} has m > 0 under the top face; on a
    # lattice whose view lists no lower cover for it, no diamond joins it
    # to a cover of the top whose sign is set, and the orientation pass
    # names the pair
    poly = hypercube(3)
    lat, by_set = faces_of(poly)
    system = ConeSystem(lift(poly), lat)
    square, top = lat.face_id[by_set[(4, 5, 6, 7)]], len(lat.faces_by_id) - 1
    assert cones.adjugate_column(system.span_masks[top], system.span_masks[square]) is None
    down = list(lat.down)
    down[square] = ()
    monkeypatch.setattr(system, "lattice", SimpleNamespace(
        faces_by_id=lat.faces_by_id, down=tuple(down), vertex_masks=lat.vertex_masks))
    with pytest.raises(InternalInvariantError) as err:
        system._orient()
    E, F = lat.faces_by_id[square], lat.faces_by_id[top]
    assert str(err.value) == (f"no diamond sets the sign of ({E}, {F}): it joins no lower "
                              f"cover of {F} whose sign is set")


def test_general_sign_witness_names_the_pair(monkeypatch):
    # on random16_d3, one face has no m = 0 lower cover: its fill starts
    # from the general route's sign of its first lower cover, which the
    # witness recomputes as sign det([g | A_E]^T A_F); that sign negated
    # is an error naming the pair, in the witness's words
    poly = corpus_member("random16_d3")
    lat = face_lattice(poly)
    system = ConeSystem(lift(poly), lat)
    (e, f), = general_sign_pairs(system)
    sigma = system.orientations[f][0]
    real = cones._coordinate_sign
    monkeypatch.setattr(cones, "_coordinate_sign", lambda *args: -real(*args))
    with pytest.raises(InternalInvariantError) as err:
        ConeSystem(lift(poly), lat)
    assert str(err.value) == (
        f"sign witness ({lat.faces_by_id[e]}, {lat.faces_by_id[f]}): the general route gives "
        f"{-sigma}, sign det([g | A_E]^T A_F) = {sigma}")


@pytest.fixture(scope="module")
def simplex_route_systems():
    """The acceptance corpus, the 6-cube, the 6-cross-polytope, a random
    6-dimensional hull and the prism over the 5-cross-polytope, each with
    its cone system."""
    polys = list(acceptance_corpus()) + [hypercube(6), cross_polytope(6),
                                         random_hull(random.Random(3), 6, 24), prism_over_cross(5)]
    return [(poly, ConeSystem(lift(poly), face_lattice(poly))) for poly in polys]


def test_simplex_pairs_are_the_simplicial_boundary(simplex_route_systems):
    # on every covering pair (E, F) whose upper face is a simplex,
    # |F| = dim F + 1, E is F without one vertex g, dual_E strictly holds
    # dual_F, and the batch's sigma is (-1)^r for g's row r in F's vertex
    # tuple, the simplicial boundary; it is the orientation the per-pair
    # API makes on the per-face path's data, whose span ids for F are all
    # of F's vertices (det G_F > 0, which the strict dual masks certify in
    # the batch).  On the pairs whose lower face E is a simplex and whose
    # upper face is not, the batch's sigma is the per-pair API's on all
    # three routes of the oracle's classification
    routes = Counter()
    for poly, batch in simplex_route_systems:
        lat, system = batch.lattice, PerFaceSystem(batch)
        dual = batch.dual_masks
        for f, lower in enumerate(lat.down):
            F = lat.faces_by_id[f]
            simplex_f = len(F.vertex_set) == F.dim + 1
            if simplex_f:
                assert system.face_data(f).span_ids == F.vertex_set, (poly.name, f)
            for e, sigma in zip(lower, batch.orientations[f]):
                E = lat.faces_by_id[e]
                if simplex_f:
                    (g,) = set(F.vertex_set) - set(E.vertex_set)
                    assert len(E.vertex_set) == F.dim, (poly.name, e, f)
                    assert sigma == (-1) ** F.vertex_set.index(g), (poly.name, e, f)
                    assert dual[e] & ~dual[f] and not dual[f] & ~dual[e], (poly.name, e, f)
                elif len(E.vertex_set) != E.dim + 1:
                    continue
                assert sigma == system.ray(e, f).orientation, (poly.name, e, f)
                routes[simplex_f, pair_route(system, e, f)] += 1
    assert routes == {(True, "adjugate"): 24832, (False, "adjugate"): 841,
                      (False, "dual"): 1352, (False, "general"): 160}


@pytest.mark.parametrize("poly, counts", [
    (hypercube(5), {"dual": 325, "general": 0, "general_signs": 0, "witnesses": 6}),
    (cross_polytope(5), {"dual": 30, "general": 0, "general_signs": 0, "witnesses": 6}),
    (prism_over_cross(4), {"dual": 108, "general": 80, "general_signs": 0, "witnesses": 6}),
], ids=["cube5", "cross5", "prism_cross4"])
def test_dual_route_counts(poly, counts, monkeypatch):
    # neither the system nor build_complex makes a ray, and the pairs with
    # m > 0, of the oracle's dual and general routes alike, take no
    # determinant: the diamond rule fills them.  The system's only
    # determinants are the witnesses of the adjugate read-off, one per
    # dimension of F, 0 to 5, and a general-route sign with its witness at
    # a face with no m = 0 lower cover, which none of these has (the
    # prism's one bridge of tau is no such face); build_complex takes none
    made, signs, dets = [], [], []
    real_ray, real_sign, real_det = cones.edge_ray, cones._coordinate_sign, cones.bareiss_det

    def ray(*args, **kwargs):
        made.append(args)
        return real_ray(*args, **kwargs)

    def sign(E, F, *args):
        signs.append((E, F))
        return real_sign(E, F, *args)

    def det(rows):
        dets.append(len(rows))
        return real_det(rows)

    monkeypatch.setattr(cones, "edge_ray", ray)
    monkeypatch.setattr(cones, "_coordinate_sign", sign)
    monkeypatch.setattr(cones, "bareiss_det", det)
    lat = face_lattice(poly)
    system = ConeSystem(lift(poly), lat)
    assert dets == list(range(1, lat.dim + 2))  # the witness of dimension j is (j + 1) x (j + 1)
    build_complex(trivialize(lat), system)
    routes = Counter(pair_route(system, e, f) for f, lower in enumerate(lat.down) for e in lower)
    assert made == [] and len(dets) == lat.dim + 1
    assert {"dual": routes["dual"], "general": routes["general"], "general_signs": len(signs),
            "witnesses": len(dets)} == counts


@pytest.fixture(scope="module")
def general_route_systems():
    """The inputs with pairs of the general route: the prisms over the 4-
    and 5-cross-polytopes, the prism over a square pyramid and a prism over
    the prism over the 3-cross-polytope, each with its cone system."""
    prism = [tuple(s * (i == j) for j in range(3)) + (t,)
             for t in (0, 1) for i in range(3) for s in (1, -1)]
    twice = validate([v + (t,) for t in (0, 1) for v in prism], name="prism_prism_cross3")
    polys = [prism_over_cross(4), prism_over_cross(5), pyramid_prism(), twice]
    return [(poly, ConeSystem(lift(poly), face_lattice(poly))) for poly in polys]


def test_general_pairs_take_the_mask_test_and_the_coordinate_sign(general_route_systems):
    # the system makes no ray on a pair of the oracle's general route: it
    # fills sigma by the diamond rule, and the barycenter test is the mask
    # test, some normal of dual_E outside dual_F.  On every such pair the
    # mask test holds, the per-pair API's ray passes its cross-check, and
    # its orientation and the general route's sign det C for
    # [g | A_E] = A_F C, off F's adjugate and E's span ids, are the filled
    # sigma
    counts = []
    for poly, system in general_route_systems:
        lat, dual, general = system.lattice, system.dual_masks, 0
        for f, lower in enumerate(lat.down):
            for e, sigma in zip(lower, system.orientations[f]):
                if pair_route(system, e, f) == "general":
                    assert dual[e] & ~dual[f], (poly.name, e, f)
                    ray = system.ray(e, f)
                    system.crosscheck(e, f, ray)
                    assert sigma == ray.orientation == system._general_sign(e, f), \
                        (poly.name, e, f)
                    general += 1
        counts.append(general)
    assert counts == [80, 320, 4, 72]


def first_general_pair(system) -> tuple[int, int]:
    """The first pair of the general route in the order build_complex
    walks them: by the id of F, then by ``down``."""
    return next((e, f) for f, lower in enumerate(system.lattice.down) for e in lower
                if pair_route(system, e, f) == "general")


def test_general_pair_with_equal_dual_masks_fails(monkeypatch):
    # E's dual mask set to F's on a general pair, F E's first upper cover,
    # leaves no normal of dual_E outside dual_F: the system's certificate
    # rejects the pair by name when it is built
    poly = pyramid_prism()
    lat = face_lattice(poly)
    e, f = first_general_pair(ConeSystem(lift(poly), lat))
    assert lat.up[e][0] == f
    E, F = lat.faces_by_id[e], lat.faces_by_id[f]
    certify_masks_with(monkeypatch, e, f)
    with pytest.raises(InternalInvariantError) as err:
        ConeSystem(lift(poly), lat)
    assert (E.dim, F.dim) == (1, 2)
    assert str(err.value) == (
        f"dual face of {E} does not strictly contain that of its upper cover {F}, "
        "so its rank 3 is not certified")


def general_sign_pairs(system) -> list[tuple[int, int]]:
    """The pairs that take a general-route sign in the system: the first
    lower cover of each face with no lower cover of m = 0."""
    spans = system.span_masks
    return [(lower[0], f) for f, lower in enumerate(system.lattice.down)
            if lower and all(cones.adjugate_column(spans[f], spans[e]) is None for e in lower)]


def test_zero_sign_determinant_fails_the_general_pair(monkeypatch):
    # [g | A_E] = A_F C with det C = 0 is no basis of span(F): the sign
    # determinant of the one general-route pair of random11_d4, the first
    # lower cover of its one face with no m = 0 lower cover, read as zero
    # is an error naming it, when the system is built
    poly = corpus_member("random11_d4")
    lat = face_lattice(poly)
    (e, f), = general_sign_pairs(ConeSystem(lift(poly), lat))
    real = cones.bareiss_det
    monkeypatch.setattr(cones, "bareiss_det", lambda rows: 0 if sys._getframe(
        1).f_code.co_name == "_coordinate_sign" else real(rows))
    with pytest.raises(InternalInvariantError) as err:
        ConeSystem(lift(poly), lat)
    assert str(err.value) == (
        f"incidence sign of ({lat.faces_by_id[e]}, {lat.faces_by_id[f]}) is zero")


def test_dual_base_signs_match_the_generator_determinants():
    # every nonzero tau of the system, the top's +1, the spread ones and
    # those of the faces the spread does not reach, is
    # sign det[A_F | Y_F] * sign det A_P on the
    # generators and normals (Leibniz) and the table-form oracle's sign;
    # every 0 marks a face that is not dual-simple; and on every pair of
    # dual-simple faces, of any route, the ray's orientation is
    # (-1)^(n-1) pi tau_E tau_F
    checked = Counter()
    prism = validate([tuple(s * (i == j) for j in range(3)) + (t,)
                      for t in (0, 1) for i in range(3) for s in (1, -1)])
    polys = [hypercube(4), cross_polytope(4), prism, prism_over_cross(4)] + [
        corpus_member(name) for name in ("random11_d4", "random14_d4", "random16_d3")]
    for poly in polys:
        lat = face_lattice(poly)
        system = TauSystem(ConeSystem(lift(poly), lat))
        C, n, top = system.cone, system.cone.dim, len(lat.faces_by_id) - 1
        slack = slack_table(C)
        top_basis = span_basis(C, system.face_data(top))
        top_sign = 1 if leibniz_det(top_basis) > 0 else -1
        for f, tau in enumerate(system.taus):
            if not tau:
                assert not dual_simple(system, f), (poly.name, f)
                continue
            rows = span_basis(C, system.face_data(f)) + dual_face_gens(system, f)
            assert tau == (1 if leibniz_det(rows) > 0 else -1) * top_sign, (poly.name, f)
            assert tau == dual_base_sign(lat.faces_by_id[f], system.face_data(f).span_ids,
                                         system.dual_masks[f], system.face_data(top).span_ids,
                                         system.gram, slack), (poly.name, f)
        assert system.taus[top] == 1
        for f, lower in enumerate(lat.down):
            for e in lower:
                if system.taus[e] and system.taus[f]:
                    sigma = dual_sign(n, system.dual_masks[f], system.dual_masks[e])
                    assert system.ray(e, f).orientation == \
                        sigma * system.taus[e] * system.taus[f], (poly.name, e, f)
                    checked[pair_route(system, e, f)] += 1
    assert checked["adjugate"] > 250 and checked["dual"] > 100


def test_flipped_dual_base_sign_fails_the_batch_not_the_per_pair_api(monkeypatch):
    # the dual base sign of vertex {0} of the 3-cube flipped in the tau
    # oracle: its three-route batch, taking the faces in id order, rejects
    # the first
    # m = 0 pair at {0} between dual-simple faces, ({0}, {0,1}), naming it
    # (the empty face below {0} is not dual-simple); the per-pair API, which
    # reads no dual base sign, makes the same ray and accepts it
    poly = hypercube(3)
    lat, by_set = faces_of(poly)
    system = TauSystem(ConeSystem(lift(poly), lat))
    broken = TauSystem(ConeSystem(system.cone, lat))
    flipped = lat.face_id[by_set[(0,)]]
    monkeypatch.setattr(broken, "taus", tuple(-t if f == flipped else t
                                              for f, t in enumerate(system.taus)))
    with pytest.raises(InternalInvariantError) as batch:
        for f in range(len(lat.faces_by_id)):
            broken.cover_orientations(f)
    E, F = by_set[(0,)], by_set[(0, 1)]
    assert str(batch.value) == (f"edge-ray cross-check failed for ({E}, {F}): "
                                "the dual base signs give 1, F's adjugate (-1)^1 = -1")
    e, f = lat.face_id[E], lat.face_id[F]
    ray = broken.ray(e, f)
    assert ray == system.ray(e, f) and ray.orientation == -1
    broken.crosscheck(e, f, ray)


def corpus_member(name):
    return next(P for P in acceptance_corpus() if P.name == name)


def test_m_zero_dual_masks_imply_the_barycenter_test(monkeypatch):
    # the identity check_dual_faces states: on a pair with m = 0, a
    # normal y of dual_E outside dual_F gives z_F[r] = |v|^2 sum t_u > 0.
    # On every such pair of these inputs dual_F lies inside dual_E, the
    # batch's mask test holds and the vertex-sum oracle's z_F[r] is
    # positive.  The faces with no m = 0 lower cover take one general-route
    # sign, one _coordinate_sign call each in the constructor: three on the
    # corpus (random11_d4, random14_d4 and random16_d3), none elsewhere
    dets = []
    real_sign = cones._coordinate_sign

    def sign(E, F, *args):
        dets.append((E, F))
        return real_sign(E, F, *args)

    monkeypatch.setattr(cones, "_coordinate_sign", sign)
    groups = [("corpus", P) for P in acceptance_corpus()] + [
        (P.name, P) for P in (hypercube(5), cross_polytope(5), prism_over_cross(4),
                              pyramid_prism())]
    pairs, general = Counter(), Counter()
    for group, poly in groups:
        lat = face_lattice(poly)
        before = len(dets)
        system = ConeSystem(lift(poly), lat)
        general[group] += len(dets) - before
        dual = system.dual_masks
        for f, lower in enumerate(lat.down):
            span_f = system.face_data(f).span_mask
            z = vertex_sum_numbers(system, f)[1]
            for e in lower:
                r = cones.adjugate_column(span_f, system.face_data(e).span_mask)
                if r is None:
                    continue
                assert not dual[f] & ~dual[e], (poly.name, e, f)
                assert dual[e] != dual[f], (poly.name, e, f)
                assert z[r] > 0, (poly.name, e, f)
                pairs[group] += 1
    assert pairs == {"corpus": 2566, "cube5": 517, "cross5": 812,
                     "prism_cross4": 662, "pyramid_prism": 121}
    assert general == {"corpus": 3, "cube5": 0, "cross5": 0, "prism_cross4": 0,
                       "pyramid_prism": 0}


def test_cover_orientations_in_reverse_order_match_and_keep_taus(mixed_route_systems):
    # the tau oracle fixes tau when it is built: asking its three-route
    # batch for the faces from the top down gives the signs of asking from
    # the bottom up, the system's orientations, and assigns no attribute,
    # taus included
    for poly, system in mixed_route_systems:
        ids = range(len(system.lattice.faces_by_id))
        oracle = TauSystem(system)
        taus, attributes = oracle.taus, dict(vars(oracle))
        backward = {f: oracle.cover_orientations(f) for f in reversed(ids)}
        assert vars(oracle).keys() == attributes.keys(), poly.name
        assert all(vars(oracle)[k] is v for k, v in attributes.items()), poly.name
        fresh = TauSystem(ConeSystem(system.cone, system.lattice))
        assert [fresh.cover_orientations(f) for f in ids] == [backward[f] for f in ids] \
            == [list(system.orientations[f]) for f in ids], poly.name
        assert fresh.taus == taus, poly.name


def test_singular_dual_base_names_face():
    # [A_F | Y_F] is a basis of R^n for every dual-simple face; on a table
    # whose rows repeat (the vertex {1} of the square given twice for the
    # edge {1,3}) the oracle's determinant is zero, an error naming the face
    poly = hypercube(2)
    lat, by_set = faces_of(poly)
    system = ConeSystem(lift(poly), lat)
    edge, top = lat.face_id[by_set[(1, 3)]], len(lat.faces_by_id) - 1
    with pytest.raises(InternalInvariantError) as err:
        dual_base_sign(by_set[(1, 3)], (1, 1), system.dual_masks[edge],
                       system.face_data(top).span_ids, system.gram, slack_table(system.cone))
    assert str(err.value) == f"dual base [A_F | Y_F] of {by_set[(1, 3)]} is singular"


def bridges_of(poly, monkeypatch):
    """The lattice and cone of ``poly`` with the pairs (E, H) over which the
    tau oracle bridged tau, read off its _coordinate_sign calls, the only
    ones it makes when it is built on a system that makes none."""
    lat, cone, bridges = face_lattice(poly), lift(poly), []
    real_sign = cones._coordinate_sign

    def sign(E, F, *args):
        bridges.append((E, F))
        return real_sign(E, F, *args)

    with monkeypatch.context() as patch:
        patch.setattr(cones, "_coordinate_sign", sign)
        system = ConeSystem(cone, lat)
        assert bridges == []
        TauSystem(system)
    return lat, cone, bridges


def test_singular_tau_determinant_names_face(monkeypatch):
    # the one face of the prism over the 4-cross-polytope that the tau
    # oracle cannot spread to from the top takes tau over its first upper
    # cover, a facet under P, by the general route's sign of that pair; a
    # zero determinant there (bareiss_det patched once the system is
    # built, as no table of a polytope gives it) is an error naming the
    # pair, in the general route's words
    poly = prism_over_cross(4)
    lat, cone, bridges = bridges_of(poly, monkeypatch)
    assert len(bridges) == 1
    (E, H), = bridges
    assert lat.face_id[H] == lat.up[lat.face_id[E]][0] and H == lat.faces_by_id[-1]
    system = ConeSystem(cone, lat)
    monkeypatch.setattr(cones, "bareiss_det", lambda rows: 0)
    with pytest.raises(InternalInvariantError) as err:
        TauSystem(system)
    assert str(err.value) == f"incidence sign of ({E}, {H}) is zero"


@pytest.mark.parametrize("fault", ["dual", "cofactor"])
def test_m_zero_faults_fail_the_batch_not_the_per_pair_api(fault, monkeypatch):
    # the top face of the 3-cube, which no face resumes from, and its first
    # lower cover E with m = 0, with E's dual mask set to the top's (empty)
    # or adj(G_F)[r][r] moved off det G_E by one, for E's row r: the
    # system's certificate or its orientation pass rejects (E, top) when
    # it is built, naming it, and the per-pair API, which reads neither the
    # dual masks nor F's adjugate on that pair, makes the same ray and
    # accepts it
    poly = hypercube(3)
    lat = face_lattice(poly)
    system = ConeSystem(lift(poly), lat)
    top = len(lat.faces_by_id) - 1
    data_top = system.face_data(top)
    e = next(e for e in lat.down[top]
             if cones.adjugate_column(data_top.span_mask, system.face_data(e).span_mask) is not None)
    r = cones.adjugate_column(data_top.span_mask, system.face_data(e).span_mask)
    ray = system.ray(e, top)
    if fault == "dual":
        certify_masks_with(monkeypatch, e, top)
        with pytest.raises(InternalInvariantError) as built:
            ConeSystem(system.cone, lat)
        assert str(built.value) == (
            f"dual face of {lat.faces_by_id[e]} does not strictly contain that of its "
            f"upper cover {lat.faces_by_id[-1]}, so its rank 1 is not certified")
        system.crosscheck(e, top, ray)
        return
    adj = [list(row) for row in data_top.gram_adj]
    adj[r][r] += 1
    real = cones.face_cone_data

    def corrupting(F, *args):
        data = real(F, *args)
        return data._replace(gram_adj=tuple(map(tuple, adj))) if F == lat.faces_by_id[-1] else data

    monkeypatch.setattr(cones, "face_cone_data", corrupting)
    det = system.face_data(e).gram_det
    why = f"cofactor adj(G_F)[{r}][{r}] = {det + 1} is not det G_E = {det} > 0"
    with pytest.raises(InternalInvariantError) as batch:
        ConeSystem(system.cone, lat)
    assert str(batch.value) == (
        f"edge-ray cross-check failed for ({lat.faces_by_id[e]}, {lat.faces_by_id[-1]}): {why}")
    data_e, broken = system.face_data(e), data_top._replace(gram_adj=tuple(map(tuple, adj)))
    per_pair = edge_ray(system.cone, lat.faces_by_id[e], lat.faces_by_id[-1], data_E=data_e,
                        data_F=broken, gram=system.gram, e_mask=lat.vertex_masks[e])
    assert per_pair == ray
    cones.edge_ray_crosscheck(per_pair, data_e, system.gram)


def test_bordering_step_rejects_inexact_division():
    # a hand-built cover state (S, D, adj G_S) = ((0, 1), 3, adj) for the
    # Gram table T below, resumed by vertex 2, with adj's row 0 moved by
    # (1, -1): b = T[S][2] = (1, 1) keeps y = adj b = (1, 1), so
    # G_S y = D b holds, but (D' adj + y y^T) / D with D' = 1 is 4/3 at
    # (0, 0); a row 0 moved by (-1, 0) makes y = (0, 1) and
    # G_S y = (1, 2) != D b, with D' = 2 > 0.  Each is an error naming the
    # face and the vertex bordered
    table = ((2, 1, 1), (1, 2, 1), (1, 1, 1))
    F = Face(vertex_set=(0, 1, 2), dim=2)

    def cover(adj):
        return FaceConeData(span_ids=(0, 1), span_mask=0b11, gram_det=3, gram_adj=adj), 2

    data = face_cone_data(F, table, cover(((2, -1), (-1, 2))))
    ids, det, adj = data.span_ids, data.gram_det, data.gram_adj
    assert (ids, det) == ((0, 1, 2), 1)
    assert all(sum(table[a][c] * adj[c][j] for c in range(3)) == det * (a == j)
               for a in range(3) for j in range(3))
    with pytest.raises(InternalInvariantError) as err:
        face_cone_data(F, table, cover(((3, -2), (-1, 2))))
    assert str(err.value) == (
        f"Gram adjugate of the span of {F} fails the certificate G adj(G) = det G * I, "
        "det G > 0: bordering by vertex 2, (D' adj G_S + y y^T) / D is not exact (D = 3)")
    with pytest.raises(InternalInvariantError) as err:
        face_cone_data(F, table, cover(((1, -1), (-1, 2))))
    assert str(err.value) == (
        f"Gram adjugate of the span of {F} fails the certificate G adj(G) = det G * I, "
        "det G > 0: bordering by vertex 2, G_S y != D b at vertex 0 (D = 3)")


def test_dual_face_rank_names_face():
    # dropping a facet normal leaves the edge on it with the empty dual face
    # of its one upper cover, the top, where rank 1 is due
    poly = hypercube(2)
    lat, by_set = faces_of(poly)
    cone = lift(poly)
    dropped = cone.facet_normals[0]
    broken = cone._replace(facet_normals=cone.facet_normals[1:])
    edge = next(f for f in lat.faces(1)
                if all(dot(dropped, cone.generators[i]) == 0 for i in f.vertex_set))
    with pytest.raises(InternalInvariantError) as err:
        ConeSystem(broken, lat)
    assert str(err.value) == (
        f"dual face of {edge} does not strictly contain that of its upper cover "
        f"{lat.faces_by_id[-1]}, so its rank 1 is not certified")


def test_nonempty_dual_face_of_top_names_normals():
    # a zero facet normal vanishes on every vertex, so it is in the dual face
    # of the top, which must be empty; its rank, 0, would not show that
    poly = hypercube(2)
    lat, _ = faces_of(poly)
    cone = lift(poly)
    broken = cone._replace(facet_normals=cone.facet_normals + ((0, 0, 0),))
    with pytest.raises(InternalInvariantError) as err:
        ConeSystem(broken, lat)
    assert str(err.value) == (
        f"dual face of the top face {lat.faces_by_id[-1]} is not empty: "
        "facet normals [4] vanish on every vertex")


def test_top_of_wrong_dimension_names_face():
    # the induction starts at the top, whose dual face has rank
    # n - (dim P + 1) = 0 only in a cone of dimension dim P + 1
    poly = hypercube(2)
    lat, _ = faces_of(poly)
    cone = lift(poly)._replace(dim=4)
    with pytest.raises(InternalInvariantError) as err:
        ConeSystem(cone, lat)
    assert str(err.value) == (
        f"top face {lat.faces_by_id[-1]} has dimension 2 in a cone of dimension 4")


@pytest.mark.parametrize("dim", [1, 0], ids=["edge-uncovered", "vertex-under-top"])
def test_face_without_upper_cover_names_face(dim):
    # hand-built lattices of the square: an edge left without its cover by
    # the top has no upper cover to certify its dual rank, and a vertex
    # whose one upper cover is the top, two dimensions up, has no cover one
    # dimension up.  Both break the graded axiom, which the lattice checks
    # as it is built, so no cone system is ever given them; the all-pairs
    # oracle names the same face
    poly = hypercube(2)
    lat, _ = faces_of(poly)
    face = lat.faces(dim)[0]
    pairs = [(e, f) for e, f in lat.covering if e != face]
    if dim == 0:
        pairs.append((face, lat.faces_by_id[-1]))
    with pytest.raises(InternalInvariantError) as err:
        lattice_from_pairs(lat.dim, lat.faces_by_dim, pairs)
    cut = lattice_from_pairs(lat.dim, lat.faces_by_dim, pairs, unchecked=True)
    assert str(err.value) == failure(all_pairs_verify_lattice, cut) == (
        f"{face} has no upper cover: not graded" if dim == 1 else
        f"cover ({face}, {lat.faces_by_id[-1]}) skips a rank: not graded")


def test_upper_cover_outside_face_certifies_no_rank():
    # a hand-built lattice puts the vertex {0} of the square under the edge
    # {2,3} alone: that edge's dual face is not part of {0}'s, so the
    # normals of {0}'s dual face outside the edge's would prove nothing
    # about its rank.  The edge does not hold the vertex, so the lattice is
    # refused as it is built, and no cone system is given it
    poly = hypercube(2)
    lat, by_set = faces_of(poly)
    vertex, edge = by_set[(0,)], by_set[(2, 3)]
    pairs = [(e, f) for e, f in lat.covering if e != vertex] + [(vertex, edge)]
    with pytest.raises(InternalInvariantError) as err:
        lattice_from_pairs(lat.dim, lat.faces_by_dim, pairs)
    assert str(err.value) == \
        f"covering pair ({vertex}, {edge}) is not a strict vertex-set containment"


def test_simplex_face_with_dependent_vertices_names_face():
    # a hand-built lattice of the 4-cube adds F = {0,1,2,3}, the vertices of
    # a square, as a 3-face under the top, and the triangle {0,1,2} as a
    # 2-face under F and under a cube facet, above the square's edges {0,1}
    # and {0,2}.  F has dim F + 1 vertices, a simplex face, but they span
    # rank 3.  The triangle's dual face strictly holds the cube facet's,
    # and F's the top's, but the system's certificate, made on every
    # covering pair when it is built, rejects (triangle, F): the triangle's
    # vertices span the square, so no normal vanishes on it and not on F.
    # F's data, the full walk the per-pair API makes, is one id short, an
    # error naming F.  The lattice itself has F at two levels, F and the
    # square having one vertex mask, so it is refused as it is built, and
    # the system is given it unchecked
    poly = hypercube(4)
    lat = face_lattice(poly)
    square = lat.faces(2)[0]
    assert square.vertex_set == (0, 1, 2, 3)
    triangle, flat = Face((0, 1, 2), 2), Face((0, 1, 2, 3), 3)
    facet = next(h for h in lat.faces(3) if set(square.vertex_set) <= set(h.vertex_set))
    levels = [list(level) for level in lat.faces_by_dim]
    levels[3].append(triangle)
    levels[4].append(flat)
    pairs = list(lat.covering) + [(Face((0, 1), 1), triangle), (Face((0, 2), 1), triangle),
                                  (triangle, flat), (triangle, facet), (flat, lat.faces_by_id[-1])]
    with pytest.raises(InternalInvariantError) as err:
        lattice_from_pairs(lat.dim, levels, pairs)
    assert str(err.value) == f"face {flat} found at levels 3 and 4"
    hand = lattice_from_pairs(lat.dim, levels, pairs, unchecked=True)
    with pytest.raises(InternalInvariantError) as err:
        ConeSystem(lift(poly), hand)
    assert str(err.value) == (
        f"dual face of {triangle} does not strictly contain that of its upper cover "
        f"{flat}, so its rank 2 is not certified")
    with pytest.raises(InternalInvariantError) as err:
        face_cone_data(flat, gram_table(lift(poly)))
    assert str(err.value) == f"face {flat}: span has 3 independent lifted vertices, expected 4"


@pytest.mark.parametrize("cofactor", [0, -1])
def test_simplex_lower_cover_takes_the_reduced_cofactor_check(cofactor, monkeypatch):
    # an edge E of the 3-cube, a simplex, carries no data under its square
    # F: the pair's cofactor check reduces to adj(G_F)[r][r] > 0, the
    # Gram determinant of E's vertices as a principal minor of G_F, which
    # F's certificate makes positive.  F's adjugate corrupted there after
    # its steps (the last square, which no face resumes from) fails the
    # system when it is built, naming the pair; the per-pair API, which
    # reads E's own data, makes the same ray and accepts it
    poly = hypercube(3)
    lat = face_lattice(poly)
    system = ConeSystem(lift(poly), lat)
    F = lat.faces(2)[-1]
    f = lat.face_id[F]
    e = lat.down[f][0]
    r = cones.adjugate_column(system.span_masks[f], system.span_masks[e])
    assert r is not None and system._face_data[e] is None
    real = cones.face_cone_data

    def corrupting(G, *args):
        data = real(G, *args)
        if G != F:
            return data
        adj = [list(row) for row in data.gram_adj]
        adj[r][r] = cofactor
        return data._replace(gram_adj=tuple(map(tuple, adj)))

    monkeypatch.setattr(cones, "face_cone_data", corrupting)
    with pytest.raises(InternalInvariantError) as batch:
        ConeSystem(system.cone, lat)
    assert str(batch.value) == (
        f"edge-ray cross-check failed for ({lat.faces_by_id[e]}, {F}): "
        f"cofactor adj(G_F)[{r}][{r}] = {cofactor} is not det G_E > 0")
    monkeypatch.setattr(cones, "face_cone_data", real)
    ray = system.ray(e, f)
    assert ray.orientation == (-1) ** r
    system.crosscheck(e, f, ray)


def test_lower_cover_outside_face_is_refused_at_construction():
    # a hand-built lattice lists the vertex {0} first under the edge {2,3}
    # of the square, besides its own edges.  {0} is not in the edge, so the
    # lattice is refused as it is built, with the message the all-pairs
    # oracle gives on it unchecked: every lower cover the system's resume
    # pass (``ConeSystem._resume``) reads lies inside its face
    poly = hypercube(2)
    lat, by_set = faces_of(poly)
    vertex, edge = by_set[(0,)], by_set[(2, 3)]
    pairs = [(vertex, edge)] + list(lat.covering)
    stray = lattice_from_pairs(lat.dim, lat.faces_by_dim, pairs, unchecked=True)
    assert stray.down[stray.face_id[edge]][0] == stray.face_id[vertex]
    with pytest.raises(InternalInvariantError) as err:
        lattice_from_pairs(lat.dim, lat.faces_by_dim, pairs)
    assert str(err.value) == failure(all_pairs_verify_lattice, stray) == \
        f"covering pair ({vertex}, {edge}) is not a strict vertex-set containment"


def test_inherited_adjugate_fails_certificate_of_face(monkeypatch):
    # the top of the 3-cube resumes its bordered pass from the first square
    # built, whose span ids (0, 1, 2) lie below p = 4; the square's
    # adjugate zeroed after its own steps passed gives y = 0 and fails the
    # top's bordering step, G_S y != D b, naming the top and p.  The data
    # of every face that is not a simplex is built with the system, so
    # that fails inside ConeSystem(...), and build_complex makes no
    # face_cone_data call
    poly = hypercube(3)
    lat = face_lattice(poly)
    top = lat.faces_by_id[-1]
    real = cones.face_cone_data
    covers, corrupted = {}, []

    def corrupting(F, gram, cover=None):
        covers[F] = cover
        data = real(F, gram, cover)
        if F.dim != 2 or corrupted:
            return data
        k = len(data.span_ids)
        corrupted.append(data._replace(gram_adj=((0,) * k,) * k))
        return corrupted[0]

    monkeypatch.setattr(cones, "face_cone_data", corrupting)
    with pytest.raises(InternalInvariantError) as err:
        ConeSystem(lift(poly), lat)
    bad, p = covers[top]
    assert bad == corrupted[0] and bad.span_ids == (0, 1, 2) and p == 4
    assert str(err.value) == (
        f"Gram adjugate of the span of {top} fails the certificate "
        f"G adj(G) = det G * I, det G > 0: bordering by vertex 4, "
        f"G_S y != D b at vertex 0 (D = {bad.gram_det})")

    calls = []

    def counting(F, *args):
        calls.append(F)
        return real(F, *args)

    monkeypatch.setattr(cones, "face_cone_data", counting)
    system = ConeSystem(lift(poly), lat)
    assert calls == [f for f in lat.faces_by_id if len(f.vertex_set) > f.dim + 1]
    calls.clear()
    build_complex(trivialize(lat), system)
    assert calls == []


def test_edge_ray_rejects_ray_outside_span_of_f():
    # membership in span(F) is an identity of edge_ray's construction, and
    # not checked there; a ray that projects a lifted vertex outside F in
    # place of g leaves span(F), and is caught by the barycenter
    # cross-check, whose vector lies in span(F).  The pair has m = 0, so
    # build_complex makes no ray for it: the per-pair API is shown the ray
    poly = hypercube(2)
    lat, _ = faces_of(poly)
    system = ConeSystem(lift(poly), lat)
    e, f = next((e, f) for e, f in lat.covering if f.dim == 1)
    i, j = lat.face_id[e], lat.face_id[f]
    outside = next(v for v in range(poly.nvertices) if v not in f.vertex_set)
    ray = system.ray(i, j)
    assert is_m_zero(system, ray, i, j)
    moved = ray._replace(g=outside)
    assert not echelon_contains(span_basis_of_face(system.cone, f)[1], moved.direction)
    with pytest.raises(InternalInvariantError) as err:
        system.crosscheck(i, j, moved)
    assert f"edge-ray cross-check failed for ({e}, {f})" in str(err.value)


def test_edge_ray_rejects_ray_not_orthogonal_to_e(monkeypatch):
    # for a pair with m = 0 the batch reads the ray as column r of adj(G_F),
    # certified by the bordering steps that built it, so w = c g - A_E x is
    # orthogonal to span(E).  The top of the 3-cube is no face's resumed
    # cover; its adjugate corrupted after its steps at (r, r) for its first
    # lower cover E with m = 0, a square, c = det G_E moved by one, would
    # move w off span(E)^perp, and the batch rejects the pair by the
    # principal-minor check adj(G_F)[r][r] = det G_E, naming it.  The
    # per-pair API solves for x with E's adjugate: that adjugate moved by
    # -1 at (0, 0) moves x, and w stays in span(F) but leaves span(E)^perp
    poly = hypercube(3)
    lat = face_lattice(poly)
    system = ConeSystem(lift(poly), lat)
    f = lat.faces_by_id[-1]
    j = len(lat.faces_by_id) - 1
    i = next(i for i in lat.down[j] if cones.adjugate_column(
        system.face_data(j).span_mask, system.face_data(i).span_mask) is not None)
    e = lat.faces_by_id[i]
    data_e, data_f = system.face_data(i), system.face_data(j)
    ray = system.ray(i, j)
    r = span_row(data_f, ray.g)
    assert is_m_zero(system, ray, i, j) and e.dim == 2 and len(e.vertex_set) == 4

    def corrupt(adj, row, col, by):
        rows = [list(x) for x in adj]
        rows[row][col] += by
        return tuple(map(tuple, rows))

    real = cones.face_cone_data

    def corrupting(F, *args):
        data = real(F, *args)
        return data._replace(gram_adj=corrupt(data.gram_adj, r, r, 1)) \
            if F == f else data

    monkeypatch.setattr(cones, "face_cone_data", corrupting)
    with pytest.raises(InternalInvariantError) as err:
        build_complex(trivialize(lat), ConeSystem(system.cone, lat))
    assert str(err.value) == (
        f"edge-ray cross-check failed for ({e}, {f}): cofactor adj(G_F)[{r}][{r}] = "
        f"{data_e.gram_det + 1} is not det G_E = {data_e.gram_det} > 0")
    bad = data_e._replace(gram_adj=corrupt(data_e.gram_adj, 0, 0, -1))
    moved = edge_ray(system.cone, e, f, bad, data_f, gram=system.gram,
                     e_mask=lat.vertex_masks[i])
    assert moved.x != ray.x
    assert any(dot(moved.direction, system.cone.generators[a]) != 0 for a in data_e.span_ids)


def m_positive_pair(system):
    """The first covering pair (E, F) of the system's lattice, as faces,
    with m > 0: a span id of E outside F's basis, so its ray takes the
    per-pair Gram solve."""
    lat = system.lattice
    return next((e, f) for e, f in lat.covering
                if not set(system.face_data(lat.face_id[e]).span_ids)
                <= set(system.face_data(lat.face_id[f]).span_ids))


def test_edge_ray_without_orientation_names_pair():
    # the lifted vertex g that orients the ray is moved onto a span id of
    # E, so g lies in span(E).  On a pair with m > 0 the ray takes the Gram
    # solve, and <w, g> = det G_E |g - P_E g|^2 = 0 on the broken cone's
    # Gram table; the face data of the unchanged cone still pass their
    # certificates.  On a pair with m = 0, <w, g> is det G_F, and the same
    # fault leaves F's bordered pass one id short, naming F.  A cone system
    # of the broken cone would fail its dual check first
    lat, _ = faces_of(hypercube(2))
    system = ConeSystem(lift(hypercube(2)), lat)
    e, f = m_positive_pair(system)
    i, j = lat.face_id[e], lat.face_id[f]
    g = system.ray(i, j).g
    gens = list(system.cone.generators)
    gens[g] = gens[system.face_data(i).span_ids[0]]
    broken = system.cone._replace(generators=tuple(gens))
    with pytest.raises(InternalInvariantError) as err:
        edge_ray(broken, e, f, system.face_data(i), system.face_data(j),
                 gram=gram_table(broken), e_mask=lat.vertex_masks[i])
    assert str(err.value) == (
        f"edge ray of ({e}, {f}) is orthogonal to lifted vertex {g}: it has no orientation")
    e, f = next((e, f) for e, f in lat.covering if f.dim == 1)
    g = next(a for a in f.vertex_set if a not in e.vertex_set)
    gens = list(system.cone.generators)
    gens[g] = gens[e.vertex_set[0]]
    broken = system.cone._replace(generators=tuple(gens))
    with pytest.raises(InternalInvariantError) as err:
        cones.face_cone_data(f, gram_table(broken))
    assert str(err.value) == f"face {f}: span has 1 independent lifted vertices, expected 2"


def test_edge_ray_zero_vector_names_pair():
    # tables that give side > 0 with generators that give w = 0: on the
    # segment, g = (1, 1) replaced by a = (1, 0) gives
    # w = det G_E g - T[a][g] a = 1 (1, 0) - 1 (1, 0).  On the generators'
    # own tables |w|^2 = c * side rules that out, so edge_ray builds no w;
    # the direction, made on first read, finds gcd(w) = 0
    lat, by_set = faces_of(simplex(1))
    system = ConeSystem(lift(simplex(1)), lat)
    e, f = by_set[(0,)], by_set[(0, 1)]
    gens = system.cone.generators
    broken = system.cone._replace(generators=(gens[0], gens[0]))
    ray = edge_ray(broken, e, f, system.face_data(lat.face_id[e]),
                   system.face_data(lat.face_id[f]), gram=system.gram,
                   e_mask=lat.vertex_masks[lat.face_id[e]])
    with pytest.raises(InternalInvariantError) as err:
        ray.direction
    assert str(err.value) == f"edge ray of ({e}, {f}) is the zero vector"


def test_edge_ray_pointing_away_names_pair():
    # with T[g][g] zeroed, <w, g> = det G_E T[g][g] - <x, A_E^T g> is
    # negative: no Gram table gives that, since it is det G_E |g - P_E g|^2.
    # The pair has m > 0, so its ray takes the Gram solve; for m = 0,
    # <w, g> is the certified det G_F
    lat, _ = faces_of(hypercube(2))
    system = ConeSystem(lift(hypercube(2)), lat)
    e, f = m_positive_pair(system)
    g = system.ray(lat.face_id[e], lat.face_id[f]).g
    gram = [list(row) for row in system.gram]
    gram[g][g] = 0
    with pytest.raises(InternalInvariantError) as err:
        edge_ray(system.cone, e, f, system.face_data(lat.face_id[e]),
                 system.face_data(lat.face_id[f]),
                 gram=gram, e_mask=lat.vertex_masks[lat.face_id[e]])
    assert str(err.value) == f"edge ray of ({e}, {f}) points away from lifted vertex {g}"


def test_edge_ray_rejects_negative_slack(monkeypatch):
    # <w, y> = det G_E S[g][y] over E's dual face, so S >= 0, checked once
    # per run when the cone system is built, puts every ray in the
    # circledast cone of its E; a negative slack entry, here at g on a
    # normal of E's dual face, fails it, naming the vertex
    lat, _ = faces_of(hypercube(2))
    system = ConeSystem(lift(hypercube(2)), lat)
    e, f = next((e, f) for e, f in lat.covering if f.dim == 1)
    g = system.ray(lat.face_id[e], lat.face_id[f]).g
    k = dual_face_ids(system, lat.face_id[e])[0]
    slack = [list(row) for row in slack_table(system.cone)]
    slack[g][k] = -1
    monkeypatch.setattr(cones, "slack_table", lambda C: tuple(map(tuple, slack)))
    with pytest.raises(InternalInvariantError) as err:
        ConeSystem(system.cone, lat)
    assert str(err.value) == (
        f"vertex {{{g}}} lies outside facet normal {k} of the cone (slack -1): "
        "the edge rays at it would leave their circledast cones")


def test_edge_ray_zero_sign_names_pair(monkeypatch):
    # the pair's E has one span id outside F's basis (m = 1), so its sign
    # takes a minor, which the determinant patched after the system is
    # built makes zero
    lat, _ = faces_of(hypercube(2))
    system = ConeSystem(lift(hypercube(2)), lat)
    monkeypatch.setattr(cones, "bareiss_det", lambda rows: 0)
    e, f = lat.covering[-1]
    i, j = lat.face_id[e], lat.face_id[f]
    assert len(set(system.face_data(i).span_ids) - set(system.face_data(j).span_ids)) == 1
    with pytest.raises(InternalInvariantError) as err:
        system.ray(i, j)
    assert str(err.value) == f"incidence sign of ({e}, {f}) is zero"


def test_edge_ray_without_span_id_outside_e_names_pair():
    # hand-built face data: a "face" E holding every vertex of the triangle
    # with the data of the edge {0,1}, under the top; no span id of F lies
    # outside E, so there is no vertex to project (and no StopIteration)
    lat, by_set = faces_of(simplex(2))
    system = ConeSystem(lift(simplex(2)), lat)
    edge, top = by_set[(0, 1)], by_set[(0, 1, 2)]
    e = Face(vertex_set=(0, 1, 2), dim=1)
    with pytest.raises(InternalInvariantError) as err:
        edge_ray(system.cone, e, top, system.face_data(lat.face_id[edge]),
                 system.face_data(lat.face_id[top]), gram=system.gram, e_mask=0b111)
    assert str(err.value) == f"edge ray of ({e}, {top}): every span id of {top} lies in {e}"


def assert_orientation_identity(poly):
    """On every covering pair: the orientation, a permutation sign of F's
    basis coordinates times the sign of a minor when m > 0, is the k x k
    table determinant's sign; and every lifted vertex g of F outside E
    projects to a positive multiple of the ray (<w, g> > 0), with that
    sign.  Returns the number of pairs with m > 0."""
    lat = face_lattice(poly)
    system = ConeSystem(lift(poly), lat)
    gens, minors = system.cone.generators, 0
    for e, f in lat.covering:
        i, j = lat.face_id[e], lat.face_id[f]
        data_e, data_f = system.face_data(i), system.face_data(j)
        ray = system.ray(i, j)
        minors += bool(set(data_e.span_ids) - set(data_f.span_ids))
        for g in f.vertex_set:
            if g in e.vertex_set:
                continue
            w = vertex_projection(system.cone, data_e, g, system.gram)
            assert primitive_vector(w) == ray.direction, (poly.name, e, f, g)
            assert int_dot(w, gens[g]) > 0, (poly.name, e, f, g)
            assert table_orientation(data_e, data_f, g, system.gram) == ray.orientation, \
                (poly.name, e, f, g)
    return minors


@pytest.mark.parametrize("poly", [hypercube(6), cross_polytope(6),
                                  random_hull(random.Random(3), 5, 16)],
                         ids=["cube6", "cross6", "hull5"])
def test_orientation_is_the_table_determinant_sign(poly):
    # some pairs of each take a minor, so both branches are met
    assert assert_orientation_identity(poly) > 0


@settings(max_examples=20)
@given(st.integers(0, 2 ** 32), st.integers(2, 4), st.integers(0, 4))
def test_orientation_identity_on_random_hulls(seed, d, extra):
    assert_orientation_identity(random_hull(random.Random(seed), d, d + 2 + extra))


def test_projection_identities_on_tables(small_corpus):
    # w = det G_E (g - P_E g) for the first lifted vertex g of F outside E:
    # its primitive vector is the ray; <w, y> = det G_E S[g][y] for every y
    # in E's dual face (the a_i of E vanish there); <w, a> = 0 on span(E)
    # and <w, g> > 0; the random hulls have rational vertices
    rational = [random_hull(random.Random(seed), d, 9) for seed, d in ((1, 2), (2, 3), (3, 4))]
    for poly in list(small_corpus) + [hypercube(4), cross_polytope(4)] + rational:
        lat = face_lattice(poly)
        system = ConeSystem(lift(poly), lat)
        gens, slack = system.cone.generators, slack_table(system.cone)
        for e, f in lat.covering:
            data_e = system.face_data(lat.face_id[e])
            g = next(i for i in f.vertex_set if i not in e.vertex_set)
            w = tuple(data_e.gram_det * x for x in orthogonal_component(system.cone, e, gens[g]))
            assert all(x.denominator == 1 for x in w), (poly.name, e, f)
            assert primitive_vector(w) == \
                system.ray(lat.face_id[e], lat.face_id[f]).direction, (poly.name, e, f)
            for k in dual_face_ids(system, lat.face_id[e]):
                assert dot(w, system.cone.facet_normals[k]) == \
                    data_e.gram_det * slack[g][k], (poly.name, e, f)
            assert all(dot(w, gens[a]) == 0 for a in data_e.span_ids)
            assert dot(w, gens[g]) > 0


def test_edge_ray_matches_kernel_oracle(small_corpus):
    # the projected ray and its coordinate-sign orientation equal the
    # kernel vector A_F kappa, signed on g, and its sign sigma on every
    # covering pair; the random hull has rational vertices
    polys = list(small_corpus) + [hypercube(5), cross_polytope(5),
                                  random_hull(random.Random(5), 5, 10)]
    for poly in polys:
        lat = face_lattice(poly)
        system = ConeSystem(lift(poly), lat)
        for e, f in lat.covering:
            i, j = lat.face_id[e], lat.face_id[f]
            ray = system.ray(i, j)
            assert (ray.direction, ray.orientation) == kernel_edge_ray(
                system.cone, e, f, system.face_data(i), system.face_data(j)), (poly.name, e, f)


def test_tables_are_the_inner_products(small_corpus):
    # T = V V^T and S = V Y^T, with the facet masks read off S's zeros
    for poly in small_corpus:
        system = ConeSystem(lift(poly), face_lattice(poly))
        gens, normals = system.cone.generators, system.cone.facet_normals
        assert system.gram == tuple(tuple(dot(u, v) for v in gens) for u in gens)
        slack = slack_table(system.cone)
        assert slack == tuple(tuple(dot(y, v) for y in normals) for v in gens)
        assert all(s >= 0 for row in slack for s in row)
        assert cones.vertex_facet_masks(slack) == tuple(
            sum(1 << k for k, y in enumerate(normals) if dot(y, v) == 0) for v in gens)


def test_cone_system_keeps_only_what_pairs_read():
    # the slack table is read once, by vertex_facet_masks, and not kept;
    # faces with equal signs share one stored tuple
    system = ConeSystem(lift(pyramid_prism()), face_lattice(pyramid_prism()))
    assert set(vars(system)) == {"cone", "lattice", "gram", "dual_masks", "_face_data",
                                 "span_masks", "orientations"}
    signs = system.orientations
    assert len(set(map(id, signs))) == len(set(signs)) < len(signs)


def test_ray_intersection_is_one_dimensional(small_corpus):
    # the paper's construction: the edge ray is the one extreme ray of the
    # circledast cone of E orthogonal to the dual face of F
    for poly in list(small_corpus) + [hypercube(4), cross_polytope(4)]:
        lat = face_lattice(poly)
        system = ConeSystem(lift(poly), lat)
        circledast = {f: circledast_gens(system.cone, f) for f in lat.faces_by_id}
        for e, f in lat.covering:
            dual_f = dual_face_gens(system, lat.face_id[f])
            hits = [g for g in circledast[e] if all(dot(g, y) == 0 for y in dual_f)]
            assert hits == [system.ray(lat.face_id[e], lat.face_id[f]).direction], \
                (poly.name, e, f)


def test_positive_multiple_ratio_rejects():
    assert positive_multiple_ratio((0, 0), (0, 1)) is None
    assert positive_multiple_ratio((0, -2), (0, 1)) is None
    assert positive_multiple_ratio((1, 1), (0, 1)) is None
    assert positive_multiple_ratio((0, 3), (0, 1)) == 3


def test_dual_cone_of_no_generators():
    # the dual of the zero cone in R^0 is R^0, which has no extreme ray; with
    # no generator and no dimension the ambient space is unknown
    assert dual_cone([], 0) == ()
    with pytest.raises(InternalInvariantError) as err:
        dual_cone([])
    assert str(err.value) == "dual_cone needs generators or an explicit dimension"


def test_lift_of_a_flat_vertex_set_is_not_solid():
    # a Polytope record built by hand, two points in R^2: their lifted
    # vertices span a plane of R^3, so the cone is not solid
    flat = hypercube(2)._replace(vertices=((0, 0), (1, 0)), facets=())
    with pytest.raises(InternalInvariantError) as err:
        lift(flat)
    assert str(err.value) == "lifted cone is not solid"
