"""Sparse columns and the acyclic matching homology reads its ranks off.

The matching: a triangle collapsed by hand, perfect on the acceptance
corpus, cubes and cross-polytopes of dimension 5 and 6 and a 6-dimensional
random hull, one fault injected per check of its certificate, and per map
the same rank as the unit-pivot oracle.  The unit-pivot oracle itself, against the dense
Smith normal form: random small integer matrices, matrices with torsion
built as A diag(d) B with A and B unimodular, and unit entries beside
blocks without units; plus the replay certificate on a matrix reduced by
hand.  The sparse leftover is densified to compare it."""

import random
from functools import cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyk.cellular import build_complex, trivialize
from polyk.cones import ConeSystem, lift
from polyk.corpus import acceptance_corpus, cross_polytope, hypercube, random_hull
from polyk.errors import InternalInvariantError
from polyk.linalg import int_mat_mul, smith_normal_form
from polyk.polytope import face_lattice
from polyk.sparse import acyclic_matching, check_matching, dense_matrix

from oracles import check_unit_pivots, sparse_columns, unit_pivot_elimination


def densified(elimination):
    """The pivots and the dense leftover of ``unit_pivot_elimination``."""
    pivots, leftover, rows = elimination
    return pivots, dense_matrix(leftover, rows)


def unit_pivot_factors(mat):
    """The unit-pivot rank as ones, then the dense SNF of the leftover."""
    rows, cols = len(mat), len(mat[0]) if mat else 0
    pivots, leftover = densified(unit_pivot_elimination(sparse_columns(mat, rows, cols), rows))
    assert len(leftover) == rows - len(pivots)
    assert all(len(r) == cols - len(pivots) for r in leftover)
    return (1,) * len(pivots) + smith_normal_form(leftover).diagonal


def small_matrices(max_dim=8, entries=st.integers(-3, 3)):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(st.lists(entries, min_size=c, max_size=c),
                               min_size=r, max_size=r)))


def unimodular(n, ops):
    """Identity with ``ops`` elementary column operations (t, s, q) applied,
    each adding q times column s to a different column t."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for t, s, q in ops:
        if n > 1 and t % n != s % n:
            for row in m:
                row[t % n] += q * row[s % n]
    return m


elementary_ops = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(-2, 2)),
                          max_size=12)


@st.composite
def torsion_matrices(draw):
    """A diag(d) B with A, B unimodular and d drawn from 0, 1, 2, 3, 6, 12."""
    r, c = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    d = draw(st.lists(st.sampled_from([0, 1, 2, 3, 6, 12]),
                      min_size=min(r, c), max_size=min(r, c)))
    diag = [[d[i] if i == j else 0 for j in range(c)] for i in range(r)]
    a, b = unimodular(r, draw(elementary_ops)), unimodular(c, draw(elementary_ops))
    return [list(row) for row in int_mat_mul(int_mat_mul(a, diag), b)]


@st.composite
def unit_beside_non_units(draw):
    """diag(I_k, N) with no unit in N, rows and columns shuffled."""
    k = draw(st.integers(1, 4))
    n_r, n_c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n = draw(st.lists(st.lists(st.sampled_from([0, 2, -2, 3, -3, 6]),
                               min_size=n_c, max_size=n_c), min_size=n_r, max_size=n_r))
    mat = [[int(i == j) for j in range(k)] + [0] * n_c for i in range(k)]
    mat += [[0] * k + row for row in n]
    rows = draw(st.permutations(range(k + n_r)))
    cols = draw(st.permutations(range(k + n_c)))
    return [[mat[i][j] for j in cols] for i in rows]


def test_unit_pivot_unit_beside_non_unit():
    pivots, leftover = densified(unit_pivot_elimination(sparse_columns([[1, 0], [0, 2]], 2, 2), 2))
    assert pivots == ((0, 0),)
    assert leftover == ((2,),)
    assert unit_pivot_factors([[1, 0], [0, 2]]) == smith_normal_form([[1, 0], [0, 2]]).diagonal


def test_unit_pivot_no_unit_entry_left_whole():
    # invariant factor 1 without any unit entry: all of it goes to the SNF
    assert densified(unit_pivot_elimination(sparse_columns([[2, 3]], 1, 2), 1)) == ((), ((2, 3),))
    assert unit_pivot_factors([[2, 3]]) == (1,)


@given(small_matrices())
def test_unit_pivot_factors_match_snf(mat):
    assert unit_pivot_factors(mat) == smith_normal_form(mat).diagonal


@given(small_matrices(entries=st.sampled_from([0, 0, 0, 1, -1, 2])))
def test_unit_pivot_factors_match_snf_sparse(mat):
    assert unit_pivot_factors(mat) == smith_normal_form(mat).diagonal


@given(torsion_matrices())
def test_unit_pivot_factors_match_snf_with_torsion(mat):
    assert unit_pivot_factors(mat) == smith_normal_form(mat).diagonal


@given(unit_beside_non_units())
def test_unit_pivot_factors_match_snf_beside_non_units(mat):
    pivots, _, _ = unit_pivot_elimination(sparse_columns(mat, len(mat), len(mat[0])), len(mat))
    assert len(pivots) >= sum(1 for row in mat for x in row if x in (1, -1))
    assert unit_pivot_factors(mat) == smith_normal_form(mat).diagonal


def test_unit_pivot_empty_shapes():
    assert densified(unit_pivot_elimination([], 0)) == ((), ())
    assert densified(unit_pivot_elimination([{}, {}], 0)) == ((), ())
    assert densified(unit_pivot_elimination([], 3)) == ((), ((), (), ()))
    assert densified(unit_pivot_elimination([{}, {1: 1}], 2)) == (((1, 1),), ((0,),))


# the triangle's D_1 reduced by hand: pivot (0, 0) with u = -1 takes
# col_2 += col_0, pivot (1, 1) with u = -1 takes col_2 += col_1, and
# col_2 is then zero, leaving the 1 x 1 zero block on row 2 and column 2;
# the replay stores that zero, the elimination does not
TRIANGLE = sparse_columns([[-1, 0, 1], [1, -1, 0], [0, 1, -1]], 3, 3)
TRIANGLE_OPS = [(2, 0, 1), (2, 1, 1)]
TRIANGLE_PIVOTS = [(0, 0), (1, 1)]


def test_unit_pivot_triangle_by_hand():
    assert densified(unit_pivot_elimination(TRIANGLE, 3)) == (tuple(TRIANGLE_PIVOTS), ((0,),))
    assert unit_pivot_elimination(TRIANGLE, 3)[1:] == ([{}], 1)
    check_unit_pivots(TRIANGLE, 3, TRIANGLE_OPS, TRIANGLE_PIVOTS, sparse_columns(((0,),), 1, 1))


@pytest.mark.parametrize("ops, pivots, leftover, message", [
    ([(2, 0, 2), (2, 1, 1)], TRIANGLE_PIVOTS, ((0,),), "outside the triangular shape"),
    ([(2, 0, 1)], TRIANGLE_PIVOTS, ((0,),), "outside the triangular shape"),
    ([(2, 0, 1), (2, 1, 1)], [(1, 1), (0, 0)], ((0,),), "outside the triangular shape"),
    ([(2, 0, 1), (2, 1, 1)], TRIANGLE_PIVOTS, ((1,),), "leftover differs"),
    ([(2, 2, 1)], TRIANGLE_PIVOTS, ((0,),), "adds a column to itself"),
    ([(2, 0, 1), (2, 1, 1)], [(0, 0), (0, 1)], ((0,),), "share a row or a column"),
], ids=["wrong-multiplier", "missing-step", "pivot-order", "leftover", "self-add", "shared-row"])
def test_unit_pivot_certificate_rejects(ops, pivots, leftover, message):
    with pytest.raises(InternalInvariantError, match=message):
        check_unit_pivots(TRIANGLE, 3, ops, pivots, sparse_columns(leftover, 1, 1))


def test_unit_pivot_certificate_rejects_non_unit_pivot():
    with pytest.raises(InternalInvariantError, match="is not a unit"):
        check_unit_pivots([{0: 2}], 1, [], [(0, 0)], ())


def test_sparse_columns_checks_shape():
    assert sparse_columns([[0, 2], [1, 0]], 2, 2) == [{1: 1}, {0: 2}]
    with pytest.raises(InternalInvariantError):
        sparse_columns([[0, 2], [1]], 2, 2)
    with pytest.raises(InternalInvariantError):
        sparse_columns([[0, 2]], 2, 2)


# --- the acyclic matching ---

@cache
def complexes(name):
    """The cellular complexes of a named group of polytopes, built once."""
    if name == "corpus":
        polys = acceptance_corpus(20240)
    else:
        polys = [{"cube5": lambda: hypercube(5), "cross5": lambda: cross_polytope(5),
                  "cube6": lambda: hypercube(6), "cross6": lambda: cross_polytope(6),
                  "hull6": lambda: random_hull(random.Random(3), 6, 24)}[name]()]
    out = []
    for poly in polys:
        L = face_lattice(poly)
        out.append(build_complex(trivialize(L), ConeSystem(lift(poly), L)))
    return out


# the triangle's augmented complex: empty face; vertices 0, 1, 2; edges
# (0,1), (0,2), (1,2); the triangle
TRIANGLE_MAPS = ([{0: 1}, {0: 1}, {0: 1}],
                 [{0: -1, 1: 1}, {0: -1, 2: 1}, {1: -1, 2: 1}],
                 [{0: 1, 1: -1, 2: 1}])


def test_matching_triangle_by_hand():
    # every edge is free below the triangle; the first in takes it.  That
    # frees vertices 0 and 1 (in that order) below edges (0,2) and (1,2),
    # and the empty face last has vertex 2 as its one live coface
    assert acyclic_matching(TRIANGLE_MAPS, (1, 3, 3, 1)) == (((0, 2),), ((0, 1), (1, 2)), ((0, 0),))


@pytest.mark.parametrize("name", ["corpus", "cube5", "cross5", "cube6", "cross6", "hull6"])
def test_matching_has_no_critical_cell(name):
    # hull6 is random_hull(Random(3), 6, 24), where a last-in-first-out
    # queue leaves critical cells
    for x in complexes(name):
        pairs = acyclic_matching(x.columns, x.f_vector)
        assert 2 * sum(map(len, pairs)) == sum(x.f_vector)


@pytest.mark.parametrize("name", ["corpus", "cube5", "cross5"])
def test_matching_rank_matches_unit_pivot_oracle(name):
    for x in complexes(name):
        pairs = acyclic_matching(x.columns, x.f_vector)
        for j, cols in enumerate(x.columns):
            pivots, leftover, rows = unit_pivot_elimination(cols, x.f_vector[j])
            rest = smith_normal_form(dense_matrix(leftover, rows)).diagonal if any(leftover) else ()
            assert len(pairs[j]) == len(pivots) + sum(1 for d in rest if d)


def cube_matching():
    """The 5-cube's maps and matching, as lists to inject faults into."""
    x = complexes("cube5")[0]
    pairs = acyclic_matching(x.columns, x.f_vector)
    return [list(cols) for cols in x.columns], [list(ps) for ps in pairs]


def test_matching_certificate_rejects_non_unit_entry():
    maps, pairs = cube_matching()
    r, c = pairs[2][0]
    maps[2][c] = {**maps[2][c], r: 2}
    with pytest.raises(InternalInvariantError, match=(
            rf"^acyclic matching: D_2 entry \(row {r}, column {c}\) = 2 is not a unit$")):
        check_matching(maps, pairs)


def test_matching_certificate_rejects_a_row_outside_its_column():
    # a pair whose row is not in its column's support reads the entry 0;
    # on cube5 every cell is matched, so such a pair is caught there as a
    # cell matched twice or a block that is not triangular, and only a map
    # built by hand leaves the unit test to decide
    with pytest.raises(InternalInvariantError, match=(
            r"^acyclic matching: D_0 entry \(row 1, column 0\) = 0 is not a unit$")):
        check_matching([[{0: 1}]], [[(1, 0)]])


def test_matching_certificate_rejects_row_matched_twice():
    maps, pairs = cube_matching()
    (r, _), (_, c) = pairs[2][:2]
    pairs[2][1] = (r, c)
    with pytest.raises(InternalInvariantError,
                       match=rf"^acyclic matching: D_2 row {r} is matched twice$"):
        check_matching(maps, pairs)


def swap_breaking_triangularity(maps, pairs):
    """(j, l, k) for pairs l < k of D_j whose swap leaves exactly one
    column meeting an earlier row: c_l, now at k, on r_k.  So c_l meets
    r_k, and no pair between them has a column meeting r_k or a row that
    c_l meets."""
    for j, ps in enumerate(pairs):
        for k, (r_k, _) in enumerate(ps):
            # the last pair before k whose column meets r_k
            l = max((l for l in range(k) if r_k in maps[j][ps[l][1]]), default=None)
            if l is not None and not any(r in maps[j][ps[l][1]] for r, _ in ps[l + 1:k]):
                return j, l, k
    raise AssertionError("no such pair of pairs")


def test_matching_certificate_rejects_swapped_pairs():
    maps, pairs = cube_matching()
    j, l, k = swap_breaking_triangularity(maps, pairs)
    (r, c), (r_k, c_k) = pairs[j][l], pairs[j][k]
    pairs[j][l], pairs[j][k] = (r_k, c_k), (r, c)
    with pytest.raises(InternalInvariantError, match=(
            rf"^acyclic matching: D_{j} column {c} is nonzero on row {r_k} of the earlier "
            rf"pair \(row {r_k}, column {c_k}\): the matched block is not triangular$")):
        check_matching(maps, pairs)
