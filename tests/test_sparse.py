"""Sparse columns and unit-pivot elimination, against the dense Smith
normal form as the oracle: random small integer matrices, matrices with
torsion built as A diag(d) B with A and B unimodular, and unit entries
beside blocks without units; plus the replay certificate on a matrix
reduced by hand.  The sparse leftover is densified to compare it."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyk.errors import InternalInvariantError
from polyk.linalg import int_mat_mul, smith_normal_form
from polyk.sparse import check_unit_pivots, dense_matrix, unit_pivot_elimination

from oracles import sparse_columns


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
