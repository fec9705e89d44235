"""Exact linear algebra: examples frozen from independent oracles, plus
hypothesis property tests against the oracle implementations."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import polyk.linalg as linalg
from polyk.errors import InternalInvariantError
from polyk.linalg import (
    IntEchelon,
    QMatrix,
    bareiss_det,
    cofactor_kernel_vector,
    coords_in_basis,
    det_sign,
    int_adjugate,
    int_dot,
    int_identity,
    int_mat_mul,
    permutation_sign,
    primitive_vector,
    rank,
    smith_normal_form,
)

from oracles import (
    coords_det_sign,
    dot,
    echelon_contains,
    kernel_basis,
    leibniz_det,
    oracle_rank,
    q_column,
    q_from_columns,
    q_from_rows,
    q_identity,
    q_mat_vec,
    q_matmul,
    q_zeros,
    solve_in_span,
)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def qm(rows):
    return q_from_rows(rows)


def matrix_strategy(max_rows=4, max_cols=4):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(rationals, min_size=c, max_size=c),
                min_size=r, max_size=r).map(qm)))


# --- rank ---

def test_rank_identity():
    assert rank(q_identity(3)) == 3


def test_rank_proportional_rows():
    assert rank(qm([[1, 2], [2, 4]])) == 1


def test_rank_triangle_boundary():
    d1 = qm([[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
    assert oracle_rank(d1.entries, 3) == 2
    assert rank(d1) == 2


def test_rank_empty_matrices():
    assert rank(QMatrix(0, 3, ())) == 0
    assert rank(QMatrix(3, 0, ((), (), ()))) == 0


@given(matrix_strategy())
def test_rank_matches_minor_oracle(m):
    assert rank(m) == oracle_rank(m.entries, m.cols)


# --- det_sign ---

def test_det_sign_identity():
    assert det_sign(q_identity(4)) == 1


def test_det_sign_swapped_columns():
    assert det_sign(qm([[0, 1], [1, 0]])) == -1


def test_det_sign_singular():
    assert det_sign(qm([[1, 2], [2, 4]])) == 0


def test_det_sign_empty():
    assert det_sign(QMatrix(0, 0, ())) == 1


def test_det_sign_non_square_rejected():
    with pytest.raises(InternalInvariantError):
        det_sign(qm([[1, 2, 3], [4, 5, 6]]))


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n).map(qm)))
def test_det_sign_matches_leibniz(m):
    d = leibniz_det(m.entries)
    assert det_sign(m) == (0 if d == 0 else (1 if d > 0 else -1))


@given(st.integers(2, 3).flatmap(lambda n: st.tuples(
    st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n))))
def test_det_sign_multiplicative(pair):
    a, b = qm(pair[0]), qm(pair[1])
    assert det_sign(q_matmul(a, b)) == det_sign(a) * det_sign(b)


# --- coords_in_basis ---

def test_coords_identity_basis():
    t = qm([[1, 2], [3, 4]])
    assert coords_in_basis(q_identity(2), t) == t


def test_coords_diagonal_scaling():
    b = qm([[2, 0], [0, 2]])
    t = q_from_columns([[1, 1]])
    x = coords_in_basis(b, t)
    assert q_column(x, 0) == (Fraction(1, 2), Fraction(1, 2))


def test_coords_segment_edge_system():
    # the 2x2 system of the segment covering pair (vertex 0, top): the edge
    # direction plus the lifted vertex against the top-face basis
    b = q_from_columns([[0, 1], [1, 0]])
    t = q_from_columns([[1, 0], [1, 1]])
    x = coords_in_basis(b, t)
    assert q_matmul(b, x) == t
    assert det_sign(x) == -1  # solved by hand: X = [[0,1],[1,1]]
    assert x == qm([[0, 1], [1, 1]])


def test_coords_dependent_basis_rejected():
    with pytest.raises(InternalInvariantError):
        coords_in_basis(qm([[1, 2], [2, 4]]), q_identity(2))


def test_coords_outside_span_rejected():
    b = q_from_columns([[1, 0, 0]])
    t = q_from_columns([[0, 1, 0]])
    with pytest.raises(InternalInvariantError):
        coords_in_basis(b, t)


@given(st.integers(1, 3).flatmap(lambda k: st.tuples(
    st.just(k),
    st.lists(st.lists(rationals, min_size=k, max_size=k), min_size=k, max_size=k),
    st.lists(st.lists(rationals, min_size=k, max_size=k), min_size=1, max_size=3))))
def test_coords_roundtrip(data):
    k, b_rows, x_cols = data
    b = qm(b_rows)
    if leibniz_det(b.entries) == 0:
        return
    x = q_from_columns(x_cols)
    t = q_matmul(b, x)
    solved = coords_in_basis(b, t)
    assert solved == x
    assert q_matmul(b, solved) == t


def test_solve_in_span_none_outside():
    b = q_from_columns([[1, 0, 0], [0, 1, 0]])
    assert solve_in_span(b, (0, 0, 1)) is None
    assert solve_in_span(b, (2, 3, 0)) == (Fraction(2), Fraction(3))


# --- kernel_basis ---

def test_kernel_identity_empty():
    assert kernel_basis(q_identity(3)).cols == 0


def test_kernel_zero_matrix():
    k = kernel_basis(q_zeros(2, 3))
    assert k.cols == 3


def test_kernel_row_sum():
    m = qm([[1, 1, 1]])
    k = kernel_basis(m)
    assert k.cols == 2
    for j in range(k.cols):
        assert q_mat_vec(m, q_column(k, j)) == (Fraction(0),)


@given(matrix_strategy())
def test_kernel_dimension_and_membership(m):
    k = kernel_basis(m)
    assert k.cols == m.cols - rank(m)
    for j in range(k.cols):
        assert all(x == 0 for x in q_mat_vec(m, q_column(k, j)))
    if k.cols:
        assert rank(k) == k.cols


# --- primitive vectors and integer helpers ---

def test_primitive_vector_scales():
    assert primitive_vector((Fraction(1, 2), Fraction(-3, 4))) == (2, -3)
    assert primitive_vector((4, 6)) == (2, 3)
    with pytest.raises(InternalInvariantError):
        primitive_vector((0, 0))


@given(st.lists(st.lists(st.integers(-7, 7), min_size=3, max_size=3), min_size=3, max_size=3))
def test_bareiss_matches_leibniz(rows):
    assert bareiss_det(rows) == leibniz_det(rows)


def test_int_adjugate_on_random_nonsingular_matrices():
    # entries in -1..1 make zero pivots common, so many need row swaps
    rng = random.Random(12)
    checked = swapped = 0
    for n in range(1, 9):
        for _ in range(25):
            M = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
            det = bareiss_det(M)
            if det == 0:
                continue
            adj, got = int_adjugate(M)
            assert got == det
            assert int_mat_mul(tuple(map(tuple, M)), adj) == tuple(
                tuple(det * x for x in row) for row in int_identity(n))
            for i in range(n):
                for j in range(n):
                    minor = [row[:j] + row[j + 1:] for k, row in enumerate(M) if k != i]
                    assert adj[j][i] == (-1) ** (i + j) * bareiss_det(minor)
            checked += 1
            swapped += any(bareiss_det([row[:k] for row in M[:k]]) == 0 for k in range(1, n))
    assert checked > 100 and swapped > 20


def test_int_adjugate_small_cases():
    assert int_adjugate([]) == ((), 1)
    assert int_adjugate([[0, 1], [1, 0]]) == (((0, -1), (-1, 0)), -1)
    assert int_adjugate([[2, 1], [3, 4]]) == (((4, -1), (-3, 2)), 5)


def test_int_adjugate_certificate_names_a_wrong_product(monkeypatch):
    # a dot product off by one fails M adj(M) = det(M) I, the check run
    # before the adjugate is returned
    monkeypatch.setattr(linalg, "int_dot", lambda u, v: sum(a * b for a, b in zip(u, v)) + 1)
    with pytest.raises(InternalInvariantError) as err:
        int_adjugate([[2, 1], [3, 4]])
    assert str(err.value) == "int_adjugate: M adj(M) != det(M) I"


@pytest.mark.parametrize("rows", [
    [[0]],
    [[1, 2], [2, 4]],
    [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
    [[0, 1, 0], [0, 2, 0], [1, 0, 1]],
    [[1, 0], [0, 1], [1, 1]],
])
def test_int_adjugate_rejects_singular_and_non_square(rows):
    with pytest.raises(InternalInvariantError, match="int_adjugate"):
        int_adjugate(rows)


@given(st.integers(0, 7).flatmap(lambda n: st.permutations(range(n))))
def test_permutation_sign_is_leibniz_det_of_permutation_matrix(perm):
    # column i of the matrix is the unit vector at row perm[i]
    n = len(perm)
    rows = [[int(perm[j] == i) for j in range(n)] for i in range(n)]
    assert permutation_sign(perm) == leibniz_det(rows)


@given(st.integers(2, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n - 1, max_size=n - 1)))
def test_cofactor_kernel_in_kernel(rows):
    n = len(rows[0])
    k = cofactor_kernel_vector(rows, n)
    if k is None:
        assert oracle_rank(rows, n) < n - 1
    else:
        for r in rows:
            assert sum(a * b for a, b in zip(r, k)) == 0


# --- fraction-free echelon form ---

@given(st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4), min_size=1, max_size=5),
       st.lists(st.integers(-5, 5), min_size=4, max_size=4))
def test_echelon_rank_and_span_match_oracle(rows, v):
    echelon = IntEchelon(rows)
    assert echelon.rank == oracle_rank(rows, 4)
    assert echelon_contains(echelon, v) == (oracle_rank(rows + [v], 4) == echelon.rank)


def test_echelon_keeps_first_independent_vectors():
    echelon = IntEchelon()
    kept = [echelon.add(v) for v in [(2, 4, 6), (1, 2, 3), (0, 0, 0), (0, 1, 1), (3, 7, 10)]]
    assert kept == [True, False, False, True, False]
    assert echelon.rank == 2


def _sign(x):
    return (x > 0) - (x < 0)


@given(st.integers(1, 5).flatmap(lambda k: st.integers(k, 6).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=k, max_size=k),
    st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k), min_size=k, max_size=k)))))
def test_gram_determinant_sign_matches_coordinate_oracle(data):
    # B C = A with C = U gives B^T A = (B^T B) U and det(B^T B) > 0, so
    # sign det(B^T A) = sign det U = the sign the rational solve finds
    b_cols, u = data
    k, n = len(b_cols), len(b_cols[0])
    assume(IntEchelon(b_cols).rank == k)
    det_u = bareiss_det(u)
    assume(det_u != 0)
    a_cols = [tuple(sum(b_cols[i][r] * u[i][j] for i in range(k)) for r in range(n))
              for j in range(k)]
    gram_sign = _sign(bareiss_det([[int_dot(x, y) for y in a_cols] for x in b_cols]))
    assert gram_sign == coords_det_sign(b_cols, a_cols, n) == _sign(det_u)


@given(st.integers(1, 5).flatmap(lambda k: st.integers(k, 6).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=k, max_size=k),
    st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=k - 1,
             max_size=k - 1),
    st.lists(st.integers(-4, 4), min_size=n, max_size=n)))))
def test_laplace_identity_for_incidence_signs(data):
    # det([e | A_E]^T A_F) = <e, A_F kappa> for the signed cofactor vector
    # kappa of M = A_E^T A_F (Laplace expansion along the first row), and
    # making the rows of M primitive keeps the sign of <e, A_F kappa>
    a_f, a_e, e = data
    k = len(a_f)

    def a_f_kappa(rows):
        kappa = cofactor_kernel_vector(rows, k) or (0,) * k
        return [int_dot(row, kappa) for row in zip(*a_f)]

    m = [[int_dot(a, b) for b in a_f] for a in a_e]
    det = bareiss_det([[int_dot(u, b) for b in a_f] for u in [e] + a_e])
    assert det == int_dot(e, a_f_kappa(m))
    primitive_rows = [primitive_vector(r) if any(r) else r for r in m]
    assert _sign(int_dot(e, a_f_kappa(primitive_rows))) == _sign(det)


# --- Smith normal form ---

def test_snf_identity():
    s = smith_normal_form(int_identity(3))
    assert s.diagonal == (1, 1, 1)


def test_snf_frozen_example():
    # |det| = 8 = 2 * 4; reduced by hand via elementary operations
    s = smith_normal_form([[2, 4], [6, 8]])
    assert s.diagonal == (2, 4)
    assert abs(bareiss_det([[2, 4], [6, 8]])) == 8


def test_snf_zero_matrix():
    s = smith_normal_form([[0, 0, 0], [0, 0, 0]])
    assert s.diagonal == (0, 0)


def test_snf_empty():
    s = smith_normal_form([])
    assert s.diagonal == ()


int_matrix_strategy = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r, max_size=r)))


@given(int_matrix_strategy)
def test_snf_invariants(mat):
    s = smith_normal_form(mat)
    rows, cols = len(mat), len(mat[0])
    assert int_mat_mul(int_mat_mul(s.U, tuple(tuple(r) for r in mat)), s.V) == s.D
    assert abs(leibniz_det(s.U)) == 1
    assert abs(leibniz_det(s.V)) == 1
    diag = s.diagonal
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x != 0]
    assert list(diag[:len(nonzero)]) == nonzero  # zeros trail
    assert all(nonzero[i + 1] % nonzero[i] == 0 for i in range(len(nonzero) - 1))
    assert all(s.D[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
    assert len(nonzero) == oracle_rank(mat, cols)


@given(int_matrix_strategy)
def test_snf_rank_agrees_with_rational_rank(mat):
    s = smith_normal_form(mat)
    assert sum(1 for x in s.diagonal if x != 0) == rank(q_from_rows(mat))


def test_snf_certificate_names_a_wrong_product(monkeypatch):
    # a product that is not D fails U @ M @ V = D
    monkeypatch.setattr(linalg, "int_mat_mul", lambda A, B: ())
    with pytest.raises(InternalInvariantError) as err:
        smith_normal_form([[2, 4], [6, 8]])
    assert str(err.value) == "smith_normal_form: U @ M @ V != D"


@pytest.mark.parametrize("mat, message", [
    ([[0, 0], [0, 1]], "smith_normal_form: zeros do not trail"),
    ([[2, 0], [0, 3]], "smith_normal_form: divisibility chain broken"),
], ids=["zeros-first", "no-divisibility"])
def test_snf_certificate_names_a_diagonal_that_is_not_smith(monkeypatch, mat, message):
    # with no pivot found the reduction stops at once, U = V = I and D = M,
    # so U @ M @ V = D holds and the diagonal of M is checked as it is
    monkeypatch.setattr(linalg, "_min_abs_pivot", lambda a, t, r, c: None)
    with pytest.raises(InternalInvariantError) as err:
        smith_normal_form(mat)
    assert str(err.value) == message


SHAPE_GUARDS = {
    "dot": (lambda: dot((1, 2), (1,)), "dot of length 2 with 1"),
    "qmatrix": (lambda: QMatrix(2, 1, ((1,),)), "QMatrix shape mismatch"),
    "from-columns": (lambda: q_from_columns([]),
                     "from_columns([]) needs an explicit row count"),
    "hstack": (lambda: qm([[1]]).hstack(qm([[1], [2]])), "hstack row mismatch"),
    "matmul": (lambda: q_matmul(qm([[1, 2]]), qm([[1, 2]])), "matmul shape mismatch"),
    "mat-vec": (lambda: q_mat_vec(qm([[1, 2]]), (1,)), "mat_vec shape mismatch"),
    "coords": (lambda: coords_in_basis(qm([[1]]), qm([[1], [2]])),
               "coords_in_basis: row count mismatch"),
    "int-mat-mul": (lambda: int_mat_mul(((1, 2),), ((1, 2),)), "int_mat_mul shape mismatch"),
    "bareiss": (lambda: bareiss_det([[1, 2]]), "bareiss_det needs a square matrix"),
    "cofactor-kernel": (lambda: cofactor_kernel_vector([[1, 0, 0]], 3),
                        "cofactor_kernel_vector: need exactly n-1 rows"),
    "snf-ragged": (lambda: smith_normal_form([[1, 2], [3]]), "smith_normal_form: ragged input"),
}


@pytest.mark.parametrize("name", sorted(SHAPE_GUARDS))
def test_shape_guards_name_the_operation(name):
    call, message = SHAPE_GUARDS[name]
    with pytest.raises(InternalInvariantError) as err:
        call()
    assert str(err.value) == message
