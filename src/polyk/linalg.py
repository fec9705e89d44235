"""Exact integer and rational linear algebra.

The package computes on Python integers, and there is no floating point
anywhere; :class:`fractions.Fraction` holds only the input coordinates
(``qvec``), the facet offsets, and the dense rational matrices the tests'
oracles use.  This module provides the shared substrate: the integer
tools the hot paths and validation run on (dot products, primitive ray
generators, an incremental fraction-free echelon form for ranks and
greedy bases, Bareiss determinants, certified adjugates, cofactor
kernels) and Smith normal form over the integers.  ``rank``, ``det_sign``
and ``coords_in_basis`` on dense rational matrices are oracles no report
runs; ``QMatrix`` is only their argument type, with its shape check and
the ``hstack`` the solve needs.  The tests build, multiply and transpose
these matrices themselves (``tests/oracles.py``).

Homology reads its ranks off a certified acyclic matching of the sparse
columns (``polyk.sparse.acyclic_matching``); ``smith_normal_form`` takes
only a boundary matrix the matching cannot pin, densified, and serves the
tests as the oracle.  It re-verifies U @ M @ V = D densely before
returning.

Empty matrices (zero rows or zero columns) are legal in every operation and
behave as rank 0; the augmentation row of the cellular complex and the empty
face force these degenerate shapes through all code paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import InternalInvariantError

Vector = tuple[Fraction, ...]
IntVector = tuple[int, ...]
IntMatrix = tuple[IntVector, ...]

Scalar = int | Fraction


def qvec(values: Iterable) -> Vector:
    """Coerce an iterable of ints / Fractions / 'p/q' strings to a Vector."""
    return tuple(Fraction(x) for x in values)


def int_dot(u: Sequence[int], v: Sequence[int]) -> int:
    """Dot product of two integer vectors of the same length."""
    return sum(map(mul, u, v))


def is_zero_vector(v: Sequence[Scalar]) -> bool:
    return all(x == 0 for x in v)


def clear_denominators(v: Sequence[Scalar]) -> list[int]:
    """v times the lcm of its entries' denominators: an integer vector on the
    same ray (the zero vector stays zero)."""
    if all(type(x) is int for x in v):
        return list(v)
    fracs = [Fraction(x) for x in v]
    denom = lcm(*(x.denominator for x in fracs)) if fracs else 1
    return [int(x * denom) for x in fracs]


def primitive_vector(v: Sequence[Scalar]) -> IntVector:
    """Scale a nonzero rational vector by a positive rational to the unique
    primitive integer vector on the same ray (gcd of entries = 1)."""
    ints = clear_denominators(v)
    if all(x == 0 for x in ints):
        raise InternalInvariantError("zero vector has no primitive form")
    g = gcd(*ints)
    return tuple(x // g for x in ints)


@dataclass(frozen=True)
class QMatrix:
    """Dense rational matrix, row-major, immutable."""

    rows: int
    cols: int
    entries: tuple[Vector, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise InternalInvariantError("QMatrix shape mismatch")

    def hstack(self, other: "QMatrix") -> "QMatrix":
        if self.rows != other.rows:
            raise InternalInvariantError("hstack row mismatch")
        data = tuple(self.entries[i] + other.entries[i] for i in range(self.rows))
        return QMatrix(self.rows, self.cols + other.cols, data)


def _rref(M: QMatrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    a = [list(r) for r in M.entries]
    pivots: list[int] = []
    pr = 0
    for col in range(M.cols):
        pivot_row = next((i for i in range(pr, M.rows) if a[i][col] != 0), None)
        if pivot_row is None:
            continue
        a[pr], a[pivot_row] = a[pivot_row], a[pr]
        inv = 1 / a[pr][col]
        a[pr] = [x * inv for x in a[pr]]
        for i in range(M.rows):
            if i != pr and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[pr])]
        pivots.append(col)
        pr += 1
        if pr == M.rows:
            break
    return a, pivots


def rank(M: QMatrix) -> int:
    """Rank over the rationals; 0 for an empty matrix."""
    if M.rows == 0 or M.cols == 0:
        return 0
    return len(_rref(M)[1])


def det_sign(M: QMatrix) -> int:
    """Sign of det(M) in {-1, 0, +1}, by exact Gaussian elimination.

    The 0x0 determinant is the empty product, sign +1.
    """
    if M.rows != M.cols:
        raise InternalInvariantError(f"det_sign of non-square {M.rows}x{M.cols} matrix")
    n = M.rows
    a = [list(r) for r in M.entries]
    sign = 1
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            sign = -sign
        if a[col][col] < 0:
            sign = -sign
        for i in range(col + 1, n):
            if a[i][col] != 0:
                f = a[i][col] / a[col][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return sign


def coords_in_basis(B: QMatrix, T: QMatrix) -> QMatrix:
    """Solve B @ X = T exactly, where the columns of B are independent and
    every column of T lies in their span.

    Violations of either precondition signal a geometry bug upstream and
    raise :class:`InternalInvariantError`.
    """
    if B.rows != T.rows:
        raise InternalInvariantError("coords_in_basis: row count mismatch")
    aug = B.hstack(T)
    a, pivots = _rref(aug)
    if len([p for p in pivots if p < B.cols]) != B.cols:
        raise InternalInvariantError("coords_in_basis: basis columns are dependent")
    if any(p >= B.cols for p in pivots):
        bad = next(p for p in pivots if p >= B.cols)
        raise InternalInvariantError(
            f"coords_in_basis: target column {bad - B.cols} is outside span of basis")
    data = tuple(tuple(a[i][B.cols + j] for j in range(T.cols)) for i in range(B.cols))
    return QMatrix(B.cols, T.cols, data)


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------

def int_matrix(rows: Sequence[Sequence[int]]) -> IntMatrix:
    return tuple(tuple(int(x) for x in r) for r in rows)


def int_identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def int_mat_mul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    if A and B and len(A[0]) != len(B):
        raise InternalInvariantError("int_mat_mul shape mismatch")
    inner = len(B)
    cols = len(B[0]) if B else 0
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(inner)) for j in range(cols))
        for i in range(len(A)))


class IntEchelon:
    """Row echelon form of integer vectors, grown one vector at a time.

    Fraction-free: a vector w is reduced against each kept row r, with pivot
    column c, by w <- r[c] * w - w[c] * r.  That clears w[c] and leaves the
    earlier pivot columns clear, because every kept row is zero on the pivots
    kept before it.  A nonzero remainder is kept, divided by the gcd of its
    entries so that the entries stay small, with its first nonzero column as
    pivot.  Each step multiplies w by a nonzero integer and subtracts a
    combination of the offered vectors, so w is independent of the kept rows
    iff its remainder is nonzero: the kept rows number the rank, and v lies in
    their span iff its remainder is zero.
    """

    def __init__(self, vectors: Iterable[Sequence[int]] = ()):
        self._rows: list[tuple[int, list[int]]] = []  # (pivot column, row)
        for v in vectors:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def remainder(self, v: Sequence[int]) -> list[int]:
        w = list(v)
        for c, row in self._rows:
            x = w[c]
            if x:
                p = row[c]
                w = [p * a - x * b for a, b in zip(w, row)]
        return w

    def add(self, v: Sequence[int]) -> bool:
        """Keep v if it is independent of the kept rows; say whether it was."""
        w = self.remainder(v)
        pivot = next((c for c, x in enumerate(w) if x), None)
        if pivot is None:
            return False
        g = gcd(*w)
        self._rows.append((pivot, [x // g for x in w]))
        return True


def first_independent(vectors: Iterable[Sequence[int]], n: int) -> tuple[list[int], IntEchelon]:
    """Indices of the first vectors, in order, that are independent of the
    ones chosen before them, up to n of them, and the echelon form that chose
    them; its kept rows span exactly the chosen vectors."""
    echelon = IntEchelon()
    chosen: list[int] = []
    for i, v in enumerate(vectors):
        if len(chosen) == n:
            break
        if echelon.add(v):
            chosen.append(i)
    return chosen, echelon


def bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise InternalInvariantError("bareiss_det needs a square matrix")
    if n == 0:
        return 1
    a = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def int_adjugate(rows: Sequence[Sequence[int]]) -> tuple[IntMatrix, int]:
    """(adj M, det M) of a nonsingular square integer matrix M, by one
    fraction-free Gauss-Jordan pass on [M | I].

    Step k sets each row i != k to (p a_i - a_ik a_k) / p', with p = a_kk
    and p' the pivot of the step before (1 at the start); every division is
    exact (Bareiss 1968, by Sylvester's identity), since each entry is a
    minor of the matrix the pass runs on.  A zero pivot is swapped with the
    first nonzero entry below it; the rows from k down have had the same
    steps, so the pass is the one on PM for the permutation P of the swaps.
    It ends at [det(PM) I | det(PM) M^-1], and sign(P) det(PM) = det M, so
    adj M = sign(P) times the right half.  No nonzero entry below a pivot
    means M is singular, an internal error.  The certificate
    M adj(M) = det(M) I is checked before returning.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise InternalInvariantError("int_adjugate needs a square matrix")
    a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    sign, prev = 1, 1
    for k in range(n):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                raise InternalInvariantError(f"int_adjugate: singular {n}x{n} matrix")
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        p, pivot_row = a[k][k], a[k]
        for i in range(n):
            if i != k:
                x = a[i][k]
                a[i] = [(p * u - x * v) // prev for u, v in zip(a[i], pivot_row)]
        prev = p
    det = sign * prev
    adj = tuple(tuple(sign * x for x in row[n:]) for row in a)
    if any(int_dot(r, col) != (det if i == j else 0)
           for i, r in enumerate(rows) for j, col in enumerate(zip(*adj))):
        raise InternalInvariantError("int_adjugate: M adj(M) != det(M) I")
    return adj, det


def permutation_sign(perm: Sequence[int]) -> int:
    """The sign of the permutation i -> perm[i] of range(len(perm)): each
    cycle of length l is l - 1 transpositions."""
    sign, seen = 1, [False] * len(perm)
    for start in range(len(perm)):
        if not seen[start]:
            seen[start] = True
            i = perm[start]
            while i != start:
                seen[i] = True
                i = perm[i]
                sign = -sign
    return sign


def cofactor_kernel_vector(rows: Sequence[Sequence[int]], n: int) -> IntVector | None:
    """Kernel generator of an (n-1) x n integer matrix of full row rank.

    The i-th component is (-1)^i times the maximal minor omitting column i,
    so the result is integral and spans the kernel; returns None when the
    rows have rank < n-1 (all minors vanish).  It satisfies
    det([x; M]) = <x, kappa> for any top row x (Laplace expansion).  The
    brute-force ``dual_cone`` and the tests' oracles use it; the double
    description no longer does (its starting cone is one ``int_adjugate``),
    nor do the edge rays and incidence signs.
    """
    if len(rows) != n - 1:
        raise InternalInvariantError("cofactor_kernel_vector: need exactly n-1 rows")
    comps = []
    for i in range(n):
        minor = [[r[j] for j in range(n) if j != i] for r in rows]
        d = bareiss_det(minor)
        comps.append(d if i % 2 == 0 else -d)
    if all(c == 0 for c in comps):
        return None
    return tuple(comps)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

class SNFResult(NamedTuple):
    """U @ M @ V = D with U, V unimodular and D = diag(invariant factors)."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    diagonal: IntVector


def _min_abs_pivot(a: list[list[int]], t: int, r: int, c: int) -> tuple[int, int] | None:
    best: tuple[int, int] | None = None
    best_val = 0
    for i in range(t, r):
        for j in range(t, c):
            v = abs(a[i][j])
            if v != 0 and (best is None or v < best_val):
                best, best_val = (i, j), v
                if v == 1:
                    return best
    return best


def smith_normal_form(mat: Sequence[Sequence[int]]) -> SNFResult:
    """Smith normal form over the integers.

    Elementary row/column reduction with pivoting on the minimal nonzero
    absolute value; adequate for desk-scale matrices.  The decomposition
    U @ M @ V = D is re-verified before returning.
    """
    r = len(mat)
    c = len(mat[0]) if r else 0
    if any(len(row) != c for row in mat):
        raise InternalInvariantError("smith_normal_form: ragged input")
    a = [[int(x) for x in row] for row in mat]
    U = [list(row) for row in int_identity(r)]
    V = [list(row) for row in int_identity(c)]

    def row_op(i: int, k: int, q: int) -> None:  # row_i -= q * row_k
        a[i] = [x - q * y for x, y in zip(a[i], a[k])]
        U[i] = [x - q * y for x, y in zip(U[i], U[k])]

    def col_op(j: int, k: int, q: int) -> None:  # col_j -= q * col_k
        for row in a:
            row[j] -= q * row[k]
        for row in V:
            row[j] -= q * row[k]

    def swap_rows(i: int, k: int) -> None:
        a[i], a[k] = a[k], a[i]
        U[i], U[k] = U[k], U[i]

    def swap_cols(j: int, k: int) -> None:
        for row in a:
            row[j], row[k] = row[k], row[j]
        for row in V:
            row[j], row[k] = row[k], row[j]

    t = 0
    while t < min(r, c):
        pos = _min_abs_pivot(a, t, r, c)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            # clear column t below the pivot
            for i in range(t + 1, r):
                if a[i][t] != 0:
                    row_op(i, t, a[i][t] // a[t][t])
            # a leftover means the pivot did not divide; it is now smaller
            leftover = next((i for i in range(t + 1, r) if a[i][t] != 0), None)
            if leftover is not None:
                swap_rows(t, leftover)
                continue
            for j in range(t + 1, c):
                if a[t][j] != 0:
                    col_op(j, t, a[t][j] // a[t][t])
            leftover = next((j for j in range(t + 1, c) if a[t][j] != 0), None)
            if leftover is not None:
                swap_cols(t, leftover)
                continue
            # enforce divisibility of the remaining block by the pivot
            bad = next(((i, j) for i in range(t + 1, r) for j in range(t + 1, c)
                        if a[i][j] % a[t][t] != 0), None)
            if bad is None:
                break
            row_op(t, bad[0], -1)  # pull the offending row up, then re-reduce
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            U[t] = [-x for x in U[t]]
        t += 1

    D = int_matrix(a)
    Ut, Vt = int_matrix(U), int_matrix(V)
    if int_mat_mul(int_mat_mul(Ut, int_matrix(mat)), Vt) != D:
        raise InternalInvariantError("smith_normal_form: U @ M @ V != D")
    diag = tuple(a[i][i] for i in range(min(r, c)))
    if any(diag[i] != 0 and diag[i - 1] == 0 for i in range(1, len(diag))):
        raise InternalInvariantError("smith_normal_form: zeros do not trail")
    if any(diag[i - 1] != 0 and diag[i] % diag[i - 1] != 0 for i in range(1, len(diag)) if diag[i] != 0):
        raise InternalInvariantError("smith_normal_form: divisibility chain broken")
    return SNFResult(U=Ut, D=D, V=Vt, diagonal=diag)
