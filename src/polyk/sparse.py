"""Sparse integer matrices, stored as columns, and their reduction by unit
pivots.

A column is a dict {row: entry} of its nonzero entries.  Boundary matrices
of polytopes have few nonzeros per column, all +-1, so the chain complex
keeps them in this form, and the products and eliminations homology needs
run on these columns in time that follows the nonzeros rather than the full
shape.  ``dense_matrix`` builds the full shape, for a printed matrix or a
nonzero leftover only.

``unit_pivot_elimination`` reduces a matrix M by unimodular column
operations on +-1 pivots only (Kaczynski, Mrozek & Slusarek 1998; Dumas,
Heckenbach, Saunders & Welker 2003), so that M ~ diag(I_r, N) after r pivots
and the invariant factors of M are r ones followed by those of the leftover
N, returned as sparse columns too.  ``check_unit_pivots`` certifies that by
replaying the recorded operations, and only a nonzero N is densified
(``dense_matrix``) for ``linalg.smith_normal_form``.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InternalInvariantError
from .linalg import IntMatrix

SparseColumn = dict[int, int]  # row index -> nonzero entry


def dense_matrix(columns: Sequence[SparseColumn], rows: int) -> IntMatrix:
    """The rows x len(columns) dense matrix of sparse columns."""
    out = [[0] * len(columns) for _ in range(rows)]
    for j, col in enumerate(columns):
        for i, x in col.items():
            out[i][j] = x
    return tuple(tuple(r) for r in out)


def _leftover(cols: Sequence[SparseColumn], pivots: Sequence[tuple[int, int]],
              rows: int) -> list[SparseColumn]:
    """The block of ``cols`` on the rows and columns without a pivot, in
    index order, as the columns of its nonzero entries: a stored zero is
    dropped."""
    pivot_rows = {r for r, _ in pivots}
    pivot_cols = {c for _, c in pivots}
    position = {i: k for k, i in enumerate(i for i in range(rows) if i not in pivot_rows)}
    return [{position[i]: x for i, x in col.items() if x and i in position}
            for j, col in enumerate(cols) if j not in pivot_cols]


def unit_pivot_elimination(
        columns: Sequence[SparseColumn],
        rows: int) -> tuple[tuple[tuple[int, int], ...], list[SparseColumn], int]:
    """Reduce a sparse integer matrix M (``rows`` rows, the given columns)
    by pivoting on entries +-1 only (Kaczynski, Mrozek & Slusarek 1998).
    Returns the pivots (row, column) in the order taken, then the block N
    left on the other rows and columns, in index order, as sparse columns,
    and its row count.

    Columns are visited in index order, in passes, until a pass takes no
    pivot.  A column c with a unit entry u = M[r, c] becomes a pivot, with r
    the unit's row that has the fewest nonzeros (to limit fill): every other
    column t with M[r, t] != 0 gets col_t -= (M[r, t] * u) * col_c, which
    clears row r outside column c since u * u = 1, and row r and column c
    drop out.

    Identity: each step adds an integer multiple of one column to another,
    a unimodular column operation, so M V = M' with V unimodular.  Take the
    pivot rows and columns in the order taken, then the others.  Pivot row
    r_k was cleared from every column still in play at step k, which takes
    in every later pivot column and every non-pivot column, and no later
    step puts an entry back, since later pivot columns are zero there.  So
    M' = [[T, 0], [X, N]] with T lower triangular with units on its
    diagonal, hence unimodular.  Unimodular row operations (T^-1 on the
    pivot rows, then clearing X) give M ~ diag(I_r, N) for r pivots: the
    invariant factors of M are r ones followed by those of N.  Before
    returning, ``check_unit_pivots`` certifies this shape.
    """
    cols = [dict(c) for c in columns]
    in_row: list[set[int]] = [set() for _ in range(rows)]
    for j, col in enumerate(cols):
        for i in col:
            in_row[i].add(j)
    pivots: list[tuple[int, int]] = []
    ops: list[tuple[int, int, int]] = []  # (target, source, multiplier)
    pending = list(range(len(cols)))
    while pending:
        waiting = []
        for c in pending:
            col = cols[c]
            r = None
            for i, x in col.items():
                if (x == 1 or x == -1) and (r is None or len(in_row[i]) < len(in_row[r])):
                    r = i
            if r is None:
                if col:
                    waiting.append(c)
                continue
            u = col[r]
            for i in col:
                in_row[i].discard(c)
            targets, in_row[r] = in_row[r], set()
            for t in targets:
                target = cols[t]
                q = -target[r] * u
                for i, x in col.items():
                    y = target.get(i, 0) + q * x
                    if y:
                        if i not in target:
                            in_row[i].add(t)
                        target[i] = y
                    else:
                        del target[i]
                        in_row[i].discard(t)
                ops.append((t, c, q))
            pivots.append((r, c))
        if len(waiting) == len(pending):
            break
        pending = waiting
    leftover = _leftover(cols, pivots, rows)
    check_unit_pivots(columns, rows, ops, pivots, leftover)
    return tuple(pivots), leftover, rows - len(pivots)


def check_unit_pivots(columns: Sequence[SparseColumn], rows: int,
                      ops: Sequence[tuple[int, int, int]],
                      pivots: Sequence[tuple[int, int]],
                      leftover: Sequence[SparseColumn]) -> None:
    """Certificate of ``unit_pivot_elimination``: replay the column
    operations (target, source, multiplier) on fresh copies of the original
    columns, and raise unless the result M' has the shape its identity
    needs: pivots in distinct rows and columns, a unit at each pivot
    (r_k, c_k), no entry in row r_k on a
    non-pivot column or on a pivot column taken after step k, and the
    sparse columns ``leftover`` on the other rows and columns, where a zero
    the replay stores does not count as an entry."""
    replayed = [dict(c) for c in columns]
    for t, s, q in ops:
        if t == s:
            raise InternalInvariantError("unit pivots: a column operation adds a column to itself")
        target = replayed[t]
        for i, x in replayed[s].items():
            target[i] = target.get(i, 0) + q * x
    last = len(pivots)  # the step of a row or column without a pivot
    step_of_row = {r: k for k, (r, _) in enumerate(pivots)}
    step_of_col = {c: k for k, (_, c) in enumerate(pivots)}
    if len(step_of_row) != last or len(step_of_col) != last:
        raise InternalInvariantError("unit pivots: two pivots share a row or a column")
    for j, col in enumerate(replayed):
        step = step_of_col.get(j, last)
        for i, x in col.items():
            if x and step > step_of_row.get(i, last):
                raise InternalInvariantError(
                    f"unit pivots: replayed entry ({i}, {j}) = {x} lies outside the triangular shape")
    for r, c in pivots:
        if replayed[c].get(r) not in (1, -1):
            raise InternalInvariantError(f"unit pivots: replayed pivot ({r}, {c}) is not a unit")
    if _leftover(replayed, pivots, rows) != list(leftover):
        raise InternalInvariantError("unit pivots: replayed leftover differs")
