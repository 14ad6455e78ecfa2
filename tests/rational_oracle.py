"""Exact-rational linear algebra used to cross-check the floating-point path.

Everything here works on lists of Fractions, no numpy, so any agreement
with the package is evidence and not a shared rounding artifact.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]


def mat(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def shape(M: Matrix) -> tuple[int, int]:
    return len(M), len(M[0]) if M else 0


def eye(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(r: int, c: int) -> Matrix:
    return [[Fraction(0)] * c for _ in range(r)]


def transpose(M: Matrix) -> Matrix:
    r, c = shape(M)
    return [[M[i][j] for i in range(r)] for j in range(c)]


def matmul(A: Matrix, B: Matrix) -> Matrix:
    ra, ca = shape(A)
    rb, cb = shape(B)
    assert ca == rb, f"shape mismatch {ca} vs {rb}"
    Bt = transpose(B)
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def matadd(A: Matrix, B: Matrix) -> Matrix:
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def matsub(A: Matrix, B: Matrix) -> Matrix:
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def neg(M: Matrix) -> Matrix:
    return [[-x for x in row] for row in M]


def hstack(*Ms: Matrix) -> Matrix:
    rows = len(Ms[0])
    assert all(len(M) == rows for M in Ms)
    return [sum((M[i] for M in Ms), []) for i in range(rows)]


def vstack(*Ms: Matrix) -> Matrix:
    out: Matrix = []
    for M in Ms:
        out.extend([row[:] for row in M])
    return out


def rref(M: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices (exact)."""
    R = [row[:] for row in M]
    rows, cols = shape(R)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if R[i][c] != 0), None)
        if pivot_row is None:
            continue
        R[r], R[pivot_row] = R[pivot_row], R[r]
        inv = R[r][c]
        R[r] = [x / inv for x in R[r]]
        for i in range(rows):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


def rank(M: Matrix) -> int:
    if not M or not M[0]:
        return 0
    return len(rref(M)[1])


def det_exact(M: Matrix) -> Fraction:
    """Determinant by exact Gaussian elimination with pivoting."""
    r, c = shape(M)
    assert r == c, f"determinant needs a square matrix, got {r}x{c}"
    work = [row[:] for row in M]
    det = Fraction(1)
    for col in range(r):
        pivot = next((i for i in range(col, r) if work[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det *= work[col][col]
        inv = Fraction(1) / work[col][col]
        for i in range(col + 1, r):
            f = work[i][col] * inv
            if f:
                work[i] = [a - f * b for a, b in zip(work[i], work[col])]
    return det


def null_space(M: Matrix) -> Matrix:
    """Columns form an exact basis of { v : M v = 0 }."""
    rows, cols = shape(M)
    if cols == 0:
        return []
    if rows == 0:
        return eye(cols)
    R, pivots = rref(M)
    free = [c for c in range(cols) if c not in pivots]
    basis_cols = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -R[r][f]
        basis_cols.append(v)
    return transpose(basis_cols) if basis_cols else zeros(cols, 0)


def left_null_space(M: Matrix) -> Matrix:
    """Rows form an exact basis of { z : z M = 0 }."""
    return transpose(null_space(transpose(M)))


def row_space_equal(A: Matrix, B: Matrix) -> bool:
    ra, rb = rank(A), rank(B)
    if ra != rb:
        return False
    both = vstack(A, B) if A and B else (A or B)
    return rank(both) == ra if both else ra == 0


def extended_pair(A: Matrix, B: Matrix, Q: Matrix, N: Matrix, R: Matrix) -> tuple[Matrix, Matrix]:
    """The (2n+m)-dimensional implicit system carrying the costate equations.

    Abig dx/dt = Bbig x with state (x, p, u): the x and p rows are the
    Hamiltonian dynamics, the u rows the primary constraint 0 = -N'x + B'p - Ru.
    """
    n = len(A)
    m = len(R)
    At = transpose(A)
    Abig = zeros(2 * n + m, 2 * n + m)
    for i in range(2 * n):
        Abig[i][i] = Fraction(1)
    top = hstack(A, zeros(n, n), B)
    mid = hstack(Q, neg(At), N)
    bot = hstack(neg(transpose(N)), transpose(B), neg(R))
    return Abig, vstack(top, mid, bot)


def _refine_exact(Abig: Matrix, Bbig: Matrix, basis: Matrix) -> Matrix:
    W = matmul(Abig, basis)
    L = left_null_space(W)
    if not L:
        return basis
    conditions = matmul(matmul(L, Bbig), basis)
    K = null_space(conditions)
    if shape(K)[1] == shape(basis)[1]:
        return basis
    return matmul(basis, K)


def rational_chain(Abig: Matrix, Bbig: Matrix) -> tuple[list[int], Matrix, int]:
    """Exact subspace chain of Abig dx/dt = Bbig x.

    Returns (dims of M_1..M_r, final basis columns, r) with r the smallest
    k >= 1 such that M_k = M_{k+1}; mirrors dae_constraint_chain's counting.
    """
    n = len(Abig)
    basis = eye(n)
    dims: list[int] = []
    k = 0
    while True:
        refined = _refine_exact(Abig, Bbig, basis)
        k += 1
        if shape(refined)[1] == shape(basis)[1]:
            if dims:
                return dims, basis, k - 1
            dims.append(shape(refined)[1])
            return dims, refined, 1
        dims.append(shape(refined)[1])
        basis = refined
        assert k <= n + 1, "chain failed to stabilize"


def to_float(M: Matrix):
    import numpy as np

    r, c = shape(M)
    out = np.zeros((r, c))
    for i in range(r):
        for j in range(c):
            out[i, j] = float(M[i][j])
    return out


def from_float(arr) -> Matrix:
    # binary64 -> Fraction is exact, so float matrices embed losslessly
    return [[Fraction(float(x)) for x in row] for row in arr]


def independent_rows_exact(M: Matrix) -> Matrix:
    """Greedy top-down filter: keep each row iff it raises the exact rank."""
    kept: Matrix = []
    kept_rank = 0
    for row in M:
        candidate = kept + [row[:]]
        r = rank(candidate)
        if r > kept_rank:
            kept, kept_rank = candidate, r
    return kept


def exact_recursion(
    A: Matrix, B: Matrix, Q: Matrix, N: Matrix, R: Matrix
) -> tuple[Matrix, int, str, list[tuple[int, int]]]:
    """Exact-rational mirror of the floating-point constraint recursion.

    The published loop, whose halting singular_lq.algorithm.run states as
    one stop rule, with exact ranks in place of tolerance rank calls and
    an exact left-null row basis of rho in place of the SVD's u_bottom
    factor. The constraint rows differ from the float path by an
    invertible row transform per level, so the final kernel and the rank
    trace are directly comparable.

    Returns (phi, steps, halt, history): phi the filtered constraint
    matrix, steps the recursion index, halt "feedback" or "stagnation",
    history the per-level (rank rho, rank phi) pairs.
    """
    n, m = len(A), len(R)
    sigma = neg(transpose(N))
    beta = transpose(B)
    rho = neg([row[:] for row in R])

    phi = independent_rows_exact(hstack(sigma, beta, rho))
    l = m
    p = 0
    k = 1
    rho_rank = rank(rho)
    phi_rank = rank(phi)
    history = [(rho_rank, phi_rank)]
    halt = "stagnation"

    while True:
        if rho_rank >= l:
            halt = "feedback"
            break
        if phi_rank <= p:
            halt = "stagnation"
            break
        k += 1
        p = phi_rank
        l = len(rho)
        if rho_rank == l:
            # stale l let a regular rho through the loop-top check; the
            # float path halts here too, before appending anything
            halt = "feedback"
            break
        lb = left_null_space(rho)
        sigma, beta, rho = (
            matmul(lb, matadd(matmul(sigma, A), matmul(beta, Q))),
            matmul(lb, neg(matmul(beta, transpose(A)))),
            matmul(lb, matadd(matmul(sigma, B), matmul(beta, N))),
        )
        phi = independent_rows_exact(phi + hstack(sigma, beta, rho))
        rho_rank = rank(rho)
        phi_rank = rank(phi)
        history.append((rho_rank, phi_rank))

    if phi_rank <= p:
        k -= 1
    k = max(k, 1)
    return phi, k, halt, history
