"""Constraint recursion: rank calls, SVD splitting, filtering, halting.

The heavy cross-checks run against tests/rational_oracle.py, which mirrors
the recursion in exact Fraction arithmetic, so agreement cannot come from a
shared rounding artifact.
"""

import contextlib
import copy
import dataclasses
import operator
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

import rational_oracle as ro
import singular_lq.algorithm as algorithm
from problems import exact_matrices, halves_problem, shapes_of_calls, uniform_problem
from singular_lq import (
    FEEDBACK,
    STAGNATION,
    AlgorithmResult,
    ConstraintMatrix,
    LinearDAE,
    Subspace,
    dae_constraint_chain,
    feedback_rate_map,
    final_submanifold,
    gen_experiment2,
    gen_experiment3,
    independent_rows,
    max_principal_angle,
    numerical_rank,
    primary_constraint,
    regular_feedback,
    run,
    svd_split,
    theorem2_blocks,
    validate,
)
from singular_lq.algorithm import (
    _appended,
    _cholesky_qr2,
    _feedback_relations,
    _independent_rows_array,
    _null_basis,
    _RowFactor,
    _split,
    _svd_rank,
)
from singular_lq.experiments import _cell_rng, _exact_problem, _perturbed_problem
from singular_lq.problem import _derivative


def _halves_problem(rng, n_max=4, m_max=4):
    return halves_problem(rng, int(rng.integers(1, n_max + 1)), int(rng.integers(1, m_max + 1)))


def _rank_one_problem(rng, n_max=4, m_max=4):
    """Random problem whose B, N and R all have rank one."""
    n, m = int(rng.integers(1, n_max + 1)), int(rng.integers(1, m_max + 1))
    g = lambda *shape: rng.uniform(-1.0, 1.0, shape)
    q, r = g(n, n), g(m)
    return validate(g(n, n), np.outer(g(n), g(m)), (q + q.T) / 2.0,
                    np.outer(g(n), g(m)), np.outer(r, r))


# ---------------------------------------------------------------- ranks


def test_numerical_rank_relative_examples():
    assert numerical_rank(np.diag([1.0, 1e-8]), 1e-6) == 1
    assert numerical_rank(np.zeros((3, 3)), 1e-6) == 0
    assert numerical_rank(np.zeros((0, 4)), 1e-6) == 0


def test_numerical_rank_absolute_mode_differs():
    # The public rank is relative; the recursion's absolute cut, s > tol,
    # ranks the same matrix 0.
    M = np.diag([2e-7, 1e-8])
    assert numerical_rank(M, 1e-6) == 2
    assert _svd_rank(M, 1e-6) == 0


def test_numerical_rank_rejects_bad_tol():
    for tol in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            numerical_rank(np.eye(2), tol)


@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("call", ["numerical_rank", "svd_split", "independent_rows"])
def test_rank_functions_reject_non_finite_input(call, entry):
    # An inf read as rank 0 and a NaN raised LinAlgError; in the row filter
    # a one-row matrix would pass either to its projected norm without a word.
    M = np.array([[entry, 1.0, 0.0]])
    calls = {
        "numerical_rank": lambda: numerical_rank(M, 1e-6),
        "svd_split": lambda: svd_split(M, 1e-6),
        "independent_rows": lambda: independent_rows(ConstraintMatrix(rows=M, n=1, m=1), 1e-6),
    }
    with pytest.raises(ValueError, match="non-finite"):
        calls[call]()


def test_numerical_rank_matches_exact_rank():
    rng = np.random.default_rng(23)
    for _ in range(40):
        M = rng.integers(-2, 3, (5, 3)) / 2.0
        assert numerical_rank(M, 1e-12) == ro.rank(ro.from_float(M))
    full = rng.uniform(-1.0, 1.0, (5, 3))
    assert numerical_rank(full, 1e-12) == 3


# ---------------------------------------------------------------- svd_split


def test_svd_split_zero_rho():
    split = svd_split(np.zeros((3, 2)), 1e-6)
    assert split.rank == 0
    assert split.u_top.shape == (0, 3)
    assert split.u_bottom.shape == (3, 3)


def test_svd_split_rank_one_corner():
    rho = np.zeros((3, 3))
    rho[0, 0] = 2.0
    split = svd_split(rho, 1e-6)
    assert split.rank == 1
    assert np.allclose(split.singular_values, [2.0, 0.0, 0.0])


def test_svd_split_validates_input():
    with pytest.raises(ValueError):
        svd_split(np.zeros((0, 2)), 1e-6)
    with pytest.raises(ValueError):
        svd_split(np.eye(2), -1.0)


def test_svd_split_left_null_and_orthogonality():
    rng = np.random.default_rng(5)
    for _ in range(100):
        l, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        rho = rng.uniform(-1.0, 1.0, (l, m))
        if rng.integers(3) == 0:
            rho[rng.integers(l)] = 0.0  # force some rank deficiency
        split = svd_split(rho, 1e-9)
        s1 = split.singular_values[0] if split.singular_values.size else 0.0
        u_t = np.vstack([split.u_top, split.u_bottom])  # U' of rho = U S V'
        gram = u_t @ u_t.T - np.eye(l)
        assert np.abs(gram).max() <= 1e-12 * l
        if split.u_bottom.shape[0]:
            assert np.abs(split.u_bottom @ rho).max() <= 1e-9 * max(s1, 1e-300)


def _one_row_rhos():
    rng = np.random.default_rng(43)
    rows = [[v] for v in (2.5, -3.0, 0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300)]
    for m in range(1, 9):
        row = rng.uniform(-1.0, 1.0, m)
        # Norms 1e-6 (1 + j eps), at and around the absolute cut.
        rows += [row * (1e-6 * (1.0 + j * np.finfo(float).eps) / np.linalg.norm(row))
                 for j in (-8, -2, -1, 0, 1, 2, 8)]
        if m > 1:
            rows += [row, np.zeros(m)] + [np.full(m, v) for v in (5e-324, -1e300, 1e-160)]
            for lead in (0.0, -0.0):
                rows += [np.r_[lead, row[1:]], np.r_[lead, np.zeros(m - 1)]]
    return [np.reshape(row, (1, -1)) for row in rows] + [np.zeros((1, 0))]


def test_one_row_split_matches_lapack():
    # A one-row rho is split by LAPACK's full SVD like any other: its U,
    # singular value and rank are LAPACK's own bytes, at the cut or not.
    for rho in _one_row_rhos():
        u, s, _ = np.linalg.svd(rho, full_matrices=True)
        for relative in (False, True):
            cut = 1e-6 * s[0] if relative and s.size else 1e-6
            split = svd_split(rho, 1e-6) if relative else _split(rho, 1e-6, False)
            assert split.rank == np.count_nonzero(s > cut), rho
            assert np.vstack([split.u_top, split.u_bottom]).tobytes() == u.T.tobytes(), rho
            assert split.singular_values.tobytes() == s.tobytes(), rho


# ---------------------------------------------------------------- levels


def test_step_experiment2_levels():
    blocks = run(gen_experiment2(4), tol=1e-6).blocks
    level2 = blocks[1]
    ones = np.ones((1, 4))
    # SVD leaves a sign ambiguity in u_bottom; compare up to one global sign
    sign = np.sign(level2.sigma[0, 0]) or 1.0
    assert np.allclose(sign * level2.sigma, ones, atol=1e-14)
    assert np.allclose(sign * level2.beta, -ones, atol=1e-14)
    assert np.allclose(level2.rho, 0.0, atol=1e-14)

    level3 = blocks[2]
    assert level3.rho.shape == (1, 1)
    assert np.isclose(abs(level3.rho[0, 0]), 4.0)  # sigma(2) B = n


def test_step_experiment3_power_formula():
    n = 5
    problem = gen_experiment3(n)
    bt, at = problem.B.T, problem.A.T
    blocks = run(problem, tol=1e-9).blocks
    assert len(blocks) >= n
    power = np.eye(n)
    for k, block in enumerate(blocks[1:n], start=1):
        power = power @ at
        expected = (-1.0) ** k * bt @ power
        # each level's 1x1 u_bottom factor is +-1; fix the sign per level
        sign = 1.0 if np.allclose(block.beta, expected, atol=1e-12) else -1.0
        assert np.allclose(block.beta, sign * expected, atol=1e-12)
        assert np.array_equal(block.sigma, -block.beta)
        assert np.abs(block.rho).max() <= 1e-12


# ---------------------------------------------------------------- filtering


def test_independent_rows_drops_multiples():
    phi = ConstraintMatrix(rows=np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]), n=1, m=0)
    kept = independent_rows(phi, 1e-9)
    assert np.array_equal(kept.rows, np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_independent_rows_void_and_zero_rank():
    void = ConstraintMatrix(rows=np.zeros((0, 3)), n=1, m=1)
    assert independent_rows(void, 1e-9).rows.shape == (0, 3)
    zero = ConstraintMatrix(rows=np.zeros((2, 3)), n=1, m=1)
    assert independent_rows(zero, 1e-9).rows.shape == (0, 3)
    # Rows of width 0 reach the one-row path, whose empty row has beta 0.
    for rows in (1, 2, 3):
        empty = ConstraintMatrix(rows=np.zeros((rows, 0)), n=0, m=0)
        assert independent_rows(empty, 1e-6).rows.shape == (0, 0)


def test_independent_rows_idempotent():
    rng = np.random.default_rng(13)
    rows = np.vstack([rng.uniform(-1, 1, (2, 5)), rng.uniform(-1, 1, (2, 5))])
    rows = np.vstack([rows, rows[0] + rows[1]])  # dependent tail row
    phi = ConstraintMatrix(rows=rows, n=2, m=1)
    once = independent_rows(phi, 1e-9)
    twice = independent_rows(once, 1e-9)
    assert np.array_equal(once.rows, twice.rows)


def test_independent_rows_ranks_a_declined_block_row_by_row(monkeypatch):
    # The block repeats its rows, so its R is not square and the certificate
    # declines it whole. Row by row, the repeats project to zero, far below
    # tol, and are dropped with no SVD.
    E = np.eye(2, 5)
    calls = shapes_of_calls(monkeypatch, np.linalg, "svd")
    kept = independent_rows(ConstraintMatrix(rows=np.vstack([E, E, E]), n=2, m=1), 1e-9)
    assert np.array_equal(kept.rows, E)
    assert calls == []


def test_independent_rows_against_exact_row_space():
    rng = np.random.default_rng(29)
    for _ in range(50):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 6))
        M = rng.integers(-2, 3, (rows, cols)) / 2.0
        phi = ConstraintMatrix(rows=M.astype(float), n=0, m=cols)
        kept = independent_rows(phi, 1e-9)
        exact = ro.from_float(M)
        assert kept.rows.shape[0] == ro.rank(exact)
        if kept.rows.shape[0]:
            assert ro.row_space_equal(ro.from_float(kept.rows), exact)
        # kept rows are original rows in original order
        positions = []
        for row in kept.rows:
            matches = [i for i in range(rows) if np.array_equal(M[i], row)]
            positions.append(min(m for m in matches if not positions or m > positions[-1]))
        assert positions == sorted(positions)


def test_independent_rows_keeps_the_same_rows_when_squares_overflow():
    # Above about 1e154 a sum of squares overflows: the certificate's slack
    # read inf times the empty factor's zero ||R^-1|| as NaN and skipped the
    # stacked SVD. Rows and tol scaled alike keep the same rows, silently.
    rng = np.random.default_rng(109)
    block = rng.standard_normal((4, 7))
    block[2] = block[0] - 0.5 * block[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1.0, 1e150, 1e200, 3.3e299):
            rows = scale * block
            kept = independent_rows(ConstraintMatrix(rows=rows, n=3, m=1), 1e-6 * scale)
            assert np.array_equal(kept.rows, rows[[0, 1, 3]])
        row = np.array([[1e300, 1e300, 0.0]])
        assert np.array_equal(independent_rows(ConstraintMatrix(rows=row, n=1, m=1), 1e-6).rows, row)
        # A row appended to a factor of [1e100, 0, 0] projects to 1e100 >
        # tol, but the stacked s_2 is 2e-101: the certificate must decline
        # without overflowing.
        factor = _filtered(np.array([[1e100, 0.0, 0.0]]), 1e94)
        assert not _appended(np.array([[5e300, 1e100, 0.0]]), 1e94, factor)
        assert factor.rows.shape[0] == 1


# Blocks whose rows, projected off the rows of an ill-conditioned phi,
# rank 1 at tol 1e-6 while phi stacked on them ranks 2: (phi, block).
_PROJECTION_TRAPS = [
    # P = [0, 0, 1e-4] sits near tol; the stacked s_3 is 1e-10.
    ([[1.0, 0.0, 0.0], [0.0, 1e-3, 0.0]], [0.0, 1e3, 1e-4]),
    # P = [0, 0, 2e-3] sits outside any fixed 3-decade band; s_3 is 2e-11.
    ([[1.0, 0.0, 0.0], [0.0, 1e-4, 0.0]], [0.0, 1e4, 2e-3]),
    # P = [0, 0, 1] is far from tol, yet the stacked s_3 is 9.0e-7.
    ([[1.0, 0.0, 0.0], [0.0, 1.01e-6, 0.0]], [0.0, 0.5, 1.0]),
]


def _filtered(rows, tol):
    """The row filter's factor of rows, grown from an empty one."""
    return _independent_rows_array(rows, tol, _RowFactor(rows.shape[1], rows.shape[1]))


def _traced_filter(monkeypatch):
    """One [c, k, appended, SVD shapes] entry per _appended call from here on:
    the kept row count c, the block's row count k, the call's verdict and the
    shapes of the matrices whose SVD it took."""
    calls = []

    def svd_rank(M, *args, **kwargs):
        calls[-1][3].append(M.shape)
        return _svd_rank(M, *args, **kwargs)

    def appended(M, tol, factor):
        calls.append([factor.rows.shape[0], M.shape[0], None, []])
        calls[-1][2] = _appended(M, tol, factor)
        return calls[-1][2]

    monkeypatch.setattr("singular_lq.algorithm._svd_rank", svd_rank)
    monkeypatch.setattr("singular_lq.algorithm._appended", appended)
    return calls


def _one_row_svds_only(calls, width):
    """Whether every SVD in the traced calls is the stacked (c + 1) x width one of a single row."""
    return all(shape == (c + 1, width) for c, _, _, shapes in calls for shape in shapes)


@pytest.mark.parametrize("phi, block", _PROJECTION_TRAPS)
def test_projected_rank_declines_when_the_stacked_rank_differs(monkeypatch, phi, block):
    phi, block = np.array(phi), np.array([block])
    stacked = np.vstack([phi, block])
    assert _svd_rank(stacked, 1e-6) == 2
    projected = block - (block @ np.eye(3)[:, :2]) @ np.eye(3)[:2]
    assert 2 + _svd_rank(projected, 1e-6) == 3
    factor = _filtered(phi, 1e-6)
    assert np.array_equal(factor.rows, phi)
    shapes = shapes_of_calls(monkeypatch, algorithm, "_svd_rank")
    assert not _appended(block, 1e-6, factor)
    assert shapes == [stacked.shape]
    assert np.array_equal(factor.rows, phi)


def test_row_filter_falls_back_to_the_stacked_rank(monkeypatch):
    # The first trap under 18 more unit rows: phi is wide and tall enough
    # for the filter to rank by projection, which declines, and the
    # stacked SVD keeps phi as it is.
    width = 100
    phi = np.eye(width)[:20]
    phi[19, 19] = 1e-3
    block = np.zeros((1, width))
    block[0, 19:21] = 1e3, 1e-4
    factor = _filtered(phi, 1e-6)
    assert np.array_equal(factor.rows, phi)
    shapes = shapes_of_calls(monkeypatch, algorithm, "_svd_rank")
    assert not _appended(block, 1e-6, factor)
    assert shapes == [(21, width)]
    assert _independent_rows_array(block, 1e-6, factor) is factor
    assert np.array_equal(factor.rows, phi)


@pytest.mark.parametrize("k", [1, 2])
def test_row_filter_appends_rows_that_only_the_stacked_svd_ranks(monkeypatch, k):
    # Rows whose projected values are exactly tol, so the certificate
    # declines and counts nothing. A stacked SVD whose cut sits just below
    # tol keeps them: one row then enters the factor from its projection.
    # A block of two has R = tol I, which is not inverted, so the filter
    # appends its rows one at a time, each kept by its stacked SVD.
    tol, width = 1e-6, 2 + k
    factor = _filtered(np.eye(width)[:2], tol)
    block = tol * np.eye(width)[2:]
    shapes = []

    def lower_cut(M, cut, *args, **kwargs):
        shapes.append(M.shape)
        return _svd_rank(M, cut * (1.0 - 1e-9), *args, **kwargs)

    monkeypatch.setattr("singular_lq.algorithm._svd_rank", lower_cut)
    assert _independent_rows_array(block, tol, factor) is factor
    assert shapes == ([(3, 3)] if k == 1 else [(3, 4), (4, 4)])
    assert np.array_equal(factor.rows, np.vstack([np.eye(width)[:2], block]))
    assert np.abs(factor.qt @ factor.qt.T - np.eye(width)).max() <= 1e-15
    upper = factor.qt @ factor.rows.T
    assert np.abs(factor.inv_r @ upper - np.eye(width)).max() <= 1e-15


@pytest.mark.parametrize(
    "kept, row, rank",
    [
        # [3, 3] projected off [1, 1] is rounding noise along it.
        ([1.0, 1.0], [3.0, 3.0], 1),
        # A repeated row projects to exactly zero.
        ([1.0, 2.0, 0.5], [1.0, 2.0, 0.5], 1),
        # [0, 1e-100, 0] is exact and orthogonal to [1, 0, 0].
        ([1.0, 0.0, 0.0], [3.0, 1e-100, 0.0], 2),
    ],
)
def test_row_filter_stays_orthonormal_when_tol_is_below_rounding(monkeypatch, kept, row, rank):
    # At tol 1e-20 the stacked SVD can count rounding as rank, here for
    # every row. The certificate declines, and the row enters the factor
    # only if one more projection keeps it off the basis.
    factor = _filtered(np.array([kept]), 1e-20)
    monkeypatch.setattr(
        "singular_lq.algorithm._svd_rank", lambda M, tol, *args, **kwargs: min(M.shape)
    )
    assert _appended(np.array([row]), 1e-20, factor) == (rank == 2)
    assert np.array_equal(factor.rows, np.array([kept, row])[:rank])
    assert np.abs(factor.qt @ factor.qt.T - np.eye(rank)).max() <= 1e-15
    upper = factor.qt @ factor.rows.T
    assert np.isfinite(factor.inv_r).all()
    assert np.abs(factor.inv_r @ np.triu(upper) - np.eye(rank)).max() <= 1e-15


def test_row_filter_second_projection_survives_overflowing_squares(monkeypatch):
    # The last case above scaled by 1e300. After the stacked SVD keeps the
    # row, its second projection [0, 1e200, 0] squares to inf, and inf > inf
    # once read as no gain and dropped the row.
    factor = _filtered(np.array([[1e300, 0.0, 0.0]]), 1e280)
    monkeypatch.setattr(
        "singular_lq.algorithm._svd_rank", lambda M, tol, *args, **kwargs: min(M.shape)
    )
    row = np.array([[3e300, 1e200, 0.0]])
    assert _appended(row, 1e280, factor)
    assert np.array_equal(factor.rows, np.array([[1e300, 0.0, 0.0], row[0]]))
    assert np.array_equal(factor.qt, np.eye(3)[:2])


@pytest.mark.parametrize("gap, tol", [(1e-5, 1e-9), (1e-7, 1e-9), (1e-10, 1e-13)])
def test_row_filter_extends_an_orthonormal_factor(gap, tol):
    # Two nearly dependent rows (P's values about 10 and 5.6 gap) appended.
    # At gap 1e-5 CholeskyQR2 factors P' whole, its columns about eps * 10
    # / (5.6 gap) off the carried basis until projected off it once more.
    # At gap 1e-7 its first pass loses orthogonality, and at 1e-10 its first
    # Cholesky fails: both blocks are appended one row at a time.
    rng = np.random.default_rng(83)
    phi = rng.standard_normal((20, 100))
    first = rng.standard_normal(100)
    block = np.vstack([first, first + gap * rng.standard_normal(100)])
    base = _filtered(phi, tol)
    factor = _independent_rows_array(block, tol, base)
    assert factor is base
    rows, basis, inv_r = factor.rows, factor.qt.T, factor.inv_r
    assert rows.shape[0] == 22
    assert np.array_equal(rows, np.vstack([phi, block]))
    assert np.abs(basis.T @ basis - np.eye(22)).max() <= 1e-14
    # rows' = basis R with R^-1 = inv_r up to eps cond(R), R upper triangular.
    upper = basis.T @ rows.T
    assert np.abs(np.tril(upper, -1)).max() <= 1e-12
    assert np.abs(upper @ inv_r - np.eye(22)).max() <= 1e-4


def test_row_filter_drops_the_factor_when_part_of_a_block_adds_rank():
    # Block row 1 lies in phi's row space, so R has a diagonal entry below
    # tol and the block is not appended whole. Ranked one row at a time, the
    # same factor grows by block rows 0 and 2, and the next level extends it.
    rng = np.random.default_rng(89)
    tol = 1e-9
    phi = rng.standard_normal((20, 100))
    block = rng.standard_normal((3, 100))
    block[1] = rng.standard_normal(20) @ phi
    stacked = np.vstack([phi, block])
    factor = _filtered(phi, tol)
    assert not _appended(block, tol, factor)
    assert np.array_equal(factor.rows, phi)
    assert _independent_rows_array(block, tol, factor) is factor
    assert np.array_equal(factor.rows, stacked[[*range(20), 20, 22]])
    assert np.abs(factor.qt @ factor.qt.T - np.eye(22)).max() <= 1e-14
    following = rng.standard_normal((1, 100))
    assert _independent_rows_array(following, tol, factor) is factor
    rows, basis = factor.rows, factor.qt.T
    assert basis.shape == (100, 23)
    assert np.abs(basis.T @ basis - np.eye(23)).max() <= 1e-14
    assert np.abs(rows - (rows @ basis) @ basis.T).max() <= 1e-12 * np.abs(rows).max()


def test_grown_factor_spans_phi_and_inverts_its_r(monkeypatch):
    # Family 3 at n = 100 appends one row a level to a factor that starts
    # empty at the primary block. Its Q' and R^-1 buffers are allocated
    # once, at the run's width 2n + 1 = 201, and never regrown. The run
    # frees R^-1's buffer before it returns, so the spy holds on to both,
    # and to the rows it was offered.
    factors, offered = [], []

    def spy(M, tol, factor):
        out = _appended(M, tol, factor)
        factors.append((factor, factor._qt, factor._inv_r))
        offered.append(M)
        return out

    monkeypatch.setattr("singular_lq.algorithm._appended", spy)
    exact = _exact_problem(3, 100, 0)
    for problem in (exact, _perturbed_problem(3, exact, 1e-9, _cell_rng(0, 3, 100, 1e-9, 0))):
        factors.clear()
        offered.clear()
        result = run(problem, 1e-6)
        factor, *buffers = factors[-1]
        assert all(f is factor and all(map(operator.is_, b, buffers)) for f, *b in factors)
        assert [b.shape for b in buffers] == [(201, 201)] * 2
        assert factor.inv_r is None
        qt, inv_r = buffers[0][:100], buffers[1][:100, :100]
        basis, rows = result.row_basis, result.phi.rows
        assert result.codim == 100 and basis.shape == (201, 100)
        assert np.abs(basis.T @ basis - np.eye(100)).max() <= 1e-14
        reference = Subspace(np.linalg.qr(rows.T)[0])
        assert max_principal_angle(Subspace(basis), reference) <= 1e-12
        assert np.abs(inv_r @ (basis.T @ rows.T) - np.eye(100)).max() <= 1e-12
        # The result owns compact copies, not views of the factor's buffers.
        for array in (basis, rows):
            assert array.base is None and array.flags.c_contiguous
        assert np.array_equal(rows, factor.rows) and np.array_equal(basis, qt.T)
        # The factor kept views of the rows it was offered, not copies of
        # them; the result's blocks are a replay, which shares none of them.
        for kept in factor.kept:
            assert any(np.shares_memory(kept, rows) for rows in offered)
            assert not any(np.shares_memory(kept, block.rows) for block in result.blocks)


def _held_bytes(result) -> int:
    """Bytes of the arrays a run's result keeps alive, each view counted once, by its base."""
    arrays = [result.phi.rows, result.row_basis, *result.selectors]
    arrays += [block.rows for block in result.blocks]
    bases = {}
    for array in arrays:
        while array.base is not None:
            array = array.base
        bases[id(array)] = array.nbytes
    return sum(bases.values())


def _traced_run(problem, tol=1e-6):
    """run(problem, tol), and the traced bytes current after it and at its peak."""
    tracemalloc.start()
    try:
        result = run(problem, tol)
        return (result, *tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


def test_run_peaks_within_a_multiple_of_what_its_result_holds():
    # Family 1 at n = 100: three blocks of 100, 99 and 99 rows, width 300,
    # and phi of 298 rows. Past its result, the run holds the row filter's
    # Q' and R^-1 buffers and one level's temporaries; phi is gathered from
    # the kept rows only after R^-1's buffer is freed. The bound is taken
    # against phi, row_basis and the replayed blocks and selectors, which
    # the result no longer stores. The traced peak reads 1.62 times those
    # bytes; a filter that copies each kept row into a buffer of its own
    # reads 1.86.
    result, _, peak = _traced_run(_exact_problem(1, 100, 0))
    assert result.codim == 298
    assert peak <= 1.7 * _held_bytes(result)


def test_result_holds_no_levels_and_replays_them_once(monkeypatch):
    # Family 1 at n = 202: the result keeps phi and row_basis, not the
    # blocks and selectors, which a read replays, once for all three reads.
    result, current, _ = _traced_run(_exact_problem(1, 202, 0))
    replays = []
    levels = algorithm._levels
    monkeypatch.setattr(algorithm, "_levels", lambda *args: replays.append(args) or levels(*args))
    assert current <= 0.65 * _held_bytes(result)
    assert result.blocks and result.selectors and feedback_rate_map(result).any()
    assert result.blocks[1] is result.blocks[1] and len(replays) == 1
    # The replay stays out of the dict of fields: a result rebuilt from it,
    # a copy and a pickled one replay their own levels.
    for other in (AlgorithmResult(**vars(result)), copy.copy(result),
                  pickle.loads(pickle.dumps(result))):
        assert other.blocks[1].rows.tobytes() == result.blocks[1].rows.tobytes()
    assert len(replays) == 4


def test_result_records_its_problem_and_what_run_decides():
    problem = gen_experiment2(3)
    result = run(problem, 1e-6)
    assert [field.name for field in dataclasses.fields(result)] == [
        "problem", "phi", "steps", "halt_reason", "row_basis", "rank_history", "tol",
    ]
    assert result.problem is problem


@pytest.mark.parametrize("gap", [1.0, 1e-12])
def test_one_row_projected_rank_needs_no_factorisation(monkeypatch, gap):
    # A row well outside phi's row space extends the factor; one within
    # 1e-12 of it ranks below tol and leaves the factor as it was.
    rng = np.random.default_rng(97)
    phi = rng.standard_normal((20, 100))
    row = rng.standard_normal(20) @ phi + gap * rng.standard_normal(100)
    factor = _filtered(phi, 1e-9)

    def forbidden(*args, **kwargs):
        raise AssertionError("a one-row block needs no QR, SVD or inverse")

    for name in ("qr", "svd", "inv"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    appended = _appended(row[None, :], 1e-9, factor)
    monkeypatch.undo()
    stacked = np.vstack([phi, row])
    rank = factor.rows.shape[0]
    assert appended == (gap == 1.0) and rank == _svd_rank(stacked, 1e-9) == 20 + appended
    basis = factor.qt.T
    assert np.abs(basis.T @ basis - np.eye(rank)).max() <= 1e-14
    assert np.abs(factor.inv_r @ (basis.T @ factor.rows.T) - np.eye(rank)).max() <= 1e-12
    assert np.isclose(factor.norm, np.linalg.norm(factor.rows), rtol=1e-14)
    assert np.isclose(factor.inv_norm, np.linalg.norm(factor.inv_r), rtol=1e-14)


def _between_the_bounds(plain, inflated, slack):
    """A tol at which the certificate clears with ``plain`` as 1 / its lower
    bound but not with ``inflated``: inside [1 / inflated - slack, 1 /
    plain - slack)."""
    low, high = 1.0 / inflated - slack, 1.0 / plain - slack
    tol = 0.5 * (low + high)
    assert low < tol < high
    return tol


def test_one_row_certificate_inflates_the_carried_inverse_norm(monkeypatch):
    # kept has R diagonal [1, 1e-7], so x = ||R^-1||_F is about 1.4e7, and
    # e3 projects to itself with g = 0: the lower bound's inverse is x + 1,
    # raised by x * slack * x for R^-1's rounding. At a tol between the two
    # bounds only the inflated one declines to certify, so the stacked SVD
    # decides once; it keeps the row.
    factor = _filtered(np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 1e-7, 0.0, 0.0]]), 1e-12)
    assert factor.rows.shape[0] == 2
    row = np.eye(4)[2:3]
    slack = np.finfo(float).eps * 4 * np.hypot(factor.norm, 1.0)
    x = factor.inv_norm
    tol = _between_the_bounds(x + 1.0, x * (1.0 + slack * x) + 1.0, slack)
    shapes = shapes_of_calls(monkeypatch, algorithm, "_svd_rank")
    assert _appended(row, tol, factor)
    assert shapes == [(3, 4)]
    assert np.array_equal(factor.rows[2], row[0])


def test_block_certificate_inflates_the_blocks_inverse_norm():
    # A block of two rows with R diagonal [1, 1e-5] on an empty
    # factor: the lower bound's inverse is y = ||R^-1||_F, raised by y *
    # slack * y. At a tol between the two bounds the block is not certified
    # whole, and the factor is left as it was.
    block = np.array([[1.0, 0.0, 0.0], [1.0, 1e-5, 0.0]])
    factor = _RowFactor(3, 3)
    _, tail = _cholesky_qr2(block)
    slack = np.finfo(float).eps * 3 * np.linalg.norm(block)
    y = np.linalg.norm(tail)
    tol = _between_the_bounds(y, y * (1.0 + slack * y), slack)
    assert not _appended(block, tol, factor)
    assert factor.rows.shape[0] == 0


def _block_off(kept, values, along, rng):
    """Rows along @ kept + P with P's rows orthogonal to kept's and P's
    singular values ``values`` followed by zeros, one row per value."""
    (c, width), k = kept.shape, len(values)
    rank = int(np.count_nonzero(values))
    full = np.linalg.qr(np.vstack([kept, rng.standard_normal((width - c, width))]).T)[0]
    left = np.linalg.qr(rng.standard_normal((k, k)))[0][:, :rank]
    right = np.linalg.qr(rng.standard_normal((rank, rank)))[0] @ full[:, c : c + rank].T
    return along * rng.standard_normal((k, c)) @ kept + (left * values[:rank]) @ right


def _certificate_cases(tol):
    """(kind, kept, block, k - rank) over random widths and kept row counts:
    generic blocks, graded blocks whose two smallest projected values are
    1.2 tol, so ||R^-1||_F >= 1 / tol > 1 / s_k, and rank-deficient blocks."""
    rng = np.random.default_rng(113)
    for kind in ("generic", "graded", "deficient"):
        for _ in range(15):
            width = int(rng.integers(6, 40))
            c = int(rng.integers(0, width // 2))
            k = int(rng.integers(3, width - c + 1))
            kept = rng.standard_normal((c, width))
            if kind == "generic":
                values, along = rng.uniform(0.1, 1.0, k), 0.1
            elif kind == "graded":
                values, along = np.append(np.geomspace(1.0, 1.2 * tol, k - 1), 1.2 * tol), 0.0
            else:
                values, along = rng.uniform(0.1, 1.0, k), 1.0
                values[rng.choice(k, int(rng.integers(1, k)), replace=False)] = 0.0
                values = -np.sort(-values)
            yield kind, kept, _block_off(kept, values, along, rng), int(np.count_nonzero(values == 0))


def test_row_filter_certificate_keeps_the_stacked_rank(monkeypatch):
    # The filter's kept count is the stacked SVD's rank on every block. A
    # generic block is certified by its R^-1 and appended whole with no SVD
    # at all. A graded or rank-deficient one is declined whole and ranked one
    # row at a time, with no SVD of its R: every SVD is a one-row stacked one.
    tol = 1e-6
    whole = {"generic": set(), "graded": set(), "deficient": set()}
    for kind, kept, block, deficit in _certificate_cases(tol):
        factor = _filtered(kept, tol)
        c, (k, width) = kept.shape[0], block.shape
        assert factor.rows.shape[0] == c
        calls = _traced_filter(monkeypatch)
        _independent_rows_array(block, tol, factor)
        monkeypatch.undo()
        stacked = np.vstack([kept, block])
        assert factor.rows.shape[0] == _svd_rank(stacked, tol) == c + k - deficit
        assert np.array_equal(factor.rows, _greedy_reference(stacked, tol))
        assert _one_row_svds_only(calls, width)
        whole[kind].add(calls == [[c, k, True, []]])
        if kind != "generic":
            assert calls[0] == [c, k, False, []] and [rows for _, rows, _, _ in calls[1:]] == [1] * k
    assert whole == {"generic": {True}, "graded": {False}, "deficient": {False}}


def _guarded(kept, block):
    return np.array(kept, dtype=float).reshape(-1, len(block[0])), np.array(block, dtype=float)


# (kept, block) whose R the certificate cannot invert: the filter must rank
# the block's rows one at a time instead.
_UNINVERTIBLE = {
    # R = [[1, 2], [0, 0]]: the second row is exactly twice the first.
    "singular": _guarded([[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
    # R = P' = [[1e-5, 1e300], [0, 1e-5]]: its diagonal clears tol, and its
    # inverse overflows to -inf.
    "overflow": _guarded([], [[1e-5, 0.0], [1e300, 1e-5]]),
    # Four rows in width 3: R is 3 x 4.
    "wide": _guarded([[1.0, 0.0, 0.0]], np.random.default_rng(127).standard_normal((4, 3))),
    # Three rows off one in width 3: R is square and singular to rounding.
    "crowded": _guarded([[1.0, 0.0, 0.0]], np.random.default_rng(131).standard_normal((3, 3))),
}


def _ranked_row_by_row(monkeypatch, kept, block, tol, in_run, spy=lambda patch: None):
    """Rank block onto kept's factor, under run's errstate if in_run, with
    warnings raised as errors. Check that the block is declined whole with no
    SVD, that each of its rows takes the one-row path, and that the factor
    and independent_rows on the stacked rows keep the greedy rows. Returns
    the factor and what ``spy``, set up just before the ranking, returned."""
    stacked = np.vstack([kept, block])
    reference = _greedy_reference(stacked, tol)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        factor = _filtered(kept, tol)
        calls = _traced_filter(monkeypatch)
        spied = spy(monkeypatch)
        with np.errstate(over="raise", invalid="raise") if in_run else contextlib.nullcontext():
            _independent_rows_array(block, tol, factor)
        monkeypatch.undo()
        whole = independent_rows(ConstraintMatrix(rows=stacked, n=0, m=stacked.shape[1]), tol)
    (c, _), (k, width) = kept.shape, block.shape
    assert calls[0] == [c, k, False, []] and [rows for _, rows, _, _ in calls[1:]] == [1] * k
    assert _one_row_svds_only(calls, width)
    assert np.array_equal(factor.rows, reference)
    assert np.array_equal(whole.rows, reference)
    return factor, spied


@pytest.mark.parametrize("name", sorted(_UNINVERTIBLE))
@pytest.mark.parametrize("in_run", [True, False])
def test_row_filter_falls_back_to_the_values_of_r(monkeypatch, name, in_run):
    # Under run's errstate and outside it, no exception and no warning. The
    # values of R that decide are those of each row's own one-row R, the
    # norm of its projection, or the stacked SVD of that row: the block's R
    # takes no SVD, and the kept rows are the greedy ones.
    _ranked_row_by_row(monkeypatch, *_UNINVERTIBLE[name], 1e-6, in_run)


def _cholesky_outcomes(monkeypatch):
    """One entry per np.linalg.cholesky call from here on: whether it factored its matrix."""
    cholesky, outcomes = np.linalg.cholesky, []

    def spy(a, *args, **kwargs):
        try:
            lower = cholesky(a, *args, **kwargs)
        except np.linalg.LinAlgError:
            outcomes.append(False)
            raise
        outcomes.append(True)
        return lower

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    return outcomes


# A row 3 * 2^-27 off another: the Gram entry 1 + 9 * 2^-54 rounds, in any
# order of summation, to 1 + 2^-51, so the first Cholesky succeeds and its
# Q1 misses orthonormality by 0.125.
_NEAR = 3.0 * 2.0**-27

# (kept, block, tol, outcomes of the block's Choleskys) whose block
# CholeskyQR2's guard rejects: the filter must rank its rows one at a time.
_GUARDED = {
    # Row 2 is row 0 plus row 1, exactly: the Gram matrix's last pivot is 0.
    "dependent": (*_guarded([[0.0, 0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                                                     [1.0, 1.0, 0.0, 0.0]]), 1e-6, [False]),
    # s_min = 1.6e-8 clears tol, but cond is 9e7, past eps^-1/2.
    "lossy": (*_guarded([[0.0, 0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0, 0.0], [1.0, _NEAR, 0.0, 0.0]]),
              1e-10, [True]),
    # Rows near 1e160: the rows are finite, their Gram matrix overflows.
    "overflow": (1e160 * np.eye(1, 5, 4),
                 1e160 * np.random.default_rng(137).standard_normal((3, 5)), 1e154, []),
}


@pytest.mark.parametrize("name", sorted(_GUARDED))
@pytest.mark.parametrize("in_run", [True, False])
def test_row_filter_ranks_a_block_cholesky_qr2_rejects_row_by_row(monkeypatch, name, in_run):
    # Under run's errstate and outside it, no exception and no warning: the
    # guard rejects the block after the Choleskys listed, the block's rows
    # take the one-row path, and the kept rows are the greedy ones.
    kept, block, tol, expected = _GUARDED[name]
    factor, outcomes = _ranked_row_by_row(monkeypatch, kept, block, tol, in_run, _cholesky_outcomes)
    assert outcomes == expected
    assert factor.rows.shape[0] == kept.shape[0] + block.shape[0] - (name == "dependent")
    assert np.abs(factor.qt @ factor.qt.T - np.eye(factor.rows.shape[0])).max() <= 1e-15


def test_row_filter_ranks_a_drifted_block_row_by_row(monkeypatch):
    # A block whose CholeskyQR2 basis, projected off phi's once more, moved
    # by more than sqrt(eps) is not trusted to be orthonormal: it is
    # declined whole, and its rows are ranked one at a time.
    kept, block = _guarded([[0.0, 0.0, 0.0, 1.0]], [[1.0, 2.0, 0.0, 0.0], [0.0, 1.0, 3.0, 0.5]])
    tol = 1e-6
    factor = _filtered(kept, tol)

    def drifted(P):
        qt, inverse = _cholesky_qr2(P)
        return qt + 1e-7 * kept, inverse

    calls = _traced_filter(monkeypatch)
    monkeypatch.setattr("singular_lq.algorithm._cholesky_qr2", drifted)
    _independent_rows_array(block, tol, factor)
    monkeypatch.undo()
    assert calls == [[1, 2, False, []], [1, 1, True, []], [2, 1, True, []]]
    assert np.array_equal(factor.rows, np.vstack([kept, block]))
    assert np.abs(factor.qt @ factor.qt.T - np.eye(3)).max() <= 1e-15


@pytest.mark.parametrize("in_run", [True, False])
def test_row_filter_ranks_a_block_with_a_nan_inverse_row_by_row(monkeypatch, in_run):
    # A NaN in the block's R^-1 fails the certificate's bound, whose
    # comparison declines a NaN, with no exception and no warning under
    # run's errstate or outside it: the block's rows are ranked one at a
    # time, and the kept rows are the greedy ones.
    kept, block = _guarded([[0.0, 0.0, 0.0, 1.0]], [[1.0, 2.0, 0.0, 0.0], [0.0, 1.0, 3.0, 0.5]])
    tol = 1e-6
    reference = _greedy_reference(np.vstack([kept, block]), tol)

    def poisoned(P):
        qt, inverse = _cholesky_qr2(P)
        inverse[-1, -1] = np.nan
        return qt, inverse

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        factor = _filtered(kept, tol)
        calls = _traced_filter(monkeypatch)
        monkeypatch.setattr("singular_lq.algorithm._cholesky_qr2", poisoned)
        if in_run:
            with np.errstate(over="raise", invalid="raise"):
                _independent_rows_array(block, tol, factor)
        else:
            _independent_rows_array(block, tol, factor)
        monkeypatch.undo()
    assert calls == [[1, 2, False, []], [1, 1, True, []], [2, 1, True, []]]
    assert np.array_equal(factor.rows, reference)
    assert np.isfinite(factor.inv_r).all() and np.isfinite(factor.inv_norm)


def test_family1_levels_are_certified_without_an_svd_of_r(monkeypatch):
    # Every family-1 block is a multi-row one whose rows all add rank: each
    # is certified from the R^-1 the factor carries on, so no SVD of R runs.
    # CholeskyQR2 factors every block, so the run finishes with np.linalg.qr
    # unavailable and carries an orthonormal row basis.
    n, delta = 40, 1e-9
    problem = _perturbed_problem(1, _exact_problem(1, n, 1), delta, _cell_rng(1, 1, n, delta, 0))

    def no_qr(*args, **kwargs):
        raise AssertionError("the row filter takes no Householder QR")

    monkeypatch.setattr(np.linalg, "qr", no_qr)
    calls = _traced_filter(monkeypatch)
    result = run(problem, 1e-6)
    monkeypatch.undo()
    assert result.rank_history == [(1, n), (0, 2 * n - 1), (n - 1, 3 * n - 2)]
    assert calls == [[0, n, True, []], [n, n - 1, True, []], [2 * n - 1, n - 1, True, []]]
    basis = result.row_basis
    assert np.abs(basis.T @ basis - np.eye(3 * n - 2)).max() <= 1e-14


def _replayed_runs():
    """Seeded small problems at three tolerances, then family cells at n <= 60."""
    rng = np.random.default_rng(79)
    for make in (uniform_problem, _halves_problem, _rank_one_problem):
        for _ in range(100):
            problem = make(rng, n_max=6, m_max=5)
            for tol in (1e-6, 1e-9, 1e-12):
                yield run(problem, tol)
    for family, sizes in ((1, (2, 5, 10, 20, 40)), (2, (1, 5, 20)), (3, (2, 8, 20, 60))):
        for n in sizes:
            problem = _exact_problem(family, n, 0)
            yield run(problem, 1e-6)
            for delta in (1e-9, 1e-7, 1e-5):
                rng = _cell_rng(0, family, n, delta, 0)
                yield run(_perturbed_problem(family, problem, delta, rng), 1e-6)


def test_row_filter_replays_the_stacked_rank_decisions(monkeypatch):
    # Each level's phi rank is the SVD rank of the phi kept so far stacked
    # on the level's raw block, and the carried row basis spans phi. The
    # n = 40 and 60 cells decide most of their blocks and rows by projection,
    # with no stacked SVD.
    calls = _traced_filter(monkeypatch)
    levels = 0
    for result in _replayed_runs():
        history = result.rank_history
        for j in range(1, len(history)):
            stacked = np.vstack([result.phi.rows[: history[j - 1][1]], result.blocks[j].rows])
            assert _svd_rank(stacked, result.tol) == history[j][1]
            levels += 1
        basis = result.row_basis
        assert basis.shape == (result.phi.width, result.codim)
        assert np.abs(basis.T @ basis - np.eye(result.codim)).max(initial=0.0) <= 1e-14
        reference = Subspace(np.linalg.qr(result.phi.rows.T)[0])
        assert max_principal_angle(Subspace(basis), reference) <= 1e-12
    assert levels >= 700
    # A block declined whole is no decision: its rows are.
    assert sum(not shapes for _, k, out, shapes in calls if out or k == 1) >= 100


def test_row_basis_has_a_positive_r_diagonal():
    # One sign convention for the carried factor phi' = Q R: every r_jj =
    # q_j' phi_j is positive, for blocks CholeskyQR2 appends whole and for
    # rows appended one at a time alike.
    rng = np.random.default_rng(149)
    results = [run(_rank_one_problem(rng), tol) for _ in range(40) for tol in (1e-6, 1e-9)]
    for family in (1, 2, 3):
        for n in (3, 8, 20):
            problem = _exact_problem(family, n, 0)
            results.append(run(problem, 1e-6))
            for delta in (1e-9, 1e-5):
                rng = _cell_rng(0, family, n, delta, 0)
                results.append(run(_perturbed_problem(family, problem, delta, rng), 1e-6))
    diagonals = [np.einsum("ij,ji->i", r.phi.rows, r.row_basis) for r in results]
    assert all((diagonal > 0).all() for diagonal in diagonals)
    assert sum(diagonal.size for diagonal in diagonals) >= 500


def _greedy_reference(rows, tol):
    """Plain greedy pass: keep a row iff the kept rows stacked on it rank higher."""
    kept = rows[:0]
    for row in rows:
        candidate = np.vstack([kept, row])
        if np.count_nonzero(np.linalg.svd(candidate, compute_uv=False) > tol) > kept.shape[0]:
            kept = candidate
    return kept


def test_row_filter_matches_a_plain_greedy_reference(monkeypatch):
    # About 60 rows of width 200 fed level by level to a filter that starts
    # from zero rows: fresh rows, exact combinations of earlier fresh rows,
    # and combinations moved 1e-7 (kept) or 1e-12 (dropped) off them, at
    # tol 1e-9, with two zero-row levels. Blocks that add part of their
    # rows are declined whole and ranked one row at a time. The last level
    # is one row whose stacked s_min is about 1.2e-9 while the certificate's lower
    # bound is about 0.85e-9, so the stacked SVD decides, and the row still
    # enters the factor by projection.
    rng = np.random.default_rng(101)
    tol, width = 1e-9, 200
    fresh, blocks = np.zeros((0, width)), []
    for k in (6, 1, 0, 4, 1, 1, 8, 1, 3, 0, 1, 10, 2, 1, 1, 12, 1, 5):
        block = np.empty((k, width))
        for i in range(k):
            kind = int(rng.integers(4)) if fresh.shape[0] else 0
            if kind == 0:
                block[i] = rng.standard_normal(width)
                fresh = np.vstack([fresh, block[i]])
            else:
                block[i] = rng.standard_normal(fresh.shape[0]) @ fresh / np.sqrt(fresh.shape[0])
                block[i] += (0.0, 0.0, 1e-7, 1e-12)[kind] * rng.standard_normal(width)
        blocks.append(block)
    # x' phi + s u with x and u unit, u orthogonal to phi's rows: G = x, so
    # the bound is about s / 2 and the stacked s_min about s / sqrt(2).
    kept = _greedy_reference(np.vstack(blocks), tol)
    basis = np.linalg.qr(kept.T)[0]
    u = rng.standard_normal(width)
    for _ in range(2):
        u -= basis @ (basis.T @ u)
    x = rng.standard_normal(kept.shape[0])
    blocks.append(((x / np.linalg.norm(x)) @ kept + 1.7e-9 * u / np.linalg.norm(u))[None, :])
    rows = np.vstack(blocks)
    reference = _greedy_reference(rows, tol)

    calls = _traced_filter(monkeypatch)
    factor, partial = _RowFactor(width, width), 0
    for block in blocks:
        before, c, first = factor, factor.rows.shape[0], len(calls)
        factor = _independent_rows_array(block, tol, before)
        assert factor is before
        gained, k = factor.rows.shape[0] - c, block.shape[0]
        level = calls[first:]
        if k > 1 and not level[0][2]:
            # The whole block declined with no SVD, then each of its rows.
            assert level[0] == [c, k, False, []] and [rows for _, rows, _, _ in level[1:]] == [1] * k
            partial += 0 < gained < k
        assert gained == sum(rows for _, rows, out, _ in level if out)
    monkeypatch.undo()
    assert calls[0][0] == 0 and partial >= 3
    assert _one_row_svds_only(calls, width)
    assert calls[-1] == [kept.shape[0], 1, True, [(kept.shape[0] + 1, width)]]
    assert factor.rows.shape[0] == kept.shape[0] + 1
    assert 20 <= reference.shape[0] < rows.shape[0] and np.array_equal(factor.rows, reference)

    phi = ConstraintMatrix(rows=rows, n=50, m=100)
    once = independent_rows(phi, tol)
    assert np.array_equal(once.rows, reference)
    assert np.array_equal(independent_rows(once, tol).rows, once.rows)
    basis = factor.qt.T
    assert np.abs(basis.T @ basis - np.eye(basis.shape[1])).max() <= 1e-14
    # The basis holds every kept row to rounding.
    held = (reference @ basis) @ basis.T
    assert np.abs(reference - held).max() <= 1e-14 * np.abs(reference).max()
    # phi's rows are near dependent (cond about 3e10), so no basis or R^-1
    # computed from them in double is within 1e-12 of another: LAPACK's QR
    # and SVD bases of these rows are 3.5e-6 apart, and LAPACK's inverse of
    # the carried R misses the identity by 6.4e-4. The carried factor is
    # held to those: its basis is 2.9e-6 from the QR's, and its R^-1 leaves
    # a residual of 6.2e-7.
    qr = Subspace(np.linalg.qr(reference.T)[0])
    spread = max_principal_angle(qr, Subspace(np.linalg.svd(reference, full_matrices=False)[2].T))
    assert spread > 1e-12
    assert max_principal_angle(Subspace(basis.copy()), qr) <= 2.0 * spread
    upper = basis.T @ reference.T
    direct = np.abs(np.linalg.inv(np.triu(upper)) @ upper - np.eye(basis.shape[1])).max()
    assert 1e-12 < direct
    assert np.abs(factor.inv_r @ upper - np.eye(basis.shape[1])).max() <= direct


# ---------------------------------------------------------------- run


def test_run_experiment2_structure():
    for n in (1, 3, 40):
        result = run(gen_experiment2(n), tol=1e-6)
        assert result.steps == 3
        assert result.codim == 3
        assert result.halt_reason == FEEDBACK
    result = run(gen_experiment2(3), tol=1e-6)
    assert result.rank_history == [(0, 1), (0, 2), (1, 3)]


def test_run_experiment2_kernel_equations():
    n = 3
    result = run(gen_experiment2(n), tol=1e-6)
    basis = final_submanifold(result)
    assert basis.shape == (2 * n + 1, 4)
    for col in basis.T:
        x, p, u = col[:n], col[n:2 * n], col[2 * n:]
        assert abs(x.sum()) <= 1e-10
        assert abs(p.sum()) <= 1e-10
        assert np.abs(u).max() <= 1e-10


def test_run_experiment3_index_growth():
    assert run(gen_experiment3(2), tol=1e-9).steps == 2
    result = run(gen_experiment3(5), tol=1e-9)
    assert result.steps == 5
    assert result.codim == 5
    assert result.halt_reason == STAGNATION
    assert all(rho_rank == 0 for rho_rank, _ in result.rank_history)


def test_run_factorises_each_matrix_once(monkeypatch):
    # Family 3 at n = 40: 40 levels of one-row blocks, each with a 1 x 1 rho
    # and one rank check of the grown phi, plus the final null space.
    n = 40
    problem = gen_experiment3(n)
    calls = shapes_of_calls(monkeypatch, np.linalg, "svd")
    result = run(problem, tol=1e-6)
    final_submanifold(result)
    assert result.steps == n
    assert len(calls) <= 2 * n + 4


def test_family3_run_takes_no_svd(monkeypatch):
    # Hold regime: the perturbed R stays under tol and all n levels run. Each
    # 1 x 1 rho is within tol in norm, so it is not split, and each one-row
    # block is ranked by its projection off phi: no level reaches LAPACK's SVD.
    n, delta = 40, 1e-9
    problem = _perturbed_problem(3, gen_experiment3(n), delta, _cell_rng(1, 3, n, delta, 0))

    def no_svd(*args, **kwargs):
        raise AssertionError("a one-row level needs no SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    if hasattr(np.linalg, "_linalg"):  # numpy >= 2: the module behind np.linalg
        monkeypatch.setattr(np.linalg._linalg, "svd", no_svd)
    result = run(problem, tol=1e-6)
    # The last of the n + 1 levels adds no rank, and the recursion stagnates.
    assert (result.steps, result.codim, result.halt_reason) == (n, n, STAGNATION)
    assert [rho_rank for rho_rank, _ in result.rank_history] == [0] * (n + 1)


def test_rank_zero_levels_pass_their_derivative_on_unrotated(monkeypatch):
    # A rho within tol in norm has rank 0 and takes no split: the level
    # records the identity selector and its derivative is the next block,
    # to the byte. Family 3 at hold is rank 0 at every level.
    tol = 1e-6
    n, delta = 30, 1e-9
    problem = _perturbed_problem(3, gen_experiment3(n), delta, _cell_rng(1, 3, n, delta, 0))
    shapes = shapes_of_calls(monkeypatch, algorithm, "_split")
    result = run(problem, tol)
    assert shapes == []
    assert len(result.selectors) == n
    assert all(selector.tobytes() == np.array([[1.0]]).tobytes() for selector in result.selectors)
    for previous, block in zip(result.blocks, result.blocks[1:]):
        assert block.rows.tobytes() == _derivative(previous, problem).tobytes()
    # Family 1: level 2's rho is within tol in norm; levels 1 and 3 are split.
    n = 20
    problem = _perturbed_problem(1, _exact_problem(1, n, 1), delta, _cell_rng(1, 1, n, delta, 0))
    shapes.clear()
    result = run(problem, tol)
    # The run's own splits, before a read of its blocks replays them.
    assert shapes == [(n, n), (n - 1, n)]
    level2 = result.blocks[1]
    assert [rank for rank, _ in result.rank_history] == [1, 0, n - 1]
    assert np.linalg.norm(level2.rho) <= tol
    assert np.array_equal(result.selectors[1], np.eye(n - 1))
    assert result.blocks[2].rows.tobytes() == _derivative(level2, problem).tobytes()
    for k, block in enumerate(result.blocks, start=1):
        rebuilt = theorem2_blocks(problem, result.selectors, k)
        assert np.abs(rebuilt.rows - block.rows).max() <= 1e-10 * max(1.0, np.abs(block.rows).max())


def test_a_split_of_rank_zero_passes_its_derivative_on_unrotated(monkeypatch):
    # rho = -R, R = 0.8 tol times a symmetric reflection, is above tol in norm,
    # so it is split, and its values are not: the same identity selector and
    # unrotated block, though LAPACK's U is no identity here.
    tol = 1e-6
    rng = np.random.default_rng(137)
    g = lambda *shape: rng.uniform(-1.0, 1.0, shape)
    q = g(3, 3)
    reflection = np.array([[0.6, 0.8], [0.8, -0.6]])
    problem = validate(g(3, 3), g(3, 2), q + q.T, g(3, 2), 0.8 * tol * reflection)
    shapes = shapes_of_calls(monkeypatch, algorithm, "_split")
    result = run(problem, tol)
    assert shapes[0] == (2, 2) and result.rank_history[0][0] == 0
    assert not np.allclose(np.abs(np.linalg.svd(problem.R)[0]), np.eye(2))
    assert np.array_equal(result.selectors[0], np.eye(2))
    assert result.blocks[1].rows.tobytes() == _derivative(result.blocks[0], problem).tobytes()


def test_run_regular_r_is_single_step():
    rng = np.random.default_rng(31)
    problem = validate(
        rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 2)),
        np.eye(3), rng.uniform(-1, 1, (3, 2)), np.eye(2),
    )
    result = run(problem, tol=1e-6)
    assert result.steps == 1
    assert result.halt_reason == FEEDBACK
    assert np.array_equal(result.phi.rows, primary_constraint(problem).rows)
    # rho is full rank: nothing is propagated past the primary block.
    assert len(result.blocks) == 1 and result.selectors == []


def test_regular_feedback_decides_the_rank_of_r_in_the_shared_helper(monkeypatch):
    # One relative-rank call per verdict at the fixed cut 1e-12, agreeing
    # with s_min <= 1e-12 s_max on both sides of it; a zero R reads as rank 0.
    calls = []

    def spy(M, tol, relative=False):
        calls.append((tol, relative))
        return _svd_rank(M, tol, relative)

    monkeypatch.setattr("singular_lq.algorithm._svd_rank", spy)
    eye = np.eye(2)
    for small in (0.0, 1e-13, 1e-11, 1e-7, 1e-5, 1.0):
        problem = validate(eye, eye, eye, np.zeros((2, 2)), np.diag([3.0, 3.0 * small]))
        assert (regular_feedback(problem) is None) == (small <= 1e-12)
    assert calls == [(1e-12, True)] * 6


def test_run_no_effective_constraints():
    # B = N = R = 0: the primary block is all zero, nothing ever binds
    z = np.zeros((2, 1))
    problem = validate(np.eye(2), z, np.eye(2), z, np.zeros((1, 1)))
    result = run(problem, tol=1e-6)
    assert result.steps == 1
    assert result.codim == 0
    assert result.halt_reason == STAGNATION
    assert np.array_equal(final_submanifold(result), np.eye(5))


def test_run_rejects_bad_tol():
    # NaN fails every comparison, so a bare tol <= 0 check would let it through.
    problem = gen_experiment2(2)
    result = run(problem, tol=1e-6)
    for tol in (-1e-6, np.nan, np.inf, -np.inf):
        for call in (
            lambda: run(problem, tol=tol),
            lambda: svd_split(np.eye(2), tol),
            lambda: independent_rows(result.phi, tol),
            lambda: final_submanifold(result, tol),
        ):
            with pytest.raises(ValueError):
                call()


def _scaled_problem(problem, scale):
    """The problem with B, Q, N and R multiplied by scale."""
    return validate(problem.A, scale * problem.B, scale * problem.Q, scale * problem.N,
                    scale * problem.R)


def test_run_raises_when_a_level_overflows(monkeypatch):
    # Level 2 multiplies two entries of 1e200. Unchecked, run ranked the inf
    # and NaN rows that follow and returned steps=1, stagnation.
    with pytest.raises(FloatingPointError):
        run(validate([[1e200]], [[1e200]], [[1e200]], [[0.0]], [[0.0]]))
    with pytest.raises(FloatingPointError):
        run(_scaled_problem(_exact_problem(1, 5, 0), 1e150), tol=1e-6 * 1e150)
    # Family 2 at 1e100 stays finite and keeps every level.
    base = run(gen_experiment2(5), tol=1e-6)
    result = run(_scaled_problem(gen_experiment2(5), 1e100), tol=1e-6 * 1e100)
    assert result.rank_history == base.rank_history == [(0, 1), (0, 2), (1, 3)]
    assert (result.steps, result.halt_reason) == (base.steps, base.halt_reason)
    # This run stalls at level 2, whose own derivative overflows: a level's
    # derivative is taken before the stop test, so the last level raises,
    # with the lookahead and one level at a time.
    stalled = validate([[1e200]], [[1.0]], [[0.0]], [[0.0]], [[0.0]])
    for batch in (algorithm._BATCH, 1):
        monkeypatch.setattr(algorithm, "_BATCH", batch)
        with pytest.raises(FloatingPointError):
            run(stalled)


def _filtered_run(problem, tol=1e-6):
    """run(problem, tol), and the row arrays its loop offered the row filter,
    level by level: each level's rows, or each row of a stack appended whole."""
    offered = []
    independent_rows_array = algorithm._independent_rows_array
    batch_appended = algorithm._batch_appended

    def filter_spy(M, tol, factor):
        offered.append(M)
        return independent_rows_array(M, tol, factor)

    def batch_spy(level_rows, tol, factor):
        appended = batch_appended(level_rows, tol, factor)
        offered.extend(level_rows if appended else [])
        return appended

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algorithm, "_independent_rows_array", filter_spy)
        patch.setattr(algorithm, "_batch_appended", batch_spy)
        return run(problem, tol), offered


def _outcome(problem, tol=1e-6):
    """What run decides, with phi and the rows its loop offered the row filter
    as shapes and bytes, or the FloatingPointError it raised. The blocks the
    result replays must be those rows, to the byte."""
    try:
        result, offered = _filtered_run(problem, tol)
    except FloatingPointError:
        return FloatingPointError
    offered = [(rows.shape, rows.tobytes()) for rows in offered]
    assert [(block.rows.shape, block.rows.tobytes()) for block in result.blocks] == offered
    return (result.rank_history, result.steps, result.codim, result.halt_reason,
            [(result.phi.rows.shape, result.phi.rows.tobytes()), *offered])


def _batches(monkeypatch):
    """One entry per block of several levels the lookahead offers the row
    filter from here on: (phi's rank before it, its rows, whether it was appended)."""
    original, batches = algorithm._batch_appended, []

    def spy(level_rows, tol, factor):
        rank, appended = factor.rank, original(level_rows, tol, factor)
        if len(level_rows) > 1:
            batches.append((rank, len(level_rows), appended))
        return appended

    monkeypatch.setattr(algorithm, "_batch_appended", spy)
    return batches


def test_lookahead_changes_no_decision(monkeypatch):
    # The families, exact and perturbed, and random problems: run with the
    # lookahead and with one level at a time (_BATCH = 1) records the same
    # ranks, steps, codim and halt, and the same phi, and its loop offers
    # the row filter the same rows, to the byte: the blocks the result
    # replays.
    rng = np.random.default_rng(151)
    problems = []
    for family, n in ((1, 5), (1, 20), (2, 5), (2, 25), (3, 5), (3, 40), (3, 80)):
        exact = _exact_problem(family, n, 0)
        problems.append(exact)
        problems += [_perturbed_problem(family, exact, delta, _cell_rng(2, family, n, delta, trial))
                     for delta in (1e-9, 1e-5) for trial in range(2)]
    problems += [make(rng) for make in (uniform_problem, _rank_one_problem) for _ in range(40)]
    batches = _batches(monkeypatch)
    ahead = [_outcome(problem, tol) for problem in problems for tol in (1e-6, 1e-9)]
    monkeypatch.setattr(algorithm, "_BATCH", 1)
    assert [_outcome(problem, tol) for problem in problems for tol in (1e-6, 1e-9)] == ahead
    appended = sum(whole for _, _, whole in batches)
    assert appended >= 50 and len(batches) > appended


def test_family3_declines_only_the_batch_that_holds_the_dependent_row(monkeypatch):
    # Exact family 3 at n = 40: 41 one-row levels of rank 0, whose last row
    # adds no rank. The lookahead appends levels 1-16 and 17-32 whole; the
    # batch from level 33 on holds level 41 and is declined, and its levels
    # are ranked one at a time up to the stall.
    batches, factors = _batches(monkeypatch), []

    def spy(M, tol, factor):
        factors.append(factor)
        return _appended(M, tol, factor)

    monkeypatch.setattr(algorithm, "_appended", spy)
    result = run(gen_experiment3(40), 1e-6)
    assert (result.steps, result.codim, result.halt_reason) == (40, 40, STAGNATION)
    assert batches == [(0, algorithm._BATCH, True), (16, 16, True), (32, 16, False)]
    rank, rows, _ = batches[-1]
    assert rank < len(result.rank_history) <= rank + rows
    # The factor keeps each appended stack as one array, and levels 33-40 a row each.
    assert [kept.shape for kept in factors[-1].kept] == [(16, 81)] * 2 + [(1, 81)] * 8


@pytest.mark.parametrize("args, overflows", [
    # Width 3: the lookahead takes levels 1-3, and level 5's row overflows.
    (([[1e100]], [[1.0]], [[0.0]], [[0.0]], [[0.0]]), True),
    # Width 7: level 5's row overflows while the lookahead derives it.
    ((1e100 * np.eye(3), np.ones((3, 1)), np.zeros((3, 3)), np.zeros((3, 1)), [[0.0]]), True),
    # Rows of norm 1.5e308: the stack's norm overflows inside the row filter.
    (([[1.0]], [[1.5e308]], [[0.0]], [[0.0]], [[0.0]]), False),
])
def test_lookahead_never_raises_past_the_stall(monkeypatch, args, overflows):
    # Each problem stalls at level 2, and a level or a stack beyond it
    # overflows. An overflow while the lookahead derives ends it, and one
    # while the filter takes the stack declines the stack: the run stops
    # where one level at a time stops, and raises nothing.
    problem = validate(*args)
    result = run(problem)
    assert (result.steps, result.codim, result.halt_reason) == (1, 1, STAGNATION)
    assert result.rank_history == [(0, 1), (0, 1)]
    if overflows:
        block = result.blocks[-1]
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            for _ in range(3):
                block = ConstraintMatrix(_derivative(block, problem), problem.n, problem.m)
    monkeypatch.setattr(algorithm, "_BATCH", 1)
    assert _outcome(problem) == _outcome(validate(*args))


def _scaled_one_row_problem(rng):
    """m = 1 and R = 0, with entries scaled by up to 1e120: rows that grow
    by ||A|| a level until they overflow. Two thirds keep rho at zero on
    every level, as family 3 does: N = B with Q = A + A', or N = Q = 0."""
    n = int(rng.integers(1, 4))
    g = lambda *shape: rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.uniform(0.0, 120.0)
    A, B = g(n, n), g(n, 1)
    kind = rng.integers(3)
    if kind == 0:
        Q, N = A + A.T, B.copy()
    elif kind == 1:
        Q, N = np.zeros((n, n)), np.zeros((n, 1))
    else:
        q = g(n, n)
        Q, N = q + q.T, g(n, 1)
    return validate(A, B, Q, N, [[0.0]])


def test_lookahead_raises_only_where_one_level_at_a_time_does(monkeypatch):
    rng = np.random.default_rng(163)
    problems = [_scaled_one_row_problem(rng) for _ in range(300)]
    ahead = [_outcome(problem) for problem in problems]
    monkeypatch.setattr(algorithm, "_BATCH", 1)
    single = [_outcome(problem) for problem in problems]
    assert ahead == single
    assert 10 <= single.count(FloatingPointError) <= 290


def test_run_splits_one_derivative_per_level():
    # Each level's derivative, one (c, 2n + m) matrix, is split by U': the
    # u_top rows are the level's determined relations, one group for each
    # level of rank above 0, the u_bottom rows the next block, to the byte.
    # A rank-0 level records the identity selector and passes its
    # derivative on unrotated.
    rng = np.random.default_rng(59)
    tol = 1e-9
    checked = unrotated = 0
    for _ in range(60):
        problem = uniform_problem(rng) if rng.integers(2) else _halves_problem(rng)
        result = run(problem, tol)
        relations = list(_feedback_relations(result))
        ranked = [k for k, (rank, _) in enumerate(result.rank_history, 1) if rank]
        assert [level for level, *_ in relations] == ranked
        for level, rate, drift in relations:
            block = result.blocks[level - 1]
            split = _split(block.rho, tol, False)
            assert rate.shape[0] == result.rank_history[level - 1][0]
            assert rate.tobytes() == (split.u_top @ block.rho).tobytes()
            assert drift.tobytes() == (split.u_top @ _derivative(block, problem)).tobytes()
            checked += 1
        levels = zip(result.blocks, result.blocks[1:], result.selectors, result.rank_history)
        for block, following, selector, (rank, _) in levels:
            deriv = _derivative(block, problem)
            if rank:
                assert selector.tobytes() == _split(block.rho, tol, False).u_bottom.tobytes()
                expected = selector @ deriv
            else:
                assert np.array_equal(selector, np.eye(block.rows.shape[0]))
                expected = deriv
                unrotated += 1
            assert following.rows.shape == expected.shape
            assert following.rows.tobytes() == expected.tobytes()
    assert checked >= 30 and unrotated >= 10


def _manual_trace(problem, tol):
    """The published loop replayed piece by piece, with the absolute rank and
    split that run calls: (rank_history, steps, halt_reason)."""
    block = primary_constraint(problem)
    phi = independent_rows(block, tol)
    history = [(_svd_rank(block.rho, tol), _svd_rank(phi.rows, tol))]
    l, p, k = problem.m, 0, 1
    while history[-1][0] < l and history[-1][1] > p:
        k += 1
        p = history[-1][1]
        l = block.rho.shape[0]
        split = _split(block.rho, tol, False)
        if split.rank == l:
            halt = FEEDBACK  # the new block would be empty
            break
        rows = split.u_bottom @ _derivative(block, problem)
        block = ConstraintMatrix(rows=rows, n=problem.n, m=problem.m)
        phi = independent_rows(
            ConstraintMatrix(rows=np.vstack([phi.rows, block.rows]),
                             n=problem.n, m=problem.m), tol,
        )
        history.append((_svd_rank(block.rho, tol), _svd_rank(phi.rows, tol)))
    else:
        halt = FEEDBACK if history[-1][0] >= l else STAGNATION
    if history[-1][1] <= p:
        k -= 1
    return history, max(k, 1), halt


def _stalled_full_split_problem():
    """n = 1, m = 3 with half-integer data: the second level's one row is
    split fully while phi gains no rank, rank_history [(2, 3), (1, 3)]."""
    return validate([[0.0]], [[0.0, -0.5, -0.5]], [[2.0]], [[-0.5, -1.0, -0.5]],
                    [[0.0, 0.5, 0.5], [0.5, -2.0, -1.0], [0.5, -1.0, 0.0]])


def test_run_matches_manual_pseudocode_trace():
    rng = np.random.default_rng(37)
    problems = [make(rng) for make in (uniform_problem, _halves_problem, _rank_one_problem)
                for _ in range(30)]
    exits = set()
    for problem in problems + [_stalled_full_split_problem()]:
        result = run(problem, tol=1e-9)
        history, steps, halt = _manual_trace(problem, 1e-9)
        assert (result.rank_history, result.steps, result.halt_reason) == (history, steps, halt)
        r, rows = history[-1][0], result.blocks[-1].rows.shape[0]
        prev_rows = result.blocks[-2].rows.shape[0] if len(result.blocks) > 1 else problem.m
        exits.add("regular" if r >= prev_rows else (halt, r == rows))
    # Every exit: rho regular against the previous level's rows, an empty
    # next block, and phi stalling with a partial or a full split.
    assert exits == {"regular", (FEEDBACK, True), (STAGNATION, False), (STAGNATION, True)}
    assert run(_stalled_full_split_problem(), 1e-9).rank_history == [(2, 3), (1, 3)]


def test_run_monotonicity_bounds():
    rng = np.random.default_rng(43)
    for _ in range(100):
        problem = uniform_problem(rng)
        result = run(problem, tol=1e-9)
        phi_ranks = [r for _, r in result.rank_history]
        assert all(b >= a for a, b in zip(phi_ranks, phi_ranks[1:]))
        assert 1 <= result.steps <= 2 * problem.n + problem.m + 1
        assert result.codim == result.phi.rows.shape[0]
        assert result.codim == _svd_rank(result.phi.rows, 1e-9)


def test_run_output_invariant_under_control_rotation():
    # u -> V'u maps (B, N, R) to (BV, NV, V'RV) and ker(phi) by blkdiag(I, I, V')
    rng = np.random.default_rng(47)
    for _ in range(20):
        n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        g = lambda r, c: rng.uniform(-1.0, 1.0, (r, c))
        sym = lambda k: (lambda M: (M + M.T) / 2.0)(g(k, k))
        R = np.zeros((m, m)) if rng.integers(2) else sym(m)
        problem = validate(g(n, n), g(n, m), sym(n), g(n, m), R)
        V, _ = np.linalg.qr(rng.standard_normal((m, m)))
        rotated = validate(
            problem.A, problem.B @ V, problem.Q, problem.N @ V,
            (V.T @ problem.R @ V + (V.T @ problem.R @ V).T) / 2.0,
        )
        base = run(problem, tol=1e-9)
        other = run(rotated, tol=1e-9)
        assert other.codim == base.codim
        T = np.zeros((2 * n + m, 2 * n + m))
        T[: 2 * n, : 2 * n] = np.eye(2 * n)
        T[2 * n:, 2 * n:] = V.T
        mapped = np.linalg.qr(T @ final_submanifold(base))[0]
        angle = max_principal_angle(Subspace(mapped), Subspace(final_submanifold(other)))
        assert angle <= 1e-8


def test_run_invariant_under_state_rotation():
    # x -> Tx (and p -> Tp) maps (A, B, Q, N) to (TAT', TB, TQT', TN), phi's
    # rows by blkdiag(T', T', I) and ker(phi) by blkdiag(T, T, I).
    rng = np.random.default_rng(107)
    problems = [make(rng, n_max=6, m_max=4) for make in
                (uniform_problem, _halves_problem, _rank_one_problem) for _ in range(12)]
    problems += [_exact_problem(family, n, 0) for family, n in ((1, 5), (2, 6), (3, 8))]
    for problem in problems:
        n, m = problem.n, problem.m
        T, _ = np.linalg.qr(rng.standard_normal((n, n)))
        sym = lambda M: (M + M.T) / 2.0
        rotated = validate(T @ problem.A @ T.T, T @ problem.B, sym(T @ problem.Q @ T.T),
                           T @ problem.N, problem.R)
        for tol in (1e-6, 1e-9):
            base, other = run(problem, tol), run(rotated, tol)
            assert other.rank_history == base.rank_history
            assert (other.steps, other.codim) == (base.steps, base.codim)
            lift = np.eye(2 * n + m)
            lift[:n, :n] = lift[n:2 * n, n:2 * n] = T
            mapped = Subspace(lift @ final_submanifold(base))
            assert max_principal_angle(mapped, Subspace(final_submanifold(other))) <= 1e-8


def test_run_constraint_stability_on_kernel():
    # on ker(phi), with udot from the recorded feedback, every row of phi
    # has vanishing derivative along the dynamics
    rng = np.random.default_rng(53)
    checked = 0
    for _ in range(60):
        problem = uniform_problem(rng)
        result = run(problem, tol=1e-9)
        basis = final_submanifold(result)
        if result.codim == 0 or basis.shape[1] == 0:
            continue
        checked += 1
        A, B, Q, N = problem.A, problem.B, problem.Q, problem.N
        n, m = problem.n, problem.m
        drift = np.zeros((result.codim, 2 * n + m))
        drift[:, :n] = result.phi.sigma @ A + result.phi.beta @ Q
        drift[:, n:2 * n] = -result.phi.beta @ A.T
        drift[:, 2 * n:] = result.phi.sigma @ B + result.phi.beta @ N
        L = feedback_rate_map(result)
        residual = (result.phi.rho @ L + drift) @ basis
        scale = max(1.0, np.abs(result.phi.rows).max(),
                    *(np.abs(M).max() for M in (A, B, Q, N)))
        assert np.abs(residual).max() <= 1e-8 * scale
    assert checked >= 40


def test_feedback_rate_map_is_zero_without_determined_directions():
    # Unperturbed family 3 has a zero rho at every level: udot is pure gauge.
    problem = gen_experiment3(6)
    result = run(problem, tol=1e-9)
    assert list(_feedback_relations(result)) == []
    width = 2 * problem.n + problem.m
    assert np.array_equal(feedback_rate_map(result), np.zeros((problem.m, width)))


def _dependent_feedback_problem():
    """n = 1, m = 2 with rank-one B, N and R: each level's rho split is full,
    but the two levels' rate rows are parallel."""
    rng = np.random.default_rng(0)
    A, Q = rng.uniform(-1, 1, (1, 1)), rng.uniform(-1, 1, (1, 1))
    B = np.outer(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 2))
    N = np.outer(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 2))
    r = rng.uniform(-1, 1, 2)
    return validate(A, B, Q, N, np.outer(r, r))


def _stacked_feedback(result):
    _, rates, drifts = zip(*_feedback_relations(result))
    return np.vstack(rates), np.vstack(drifts)


def test_dependent_feedback_rows_halt_with_feedback():
    result = run(_dependent_feedback_problem(), tol=1e-9)
    assert result.rank_history == [(1, 2), (1, 3)]
    assert result.halt_reason == FEEDBACK
    rate, _ = _stacked_feedback(result)
    assert rate.shape == (2, 2)
    assert numerical_rank(rate, 1e-9) == 1


@pytest.mark.xfail(
    strict=True,
    reason="run halts on each level's own rho split, so stacked rate rows can be "
    "rank-deficient and the feedback relations inconsistent on the final "
    "submanifold (CHANGES.md, FOUND line on run's FEEDBACK halt)",
)
def test_feedback_rate_map_satisfies_every_relation_on_dependent_rows():
    result = run(_dependent_feedback_problem(), tol=1e-9)
    rate, drift = _stacked_feedback(result)
    residual = (rate @ feedback_rate_map(result) + drift) @ final_submanifold(result)
    assert np.abs(residual).max() <= 1e-8


def test_run_matches_exact_rational_recursion():
    rng = np.random.default_rng(61)
    for _ in range(20):
        problem = _halves_problem(rng)
        result = run(problem, tol=1e-9)
        phi_e, steps_e, halt_e, history_e = ro.exact_recursion(*exact_matrices(problem))
        assert result.steps == steps_e
        assert result.halt_reason == halt_e
        assert result.rank_history == history_e
        assert result.codim == (ro.rank(phi_e) if phi_e else 0)


def test_final_submanifold_respects_explicit_tol():
    result = run(gen_experiment2(3), tol=1e-6)
    assert final_submanifold(result).shape == final_submanifold(result, 1e-6).shape
    with pytest.raises(ValueError):
        final_submanifold(result, -1.0)


def test_final_submanifold_at_the_run_tol_is_one_qr(monkeypatch):
    # The filter leaves phi with full row rank at the run's tol, so the
    # final subspace needs no rank decision there and no SVD.
    rng = np.random.default_rng(71)
    for make in (uniform_problem, _halves_problem):
        for _ in range(60):
            result = run(make(rng, n_max=6, m_max=5), tol=1e-9)
            rows = result.phi.rows
            with monkeypatch.context() as patch:
                shapes = shapes_of_calls(patch, np.linalg, "svd")
                basis = final_submanifold(result)
            assert shapes == []
            assert basis.shape == (result.phi.width, result.phi.width - result.codim)
            assert np.abs(basis.T @ basis - np.eye(basis.shape[1])).max(initial=0.0) <= 1e-14
            scale = max(1.0, np.abs(rows).max(initial=0.0))
            assert np.abs(rows @ basis).max(initial=0.0) <= 1e-14 * scale
            reference = Subspace(_null_basis(rows, result.tol))
            assert max_principal_angle(Subspace(basis), reference) <= 1e-12


def test_final_submanifold_decides_the_rank_at_a_foreign_tol(monkeypatch):
    rng = np.random.default_rng(73)
    checked = 0
    for _ in range(40):
        result = run(uniform_problem(rng, n_max=6, m_max=5), tol=1e-9)
        if result.codim == 0:
            continue
        checked += 1
        smallest = np.linalg.svd(result.phi.rows, compute_uv=False)[-1]
        with monkeypatch.context() as patch:
            shapes = shapes_of_calls(patch, np.linalg, "svd")
            basis = final_submanifold(result, 2.0 * smallest)
        # The null basis comes from the left factor of phi'.
        assert shapes == [result.phi.rows.T.shape]
        assert basis.shape[1] > result.phi.width - result.codim
    assert checked >= 20


@pytest.mark.parametrize(
    "shape, rank", [((0, 3), 0), ((3, 0), 0), ((4, 1), 0), ((4, 1), 1), ((1, 4), 1), ((6, 4), 2)]
)
def test_null_basis_is_an_orthonormal_kernel_at_the_cut(shape, rank):
    # Every M, one column included, is split through LAPACK's left factor of M'.
    rng = np.random.default_rng(79)
    M = rng.uniform(-1.0, 1.0, (shape[0], rank)) @ rng.uniform(-1.0, 1.0, (rank, shape[1]))
    cut = 1e-9
    basis = _null_basis(M, cut)
    assert basis.shape == (shape[1], shape[1] - rank)
    assert np.abs(basis.T @ basis - np.eye(basis.shape[1])).max(initial=0.0) <= 1e-15
    assert np.linalg.svd(M @ basis, compute_uv=False).max(initial=0.0) <= cut


def test_extended_system_chain_contains_recursion_kernel():
    """The exact DAE chain on (x, p, u) refines the recursion's kernel.

    Both stabilize the same constraints, but the chain demands one joint
    udot across all levels while the recursion (faithful to its published
    form) picks a fresh udot per level. On draws where a later rho row
    falls inside already-determined udot directions the chain cuts
    strictly deeper; everywhere else the two agree. With this seed that
    happens exactly once, at a feedback halt.
    """
    rng_seeds = range(50)
    strict = []
    for seed in rng_seeds:
        rng = np.random.default_rng(np.random.SeedSequence([20250813, seed]))
        problem = _halves_problem(rng)
        mats = exact_matrices(problem)
        phi_e, _, halt_e, _ = ro.exact_recursion(*mats)
        abig, bbig = ro.extended_pair(*mats)
        dims, basis, _ = ro.rational_chain(abig, bbig)
        width = 2 * problem.n + problem.m
        dim_recursion = width - (ro.rank(phi_e) if phi_e else 0)
        dim_chain = ro.shape(basis)[1]
        assert dim_chain <= dim_recursion
        if phi_e and dim_chain:
            product = ro.matmul(phi_e, basis)
            assert all(entry == 0 for row in product for entry in row)
        if dim_chain < dim_recursion:
            strict.append((seed, halt_e))
    assert strict == [(26, "feedback")]


def test_float_chain_matches_exact_chain_on_extended_system():
    # The same 50 extended pairs as above: dae_constraint_chain in floats
    # against rational_chain in exact arithmetic, step by step.
    for seed in range(50):
        rng = np.random.default_rng(np.random.SeedSequence([20250813, seed]))
        abig, bbig = ro.extended_pair(*exact_matrices(_halves_problem(rng)))
        dims, basis, steps = ro.rational_chain(abig, bbig)
        dae = LinearDAE(A=ro.to_float(abig), B=ro.to_float(bbig))
        chain, float_steps = dae_constraint_chain(dae)
        assert [c.shape[1] for c in chain] == dims
        assert float_steps == steps
        if dims[-1]:
            exact = np.linalg.qr(ro.to_float(basis))[0]
            assert max_principal_angle(Subspace(chain[-1]), Subspace(exact)) <= 1e-10


def _extended_pair(problem):
    """The pair (diag(I_2n, 0_m), K) of the extended system E zdot = K z, z = (x, p, u).

    K stacks the derivative of the 2n identity rows over (x, p), which is
    the dynamics [[A, 0, B], [Q, -A', N]], on the primary constraint rows.
    """
    n, m = problem.n, problem.m
    identity = ConstraintMatrix(np.eye(2 * n, 2 * n + m), n, m)
    K = np.vstack([_derivative(identity, problem), primary_constraint(problem).rows])
    return LinearDAE(A=np.diag(np.r_[np.ones(2 * n), np.zeros(m)]), B=K)


@pytest.mark.parametrize("family", [1, 2, 3])
def test_float_chain_on_the_extended_pair_matches_run_at_scale(family):
    # The float oracle at n = 100, exact and perturbed. The chain's cuts are
    # 1e-7 times ||E|| = 1 and ||K||, against run's absolute 1e-6: on these
    # families both read the same ranks. The chain ends on run's final
    # submanifold, in as many steps as run counts.
    n = 100
    exact = _exact_problem(family, n, 0)
    perturbed = _perturbed_problem(family, exact, 1e-9, _cell_rng(0, family, n, 1e-9, 0))
    for problem in (exact, perturbed):
        result = run(problem, tol=1e-6)
        chain, steps = dae_constraint_chain(_extended_pair(problem), tol=1e-7)
        basis = final_submanifold(result)
        assert chain[-1].shape == basis.shape
        assert steps == result.steps
        assert max_principal_angle(Subspace(chain[-1]), Subspace(basis)) <= 1e-10
        scale = max(1.0, np.abs(result.phi.rows).max())
        assert np.abs(result.phi.rows @ chain[-1]).max() <= 1e-9 * scale
