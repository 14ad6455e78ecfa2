"""Constraint recursion: rank calls, SVD splitting, filtering, halting.

The heavy cross-checks run against tests/rational_oracle.py, which mirrors
the recursion in exact Fraction arithmetic, so agreement cannot come from a
shared rounding artifact.
"""

import numpy as np
import pytest

import rational_oracle as ro
from singular_lq import (
    FEEDBACK,
    STAGNATION,
    ConstraintMatrix,
    Subspace,
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
    step,
    svd_split,
    validate,
)
from singular_lq.algorithm import (
    _independent_rows_array,
    _null_basis,
    _RowFactor,
    _projected_rank,
    _svd_rank,
)
from singular_lq.experiments import _cell_rng, _exact_problem, _perturbed_problem
from singular_lq.problem import _derivative


def _halves_problem(rng, n_max=4, m_max=4):
    """Random rational problem with entries in {-2,...,2}/2, Q and R symmetric."""
    n, m = int(rng.integers(1, n_max + 1)), int(rng.integers(1, m_max + 1))
    vals = np.arange(-2, 3) / 2.0
    pick = lambda r, c: vals[rng.integers(0, 5, size=(r, c))]
    sym = lambda k: (lambda M: np.triu(M) + np.triu(M, 1).T)(pick(k, k))
    return validate(pick(n, n), pick(n, m), sym(n), pick(n, m), sym(m))


def _uniform_problem(rng, n_max=4, m_max=4):
    n, m = int(rng.integers(1, n_max + 1)), int(rng.integers(1, m_max + 1))
    g = lambda r, c: rng.uniform(-1.0, 1.0, (r, c))
    sym = lambda k: (lambda M: (M + M.T) / 2.0)(g(k, k))
    # leave R singular half the time so both halting branches get exercised
    R = sym(m) if rng.integers(2) else np.zeros((m, m))
    return validate(g(n, n), g(n, m), sym(n), g(n, m), R)


def _rank_one_problem(rng, n_max=4, m_max=4):
    """Random problem whose B, N and R all have rank one."""
    n, m = int(rng.integers(1, n_max + 1)), int(rng.integers(1, m_max + 1))
    g = lambda *shape: rng.uniform(-1.0, 1.0, shape)
    q, r = g(n, n), g(m)
    return validate(g(n, n), np.outer(g(n), g(m)), (q + q.T) / 2.0,
                    np.outer(g(n), g(m)), np.outer(r, r))


def _exact_matrices(problem):
    return [ro.from_float(M) for M in (problem.A, problem.B, problem.Q, problem.N, problem.R)]


# ---------------------------------------------------------------- ranks


def test_numerical_rank_relative_examples():
    assert numerical_rank(np.diag([1.0, 1e-8]), 1e-6) == 1
    assert numerical_rank(np.zeros((3, 3)), 1e-6) == 0
    assert numerical_rank(np.zeros((0, 4)), 1e-6) == 0


def test_numerical_rank_absolute_mode_differs():
    M = np.diag([2e-7, 1e-8])
    assert numerical_rank(M, 1e-6, relative=True) == 2
    assert numerical_rank(M, 1e-6, relative=False) == 0


def test_numerical_rank_rejects_bad_tol():
    with pytest.raises(ValueError):
        numerical_rank(np.eye(2), 0.0)


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


# ---------------------------------------------------------------- step


def test_step_experiment2_levels():
    problem = gen_experiment2(4)
    level1 = primary_constraint(problem)
    split1 = svd_split(level1.rho, 1e-6)
    level2 = step(level1, split1, problem)
    ones = np.ones((1, 4))
    # SVD leaves a sign ambiguity in u_bottom; compare up to one global sign
    sign = np.sign(level2.sigma[0, 0]) or 1.0
    assert np.allclose(sign * level2.sigma, ones, atol=1e-14)
    assert np.allclose(sign * level2.beta, -ones, atol=1e-14)
    assert np.allclose(level2.rho, 0.0, atol=1e-14)

    level3 = step(level2, svd_split(level2.rho, 1e-6), problem)
    assert level3.rho.shape == (1, 1)
    assert np.isclose(abs(level3.rho[0, 0]), 4.0)  # sigma(2) B = n


def test_step_rejects_full_rank_split():
    problem = validate(np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)), np.eye(2))
    block = primary_constraint(problem)
    with pytest.raises(ValueError):
        step(block, svd_split(block.rho, 1e-6), problem)


def test_step_experiment3_power_formula():
    n = 5
    problem = gen_experiment3(n)
    bt, at = problem.B.T, problem.A.T
    block = primary_constraint(problem)
    power = np.eye(n)
    for k in range(1, n):
        block = step(block, svd_split(block.rho, 1e-9), problem)
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


def test_independent_rows_idempotent():
    rng = np.random.default_rng(13)
    rows = np.vstack([rng.uniform(-1, 1, (2, 5)), rng.uniform(-1, 1, (2, 5))])
    rows = np.vstack([rows, rows[0] + rows[1]])  # dependent tail row
    phi = ConstraintMatrix(rows=rows, n=2, m=1)
    once = independent_rows(phi, 1e-9)
    twice = independent_rows(once, 1e-9)
    assert np.array_equal(once.rows, twice.rows)


def test_independent_rows_stops_once_the_stacked_rank_is_kept(monkeypatch):
    # No subset of the rows ranks above the stacked matrix, so once the kept
    # rows reach its rank the greedy pass has nothing left to test.
    E = np.eye(2, 5)
    svd = np.linalg.svd
    calls = []

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    kept = independent_rows(ConstraintMatrix(rows=np.vstack([E, E, E]), n=2, m=1), 1e-9)
    assert np.array_equal(kept.rows, E)
    assert len(calls) <= 3


def test_independent_rows_against_exact_row_space():
    rng = np.random.default_rng(29)
    for _ in range(50):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 6))
        M = rng.integers(-2, 3, (rows, cols)) / 2.0
        phi = ConstraintMatrix(rows=M.astype(float), n=cols, m=0)
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


@pytest.mark.parametrize("phi, block", _PROJECTION_TRAPS)
def test_projected_rank_declines_when_the_stacked_rank_differs(phi, block):
    phi, block = np.array(phi), np.array([block])
    stacked = np.vstack([phi, block])
    assert _svd_rank(stacked, 1e-6)[0] == 2
    projected = block - (block @ np.eye(3)[:, :2]) @ np.eye(3)[:2]
    assert 2 + _svd_rank(projected, 1e-6)[0] == 3
    assert _projected_rank(block, 1e-6, _RowFactor(phi)) is None


def test_row_filter_falls_back_to_the_stacked_rank():
    # The first trap under 18 more unit rows: phi is wide and tall enough
    # for the filter to rank by projection, which declines, and the
    # stacked SVD keeps phi as it is.
    width = 100
    phi = np.eye(width)[:20]
    phi[19, 19] = 1e-3
    block = np.zeros((1, width))
    block[0, 19:21] = 1e3, 1e-4
    factor = _RowFactor(phi)
    assert _projected_rank(block, 1e-6, factor) is None
    rows, rank, kept_factor = _independent_rows_array(block, 1e-6, phi, 20, factor)
    assert rank == 20
    assert np.array_equal(rows, phi)
    assert kept_factor is factor


@pytest.mark.parametrize("gap, tol", [(1e-7, 1e-9), (1e-10, 1e-13)])
def test_row_filter_extends_an_orthonormal_factor(gap, tol):
    # Two nearly dependent rows (P's values about 10 and 5.6 gap) appended:
    # a single QR of P' leaves its columns about eps * 10 / (5.6 gap) off
    # the carried basis. Projected off it once more they are orthogonal to
    # it, and at gap 1e-10 they need a second QR to be orthonormal again.
    rng = np.random.default_rng(83)
    phi = rng.standard_normal((20, 100))
    first = rng.standard_normal(100)
    block = np.vstack([first, first + gap * rng.standard_normal(100)])
    rows, rank, factor = _independent_rows_array(block, tol, phi, 20, _RowFactor(phi))
    basis, inv_r = factor.qt.T, factor.inv_r
    assert rank == 22
    assert np.array_equal(rows, np.vstack([phi, block]))
    assert np.abs(basis.T @ basis - np.eye(22)).max() <= 1e-14
    # rows' = basis R with R^-1 = inv_r up to eps cond(R), R upper triangular.
    upper = basis.T @ rows.T
    assert np.abs(np.tril(upper, -1)).max() <= 1e-12
    assert np.abs(upper @ inv_r - np.eye(22)).max() <= 1e-4


def test_row_filter_drops_the_factor_when_part_of_a_block_adds_rank():
    # The projected count certifies 22 of 23 rows, so the greedy pass picks
    # the rows, keeps block rows 0 and 2, and returns no factor for the
    # grown phi. The next level rebuilds one from all 23 rows.
    rng = np.random.default_rng(89)
    tol = 1e-9
    phi = rng.standard_normal((20, 100))
    block = rng.standard_normal((3, 100))
    block[1] = rng.standard_normal(20) @ phi
    stacked = np.vstack([phi, block])
    assert _projected_rank(block, tol, _RowFactor(phi)) == 22
    rows, rank, factor = _independent_rows_array(block, tol, phi, 20, _RowFactor(phi))
    assert rank == 22
    assert np.array_equal(rows, stacked[[*range(20), 20, 22]])
    assert factor is None
    following = rng.standard_normal((1, 100))
    rows, rank, factor = _independent_rows_array(following, tol, rows, rank, factor)
    basis = factor.qt.T
    assert rank == 23 and basis.shape == (100, 23)
    assert np.abs(basis.T @ basis - np.eye(23)).max() <= 1e-14
    assert np.abs(rows - (rows @ basis) @ basis.T).max() <= 1e-12 * np.abs(rows).max()


def test_grown_factor_spans_phi_and_inverts_its_r(monkeypatch):
    # Family 3 at n = 100 appends one row a level to a factor first built
    # at 14 rows, so its buffers grow several times along the way, at least
    # doubling each time.
    factors = []

    def spy(M, tol, factor):
        out = _projected_rank(M, tol, factor)
        factors.append((factor, factor._rows.shape[0]))
        return out

    monkeypatch.setattr("singular_lq.algorithm._projected_rank", spy)
    exact = _exact_problem(3, 100, 0)
    for problem in (exact, _perturbed_problem(3, exact, 1e-9, _cell_rng(0, 3, 100, 1e-9, 0))):
        factors.clear()
        result = run(problem, 1e-6)
        factor = factors[-1][0]
        assert all(f is factor for f, _ in factors)
        assert 3 <= len({capacity for _, capacity in factors}) <= 4
        basis, rows = result.carried_basis, result.phi.rows
        assert result.codim == 100 and basis.shape == (201, 100)
        assert np.abs(basis.T @ basis - np.eye(100)).max() <= 1e-14
        reference = Subspace(np.linalg.qr(rows.T)[0])
        assert max_principal_angle(Subspace(basis), reference) <= 1e-12
        assert np.abs(factor.inv_r @ (basis.T @ rows.T) - np.eye(100)).max() <= 1e-12
        # The result owns compact copies, not views of the factor's buffers.
        for array in (basis, rows):
            assert array.base is None and array.flags.c_contiguous
        assert np.array_equal(rows, factor.rows) and np.array_equal(basis, factor.qt.T)


@pytest.mark.parametrize("gap", [1.0, 1e-12])
def test_one_row_projected_rank_needs_no_factorisation(monkeypatch, gap):
    # A row well outside phi's row space extends the factor; one within
    # 1e-12 of it ranks below tol and leaves the factor as it was.
    rng = np.random.default_rng(97)
    phi = rng.standard_normal((20, 100))
    row = rng.standard_normal(20) @ phi + gap * rng.standard_normal(100)
    factor = _RowFactor(phi)

    def forbidden(*args, **kwargs):
        raise AssertionError("a one-row block needs no QR, SVD or inverse")

    for name in ("qr", "svd", "inv"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    rank = _projected_rank(row[None, :], 1e-9, factor)
    monkeypatch.undo()
    stacked = np.vstack([phi, row])
    assert rank == _svd_rank(stacked, 1e-9)[0] == factor.rows.shape[0]
    basis = factor.qt.T
    assert np.abs(basis.T @ basis - np.eye(rank)).max() <= 1e-14
    assert np.abs(factor.inv_r @ (basis.T @ factor.rows.T) - np.eye(rank)).max() <= 1e-12
    assert np.isclose(factor.sq_norm, np.vdot(factor.rows, factor.rows), rtol=1e-14)
    assert np.isclose(factor.inv_sq_norm, np.vdot(factor.inv_r, factor.inv_r), rtol=1e-14)


def _replayed_runs():
    """Seeded small problems at three tolerances, then family cells at n <= 60."""
    rng = np.random.default_rng(79)
    for make in (_uniform_problem, _halves_problem, _rank_one_problem):
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
    # n = 40 and 60 cells rank most of their levels by projection.
    projected = []

    def spy(*args):
        out = _projected_rank(*args)
        projected.append(out)
        return out

    monkeypatch.setattr("singular_lq.algorithm._projected_rank", spy)
    levels = 0
    for result in _replayed_runs():
        history = result.rank_history
        for j in range(1, len(history)):
            stacked = np.vstack([result.phi.rows[: history[j - 1][1]], result.blocks[j].rows])
            assert _svd_rank(stacked, result.tol)[0] == history[j][1]
            levels += 1
        basis = result.row_basis
        assert basis.shape == (result.phi.width, result.codim)
        assert np.abs(basis.T @ basis - np.eye(result.codim)).max(initial=0.0) <= 1e-14
        reference = Subspace(np.linalg.qr(result.phi.rows.T)[0])
        assert max_principal_angle(Subspace(basis), reference) <= 1e-12
    assert levels >= 700
    assert sum(rank is not None for rank in projected) >= 100


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
    # Family 3 at n = 40: 40 levels of one-row blocks, each needing one SVD
    # of rho and one rank check of the grown phi, plus the final null space.
    n = 40
    problem = gen_experiment3(n)
    svd = np.linalg.svd
    calls = []

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    result = run(problem, tol=1e-6)
    final_submanifold(result)
    assert result.steps == n
    assert len(calls) <= 2 * n + 4


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


def test_regular_feedback_decides_the_rank_of_r_in_the_shared_helper(monkeypatch):
    # One relative-rank call per verdict, agreeing with s_min <= tol * s_max
    # on both sides of the cut; a zero R reads as rank 0.
    calls = []

    def spy(M, tol, relative=False, full=False):
        calls.append(relative)
        return _svd_rank(M, tol, relative, full)

    monkeypatch.setattr("singular_lq.algorithm._svd_rank", spy)
    eye = np.eye(2)
    for small in (0.0, 1e-13, 1e-11, 1e-7, 1e-5, 1.0):
        problem = validate(eye, eye, eye, np.zeros((2, 2)), np.diag([3.0, 3.0 * small]))
        for rank_tol in (1e-12, 1e-6):
            assert (regular_feedback(problem, rank_tol) is None) == (small <= rank_tol)
    assert calls == [True] * 12


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
    with pytest.raises(ValueError):
        run(gen_experiment2(2), tol=-1e-6)


def test_run_splits_one_derivative_per_level():
    # Each level's derivative is split by U': the u_top rows are the
    # recorded partial feedback, the u_bottom rows the next block.
    rng = np.random.default_rng(59)
    tol = 1e-9
    checked = 0
    for _ in range(60):
        problem = _uniform_problem(rng) if rng.integers(2) else _halves_problem(rng)
        result = run(problem, tol)
        for pf in result.partial_feedback:
            block = result.blocks[pf.level - 1]
            split = svd_split(block.rho, tol, relative=False)
            part = _derivative(block, problem)
            assert np.array_equal(pf.rate, split.u_top @ block.rho)
            assert np.array_equal(pf.drift, np.hstack([split.u_top @ d for d in part]))
            checked += 1
        for block, following in zip(result.blocks, result.blocks[1:]):
            expected = step(block, svd_split(block.rho, tol, relative=False), problem)
            assert np.array_equal(following.rows, expected.rows)
    assert checked >= 30


def _manual_trace(problem, tol):
    """The loop replayed through the public pieces, there is no shortcut."""
    block = primary_constraint(problem)
    phi = independent_rows(block, tol)
    history = [(
        numerical_rank(block.rho, tol, relative=False),
        numerical_rank(phi.rows, tol, relative=False),
    )]
    l, p, k = problem.m, 0, 1
    while history[-1][0] < l and history[-1][1] > p:
        k += 1
        p = history[-1][1]
        l = block.rho.shape[0]
        split = svd_split(block.rho, tol, relative=False)
        if split.rank == l:
            break
        block = step(block, split, problem)
        phi = independent_rows(
            ConstraintMatrix(rows=np.vstack([phi.rows, block.rows]),
                             n=problem.n, m=problem.m), tol,
        )
        history.append((
            numerical_rank(block.rho, tol, relative=False),
            numerical_rank(phi.rows, tol, relative=False),
        ))
    if history[-1][1] <= p:
        k -= 1
    return history, max(k, 1)


def test_run_matches_manual_pseudocode_trace():
    rng = np.random.default_rng(37)
    for _ in range(30):
        problem = _uniform_problem(rng)
        result = run(problem, tol=1e-9)
        history, steps = _manual_trace(problem, 1e-9)
        assert result.rank_history == history
        assert result.steps == steps


def test_run_monotonicity_bounds():
    rng = np.random.default_rng(43)
    for _ in range(100):
        problem = _uniform_problem(rng)
        result = run(problem, tol=1e-9)
        phi_ranks = [r for _, r in result.rank_history]
        assert all(b >= a for a, b in zip(phi_ranks, phi_ranks[1:]))
        assert 1 <= result.steps <= 2 * problem.n + problem.m + 1
        assert result.codim == result.phi.rows.shape[0]
        assert result.codim == numerical_rank(result.phi.rows, 1e-9, relative=False)


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


def test_run_constraint_stability_on_kernel():
    # on ker(phi), with udot from the recorded feedback, every row of phi
    # has vanishing derivative along the dynamics
    rng = np.random.default_rng(53)
    checked = 0
    for _ in range(60):
        problem = _uniform_problem(rng)
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
    rate = np.vstack([pf.rate for pf in result.partial_feedback])
    drift = np.vstack([pf.drift for pf in result.partial_feedback])
    return rate, drift


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
        phi_e, steps_e, halt_e, history_e = ro.exact_recursion(*_exact_matrices(problem))
        assert result.steps == steps_e
        assert result.halt_reason == halt_e
        assert result.rank_history == history_e
        assert result.codim == (ro.rank(phi_e) if phi_e else 0)


def test_final_submanifold_respects_explicit_tol():
    result = run(gen_experiment2(3), tol=1e-6)
    assert final_submanifold(result).shape == final_submanifold(result, 1e-6).shape
    with pytest.raises(ValueError):
        final_submanifold(result, -1.0)


def _recording_svd(monkeypatch):
    svd = np.linalg.svd
    shapes = []

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    return shapes


def test_final_submanifold_at_the_run_tol_is_one_qr(monkeypatch):
    # The filter leaves phi with full row rank at the run's tol, so the
    # final subspace needs no rank decision there and no SVD.
    rng = np.random.default_rng(71)
    for make in (_uniform_problem, _halves_problem):
        for _ in range(60):
            result = run(make(rng, n_max=6, m_max=5), tol=1e-9)
            rows = result.phi.rows
            with monkeypatch.context() as patch:
                shapes = _recording_svd(patch)
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
        result = run(_uniform_problem(rng, n_max=6, m_max=5), tol=1e-9)
        if result.codim == 0:
            continue
        checked += 1
        smallest = np.linalg.svd(result.phi.rows, compute_uv=False)[-1]
        with monkeypatch.context() as patch:
            shapes = _recording_svd(patch)
            basis = final_submanifold(result, 2.0 * smallest)
        assert shapes == [result.phi.rows.shape]
        assert basis.shape[1] > result.phi.width - result.codim
    assert checked >= 20


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
        mats = _exact_matrices(problem)
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
