"""Problem container, Pontryagin quantities, and the regular-feedback path."""

import re

import numpy as np
import pytest

from problems import exact_matrices, halves_problem
from rational_oracle import Fraction, matmul, transpose
from singular_lq import (
    ConstraintMatrix,
    gen_experiment2,
    gen_experiment3,
    hamiltonian,
    primary_constraint,
    regular_feedback,
    validate,
)
from singular_lq.problem import _asymmetry, _derivative


def test_validate_accepts_zero_1x1():
    z = [[0.0]]
    problem = validate(z, z, z, z, z)
    assert problem.n == 1 and problem.m == 1


def test_validate_rejects_asymmetric_q():
    ok = np.eye(2)
    message = (r"^Q is not symmetric: max \|Q - Q'\| = 1\.000e\+00 "
               r"exceeds 1\.0e-12 \* max\(1, \|Q\|\)$")
    with pytest.raises(ValueError, match=message):
        validate(ok, ok, [[0.0, 1.0], [0.0, 0.0]], ok, ok)


@pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 130, 200])
def test_asymmetry_is_the_maximum_of_the_whole_difference(n):
    # Row panels of M - M' give its maximum bit for bit, and validate reports it.
    rng = np.random.default_rng(n)
    for scale in (1e-14, 1.0):
        M = rng.standard_normal((n, n))
        M = M + M.T + scale * rng.standard_normal((n, n))
        dev = np.abs(M - M.T).max()
        assert _asymmetry(M) == dev
        if dev > 1e-12 * max(1.0, np.abs(M).max()):
            with pytest.raises(ValueError, match=re.escape(f"max |Q - Q'| = {dev:.3e} exceeds")):
                validate(np.eye(n), np.ones((n, 1)), M, np.ones((n, 1)), [[0.0]])


def test_validate_rejects_asymmetric_r():
    ok = np.eye(2)
    with pytest.raises(ValueError, match="R"):
        validate(ok, ok, ok, ok, [[0.0, 1.0], [0.0, 0.0]])


def test_validate_symmetry_tolerance_is_relative_to_scale():
    base = np.eye(2)
    nearly = np.array([[1.0, 1e-13], [0.0, 1.0]])
    validate(base, base, nearly, base, base)
    off = np.array([[1.0, 1e-10], [0.0, 1.0]])
    with pytest.raises(ValueError, match="Q"):
        validate(base, base, off, base, base)


def test_validate_rejects_shape_mismatches():
    eye2, eye3 = np.eye(2), np.eye(3)
    with pytest.raises(ValueError, match="B"):
        validate(eye2, eye3, eye2, eye2, eye2)
    with pytest.raises(ValueError, match="Q"):
        validate(eye2, eye2, eye3, eye2, eye2)
    with pytest.raises(ValueError, match="N"):
        validate(eye2, eye2, eye2, np.ones((2, 3)), eye2)
    with pytest.raises(ValueError, match="R"):
        validate(eye2, eye2, eye2, eye2, eye3)
    with pytest.raises(ValueError, match="A"):
        validate(np.ones((2, 3)), eye2, eye2, eye2, eye2)
    for shape in ((), (2,), (2, 2, 1)):
        with pytest.raises(ValueError, match=r"^N must be a 2-d matrix, got shape"):
            validate(eye2, eye2, eye2, np.ones(shape), eye2)
    empty = np.zeros((2, 0))
    with pytest.raises(ValueError, match="^control dimension m must be at least 1$"):
        validate(eye2, empty, eye2, empty, np.zeros((0, 0)))


def test_validate_experiment2_family():
    problem = gen_experiment2(4)
    assert problem.n == 4 and problem.m == 1
    assert np.array_equal(problem.A, np.eye(4))
    assert np.array_equal(problem.B, np.ones((4, 1)))


def test_problem_arrays_are_frozen():
    rng = np.random.default_rng(5)
    A, B, N = rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 2)), rng.uniform(-1, 1, (3, 2))
    Q, R = np.eye(3), np.diag([1.0, 0.0])
    problem = validate(A, B, Q, N, R)
    arrays = [problem.A, problem.B, problem.Q, problem.N, problem.R]
    for M in arrays:
        assert not M.flags.writeable
        with pytest.raises(ValueError):
            M[0, 0] = 5.0
    # A, B, Q and N are disjoint views of one (2n, n + m) array; none is stored twice.
    assert np.array_equal(problem.dynamics, np.block([[A, B], [Q, N]]))
    assert all(np.shares_memory(M, problem.dynamics) for M in arrays[:4])
    assert not np.shares_memory(problem.R, problem.dynamics)
    # validate copies its input: writing into it afterwards leaves the problem as it was.
    expected = [M.copy() for M in (A, B, Q, N, R)]
    for M in (A, B, Q, N, R):
        M[0, 0] = 7.0
    assert all(np.array_equal(M, original) for M, original in zip(arrays, expected))


def test_constraint_matrix_rejects_rows_that_do_not_match_n_and_m():
    # A (2, 5) matrix read with n = m = 1 had width 3 and a 2-column rho.
    for rows, n, m in (
        (np.zeros((2, 5)), 1, 1),
        (np.zeros(3), 1, 1),
        (np.zeros((1, 2, 3)), 1, 1),
        (np.zeros((2, 1)), 1, -1),
        (np.zeros((2, 3)), -1, 5),
    ):
        with pytest.raises(ValueError, match="2n \\+ m columns"):
            ConstraintMatrix(rows, n, m)
    assert ConstraintMatrix(np.zeros((0, 5)), 2, 1).rho.shape == (0, 1)


def test_hamiltonian_zero_triple_is_zero():
    problem = gen_experiment2(3)
    assert hamiltonian(problem, np.zeros(3), np.zeros(3), np.zeros(1)) == 0.0


def test_hamiltonian_scalar_example():
    one = [[1.0]]
    zero = [[0.0]]
    problem = validate(one, one, zero, zero, zero)
    # p A x + p B u = 1 + 1 with no cost terms
    assert hamiltonian(problem, [1.0], [1.0], [1.0]) == 2.0


def _dynamics(problem, x, p, u):
    """(xdot, pdot) from the derivative of the coordinate rows x and p."""
    n, m = problem.n, problem.m
    deriv = _derivative(ConstraintMatrix(np.eye(2 * n, 2 * n + m), n, m), problem)
    assert deriv.shape == (2 * n, 2 * n + m)
    rates = deriv @ np.concatenate([x, p, u])
    return rates[:n], rates[n:]


def test_dynamics_scalar_example():
    problem = validate([[2.0]], [[1.0]], [[3.0]], [[0.0]], [[0.0]])
    xdot, pdot = _dynamics(problem, [1.0], [1.0], [1.0])
    assert xdot[0] == 3.0  # 2*1 + 1*1
    assert pdot[0] == 1.0  # -2*1 + 3*1 + 0


def test_hamiltonian_rejects_wrong_lengths():
    problem = gen_experiment2(3)
    with pytest.raises(ValueError, match="x and p"):
        hamiltonian(problem, np.zeros(2), np.zeros(3), np.zeros(1))
    with pytest.raises(ValueError, match="x and p"):
        hamiltonian(problem, np.zeros(3), np.zeros(4), np.zeros(1))
    with pytest.raises(ValueError, match="u must"):
        hamiltonian(problem, np.zeros(3), np.zeros(3), np.zeros(2))


def test_hamiltonian_takes_only_finite_vectors():
    # A 2 x 2 x at n = 4 is not the vector of its four entries, and an
    # infinite entry is not a point: each raises, naming the argument.
    problem = gen_experiment2(4)
    x, p, u = np.zeros(4), np.zeros(4), np.zeros(1)
    for args, name in (
        ((np.ones((2, 2)), p, u), "x"),
        ((x, p.reshape(4, 1), u), "p"),
        ((x, p, 0.0), "u"),
        ((x, p, [[0.0]]), "u"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be a 1-d vector"):
            hamiltonian(problem, *args)
    for args, name in (
        ((np.array([np.inf, 0, 0, 0]), p, u), "x"),
        ((x, np.array([0, 0, np.nan, 0]), u), "p"),
        ((x, p, [-np.inf]), "u"),
    ):
        with pytest.raises(ValueError, match=f"^{name} contains non-finite"):
            hamiltonian(problem, *args)
    with pytest.raises(ValueError, match="^x is not a numeric vector"):
        hamiltonian(problem, ["a"] * 4, p, u)
    assert hamiltonian(problem, [1.0, 0, 0, 0], [1.0, 0, 0, 0], [0.0]) == 0.5


def test_values_match_exact_rational_evaluation():
    # dyadic entries embed exactly in Fractions, so any drift is a real bug
    rng = np.random.default_rng(41)
    for _ in range(25):
        problem = halves_problem(rng, 2, 2)
        x, p, u = (vec.reshape(-1) for vec in rng.integers(-2, 3, (3, 2)) / 2.0)
        col = lambda v: [[Fraction(e)] for e in v]
        A, B, Q, N, R = exact_matrices(problem)
        xc, pc, uc = col(x), col(p), col(u)
        dot = lambda a, b: sum(ra[0] * rb[0] for ra, rb in zip(a, b))
        h_exact = (
            dot(pc, matmul(A, xc)) + dot(pc, matmul(B, uc))
            - Fraction(1, 2) * dot(xc, matmul(Q, xc))
            - dot(xc, matmul(N, uc))
            - Fraction(1, 2) * dot(uc, matmul(R, uc))
        )
        h = hamiltonian(problem, x, p, u)
        assert abs(h - float(h_exact)) <= 1e-15 * max(1.0, abs(h))

        xdot, pdot = _dynamics(problem, x, p, u)
        xdot_exact = [r[0] + s[0] for r, s in zip(matmul(A, xc), matmul(B, uc))]
        at = transpose(A)
        pdot_exact = [
            -r[0] + s[0] + t[0]
            for r, s, t in zip(matmul(at, pc), matmul(Q, xc), matmul(N, uc))
        ]
        assert max(abs(v - float(e)) for v, e in zip(xdot, xdot_exact)) <= 1e-15
        assert max(abs(v - float(e)) for v, e in zip(pdot, pdot_exact)) <= 1e-15


def test_level_map_product_matches_the_five_product_formula():
    # _derivative takes [sigma A + beta Q, sigma B + beta N] as one product
    # with the stored [[A, B], [Q, N]]; it sums in another order than the
    # formula does, so the two agree to a few ulp of each entry's scale.
    rng = np.random.default_rng(19)
    n = 4
    for m in (1, 3):
        g = lambda r, c: rng.uniform(-1.0, 1.0, (r, c))
        sym = lambda k: (lambda M: (M + M.T) / 2.0)(g(k, k))
        problem = validate(g(n, n), g(n, m), sym(n), g(n, m), sym(m))
        A, B, Q, N = problem.A, problem.B, problem.Q, problem.N
        for c in (0, 1, 3):
            block = ConstraintMatrix(g(c, 2 * n + m) * 10.0 ** rng.integers(-3, 4, (c, 1)), n, m)
            sigma, beta = block.sigma, block.beta
            five = np.hstack([sigma @ A + beta @ Q, -beta @ A.T, sigma @ B + beta @ N])
            fused = _derivative(block, problem)
            assert fused.shape == (c, 2 * n + m)
            scale = np.hstack([
                abs(sigma) @ abs(A) + abs(beta) @ abs(Q),
                abs(beta) @ abs(A.T),
                abs(sigma) @ abs(B) + abs(beta) @ abs(N),
            ])
            assert np.all(np.abs(fused - five) <= 4 * np.finfo(float).eps * scale)


def test_dynamics_are_gradients_of_hamiltonian():
    # Along xdot = dH/dp and pdot = -dH/dx, d/dt (sigma x + beta p) must be
    # what _derivative says, for any rows; dH/du must be the primary
    # constraint. H is quadratic, so central differences are exact up to
    # roundoff; the h^2 bound is far looser than what must hold.
    rng = np.random.default_rng(7)
    for _ in range(10):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        g = lambda r, c: rng.uniform(-1.0, 1.0, (r, c))
        sym = lambda k: (lambda M: (M + M.T) / 2.0)(g(k, k))
        problem = validate(g(n, n), g(n, m), sym(n), g(n, m), sym(m))
        x, p, u = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n), rng.uniform(-1, 1, m)
        rows = ConstraintMatrix(g(3, 2 * n + m), n, m)
        rates = _derivative(rows, problem) @ np.concatenate([x, p, u])
        weight = np.abs(rows.sigma).sum(axis=1) + np.abs(rows.beta).sum(axis=1)
        block = primary_constraint(problem)
        dh_du = block.sigma @ x + block.beta @ p + block.rho @ u

        for h in (1e-4, 1e-5):
            def gradient(shift, size):
                steps = h * np.eye(size)
                return np.array([
                    hamiltonian(problem, *shift(e)) - hamiltonian(problem, *shift(-e))
                    for e in steps
                ]) / (2 * h)

            bound = 2.0 * h * h
            xdot = gradient(lambda e: (x, p + e, u), n)
            pdot = -gradient(lambda e: (x + e, p, u), n)
            assert np.all(np.abs(rows.sigma @ xdot + rows.beta @ pdot - rates) <= bound * weight)
            du = gradient(lambda e: (x, p, u + e), m)
            assert np.all(np.abs(du - dh_du) <= bound)


def test_primary_constraint_blocks():
    rng = np.random.default_rng(11)
    b_raw, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    v = (lambda M: (M + M.T) / 2.0)(rng.uniform(-1, 1, (3, 3)))
    r = np.diag([2.0, 0.0, 0.0])
    problem = validate(rng.uniform(-1, 1, (3, 3)), b_raw, np.eye(3), b_raw @ v, r)
    block = primary_constraint(problem)
    assert np.array_equal(block.sigma, -(b_raw @ v).T)
    assert np.array_equal(block.beta, b_raw.T)
    assert np.array_equal(block.rho, -r)


def test_primary_constraint_no_cross_terms():
    problem = gen_experiment2(3)  # N = 0, R = 0
    block = primary_constraint(problem)
    assert np.array_equal(block.sigma, np.zeros((1, 3)))
    assert np.array_equal(block.beta, np.ones((3, 1)).T)
    assert np.array_equal(block.rho, np.zeros((1, 1)))


def test_primary_constraint_experiment3():
    problem = gen_experiment3(4)  # N = B, so sigma = -B'
    block = primary_constraint(problem)
    assert np.array_equal(block.sigma, -problem.B.T)
    assert np.array_equal(block.beta, problem.B.T)
    assert np.array_equal(block.rho, np.zeros((1, 1)))


def test_regular_feedback_identity_r():
    rng = np.random.default_rng(3)
    B = rng.uniform(-1, 1, (3, 2))
    problem = validate(np.eye(3), B, np.eye(3), np.zeros((3, 2)), np.eye(2))
    K = regular_feedback(problem)
    assert K.shape == (2, 6)
    assert np.allclose(K, np.hstack([np.zeros((2, 3)), B.T]), atol=1e-14)


def test_regular_feedback_singular_signals():
    problem = gen_experiment2(2)  # R = 0
    assert regular_feedback(problem) is None
    # The cut is fixed at 1e-12 relative: s_min 1e-10 is regular, 1e-13 is not.
    for small, singular in ((1e-10, False), (1e-13, True)):
        near = validate(np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)),
                        np.diag([1.0, small]))
        assert (regular_feedback(near) is None) == singular


def test_regular_feedback_satisfies_primary_constraint():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        g = lambda r, c: rng.uniform(-1.0, 1.0, (r, c))
        sym = lambda k: (lambda M: (M + M.T) / 2.0)(g(k, k))
        R = sym(m) + 3.0 * np.eye(m)  # diagonally dominant, safely regular
        problem = validate(g(n, n), g(n, m), sym(n), g(n, m), R)
        K = regular_feedback(problem)
        assert K is not None
        block = primary_constraint(problem)
        x, p = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
        u = K @ np.concatenate([x, p])
        residual = block.sigma @ x + block.beta @ p + block.rho @ u
        scale = max(np.abs(M).max() for M in (problem.B, problem.N, problem.R, x, p))
        assert np.abs(residual).max() <= 1e-10 * max(1.0, scale)
