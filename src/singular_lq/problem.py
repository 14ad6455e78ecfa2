"""Linear-quadratic optimal control problems with possibly singular control cost.

The running cost is L = 1/2 x'Qx + x'Nu + 1/2 u'Ru subject to xdot = Ax + Bu.
When R is invertible the control is determined everywhere by the costate
equations; when R is singular only part of it is, and the interesting
geometry lives in the constraint recursion (see :mod:`singular_lq.algorithm`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LQProblem",
    "CostateTriple",
    "ConstraintMatrix",
    "validate",
    "hamiltonian",
    "dynamics_rhs",
    "primary_constraint",
]


def _as_matrix(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class LQProblem:
    """Validated problem data (A, B, Q, N, R) with state dim n, control dim m.

    Instances are produced by :func:`validate`; the stored arrays are
    read-only so a problem can be shared freely between sweep workers.
    """

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    N: np.ndarray
    R: np.ndarray
    n: int
    m: int


@dataclass(frozen=True)
class CostateTriple:
    """A point (x, p, u) in the extended state-costate-control space."""

    x: np.ndarray
    p: np.ndarray
    u: np.ndarray


@dataclass(frozen=True)
class ConstraintMatrix:
    """Constraint rows sigma x + beta p + rho u over (x, p, u), shape (c, 2n + m).

    sigma, beta and rho are views of ``rows``: its first n columns, the
    next n and the last m. One level of the recursion, its unprojected
    tilde block and the stacked, filtered phi are all of this type.
    """

    rows: np.ndarray
    n: int
    m: int

    @property
    def width(self) -> int:
        return 2 * self.n + self.m

    @property
    def sigma(self) -> np.ndarray:
        return self.rows[:, : self.n]

    @property
    def beta(self) -> np.ndarray:
        return self.rows[:, self.n : 2 * self.n]

    @property
    def rho(self) -> np.ndarray:
        return self.rows[:, 2 * self.n :]


def _check_symmetry(M: np.ndarray, name: str, symmetry_tol: float) -> None:
    diff = M - M.T  # the only full-size temporary
    dev = np.abs(diff, out=diff).max(initial=0.0)
    scale = max(1.0, M.max(initial=0.0), -M.min(initial=0.0))
    if dev > symmetry_tol * scale:
        raise ValueError(
            f"{name} is not symmetric: max |{name} - {name}'| = {dev:.3e} "
            f"exceeds {symmetry_tol:.1e} * max(1, |{name}|)"
        )


def validate(A, B, Q, N, R, symmetry_tol: float = 1e-12) -> LQProblem:
    """Check shapes and symmetry and return an immutable LQProblem.

    Q and R must be symmetric up to ``symmetry_tol`` relative to
    max(1, max-abs entry); asymmetric input is rejected, never symmetrized.
    """
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    Q = _as_matrix(Q, "Q")
    N = _as_matrix(N, "N")
    R = _as_matrix(R, "R")

    n = A.shape[0]
    if A.shape != (n, n) or n < 1:
        raise ValueError(f"A must be square and non-empty, got shape {A.shape}")
    m = B.shape[1]
    if B.shape[0] != n:
        raise ValueError(f"B must have {n} rows to match A, got shape {B.shape}")
    if m < 1:
        raise ValueError("control dimension m must be at least 1")
    if Q.shape != (n, n):
        raise ValueError(f"Q must be {n}x{n}, got shape {Q.shape}")
    if N.shape != (n, m):
        raise ValueError(f"N must be {n}x{m}, got shape {N.shape}")
    if R.shape != (m, m):
        raise ValueError(f"R must be {m}x{m}, got shape {R.shape}")
    _check_symmetry(Q, "Q", symmetry_tol)
    _check_symmetry(R, "R", symmetry_tol)

    return LQProblem(
        A=_frozen(A), B=_frozen(B), Q=_frozen(Q), N=_frozen(N), R=_frozen(R),
        n=n, m=m,
    )


def _check_point(problem: LQProblem, s: CostateTriple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x = np.asarray(s.x, dtype=float).reshape(-1)
    p = np.asarray(s.p, dtype=float).reshape(-1)
    u = np.asarray(s.u, dtype=float).reshape(-1)
    if x.shape != (problem.n,) or p.shape != (problem.n,):
        raise ValueError(f"x and p must have length n = {problem.n}")
    if u.shape != (problem.m,):
        raise ValueError(f"u must have length m = {problem.m}")
    return x, p, u


def hamiltonian(problem: LQProblem, s: CostateTriple) -> float:
    """Pontryagin Hamiltonian p'(Ax + Bu) - L(x, u)."""
    x, p, u = _check_point(problem, s)
    kinetic = p @ (problem.A @ x) + p @ (problem.B @ u)
    cost = 0.5 * x @ (problem.Q @ x) + x @ (problem.N @ u) + 0.5 * u @ (problem.R @ u)
    return float(kinetic - cost)


def dynamics_rhs(problem: LQProblem, s: CostateTriple) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand sides (xdot, pdot) of the state and costate equations.

    xdot = A x + B u and pdot = -A'p + Q x + N u; these are dH/dp and
    -dH/dx of :func:`hamiltonian`, which the tests verify by finite
    differences.
    """
    x, p, u = _check_point(problem, s)
    xdot = problem.A @ x + problem.B @ u
    pdot = -problem.A.T @ p + problem.Q @ x + problem.N @ u
    return xdot, pdot


def primary_constraint(problem: LQProblem) -> ConstraintMatrix:
    """dH/du = 0 as constraint rows: sigma = -N', beta = B', rho = -R."""
    rows = np.hstack([-problem.N.T, problem.B.T, -problem.R])
    return ConstraintMatrix(rows=rows, n=problem.n, m=problem.m)


def _derivative(block: ConstraintMatrix, problem: LQProblem):
    """(x, p, u) coefficients of d/dt (sigma x + beta p) along the dynamics.

    Returns (sigma A + beta Q, -beta A', sigma B + beta N): one application
    of the level map shared by the recursion, its partial feedback and the
    unprojected tilde blocks. The rho u term contributes rho udot, which the
    caller splits off.
    """
    A, B, Q, N = problem.A, problem.B, problem.Q, problem.N
    sigma, beta = block.sigma, block.beta
    return sigma @ A + beta @ Q, -beta @ A.T, sigma @ B + beta @ N
