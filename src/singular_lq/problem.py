"""Linear-quadratic optimal control problems with possibly singular control cost.

The running cost is L = 1/2 x'Qx + x'Nu + 1/2 u'Ru subject to xdot = Ax + Bu.
When R is invertible the control is determined everywhere by the costate
equations; when R is singular only part of it is, and the interesting
geometry lives in the constraint recursion (see :mod:`singular_lq.algorithm`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from numbers import Integral

import numpy as np

__all__ = [
    "LQProblem",
    "ConstraintMatrix",
    "validate",
    "hamiltonian",
    "primary_constraint",
]


def _as_matrix(value, name: str, ndim: int = 2) -> np.ndarray:
    """value as a finite float array of ndim dimensions, a matrix unless ndim is 1.

    Anything else raises ValueError naming it.
    """
    kind = "matrix" if ndim == 2 else "vector"
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged, non-numeric, int > 1e308
        raise ValueError(f"{name} is not a numeric {kind}: {exc}") from exc
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be a {ndim}-d {kind}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _check_tol(tol: float) -> None:
    """Reject a rank tolerance that is not positive and finite (NaN included)."""
    if not 0 < tol < inf:
        raise ValueError("tol must be positive and finite")


def _is_count(value, low: int) -> bool:
    """Whether value is an integer of at least low; a bool is not a count."""
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= low


def _frozen(arr: np.ndarray) -> np.ndarray:
    """arr, a fresh array the caller holds no other reference to, made read-only."""
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class LQProblem:
    """Validated problem data (A, B, Q, N, R) with state dim n, control dim m.

    Instances are produced by :func:`validate`. A, B, Q and N are the
    blocks of one read-only (2n, n + m) array ``dynamics`` = [[A, B], [Q,
    N]], the (x, u) coefficients of xdot and of pdot + A'p, so no matrix is
    stored twice and the level map is one product with it
    (:func:`_derivative`). R is read-only too.
    """

    dynamics: np.ndarray
    R: np.ndarray

    @property
    def n(self) -> int:
        return self.dynamics.shape[0] // 2

    @property
    def m(self) -> int:
        return self.R.shape[0]

    @property
    def A(self) -> np.ndarray:
        return self.dynamics[: self.n, : self.n]

    @property
    def B(self) -> np.ndarray:
        return self.dynamics[: self.n, self.n :]

    @property
    def Q(self) -> np.ndarray:
        return self.dynamics[self.n :, : self.n]

    @property
    def N(self) -> np.ndarray:
        return self.dynamics[self.n :, self.n :]


@dataclass(frozen=True)
class ConstraintMatrix:
    """Constraint rows sigma x + beta p + rho u over (x, p, u), shape (c, 2n + m).

    sigma, beta and rho are views of ``rows``: its first n columns, the
    next n and the last m. Rows of any other shape, or a negative n or m,
    raise ``ValueError``. One level of the recursion, its unprojected
    tilde block and the stacked, filtered phi are all of this type.
    """

    rows: np.ndarray
    n: int
    m: int

    def __post_init__(self):
        n, m, shape = self.n, self.m, np.shape(self.rows)
        if len(shape) != 2 or shape[1] != 2 * n + m or n < 0 or m < 0:
            raise ValueError(
                f"rows must be 2-d with 2n + m columns, n, m >= 0; got {shape}, n={n}, m={m}"
            )

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


# Rows per panel of :func:`_asymmetry`: its temporaries hold at most this many rows.
_PANEL_ROWS = 64


def _asymmetry(M: np.ndarray) -> float:
    """max |M - M'| over the square M, compared one row panel at a time.

    Panel j holds rows j..j+b of M - M' from the diagonal on, so the panels
    cover every entry on or above the diagonal, and |M - M'| is symmetric
    bit for bit: the maximum is that of the whole difference, with no
    full-size temporary.
    """
    dev, b = 0.0, _PANEL_ROWS
    for j in range(0, len(M), b):
        panel = M[j : j + b, j:] - M[j:, j : j + b].T
        dev = max(dev, np.abs(panel, out=panel).max(initial=0.0))
    return dev


def _check_symmetry(M: np.ndarray, name: str) -> None:
    dev = _asymmetry(M)
    scale = max(1.0, M.max(initial=0.0), -M.min(initial=0.0))
    if dev > 1e-12 * scale:
        raise ValueError(
            f"{name} is not symmetric: max |{name} - {name}'| = {dev:.3e} "
            f"exceeds 1.0e-12 * max(1, |{name}|)"
        )


def validate(A, B, Q, N, R) -> LQProblem:
    """Check shapes and symmetry and return an immutable LQProblem.

    Q and R must be symmetric up to 1e-12 relative to max(1, max-abs
    entry); asymmetric input is rejected, never symmetrized.
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
    _check_symmetry(Q, "Q")
    _check_symmetry(R, "R")

    return LQProblem(dynamics=_frozen(np.block([[A, B], [Q, N]])), R=_frozen(R.copy()))


def hamiltonian(problem: LQProblem, x, p, u) -> float:
    """Pontryagin Hamiltonian p'(Ax + Bu) - L(x, u) at the point (x, p, u).

    x, p and u must be finite 1-d vectors of lengths n, n and m; anything
    else raises ValueError naming the argument.
    """
    x, p, u = (_as_matrix(v, name, ndim=1) for v, name in ((x, "x"), (p, "p"), (u, "u")))
    if x.shape != (problem.n,) or p.shape != (problem.n,):
        raise ValueError(f"x and p must have length n = {problem.n}")
    if u.shape != (problem.m,):
        raise ValueError(f"u must have length m = {problem.m}")
    kinetic = p @ (problem.A @ x) + p @ (problem.B @ u)
    cost = 0.5 * x @ (problem.Q @ x) + x @ (problem.N @ u) + 0.5 * u @ (problem.R @ u)
    return float(kinetic - cost)


def primary_constraint(problem: LQProblem) -> ConstraintMatrix:
    """dH/du = 0 as constraint rows: sigma = -N', beta = B', rho = -R."""
    rows = np.hstack([-problem.N.T, problem.B.T, -problem.R])
    return ConstraintMatrix(rows=rows, n=problem.n, m=problem.m)


def _derivative(block: ConstraintMatrix, problem: LQProblem) -> np.ndarray:
    """(x, p, u) coefficients of d/dt (sigma x + beta p) along the dynamics.

    Returns the (c, 2n + m) matrix [sigma A + beta Q, -beta A', sigma B +
    beta N]: the one place the level map is written, shared by the
    recursion, its feedback relations and the unprojected tilde blocks. Its
    x and u columns are one product, [sigma beta] times the problem's
    stored [[A, B], [Q, N]], and its p columns a second. The rho u term
    contributes rho udot, which the caller splits off. The dynamics are
    xdot = A x + B u and pdot = -A'p + Q x + N u, the gradients dH/dp and
    -dH/dx of :func:`hamiltonian`, which the tests check by central
    differences.
    """
    n = problem.n
    coupled = block.rows[:, : 2 * n] @ problem.dynamics
    return np.concatenate([coupled[:, :n], -block.beta @ problem.A.T, coupled[:, n:]], axis=1)
