"""Unprojected constraint blocks and their closed forms.

Dropping the SVD selectors from the recursion gives m-row "tilde" blocks
satisfying sigma~(k+1) = sigma~(k) A + beta~(k) Q, beta~(k+1) = -beta~(k) A',
rho~(k+1) = sigma~(k) B + beta~(k) N from (-N', B', -R). These admit closed
forms in powers of A, and the projected blocks of the recursion are exactly
the recorded selector products applied to them. Cross-checking the two
routes is a cheap consistency test for any run. Like the recursion, both
routes raise ``FloatingPointError`` when a product overflows or makes a
NaN, and so does :func:`theorem2_blocks`, through the closed form.
"""

from __future__ import annotations

import numpy as np

from .algorithm import _next_block
from .problem import ConstraintMatrix, LQProblem, _as_matrix, _is_count, primary_constraint

__all__ = ["tilde_recurrence", "tilde_closed_form", "theorem2_blocks"]


def _check_level(k, name: str) -> None:
    if not _is_count(k, 1):
        raise ValueError(f"{name} must be an integer of at least 1, got {k!r}")


@np.errstate(over="raise", invalid="raise")
def tilde_recurrence(problem: LQProblem, k_max: int) -> list[ConstraintMatrix]:
    """Tilde blocks for levels 1..k_max via the recurrence, level k at index k - 1.

    A tilde block is a level of the recursion with no selector: each is the
    block before it passed on by the recursion's own step with no split.
    """
    _check_level(k_max, "k_max")
    out = [primary_constraint(problem)]
    for _ in range(1, k_max):
        out.append(_next_block(out[-1], None, problem))
    return out


def _powers(M: np.ndarray, top: int) -> list[np.ndarray]:
    # M^0 .. M^top by repeated multiplication
    out = [np.eye(M.shape[0])]
    for _ in range(top):
        out.append(out[-1] @ M)
    return out


def _alternating(pow_at: list[np.ndarray], Q: np.ndarray, pow_a: list[np.ndarray], j: int):
    """S_j = sum_{i=0}^{j-1} (-1)^i (A')^i Q A^(j-1-i); S_0 = 0."""
    acc = np.zeros_like(Q)
    for i in range(j):
        acc += (-1.0) ** i * pow_at[i] @ Q @ pow_a[j - 1 - i]
    return acc


@np.errstate(over="raise", invalid="raise")
def tilde_closed_form(problem: LQProblem, k: int) -> ConstraintMatrix:
    """Level-k tilde block straight from powers of A.

    For j = k - 1 >= 1, with S_j from :func:`_alternating` (S_0 = 0):
      beta~(k)  = (-1)^j B' (A')^j
      sigma~(k) = -N' A^j + B' S_j
      rho~(k)   = -N' A^(j-1) B + (-1)^(j-1) B' (A')^(j-1) N + B' S_(j-1) B
    """
    _check_level(k, "k")
    if k == 1:
        return primary_constraint(problem)
    A, B, Q, N = problem.A, problem.B, problem.Q, problem.N

    j = k - 1
    pow_a = _powers(A, j)
    pow_at = _powers(A.T, j)
    bt = B.T

    beta = (-1.0) ** j * bt @ pow_at[j]
    sigma = -N.T @ pow_a[j] + bt @ _alternating(pow_at, Q, pow_a, j)
    rho = (
        -N.T @ pow_a[j - 1] @ B
        + (-1.0) ** (j - 1) * bt @ pow_at[j - 1] @ N
        + bt @ _alternating(pow_at, Q, pow_a, j - 1) @ B
    )
    return ConstraintMatrix(np.hstack([sigma, beta, rho]), problem.n, problem.m)


def theorem2_blocks(
    problem: LQProblem, u_selectors: list[np.ndarray], k: int
) -> ConstraintMatrix:
    """Level-k projected block as selector products applied to tilde blocks.

    u_selectors are the recorded u_bottom factors of a run, in level
    order; the level-k block is U(k-1) ... U(1) applied to the level-k
    tilde block. k = 1 reproduces the primary constraint.
    """
    _check_level(k, "k")
    if len(u_selectors) < k - 1:
        raise ValueError(
            f"need {k - 1} selectors for level {k}, got {len(u_selectors)}"
        )
    # Every selector is checked before the first product.
    selectors = [_as_matrix(sel, f"selector {i}") for i, sel in enumerate(u_selectors[: k - 1], 1)]
    rows = problem.m
    for sel in selectors:
        if sel.shape[1] != rows:
            raise ValueError(
                f"selector of shape {sel.shape} cannot follow a {rows}-row product; "
                "selectors inconsistent with k"
            )
        rows = sel.shape[0]
    tilde = tilde_closed_form(problem, k)
    proj = np.eye(problem.m)
    for sel in selectors:
        proj = sel @ proj
    return ConstraintMatrix(proj @ tilde.rows, problem.n, problem.m)
