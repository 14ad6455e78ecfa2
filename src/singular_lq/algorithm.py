"""Recursive constraint generation for singular LQ problems.

Starting from the primary constraint rows [-N' | B' | -R], each level
differentiates its rows once along the dynamics and splits that derivative
by the left factor U' of the SVD of its control coefficient rho, as in the
Gotay-Nester algorithm: the rows along rho's range determine part of the
control derivative (the level's partial feedback), and the rows along its
left null space carry no udot term and form the next block of constraint
rows. The recursion halts when rho becomes
regular (full row rank: the remaining control derivatives are all
determined) or when the stacked constraint matrix stops gaining rank
(gauge directions remain).

Rank conventions. :func:`numerical_rank` defaults to the relative rule
``s_i > tol * s_1``, which is scale invariant and what the split residual
bound is stated against. The recursion itself (:func:`run`,
:func:`independent_rows`, :func:`final_submanifold`) counts ``s_i > tol``
with an absolute threshold: the published index tables this code
reproduces degrade at perturbation sizes that cross ``tol`` itself, which
only an absolute cut reproduces (a perturbed zero R must read as
rank-deficient while its norm stays below tol). :func:`numerical_rank` and
:func:`svd_split` expose both rules via the ``relative`` flag. Every rank
decision, here and in the DAE chain, is one SVD whose singular values are
counted against the cut in one place, ``_svd_rank``. Bases that decide no
rank are not SVDs: the row filter leaves phi with full row rank at the
run's tolerance, so its row space and null space (the final submanifold)
come from one QR of phi'.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .problem import ConstraintBlock, LQProblem, _derivative, primary_constraint

__all__ = [
    "FEEDBACK",
    "STAGNATION",
    "ConstraintMatrix",
    "SvdSplit",
    "PartialFeedback",
    "AlgorithmResult",
    "numerical_rank",
    "svd_split",
    "step",
    "independent_rows",
    "run",
    "final_submanifold",
    "feedback_rate_map",
]

FEEDBACK = "feedback"
STAGNATION = "stagnation"


@dataclass(frozen=True)
class ConstraintMatrix:
    """Stacked constraint rows over (x, p, u), shape (c, 2n + m)."""

    rows: np.ndarray
    n: int
    m: int

    @property
    def width(self) -> int:
        return 2 * self.n + self.m

    @property
    def sigma_part(self) -> np.ndarray:
        return self.rows[:, : self.n]

    @property
    def beta_part(self) -> np.ndarray:
        return self.rows[:, self.n : 2 * self.n]

    @property
    def rho_part(self) -> np.ndarray:
        return self.rows[:, 2 * self.n :]


@dataclass(frozen=True)
class SvdSplit:
    """SVD split of a rho block: rho = U @ diag(s) @ V'.

    u_top holds the first ``rank`` rows of U', u_bottom the rest;
    u_bottom @ rho is numerically zero, so u_bottom selects the constraint
    directions that survive into the next level.
    """

    singular_values: np.ndarray
    rank: int
    u_top: np.ndarray
    u_bottom: np.ndarray


@dataclass(frozen=True)
class PartialFeedback:
    """Determined part of the control derivative at one level.

    On the final submanifold the determined components satisfy
    rate @ udot + drift @ (x, p, u) = 0: rate is u_top @ rho and drift is
    u_top times the (x, p, u) coefficients of the derivative of this
    level's rows, the rows that the split of rho makes explicit in udot.
    """

    level: int
    rate: np.ndarray
    drift: np.ndarray


@dataclass(frozen=True)
class AlgorithmResult:
    """Outcome of the constraint recursion.

    steps counts constraint levels that refined the submanifold (the
    recursion index); codim is the row count of the filtered constraint
    matrix phi. halt_reason is FEEDBACK (rho regular, every remaining
    control derivative determined; this includes a split that would leave
    an empty new block) or STAGNATION (new rows added no rank: gauge
    directions remain). rank_history holds one (rank rho, rank phi) pair per
    generated level; selectors the u_bottom factor of each executed
    split; blocks the raw per-level rows before independence filtering.
    """

    phi: ConstraintMatrix
    steps: int
    codim: int
    halt_reason: str
    rank_history: list[tuple[int, int]] = field(default_factory=list)
    partial_feedback: list[PartialFeedback] = field(default_factory=list)
    selectors: list[np.ndarray] = field(default_factory=list)
    blocks: list[ConstraintBlock] = field(default_factory=list)
    tol: float = 1e-6


def _svd_rank(
    M: np.ndarray, tol: float, relative: bool = False, full: bool = False
) -> tuple[int, np.ndarray, np.ndarray | None, np.ndarray | None]:
    """SVD of M and the count of its singular values above the cut.

    The cut is ``tol``, or ``tol * s_1`` with ``relative``. Returns
    ``(rank, s, u, vh)``; u and vh are the ``full_matrices=True`` factors
    with ``full``, None otherwise. Empty and zero matrices have rank 0.
    """
    if full:
        u, s, vh = np.linalg.svd(M, full_matrices=True)
    else:
        s = np.linalg.svd(M, compute_uv=False)
        u = vh = None
    cut = tol * s[0] if relative and s.size else tol
    return int(np.count_nonzero(s > cut)), s, u, vh


def numerical_rank(M, tol: float, relative: bool = True) -> int:
    """Number of singular values above the tolerance threshold.

    With ``relative=True`` (default) the threshold is ``tol * s_1``; with
    ``relative=False`` it is ``tol`` itself, matching the rank calls the
    recursion makes. Empty and zero matrices have rank 0.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    return _svd_rank(np.asarray(M, dtype=float), tol, relative)[0]


def svd_split(rho, tol: float, relative: bool = True) -> SvdSplit:
    """Full SVD of rho with the left factor split at the numerical rank."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != 2 or rho.shape[0] < 1:
        raise ValueError(f"rho must be a matrix with at least one row, got shape {rho.shape}")
    rank, svals, u, _ = _svd_rank(rho, tol, relative, full=True)
    ut = u.T
    return SvdSplit(
        singular_values=svals,
        rank=rank,
        u_top=ut[:rank],
        u_bottom=ut[rank:],
    )


def step(block: ConstraintBlock, split: SvdSplit, problem: LQProblem) -> ConstraintBlock:
    """Propagate the undetermined rows of a block one level.

    sigma_next = Ub (sigma A + beta Q), beta_next = Ub (-beta A'),
    rho_next = Ub (sigma B + beta N), with Ub the u_bottom selector.
    Raises if the split has nothing to propagate (rho full row rank); the
    caller halts with FEEDBACK in that case.
    """
    if split.u_bottom.shape[0] == 0:
        raise ValueError("rho has full row rank at this tolerance; nothing to propagate")
    part = _derivative(block.sigma, block.beta, problem)
    return ConstraintBlock(*(split.u_bottom @ d for d in part), level=block.level + 1)


def _independent_rows_array(
    M: np.ndarray, tol: float, kept: np.ndarray | None = None, kept_rank: int = 0
) -> tuple[np.ndarray, int]:
    """Greedy top-down row filter at tolerance tol; returns (rows, rank).

    Keeps each row iff appending it raises the numerical rank of the rows
    kept so far, so the kept count always equals the numerical rank of the
    result. ``kept`` (rank ``kept_rank``) is a previous output of this
    filter: the greedy pass over it would keep every row, so only M's rows
    are tested. Rank-0 or empty input yields the empty (void) matrix.
    """
    if kept is None:
        kept = M[:0]
    stacked = np.vstack([kept, M])
    total = _svd_rank(stacked, tol)[0]
    if total == stacked.shape[0]:
        # Full row rank: by singular value interlacing every prefix is full
        # rank too, so the greedy pass keeps every row. One SVD instead of l.
        return stacked, total
    for i in range(M.shape[0]):
        if kept_rank == total:
            # No subset of the rows ranks above the stacked matrix
            # (interlacing again), so no later row can be kept.
            break
        candidate = np.vstack([kept, M[i : i + 1]])
        r = _svd_rank(candidate, tol)[0]
        if r > kept_rank:
            kept, kept_rank = candidate, r
    return kept, kept_rank


def independent_rows(phi: ConstraintMatrix, tol: float) -> ConstraintMatrix:
    """Filter phi to its greedily selected independent rows (idempotent)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    rows, _ = _independent_rows_array(np.asarray(phi.rows, dtype=float), tol)
    return ConstraintMatrix(rows=rows, n=phi.n, m=phi.m)


def run(problem: LQProblem, tol: float = 1e-6) -> AlgorithmResult:
    """Run the constraint recursion to the final submanifold.

    Parameters
    ----------
    problem : LQProblem
        Validated problem data.
    tol : float
        Rank tolerance. All rank decisions inside the loop use the
        absolute rule (``s > tol``); see the module docstring.

    Returns
    -------
    AlgorithmResult
        Filtered constraint matrix, step count, codimension, halt reason
        and the per-level trace.

    The loop mirrors the reference pseudocode: while rho is rank
    deficient and phi gained rank last level, split rho, peel off the
    determined directions, append the propagated rows to phi and refilter.
    The final step count drops by one when the last generated level added
    no rank, and is clamped to at least 1 (a problem with no effective
    constraints stabilizes at the first level).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")

    block = primary_constraint(problem)
    blocks = [block]
    l = block.rho.shape[0]
    phi, phi_rank = _independent_rows_array(block.stacked(), tol)
    split = svd_split(block.rho, tol, relative=False)
    p = 0
    k = 1
    rank_history = [(split.rank, phi_rank)]
    feedbacks: list[PartialFeedback] = []
    selectors: list[np.ndarray] = []

    while True:
        # The level's derivative, split by U': its u_top rows determine part
        # of udot, its u_bottom rows are the next constraint block.
        part = _derivative(block.sigma, block.beta, problem)
        if split.rank >= 1:
            feedbacks.append(PartialFeedback(
                level=block.level,
                rate=split.u_top @ block.rho,
                drift=np.hstack([split.u_top @ d for d in part]),
            ))
        # rho regular (the equation-of-motion feedback determines the rest)
        # or phi stopped gaining rank; l is still the previous block's count.
        if split.rank >= l or phi_rank <= p:
            halt = FEEDBACK if split.rank >= l else STAGNATION
            break
        k += 1
        p = phi_rank
        l = block.rho.shape[0]
        if split.rank == l:
            # New block would be empty: all of rho's rows are independent,
            # so the feedback determines everything. The pseudocode appends
            # nothing and the final rank check undoes the k increment below.
            halt = FEEDBACK
            break
        selectors.append(split.u_bottom)
        block = ConstraintBlock(*(split.u_bottom @ d for d in part), level=block.level + 1)
        blocks.append(block)
        phi, phi_rank = _independent_rows_array(block.stacked(), tol, phi, phi_rank)
        split = svd_split(block.rho, tol, relative=False)
        rank_history.append((split.rank, phi_rank))

    if phi_rank <= p:
        k -= 1
    k = max(k, 1)

    return AlgorithmResult(
        phi=ConstraintMatrix(rows=phi, n=problem.n, m=problem.m),
        steps=k,
        codim=phi.shape[0],
        halt_reason=halt,
        rank_history=rank_history,
        partial_feedback=feedbacks,
        selectors=selectors,
        blocks=blocks,
        tol=tol,
    )


def final_submanifold(result: AlgorithmResult, tol: float | None = None) -> np.ndarray:
    """Orthonormal basis of the null space of phi, shape (2n + m, d).

    d equals 2n + m minus the numerical rank of phi at ``tol`` (defaults
    to the tolerance the recursion ran with). The columns span the set of
    consistent (x, p, u) triples. At the run's own tolerance phi has full
    row rank, so the basis comes from one QR of phi'; at any other
    tolerance an SVD decides phi's rank there.
    """
    tol = result.tol if tol is None else tol
    if tol <= 0:
        raise ValueError("tol must be positive")
    if tol == result.tol:
        return _phi_basis(result.phi.rows, row_side=False)
    return _null_basis(result.phi.rows, tol)


def _null_basis(M: np.ndarray, cut: float) -> np.ndarray:
    """Orthonormal null-space basis of M; singular values <= cut count as zero."""
    rank, _, _, vh = _svd_rank(M, cut, full=True)
    return vh[rank:].T


def _phi_basis(rows: np.ndarray, row_side: bool) -> np.ndarray:
    """Orthonormal basis of the row space (``row_side``) or null space of phi.

    ``rows`` is the filtered phi of a run, which has full row rank at the
    run's tolerance: the filter keeps a row only if it raises the rank. So
    no rank decision is left to make, and one QR of phi' gives both sides:
    the first Q columns, one per row of phi, span the row space and the
    remaining ones its orthogonal complement.
    """
    if row_side:
        return np.linalg.qr(rows.T)[0]
    return np.linalg.qr(rows.T, mode="complete")[0][:, rows.shape[0]:]


def feedback_rate_map(result: AlgorithmResult) -> np.ndarray:
    """Minimal-norm linear map L with udot = L @ (x, p, u).

    Stacks the recorded per-level feedback relations and solves them in
    the least-squares sense. When the stacked ``rate`` rows have full row
    rank the stacked system is consistent, so the returned udot satisfies
    every determined relation, on the final submanifold in particular.
    Each level's split only makes that level's own rows independent, so
    the stacked rows can be rank-deficient: with rank-one B, N and R,
    n = 1 and m = 2, ``rank_history`` [(1, 2), (1, 3)] halts with FEEDBACK
    while the two rate rows are parallel. The relations can then conflict
    on the final submanifold, and L is only their least-squares
    compromise. With no determined directions (all rho blocks zero) the
    map is zero: the control derivative is pure gauge.
    """
    m = result.phi.m
    width = result.phi.width
    if not result.partial_feedback:
        return np.zeros((m, width))
    lhs = np.vstack([pf.rate for pf in result.partial_feedback])
    rhs = np.vstack([pf.drift for pf in result.partial_feedback])
    solution, *_ = np.linalg.lstsq(lhs, -rhs, rcond=None)
    return solution
