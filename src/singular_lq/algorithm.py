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
counted against the cut in one place, ``_svd_rank``. Once phi is large
enough that its stacked SVD costs more than a projection, the row filter
grows phi's rows and a QR factor of them in place from level to level and
ranks each new block projected off its basis, from one small R factor (a
scalar, with no LAPACK call, for a one-row block); the stacked SVD of [phi;
block] decides instead whenever a derived bound cannot certify the rank.
Bases that decide no rank are not SVDs: the row filter leaves phi with
full row rank at the run's tolerance, so the final submanifold there is
the orthogonal complement of phi's row basis (``row_basis``), from QR
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import _complement
from .problem import ConstraintMatrix, LQProblem, _derivative, primary_constraint

__all__ = [
    "FEEDBACK",
    "STAGNATION",
    "SvdSplit",
    "PartialFeedback",
    "AlgorithmResult",
    "numerical_rank",
    "svd_split",
    "step",
    "independent_rows",
    "run",
    "regular_feedback",
    "final_submanifold",
    "feedback_rate_map",
]

FEEDBACK = "feedback"
STAGNATION = "stagnation"

# While (c + k)^2 w (c kept rows and k block rows of width w, about the
# flops of the stacked SVD) stays below this, the row filter ranks a block
# by the stacked SVD and carries no factor. A projected one-row level costs
# less from about c = 5, 3, 2 and 1 at widths 61, 241, 606 and 1201, but the
# factor's first QR (~0.25 ms) pays back only over many levels (below 1.1e4
# family 2's last one-row level would pay it); 1.2e4 to 4e4 timed alike.
_FACTOR_FLOPS = 4e4


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
    split; blocks the raw per-level rows before independence filtering,
    blocks[k - 1] at level k.
    carried_basis is the Q factor of phi' that the row filter carried to
    the last level, None when phi stayed too small to carry one.
    """

    phi: ConstraintMatrix
    steps: int
    codim: int
    halt_reason: str
    rank_history: list[tuple[int, int]] = field(default_factory=list)
    partial_feedback: list[PartialFeedback] = field(default_factory=list)
    selectors: list[np.ndarray] = field(default_factory=list)
    blocks: list[ConstraintMatrix] = field(default_factory=list)
    tol: float = 1e-6
    carried_basis: np.ndarray | None = None

    @property
    def row_basis(self) -> np.ndarray:
        """Orthonormal basis of phi's row space, shape (2n + m, codim).

        The carried Q factor when there is one, else one thin QR of phi'.
        """
        if self.carried_basis is None:
            return np.linalg.qr(self.phi.rows.T)[0]
        return self.carried_basis


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


def step(block: ConstraintMatrix, split: SvdSplit, problem: LQProblem) -> ConstraintMatrix:
    """Propagate the undetermined rows of a block one level.

    sigma_next = Ub (sigma A + beta Q), beta_next = Ub (-beta A'),
    rho_next = Ub (sigma B + beta N), with Ub the u_bottom selector.
    Raises if the split has nothing to propagate (rho full row rank); the
    caller halts with FEEDBACK in that case.
    """
    if split.u_bottom.shape[0] == 0:
        raise ValueError("rho has full row rank at this tolerance; nothing to propagate")
    part = _derivative(block, problem)
    return ConstraintMatrix(np.hstack([split.u_bottom @ d for d in part]), problem.n, problem.m)


class _RowFactor:
    """Rows of full row rank with Q' and R^-1 of their thin QR rows' = Q R.

    ``rows``, ``qt`` and ``inv_r`` are views of buffers whose capacity at
    least doubles (up to the width) when full, so appending k rows writes
    only them and k new columns of Q and R^-1. The rows' and R^-1's squared
    Frobenius norms are carried along, so the certificate re-reads neither.
    """

    def __init__(self, rows: np.ndarray):
        # Adopted, not copied: the buffers start full, so extend never writes them.
        q, upper = np.linalg.qr(rows.T)
        self.rows, self.qt, self.inv_r = self._rows, self._qt, self._inv_r = rows, q.T, np.linalg.inv(upper)
        self.sq_norm, self.inv_sq_norm = float(np.vdot(rows, rows)), float(np.vdot(self.inv_r, self.inv_r))

    def extend(self, rows: np.ndarray, qt: np.ndarray, off: np.ndarray, tail: np.ndarray) -> None:
        """Append rows whose Q' rows are qt; R^-1 gains the columns [off; tail]."""
        c, (k, width) = self.rows.shape[0], rows.shape
        if c + k > self._rows.shape[0]:
            cap = min(max(c + k, 2 * self._rows.shape[0]), width)  # full row rank: c + k <= w
            grown = np.empty((cap, width)), np.empty((cap, width)), np.zeros((cap, cap))
            grown[0][:c], grown[1][:c], grown[2][:c, :c] = self.rows, self.qt, self.inv_r
            self._rows, self._qt, self._inv_r = grown
        self._rows[c : c + k], self._qt[c : c + k] = rows, qt
        self._inv_r[:c, c : c + k], self._inv_r[c : c + k, c : c + k] = off, tail
        self.rows, self.qt, self.inv_r = self._rows[: c + k], self._qt[: c + k], self._inv_r[: c + k, : c + k]
        self.sq_norm += float(np.vdot(rows, rows))
        self.inv_sq_norm += float(np.vdot(off, off) + np.vdot(tail, tail))


def _projected_rank(M: np.ndarray, tol: float, factor: _RowFactor) -> int | None:
    """Rank of stacked = [kept; M] certified from M projected off kept's rows.

    ``factor`` holds kept, of full row rank c, with Q' and R^-1 of kept' =
    Q R. P is M projected off Q twice (classical Gram-Schmidt with
    reorthogonalisation); the R factor of a thin QR of P' gives its
    singular values s_j, and a = #{s_j > tol}. A one-row P needs no
    factorisation: its R is the scalar beta = -sign(p_1) ||P|| that
    LAPACK's Householder reflector gives (p_1 itself when p_2..p_w are
    zero), so q = P / beta and s_1 = |beta|. The count c + a is the
    stacked SVD's rank when two bounds clear tol by the SVD's rounding
    slack, e = eps * max(shape) * ||stacked||_F:

    * upper: column interlacing gives s_(c+a+1)(stacked) <= s_(a+1)(P);
    * lower: on the span of Q and P's top a right singular vectors the
      stacked matrix acts as [[R', 0], [U_a' M Q, S_a]], whose inverse
      bounds s_(c+a)(stacked) >= 1 / (||R^-1|| + (1 + ||G||) / s_a), with
      G' = R^-1 (M Q)' and Frobenius norms for the spectral ones. The
      carried R^-1 is accurate to about eps * cond(R) <= e ||R^-1||
      relative, so its norm enters inflated by that factor.

    The lower side is where a projected count alone goes wrong: an
    ill-conditioned kept (large ||R^-1||) or a block with a large
    component along it (large ||G||) pulls the stacked values below P's.
    Returns the rank, and appends M to ``factor`` when every row of M adds
    rank, or returns None when the bounds do not certify.
    """
    c, (k, width) = factor.rows.shape[0], M.shape
    basis_t = factor.qt
    coef = M @ basis_t.T
    projected = M - coef @ basis_t
    projected -= (projected @ basis_t.T) @ basis_t
    if k == 1:
        p = projected[0]
        first, rest = float(p[0]), math.sqrt(p[1:] @ p[1:])
        beta = first if rest == 0.0 else -math.copysign(math.hypot(first, rest), first)
        added, s = int(abs(beta) > tol), [abs(beta)]
    else:
        q, upper = np.linalg.qr(projected.T)
        added, s, _, _ = _svd_rank(upper, tol)
    slack = np.finfo(float).eps * max(c + k, width) * math.sqrt(factor.sq_norm + np.vdot(M, M))
    inv_norm = math.sqrt(factor.inv_sq_norm)
    inv_low = inv_norm * (1.0 + slack * inv_norm)  # 1 / lower bound of s_(c+a)
    if added:
        g = factor.inv_r @ coef.T
        inv_low += (1.0 + math.sqrt(np.vdot(g, g))) / s[added - 1]
    if (added < len(s) and s[added] > tol - slack) or inv_low * (tol + slack) >= 1.0:
        return None
    if added < k:
        return c + added
    if k == 1:
        # q = P / beta is orthogonal to Q to about eps, since s_1 = ||P||.
        q, tail = projected / beta, np.array([[1.0 / beta]])
    else:
        # One QR's columns are orthogonal to Q only to about eps ||P|| / s_a.
        # Projected off Q once more they are orthogonal to it, and orthonormal
        # up to ||Q' q||^2, so they are orthonormalised again only when that
        # exceeds eps. Then [kept; M]' = [Q, q] [[R, T], [0, S]] with
        # T = (M Q)' up to rounding, and the new R^-1 follows blockwise.
        drift = basis_t @ q
        q -= basis_t.T @ drift
        if np.vdot(drift, drift) > np.finfo(float).eps:
            q, again = np.linalg.qr(q)
            upper = again @ upper
        q, tail = q.T, np.linalg.inv(upper)
    factor.extend(M, q, -g @ tail, tail)
    return c + k


def _independent_rows_array(
    M: np.ndarray,
    tol: float,
    kept: np.ndarray | None = None,
    kept_rank: int = 0,
    factor: _RowFactor | None = None,
) -> tuple[np.ndarray, int, _RowFactor | None]:
    """Greedy top-down row filter at tolerance tol; returns (rows, rank, factor).

    Keeps each row iff appending it raises the numerical rank of the rows
    kept so far, so the kept count always equals the numerical rank of the
    result. ``kept`` (rank ``kept_rank``) is a previous output of this
    filter and ``factor`` the one returned with it: the greedy pass over
    kept would keep every row, so only M's rows are tested. Rank-0 or empty
    input yields the empty (void) matrix.

    The stacked [kept; M] is ranked by its SVD while it is small ((c + k)^2
    w below ``_FACTOR_FLOPS``). From there on a :class:`_RowFactor` of kept
    is carried (built by one QR when missing) and :func:`_projected_rank`
    certifies the rank from M projected off its Q, falling back to the
    stacked SVD when its bounds come within rounding of tol. Either way the
    rank is the stacked SVD's. The returned factor, when not None, holds
    the returned rows as a view; it is None when kept gained rows other
    than by a certified full-rank block, and is then rebuilt next level.
    """
    if kept is None:
        kept = M[:0]
    c, (k, width) = kept.shape[0], M.shape
    total = None
    if (c + k) ** 2 * width >= _FACTOR_FLOPS:
        if factor is None:
            factor = _RowFactor(kept)
        total = _projected_rank(M, tol, factor)
        if total == c + k:
            return factor.rows, total, factor
    stacked = np.vstack([kept, M])
    if total is None:
        total = _svd_rank(stacked, tol)[0]
    if total == c + k:
        # Full row rank: by singular value interlacing every prefix is full
        # rank too, so the greedy pass keeps every row.
        return stacked, total, None
    for i in range(k):
        if kept_rank == total:
            # No subset of the rows ranks above the stacked matrix
            # (interlacing again), so no later row can be kept.
            break
        candidate = np.vstack([kept, M[i : i + 1]])
        r = _svd_rank(candidate, tol)[0]
        if r > kept_rank:
            kept, kept_rank = candidate, r
    return kept, kept_rank, factor if kept.shape[0] == c else None


def independent_rows(phi: ConstraintMatrix, tol: float) -> ConstraintMatrix:
    """Filter phi to its greedily selected independent rows (idempotent)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    rows, _, factor = _independent_rows_array(np.asarray(phi.rows, dtype=float), tol)
    return ConstraintMatrix(rows=rows if factor is None else rows.copy(), n=phi.n, m=phi.m)


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
    phi, phi_rank, factor = _independent_rows_array(block.rows, tol)
    split = svd_split(block.rho, tol, relative=False)
    p = 0
    k = 1
    rank_history = [(split.rank, phi_rank)]
    feedbacks: list[PartialFeedback] = []
    selectors: list[np.ndarray] = []

    while True:
        # The level's derivative, split by U': its u_top rows determine part
        # of udot, its u_bottom rows are the next constraint block.
        part = _derivative(block, problem)
        if split.rank >= 1:
            feedbacks.append(PartialFeedback(
                level=len(blocks),
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
        # One product per part, as in the drift: a single u_bottom @
        # hstack(part) rounds differently in the last bit.
        rows = np.hstack([split.u_bottom @ d for d in part])
        block = ConstraintMatrix(rows, problem.n, problem.m)
        blocks.append(block)
        phi, phi_rank, factor = _independent_rows_array(rows, tol, phi, phi_rank, factor)
        split = svd_split(block.rho, tol, relative=False)
        rank_history.append((split.rank, phi_rank))

    if phi_rank <= p:
        k -= 1
    k = max(k, 1)
    # With a factor, phi is a view of its buffers: keep compact copies.
    return AlgorithmResult(
        phi=ConstraintMatrix(rows=phi if factor is None else phi.copy(), n=problem.n, m=problem.m),
        steps=k,
        codim=phi.shape[0],
        halt_reason=halt,
        rank_history=rank_history,
        partial_feedback=feedbacks,
        selectors=selectors,
        blocks=blocks,
        tol=tol,
        carried_basis=None if factor is None else factor.qt.T.copy(),
    )


def regular_feedback(problem: LQProblem, rank_tol: float = 1e-12):
    """Control law u = R^-1 (B'p - N'x) when R is numerically invertible.

    Returns the m x 2n matrix K with u = K [x; p], or None when R is
    singular at ``rank_tol`` (smallest singular value <= rank_tol times the
    largest; a zero R is always singular). A None result is the signal to
    hand the problem to the constraint recursion instead.
    """
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    if _svd_rank(problem.R, rank_tol, relative=True)[0] < problem.m:
        return None
    rinv_bt = np.linalg.solve(problem.R, problem.B.T)
    rinv_nt = np.linalg.solve(problem.R, problem.N.T)
    return np.hstack([-rinv_nt, rinv_bt])


def final_submanifold(result: AlgorithmResult, tol: float | None = None) -> np.ndarray:
    """Orthonormal basis of the null space of phi, shape (2n + m, d).

    d equals 2n + m minus the numerical rank of phi at ``tol`` (defaults
    to the tolerance the recursion ran with). The columns span the set of
    consistent (x, p, u) triples. At the run's own tolerance phi has full
    row rank, so no rank decision is left: the basis is the orthogonal
    complement of the run's ``row_basis``, from QR alone. At any other
    tolerance an SVD decides phi's rank there.
    """
    tol = result.tol if tol is None else tol
    if tol <= 0:
        raise ValueError("tol must be positive")
    if tol == result.tol:
        return _complement(result.row_basis)
    return _null_basis(result.phi.rows, tol)


def _null_basis(M: np.ndarray, cut: float) -> np.ndarray:
    """Orthonormal null-space basis of M; singular values <= cut count as zero."""
    rank, _, _, vh = _svd_rank(M, cut, full=True)
    return vh[rank:].T


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
