"""Recursive constraint generation for singular LQ problems.

Starting from the primary constraint rows [-N' | B' | -R], each level of
:func:`run` differentiates its rows once along the dynamics (two
products, one with the problem's stored [[A, B], [Q, N]] and one with A')
and splits that derivative by the left factor U' of the SVD of its
control coefficient rho, as in the Gotay-Nester algorithm: the rows along
rho's range determine part of the control derivative, and the rows along
its left null space carry no udot term and form the next block of
constraint rows. That split alone fixes the next block, so the levels
depend on the problem and tol, not on phi: ``_levels`` states the level
step once, :func:`run` the row filter and the stop rule over its levels,
and :class:`AlgorithmResult` what a run decides. Neither the levels nor
the relations they determine are stored: a result replays its levels
from the same generator on request, and :func:`feedback_rate_map` reads
the relations from that replay.

Rank conventions. The standalone :func:`numerical_rank` and
:func:`svd_split` use the relative rule ``s_i > tol * s_1``, which is scale
invariant and what the split residual bound is stated against, and so
does :func:`regular_feedback`, at the fixed cut 1e-12. The recursion itself
(:func:`run`, :func:`independent_rows`, :func:`final_submanifold`) counts
``s_i > tol`` with an absolute threshold: the published index tables this
code reproduces degrade at perturbation sizes that cross ``tol`` itself,
which only an absolute cut reproduces (a perturbed zero R must read as
rank-deficient while its norm stays below tol). Every rank decision, here
and in the DAE chain, counts singular values against its cut in one
place, ``_count``. ``_svd_rank`` feeds it values alone from LAPACK, and
``_nonsingular`` is that at the relative cut 1e-12, for R and the pencil.
``_split`` alone forms singular vectors, from LAPACK's full SVD for every
shape, one row included. It divides :func:`run`'s rho when its norm is
above tol, :func:`svd_split`'s and the DAE chain's A_k, and, on M', gives
every SVD null basis (``_null_basis``).
From the primary block on, the row filter carries a QR factor of phi's
rows, which starts empty and only grows, and a list of the row arrays it
kept: views of the rows :func:`run` offered it, a level's block or a stack
of levels, gathered into phi once, at the end.
Every diagonal entry of its R is positive. Each rank decision is one of
two kinds, both made projected off phi's basis. A block of several rows
is factored by CholeskyQR2 (Fukaya, Nakatsukasa, Yanagisawa & Yamamoto,
ScalA 2014; Yamamoto et al., ETNA 44, 2015): two Gram products and two
Choleskys, which hand over R^-1 = R1^-1 R2^-1 with no Householder QR; each
row of its Q' is then divided by its own norm, as a single row's q is,
and R^-1's columns by the same norms. Its guard
rejects the block when the first Cholesky fails, when a step overflows,
divides by zero or makes a NaN, or when the first pass lost
orthogonality, ||Q1' Q1 - I||_F > 1e-2 (``_LOSS_CUT``), the regime past
cond ~ eps^-1/2 where the second pass is not trusted. Otherwise the block
is appended whole when one certificate clears: ||R^-1||_F, which bounds
1 / s_k and which the factor carries on once the block is appended,
keeps the stacked values above tol, and its Q, projected off phi's once
more, moves by at most sqrt(eps). A block the
guard rejects, or the certificate declines, has its rows ranked one at
a time, like a one-row block: the row's R is the norm beta of its
projection P, with no LAPACK call, and the stacked SVD of [phi; row]
decides instead whenever a derived bound cannot certify it. No SVD of a
block or of its R is taken. A one-row block that :func:`run` could not
stack with the levels after it goes to the one-row decision as it is.
Rows are appended by Gram-Schmidt with reorthogonalisation; a
single row is written straight into the factor's buffers, its q = P /
beta and an R^-1 column ending in 1 / beta, with no matrix product.
Bases that decide no rank are not SVDs: the row filter leaves phi with
full row rank at the run's tolerance, so the final submanifold there is
the orthogonal complement of phi's carried row basis (``row_basis``),
from QR alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _complement
from .problem import (
    ConstraintMatrix, LQProblem, _as_matrix, _check_tol, _derivative, primary_constraint,
)

__all__ = [
    "FEEDBACK",
    "STAGNATION",
    "SvdSplit",
    "AlgorithmResult",
    "numerical_rank",
    "svd_split",
    "independent_rows",
    "run",
    "regular_feedback",
    "final_submanifold",
    "feedback_rate_map",
]

FEEDBACK = "feedback"
STAGNATION = "stagnation"
_EPS = np.finfo(float).eps
# The largest loss of orthogonality ||Q1' Q1 - I||_F of CholeskyQR2's first
# pass that the second pass is trusted to repair (:func:`_cholesky_qr2`).
_LOSS_CUT = 1e-2
# The most one-row, rank-0 levels :func:`run` offers the row filter as one
# block (README, Performance: 16 ran a family-3 stream fastest).
_BATCH = 16


@dataclass(frozen=True)
class SvdSplit:
    """SVD split of a rho block: rho = U @ diag(s) @ V', LAPACK's full SVD.

    u_top holds the first ``rank`` rows of U', u_bottom the rest;
    u_bottom @ rho is numerically zero, so u_bottom selects the constraint
    directions that survive into the next level.
    """

    singular_values: np.ndarray
    rank: int
    u_top: np.ndarray
    u_bottom: np.ndarray


@dataclass(frozen=True)
class AlgorithmResult:
    """What :func:`run` decided, and the problem and tolerance it ran on.

    steps counts constraint levels that refined the submanifold (the
    recursion index): every level, less the last one when phi gained no
    rank there, and at least 1. codim is the row count of the filtered
    constraint matrix phi. halt_reason is STAGNATION when phi gained no
    rank at the last level and its split rank stayed below the previous
    level's row count (gauge directions remain), FEEDBACK otherwise (every
    remaining control derivative determined; this includes a split that
    would leave an empty new block). rank_history holds one (rank rho,
    rank phi) pair per level. row_basis is an orthonormal basis of phi's
    row space, shape (2n + m, codim): the Q factor of phi' that the row
    filter carried to the last level. problem is the problem the run
    took, and tol its tolerance.

    The levels themselves are not stored: they depend on the problem and
    tol alone (:func:`_levels`), so :attr:`blocks` and :attr:`selectors`
    replay the run's ``len(rank_history)`` levels on first read, once per
    result.
    """

    problem: LQProblem
    phi: ConstraintMatrix
    steps: int
    halt_reason: str
    row_basis: np.ndarray
    rank_history: list[tuple[int, int]]
    tol: float
    # The replay is cached in a slot, so the instance dict holds the fields
    # alone: ``AlgorithmResult(**result.__dict__)`` rebuilds a result, and a
    # copy or pickle, which takes that dict as its state, leaves the cache out.
    # A class with slots has weak references only when it lists them.
    __slots__ = ("__dict__", "__weakref__", "_replay")

    def __getstate__(self):
        return self.__dict__

    @property
    def codim(self) -> int:
        return self.phi.rows.shape[0]

    @property
    def _replayed(self) -> list[tuple[ConstraintMatrix, SvdSplit | None]]:
        """The run's levels, (block, split), one per ``rank_history`` entry, replayed on first read."""
        if not hasattr(self, "_replay"):
            levels = zip(self.rank_history, _levels(self.problem, self.tol))
            object.__setattr__(self, "_replay", [level for _, level in levels])
        return self._replay

    @property
    def blocks(self) -> list[ConstraintMatrix]:
        """Each level's rows before independence filtering, blocks[k - 1] at level k."""
        return [block for block, _ in self._replayed]

    @property
    def selectors(self) -> list[np.ndarray]:
        """For each level that passed rows on, the factor that took its derivative to the next block.

        That is the u_bottom factor of its split, or the identity at a level of rank 0.
        """
        return [split.u_bottom if split and split.rank else np.eye(len(block.rows))
                for block, split in self._replayed[:-1]]


def _frobenius(M: np.ndarray) -> float:
    """||M||_F, rescaled by the largest entry when its sum of squares under- or overflows."""
    sq = float(np.vdot(M, M))
    if 1e-290 < sq < math.inf or not M.size:
        return math.sqrt(sq)
    scale = float(np.abs(M).max(initial=0.0))
    return scale * math.sqrt(np.vdot(M / scale, M / scale)) if scale else 0.0


def _count(s: np.ndarray, tol: float, relative: bool) -> int:
    """Number of the descending values s above ``tol``, or ``tol * s_1`` with ``relative``."""
    cut = tol * s[0] if relative and s.size else tol
    return int(np.count_nonzero(s > cut))


def _svd_rank(M: np.ndarray, tol: float, relative: bool = False) -> int:
    """Count of M's singular values, from LAPACK alone, above the cut."""
    return _count(np.linalg.svd(M, compute_uv=False), tol, relative)


def _nonsingular(M: np.ndarray) -> bool:
    """Whether the square M has every singular value above 1e-12 times the largest."""
    return _svd_rank(M, 1e-12, relative=True) == M.shape[0]


def _checked(M, tol: float, name: str) -> np.ndarray:
    """M as a finite float matrix, after the checks the public rank functions share."""
    _check_tol(tol)
    return _as_matrix(M, name)


def numerical_rank(M, tol: float) -> int:
    """Number of singular values above the relative threshold ``tol * s_1``.

    Empty and zero matrices have rank 0.
    """
    return _svd_rank(_checked(M, tol, "M"), tol, True)


def svd_split(rho, tol: float) -> SvdSplit:
    """LAPACK's full SVD of rho, its left factor split at the relative rank ``s > tol * s_1``."""
    rho = _checked(rho, tol, "rho")
    if rho.shape[0] < 1:
        raise ValueError(f"rho must be a matrix with at least one row, got shape {rho.shape}")
    return _split(rho, tol, True)


def _split(M: np.ndarray, tol: float, relative: bool) -> SvdSplit:
    """:func:`svd_split` without its input checks: the one place singular vectors are formed.

    Every split, one row included, is LAPACK's full SVD, and U its left factor.
    """
    u, svals, _ = np.linalg.svd(M, full_matrices=True)
    rank, ut = _count(svals, tol, relative), u.T
    return SvdSplit(singular_values=svals, rank=rank, u_top=ut[:rank], u_bottom=ut[rank:])


class _RowFactor:
    """Q' and R^-1 of the thin QR rows' = Q R of rows of full row rank, and those rows.

    The factor starts with no rows for a given width and grows only by
    :meth:`extend`, up to ``capacity`` rows: the caller's bound on the rank,
    at most the width, since the rows keep full row rank. ``qt`` and
    ``inv_r`` are views of buffers allocated once at that capacity, so
    appending k rows writes only k new columns of Q and R^-1. The rows are
    not copied: ``kept`` records each appended row array as it was passed
    (in :func:`run`, views of its blocks), and :attr:`rows` gathers them
    into one new array. The rows' and R^-1's Frobenius norms are carried
    along, so the certificate re-reads neither.
    """

    def __init__(self, width: int, capacity: int):
        self._qt, self._inv_r = np.empty((capacity, width)), np.zeros((capacity, capacity))
        self.qt, self.inv_r = self._qt[:0], self._inv_r[:0, :0]
        self.kept: list[np.ndarray] = []
        self.norm = self.inv_norm = 0.0

    @property
    def rank(self) -> int:
        """The number of kept rows, which is their rank."""
        return self.qt.shape[0]

    @property
    def rows(self) -> np.ndarray:
        """The kept rows, stacked into a new (rank, width) array."""
        return np.concatenate(self.kept) if self.kept else np.empty((0, self._qt.shape[1]))

    def extend(self, rows: np.ndarray, qt: np.ndarray, tail: np.ndarray, g: np.ndarray,
               norm: float, tail_norm: float) -> None:
        """Append rows with Q' rows qt and grown norm ``norm``; R^-1 gains [-g tail; tail]."""
        c, k = self.rank, rows.shape[0]
        off = -g @ tail
        self._qt[c : c + k] = qt
        self._inv_r[:c, c : c + k], self._inv_r[c : c + k, c : c + k] = off, tail
        self._grow(rows, norm, _frobenius(off), tail_norm)

    def extend_row(self, row: np.ndarray, projected: np.ndarray, beta: float, g: np.ndarray,
                   g_norm: float, norm: float) -> None:
        """:meth:`extend` by one row whose projection P off Q is beta q, written in place.

        beta = ||P||_F > 0, the positive R diagonal CholeskyQR2 gives too, so
        q = P / beta, and R^-1 gains the column [-g / beta; 1 / beta], with
        -g / beta formed as g times -(1 / beta), as :meth:`extend` forms -g
        tail. Its norm is taken from ``g_norm`` = ||g||_F, as ||g|| / beta.
        """
        c, inv = self.rank, 1.0 / beta
        np.divide(projected, beta, out=self._qt[c : c + 1])
        np.multiply(g, -inv, out=self._inv_r[:c, c : c + 1])
        self._inv_r[c, c] = inv
        self._grow(row, norm, g_norm / beta, inv)

    def _grow(self, rows: np.ndarray, norm: float, *inv_norms: float) -> None:
        """Keep rows and take them into the views; R^-1's norm grows by its new blocks' norms."""
        self.kept.append(rows)
        c = self.rank + rows.shape[0]
        self.qt, self.inv_r = self._qt[:c], self._inv_r[:c, :c]
        self.norm = norm
        self.inv_norm = math.hypot(self.inv_norm, *inv_norms)


def _inflated(inv_norm: float, slack: float) -> float:
    """A computed ||R^-1|| raised by its relative error, eps cond(R) <= slack ||R^-1||."""
    return inv_norm * (1.0 + slack * inv_norm)


def _cholesky_qr2(P: np.ndarray):
    """Q' and R^-1 of P' = Q R by CholeskyQR2, or None when its guard rejects P.

    Two passes of CholeskyQR (Fukaya, Nakatsukasa, Yanagisawa & Yamamoto,
    ScalA 2014; Yamamoto et al., ETNA 44, 2015): R1' R1 = P P' and Q1' =
    R1^-T P, then R2' R2 = Q1' Q1 and Q' = R2^-T Q1', so R = R2 R1 and R^-1 =
    R1^-1 R2^-1. Each pass is one Gram product, one Cholesky, one inverse
    of its triangular factor and one product, and the second makes Q
    orthonormal to rounding while cond(P) is below about eps^-1/2. Each
    row of Q' is then divided by its own norm, as a single row's q = P /
    beta is, and each column of R^-1 by the same norm, so Q R is still P'
    and the rows' norms are 1 to rounding (on exact family 3 at n = 100
    this halves the row basis's distance from orthonormality). R's
    diagonal is positive, as the Choleskys' are. P is rejected when the
    first Cholesky fails, when any step overflows, divides by zero or makes
    a NaN, or when the first pass lost orthogonality: ||Q1' Q1 - I||_F,
    read from the second pass's Gram matrix, above ``_LOSS_CUT`` (it is at
    least 1 when P has more rows than columns).
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            lower = np.linalg.cholesky(P @ P.T)
            inv_first = np.linalg.inv(lower.T)
            qt = inv_first.T @ P
            gram = qt @ qt.T
            if _frobenius(gram - np.eye(len(gram))) > _LOSS_CUT:
                return None
            again = np.linalg.cholesky(gram)
            inv_second = np.linalg.inv(again.T)
            qt, inv_r = inv_second.T @ qt, inv_first @ inv_second
            # Each row of Q' divided by its own norm, as a single row's q = P /
            # beta is, and R^-1's columns by the same norms: Q R is unchanged.
            norms = np.sqrt(np.einsum("ij,ij->i", qt, qt))
            qt /= norms[:, None]
            inv_r /= norms
            return qt, inv_r
    except (np.linalg.LinAlgError, FloatingPointError):
        return None


def _appended(M: np.ndarray, tol: float, factor: _RowFactor) -> bool:
    """Append M to ``factor`` when each of its rows is certified to add SVD rank; return whether it was.

    ``factor`` holds kept, of full row rank c, with Q' and R^-1 of kept' =
    Q R; M has k >= 1 rows. P is M projected off Q twice (classical
    Gram-Schmidt with reorthogonalisation), and the bounds hold against
    the stacked SVD's rounding slack, e = eps * max(shape) * ||stacked||_F.
    On the span of Q and P's top right singular vectors the stacked
    matrix acts as [[R', 0], [U' M Q, S]], whose inverse bounds its
    smallest value there from below by 1 / (||R^-1|| + (1 + ||G||) / s),
    with G' = R^-1 (M Q)', s the smallest of those values of P, and
    Frobenius norms for the spectral ones. The carried R^-1 is accurate
    to about eps * cond(R) <= e ||R^-1|| relative, so its norm enters
    inflated by that factor. This lower side is where a projected count
    alone goes wrong: an ill-conditioned kept (large ||R^-1||) or a block
    with a large component along it (large ||G||) pulls the stacked
    values below P's.

    A block of k >= 2 rows is decided by one certificate and enters whole
    or not at all: P' = q R by CholeskyQR2 (:func:`_cholesky_qr2`), and 1 /
    s_k(P) <= ||R^-1||_F, inflated the same way, stands in for 1 / s in the
    lower bound. That bound is the whole certificate: a diagonal entry of R
    at most tol makes ||R^-1||_F >= 1 / tol, and the comparison declines a
    NaN. q is orthogonal to Q only to about eps ||P|| / s_k. Projected off
    Q once more it is orthogonal to it, and orthonormal up to ||Q' q||^2,
    which must not exceed eps. Then [kept; M]' = [Q, q]
    [[R_kept, T], [0, R]] with T = (M Q)' up to rounding, and the factor's
    R^-1 grows blockwise. When CholeskyQR2's guard rejects P, the bound
    does not clear tol or q drifted, M is not appended and the caller
    ranks its rows one at a time: no SVD of the block or of its R is taken.

    One row needs no factorisation: its R is the scalar s = beta =
    ||P||_F, positive like CholeskyQR2's diagonal, so q = P / beta. The row
    adds rank when s > tol and the lower bound clears tol, and adds none
    when s <= tol - e (interlacing gives s_(c+1)(stacked) <= s) and the
    bound on kept's own values clears tol. Otherwise the stacked SVD
    decides. A row it keeps takes one more pass first, and adds no rank if
    that keeps under 1/sqrt(2) of ||P|| (Kahan's "twice is enough"): P is
    then noise along Q, counted only because tol is below the SVD's
    rounding.
    """
    c, (k, width) = factor.rank, M.shape
    basis_t = factor.qt
    coef = M @ basis_t.T
    projected = M - coef @ basis_t
    projected -= (projected @ basis_t.T) @ basis_t
    g = factor.inv_r @ coef.T
    g_norm = _frobenius(g)
    grow = 1.0 + g_norm
    stacked_norm = math.hypot(factor.norm, _frobenius(M))
    slack = _EPS * max(c + k, width) * stacked_norm
    inv_low = _inflated(factor.inv_norm, slack)  # 1 / lower bound of the stacked values
    cut = 1.0 / (tol + slack)  # the lower bound clears tol when inv_low is below this
    if k > 1:
        factored = _cholesky_qr2(projected)
        if factored is None:
            return False
        qt, tail = factored
        tail_norm = _frobenius(tail)
        if not inv_low + grow * _inflated(tail_norm, slack) < cut:
            return False
        drift = qt @ basis_t.T
        qt -= drift @ basis_t
        if np.vdot(drift, drift) > _EPS:
            return False
        factor.extend(M, qt, tail, g, stacked_norm, tail_norm)
        return True
    s = beta = _frobenius(projected)
    if s > tol:
        inv_low += grow / s
    if inv_low >= cut or tol - slack < s <= tol:
        if _svd_rank(np.vstack([*factor.kept, M]), tol) <= c:
            return False
        projected -= (projected @ basis_t.T) @ basis_t
        beta = _frobenius(projected)
        if not beta > math.sqrt(0.5) * s:
            return False
    elif s <= tol:
        return False
    # q = P / beta is orthogonal to Q to about eps, since s = ||P||.
    factor.extend_row(M, projected, beta, g, g_norm, stacked_norm)
    return True


def _independent_rows_array(M: np.ndarray, tol: float, factor: _RowFactor) -> _RowFactor:
    """Greedy top-down row filter at tolerance tol; returns the kept rows' factor.

    Keeps each row iff appending it raises the numerical rank of the rows
    kept so far, so the kept count always equals the numerical rank of the
    result. ``factor`` is empty or holds a previous output of this filter:
    the greedy pass over its rows would keep every one, so only M's rows
    are tested, and the factor grows in place and is returned. Rank-0 or
    empty input adds no row.

    A block of several rows is appended whole when :func:`_appended`
    certifies that every row adds rank; otherwise, and for a single row,
    each row is decided on its own. The factor keeps views of M's rows,
    not copies.
    """
    if len(M) == 1:
        _appended(M, tol, factor)
    elif len(M) > 1 and not _appended(M, tol, factor):
        for row in M:
            _appended(row[None, :], tol, factor)
    return factor


def independent_rows(phi: ConstraintMatrix, tol: float) -> ConstraintMatrix:
    """Filter phi to its greedily selected independent rows (idempotent)."""
    rows = _checked(phi.rows, tol, "phi")
    factor = _RowFactor(rows.shape[1], min(rows.shape))
    rows = _independent_rows_array(rows, tol, factor).rows
    return ConstraintMatrix(rows=rows, n=phi.n, m=phi.m)


def _levels(problem: LQProblem, tol: float):
    """The levels of the recursion on ``problem`` at ``tol``, as (block, split), the primary block first.

    split is None when ||rho||_F <= tol, since s_1 <= ||rho||_F makes rho's
    rank 0 then, and rho's split at the absolute cut otherwise. The next
    block is u_bottom times the level's derivative when the split rank is
    above 0, and the derivative itself otherwise. No level depends on phi,
    so :func:`run`, its lookahead and the replay of its result read the
    same levels.
    """
    block = primary_constraint(problem)
    while True:
        split = None if _frobenius(block.rho) <= tol else _split(block.rho, tol, False)
        yield block, split
        rows = _derivative(block, problem)
        if split and split.rank:
            rows = split.u_bottom @ rows
        block = ConstraintMatrix(rows, problem.n, problem.m)


def _batch_appended(level_rows: list[np.ndarray], tol: float, factor: _RowFactor) -> bool:
    """Whether there are several level rows and :func:`_appended` takes them stacked, as one block.

    The factor then keeps the stack whole. An overflow or NaN inside the
    block's factorisation declines it, like any other decline: its rows
    are then ranked level by level, where the recursion may stop first.
    """
    try:
        return len(level_rows) > 1 and _appended(np.concatenate(level_rows), tol, factor)
    except FloatingPointError:
        return False


def run(problem: LQProblem, tol: float = 1e-6) -> AlgorithmResult:
    """Run the constraint recursion on a validated problem.

    Every rank decision inside the loop uses the absolute rule ``s > tol``;
    see the module docstring. The levels come from :func:`_levels`, which
    ranks rho (a split, unless ||rho||_F <= tol makes it rank 0) and forms
    the next block. Each level goes through one body: filter the block
    into phi, record the ranks and pull the next level, whose derivative
    is taken before the stop test so that a level whose arithmetic
    overflows or makes a NaN raises ``FloatingPointError`` even when it is
    the last. With r the split rank, rows the block's row count, prev_rows
    the previous level's (m at level 1) and phi *stalled* when it gained
    no rank over the previous level, the run then stops when r >=
    prev_rows, phi stalled or r == rows (the next block would be empty).
    Comparing r with the previous level's row count is the published
    loop's quirk, kept as it is.

    A one-row level of rank 0, as every level of family 3 is, can only
    stop when its row adds no rank, and its derivative is the next block
    as it is. So a one-row level whose rho is within tol in norm first
    pulls the levels after it while each is again such a level, up to
    ``_BATCH`` levels and the width phi has left, and offers their rows,
    stacked, to the row filter as one block. Appended whole, the block's
    certificate puts the stacked values above tol, and by interlacing
    every prefix's smallest value too, so each level kept its row as it
    would have alone: the body records each with rank 0 and phi's rank
    after its row, and does not filter it again. Declined, the levels go
    through the body one at a time. A pull that raises while the lookahead
    runs is held, and raised when the loop reaches that level, and an
    overflow inside the block's filter declines the block, so the run
    raises only where one level at a time does.
    """
    _check_tol(tol)
    width = 2 * problem.n + problem.m
    factor = _RowFactor(width, width)
    prev_rows, prev_rank = problem.m, 0
    rank_history: list[tuple[int, int]] = []
    ahead: list = []  # levels pulled past this one, in order, or the error a pull raised
    certified = 0  # levels of an appended stack not yet recorded, this one included
    with np.errstate(over="raise", invalid="raise"):
        levels = _levels(problem, tol)
        block, split = next(levels)
        while True:
            rows = block.rows.shape[0]
            if split is None and rows == 1 and not (ahead or certified):
                stack, limit = [block.rows], min(_BATCH, width - factor.rank)
                while len(stack) < limit:
                    try:
                        ahead.append(next(levels))
                    except FloatingPointError as error:
                        ahead.append(error)
                    if isinstance(ahead[-1], FloatingPointError) or ahead[-1][1] is not None:
                        break
                    stack.append(ahead[-1][0].rows)
                certified = len(stack) if _batch_appended(stack, tol, factor) else 0
            if certified:
                certified -= 1
                phi_rank = factor.rank - certified
            else:
                phi_rank = _independent_rows_array(block.rows, tol, factor).rank
            rank = split.rank if split else 0
            rank_history.append((rank, phi_rank))
            # Pulled before the stop test: a last level whose derivative overflows raises.
            level = ahead.pop(0) if ahead else next(levels)
            if isinstance(level, FloatingPointError):
                raise level
            stalled = phi_rank <= prev_rank
            if rank >= prev_rows or stalled or rank == rows:
                break
            prev_rows, prev_rank = rows, phi_rank
            block, split = level

    # R^-1 is done with: free its buffer before phi is gathered from the
    # kept rows and its basis, a view of the Q' buffer, is copied out compact.
    factor.inv_r = factor._inv_r = None
    return AlgorithmResult(
        problem=problem,
        phi=ConstraintMatrix(rows=factor.rows, n=problem.n, m=problem.m),
        steps=max(len(rank_history) - stalled, 1),
        halt_reason=STAGNATION if stalled and rank < prev_rows else FEEDBACK,
        rank_history=rank_history,
        row_basis=factor.qt.T.copy(),
        tol=tol,
    )


def regular_feedback(problem: LQProblem):
    """Control law u = R^-1 (B'p - N'x) when R is numerically invertible.

    Returns the m x 2n matrix K with u = K [x; p], or None when R is
    singular: its smallest singular value is at most 1e-12 times the
    largest, the relative cut :func:`singular_lq.dae.pencil_is_regular`
    uses (a zero R is always singular). A None result is the signal to
    hand the problem to the constraint recursion instead.
    """
    if not _nonsingular(problem.R):
        return None
    return np.linalg.solve(problem.R, primary_constraint(problem).rows[:, : 2 * problem.n])


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
    _check_tol(tol)
    if tol == result.tol:
        return _complement(result.row_basis)
    return _null_basis(result.phi.rows, tol)


def _null_basis(M: np.ndarray, cut: float) -> np.ndarray:
    """Orthonormal null-space basis of M, M' split at the absolute cut; values <= cut are zero."""
    return _split(M.T, cut, False).u_bottom.T


def _feedback_relations(result: AlgorithmResult):
    """(level, rate, drift) for each level of the run that determined part of udot.

    A level of split rank r > 0 determines rate @ udot + drift @ (x, p, u)
    = 0 on the final submanifold: rate is u_top @ rho and drift u_top
    times the level's derivative, u_top the top r rows of U' from the
    level's split in the result's replay.
    """
    for level, (block, split) in enumerate(result._replayed, 1):
        if split and split.rank:
            yield level, split.u_top @ block.rho, split.u_top @ _derivative(block, result.problem)


def feedback_rate_map(result: AlgorithmResult) -> np.ndarray:
    """Minimal-norm linear map L with udot = L @ (x, p, u).

    Stacks the run's determined relations, rate @ udot + drift @ (x, p, u)
    = 0, one group per level of split rank above 0, and solves them in the
    least-squares sense. When the stacked ``rate`` rows have full row
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
    relations = list(_feedback_relations(result))
    if not relations:
        return np.zeros((result.phi.m, result.phi.width))
    _, rates, drifts = zip(*relations)
    solution, *_ = np.linalg.lstsq(np.vstack(rates), -np.vstack(drifts), rcond=None)
    return solution
