"""Principal angles, seeded perturbations and log-log slope fits."""

from __future__ import annotations

from dataclasses import dataclass
from math import acos, asin, inf
from typing import Iterable, NamedTuple

import numpy as np

from .problem import _as_matrix

__all__ = [
    "Subspace",
    "SubspaceDimensionMismatch",
    "max_principal_angle",
    "perturb",
    "LogLogFit",
    "loglog_fit",
]


# Seed of the Gaussian sketch behind _complement, and the largest spread of
# its R factor's diagonal that the sketch route accepts.
_SKETCH_SEED = 20121
_SKETCH_SPREAD = 1e3

# Columns per panel of _complement's blocked Householder QR, LAPACK's own
# dgeqrf block size. LAPACK factors fewer than 128 columns unblocked, one
# level-2 BLAS update per column, which OpenBLAS threads badly; see the
# complement table in the README's Performance section.
_PANEL = 32

# Gram order from which _spectral_norm finds the top eigenvalue by Lanczos
# rather than eigvalsh: the first order at which a single float64 Lanczos
# pass was the faster. The two passes of _top_eigenvalue win from about
# order 150 on; the README's Performance section times both. Lanczos tests
# for convergence every _LANCZOS_STRIDE steps, since an eigensolve of its
# tridiagonal costs about as much as a step there; the seed fixes its start.
_LANCZOS_ORDER = 200
_LANCZOS_STRIDE = 8
_LANCZOS_SEED = 19801

# The float32 pass of _top_eigenvalue stops once its top Ritz residual is
# within this many float32 epsilons of the Ritz value: within 7% of the
# fastest value at each order the README's Performance section times.
_SINGLE_STOP = 30


class SubspaceDimensionMismatch(ValueError):
    """Compared subspaces have different dimensions; no angle is defined."""


@dataclass(frozen=True)
class Subspace:
    """A subspace of R^D held as an orthonormal basis matrix (D x d)."""

    basis: np.ndarray

    def __post_init__(self):
        basis = _as_matrix(self.basis, "basis")
        d = basis.shape[1]
        gram_dev = np.abs(basis.T @ basis - np.eye(d)).max() if d else 0.0
        if not gram_dev <= 1e-12 * max(d, 1):
            raise ValueError(f"basis columns not orthonormal (deviation {gram_dev:.3e})")
        object.__setattr__(self, "basis", basis)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def max_principal_angle(first: Subspace, second: Subspace) -> float:
    """Largest principal angle between two equal-dimensional subspaces.

    The cosine of the largest angle is the smallest singular value of
    basis1' basis2. That formula alone loses half the working precision
    near zero (acos of 1 - eps), so small angles are recomputed from the
    sine: the largest singular value of basis2 projected off span(basis1).
    Complements meet at the same largest angle (Bjorck & Golub 1973), so
    callers pick the smaller side, as sweeps do with phi's two sides.
    Raises SubspaceDimensionMismatch when the subspace dimensions differ
    and ValueError when the ambient spaces do.
    """
    if first.ambient_dim != second.ambient_dim:
        raise ValueError(
            f"ambient dimensions differ: {first.ambient_dim} vs {second.ambient_dim}"
        )
    if first.dim != second.dim:
        raise SubspaceDimensionMismatch(
            f"subspace dimensions differ: {first.dim} vs {second.dim}"
        )
    u, v = first.basis, second.basis
    if first.dim == 0:
        return 0.0
    cross = u.T @ v
    svals = np.linalg.svd(cross, compute_uv=False)
    cos_min = min(max(float(svals[-1]), 0.0), 1.0)
    if cos_min ** 2 > 0.5:  # angle below pi/4: sine route keeps full precision
        residual = v - u @ cross
        sin_max = float(np.linalg.svd(residual, compute_uv=False)[0])
        return asin(min(max(sin_max, 0.0), 1.0))
    return acos(cos_min)  # asin and acos of [0, 1] lie in [0, pi/2]


def _complement(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of an orthonormal basis.

    ``basis`` is D x d with orthonormal columns; the result is D x (D - d).
    Its dimension is known, so no rank is decided and no SVD is spent.
    When the complement is the smaller side, a fixed-seed Gaussian sketch
    of D - d columns is projected off the basis and orthonormalised, twice
    (the second pass restores orthogonality to the basis that the first
    QR's conditioning can cost); the output is the same for the same
    input. If either QR's R factor looks ill-conditioned (its diagonal
    spreads over more than ``_SKETCH_SPREAD``), or the complement is the
    larger side, the trailing D - d columns of a complete QR's Q are built
    from the basis's Householder reflectors in compact WY form, Q = I -
    V T V' (Schreiber & Van Loan 1989). The reflectors come in panels of
    ``_PANEL`` columns. Each panel's T is the inverse of its own
    striu(V'V) + diag(1 / tau) (Joffrain et al. 2006), and its Q' updates
    the columns right of it. The whole T is assembled block by block, with
    T[:c, new] = -T[:c, :c] (V[:, :c]' V_new) T_new. A reflector with tau
    = 0 is I: its column of V is zeroed and its diagonal entry of T^-1 set
    to 1, so it drops out.
    """
    ambient, dim = basis.shape
    if dim == ambient:
        return np.zeros((ambient, 0))
    if 2 * dim >= ambient:
        sketch = np.random.default_rng(_SKETCH_SEED).standard_normal((ambient, ambient - dim))
        for _ in range(2):
            sketch -= basis @ (basis.T @ sketch)
            sketch, upper = np.linalg.qr(sketch)
            diag = np.abs(np.diag(upper))
            if diag.min() <= diag.max() / _SKETCH_SPREAD:
                break
        else:
            return sketch
    reduced, v, t = basis.copy(), np.zeros((ambient, dim)), np.zeros((dim, dim))
    for start in range(0, dim, _PANEL):
        cols = slice(start, start + _PANEL)
        h, tau = np.linalg.qr(reduced[start:, cols], mode="raw")
        kept = tau != 0.0
        panel = np.tril(h.T, -1)
        np.fill_diagonal(panel, 1.0)
        panel *= kept
        v[start:, cols] = panel
        t_inv = np.triu(panel.T @ panel, 1)
        np.fill_diagonal(t_inv, 1.0 / np.where(kept, tau, 1.0))
        t[cols, cols] = t_panel = np.linalg.inv(t_inv)
        if start:
            t[:start, cols] = -t[:start, :start] @ (v[start:, :start].T @ panel) @ t_panel
        if start + _PANEL < dim:
            right = reduced[start:, start + _PANEL :]
            right -= panel @ (t_panel.T @ (panel.T @ right))
    return np.eye(ambient, ambient - dim, -dim) - v @ (t @ v[dim:].T)


def _spectral_norm(M: np.ndarray) -> float:
    """Largest singular value of M: the root of its smaller Gram matrix's top eigenvalue.

    It only scales random directions, so it decides no rank and spends no
    SVD. Below the Gram order ``_LANCZOS_ORDER`` the eigenvalue comes from
    ``eigvalsh``; from there on from ``_top_eigenvalue``, two-pass Lanczos
    on the Gram matrix, which needs the start vector not to be orthogonal
    to the top singular vector. Its start is fixed, so that holds with
    probability one when M is drawn from a continuous distribution, as
    every caller's direction is. Empty and zero matrices have norm 0.
    """
    gram = M.T @ M if M.shape[0] >= M.shape[1] else M @ M.T
    if len(gram) < _LANCZOS_ORDER:
        return float(np.sqrt(np.max(np.linalg.eigvalsh(gram), initial=0.0)))
    return float(np.sqrt(_top_eigenvalue(gram)))


def _top_eigenvalue(gram: np.ndarray) -> float:
    """Top eigenvalue of a symmetric positive semidefinite matrix, by Lanczos in two passes.

    The first pass runs on ``gram`` cast to float32, from the fixed-seed
    start, and stops once its top Ritz pair's residual r is at float32
    level, r <= ``_SINGLE_STOP`` eps32 theta: a float32 product reads half
    the bytes of a float64 one. The largest diagonal entry bounds every
    entry of a semidefinite matrix; the cast divides by it when it lies
    outside (1e-30, 1e30), so float32 neither overflows nor flushes the
    matrix to zero. A zero diagonal means a zero matrix. The Ritz vector
    starts the second pass, on the float64 ``gram``, which then needs far
    fewer steps. That pass stops on Parlett's gap bound, lambda_1 - theta
    <= r^2 / gap (The Symmetric Eigenvalue Problem, 1980), once r^2 <= eps
    theta max(gap, eps theta). Either pass also stops at k = n, where T is
    the matrix's exact tridiagonal form. The value comes from the float64
    pass alone; the float32 pass only picks its start.

    The certificate's limit: the gap is read from the Ritz values, which
    interlace the spectrum, so it can exceed the true gap lambda_1 -
    lambda_2. A top pair closer than about sqrt(eps gap) to each other can
    be certified at a value between them. On 600 x 600 matrices with
    singular values 1 and 1 - 1e-9 above the rest, uniform on [0, 0.999],
    2 of 8 random draws gave a norm off by 1.0e-9 relative, with this loop
    and with a single float64 pass alike. Gaussian directions, the only
    ones ``perturb`` scales, have such a pair with negligible probability.
    """
    eps32, eps = float(np.finfo(np.float32).eps), float(np.finfo(float).eps)
    scale = gram.diagonal().max()
    if not scale > 0.0:
        return 0.0
    single = (gram if 1e-30 < scale < 1e30 else gram / scale).astype(np.float32)
    start = np.random.default_rng(_LANCZOS_SEED).standard_normal(len(gram))
    _, start = _lanczos(single, start, lambda r, theta, gap: r <= _SINGLE_STOP * eps32 * theta)
    return _lanczos(
        gram, start, lambda r, theta, gap: r * r <= eps * theta * max(gap, eps * theta)
    )[0]


def _lanczos(gram: np.ndarray, start: np.ndarray, converged) -> tuple[float, np.ndarray]:
    """Top Ritz pair (theta, x) of ``gram`` on the Krylov space of ``start``.

    Each step multiplies the newest Krylov vector by ``gram``, in its
    precision, and orthogonalises the product against every earlier vector
    by classical Gram-Schmidt, twice (full reorthogonalisation); the
    coefficients build the tridiagonal T in float64. Every
    ``_LANCZOS_STRIDE`` steps the top Ritz pair (theta, y) of T is tested:
    with residual r = beta |y_last| and gap theta minus the next Ritz
    value, the loop stops when ``converged(r, theta, gap)`` holds, or at
    k = n. theta is clipped at 0. Only the Krylov rows in use are written.
    """
    order = len(gram)
    krylov = np.empty((order, order), dtype=gram.dtype)
    diag, off = np.zeros(order), np.zeros(order)
    krylov[0] = start / np.linalg.norm(start)
    k = 1
    while True:
        used = krylov[:k]
        w = gram @ krylov[k - 1]
        for _ in range(2):
            coef = used @ w
            w -= coef @ used
            diag[k - 1] += coef[-1]
        off[k - 1] = np.linalg.norm(w)
        if k % _LANCZOS_STRIDE == 0 or k == order or off[k - 1] == 0.0:
            band = off[: k - 1]
            tri = np.diag(diag[:k]) + np.diag(band, 1) + np.diag(band, -1)
            ritz, vectors = np.linalg.eigh(tri)
            theta = max(float(ritz[-1]), 0.0)
            gap = theta - ritz[-2] if k > 1 else 0.0
            if k == order or converged(off[k - 1] * abs(vectors[-1, -1]), theta, gap):
                return theta, vectors[:, -1] @ used
        krylov[k] = w / off[k - 1]
        k += 1


def perturb(M, delta: float, rng) -> np.ndarray:
    """M plus a dense random matrix of spectral norm uniform on (0, delta).

    delta = 0 and an empty M return a copy of M, drawing nothing; an M that
    is not 2-d, and a non-finite M, raise ValueError, drawing nothing. The
    draw is deterministic for a given generator state: the direction first,
    then the magnitude.
    """
    M = _as_matrix(M, "M")
    if not 0 <= delta < inf:
        raise ValueError("delta must be non-negative and finite")
    if delta == 0.0 or M.size == 0:
        return M.copy()
    direction = _scaled(rng.standard_normal(M.shape), delta, rng)
    return np.add(direction, M, out=direction)


def _scaled(direction: np.ndarray, delta: float, rng) -> np.ndarray:
    """direction scaled in place to a spectral norm drawn uniform on (0, delta)."""
    direction *= rng.uniform(0.0, delta) / _spectral_norm(direction)
    return direction


class LogLogFit(NamedTuple):
    slope: float
    intercept: float
    r_squared: float
    num_points: int


def loglog_fit(pairs: Iterable[tuple[float, float]]) -> LogLogFit:
    """Least-squares fit of ln y against ln x."""
    data = [(float(x), float(y)) for x, y in pairs]
    if len(data) < 2:
        raise ValueError("need at least two points for a slope")
    if not all(0 < x < inf and 0 < y < inf for x, y in data):
        raise ValueError("log-log fit requires positive, finite coordinates")
    lx = np.log([x for x, _ in data])
    ly = np.log([y for _, y in data])
    if np.allclose(lx, lx[0]):
        raise ValueError("all x values coincide; slope undefined")
    slope, intercept = np.polyfit(lx, ly, 1)
    residual = ly - (slope * lx + intercept)
    total = ly - ly.mean()
    ss_tot = float(total @ total)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(residual @ residual) / ss_tot
    return LogLogFit(float(slope), float(intercept), r2, len(data))

