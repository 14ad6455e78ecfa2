"""Principal angles, seeded perturbations and log-log slope fits."""

from __future__ import annotations

from dataclasses import dataclass
from math import acos, asin, pi
from typing import Iterable, NamedTuple

import numpy as np

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


class SubspaceDimensionMismatch(ValueError):
    """Compared subspaces have different dimensions; no angle is defined.

    Experiment drivers record this outcome explicitly instead of
    fabricating an angle.
    """


@dataclass(frozen=True)
class Subspace:
    """A subspace of R^D held as an orthonormal basis matrix (D x d)."""

    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim != 2:
            raise ValueError(f"basis must be a matrix, got shape {basis.shape}")
        d = basis.shape[1]
        gram_dev = np.abs(basis.T @ basis - np.eye(d)).max() if d else 0.0
        if gram_dev > 1e-12 * max(d, 1):
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
    Subspaces of more than half the ambient dimension are compared through
    their orthogonal complements, which meet at the same largest angle.
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
    if 2 * first.dim > first.ambient_dim:
        # Equal-dimension subspaces and their orthogonal complements have the
        # same largest angle (Bjorck & Golub 1973); compare the smaller side.
        u, v = _complement(u), _complement(v)
    if u.shape[1] == 0:
        return 0.0
    cross = u.T @ v
    svals = np.linalg.svd(cross, compute_uv=False)
    cos_min = min(max(float(svals[-1]), 0.0), 1.0)
    if cos_min ** 2 > 0.5:  # angle below pi/4: sine route keeps full precision
        residual = v - u @ cross
        sin_max = float(np.linalg.svd(residual, compute_uv=False)[0])
        angle = asin(min(max(sin_max, 0.0), 1.0))
    else:
        angle = acos(cos_min)
    return min(max(angle, 0.0), pi / 2)


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
    V T V' with T^-1 = striu(V'V) + diag(1 / tau) (Schreiber & Van Loan
    1989); a reflector with tau = 0 is I and drops out.
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
    h, tau = np.linalg.qr(basis, mode="raw")
    v = (np.tril(h.T, -1) + np.eye(ambient, dim))[:, tau != 0.0]
    t_inv = np.triu(v.T @ v, 1) + np.diag(1.0 / tau[tau != 0.0])
    return np.eye(ambient, ambient - dim, -dim) - v @ np.linalg.solve(t_inv, v[dim:].T)


def _spectral_norm(M: np.ndarray) -> float:
    """Largest singular value of M, from the top eigenvalue of its smaller Gram matrix.

    It only scales random directions, so it decides no rank and spends no
    SVD: a Gram product and a symmetric eigensolve cost less than half of
    one at 600 x 600. Empty and zero matrices have norm 0.
    """
    gram = M.T @ M if M.shape[0] >= M.shape[1] else M @ M.T
    return float(np.sqrt(np.max(np.linalg.eigvalsh(gram), initial=0.0)))


def perturb(M, delta: float, rng) -> np.ndarray:
    """M plus a dense random matrix of spectral norm uniform on (0, delta).

    delta = 0 returns M unchanged. The draw is deterministic for a given
    generator state: the direction first, then the magnitude.
    """
    M = np.asarray(M, dtype=float)
    if delta < 0:
        raise ValueError("delta must be non-negative")
    if delta == 0.0:
        return M.copy()
    direction = rng.standard_normal(M.shape)
    norm = _spectral_norm(direction)
    if norm == 0.0:  # astronomically unlikely; retry once keeps the contract
        direction = rng.standard_normal(M.shape)
        norm = _spectral_norm(direction)
    magnitude = rng.uniform(0.0, delta)
    direction *= magnitude / norm
    return np.add(direction, M, out=direction)


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
    if any(x <= 0 or y <= 0 for x, y in data):
        raise ValueError("log-log fit requires positive coordinates")
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

