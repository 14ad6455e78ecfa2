"""Linear constant-coefficient DAEs A xdot = B x and their subspace chain.

The chain M0 = R^n, M_{k+1} = { x in M_k : B x in Im(A restricted to M_k) }
stabilizes after finitely many steps at the set of consistent initial
conditions. For a regular pencil brought to Weierstrass form
(E A F = blkdiag(I, Nnil), E B F = blkdiag(W, I)) the number of steps is
nu + 1, where nu is the nilpotency index of Nnil normalized so that
Nnil^nu != 0 and Nnil^(nu+1) = 0 (nu = 0 for Nnil = 0).

The chain deflates the pencil, as the staircase reduction does (Van Dooren
1979). Each step holds the pair (A_k, B_k) = (P' A M, P' B M), M the
current basis and P orthonormal columns whose span holds A M and B M, from
(A, B) and M = I. An SVD of A_k splits its column space U1 from its left
null space Y; the kernel K of Y' B_k gives M K, and the pair shrinks to
(U1' A_k K, U1' B_k K). Conditions already met are deflated away, never
imposed again on a basis that has drifted.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from .algorithm import _frobenius, _nonsingular, _null_basis, _split
from .problem import _as_matrix, _check_tol, _is_count

__all__ = [
    "LinearDAE",
    "WeierstrassSpec",
    "dae_constraint_chain",
    "build_weierstrass",
    "pencil_is_regular",
    "random_weierstrass_spec",
]


@dataclass(frozen=True)
class LinearDAE:
    """Square coefficient pair for A xdot = B x."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A, B = _as_matrix(self.A, "A"), _as_matrix(self.B, "B")
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        if B.shape != A.shape:
            raise ValueError(f"B must match A, got {B.shape} vs {A.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class WeierstrassSpec:
    """Canonical data (W, Nnil, nu) plus the transforms E, F that hide it.

    Nnil is nilpotent with Nnil^nu != 0 and Nnil^(nu+1) = 0; E and F must
    be invertible (the generator keeps them orthogonal or bounded in
    condition number so the chain's rank decisions stay clean).
    """

    W: np.ndarray
    Nnil: np.ndarray
    nu: int
    E: np.ndarray
    F: np.ndarray

    def __post_init__(self):
        names = ("W", "Nnil", "E", "F")
        W, Nnil, E, F = matrices = [_as_matrix(getattr(self, k), k) for k in names]
        d, q = W.shape[0], Nnil.shape[0]
        if W.shape != (d, d) or Nnil.shape != (q, q):
            raise ValueError("W and Nnil must be square")
        if q < 1:
            raise ValueError("Nnil must be at least 1x1")
        if E.shape != (d + q, d + q) or F.shape != (d + q, d + q):
            raise ValueError(f"E and F must be {(d + q, d + q)}")
        if not (_is_count(self.nu, 0) and self.nu <= q - 1):
            raise ValueError(f"nu must be an integer in [0, q-1], got {self.nu!r}")
        power = np.linalg.matrix_power(Nnil, self.nu) if self.nu else np.eye(q)
        if not np.any(power):
            raise ValueError(f"Nnil^{self.nu} vanishes; nu overstated")
        if np.any(power @ Nnil):
            raise ValueError(f"Nnil^{self.nu + 1} does not vanish; nu understated")
        for name, M in zip(names, matrices):
            object.__setattr__(self, name, M)

    @property
    def d(self) -> int:
        return self.W.shape[0]

    @property
    def q(self) -> int:
        return self.Nnil.shape[0]


def dae_constraint_chain(dae: LinearDAE, tol: float = 1e-9) -> tuple[list[np.ndarray], int]:
    """Subspace chain M1 >= M2 >= ... and the step count.

    Returns (chain, r) where chain[k-1] is an orthonormal basis of M_k,
    r is the smallest k >= 1 with M_k = M_{k+1} (strict refinements plus
    one), and chain ends at M_r, the consistent initial conditions.
    Subspaces are compared by dimension, which suffices because each step
    refines the previous subspace.

    The cuts are ``tol`` times the original ||A|| and ||B||, never the
    shrinking pair's norms: deep in the chain its entries can be pure
    roundoff, which a relative cut would read as full rank. A norm past
    the float range raises ``FloatingPointError``.
    """
    _check_tol(tol)
    norms = _finite_norms(dae, lambda M: np.linalg.norm(M, 2))
    cut_a, cut_b = (tol * (norm or 1.0) for norm in norms)
    A, B, basis = dae.A, dae.B, np.eye(dae.n)
    chain: list[np.ndarray] = []
    while True:
        split = _split(A, cut_a, False)
        kernel = _null_basis(split.u_bottom @ B, cut_b)  # B_k y in Im A_k
        if kernel.shape[1] == basis.shape[1]:
            # The chain stabilized at its last entry; with none, M1 = M0 = R^n
            # and r = 1. Dimensions strictly decrease until here, so the loop
            # ends within n + 1 steps.
            return (chain, len(chain)) if chain else ([basis], 1)
        kept = split.u_top
        A, B, basis = kept @ A @ kernel, kept @ B @ kernel, basis @ kernel
        chain.append(basis)


def build_weierstrass(spec: WeierstrassSpec) -> LinearDAE:
    """Assemble A = E^-1 blkdiag(I, Nnil) F^-1, B = E^-1 blkdiag(W, I) F^-1.

    Each is E^-1 blkdiag(top, bottom) F^-1, one solve with E and one product
    with the inverse of F, which the two share.
    """
    d, f_inv = spec.d, np.linalg.inv(spec.F)

    def assembled(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
        core = np.zeros(spec.E.shape)
        core[:d, :d], core[d:, d:] = top, bottom
        return np.linalg.solve(spec.E, core) @ f_inv

    return LinearDAE(A=assembled(np.eye(d), spec.Nnil), B=assembled(spec.W, np.eye(spec.q)))


def pencil_is_regular(dae: LinearDAE) -> bool:
    """Probabilistic regularity test: lambda A - B nonsingular somewhere.

    Samples 16 random real lambda, standard normal draws from
    ``np.random.default_rng(0)`` times ||B||_F / ||A||_F (1 when either
    norm is 0), so that lambda A and B are of one size at any scale of the
    pencil. The test forms lambda A / ||A||_F minus B / ||B||_F, which is
    that pencil divided by ||B||_F, so no product overflows. The
    nonsingularity test of :func:`~singular_lq.algorithm.regular_feedback`
    asks whether it has full rank at the relative cut 1e-12: every singular
    value must exceed 1e-12 times the largest, which the division leaves
    as it is. An
    irregular pencil is singular for every lambda, so any single full-rank
    sample certifies regularity; a regular pencil fails all trials only if
    every sampled lambda lands near a generalized eigenvalue, which has
    probability zero under a continuous sampling distribution. A norm past
    the float range raises ``FloatingPointError``.
    """
    A, B = (M / (norm or 1.0) for M, norm in zip((dae.A, dae.B), _finite_norms(dae, _frobenius)))
    rng = np.random.default_rng(0)
    for _ in range(16):
        lam = rng.standard_normal()
        if _nonsingular(lam * A - B):
            return True
    return False


def _finite_norms(dae: LinearDAE, norm) -> tuple[float, float]:
    """norm(A) and norm(B), or FloatingPointError when either overflows."""
    norms = norm(dae.A), norm(dae.B)
    if not np.isfinite(norms).all():
        raise FloatingPointError(f"overflow: ||A|| = {norms[0]:.3g}, ||B|| = {norms[1]:.3g}")
    return norms


def _random_orthogonal(dim: int, rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def random_weierstrass_spec(
    rng,
    d_max: int = 3,
    q_max: int = 6,
    nu_max: int = 5,
    max_cond: float = 1.0,
) -> WeierstrassSpec:
    """Draw a spec with known index: one nilpotent Jordan block plus zeros.

    E and F are random orthogonal for ``max_cond = 1`` (the default);
    larger values mix in a diagonal with condition number up to max_cond.
    d_max and q_max must be integers of at least 1, nu_max one of at least
    0, and max_cond finite and at least 1; any other value raises
    ValueError naming it, before anything is drawn.
    """
    for name, value, low in (("d_max", d_max, 1), ("q_max", q_max, 1), ("nu_max", nu_max, 0)):
        if not _is_count(value, low):
            raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}")
    if not 1 <= max_cond < inf:
        raise ValueError(f"max_cond must be finite and at least 1, got {max_cond!r}")
    d = int(rng.integers(1, d_max + 1))
    nu = int(rng.integers(0, min(nu_max, q_max - 1) + 1))
    q = int(rng.integers(nu + 1, q_max + 1))
    W = rng.uniform(-1.0, 1.0, (d, d))
    nnil = np.zeros((q, q))
    for i in range(nu):
        nnil[i, i + 1] = 1.0
    size = d + q

    def transform():
        M = _random_orthogonal(size, rng)
        if max_cond > 1.0:
            spread = np.exp(rng.uniform(0.0, np.log(max_cond), size))
            spread /= spread.min()
            M = M * spread  # scale columns; condition number <= max_cond
        return M

    return WeierstrassSpec(W=W, Nnil=nnil, nu=nu, E=transform(), F=transform())
