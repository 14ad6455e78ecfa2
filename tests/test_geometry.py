"""Principal angles, seeded perturbations, log-log fits."""

import numpy as np
import pytest

from singular_lq import (
    LogLogFit,
    Subspace,
    SubspaceDimensionMismatch,
    loglog_fit,
    max_principal_angle,
    perturb,
)


def _random_subspace(rng, ambient, dim):
    return Subspace(np.linalg.qr(rng.standard_normal((ambient, dim)))[0][:, :dim])


def test_angle_trivial_cases():
    e1 = Subspace(np.array([[1.0], [0.0]]))
    e2 = Subspace(np.array([[0.0], [1.0]]))
    diag = Subspace(np.array([[1.0], [1.0]]) / np.sqrt(2.0))
    assert max_principal_angle(e1, e1) == 0.0
    assert abs(max_principal_angle(e1, e2) - np.pi / 2) <= 1e-12
    assert abs(max_principal_angle(e1, diag) - np.pi / 4) <= 1e-12


def test_angle_zero_dimensional():
    a = Subspace(np.zeros((3, 0)))
    b = Subspace(np.zeros((3, 0)))
    assert max_principal_angle(a, b) == 0.0


def test_tiny_rotation_measured_at_full_precision():
    theta = 1e-7
    e1 = Subspace(np.array([[1.0], [0.0]]))
    rotated = Subspace(np.array([[np.cos(theta)], [np.sin(theta)]]))
    angle = max_principal_angle(e1, rotated)
    # straight acos of the cosine would only get ~1e-9 here
    assert abs(angle - theta) <= 1e-14


def test_angle_symmetric_and_basis_independent():
    rng = np.random.default_rng(5)
    for _ in range(25):
        ambient = int(rng.integers(2, 7))
        dim = int(rng.integers(1, ambient))
        u = _random_subspace(rng, ambient, dim)
        v = _random_subspace(rng, ambient, dim)
        forward = max_principal_angle(u, v)
        assert abs(forward - max_principal_angle(v, u)) <= 1e-10
        spin = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        respun = Subspace(u.basis @ spin)
        assert max_principal_angle(u, respun) <= 1e-7
        assert abs(max_principal_angle(respun, v) - forward) <= 1e-10
        assert 0.0 <= forward <= np.pi / 2


def test_angle_to_orthogonal_complement_slice():
    rng = np.random.default_rng(9)
    basis = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    left = Subspace(basis[:, :3])
    right = Subspace(basis[:, 3:])
    assert abs(max_principal_angle(left, right) - np.pi / 2) <= 1e-12


def test_subspace_validation():
    with pytest.raises(ValueError, match="orthonormal"):
        Subspace(2.0 * np.eye(3))
    with pytest.raises(ValueError, match="matrix"):
        Subspace(np.ones(3))
    u = Subspace(np.eye(3)[:, :1])
    v = Subspace(np.eye(3)[:, :2])
    with pytest.raises(SubspaceDimensionMismatch):
        max_principal_angle(u, v)
    w = Subspace(np.eye(4)[:, :1])
    with pytest.raises(ValueError, match="ambient"):
        max_principal_angle(u, w)
    # the dimension mismatch is still a ValueError for broad handlers
    assert issubclass(SubspaceDimensionMismatch, ValueError)


def test_perturb_zero_delta_copies():
    M = np.eye(3)
    out = perturb(M, 0.0, np.random.default_rng(1))
    assert out is not M
    assert np.array_equal(out, M)


def test_perturb_spectral_norm_bound():
    rng = np.random.default_rng(13)
    M = np.zeros((3, 4))
    for _ in range(1000):
        delta = float(10.0 ** rng.uniform(-12, 0))
        moved = perturb(M, delta, rng)
        assert 0.0 <= np.linalg.norm(moved, 2) < delta


def test_perturb_deterministic_and_validating():
    M = np.arange(6.0).reshape(2, 3)
    a = perturb(M, 1e-3, np.random.default_rng(7))
    b = perturb(M, 1e-3, np.random.default_rng(7))
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        perturb(M, -1e-3, np.random.default_rng(7))


def test_loglog_fit_recovers_power_laws():
    xs = [1e-8, 1e-6, 1e-4, 1e-2]
    fit = loglog_fit([(x, x) for x in xs])
    assert fit == LogLogFit(fit.slope, fit.intercept, fit.r_squared, 4)
    assert abs(fit.slope - 1.0) <= 1e-12
    assert abs(fit.intercept) <= 1e-10
    assert fit.r_squared >= 1.0 - 1e-12
    quad = loglog_fit([(x, 3.0 * x * x) for x in xs])
    assert abs(quad.slope - 2.0) <= 1e-10
    assert abs(quad.intercept - np.log(3.0)) <= 1e-10
    assert abs(loglog_fit([(x, 3.0 * x * x) for x in xs]).slope - quad.slope) == 0.0


def test_loglog_fit_validation():
    with pytest.raises(ValueError, match="two points"):
        loglog_fit([(1.0, 1.0)])
    with pytest.raises(ValueError, match="positive"):
        loglog_fit([(1.0, 1.0), (2.0, -1.0)])
    with pytest.raises(ValueError, match="coincide"):
        loglog_fit([(1.0, 1.0), (1.0, 2.0)])
