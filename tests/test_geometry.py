"""Principal angles, seeded perturbations, log-log fits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from problems import shapes_of_calls
from singular_lq import (
    LogLogFit,
    Subspace,
    SubspaceDimensionMismatch,
    loglog_fit,
    max_principal_angle,
    perturb,
)
from singular_lq.experiments import _symmetric_noise
import singular_lq.geometry as geometry
from singular_lq.geometry import _complement, _spectral_norm


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


_LOG_QUARTER_PI = float(np.log10(np.pi / 4))
_LOG_HALF_PI = float(np.log10(np.pi / 2))


@pytest.mark.parametrize("branch", ["sine", "acos"])
@pytest.mark.parametrize("side", ["d < D/2", "d = D/2", "d > D/2"])
@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data())
def test_angle_equals_angle_between_complements(side, branch, data):
    # k planes (q_i, q_{d+i}) of a random orthonormal frame Q are rotated by
    # theta_i. U = span q_1..q_d and V = its image meet at exactly the angles
    # theta_i (and 0), and so do the complements U-perp and V-perp.
    k = data.draw(st.integers(1, 4), label="rotated planes")
    extra = 0 if side == "d = D/2" else data.draw(st.integers(1, 4), label="extra dims")
    d = k + extra if side == "d > D/2" else k
    ambient = 2 * k + extra
    # The largest angle picks the branch: the sine route below pi/4, acos above.
    low, high = (-10.0, _LOG_QUARTER_PI - 0.01) if branch == "sine" else (
        _LOG_QUARTER_PI + 0.01, _LOG_HALF_PI)
    top = 10.0 ** data.draw(st.floats(low, high), label="log10 largest angle")
    rest = [
        10.0 ** data.draw(st.floats(-10.0, float(np.log10(top))), label="log10 angle")
        for _ in range(k - 1)
    ]
    thetas = np.array([top, *rest])
    seed = data.draw(st.integers(0, 2**32 - 1), label="frame seed")
    frame = np.linalg.qr(np.random.default_rng(seed).standard_normal((ambient, ambient)))[0]
    rotation = np.eye(ambient)
    idx = np.arange(k)
    rotation[idx, idx] = rotation[d + idx, d + idx] = np.cos(thetas)
    rotation[d + idx, idx] = np.sin(thetas)
    rotation[idx, d + idx] = -np.sin(thetas)
    moved = frame @ rotation
    u, v = Subspace(frame[:, :d]), Subspace(moved[:, :d])
    u_perp, v_perp = Subspace(frame[:, d:]), Subspace(moved[:, d:])
    assert abs(max_principal_angle(u, v) - top) <= 1e-14
    assert abs(max_principal_angle(u_perp, v_perp) - top) <= 1e-14


# (ambient, dim, QR modes): the complement is the smaller side (a sketch
# orthonormalised twice) or the larger one (the Householder reflectors of
# one QR per panel of at most 32 columns, and none for dim 0); dim 0, dim
# D - 1, a full basis and the panel edge at 32 and 33 columns are the edges.
_COMPLEMENT_CASES = [
    (9, 7, ["reduced", "reduced"]),
    (8, 4, ["reduced", "reduced"]),
    (9, 2, ["raw"]),
    (6, 0, []),
    (6, 6, []),
    (6, 5, ["reduced", "reduced"]),
    (161, 80, ["raw"] * 3),
    (70, 32, ["raw"]),
    (70, 33, ["raw"] * 2),
]


@pytest.mark.parametrize("ambient, dim, modes", _COMPLEMENT_CASES)
def test_complement_is_an_orthonormal_basis_of_the_rest(monkeypatch, ambient, dim, modes):
    def no_svd(*args, **kwargs):
        raise AssertionError("a complement of known dimension needs no SVD")

    qr = np.linalg.qr
    used = []

    def recording_qr(a, mode="reduced"):
        used.append(mode)
        return qr(a, mode=mode)

    basis = np.linalg.qr(np.random.default_rng(ambient + dim).standard_normal((ambient, dim)))[0]
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    rest = _complement(basis)
    assert used == modes
    assert rest.shape == (ambient, ambient - dim)
    assert np.abs(rest.T @ rest - np.eye(ambient - dim)).max(initial=0.0) <= 1e-14
    assert np.abs(basis.T @ rest).max(initial=0.0) <= 1e-14


# Coordinate subspaces make Householder reflectors with tau = 0 (H = I);
# the last two make them in both of their two panels.
_LARGER_SIDE_BASES = [
    np.linalg.qr(np.random.default_rng(5).standard_normal((9, 2)))[0],
    np.linalg.qr(np.random.default_rng(7).standard_normal((41, 20)))[0],
    np.eye(7)[:, [0, 3, 5]],
    -np.eye(5)[:, :2],
    np.zeros((6, 0)),
    np.linalg.qr(np.random.default_rng(11).standard_normal((161, 80)))[0],
    np.linalg.qr(np.random.default_rng(13).standard_normal((241, 120)))[0],
    np.eye(90)[:, ::2][:, :40],
    -np.eye(90)[:, :40],
]


@pytest.mark.parametrize("basis", _LARGER_SIDE_BASES)
def test_complement_of_the_larger_side_is_the_complete_qr(basis):
    dim = basis.shape[1]
    rest = _complement(basis)
    expected = np.linalg.qr(basis, mode="complete")[0][:, dim:]
    assert np.abs(rest - expected).max() <= 1e-14
    assert np.abs(rest.T @ rest - np.eye(len(rest) - dim)).max() <= 1e-14
    assert np.abs(basis.T @ rest).max(initial=0.0) <= 1e-14


def test_complement_of_the_larger_side_solves_nothing_and_factors_panels(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the panels' T blocks need no solve with the whole T^-1")

    basis = np.linalg.qr(np.random.default_rng(13).standard_normal((241, 120)))[0]
    monkeypatch.setattr(np.linalg, "solve", no_solve)
    shapes = shapes_of_calls(monkeypatch, np.linalg, "qr")
    _complement(basis)
    assert shapes == [(241, 32), (209, 32), (177, 32), (145, 24)]


def test_complement_falls_back_to_a_complete_qr(monkeypatch):
    # A sketch whose R factor spreads too far is replaced by the complete
    # QR's trailing columns, also at d = D - 1, for a coordinate subspace
    # and for a basis of two panels.
    monkeypatch.setattr(geometry, "_SKETCH_SPREAD", 1.0)
    for basis in (
        np.linalg.qr(np.random.default_rng(3).standard_normal((9, 6)))[0],
        np.linalg.qr(np.random.default_rng(3).standard_normal((6, 5)))[0],
        np.eye(6)[:, :5],
        np.linalg.qr(np.random.default_rng(3).standard_normal((70, 40)))[0],
    ):
        dim = basis.shape[1]
        expected = np.linalg.qr(basis, mode="complete")[0][:, dim:]
        assert np.abs(_complement(basis) - expected).max() <= 1e-14


def test_subspace_validation():
    with pytest.raises(ValueError, match="orthonormal"):
        Subspace(2.0 * np.eye(3))
    with pytest.raises(ValueError, match="matrix"):
        Subspace(np.ones(3))
    for bad in (np.nan, np.inf):
        for basis in (np.full((3, 1), bad), np.array([[bad, 0.0], [0.0, 1.0], [0.0, 0.0]])):
            with pytest.raises(ValueError, match="non-finite"):
                Subspace(basis)
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
    # 3 x 4 takes the eigvalsh route; 600 x 600 the two-pass Lanczos route.
    rng = np.random.default_rng(13)
    for shape, draws in (((3, 4), 1000), ((600, 600), 20)):
        M = np.zeros(shape)
        for _ in range(draws):
            delta = float(10.0 ** rng.uniform(-12, 0))
            moved = perturb(M, delta, rng)
            assert 0.0 <= np.linalg.norm(moved, 2) < delta, shape


def test_perturb_deterministic_and_validating():
    for M in (np.arange(6.0).reshape(2, 3), np.eye(600)):
        a = perturb(M, 1e-3, np.random.default_rng(7))
        b = perturb(M, 1e-3, np.random.default_rng(7))
        assert np.array_equal(a, b)
        for delta in (-1e-3, np.nan, np.inf):
            with pytest.raises(ValueError):
                perturb(M, delta, np.random.default_rng(7))


def test_perturb_draws_the_direction_then_the_magnitude_at_the_lanczos_size():
    rng, twin = np.random.default_rng(23), np.random.default_rng(23)
    out = perturb(np.eye(600), 1e-8, rng)
    direction = twin.standard_normal((600, 600))
    expected = np.eye(600) + twin.uniform(0.0, 1e-8) / np.linalg.norm(direction, 2) * direction
    assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()
    assert np.linalg.norm(out - np.eye(600), 2) < 1e-8
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("M", [np.ones(3), np.float64(2.0), np.ones((2, 2, 2))])
def test_perturb_rejects_a_matrix_that_is_not_2d_before_drawing(M):
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    for delta in (0.0, 0.1):
        with pytest.raises(ValueError, match=r"^M must be a 2-d matrix, got shape"):
            perturb(M, delta, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_perturb_rejects_a_non_finite_matrix_before_drawing(bad):
    M = np.eye(3)
    M[1, 2] = bad
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    for delta in (0.0, 1e-3):
        with pytest.raises(ValueError, match=r"^M contains non-finite entries$"):
            perturb(M, delta, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
def test_perturb_of_an_empty_matrix_is_a_copy(shape):
    # An empty direction has norm 0 and cannot be scaled to a drawn
    # magnitude, so an empty M comes back as a copy and nothing is drawn.
    M = np.zeros(shape)
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    out = perturb(M, 1e-3, rng)
    assert out.shape == shape and out is not M
    assert rng.bit_generator.state == state


def test_perturbations_take_no_svd(monkeypatch):
    # np.linalg.norm(M, 2) reaches svd through numpy's private module.
    def no_svd(*args, **kwargs):
        raise AssertionError("perturbation norms need no SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    if hasattr(np.linalg, "_linalg"):  # numpy >= 2: the module behind np.linalg
        monkeypatch.setattr(np.linalg._linalg, "svd", no_svd)
    rng = np.random.default_rng(17)
    for n in (4, 600):
        assert perturb(np.eye(n), 1e-6, rng).shape == (n, n)
        assert _symmetric_noise(n, 1e-6, rng).shape == (n, n)


def test_spectral_norm_matches_the_two_norm(monkeypatch):
    # Gram orders on both sides of the eigvalsh/Lanczos crossover, 1000 x 1000
    # being criterion 1's size. A symmetric matrix's singular values are its
    # |eigenvalues|, so its largest two nearly tie; 3 x an orthogonal matrix
    # has one repeated singular value, and a rank-one matrix one nonzero.
    rng = np.random.default_rng(19)
    crossover = geometry._LANCZOS_ORDER
    shapes = [(1, 1), (7, 1), (1, 7), (5, 5), (9, 4), (4, 9), (crossover - 1, crossover),
              (crossover, crossover + 1), (600, 600), (400, 600), (600, 400), (1000, 1000)]
    matrices = [rng.standard_normal(shape) for shape in shapes]
    for n in (6, 600):
        g = rng.standard_normal((n, n))
        matrices.append(g + g.T)
    matrices.append(3.0 * np.linalg.qr(rng.standard_normal((600, 600)))[0])
    matrices.append(np.outer(rng.standard_normal(600), rng.standard_normal(600)))
    lanczos_orders = []
    top_eigenvalue = geometry._top_eigenvalue

    def recording(gram):
        lanczos_orders.append(len(gram))
        return top_eigenvalue(gram)

    monkeypatch.setattr(geometry, "_top_eigenvalue", recording)
    for M in matrices:
        expected = np.linalg.norm(M, 2)
        assert abs(_spectral_norm(M) - expected) <= 1e-13 * expected, M.shape
    assert lanczos_orders == [min(M.shape) for M in matrices if min(M.shape) >= crossover]
    assert len(lanczos_orders) == 8
    assert _spectral_norm(np.zeros((3, 2))) == _spectral_norm(np.zeros((600, 600))) == 0.0


def test_spectral_norm_on_the_lanczos_route_does_not_depend_on_the_scale():
    # The float32 pass would overflow on a Gram matrix past 3.4e38, as here
    # at 1e25, and flush one below 1e-38 to zero, unless it is scaled first.
    M = np.random.default_rng(29).standard_normal((600, 600))
    expected = np.linalg.norm(M, 2)
    for scale in (1e-30, 1e25):
        assert abs(_spectral_norm(scale * M) - scale * expected) <= 1e-13 * scale * expected


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


def test_loglog_fit_validation(capfd):
    with pytest.raises(ValueError, match="two points"):
        loglog_fit([(1.0, 1.0)])
    with pytest.raises(ValueError, match="positive"):
        loglog_fit([(1.0, 1.0), (2.0, -1.0)])
    with pytest.raises(ValueError, match="coincide"):
        loglog_fit([(1.0, 1.0), (1.0, 2.0)])
    # A NaN once gave a fit of NaNs, and an infinite x made LAPACK complain
    # on stderr before polyfit raised LinAlgError.
    for bad in (np.nan, np.inf):
        for pairs in ([(1.0, bad), (2.0, 1.0)], [(1.0, 1.0), (bad, 2.0)]):
            with pytest.raises(ValueError, match="positive, finite coordinates"):
                loglog_fit(pairs)
    assert capfd.readouterr().err == ""
