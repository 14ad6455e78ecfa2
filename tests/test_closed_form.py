"""Tilde blocks: recurrence vs closed form vs the projected recursion."""

import numpy as np
import pytest

import singular_lq.closed_form as closed_form
from problems import uniform_problem
from singular_lq import (
    gen_experiment1,
    gen_experiment2,
    gen_experiment3,
    perturb,
    run,
    theorem2_blocks,
    tilde_closed_form,
    tilde_recurrence,
    validate,
)
from singular_lq.experiments import _exact_problem


def _block_scale(*blocks):
    vals = [1.0]
    for b in blocks:
        for M in (b.sigma, b.beta, b.rho):
            if M.size:
                vals.append(np.abs(M).max())
    return max(vals)


def test_level_one_is_primary_block():
    rng = np.random.default_rng(3)
    problem = uniform_problem(rng)
    for tilde in (tilde_closed_form(problem, 1), tilde_recurrence(problem, 1)[0]):
        assert np.array_equal(tilde.sigma, -problem.N.T)
        assert np.array_equal(tilde.beta, problem.B.T)
        assert np.array_equal(tilde.rho, -problem.R)


def test_recurrence_levels_and_validation():
    problem = gen_experiment2(3)
    blocks = tilde_recurrence(problem, 5)
    assert len(blocks) == 5
    for k in (0, 2.5, "2", None, True):
        with pytest.raises(ValueError, match="^k_max must be an integer of at least 1"):
            tilde_recurrence(problem, k)
        with pytest.raises(ValueError, match="^k must be an integer of at least 1"):
            tilde_closed_form(problem, k)


def test_level_two_rho_commutator_form():
    rng = np.random.default_rng(7)
    problem = uniform_problem(rng)
    expected = -problem.N.T @ problem.B + problem.B.T @ problem.N
    assert np.allclose(tilde_closed_form(problem, 2).rho, expected, atol=1e-15)
    assert np.allclose(tilde_recurrence(problem, 2)[1].rho, expected, atol=1e-15)


def test_zero_drift_kills_beta_beyond_level_one():
    rng = np.random.default_rng(11)
    n, m = 3, 2
    problem = validate(
        np.zeros((n, n)), rng.uniform(-1, 1, (n, m)), np.eye(n),
        rng.uniform(-1, 1, (n, m)), np.zeros((m, m)),
    )
    for k in (2, 3, 4):
        assert np.array_equal(tilde_closed_form(problem, k).beta, np.zeros((m, n)))


def test_recurrence_matches_closed_form():
    rng = np.random.default_rng(17)
    problems = [gen_experiment1(4, rng), gen_experiment2(5), gen_experiment3(5)]
    problems += [uniform_problem(rng) for _ in range(20)]
    for problem in problems:
        blocks = tilde_recurrence(problem, 8)
        for k in range(1, 9):
            closed = tilde_closed_form(problem, k)
            rec = blocks[k - 1]
            scale = _block_scale(closed, rec)
            assert np.abs(closed.sigma - rec.sigma).max() <= 1e-12 * scale
            assert np.abs(closed.beta - rec.beta).max() <= 1e-12 * scale
            assert np.abs(closed.rho - rec.rho).max() <= 1e-12 * scale


def test_experiment3_tilde_blocks_are_antisymmetric_pair():
    # sigma~ = -beta~ at every level, so rho~ vanishes identically and
    # beta~(k+1) = (-1)^k B'(A')^k, which dies once the shift nilpotency bites
    n = 5
    problem = gen_experiment3(n)
    at = problem.A.T
    power = np.eye(n)
    for k, block in enumerate(tilde_recurrence(problem, n + 2)):
        if k:
            power = power @ at
        expected_beta = (-1.0) ** k * problem.B.T @ power
        assert np.array_equal(block.beta, expected_beta)
        assert np.array_equal(block.sigma, -block.beta)
        if k:
            assert np.array_equal(block.rho, np.zeros((1, 1)))
    assert np.array_equal(tilde_recurrence(problem, n + 2)[-1].beta, np.zeros((1, n)))


def test_identity_drift_level_three_rho():
    # A = I, B orthonormal, N = BV with V symmetric: rho~(3) = B'QB - 2V
    rng = np.random.default_rng(19)
    n, m = 5, 3
    B = np.linalg.qr(rng.standard_normal((n, m)))[0]
    V = rng.standard_normal((m, m))
    V = (V + V.T) / 2.0
    Q = rng.standard_normal((n, n))
    Q = (Q + Q.T) / 2.0
    problem = validate(np.eye(n), B, Q, B @ V, np.zeros((m, m)))
    expected = B.T @ Q @ B - 2.0 * V
    assert np.allclose(tilde_closed_form(problem, 3).rho, expected, atol=1e-12)


def test_closed_form_perturbation_is_first_order():
    base = uniform_problem(np.random.default_rng(23))
    deltas = [1e-12, 1e-10, 1e-8, 1e-6]
    devs = []
    for delta in deltas:
        problem = validate(
            perturb(base.A, delta, np.random.default_rng(31)),
            base.B, base.Q, base.N, base.R,
        )
        devs.append(np.abs(
            tilde_closed_form(problem, 4).rho - tilde_closed_form(base, 4).rho
        ).max())
    slopes = np.diff(np.log(devs)) / np.diff(np.log(deltas))
    assert all(0.8 <= s <= 1.2 for s in slopes)


def test_tilde_blocks_raise_when_a_product_overflows():
    # Family 1 at n = 5 with B, Q, N and R scaled by 1e150: blocks 3 and 4
    # came back with inf and NaN rows, with only a RuntimeWarning.
    exact = _exact_problem(1, 5, 0)
    scale = 1e150
    problem = validate(exact.A, scale * exact.B, scale * exact.Q, scale * exact.N,
                       scale * exact.R)
    for call in (
        lambda: tilde_recurrence(problem, 4),
        lambda: tilde_closed_form(problem, 4),
        lambda: theorem2_blocks(problem, [np.eye(exact.m)] * 3, 4),
    ):
        with pytest.raises(FloatingPointError):
            call()
    assert np.isfinite(tilde_recurrence(exact, 4)[-1].rows).all()


def test_theorem2_level_one_needs_no_selectors():
    problem = gen_experiment2(3)
    block = theorem2_blocks(problem, [], 1)
    assert np.array_equal(block.rows,
                          np.hstack([-problem.N.T, problem.B.T, -problem.R]))


def test_theorem2_matches_run_blocks():
    rng = np.random.default_rng(37)
    problems = [gen_experiment3(6), gen_experiment2(4)]
    problems += [uniform_problem(rng) for _ in range(20)]
    for problem in problems:
        result = run(problem, tol=1e-9)
        for k, block in enumerate(result.blocks, start=1):
            rebuilt = theorem2_blocks(problem, result.selectors, k)
            scale = max(1.0, np.abs(block.rows).max())
            assert np.abs(rebuilt.rows - block.rows).max() <= 1e-10 * scale


def test_theorem2_selector_validation(monkeypatch):
    problem = gen_experiment2(3)
    result = run(problem, tol=1e-6)
    with pytest.raises(ValueError, match="selectors"):
        theorem2_blocks(problem, result.selectors, len(result.selectors) + 2)
    with pytest.raises(ValueError):
        theorem2_blocks(problem, [], 0)

    # A level that is not an integer and a selector that is not a matrix
    # that fits are rejected before any tilde block is formed.
    def no_closed_form(*args, **kwargs):
        raise AssertionError("a tilde block was formed before the arguments were checked")

    monkeypatch.setattr(closed_form, "tilde_closed_form", no_closed_form)
    for k in (2.5, "2", None, True):
        with pytest.raises(ValueError, match="^k must be an integer of at least 1"):
            theorem2_blocks(problem, result.selectors, k)
    with pytest.raises(ValueError, match="selectors inconsistent with k"):
        theorem2_blocks(problem, [np.eye(5)], 2)
    for selector in (np.ones(1), np.float64(1.0), np.ones((1, 1, 1))):
        with pytest.raises(ValueError, match=r"^selector 1 must be a 2-d matrix, got shape"):
            theorem2_blocks(problem, [selector], 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_theorem2_rejects_a_non_finite_selector_before_any_product(monkeypatch, bad):
    problem = gen_experiment2(3)
    selectors = [sel.copy() for sel in run(problem, tol=1e-6).selectors]
    selectors[-1][0, 0] = bad

    def no_closed_form(*args, **kwargs):
        raise AssertionError("a tilde block was formed before the selectors were checked")

    monkeypatch.setattr(closed_form, "tilde_closed_form", no_closed_form)
    k = len(selectors) + 1
    with pytest.raises(ValueError, match=f"^selector {k - 1} contains non-finite entries$"):
        theorem2_blocks(problem, selectors, k)
