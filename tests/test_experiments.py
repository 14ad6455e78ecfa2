"""Problem families, perturbation rules, sweep records, slope fits."""

import gc
import weakref

import numpy as np
import pytest

from problems import shapes_of_calls
from singular_lq import (
    ExperimentRecord,
    STAGNATION,
    Subspace,
    SubspaceDimensionMismatch,
    final_submanifold,
    gen_experiment1,
    gen_experiment2,
    gen_experiment3,
    max_principal_angle,
    numerical_rank,
    run,
    run_sweep,
    slope_summary,
    write_records_csv,
    write_slopes_csv,
)
import singular_lq.algorithm as algorithm
import singular_lq.experiments as experiments
from singular_lq.experiments import (
    RECORD_HEADER,
    SLOPE_HEADER,
    _cell_rng,
    _exact_problem,
    _perturbed_problem,
    records_to_csv,
)


def test_family2_matrices_are_exact():
    n = 6
    problem = gen_experiment2(n)
    assert np.array_equal(problem.A, np.eye(n))
    assert np.array_equal(problem.Q, np.eye(n))
    assert np.array_equal(problem.B, np.ones((n, 1)))
    assert np.array_equal(problem.N, np.zeros((n, 1)))
    assert np.array_equal(problem.R, np.zeros((1, 1)))
    with pytest.raises(ValueError):
        gen_experiment2(0)


def test_family3_matrices_are_exact():
    n = 6
    problem = gen_experiment3(n)
    shift = np.eye(n, k=1)
    assert np.array_equal(problem.A, shift)
    assert np.array_equal(problem.Q, shift + shift.T)
    assert np.array_equal(problem.B, np.ones((n, 1)))
    assert np.array_equal(problem.N, np.ones((n, 1)))
    assert np.array_equal(problem.R, np.zeros((1, 1)))
    with pytest.raises(ValueError):
        gen_experiment3(0)


def test_family1_structure():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5):
        problem = gen_experiment1(n, rng)
        assert np.abs(problem.B.T @ problem.B - np.eye(n)).max() <= 1e-12
        assert numerical_rank(problem.R, 1e-9) == 1
        evals = np.linalg.eigvalsh(problem.R)
        assert evals.min() >= -1e-12
        assert 1.0 <= evals.max() <= 2.0
        V = problem.B.T @ problem.N
        assert np.abs(V - V.T).max() <= 1e-12
        halting = (problem.B.T @ problem.Q @ problem.B
                   - problem.N.T @ problem.A @ problem.B
                   - problem.B.T @ problem.A.T @ problem.N)
        assert abs(np.linalg.det(halting)) > 1e-3
    for n in (1, 2.5, True):
        with pytest.raises(ValueError, match="family 1 needs an integer n >= 2"):
            gen_experiment1(n, rng)
    same = [gen_experiment1(3, np.random.default_rng(9)).A for _ in range(2)]
    assert np.array_equal(same[0], same[1])


def test_family1_unperturbed_run():
    rng = np.random.default_rng(5)
    for n in (2, 3, 5):
        result = run(gen_experiment1(n, rng), tol=1e-9)
        assert result.steps == 3
        assert result.codim == 3 * n - 2


def test_family3_never_reaches_feedback():
    result = run(gen_experiment3(8), tol=1e-9)
    assert result.steps == 8
    assert result.codim == 8
    assert result.halt_reason == STAGNATION
    assert all(rho_rank == 0 for rho_rank, _ in result.rank_history)


def test_perturbation_rules_family1():
    problem = gen_experiment1(4, np.random.default_rng(7))
    rng = np.random.default_rng(11)
    moved = _perturbed_problem(1, problem, 1e-6, rng)
    assert np.array_equal(moved.R, problem.R)  # R is part of the family, kept exact
    assert np.array_equal(moved.Q, moved.Q.T)
    assert 0.0 < np.linalg.norm(moved.A - problem.A, 2) < 1e-6
    assert 0.0 < np.linalg.norm(moved.B - problem.B, 2) < 1e-6
    # N tracks the perturbed factorization B~ V~, so it moves by O(delta)
    assert 0.0 < np.linalg.norm(moved.N - problem.N, 2) < 1e-5


def test_perturbation_rules_family2():
    problem = gen_experiment2(4)
    moved = _perturbed_problem(2, problem, 1e-7, np.random.default_rng(13))
    assert np.array_equal(moved.Q, problem.Q)
    assert np.array_equal(moved.R, problem.R)
    for name in ("A", "B", "N"):
        dev = np.linalg.norm(getattr(moved, name) - getattr(problem, name), 2)
        assert 0.0 < dev < 1e-7


def test_perturbation_rules_family3():
    problem = gen_experiment3(4)
    moved = _perturbed_problem(3, problem, 1e-7, np.random.default_rng(17))
    assert np.array_equal(moved.Q, moved.A + moved.A.T)  # Q rebuilt, not perturbed
    assert np.array_equal(moved.N, moved.B)
    assert 0.0 < np.linalg.norm(moved.R, 2) < 1e-7
    assert 0.0 < np.linalg.norm(moved.A - problem.A, 2) < 1e-7


def test_perturbation_zero_delta_and_bad_family():
    problem = gen_experiment2(3)
    assert _perturbed_problem(2, problem, 0.0, np.random.default_rng(1)) is problem
    with pytest.raises(ValueError, match="family"):
        _perturbed_problem(4, problem, 1e-8, np.random.default_rng(1))
    # The exact generator guards callers that skip run_sweep's checks.
    with pytest.raises(ValueError, match="family"):
        _exact_problem(4, 3, 0)


def test_run_sweep_records_regenerate_bit_for_bit():
    kwargs = dict(sizes=[4], deltas=[1e-8, 1e-6], tol=1e-9, trials=2, seed=5)
    first = run_sweep(2, **kwargs)
    second = run_sweep(2, **kwargs)
    assert first == second
    assert len(first) == 4
    assert [(r.delta, r.trial) for r in first] == [(1e-8, 0), (1e-8, 1), (1e-6, 0), (1e-6, 1)]
    assert all(r.exact_steps == 3 and r.family == 2 and r.n == 4 for r in first)


def test_run_sweep_keeps_no_earlier_run_alive(monkeypatch):
    # A sweep holds one run's result at a time: the exact run's is dropped
    # before its size's first perturbed run, and each perturbed run's once
    # its record is made. Family 1 at two sizes, two deltas and two trials.
    original, results = experiments.run, []

    def watched(problem, tol):
        gc.collect()
        alive = sum(ref() is not None for ref in results)
        assert not alive, f"{alive} earlier results alive when run {len(results) + 1} starts"
        result = original(problem, tol)
        results.append(weakref.ref(result))
        return result

    monkeypatch.setattr(experiments, "run", watched)
    records = run_sweep(1, [3, 5], [1e-9, 1e-6], 1e-6, trials=2)
    assert len(records) == 8 and len(results) == 2 * (1 + 4)


def test_run_sweep_validation(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started before the arguments were checked")

    monkeypatch.setattr(experiments, "run", no_run)
    # A family is a key of _SMALLEST_N and a count: True and 2.0 hash as 1 and 2.
    for family in (0, 4, True, 2.0, "2", None):
        message = rf"^family must be one of \[1, 2, 3\], got {family!r}$"
        with pytest.raises(ValueError, match=message):
            run_sweep(family, [4], [1e-8], 1e-9)
    with pytest.raises(ValueError, match="non-empty"):
        run_sweep(2, [], [1e-8], 1e-9)
    with pytest.raises(ValueError, match="non-empty"):
        run_sweep(2, [4], [], 1e-9)
    for delta in (-1e-8, np.nan, np.inf):
        with pytest.raises(ValueError, match="non-negative"):
            run_sweep(2, [4], [delta], 1e-9)
    with pytest.raises(ValueError, match="trials"):
        run_sweep(2, [4], [1e-8], 1e-9, trials=0)
    for tol in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol"):
            run_sweep(2, [4], [1e-8], tol)
    # Family 1 draws its exact problem from the seed, families 2 and 3 only
    # their perturbations; a bad seed is rejected before either.
    for family in (1, 2, 3):
        for seed in (-1, 1.5, "0", None, True):
            message = f"seed must be a non-negative integer, got {seed!r}"
            with pytest.raises(ValueError, match=message):
                run_sweep(family, [4], [1e-8], 1e-6, seed=seed)
        for trials in (1.5, "2", True):
            with pytest.raises(ValueError, match="trials must be at least 1 and an integer"):
                run_sweep(family, [4], [1e-8], 1e-6, trials=trials)
        # Every size is checked before the first, valid one runs.
        smallest = 2 if family == 1 else 1
        for n in (smallest - 1, -3, 2.5, 4.0, "4", None, True):
            message = rf"^family {family} needs an integer n >= {smallest}, got {n!r}$"
            with pytest.raises(ValueError, match=message):
                run_sweep(family, [4, n], [1e-8], 1e-6)


def test_large_perturbation_is_marked_mismatch():
    records = run_sweep(3, [20], [1e-5], 1e-6, trials=3, seed=0)
    degraded = [r for r in records if r.alpha is None]
    assert degraded
    assert all(r.steps == 1 for r in degraded)
    text = records_to_csv(records)
    assert "mismatch" in text


@pytest.mark.parametrize(
    "family, n, deltas, trials, null_side",
    [(1, 4, [1e-6, 1e-4], 2, True), (3, 20, [1e-5], 3, False)],
)
def test_mismatched_records_form_no_basis(monkeypatch, family, n, deltas, trials, null_side):
    # Family 1 compares final subspaces and family 3 row spaces. A record
    # whose codim differs from the exact run's is marked from the codims
    # alone: only the exact run and the matching runs reach a basis.
    codims = []

    def submanifold(result, *args):
        codims.append(result.codim)
        return final_submanifold(result, *args)

    monkeypatch.setattr(experiments, "final_submanifold", submanifold)
    complements = shapes_of_calls(monkeypatch, algorithm, "_complement")
    spaces = shapes_of_calls(monkeypatch, experiments, "Subspace")
    records = run_sweep(family, [n], deltas, 1e-6, trials=trials, seed=0)
    exact_codim = run(_exact_problem(family, n, 0), 1e-6).codim
    matched = [r for r in records if r.codim == exact_codim]
    assert 0 < len(matched) < len(records)
    assert all((r.alpha is None) == (r.codim != exact_codim) for r in records)
    assert len(spaces) == 1 + len(matched)
    if null_side:
        assert codims == [cols for _, cols in complements] == [exact_codim] * len(spaces)
    else:
        assert codims == complements == []


def test_sweep_factorises_only_small_sides(monkeypatch):
    # Family 2 at n = 200: phi is 3 x 401 and the final subspace has
    # dimension 398; alpha is taken between the 3-dimensional row spaces.
    shapes = shapes_of_calls(monkeypatch, np.linalg, "svd")
    records = run_sweep(2, [200], [1e-8], 1e-6)
    assert records[0].alpha is not None
    assert max(min(shape) for shape in shapes) <= 3


def test_sweep_takes_no_svd_factors_of_phi(monkeypatch):
    # Family 1 at n = 20 compares null spaces of phi, which is c x 3n; the
    # bases come from QR, so no SVD with vectors touches a 3n-column matrix.
    n = 20
    with_vectors = lambda kwargs: kwargs.get("compute_uv", True)
    factored = shapes_of_calls(monkeypatch, np.linalg, "svd", with_vectors)
    records = run_sweep(1, [n], [1e-8], 1e-6)
    assert records[0].alpha is not None
    assert all(shape[1] != 3 * n for shape in factored)


def _direct_alphas(family, sizes, deltas, tol, trials=2, seed=0):
    """Alpha between the two final_submanifold bases, cell by cell (None on mismatch)."""
    alphas = []
    for n in sizes:
        problem = _exact_problem(family, n, seed)
        exact = Subspace(final_submanifold(run(problem, tol)))
        for delta in deltas:
            for trial in range(trials):
                rng = _cell_rng(seed, family, n, delta, trial)
                moved = run(_perturbed_problem(family, problem, delta, rng), tol)
                try:
                    alpha = max_principal_angle(exact, Subspace(final_submanifold(moved)))
                except SubspaceDimensionMismatch:
                    alpha = None
                alphas.append(alpha)
    return alphas


def test_sweep_alpha_on_null_side_is_the_final_subspace_angle():
    # Family 1 has codim 3n - 2 of width 3n: the sweep takes the null side.
    grid = dict(sizes=[2, 5, 10], deltas=[1e-10, 1e-8, 1e-6], tol=1e-6)
    records = run_sweep(1, trials=2, seed=0, **grid)
    assert [r.alpha for r in records] == _direct_alphas(1, **grid)


@pytest.mark.parametrize("family, sizes", [(2, [3, 10, 50]), (3, [5, 20, 50])])
def test_sweep_alpha_on_row_side_matches_the_final_subspace_angle(family, sizes):
    grid = dict(sizes=sizes, deltas=[1e-10, 1e-8], tol=1e-6)
    records = run_sweep(family, trials=2, seed=0, **grid)
    for record, direct in zip(records, _direct_alphas(family, **grid), strict=True):
        # Both routes carry an absolute rounding floor of a few 1e-16.
        assert abs(record.alpha - direct) <= 1e-6 * direct + 1e-15, record


def test_csv_headers_and_round_trip(tmp_path):
    records = run_sweep(2, [3], [1e-8], 1e-9, seed=1)
    text = records_to_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(RECORD_HEADER)
    fields = lines[1].split(",")
    assert fields[0] == "2" and fields[1] == "3"
    assert float(fields[2]) == 1e-8
    assert float(fields[3]) == 1e-9
    assert float(fields[8]) == records[0].alpha  # repr round-trips exactly
    assert int(fields[9]) == records[0].trial
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    assert path.read_text() == text

    summary = slope_summary(_synthetic_records(), "delta")
    spath = tmp_path / "slopes.csv"
    write_slopes_csv([summary], spath)
    slines = spath.read_text().strip().split("\n")
    assert slines[0] == ",".join(SLOPE_HEADER)
    assert slines[1].split(",")[:2] == [str(summary.family), "delta"]
    assert float(slines[1].split(",")[2]) == summary.slope


def _record(delta, alpha, steps=3, exact_steps=3, n=4):
    return ExperimentRecord(
        family=2, n=n, delta=delta, tol=1e-9, seed=0, trial=0,
        exact_steps=exact_steps, steps=steps, codim=3, alpha=alpha,
    )


def _synthetic_records():
    return [_record(d, d) for d in (1e-8, 1e-6, 1e-4)]


def test_slope_report_is_exact_on_linear_data():
    assert abs(slope_summary(_synthetic_records(), "delta").slope - 1.0) <= 1e-12


def test_slope_report_exclusions():
    records = _synthetic_records()
    noise = [
        _record(1e-6, None),           # dimension mismatch
        _record(1e-4, 7.0, steps=2),   # halted at the wrong level
        _record(1e-8, 0.0),            # exact zero angle carries no signal
    ]
    assert abs(slope_summary(records + noise, "delta").slope - 1.0) <= 1e-12


def test_slope_report_averages_trials_in_log_space():
    records = _synthetic_records() + [_record(1e-8, 1e-8 ** 3)]
    # group mean at 1e-8 is exp((ln d + 3 ln d) / 2) = d^2
    expected = np.polyfit(
        np.log([1e-8, 1e-6, 1e-4]), np.log([1e-16, 1e-6, 1e-4]), 1
    )[0]
    assert abs(slope_summary(records, "delta").slope - expected) <= 1e-12


def test_slope_summary_reads_an_iterator_once():
    # The family check and the usable filter read the same records, so a
    # one-pass iterable gives the list's slope, not "got 0" groups.
    by_delta = _synthetic_records()
    by_n = [_record(1e-8, 1e-8 * n, n=n) for n in (2, 4, 8)]
    for records, axis in ((by_delta, "delta"), (by_n, "n")):
        summary = slope_summary(iter(records), axis)
        assert summary == slope_summary(records, axis)
        assert abs(summary.slope - 1.0) <= 1e-12 and summary.num_points == 3


def test_slope_report_needs_two_groups():
    with pytest.raises(ValueError, match="two usable"):
        slope_summary([_record(1e-8, 1e-8), _record(1e-8, 2e-8)], "delta")
    with pytest.raises(ValueError, match="axis"):
        slope_summary(_synthetic_records(), "tol")


def test_slope_summary_fields_and_family_guard():
    summary = slope_summary(_synthetic_records(), "delta")
    assert summary.family == 2
    assert summary.axis == "delta"
    assert abs(summary.slope - 1.0) <= 1e-12
    assert summary.num_points == 3
    assert summary.r_squared >= 1.0 - 1e-12
    mixed = _synthetic_records() + [ExperimentRecord(
        family=3, n=4, delta=1e-8, tol=1e-9, seed=0, trial=0,
        exact_steps=3, steps=3, codim=3, alpha=1e-8,
    )]
    with pytest.raises(ValueError, match="single family"):
        slope_summary(mixed, "delta")
