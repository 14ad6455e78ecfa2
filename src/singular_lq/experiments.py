"""Perturbation experiments over three structured problem families.

Family 1: square control (m = n), rank-one R, orthogonal B, N = B V with V
symmetric; generic A, Q. Exact index 3. Family 2: A = Q = I, B the all-ones
column, N = 0, R = 0. Exact index 3 with codimension 3 at any n. Family 3:
A the upper shift, Q = A + A', B the all-ones column, N = B, R = 0. Exact
index n with all rho blocks zero (pure gauge).

A sweep perturbs each family's defining matrices at a range of magnitudes
and records how the recursion's step count, codimension and final subspace
respond. Every record regenerates bit for bit from (family, n, delta, tol,
seed, trial): the unperturbed problem is seeded by (seed, family, n) and
the perturbation by the full tuple.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from math import exp, inf, log

import numpy as np

from .algorithm import final_submanifold, run
from .dae import _random_orthogonal
from .geometry import Subspace, _scaled, loglog_fit, max_principal_angle, perturb
from .problem import LQProblem, _check_tol, _is_count, validate

__all__ = [
    "ExperimentRecord",
    "SlopeSummary",
    "gen_experiment1",
    "gen_experiment2",
    "gen_experiment3",
    "run_sweep",
    "slope_summary",
    "records_to_csv",
    "write_records_csv",
    "write_slopes_csv",
    "RECORD_HEADER",
    "SLOPE_HEADER",
]


@dataclass(frozen=True)
class ExperimentRecord:
    """One perturbed run, fields in CSV column order; alpha is None on a dimension mismatch."""

    family: int
    n: int
    delta: float
    tol: float
    seed: int
    exact_steps: int
    steps: int
    codim: int
    alpha: float | None
    trial: int


@dataclass(frozen=True)
class SlopeSummary:
    family: int
    axis: str
    slope: float
    r_squared: float
    num_points: int


RECORD_HEADER = [f.name for f in fields(ExperimentRecord)]
SLOPE_HEADER = [f.name for f in fields(SlopeSummary)]


# The families, each with the smallest n at which it is defined.
_SMALLEST_N = {1: 2, 2: 1, 3: 1}


def _check_size(family: int, n) -> None:
    """Reject an n that is not an integer, is a bool, or is below the family's smallest."""
    low = _SMALLEST_N[family]
    if not _is_count(n, low):
        raise ValueError(f"family {family} needs an integer n >= {low}, got {n!r}")


def _random_symmetric(n: int, rng) -> np.ndarray:
    g = rng.uniform(-1.0, 1.0, (n, n))
    return (g + g.T) / 2.0


def gen_experiment1(n: int, rng) -> LQProblem:
    """Family 1: m = n, R of rank one, B orthogonal, N = B V, V symmetric.

    V is rejection-resampled until the matrix B'QB - N'AB - B'A'N that
    controls the level-3 feedback is comfortably invertible (|det| above
    1e-3), so the unperturbed recursion reliably halts at step 3.
    """
    _check_size(1, n)
    u = _random_orthogonal(n, rng)
    r_diag = np.zeros(n)
    r_diag[0] = 1.0 + rng.uniform(0.0, 1.0)
    R = u.T @ np.diag(r_diag) @ u
    R = (R + R.T) / 2.0
    B = _random_orthogonal(n, rng)
    Q = _random_symmetric(n, rng)
    A = rng.uniform(-1.0, 1.0, (n, n))
    while True:
        V = _random_symmetric(n, rng)
        N = B @ V
        halting = B.T @ Q @ B - N.T @ A @ B - B.T @ A.T @ N
        sign, logdet = np.linalg.slogdet(halting)
        if sign != 0.0 and logdet > log(1e-3):
            break
    return validate(A, B, Q, N, R)


def gen_experiment2(n: int) -> LQProblem:
    """Family 2: A = Q = I, B = ones, N = 0, R = 0 (index 3, codim 3)."""
    _check_size(2, n)
    return validate(
        np.eye(n),
        np.ones((n, 1)),
        np.eye(n),
        np.zeros((n, 1)),
        np.zeros((1, 1)),
    )


def gen_experiment3(n: int) -> LQProblem:
    """Family 3: nilpotent shift A, Q = A + A', B = N = ones, R = 0.

    Index n with every rho block zero: the constraint chain grows one row
    per level and never reaches a feedback, a maximally gauge problem.
    """
    _check_size(3, n)
    A = np.eye(n, k=1)
    B = np.ones((n, 1))
    return validate(A, B, A + A.T, B.copy(), np.zeros((1, 1)))


def _symmetric_noise(n: int, delta: float, rng) -> np.ndarray:
    direction = rng.standard_normal((n, n))
    return _scaled((direction + direction.T) / 2.0, delta, rng)


def _perturbed_problem(family: int, problem: LQProblem, delta: float, rng) -> LQProblem:
    if delta == 0.0:
        return problem
    if family == 1:
        # N = BV with B orthogonal, so V = B'N recovers the symmetric factor.
        V = problem.B.T @ problem.N
        V = (V + V.T) / 2.0
        a_t = perturb(problem.A, delta, rng)
        b_t = perturb(problem.B, delta, rng)
        q_t = problem.Q + _symmetric_noise(problem.n, delta, rng)
        v_t = V + _symmetric_noise(problem.n, delta, rng)
        return validate(a_t, b_t, q_t, b_t @ v_t, problem.R)
    if family == 2:
        a_t = perturb(problem.A, delta, rng)
        n_t = perturb(problem.N, delta, rng)
        b_t = perturb(problem.B, delta, rng)
        return validate(a_t, b_t, problem.Q, n_t, problem.R)
    if family == 3:
        a_t = perturb(problem.A, delta, rng)
        b_t = perturb(problem.B, delta, rng)
        r_t = perturb(problem.R, delta, rng)
        return validate(a_t, b_t, a_t + a_t.T, b_t, r_t)
    raise ValueError(f"unknown family {family}")


def _problem_rng(seed: int, family: int, n: int):
    return np.random.default_rng(np.random.SeedSequence([seed, family, n]))


def _cell_rng(seed: int, family: int, n: int, delta: float, trial: int):
    delta_bits = int(np.float64(delta).view(np.uint64))
    return np.random.default_rng(np.random.SeedSequence([seed, family, n, delta_bits, trial]))


def _exact_problem(family: int, n: int, seed: int) -> LQProblem:
    if family == 1:
        return gen_experiment1(n, _problem_rng(seed, family, n))
    if family == 2:
        return gen_experiment2(n)
    if family == 3:
        return gen_experiment3(n)
    raise ValueError(f"unknown family {family}")


def _compared(result, row_side: bool) -> Subspace:
    """The side of the run's phi that a sweep compares: its row space or the final subspace."""
    return Subspace(result.row_basis if row_side else final_submanifold(result))


def _size_records(family: int, n: int, deltas, tol: float, trials: int, seed: int):
    """The records of one size, in (delta, trial) order; every array of the size dies on return."""
    problem = _exact_problem(family, n, seed)
    exact = run(problem, tol)
    # One side per size, so every perturbed run meets the exact one there.
    row_side = 2 * exact.codim < exact.phi.width
    codim, exact_steps, exact_space = exact.codim, exact.steps, _compared(exact, row_side)
    # Only these outlive the exact run's result, which goes before any perturbed run.
    del exact
    records = []
    for delta in deltas:
        for trial in range(trials):
            rng = _cell_rng(seed, family, n, delta, trial)
            result = run(_perturbed_problem(family, problem, delta, rng), tol)
            steps, perturbed_codim = result.steps, result.codim
            compared = _compared(result, row_side) if perturbed_codim == codim else None
            # Free this run's problem and phi before the angle and the next run.
            del result
            alpha = None if compared is None else max_principal_angle(exact_space, compared)
            records.append(
                ExperimentRecord(
                    family=family,
                    n=n,
                    delta=delta,
                    tol=tol,
                    seed=seed,
                    trial=trial,
                    exact_steps=exact_steps,
                    steps=steps,
                    codim=perturbed_codim,
                    alpha=alpha,
                )
            )
    return records


def run_sweep(
    family: int,
    sizes,
    deltas,
    tol: float,
    trials: int = 1,
    seed: int = 0,
) -> list[ExperimentRecord]:
    """Run a perturbation sweep and return one record per (n, delta, trial).

    For each size the exact problem is generated once, run once, and its
    final subspace compared against every perturbed run. Alpha is taken on
    the smaller side of phi: its row space when the exact codimension is
    below half the width, its null space (the final subspace) otherwise,
    which gives the same angle, since equal-dimension subspaces have the
    same principal angles as their orthogonal complements. Both sides come
    from the run's ``row_basis`` with no rank decision, the null side by
    ``final_submanifold`` at the run's tol. A record's alpha is None
    (``mismatch``) exactly when its codim differs from the exact run's,
    and then no basis is formed for it. Records come in (n, delta, trial)
    order. Every argument is checked before the first run.

    At most one run's result is alive at a time. Of the exact run, the
    sweep keeps only its codim, its steps and the compared ``Subspace``,
    and drops its result before the size's first perturbed run; each
    perturbed result, and the perturbed problem it holds, is dropped once
    its compared side is taken, before the angle, and a size's problem and
    exact side before the next size is generated.
    """
    if not (_is_count(family, 1) and family in _SMALLEST_N):
        raise ValueError(f"family must be one of {sorted(_SMALLEST_N)}, got {family!r}")
    sizes = list(sizes)
    deltas = [float(d) for d in deltas]
    if not sizes or not deltas:
        raise ValueError("sizes and deltas must be non-empty")
    for n in sizes:
        _check_size(family, n)
    if not all(0 <= d < inf for d in deltas):
        raise ValueError("deltas must be non-negative and finite")
    if not _is_count(trials, 1):
        raise ValueError(f"trials must be at least 1 and an integer, got {trials!r}")
    if not _is_count(seed, 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    _check_tol(tol)

    records = []
    for n in sizes:
        records.extend(_size_records(family, n, deltas, tol, trials, seed))
    return records


def _usable(records) -> list[ExperimentRecord]:
    return [
        r
        for r in records
        if r.alpha is not None and r.alpha > 0.0 and r.steps == r.exact_steps
    ]


def slope_summary(records, axis: str) -> SlopeSummary:
    """Log-log fit of alpha against ``axis`` ('delta' or 'n').

    Uses only usable records (finite positive alpha, steps equal to the
    exact count); trials at the same axis value are averaged in log space
    before the fit. The records must come from a single family; any
    iterable of them is read once.
    """
    records = list(records)
    families = {r.family for r in records}
    if len(families) != 1:
        raise ValueError("records must come from a single family")
    if axis not in ("delta", "n"):
        raise ValueError("axis must be 'delta' or 'n'")
    groups: dict[float, list[float]] = {}
    for r in _usable(records):
        key = float(getattr(r, axis))
        if key > 0.0:
            groups.setdefault(key, []).append(log(r.alpha))
    points = [(key, exp(np.mean(vals))) for key, vals in sorted(groups.items())]
    if len(points) < 2:
        raise ValueError(
            f"need at least two usable {axis} groups for a slope, got {len(points)}"
        )
    fit = loglog_fit(points)
    return SlopeSummary(
        family=families.pop(),
        axis=axis,
        slope=fit.slope,
        r_squared=fit.r_squared,
        num_points=fit.num_points,
    )


def _fmt(value) -> str:
    if value is None:
        return "mismatch"  # alpha of a record whose subspace dimensions differ
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv(header, items, path=None) -> str:
    """``items`` as CSV text under ``header``, also written to ``path`` if given."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for item in items:
        writer.writerow([_fmt(getattr(item, name)) for name in header])
    if path is not None:
        with open(path, "w", newline="") as fh:
            fh.write(buf.getvalue())
    return buf.getvalue()


def records_to_csv(records) -> str:
    """Records as CSV text; alpha is a decimal or the literal ``mismatch``."""
    return _csv(RECORD_HEADER, records)


def write_records_csv(records, path) -> None:
    _csv(RECORD_HEADER, records, path)


def write_slopes_csv(summaries, path) -> None:
    _csv(SLOPE_HEADER, summaries, path)
