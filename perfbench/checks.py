"""Output checks, run outside the timed region.

Each check returns a list of problems (empty when the output is right)
together with the counts the reports need. Expected values come from the
problem families' construction, not from the code under test: families 1
and 2 have index 3, family 2 codimension 3, hold-regime family-3 problems
index and codimension n, and a Weierstrass system with nilpotency index nu
a chain of nu + 1 steps ending in the d-dimensional finite part.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

# Families 1 and 2 have recursion index 3 at every size.
SWEEP_INDEX = {1: 3, 2: 3}
# Acceptance criterion 1: a perturbation of size 1e-8 moves the final
# subspace by less than 1e-5. Up to that size the perturbed problem keeps
# the construction's index (the hold regime).
ALPHA_LIMIT = 1e-5
HOLD_DELTA = 1e-8
# Regenerated alpha must agree with the CSV to this relative tolerance;
# both come from the same seeded cell, only BLAS threading may differ.
REGEN_RTOL = 1e-9
ORTHONORMAL_TOL = 1e-10
THEOREM2_LEVELS = 3
THEOREM2_RTOL = 1e-9


@dataclass
class Outcome:
    """Checked result of one benchmark call."""

    steps_match: int = 0
    usable: int = 0
    regular: int = 0
    problems: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class SweepSpec:
    family: int
    sizes: tuple[int, ...]
    deltas: tuple[float, ...]
    tol: float
    trials: int
    seed: int

    def cells(self):
        """(n, delta, trial) in the sweep's record order."""
        return [
            (n, delta, trial)
            for n in self.sizes
            for delta in self.deltas
            for trial in range(self.trials)
        ]


def _orthonormal_error(basis: np.ndarray) -> float:
    d = basis.shape[1]
    return float(np.abs(basis.T @ basis - np.eye(d)).max()) if d else 0.0


def check_sweep_csv(text: str, spec: SweepSpec, exact_codim: dict[int, int]) -> Outcome:
    """Check every record of a sweep CSV against the grid and the exact runs.

    ``exact_codim`` maps each size to the codimension of the unperturbed
    problem's final subspace: alpha is defined exactly when a record's
    codimension equals it.
    """
    rows = list(csv.DictReader(io.StringIO(text)))
    out = Outcome()
    expected = Counter((n, delta) for n, delta, _ in spec.cells())
    seen: Counter = Counter()
    index = SWEEP_INDEX[spec.family]
    for i, row in enumerate(rows):
        where = f"record {i}"
        try:
            family, n, seed = int(row["family"]), int(row["n"]), int(row["seed"])
            delta, tol = float(row["delta"]), float(row["tol"])
            exact_steps, steps, codim = int(row["exact_steps"]), int(row["steps"]), int(row["codim"])
            alpha = None if row["alpha"] == "mismatch" else float(row["alpha"])
        except (KeyError, TypeError, ValueError) as exc:
            out.problems.append(f"{where}: unreadable ({exc!r})")
            continue
        seen[(n, delta)] += 1
        if (family, seed, tol) != (spec.family, spec.seed, spec.tol):
            out.problems.append(f"{where}: family/seed/tol {family}/{seed}/{tol} not requested")
        if exact_steps != index:
            out.problems.append(f"{where}: exact_steps {exact_steps}, construction gives {index}")
        width = 2 * n + (n if spec.family == 1 else 1)
        if not (steps >= 1 and 0 <= codim <= width):
            out.problems.append(f"{where}: steps {steps} codim {codim} out of range")
        if delta <= HOLD_DELTA and steps != exact_steps:
            out.problems.append(f"{where}: steps {steps} at delta {delta}, index is {exact_steps}")
        if (alpha is None) != (codim != exact_codim.get(n)):
            out.problems.append(
                f"{where}: alpha {row['alpha']} with codim {codim}, exact codim {exact_codim.get(n)}"
            )
        if alpha is not None:
            if not 0.0 <= alpha <= math.pi / 2:
                out.problems.append(f"{where}: alpha {alpha} outside [0, pi/2]")
            elif delta <= HOLD_DELTA and alpha >= ALPHA_LIMIT:
                out.problems.append(f"{where}: alpha {alpha} >= {ALPHA_LIMIT} at delta {delta}")
        out.steps_match += steps == exact_steps
        out.usable += alpha is not None and alpha > 0.0 and steps == exact_steps
    if seen != expected:
        out.problems.append(f"records cover {dict(seen)}, grid is {dict(expected)}")
    return out


def regenerate_record(text: str, spec: SweepSpec, index: int, run_sweep) -> list[str]:
    """Recompute record ``index`` of a sweep CSV with ``run_sweep`` and compare."""
    rows = list(csv.DictReader(io.StringIO(text)))
    n, delta, trial = spec.cells()[index]
    record = run_sweep(spec.family, [n], [delta], spec.tol, trials=trial + 1, seed=spec.seed)[trial]
    row = rows[index]
    problems = []
    for name in ("n", "exact_steps", "steps", "codim"):
        if int(row[name]) != getattr(record, name):
            problems.append(f"record {index}: {name} {row[name]}, regenerated {getattr(record, name)}")
    if float(row["delta"]) != delta:
        problems.append(f"record {index}: delta {row['delta']}, grid has {delta}")
    if record.alpha is None or row["alpha"] == "mismatch":
        if (record.alpha is None) != (row["alpha"] == "mismatch"):
            problems.append(f"record {index}: alpha {row['alpha']}, regenerated {record.alpha}")
    elif not math.isclose(float(row["alpha"]), record.alpha, rel_tol=REGEN_RTOL, abs_tol=0.0):
        problems.append(f"record {index}: alpha {row['alpha']}, regenerated {record.alpha!r}")
    return problems


def check_solve(problem, hold: bool, result, basis, theorem2_blocks) -> Outcome:
    """Check one solve: index, final subspace, and the first projected blocks.

    Hold-regime family-3 problems must keep steps = codim = n. The basis
    must be orthonormal and annihilated by phi up to the rank cut (the
    dropped singular values are at most tol). For levels up to
    THEOREM2_LEVELS the recorded blocks must match their reconstruction
    from the recorded selectors and the closed form.
    """
    n = problem.n
    out = Outcome(steps_match=int(result.steps == n))
    if hold and not (result.steps == result.codim == n):
        out.problems.append(f"n={n}: steps {result.steps} codim {result.codim}, expected {n}")
    width = 2 * n + problem.m
    if basis.shape != (width, width - result.codim):
        out.problems.append(f"n={n}: basis shape {basis.shape} for codim {result.codim}")
        return out
    if _orthonormal_error(basis) > ORTHONORMAL_TOL:
        out.problems.append(f"n={n}: basis not orthonormal")
    if result.codim and np.abs(result.phi.rows @ basis).max() > result.tol:
        out.problems.append(f"n={n}: phi does not annihilate the final subspace")
    for k in range(2, min(THEOREM2_LEVELS, len(result.blocks)) + 1):
        rebuilt = theorem2_blocks(problem, result.selectors, k)
        block = result.blocks[k - 1]
        for part in ("sigma", "beta", "rho"):
            got, want = getattr(block, part), getattr(rebuilt, part)
            scale = max(1.0, float(np.abs(want).max()) if want.size else 0.0)
            if got.shape != want.shape or np.abs(got - want).max(initial=0.0) > THEOREM2_RTOL * scale:
                out.problems.append(f"n={n}: level-{k} {part} differs from its closed form")
    return out


def check_chain(spec, chain, steps: int, regular: bool) -> Outcome:
    """Chain of a regular Weierstrass system: nu + 1 steps to the d-dim finite part.

    The final basis must be orthonormal. A chain of nu + 1 steps must end
    in dimension d, and a shorter chain is wrong. A longer one is counted,
    not failed, when it shows the known defect: at fixed tolerance, chains
    with index near 50 and above refine past the finite part, so they must
    end below dimension d.
    """
    expected = spec.nu + 1
    out = Outcome(steps_match=int(steps == expected), regular=int(regular))
    final = chain[-1]
    dim = final.shape[1]
    if final.shape[0] != spec.d + spec.q or _orthonormal_error(final) > ORTHONORMAL_TOL:
        out.problems.append(f"final subspace basis of shape {final.shape} not orthonormal")
    elif steps < expected:
        out.problems.append(f"chain of {steps} steps, index {spec.nu} needs {expected}")
    elif steps == expected and dim != spec.d:
        out.problems.append(f"final subspace dimension {dim}, expected {spec.d}")
    elif steps > expected and dim >= spec.d:
        out.problems.append(f"chain of {steps} steps ends in dimension {dim}, not below {spec.d}")
    return out
