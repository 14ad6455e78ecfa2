"""Digest the outputs of ``run`` and of the DAE chain over a fixed corpus.

Usage, from the root of a checkout:

    python3 tools/run_digest.py [SIZE]

The package is imported from ``src/`` and the benchmark's workloads from
``perfbench/`` of the same checkout. Ten lines are printed: seven SHA-256
digests, two lines of counts and one of counts and a digest, each with
the number of calls it covers:

* ``run``: every ``run`` output on random problems (SIZE each of uniform,
  half-integer and rank-one data, n <= 6, m <= 5, at tol 1e-6, 1e-9 and
  1e-12) and on the three families (exact, and perturbed at deltas
  1e-12..1e-4 with two trials, at tol 1e-6 and 1e-9). It covers
  ``rank_history``, ``steps``, ``codim``, ``halt_reason`` and the shapes
  and bytes of ``phi.rows``, ``row_basis``, every block, every selector and
  every determined relation (level, rate and drift) that
  ``feedback_rate_map`` stacks. The result stores no blocks or selectors:
  they and the relations are hashed from the result's replay of its
  levels, outside the ``lapack`` count.
* ``decisions``: the same ``run`` calls, over ``rank_history``, ``steps``,
  ``codim`` and ``halt_reason`` alone. A change that moves the low bits of
  the outputs, and so the ``run`` digest, keeps this one when it keeps
  every rank decision.
* ``halts``: how many of those ``run`` calls took each exit of the loop,
  with r the last level's split rank, rows its row count and prev_rows
  the previous level's (m at level 1): ``feedback`` (r >= prev_rows),
  ``empty-block`` (FEEDBACK because r == rows: the next block would be
  empty), ``stagnation`` (phi gained no rank, r < rows) and
  ``stagnation-full-split`` (phi gained no rank, prev_rows > r == rows).
* ``lapack``: how many LAPACK factorisations those ``run`` calls made
  through ``np.linalg``: values-only SVDs (``svd-values``), which in
  ``run`` are only the row filter's stacked-SVD fallbacks for one row,
  SVDs with singular vectors (``svd-full``), of which ``run`` takes one
  per recorded level with ||rho||_F > tol and none past its last level,
  QRs (``qr``), inverses (``inv``) and Choleskys (``cholesky``, at most
  two for each multi-row block the row filter factors by CholeskyQR2).
* ``dae``: ``dae_constraint_chain`` (every basis of the chain and the step
  count) and the ``pencil_is_regular`` verdict on the 480-item pencil pools
  of the ``dae-chains`` benchmark workload at seeds 1 and 11, plus each of
  those pencils given a shared null vector, which makes it singular.
* ``dae-decisions``: the same chains and pencils, over the step count,
  the dimension of every basis of the chain and both regularity verdicts
  alone. A change that moves the low bits of the chain's bases, and so
  the ``dae`` digest, keeps this one when it keeps every decision.
* ``sweeps``: ``run_sweep`` on each family at n = 4 and 8, deltas
  1e-10..1e-6, two trials, seed 0 and tol 1e-6: the ``records_to_csv``
  text, alpha included, and the delta and n slope summaries (or the
  reason a slope is not available).
* ``perturb``: the bytes of every matrix of ``_perturbed_problem`` for
  family 1 at n = 182, 202 and 260 and family 2 at n = 150, 300 and 600,
  at deltas 1e-12, 1e-8 and 1e-4, trial 0 and seed 0. Perturbation norms
  of Gram order below ``geometry._LANCZOS_ORDER`` come from ``eigvalsh``
  and the others from two-pass Lanczos: a float32 pass finds the top
  vector and a float64 pass, started from it, certifies the eigenvalue.
  These sizes straddle that order, so the cells take both paths; the
  other lines' problems take only the first.
* ``subspaces``: ``final_submanifold`` of every ``run`` output of the
  ``run`` line, at the run's own tol, taken outside the ``lapack`` count.
  Most of those complements are the larger side of phi's row basis, so
  they come from Householder reflectors; the families at n = 40, 80 and
  120 factor the basis in more than one panel.
* ``exits``: ``run`` on the four corpus problems of ``EXIT_PROBLEMS``,
  whatever SIZE, at each of the three tols: the count per exit of the
  ``halts`` line, every one of which they take, and the ``decisions``
  digest of those runs.

Run it in two checkouts, each in its own process, and compare the lines: a
change that keeps every rank decision and every output byte prints the
same digests and counts. SIZE defaults to 400, which makes 4,018 ``run``
calls. Any SIZE but one positive integer prints a one-line usage message
and exits 2. Compare the two checkouts on one host, with the same BLAS and
thread count: the low bits of the results, and so the digests, depend on
all three. The ``perturb`` line has been seen to differ between two hosts
with the same numpy and BLAS while the other lines agreed.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import singular_lq as slq  # noqa: E402
from singular_lq.algorithm import _feedback_relations  # noqa: E402
from singular_lq.experiments import (  # noqa: E402
    _cell_rng, _exact_problem, _perturbed_problem, records_to_csv,
)
from workloads import DaeWorkload  # noqa: E402

TOLS = (1e-6, 1e-9, 1e-12)
FAMILY_SIZES = {
    1: (2, 5, 10, 20, 40, 80),
    2: (2, 5, 10, 25, 50, 100),
    3: (2, 5, 10, 20, 40, 80, 120),
}
DELTAS = (1e-12, 1e-10, 1e-8, 1e-6, 1e-4)


def _feed(digest, *arrays) -> None:
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        digest.update(repr(a.shape).encode())
        digest.update(a.tobytes())


def _random_problem(kind: str, rng):
    n, m = int(rng.integers(1, 7)), int(rng.integers(1, 6))

    def draw(rows, cols):
        if kind == "uniform":
            return rng.uniform(-1.0, 1.0, (rows, cols))
        if kind == "half-integer":
            return rng.integers(-2, 3, (rows, cols)) / 2.0
        return np.outer(rng.uniform(-1.0, 1.0, rows), rng.uniform(-1.0, 1.0, cols))

    Q, R = draw(n, n), draw(m, m)
    return slq.validate(draw(n, n), draw(n, m), Q + Q.T, draw(n, m), R + R.T)


KINDS = ("uniform", "half-integer", "rank-one")


def _corpus_problem(kind: str, i: int):
    """The run corpus's ``i``-th random problem of ``kind``."""
    return _random_problem(kind, np.random.default_rng([KINDS.index(kind), i]))


def _problems(size: int):
    """(problem, tol) pairs of the run corpus, in a fixed order."""
    for kind in KINDS:
        for i in range(size):
            problem = _corpus_problem(kind, i)
            for tol in TOLS:
                yield problem, tol
    for family, sizes in FAMILY_SIZES.items():
        for n in sizes:
            exact = _exact_problem(family, n, 0)
            cells = [exact] + [
                _perturbed_problem(family, exact, delta, _cell_rng(0, family, n, delta, trial))
                for delta in DELTAS
                for trial in range(2)
            ]
            for problem in cells:
                for tol in TOLS[:2]:
                    yield problem, tol


HALTS = ("feedback", "empty-block", "stagnation", "stagnation-full-split")


def _halt(result) -> str:
    """The exit of the loop that ``result`` took, one of HALTS."""
    r, rows = result.rank_history[-1][0], result.blocks[-1].rows.shape[0]
    prev_rows = result.blocks[-2].rows.shape[0] if len(result.blocks) > 1 else result.phi.m
    if r >= prev_rows:
        return "feedback"
    if result.halt_reason == slq.FEEDBACK:
        return "empty-block"
    return "stagnation-full-split" if r == rows else "stagnation"


LAPACK = ("svd-values", "svd-full", "qr", "inv", "cholesky")


@contextmanager
def _counted_lapack(counts: Counter):
    """Count the calls of ``np.linalg``'s svd, qr, inv and cholesky into ``counts`` while inside."""
    originals = {name: getattr(np.linalg, name) for name in ("svd", "qr", "inv", "cholesky")}

    def counted(name):
        def call(*args, **kwargs):
            if name == "svd":
                counts["svd-full" if kwargs.get("compute_uv", True) else "svd-values"] += 1
            else:
                counts[name] += 1
            return originals[name](*args, **kwargs)
        return call

    try:
        for name in originals:
            setattr(np.linalg, name, counted(name))
        yield
    finally:
        for name, original in originals.items():
            setattr(np.linalg, name, original)


def _decisions(result) -> bytes:
    return repr((result.rank_history, result.steps, result.codim, result.halt_reason)).encode()


def run_digests(size: int) -> tuple[str, str, str, int, Counter, Counter]:
    """The ``run``, ``decisions`` and ``subspaces`` digests, the number of
    runs, their exits and their LAPACK calls."""
    digest, decided, subspaces = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    count, halts, lapack = 0, Counter(), Counter()
    for problem, tol in _problems(size):
        with _counted_lapack(lapack):
            result = slq.run(problem, tol)
        _feed(subspaces, slq.final_submanifold(result))
        halts[_halt(result)] += 1
        decisions = _decisions(result)
        digest.update(decisions)
        decided.update(decisions)
        _feed(digest, result.phi.rows, result.row_basis, *(b.rows for b in result.blocks))
        _feed(digest, *result.selectors)
        for level, rate, drift in _feedback_relations(result):
            digest.update(repr(level).encode())
            _feed(digest, rate, drift)
        count += 1
    return digest.hexdigest(), decided.hexdigest(), subspaces.hexdigest(), count, halts, lapack


# Corpus problems that together take every exit in HALTS at each of TOLS:
# the first problem of the corpus to take feedback, empty-block and
# stagnation, and the only one to take stagnation-full-split at SIZE 400.
EXIT_PROBLEMS = (("uniform", 0), ("half-integer", 64), ("rank-one", 1), ("half-integer", 140))


def exits_digest() -> tuple[Counter, str, int]:
    """The exits of the EXIT_PROBLEMS runs, their ``decisions`` digest and their number."""
    decided, halts = hashlib.sha256(), Counter()
    for kind, i in EXIT_PROBLEMS:
        problem = _corpus_problem(kind, i)
        for tol in TOLS:
            result = slq.run(problem, tol)
            halts[_halt(result)] += 1
            decided.update(_decisions(result))
    return halts, decided.hexdigest(), sum(halts.values())


def _pencils(seed: int):
    """The ``dae-chains`` workload's pencil pool at one seed, as it builds it."""
    workload = DaeWorkload()
    with tempfile.TemporaryDirectory() as workdir:
        workload.prepare(seed, Path(workdir))
    return [dae for _, dae in workload.inputs]


def dae_digests() -> tuple[str, str, int]:
    """The ``dae`` and ``dae-decisions`` digests and the number of chains."""
    digest, decided, count = hashlib.sha256(), hashlib.sha256(), 0
    for seed in (1, 11):
        for dae in _pencils(seed):
            chain, steps = slq.dae_constraint_chain(dae)
            regular = slq.pencil_is_regular(dae)
            digest.update(repr((regular, steps)).encode())
            _feed(digest, *chain)
            v = np.ones(dae.n) / np.sqrt(dae.n)
            shared = slq.LinearDAE(
                A=dae.A - np.outer(dae.A @ v, v), B=dae.B - np.outer(dae.B @ v, v)
            )
            shared_regular = slq.pencil_is_regular(shared)
            digest.update(repr(shared_regular).encode())
            dims = [basis.shape[1] for basis in chain]
            decided.update(repr((regular, steps, dims, shared_regular)).encode())
            count += 1
    return digest.hexdigest(), decided.hexdigest(), count


SWEEP_SIZES = (4, 8)
SWEEP_DELTAS = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


def sweeps_digest() -> tuple[str, int]:
    """Digest of one small sweep per family, and the number of records."""
    digest, count = hashlib.sha256(), 0
    for family in (1, 2, 3):
        records = slq.run_sweep(family, SWEEP_SIZES, SWEEP_DELTAS, 1e-6, trials=2, seed=0)
        digest.update(records_to_csv(records).encode())
        for axis in ("delta", "n"):
            try:
                summary = repr(slq.slope_summary(records, axis))
            except ValueError as exc:
                summary = f"{axis}: {exc}"
            digest.update(summary.encode())
        count += len(records)
    return digest.hexdigest(), count


PERTURB_SIZES = {1: (182, 202, 260), 2: (150, 300, 600)}
PERTURB_DELTAS = (1e-12, 1e-8, 1e-4)


def perturb_digest() -> tuple[str, int]:
    """Digest of perturbed problems on both sides of the Lanczos crossover, and their number."""
    digest, count = hashlib.sha256(), 0
    for family, sizes in PERTURB_SIZES.items():
        for n in sizes:
            exact = _exact_problem(family, n, 0)
            for delta in PERTURB_DELTAS:
                problem = _perturbed_problem(family, exact, delta, _cell_rng(0, family, n, delta, 0))
                _feed(digest, problem.dynamics, problem.R)
                count += 1
    return digest.hexdigest(), count


def _per_exit(halts: Counter) -> str:
    return " ".join(f"{name}:{halts[name]}" for name in HALTS)


def _size(argv: list[str]) -> int | None:
    """SIZE from the arguments: 400 when absent, None unless it is one positive integer."""
    if not argv:
        return 400
    try:
        size = int(argv[0])
    except ValueError:
        return None
    return size if size > 0 and len(argv) == 1 else None


def main(argv: list[str]) -> int:
    size = _size(argv)
    if size is None:
        print("usage: run_digest.py [SIZE], SIZE a positive integer (default 400)", file=sys.stderr)
        return 2
    run_hex, decisions_hex, subspaces_hex, runs, halts, lapack = run_digests(size)
    exit_halts, exits_hex, exit_runs = exits_digest()
    dae_hex, dae_decisions_hex, chains = dae_digests()
    sweeps_hex, records = sweeps_digest()
    perturb_hex, cells = perturb_digest()
    calls = " ".join(f"{name}:{lapack[name]}" for name in LAPACK)
    for name, value, count in (
        ("run", run_hex, runs), ("decisions", decisions_hex, runs),
        ("halts", _per_exit(halts), runs), ("lapack", calls, runs), ("dae", dae_hex, chains),
        ("dae-decisions", dae_decisions_hex, chains), ("sweeps", sweeps_hex, records),
        ("perturb", perturb_hex, cells), ("subspaces", subspaces_hex, runs),
        ("exits", f"{_per_exit(exit_halts)} {exits_hex}", exit_runs),
    ):
        print(f"{name} {value} {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
