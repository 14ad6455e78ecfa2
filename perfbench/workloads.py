"""The four workloads: inputs from a seed, the calls timed, and their checks.

A workload is prepared from the seed (input generation), warmed up, and
then offers a pool of calls of ``call_items`` items each. The runner times
whole passes over the pool, one call at a time, and hands each call's
output to ``check``, outside the timed region. The package is imported
inside the methods because the runner puts the checkout's ``src`` on the
path only after checking that it is there. Problem sizes, deltas and DAE
shapes are fixed per workload; the seed draws the perturbations, the
hiding transforms and the call order, so the work per pass is the same for
every seed.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np

import checks

TOL = 1e-6


def _quiet_cli(argv) -> int:
    import singular_lq.cli as cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class SweepWorkload:
    """``singular-lq sweep`` through ``cli.main``, records written to a CSV.

    One call is one whole sweep; its items are the records it writes.
    """

    min_calls = 1

    def __init__(self, name, family, sizes, delta_arg, trials, warm_sizes):
        self.name = name
        self.family = family
        self.sizes = tuple(sizes)
        self.delta_arg = delta_arg
        self.trials = trials
        self.warm_sizes = warm_sizes
        self._exact_codim: dict[int, int] | None = None
        self._first_text: str | None = None
        self._written = 0

    def _argv(self, seed, sizes, out):
        return [
            "sweep", "--family", str(self.family), "--n", ",".join(map(str, sizes)),
            "--deltas", self.delta_arg, "--tol", repr(TOL), "--trials", str(self.trials),
            "--seed", str(seed), "--out", str(out),
        ]

    def prepare(self, seed: int, workdir: Path):
        from singular_lq.cli import _parse_deltas

        self.seed, self.workdir = seed, workdir
        deltas = tuple(_parse_deltas(self.delta_arg))
        self.spec = checks.SweepSpec(self.family, self.sizes, deltas, TOL, self.trials, seed)
        self.call_items = len(self.spec.cells())

    def warm_up(self):
        out = self.workdir / f"{self.name}-warm.csv"
        if _quiet_cli(self._argv(self.seed, self.warm_sizes, out)) != 0:
            raise RuntimeError("warm-up sweep failed")

    def pool(self):
        return [self._sweep]

    def _sweep(self):
        self._written += 1
        out = self.workdir / f"{self.name}-{self._written}.csv"
        code = _quiet_cli(self._argv(self.seed, self.sizes, out))
        if code != 0:
            raise RuntimeError(f"sweep exited with code {code}")
        return out

    def _exact(self) -> dict[int, int]:
        """Codimension of each unperturbed problem the sweep compares against."""
        import singular_lq as slq
        from singular_lq.experiments import _exact_problem

        if self._exact_codim is None:
            self._exact_codim = {
                n: slq.run(_exact_problem(self.family, n, self.seed), TOL).codim
                for n in self.sizes
            }
        return self._exact_codim

    def check(self, call, path: Path) -> checks.Outcome:
        text = path.read_text()
        outcome = checks.check_sweep_csv(text, self.spec, self._exact())
        if self._first_text is None:
            import singular_lq as slq

            # One record per run, chosen by the seed, recomputed from scratch.
            index = int(np.random.default_rng(self.seed).integers(len(self.spec.cells())))
            outcome.problems += checks.regenerate_record(text, self.spec, index, slq.run_sweep)
            self._first_text = text
        elif text != self._first_text:
            outcome.problems.append("a repeated sweep wrote different records")
        path.unlink()
        path.with_name(path.stem + ".slopes.csv").unlink(missing_ok=True)
        return outcome


class SolveWorkload:
    """A stream of family-3 solves: ``run`` then ``final_submanifold``.

    Hold-regime items (index stays n) cover n = 20..120 at two deltas.
    Solve time grows about as n^4 and single calls jitter by some 20%, so
    sizes come in plateaus of equal cost: in every whole number of passes
    the median falls in the middle of the n = 80 plateau and the 90th
    percentile inside the n = 100 one. A pass of 37 items takes 5 to 7 s on
    2 cores, so a run makes three or more passes, and at least ``min_calls``
    calls put 10 of them beyond the 90th percentile. Degrade-regime items
    (delta 1e-5: the perturbed R clears the tolerance and the index drops
    to 1) sit at n <= 32. About one in ten keeps R under the tolerance and
    runs all n levels; at n <= 32 it still costs less than the median item,
    so the percentiles do not depend on how many of them a seed draws.
    """

    name = "solve-f3-deep"
    call_items = 1
    min_calls = 100
    HOLD_TRIALS = {20: 1, 40: 1, 60: 1, 80: 7, 90: 3, 100: 3, 120: 1}
    HOLD = (1e-9, 1e-7)
    DEGRADE_SIZES = (20, 26, 32)
    DEGRADE = 1e-5

    def prepare(self, seed: int, workdir: Path):
        import singular_lq as slq
        from singular_lq.experiments import _cell_rng, _perturbed_problem

        cells = [
            (n, delta, trial)
            for n, trials in self.HOLD_TRIALS.items()
            for delta in self.HOLD
            for trial in range(trials)
        ]
        cells += [(n, self.DEGRADE, 0) for n in self.DEGRADE_SIZES]
        self.inputs = []
        for n, delta, trial in cells:
            # The perturbation a family-3 sweep cell applies (perturb, then validate).
            rng = _cell_rng(seed, 3, n, delta, trial)
            problem = _perturbed_problem(3, slq.gen_experiment3(n), delta, rng)
            self.inputs.append((problem, delta in self.HOLD))
        self.warm = self.inputs[0][0]
        order = np.random.default_rng(seed).permutation(len(self.inputs))
        self.inputs = [self.inputs[i] for i in order]

    def warm_up(self):
        self._solve(self.warm)

    @staticmethod
    def _solve(problem):
        import singular_lq as slq

        result = slq.run(problem, TOL)
        return result, slq.final_submanifold(result, TOL)

    def pool(self):
        return [lambda p=problem: self._solve(p) for problem, _ in self.inputs]

    def check(self, call, output) -> checks.Outcome:
        import singular_lq as slq

        problem, hold = self.inputs[call]
        result, basis = output
        return checks.check_solve(problem, hold, result, basis, slq.theorem2_blocks)


class DaeWorkload:
    """A stream of Weierstrass systems larger than criterion 4's defaults.

    Each item asks ``pencil_is_regular`` and then runs
    ``dae_constraint_chain``. Every pencil is regular by construction; the
    index ranges up to q_max - 1. The dimensions, index and W of each item
    are drawn once by ``random_weierstrass_spec`` from a fixed generator,
    so every seed does the same amount of work; the seed draws the
    orthogonal transforms E and F that hide the canonical form.
    """

    name = "dae-chains"
    call_items = 1
    min_calls = 100
    ITEMS = 480
    D_MAX, Q_MAX, NU_MAX = 30, 60, 59
    STRUCTURE_SEED = 20121

    def prepare(self, seed: int, workdir: Path):
        import singular_lq as slq
        from singular_lq.dae import _random_orthogonal

        structure = np.random.default_rng(self.STRUCTURE_SEED)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
        self.inputs = []
        for _ in range(self.ITEMS):
            shape = slq.random_weierstrass_spec(
                structure, d_max=self.D_MAX, q_max=self.Q_MAX, nu_max=self.NU_MAX
            )
            size = shape.d + shape.q
            spec = slq.WeierstrassSpec(
                W=shape.W, Nnil=shape.Nnil, nu=shape.nu,
                E=_random_orthogonal(size, rng), F=_random_orthogonal(size, rng),
            )
            self.inputs.append((spec, slq.build_weierstrass(spec)))
        self.warm = min(self.inputs, key=lambda item: item[0].d + item[0].q)[1]

    def warm_up(self):
        self._item(self.warm)

    def _item(self, dae):
        import singular_lq as slq

        regular = slq.pencil_is_regular(dae)
        chain, steps = slq.dae_constraint_chain(dae)
        return regular, chain, steps

    def pool(self):
        return [lambda d=dae: self._item(d) for _, dae in self.inputs]

    def check(self, call, output) -> checks.Outcome:
        regular, chain, steps = output
        return checks.check_chain(self.inputs[call][0], chain, steps, regular)


def make(name: str):
    """A fresh workload object by name."""
    if name == "sweep-f2-wide":
        return SweepWorkload(name, 2, (600,), "1e-14..1e-8", 1, (8,))
    if name == "sweep-f1-sizes":
        return SweepWorkload(name, 1, range(2, 203, 20), "1e-9", 4, (2, 22))
    if name == "solve-f3-deep":
        return SolveWorkload()
    if name == "dae-chains":
        return DaeWorkload()
    raise KeyError(name)


NAMES = ("sweep-f2-wide", "sweep-f1-sizes", "solve-f3-deep", "dae-chains")
