"""Random test problems and a call spy shared by the test modules.

``uniform_problem`` and ``halves_problem`` draw the small problems that the
tests run in floats. The dyadic entries of ``halves_problem`` embed exactly
in Fractions, so ``exact_matrices`` hands the same problem to
tests/rational_oracle.py. ``shapes_of_calls`` watches a function through
pytest's monkeypatch.
"""

import numpy as np

import rational_oracle as ro
from singular_lq import validate


def uniform_problem(rng, n_max=4, m_max=4):
    """Random problem with entries uniform on (-1, 1), Q and R symmetric."""
    n, m = int(rng.integers(1, n_max + 1)), int(rng.integers(1, m_max + 1))
    g = lambda r, c: rng.uniform(-1.0, 1.0, (r, c))
    sym = lambda k: (lambda M: (M + M.T) / 2.0)(g(k, k))
    # leave R singular half the time so both halting branches get exercised
    R = sym(m) if rng.integers(2) else np.zeros((m, m))
    return validate(g(n, n), g(n, m), sym(n), g(n, m), R)


def halves_problem(rng, n, m):
    """Random problem of state dimension n and control dimension m with
    entries in {-2,...,2}/2, Q and R symmetric."""
    vals = np.arange(-2, 3) / 2.0
    pick = lambda r, c: vals[rng.integers(0, 5, size=(r, c))]
    sym = lambda k: (lambda M: np.triu(M) + np.triu(M, 1).T)(pick(k, k))
    return validate(pick(n, n), pick(n, m), sym(n), pick(n, m), sym(m))


def exact_matrices(problem):
    """A, B, Q, N and R as the rational oracle's Fraction matrices."""
    return [ro.from_float(M) for M in (problem.A, problem.B, problem.Q, problem.N, problem.R)]


def shapes_of_calls(monkeypatch, owner, name, counts=lambda kwargs: True):
    """Shapes of the first argument of every call of ``owner.name`` from here
    on whose keyword arguments ``counts`` accepts; the calls go through."""
    original, shapes = getattr(owner, name), []

    def spy(a, *args, **kwargs):
        if counts(kwargs):
            shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return shapes
