"""Command-line front end: solve one problem, index a DAE, or sweep.

The parser only reads argument syntax. The values of ``--tol``,
``--seed``, ``--family``, ``--n``, ``--deltas`` and ``--trials`` are
checked by the library, before any file is read or any run starts. A
negative value may follow its option as a separate argument, as in
``--tol -1e-6``.

Exit codes: 0 success, 1 usage error (among them a bad argument value
and a ``sweep --out`` path that cannot be written), 2 unreadable or
invalid input, 3
numerical failure (SVD non-convergence, a recursion level whose
arithmetic overflows, or a DAE norm past the float range), 141 standard
output closed before the output was all written (as by ``| head``; the
status a shell reports for a process ended by SIGPIPE), with nothing
printed to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from math import inf, isclose, log10
from pathlib import Path

import numpy as np

from .algorithm import final_submanifold, run
from .dae import LinearDAE, dae_constraint_chain
from .experiments import (
    run_sweep,
    slope_summary,
    write_records_csv,
    write_slopes_csv,
)
from .problem import _check_tol, _is_count, validate

__all__ = ["main"]

USAGE_ERROR = 1
INPUT_ERROR = 2
NUMERICAL_ERROR = 3
OUTPUT_CLOSED = 141


class InputError(Exception):
    """Problem or DAE file is missing, malformed, or fails validation."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads an argument that starts with a dash as an option
        # unless it looks like a negative number, and on Python 3.10 and 3.11
        # that pattern has no exponent, so "--tol -1e-6" took "-1e-6" for an
        # option. This is newer argparse's pattern: a dash, then a digit or
        # a point and a digit.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    # argparse exits with 2 on usage errors; this tool reserves 2 for bad
    # input files, so remap.
    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _output_path(text: str) -> str:
    """A records CSV path whose file, and the slope CSV beside it, can be written."""
    directory = os.path.dirname(os.path.abspath(text))
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(f"cannot write {text}: no directory {directory}")
    if not os.access(directory, os.W_OK):
        raise argparse.ArgumentTypeError(
            f"cannot write {text}: directory {directory} is not writable"
        )
    for path in (text, _slopes_path(text)):
        if os.path.isdir(path):
            raise argparse.ArgumentTypeError(f"cannot write {path}: it is a directory")
        if os.path.exists(path) and not os.access(path, os.W_OK):
            raise argparse.ArgumentTypeError(f"cannot write {path}: not writable")
    return text


def _items(text: str, what: str) -> list[str]:
    """The stripped, non-blank items of a comma list, or an error when there are none."""
    items = [token.strip() for token in text.split(",") if token.strip()]
    if not items:
        raise argparse.ArgumentTypeError(f"empty {what} list")
    return items


def _parse_sizes(text: str) -> list[int]:
    sizes = []
    for token in _items(text, "size"):
        try:
            sizes.append(int(token))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad size {token!r}") from exc
    return sizes


def _parse_deltas(text: str) -> list[float]:
    """Comma list of magnitudes; ``a..b`` expands the decades a..b inclusive."""
    deltas: list[float] = []
    for token in _items(text, "delta"):
        if ".." in token:
            lo_text, hi_text = token.split("..", 1)
            try:
                lo, hi = float(lo_text), float(hi_text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(f"bad delta range {token!r}") from exc
            if not (0 < lo < inf and 0 < hi < inf):
                raise argparse.ArgumentTypeError(
                    "delta range endpoints must be positive and finite"
                )
            e_lo, e_hi = round(log10(lo)), round(log10(hi))
            if not isclose(lo, 10.0 ** e_lo, rel_tol=1e-12) or not isclose(
                hi, 10.0 ** e_hi, rel_tol=1e-12
            ):
                raise argparse.ArgumentTypeError(
                    f"range endpoints must be powers of ten, got {token!r}"
                )
            step = 1 if e_hi >= e_lo else -1
            deltas.extend(10.0 ** e for e in range(e_lo, e_hi + step, step))
        else:
            try:
                deltas.append(float(token))
            except ValueError as exc:
                raise argparse.ArgumentTypeError(f"bad delta {token!r}") from exc
    return deltas


def _read_json(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level must be an object")
    return data


def _numeric(value) -> bool:
    """Whether value is a JSON number (true and false are not) or a list of such values."""
    if isinstance(value, list):
        return all(map(_numeric, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _matrix_field(data: dict, name: str, path: str):
    # The shape and finiteness are left to validate and LinearDAE.
    if name not in data:
        raise InputError(f"{path}: missing field {name!r}")
    if not _numeric(data[name]):
        raise InputError(f"{path}: field {name!r} is not numeric: its entries must be JSON numbers")
    return data[name]


def _load_problem(path: str):
    data = _read_json(path)
    for name in ("n", "m"):
        if name not in data:
            raise InputError(f"{path}: missing field {name!r}")
        if not _is_count(data[name], 1):
            raise InputError(f"{path}: field {name!r} must be a positive integer")
    try:
        problem = validate(*(_matrix_field(data, name, path) for name in "ABQNR"))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    if (problem.n, problem.m) != (data["n"], data["m"]):
        raise InputError(
            f"{path}: fields 'n' and 'm' are {data['n']} and {data['m']}, "
            f"but the matrices have n = {problem.n} and m = {problem.m}"
        )
    return problem


def _load_dae(path: str) -> LinearDAE:
    data = _read_json(path)
    try:
        return LinearDAE(A=_matrix_field(data, "A", path), B=_matrix_field(data, "B", path))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _print_matrix(M: np.ndarray) -> None:
    for row in M:
        print(" ".join(f"{value:.17g}" for value in row))


def _cmd_solve(args) -> int:
    _check_tol(args.tol)
    problem = _load_problem(args.problem)
    result = run(problem, tol=args.tol)
    basis = final_submanifold(result)
    print(f"steps={result.steps} codim={result.codim} reason={result.halt_reason}")
    print(f"phi rows={result.phi.rows.shape[0]} cols={result.phi.width}")
    _print_matrix(result.phi.rows)
    print(f"subspace dim={basis.shape[1]}")
    _print_matrix(basis)
    return 0


def _cmd_dae(args) -> int:
    _check_tol(args.tol)
    dae = _load_dae(args.system)
    chain, steps = dae_constraint_chain(dae, tol=args.tol)
    print(f"steps={steps} dim={chain[-1].shape[1]}")
    return 0


def _slopes_path(records_path: str) -> str:
    root, ext = os.path.splitext(records_path)
    return root + ".slopes" + (ext if ext else ".csv")


def _cmd_sweep(args) -> int:
    records = run_sweep(
        family=args.family,
        sizes=args.n,
        deltas=args.deltas,
        tol=args.tol,
        trials=args.trials,
        seed=args.seed,
    )
    summaries = []
    for axis, values in (("delta", {r.delta for r in records}), ("n", {r.n for r in records})):
        if len(values) < 2:
            continue
        try:
            summaries.append(slope_summary(records, axis))
        except ValueError as exc:
            print(f"slope axis={axis}: not available ({exc})")
    for s in summaries:
        print(
            f"slope axis={s.axis} family={s.family} slope={s.slope:.17g} "
            f"r_squared={s.r_squared:.17g} num_points={s.num_points}"
        )
    if args.out:
        write_records_csv(records, args.out)
        print(f"records written to {args.out}")
        if summaries:
            spath = _slopes_path(args.out)
            write_slopes_csv(summaries, spath)
            print(f"slopes written to {spath}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="singular-lq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the constraint recursion on a problem file")
    solve.add_argument("problem", help="JSON problem file with fields n, m, A, B, Q, N, R")
    solve.add_argument("--tol", type=float, default=1e-6)
    solve.set_defaults(func=_cmd_solve)

    dae = sub.add_parser("dae", help="subspace chain of a linear DAE A xdot = B x")
    dae.add_argument("system", help="JSON file with square matrices A, B")
    dae.add_argument("--tol", type=float, default=1e-9)
    dae.set_defaults(func=_cmd_dae)

    sweep = sub.add_parser("sweep", help="perturbation sweep over a problem family")
    sweep.add_argument("--family", type=int, required=True)
    sweep.add_argument("--n", type=_parse_sizes, required=True, help="comma list of sizes")
    sweep.add_argument(
        "--deltas",
        type=_parse_deltas,
        required=True,
        help="comma list of magnitudes; a..b expands decades (e.g. 1e-16..1e-1)",
    )
    sweep.add_argument("--tol", type=float, default=1e-6)
    sweep.add_argument("--trials", type=int, default=1)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--out", type=_output_path, help="records CSV path (slope CSV lands beside it)"
    )
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone. Point stdout at devnull so that the
        # interpreter's final flush of what is still buffered does not raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return OUTPUT_CLOSED
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    # LinAlgError is a ValueError subclass: catch it first.
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
