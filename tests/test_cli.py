"""Command-line interface: file loading, output format, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import singular_lq
from singular_lq import (
    ConstraintMatrix,
    LinearDAE,
    dae_constraint_chain,
    gen_experiment2,
    gen_experiment3,
    independent_rows,
    run,
    run_sweep,
)
from singular_lq.cli import main


def _write_problem(path, problem):
    payload = {
        "n": problem.n,
        "m": problem.m,
        "A": problem.A.tolist(),
        "B": problem.B.tolist(),
        "Q": problem.Q.tolist(),
        "N": problem.N.tolist(),
        "R": problem.R.tolist(),
    }
    path.write_text(json.dumps(payload))
    return str(path)


def _parse_block(lines, count):
    return np.array([[float(tok) for tok in line.split()] for line in lines[:count]])


def test_solve_family2(tmp_path, capsys):
    path = _write_problem(tmp_path / "p.json", gen_experiment2(5))
    assert main(["solve", path]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "steps=3 codim=3 reason=feedback"
    assert out[1] == "phi rows=3 cols=11"
    assert out[5] == "subspace dim=8"
    expected = run(gen_experiment2(5), tol=1e-6)
    printed_phi = _parse_block(out[2:], 3)
    # %.17g round-trips doubles exactly
    assert np.array_equal(printed_phi, expected.phi.rows)
    refiltered = independent_rows(ConstraintMatrix(rows=printed_phi, n=5, m=1), 1e-6)
    assert np.array_equal(refiltered.rows, printed_phi)
    basis = _parse_block(out[6:], 11)
    assert basis.shape == (11, 8)
    assert np.abs(basis.T @ basis - np.eye(8)).max() <= 1e-12


def test_solve_regular_problem(tmp_path, capsys):
    rng = np.random.default_rng(3)
    from singular_lq import validate
    problem = validate(
        rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 2)),
        np.eye(3), rng.uniform(-1, 1, (3, 2)), np.eye(2),
    )
    path = _write_problem(tmp_path / "regular.json", problem)
    assert main(["solve", path]) == 0
    first = capsys.readouterr().out.split("\n")[0]
    assert first == "steps=1 codim=2 reason=feedback"


def test_solve_input_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["solve", missing]) == 2
    assert "nope.json" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    assert main(["solve", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    partial = tmp_path / "partial.json"
    payload = {"n": 2, "m": 1, "A": np.eye(2).tolist(), "B": [[1.0], [1.0]],
               "Q": np.eye(2).tolist(), "N": [[0.0], [0.0]]}
    partial.write_text(json.dumps(payload))
    assert main(["solve", str(partial)]) == 2
    assert "'R'" in capsys.readouterr().err

    asym = tmp_path / "asym.json"
    payload["R"] = [[0.0]]
    payload["Q"] = [[0.0, 1.0], [0.0, 0.0]]
    asym.write_text(json.dumps(payload))
    assert main(["solve", str(asym)]) == 2
    assert "Q" in capsys.readouterr().err

    notint = tmp_path / "notint.json"
    payload["Q"] = np.eye(2).tolist()
    payload["n"] = "2"
    notint.write_text(json.dumps(payload))
    assert main(["solve", str(notint)]) == 2
    assert "'n'" in capsys.readouterr().err

    # JSON true is an int to isinstance, but not a size.
    boolean = tmp_path / "boolean.json"
    payload.update(n=True, m=1, A=[[1.0]], B=[[1.0]], Q=[[1.0]], N=[[0.0]])
    boolean.write_text(json.dumps(payload))
    assert main(["solve", str(boolean)]) == 2
    assert "'n'" in capsys.readouterr().err

    # Nor is it a matrix entry, alone or among numbers.
    for name, entries, m in (("A", [[True]], 1), ("B", [[1, True]], 2)):
        payload.update(n=1, m=m, A=[[1.0]], B=[[1.0] * m], N=[[0.0] * m],
                       R=np.zeros((m, m)).tolist())
        payload[name] = entries
        boolean.write_text(json.dumps(payload))
        assert main(["solve", str(boolean)]) == 2
        assert f"field {name!r} is not numeric" in capsys.readouterr().err


_ONE = {"n": 1, "m": 1, "A": [[1.0]], "B": [[1.0]], "Q": [[1.0]], "N": [[0.0]], "R": [[0.0]]}
_SWEEP = ["sweep", "--family", "2", "--n", "3", "--deltas"]


@pytest.mark.parametrize(
    "args, payload, code, stream, text",
    [
        (_SWEEP + ["1e-9", "--trials", "0"], None, 1, "err", "error: trials must be at least 1"),
        (["sweep", "--family", "2", "--n", "0", "--deltas", "1e-9"], None, 1, "err",
         "error: family 2 needs an integer n >= 1, got 0"),
        (["sweep", "--family", "2", "--n", "3.0", "--deltas", "1e-9"], None, 1, "err",
         "error: argument --n: bad size '3.0'"),
        (["sweep", "--family", "2", "--n", ",", "--deltas", "1e-9"], None, 1, "err",
         "empty size list"),
        (["sweep", "--family", "2", "--n", " , ", "--deltas", "1e-9"], None, 1, "err",
         "error: argument --n: empty size list"),
        (_SWEEP + [","], None, 1, "err", "error: argument --deltas: empty delta list"),
        (_SWEEP + ["0..1e-3"], None, 1, "err",
         "error: argument --deltas: delta range endpoints must be positive and finite"),
        (_SWEEP + ["1e-3..x"], None, 1, "err", "bad delta range '1e-3..x'"),
        (_SWEEP + ["2e-3..1e-1"], None, 1, "err", "range endpoints must be powers of ten"),
        (_SWEEP + ["abc"], None, 1, "err", "bad delta 'abc'"),
        (_SWEEP + ["0,1e-9"], None, 0, "out", "slope axis=delta: not available ("),
        (["solve"], [_ONE], 2, "err", "top level must be an object"),
        (["solve"], {k: v for k, v in _ONE.items() if k != "n"}, 2, "err", "missing field 'n'"),
        (["solve"], {**_ONE, "B": [["x"]]}, 2, "err", "field 'B' is not numeric"),
        (["solve"], {**_ONE, "Q": [[float("nan")]]}, 2, "err", "Q contains non-finite entries"),
        # Fields are lists of rows, as for dae: a flat row-major list is rejected.
        (["solve"], {**_ONE, "A": [1.0]}, 2, "err", "A must be a 2-d matrix, got shape (1,)"),
        # A matrix entry must be a JSON number: not a string that reads as one, nor null.
        (["solve"], {**_ONE, "A": [["1"]]}, 2, "err", "field 'A' is not numeric"),
        (["solve"], {**_ONE, "N": [[None]]}, 2, "err", "field 'N' is not numeric"),
        (["solve"], {**_ONE, "Q": [[10 ** 400]]}, 2, "err",
         "Q is not a numeric matrix: int too large to convert to float"),
        (["solve"], {**_ONE, "n": 2, "A": [[1.0, 0.0], [1.0]]}, 2, "err",
         "A is not a numeric matrix"),
        (["solve"], {**_ONE, "n": 2}, 2, "err",
         "fields 'n' and 'm' are 2 and 1, but the matrices have n = 1 and m = 1"),
        (["dae"], {"A": [["1"]], "B": [[1.0]]}, 2, "err", "field 'A' is not numeric"),
        (["dae"], {"A": [[1.0]], "B": [[None]]}, 2, "err", "field 'B' is not numeric"),
    ],
    ids=["trials-0", "size-0", "non-integer-size", "no-sizes", "blank-sizes", "no-deltas",
         "zero-range-endpoint", "bad-range", "range-not-decades", "bad-delta",
         "no-delta-slope", "array-top-level", "missing-n", "non-numeric", "nan-entry",
         "flat-field", "string-entry", "null-entry", "huge-int-entry", "ragged-field",
         "declared-n-differs", "dae-string-entry", "dae-null-entry"],
)
def test_error_paths(tmp_path, capsys, args, payload, code, stream, text):
    if payload is not None:
        path = tmp_path / "p.json"
        path.write_text(json.dumps(payload))  # NaN is written as the literal, which json reads
        args = args + [str(path)]
    assert main(args) == code
    assert text in getattr(capsys.readouterr(), stream)


def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(_ONE).replace("1.0", "1.0\u00e9", 1).encode("latin-1"))
    for command in ("solve", "dae"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: not UTF-8 text: ")
        assert "Traceback" not in captured.err


def test_usage_errors(tmp_path, capsys):
    path = _write_problem(tmp_path / "p.json", gen_experiment2(2))
    assert main(["solve", path, "--tol", "0"]) == 1
    capsys.readouterr()
    # The separate "-1e-6" is the value of --tol, which the library rejects.
    assert main(["solve", path, "--tol", "-1e-6"]) == 1
    expected = _library_error(lambda: run(gen_experiment2(2), -1e-6))
    assert capsys.readouterr().err == f"error: {expected}\n"
    for bad in ("nan", "inf"):
        assert main(["solve", path, "--tol", bad]) == 1
        assert main(["dae", path, "--tol", bad]) == 1
        assert main(["sweep", "--family", "2", "--n", "3", "--deltas", bad]) == 1
        assert main(["sweep", "--family", "2", "--n", "3", "--deltas", f"1e-8..{bad}"]) == 1
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["sweep", "--family", "2", "--n", "3", "--deltas", ""]) == 1
    assert main(["sweep", "--family", "9", "--n", "3", "--deltas", "1e-8"]) == 1
    capsys.readouterr()


def _library_error(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


_SHIFT = {"A": np.eye(2, k=1).tolist(), "B": np.eye(2).tolist()}


# Each bad argument value, as the CLI reads it and as the library is called with it.
@pytest.mark.parametrize(
    "args, library_call",
    [
        (["solve", "--tol", "0"], lambda: run(gen_experiment2(2), 0.0)),
        (["solve", "--tol", "nan"], lambda: run(gen_experiment2(2), float("nan"))),
        (["dae", "--tol", "0"], lambda: dae_constraint_chain(LinearDAE(**_SHIFT), 0.0)),
        (["dae", "--tol", "nan"], lambda: dae_constraint_chain(LinearDAE(**_SHIFT), float("nan"))),
        (_SWEEP + ["1e-9", "--tol", "0"], lambda: run_sweep(2, [3], [1e-9], 0.0)),
        (_SWEEP + ["1e-9", "--tol", "nan"], lambda: run_sweep(2, [3], [1e-9], float("nan"))),
        (_SWEEP + ["1e-9", "--seed", "-1"], lambda: run_sweep(2, [3], [1e-9], 1e-6, seed=-1)),
        (["sweep", "--family", "2", "--n", "0", "--deltas", "1e-9"],
         lambda: run_sweep(2, [0], [1e-9], 1e-6)),
        (["sweep", "--family", "1", "--n", "1", "--deltas", "1e-9"],
         lambda: run_sweep(1, [1], [1e-9], 1e-6)),
        (_SWEEP[:-1] + ["--deltas=-1e-9"], lambda: run_sweep(2, [3], [-1e-9], 1e-6)),
        # A negative value in its own argument is still the option's value.
        (["solve", "--tol", "-1e-6"], lambda: run(gen_experiment2(2), -1e-6)),
        (["dae", "--tol", "-1e-9"], lambda: dae_constraint_chain(LinearDAE(**_SHIFT), -1e-9)),
        (_SWEEP + ["-1e-9"], lambda: run_sweep(2, [3], [-1e-9], 1e-6)),
        (_SWEEP + ["-1e-9,1e-8"], lambda: run_sweep(2, [3], [-1e-9, 1e-8], 1e-6)),
        (_SWEEP + ["nan"], lambda: run_sweep(2, [3], [float("nan")], 1e-6)),
        (_SWEEP + ["1e-9", "--trials", "0"], lambda: run_sweep(2, [3], [1e-9], 1e-6, trials=0)),
        (["sweep", "--family", "9", "--n", "3", "--deltas", "1e-9"],
         lambda: run_sweep(9, [3], [1e-9], 1e-6)),
    ],
    ids=["solve-tol-0", "solve-tol-nan", "dae-tol-0", "dae-tol-nan", "sweep-tol-0",
         "sweep-tol-nan", "seed-negative", "size-0", "size-below-family-1",
         "delta-negative", "solve-tol-negative-apart", "dae-tol-negative-apart",
         "delta-negative-apart", "delta-list-negative-apart", "delta-nan", "trials-0",
         "family-9"],
)
def test_a_bad_argument_value_is_the_librarys_usage_error(
    tmp_path, capsys, monkeypatch, args, library_call
):
    expected = f"error: {_library_error(library_call)}\n"

    def untouched(*args, **kwargs):
        raise AssertionError("a file was read or a run started before the arguments were checked")

    for name in ("cli._read_json", "cli.run", "cli.dae_constraint_chain", "experiments.run"):
        monkeypatch.setattr(f"singular_lq.{name}", untouched)
    if args[0] == "solve":
        args = args + [_write_problem(tmp_path / "p.json", gen_experiment2(2))]
    elif args[0] == "dae":
        path = tmp_path / "dae.json"
        path.write_text(json.dumps(_SHIFT))
        args = args + [str(path)]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == expected


def test_a_bad_tol_is_rejected_before_the_file_is_read(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    for command in ("solve", "dae"):
        assert main([command, missing, "--tol", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tol must be positive and finite\n"


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    path = _write_problem(tmp_path / "p.json", gen_experiment2(2))

    def failing_run(problem, tol):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr("singular_lq.cli.run", failing_run)
    assert main(["solve", path]) == 3
    assert "numerical failure: SVD did not converge" in capsys.readouterr().err


def test_solve_exits_3_when_a_level_overflows(tmp_path, capsys):
    # The level-2 product 1e200 * 1e200 overflows; run raises instead of
    # carrying inf and NaN rows into the rank decisions.
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({**_ONE, "A": [[1e200]], "B": [[1e200]], "Q": [[1e200]]}))
    assert main(["solve", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure: overflow" in captured.err


def test_dae_exits_3_when_a_norm_overflows(tmp_path, capsys):
    # ||A|| = 2e308 is past the float range: the chain would cut at inf and
    # report dimension 0 where the true dimension is 1.
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"A": [[1e308, 1e308], [1e308, 1e308]], "B": [[1, 0], [0, 1]]}))
    assert main(["dae", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure: overflow" in captured.err


def test_solve_ends_quietly_when_stdout_closes_early(tmp_path):
    # Family 3 at n = 40 prints far more than a pipe holds, so the CLI is
    # still writing when the reader stops after the first line, as head does.
    path = _write_problem(tmp_path / "f3.json", gen_experiment3(40))
    src = str(Path(singular_lq.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "singular_lq.cli", "solve", path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert first == b"steps=40 codim=40 reason=stagnation\n"
    assert err == b""


def test_dae_command(tmp_path, capsys):
    path = tmp_path / "dae.json"
    path.write_text(json.dumps({"A": np.eye(3, k=1).tolist(), "B": np.eye(3).tolist()}))
    assert main(["dae", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "steps=3 dim=0"

    bad = tmp_path / "rect.json"
    bad.write_text(json.dumps({"A": [[1.0, 0.0]], "B": [[1.0, 0.0]]}))
    assert main(["dae", str(bad)]) == 2
    assert "square" in capsys.readouterr().err

    for payload in ({"A": [[True]], "B": [[1.0]]}, {"A": [[1, True]], "B": [[1.0, 0.0]]},
                    {"A": [[1.0]], "B": [[True]]}):
        bad.write_text(json.dumps(payload))
        assert main(["dae", str(bad)]) == 2
        assert "is not numeric" in capsys.readouterr().err
    # Each field must be a list of rows: flat entries are rejected at every size.
    for payload, name in (({"A": np.eye(2).tolist(), "B": np.eye(3, 2).tolist()},
                           "B must match A"),
                          ({"A": [], "B": []}, "A must be a 2-d matrix"),
                          ({"A": 1.0, "B": [[1.0]]}, "A must be a 2-d matrix"),
                          ({"A": [5.0], "B": [[1.0]]}, "A must be a 2-d matrix, got shape (1,)"),
                          ({"A": [1.0, 0.0, 0.0, 1.0], "B": np.eye(2).tolist()},
                           "A must be a 2-d matrix, got shape (4,)"),
                          ({"B": [[1.0]]}, "missing field 'A'")):
        bad.write_text(json.dumps(payload))
        assert main(["dae", str(bad)]) == 2
        assert name in capsys.readouterr().err


def test_sweep_wide_delta_table(tmp_path, capsys):
    out = tmp_path / "records.csv"
    code = main([
        "sweep", "--family", "2", "--n", "120", "--deltas", "1e-16..1e-1",
        "--tol", "1e-9", "--out", str(out),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    slope_lines = [l for l in stdout.split("\n") if l.startswith("slope axis=delta")]
    assert len(slope_lines) == 1
    assert "family=2" in slope_lines[0]
    float(slope_lines[0].split("slope=")[1].split()[0])  # parseable
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 17
    assert lines[0] == "family,n,delta,tol,seed,exact_steps,steps,codim,alpha,trial"
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[6] == "3"  # steps stay at 3 across all magnitudes
        assert fields[7] == "3"
    slopes = (tmp_path / "records.slopes.csv").read_text().strip().split("\n")
    assert slopes[0] == "family,axis,slope,r_squared,num_points"
    assert len(slopes) == 2


def test_sweep_gauge_family_table(tmp_path, capsys):
    out = tmp_path / "gauge.csv"
    code = main([
        "sweep", "--family", "3", "--n", "20", "--deltas", "1e-16..1e-5",
        "--tol", "1e-6", "--trials", "3", "--out", str(out),
    ])
    assert code == 0
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 12 * 3
    degraded = 0
    for line in lines[1:]:
        fields = line.split(",")
        delta = float(fields[2])
        if delta <= 1e-7:
            assert fields[6] == "20"
        if fields[8] == "mismatch":
            degraded += 1
            assert fields[6] == "1"
    assert degraded >= 1


def test_sweep_reruns_are_byte_identical(tmp_path, capsys):
    args = ["sweep", "--family", "2", "--n", "4,6", "--deltas", "1e-10,1e-8",
            "--tol", "1e-9", "--trials", "2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_sweep_descending_decades(tmp_path, capsys):
    out = tmp_path / "desc.csv"
    assert main([
        "sweep", "--family", "2", "--n", "3", "--deltas", "1e-1..1e-4",
        "--out", str(out),
    ]) == 0
    capsys.readouterr()
    rows = out.read_text().strip().split("\n")[1:]
    deltas = [float(r.split(",")[2]) for r in rows]
    assert deltas == [1e-1, 1e-2, 1e-3, 1e-4]


def test_sweep_rejects_an_unwritable_out_before_sweeping(tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before its output path was checked")

    monkeypatch.setattr(singular_lq.cli, "run_sweep", no_sweep)
    (tmp_path / "taken.slopes.csv").mkdir()
    (tmp_path / "kept.csv").write_text("")
    access = os.access
    # os.access grants root every write, and tests may run as root, so each
    # check of write access is reached by denying it for one path.
    for out, denied, text in (
        (tmp_path / "missing" / "r.csv", None, "no directory"),
        (tmp_path, None, "is a directory"),
        (tmp_path / "taken.csv", None, "taken.slopes.csv: it is a directory"),
        (tmp_path / "r.csv", tmp_path, f"directory {tmp_path} is not writable"),
        (tmp_path / "kept.csv", tmp_path / "kept.csv", "kept.csv: not writable"),
    ):
        def denying(path, mode, denied=denied):
            if denied and os.path.abspath(path) == str(denied) and mode & os.W_OK:
                return False
            return access(path, mode)

        monkeypatch.setattr(singular_lq.cli.os, "access", denying)
        args = ["sweep", "--family", "2", "--n", "5", "--deltas", "1e-10..1e-8", "--out", str(out)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --out: cannot write" in captured.err and text in captured.err
        assert "Traceback" not in captured.err


def test_sweep_rejects_a_negative_seed_before_any_run(capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started before --seed was checked")

    monkeypatch.setattr(singular_lq.experiments, "run", no_run)
    for family in ("1", "2", "3"):
        args = ["sweep", "--family", family, "--n", "4", "--deltas", "1e-8", "--seed", "-1"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be a non-negative integer, got -1\n"


def test_sweep_rejects_a_size_below_the_familys_smallest_before_any_run(capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started before every size was checked")

    monkeypatch.setattr(singular_lq.experiments, "run", no_run)
    assert main(["sweep", "--family", "1", "--n", "4,1", "--deltas", "1e-8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: family 1 needs an integer n >= 2, got 1\n"


def test_sweep_rejects_an_unknown_family_before_any_run(capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started before --family was checked")

    monkeypatch.setattr(singular_lq.experiments, "run", no_run)
    for family in ("0", "4", "-1"):
        assert main(["sweep", "--family", family, "--n", "4", "--deltas", "1e-8"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: family must be one of [1, 2, 3], got {family}\n"


def test_sweep_seed_reaches_the_records(tmp_path, capsys):
    out = tmp_path / "seeded.csv"
    args = ["sweep", "--family", "1", "--n", "3,5", "--deltas", "1e-8,1e-6", "--trials", "2"]
    assert main(args + ["--seed", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    seeded = singular_lq.run_sweep(1, [3, 5], [1e-8, 1e-6], 1e-6, trials=2, seed=3)
    assert out.read_text() == singular_lq.records_to_csv(seeded)
    assert seeded != singular_lq.run_sweep(1, [3, 5], [1e-8, 1e-6], 1e-6, trials=2, seed=0)
