"""Tests of the benchmark's own helpers: percentiles, self times, output checks.

Run with ``python3 -m pytest perfbench/tests`` from the root of a checkout.
"""

import numpy as np
import pytest

import checks
import singular_lq as slq
from stats import nearest_rank, quartile_spread, samples_beyond, tail_percentile
from tracing import Span, Tracer, self_times, summarize, svd_flops, union_length


@pytest.mark.parametrize(
    "count, expected",
    [(1, None), (19, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected
    if expected is not None:
        assert samples_beyond(count, expected) >= 10


def test_nearest_rank_returns_a_sample():
    values = [float(v) for v in range(10, 0, -1)]
    assert nearest_rank(values, 50.0) == 5.0
    assert nearest_rank(values, 90.0) == 9.0
    assert nearest_rank(values, 100.0) == 10.0
    assert nearest_rank([3.0], 90.0) == 3.0
    with pytest.raises(ValueError):
        nearest_rank([], 50.0)


def test_quartile_spread_is_relative_to_the_median():
    assert quartile_spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert quartile_spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(3.0 / 10.0)


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert union_length([(0.0, 2.0), (1.0, 3.0), (2.5, 2.7)]) == 3.0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("cli.main", 0.0, 10.0, None, 0),
        Span("algorithm.run", 1.0, 4.0, 0, 0),
        Span("geometry.angle", 3.0, 6.0, 0, 0),  # overlaps its sibling
        Span("linalg.svd", 2.0, 3.0, 1, 0),
        Span("linalg.svd", 9.5, 11.0, 0, 0),  # ends after its parent
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 0.5, 2.0, 3.0, 1.0, 1.5])


def test_summarize_counts_nested_spans_once_and_attributes_svds():
    spans = [
        Span("algorithm.run", 0.0, 4.0, None, 0),
        Span("algorithm.run", 1.0, 2.0, 0, 0),
        Span("linalg.svd", 1.2, 1.5, 1, 0),
        Span("geometry.angle", 5.0, 6.0, None, 1),
        Span("linalg.svd", 5.1, 5.9, 3, 1),
    ]
    out = summarize(spans, {"algorithm.levels": 3})
    assert out["algorithm.run_s"] == pytest.approx(4.0)
    assert out["algorithm.run_calls"] == 2
    assert out["algorithm.self_s"] == pytest.approx(4.0 - 0.3)
    assert out["algorithm.svd_calls"] == 1
    assert out["geometry.svd_calls"] == 1
    assert out["linalg.svd_calls"] == 2
    assert out["linalg.svd_s"] == pytest.approx(1.1)
    assert out["algorithm.levels"] == 3


def test_svd_flops_by_shape():
    assert svd_flops((10, 4), compute_uv=False) == pytest.approx(4 * 10 * 16 - 4 * 64 / 3)
    assert svd_flops((4, 10), compute_uv=False) == svd_flops((10, 4), compute_uv=False)
    assert svd_flops((10, 4), full_matrices=True) == 4 * 100 * 4 + 22 * 64
    assert svd_flops((10, 4), full_matrices=False) == 6 * 10 * 16 + 20 * 64
    assert svd_flops((3, 10, 4), compute_uv=False) == 3 * svd_flops((10, 4), compute_uv=False)


def test_tracer_records_layers_and_restores_the_package():
    original = slq.run
    problem = slq.gen_experiment3(6)
    with Tracer() as tracer:
        assert slq.run is not original
        tracer.active = True
        result = slq.run(problem, 1e-6)
        slq.final_submanifold(result)
        tracer.active = False
        slq.run(problem, 1e-6)  # inactive: not recorded
    assert slq.run is original and slq.algorithm.run is original
    assert np.linalg.svd.__module__.startswith("numpy")
    out = summarize(tracer.spans, tracer.counters)
    assert out["algorithm.run_calls"] == 1
    assert out["algorithm.levels"] == len(result.rank_history)
    assert out["algorithm.svd_calls"] == out["linalg.svd_calls"] > 0
    assert out["linalg.svd_flops"] > 0


def _sweep_csv(spec):
    records = slq.run_sweep(
        spec.family, spec.sizes, spec.deltas, spec.tol, trials=spec.trials, seed=spec.seed
    )
    return slq.experiments.records_to_csv(records)


SPEC = checks.SweepSpec(family=2, sizes=(5,), deltas=(1e-10, 1e-9), tol=1e-6, trials=2, seed=3)
EXACT = {5: 3}


def _corrupt(text, row, column, value):
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_sweep_check_accepts_a_true_sweep():
    text = _sweep_csv(SPEC)
    outcome = checks.check_sweep_csv(text, SPEC, EXACT)
    assert outcome.problems == []
    assert outcome.steps_match == 4 and outcome.usable == 4
    for index in range(4):
        assert checks.regenerate_record(text, SPEC, index, slq.run_sweep) == []


@pytest.mark.parametrize(
    "column, value",
    [("exact_steps", "4"), ("alpha", "mismatch"), ("alpha", "-1e-9"), ("alpha", "0.01"),
     ("delta", "1e-08"), ("seed", "4"), ("codim", "x"), ("steps", "2")],
)
def test_sweep_check_rejects_a_corrupted_record(column, value):
    text = _corrupt(_sweep_csv(SPEC), 1, column, value)
    assert checks.check_sweep_csv(text, SPEC, EXACT).problems


def test_sweep_check_rejects_a_missing_record():
    text = _sweep_csv(SPEC)
    assert checks.check_sweep_csv(text.rsplit("\n", 2)[0] + "\n", SPEC, EXACT).problems


@pytest.mark.parametrize("column, value", [("steps", "2"), ("alpha", "1.5e-13")])
def test_regeneration_rejects_a_record_the_sweep_did_not_produce(column, value):
    text = _corrupt(_sweep_csv(SPEC), 2, column, value)
    assert checks.regenerate_record(text, SPEC, 2, slq.run_sweep)


def test_solve_check_rejects_a_lost_level():
    problem = slq.gen_experiment3(8)
    result = slq.run(problem, 1e-6)
    basis = slq.final_submanifold(result)
    assert checks.check_solve(problem, True, result, basis, slq.theorem2_blocks).problems == []
    shallow = slq.AlgorithmResult(**{**result.__dict__, "steps": 7})
    assert checks.check_solve(problem, True, shallow, basis, slq.theorem2_blocks).problems
    assert checks.check_solve(problem, True, result, basis[:, 1:], slq.theorem2_blocks).problems


def _chain(seed=0):
    spec = slq.random_weierstrass_spec(np.random.default_rng(seed), d_max=4, q_max=6)
    chain, steps = slq.dae_constraint_chain(slq.build_weierstrass(spec))
    return spec, chain, steps


def test_chain_check_accepts_a_true_chain():
    spec, chain, steps = _chain()
    good = checks.check_chain(spec, chain, steps, True)
    assert good.problems == [] and good.steps_match == 1 and good.regular == 1
    assert checks.check_chain(spec, chain, steps, False).regular == 0


def test_chain_check_rejects_a_wrong_subspace_or_a_short_chain():
    spec, chain, steps = _chain()
    wrong = chain[:-1] + [np.eye(spec.d + spec.q)[:, : spec.d + 1]]
    assert checks.check_chain(spec, wrong, steps, True).problems
    assert checks.check_chain(spec, chain, steps - 1, True).problems


def test_chain_check_counts_an_overrun_only_below_the_finite_part():
    spec, chain, steps = _chain()
    # An overrun that kept the d-dimensional finite part is not the known defect.
    assert checks.check_chain(spec, chain, steps + 1, True).problems
    overrun = chain + [chain[-1][:, : spec.d - 1]]
    counted = checks.check_chain(spec, overrun, steps + 1, True)
    assert counted.problems == [] and counted.steps_match == 0


def test_compare_counts_only_the_worse_direction():
    import steadiness

    config = {"end_to_end": [
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "time", "unit": "s", "better": "lower", "bound": 0.25},
    ]}

    def runs(rate, time):
        return {"w": [{"metrics": {"rate": {"value": rate}, "time": {"value": time}}}]}

    assert steadiness.compare(config, runs(10.0, 1.0), runs(20.0, 0.5))
    assert steadiness.compare(config, runs(10.0, 1.0), runs(8.0, 1.2))
    assert not steadiness.compare(config, runs(10.0, 1.0), runs(7.0, 1.0))
    assert not steadiness.compare(config, runs(10.0, 1.0), runs(10.0, 1.3))
