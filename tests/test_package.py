"""Package surface: each module's ``__all__`` is the one list of its public names,
and the README's quick start runs as written."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np

import singular_lq
from singular_lq import algorithm, closed_form, dae, experiments, geometry, problem

_MODULES = (algorithm, closed_form, dae, experiments, geometry, problem)

# The package's names when it still kept a list of its own.
_EARLIER = {
    "AlgorithmResult", "ConstraintMatrix", "ExperimentRecord", "FEEDBACK", "LQProblem",
    "LinearDAE", "LogLogFit", "PartialFeedback", "STAGNATION", "SlopeSummary", "Subspace",
    "SubspaceDimensionMismatch", "SvdSplit", "WeierstrassSpec", "build_weierstrass",
    "dae_constraint_chain", "feedback_rate_map", "final_submanifold", "gen_experiment1",
    "gen_experiment2", "gen_experiment3", "hamiltonian", "independent_rows", "loglog_fit",
    "max_principal_angle", "numerical_rank", "pencil_is_regular", "perturb",
    "primary_constraint", "random_weierstrass_spec", "regular_feedback", "run", "run_sweep",
    "slope_summary", "svd_split", "theorem2_blocks", "tilde_closed_form", "tilde_recurrence",
    "validate", "write_records_csv", "write_slopes_csv",
}


def test_package_exports_each_module_name_once():
    names = [name for module in _MODULES for name in module.__all__]
    assert singular_lq.__all__ == names
    assert len(set(names)) == len(names)
    for module in _MODULES:
        for name in module.__all__:
            assert getattr(singular_lq, name) is getattr(module, name)
    assert set(names) - _EARLIER == {"records_to_csv", "RECORD_HEADER", "SLOPE_HEADER"}



def test_readme_quick_start_runs_as_written():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    (block,) = re.findall(r"## Python quick start\n\n```python\n(.*?)```", readme.read_text("utf-8"), re.S)
    assert "# 3 3 feedback" in block and "# (2n+1, 2n-2) orthonormal" in block
    namespace, printed = {}, io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(block, namespace)
    assert printed.getvalue() == "3 3 feedback\n"
    basis = namespace["basis"]
    assert basis.shape == (9, 6)
    assert abs(basis.T @ basis - np.eye(6)).max() <= 1e-12
