"""What the package exposes: one way in to each public name, the names the
benchmark's tracer binds, and domain types that take only their arrays.

`__all__` lists exactly the public names `__init__.py` binds. The test
references and the helpers that only `balance` reads live at their module
paths alone, not at the top level.

perfbench/spans.py wraps every name in its LAYERS table and reads the
n_cal argument of calibrate by name, so a rename or deletion there passes
the unit tests but breaks a traced benchmark run. Its table still lists
balance.choose_lambda, now the name of the one penalty rule,
default_lambda. The table is read from that file, not copied.
"""

import ast
import importlib
import importlib.util
import inspect
from dataclasses import fields
from pathlib import Path

import numpy as np

import rerand
from rerand import balance
from rerand.balance import BalanceCriterion, CovReductionReport, calibrate
from rerand.core import Allocation, CovariateMatrix, make_allocation, standardize
from rerand.simharness import FactorGrid
from rerand.spectral import ComponentSelection, SpectralBasis, decompose, select_k

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced_layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


# Module -> public names that the top level does not re-export: test
# references that no command, engine or study path calls, and the dist
# functions that only balance reads.
_MODULE_ONLY = {
    "balance": ("mahalanobis", "mahalanobis_pca", "mahalanobis_ridge"),
    "core": ("make_allocation", "sate_estimator"),
    "dist": ("chi2_cdf", "chi2_quantile", "shrinkage_coeff"),
    "simharness": ("OutcomeModel", "gen_outcome", "nested_submatrix"),
    "spectral": ("project",),
}


def test_all_lists_exactly_the_public_names_init_binds():
    bound = set()
    for node in ast.parse(Path(rerand.__file__).read_text()).body:
        if isinstance(node, ast.ImportFrom):
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Assign):
            bound |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    assert sorted(rerand.__all__) == sorted(n for n in bound if not n.startswith("_"))
    assert len(set(rerand.__all__)) == len(rerand.__all__) == 32


def test_module_only_names_are_not_at_the_top_level():
    for module, names in _MODULE_ONLY.items():
        for name in names:
            assert not hasattr(rerand, name), name
            assert callable(getattr(importlib.import_module(f"rerand.{module}"), name))


def test_every_traced_name_exists():
    missing = [
        f"{layer}.{name}" for layer, names in _traced_layers().items()
        for name in names
        if not callable(getattr(importlib.import_module(f"rerand.{layer}"), name, None))
    ]
    assert missing == []


def test_calibration_spans_bind_their_arguments():
    assert "n_cal" in inspect.signature(calibrate).parameters
    assert balance.choose_lambda is balance.default_lambda


def test_domain_types_take_only_their_arrays():
    def init_fields(cls):
        return [f.name for f in fields(cls) if f.init]

    assert init_fields(CovariateMatrix) == ["values"]
    assert init_fields(Allocation) == ["assignment"]
    assert init_fields(SpectralBasis) == ["u", "singular_values", "v"]
    assert init_fields(ComponentSelection) == ["k", "explained"]
    # a rule records the (n, p) it was calibrated on; sigma_factor, dof and
    # degenerate are derived from them, and the report's shrinkage is the rule's
    assert init_fields(BalanceCriterion) == ["scheme", "acceptance_prob", "n", "threshold", "p",
                                             "k", "lam", "n_cal"]
    assert all(isinstance(getattr(BalanceCriterion, name), property)
               for name in ("sigma_factor", "dof", "degenerate"))
    assert init_fields(CovReductionReport) == ["scheme", "per_component_shrinkage",
                                               "per_covariate_prv", "predicted_tau_var_reduction"]
    assert list(inspect.signature(decompose).parameters) == ["x"]
    assert "ridge_n_cal" not in init_fields(FactorGrid)


def test_derived_sizes_follow_the_arrays():
    raw = np.random.default_rng(5).standard_normal((7, 9))
    x = standardize(raw)
    assert (x.n, x.d) == x.values.shape == (7, 9)
    basis = decompose(x)
    assert basis.p == len(basis.singular_values) == basis.u.shape[1] == basis.v.shape[1] == 6
    assert select_k(basis, 0.5).explained.shape == (basis.p,)
    w = make_allocation([1, 0, 1, 1, 0, 0, 1])
    assert (w.n, w.n_treated, w.n_control, w.equal_split) == (7, 4, 3, False)
