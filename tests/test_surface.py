"""What the package exposes: the names the benchmark's tracer binds, and
domain types that take only their arrays.

perfbench/spans.py wraps every name in its LAYERS table and reads the
n_cal and beta arguments of the calibration functions by name, so a
rename or deletion there passes the unit tests but breaks a traced
benchmark run. The table is read from that file, not copied.
"""

import importlib
import importlib.util
import inspect
from dataclasses import fields
from pathlib import Path

import numpy as np

from rerand.balance import calibrate, choose_lambda
from rerand.core import Allocation, CovariateMatrix, make_allocation, standardize
from rerand.simharness import FactorGrid
from rerand.spectral import ComponentSelection, SpectralBasis, decompose, select_k

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced_layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


def test_every_traced_name_exists():
    missing = [
        f"{layer}.{name}" for layer, names in _traced_layers().items()
        for name in names
        if not callable(getattr(importlib.import_module(f"rerand.{layer}"), name, None))
    ]
    assert missing == []


def test_calibration_spans_bind_their_arguments():
    assert "n_cal" in inspect.signature(calibrate).parameters
    assert {"n_cal", "beta"} <= set(inspect.signature(choose_lambda).parameters)


def test_domain_types_take_only_their_arrays():
    def init_fields(cls):
        return [f.name for f in fields(cls) if f.init]

    assert init_fields(CovariateMatrix) == ["values"]
    assert init_fields(Allocation) == ["assignment"]
    assert init_fields(SpectralBasis) == ["u", "singular_values", "v"]
    assert init_fields(ComponentSelection) == ["k", "explained"]
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
