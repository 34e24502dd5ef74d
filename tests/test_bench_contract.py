"""The names and output fields the benchmark's traced pass and its checks rely on.

``bench/tracing.py`` rebinds package functions by (module, attribute); a
renamed layer would otherwise drop out of ``bench/run.py --trace 1``
silently.  ``bench/session.py`` checks every ``analyze`` output against the
reference answers of ``bench/workloads.py``; a field moved out of the default
output would fail every request.  The modules are loaded by path and only read.
"""

import importlib
import json
import types
from pathlib import Path

import numpy as np
import pytest

import factorial2k
from factorial2k.cli import main
from factorial2k.contrasts import contrast_matrix
from factorial2k.core import FactorSpec, ingest_csv
from factorial2k.regression import IDENTITY_RTOL, ols_fit
from factorial2k.simulate import DesignSizes, PotentialOutcomeTable, monte_carlo
from factorial2k.weighting import equal_scheme

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    # executed from source so that no bytecode cache is written under bench/
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _resolve(module_name, attr):
    obj = importlib.import_module(f"factorial2k.{module_name}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize(
    "module_name, attr", [(m, a) for m, a, _ in _load("tracing").TARGETS]
)
def test_trace_target_resolves(module_name, attr):
    assert callable(_resolve(module_name, attr))


def test_generator_targets_return_iterators():
    # the traced pass calls next() on what a GENERATORS target returns
    tracing = _load("tracing")
    sample_args = {"simulate.enumerate_assignments": (DesignSizes(np.array([2, 2])),)}
    assert set(sample_args) == tracing.GENERATORS
    for module_name, attr, name in tracing.TARGETS:
        if name in tracing.GENERATORS:
            out = _resolve(module_name, attr)(*sample_args[name])
            assert iter(out) is out
            assert next(out).shape == (4,)


def test_contrast_sweep_and_reference_names():
    assert contrast_matrix(equal_scheme(3), 3).matrix.shape == (7, 8)
    assert factorial2k.regression.IDENTITY_RTOL > 0


def test_span_attributes_read_real_results(tmp_path):
    # every span that carries attributes, called as the traced pass calls it
    attrs = _load("tracing")._attrs
    path = tmp_path / "data.csv"
    path.write_text("A,B,Y\n0,0,1\n0,1,2\n1,0,3\n1,1,4\n1,1,5\n")
    args = (str(path), FactorSpec(("A", "B")))
    kwargs = {"outcome_col": "Y"}
    assert attrs("core.ingest_csv", ingest_csv, args, kwargs, ingest_csv(*args, **kwargs)) == {
        "rows": 5
    }
    args = (equal_scheme(3), 3)
    assert attrs("contrasts.contrast_matrix", contrast_matrix, args, {}, contrast_matrix(*args)) == {
        "entries": 56
    }
    args = (np.column_stack([np.ones(6), np.arange(6.0)]), np.arange(6.0) ** 2)
    assert attrs("regression.ols_fit", ols_fit, args, {}, ols_fit(*args)) == {"design_bytes": 96}
    table = PotentialOutcomeTable(np.arange(32.0).reshape(8, 4) % 5)
    args = (table, DesignSizes(np.full(4, 2)), lambda d: d.outcome[:2])
    kwargs = {"reps": 3, "seed": 1, "workers": 2}
    report = monte_carlo(*args, **kwargs)
    assert attrs("simulate.monte_carlo", monte_carlo, args, kwargs, report) == {
        "workers": 2,
        "reps": 3,
        "failures": 0,
    }


def _three_factor_forms(rng, cells):
    joint = np.full(8, 1.0 / 8)
    return [
        ("equal", joint, []),
        ("empirical", np.bincount(cells, minlength=8) / cells.size, []),
        ("equal", joint, ["--model", "A,B,C,A:B,A:C,B:C"]),
    ]


def test_default_analyze_output_keeps_the_checked_fields(tmp_path):
    # the fields bench/session.py's check reads, against the workload's own
    # reference answers and with its relative error
    workloads = _load("workloads")
    units, refs = workloads._analyze_plan(
        str(tmp_path), np.random.default_rng(4), 3, 1, (2, 5), _three_factor_forms
    )
    assert len(units) == 3
    for (req,) in units:
        assert main(req["argv"]) == 0
        payload = json.loads(Path(req["out"]).read_text())
        assert payload["verification"]["pass"] is True
        ref = refs[req["check"]["ref"]]
        effects = payload["moment"]["effects"]
        assert set(effects) == set(ref)
        for i, stat in enumerate(("estimate", "se")):
            expected = np.array([ref[lb][i] for lb in ref])
            actual = np.array([effects[lb][stat] for lb in ref])
            assert np.abs(actual - expected).max() <= IDENTITY_RTOL * np.abs(expected).max()
